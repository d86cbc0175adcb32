"""Check, and on request re-pin, the Monte-Carlo goldens ``mc_*.csv``.

    python3 tests/golden/repin_mc.py           # report, write nothing
    python3 tests/golden/repin_mc.py --write   # re-pin the tables that moved

Runs the eleven ``dce nmse``/``dce ser`` tables of ``helpers.MC_TABLES`` in
process and prints every cell whose text changed, matched by column name,
with its relative change and |delta| / hw95; a dropped, added or reordered
column is one ``header`` line.  An NMSE cell's hw95 is its row's printed
half-width; a SER cell's is the binomial half-width over the row's symbols,
at the larger of its old and new rates.  A cell that moved beyond rounding
(``helpers.changed_cells``) is marked ``MOVED``, and the script exits 1 if
any did.  The report ends with one line: the number of ``MOVED`` cells and
the largest |delta| / hw95, with its table, row and column.

``--write`` rewrites only the tables with a ``MOVED`` cell (and any golden
that does not exist yet).  A table that moved only within rounding keeps its
bytes, so re-pinning on a machine whose BLAS rounds differently pins no
noise.  The rule: a change that claims no output moved leaves these files
as they are; a change that moves the draws re-pins, and its CHANGES.md
entry lists every ``MOVED`` cell this script printed.
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from dce.ostbc import CODE_SYMBOLS  # noqa: E402
from helpers import MC_TABLES, changed_cells, run_mc_table  # noqa: E402

# the half-width column of each empirical NMSE column
HALF_WIDTH = {"nmse_l_empirical": "hw95_lr", "nmse_u_empirical": "hw95_ur"}


def _half_width(header: list, row: list, col: str, new: str) -> float:
    if col in HALF_WIDTH:
        return float(row[header.index(HALF_WIDTH[col])])
    if col.startswith("ser_"):
        # at the larger of the two rates, so a cell pinned at 0 gets one too
        p = max(float(row[header.index(col)]), float(new))
        symbols = int(row[header.index("trials")]) * CODE_SYMBOLS
        return 1.96 * math.sqrt(p * (1 - p) / symbols)
    return math.nan


def report(name: str, golden: str, table: str) -> list:
    """Print each changed cell of one table; returns the cells that moved
    beyond rounding, each as (|delta| / hw95 or nan, where)."""
    rows = [r.split(",") for r in golden.splitlines()]
    moved_cells = []
    for i, col, old, new, moved in changed_cells(golden, table):
        at = "header" if i is None else f"row {i}"
        where = f"mc_{name}.csv {at} {col}"
        line, ratio = f"mc_{name}.csv {at} {col:17s} {old:>24} {new:>24}", math.nan
        try:
            delta = abs(float(new) - float(old))
            line += f" rel {delta / abs(float(old)) if float(old) else math.inf:.1e}"
            ratio = delta / _half_width(rows[0], rows[i], col, new)
            line += "" if math.isnan(ratio) else f"  |d|/hw95 {ratio:.2g}"
        except (TypeError, ValueError):  # a text cell, or the table's header or shape
            pass
        if moved:
            moved_cells.append((ratio, where))
        print(line + ("  MOVED" if moved else ""))
    return moved_cells


def main(argv: list) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__, file=sys.stderr)
        return 2
    any_moved, moved_cells = False, []
    with tempfile.TemporaryDirectory() as tmp:
        for name in MC_TABLES:
            path = HERE / f"mc_{name}.csv"
            table = run_mc_table(name, Path(tmp)).decode()
            if not path.exists():
                print(f"mc_{name}.csv: no golden yet")
                moved = True
            else:
                cells = report(name, path.read_text(), table)
                moved_cells += cells
                moved = bool(cells)
            any_moved |= moved
            if write and moved:
                path.write_text(table)
                print(f"wrote mc_{name}.csv")
    if not any_moved:
        print("every Monte-Carlo golden holds")
    print(summary(moved_cells))
    return int(any_moved and not write)


def summary(moved_cells: list) -> str:
    """One line: how many cells moved, and the largest |delta| / hw95.  Two
    independent estimates differ by about sqrt(2) sigma, so over some 30
    cells a largest value well above 2.5 points to a defect, not to noise."""
    ratios = [c for c in moved_cells if not math.isnan(c[0])]
    if not ratios:
        return f"{len(moved_cells)} MOVED cells"
    ratio, where = max(ratios)
    return f"{len(moved_cells)} MOVED cells, largest |d|/hw95 {ratio:.2g} at {where}"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
