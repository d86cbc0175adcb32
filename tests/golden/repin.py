"""Check, re-pin or print every golden of ``helpers.GOLDENS``.

    python3 tests/golden/repin.py            # report; exit 1 if a golden moved
    python3 tests/golden/repin.py --write    # re-pin what moved, if every rule permits
    python3 tests/golden/repin.py --print    # every fresh table, for a byte comparison

Each golden is recomputed in process and compared with its file by
``helpers.changed_cells`` (the condensation panel as one row per solve).
Report mode prints each changed cell with its relative change and, in a
Monte-Carlo table, |delta| / hw95; it marks MOVED any change to a
deterministic golden and any Monte-Carlo cell beyond ``MC_RTOL``, and exits
1 if a cell moved or a producer failed.  Its last line names the largest
|delta| / hw95: over some 30 cells, a value well above 2.5 points to a
defect, not to a new stream.  ``--write`` rewrites the goldens that moved,
and any not pinned yet, only if every golden's rule permits its move;
otherwise it names each refusal and writes nothing.  The DRAWS rule refuses
a cell beyond ``MAX_HW95`` half-widths.
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from dce.ostbc import CODE_SYMBOLS  # noqa: E402
from helpers import (DRAWS, EXACT, GOLDENS, SOLVER, changed_cells,  # noqa: E402
                     float_cell, moved, produce, table_text)

# a solver golden's float cell may move this much without improving its row
SOLVER_RTOL = 1e-9
# a re-drawn Monte-Carlo cell lands farther than this many of its 95%
# half-widths from its pin with probability about 3e-8 (two independent
# estimates: |delta| / hw95 ~ |N(0, 2)| / 1.96): beyond it, the move is a
# defect, not a new stream
MAX_HW95 = 4.0
# the half-width column of each empirical NMSE column
HALF_WIDTH = {"nmse_l_empirical": "hw95_lr", "nmse_u_empirical": "hw95_ur"}


def _rows(text: str) -> list:
    lines = [r.split(",") for r in text.splitlines()]
    return [dict(zip(lines[0], r)) for r in lines[1:]]


def _half_width(row: dict, col: str, new: str) -> float:
    """An NMSE cell's printed half-width; a SER cell's binomial one at the
    larger of its two rates, so a cell pinned at 0 gets one too."""
    if col in HALF_WIDTH:
        return float(row[HALF_WIDTH[col]])
    if col.startswith("ser_"):
        p = max(float(row[col]), float(new))
        return 1.96 * math.sqrt(p * (1 - p) / (int(row["trials"]) * CODE_SYMBOLS))
    return math.nan


def judge(golden, old: str, new: str) -> tuple:
    """Print each changed cell of one golden.  Returns the moved cells, each
    as (|delta| / hw95 or nan, where), and why the golden's rule refuses to
    re-pin them."""
    old_t, new_t = table_text(golden.file, old), table_text(golden.file, new)
    old_rows, new_rows = _rows(old_t), _rows(new_t)
    objective = "objective" if "objective" in old_rows[0] else "nmse_l"
    cells = (changed_cells(old_t, new_t) if golden.rule == DRAWS
             else moved(golden, old, new))
    moved_cells, refused = [], []
    for i, col, a, b, is_moved in cells:
        where = f"{golden.file} {'header' if i is None else f'row {i}'} {col}"
        line, ratio = f"{where:40s} {a:>24} {b:>24}", math.nan
        # a SER rate pinned at 0 prints as "0", which float_cell reads as an
        # integer; it still gets its binomial half-width
        if i is not None and (float_cell(a) and float_cell(b) or
                              golden.rule == DRAWS and col.startswith("ser_")):
            rel = abs(float(b) - float(a)) / abs(float(a)) if float(a) else math.inf
            line += f" rel {rel:.1e}"
            if golden.rule == DRAWS:
                ratio = abs(float(b) - float(a)) / _half_width(old_rows[i - 1], col, b)
                line += "" if math.isnan(ratio) else f"  |d|/hw95 {ratio:.2g}"
                if ratio > MAX_HW95:
                    refused.append(f"{where} moved {ratio:.2g} half-widths, "
                                   f"beyond {MAX_HW95:g}")
            elif (golden.rule == SOLVER and rel > SOLVER_RTOL and not
                  float(new_rows[i - 1][objective]) < float(old_rows[i - 1][objective])):
                refused.append(f"{where} moved {rel:.1e} without improving {objective}")
        elif golden.rule == SOLVER:  # the header, an integer or a text cell
            refused.append(f"{where}: {a} -> {b}")
        if is_moved:
            moved_cells.append((ratio, where))
        print(line + ("  MOVED" if is_moved else ""))
    if golden.rule == EXACT and moved_cells:
        refused.append(f"{golden.file}: an exact golden is never re-pinned")
    return moved_cells, refused


def summary(moved_cells: list) -> str:
    ratios = [c for c in moved_cells if not math.isnan(c[0])]
    worst = ", largest |d|/hw95 {:.2g} at {}".format(*max(ratios)) if ratios else ""
    return f"{len(moved_cells)} MOVED cells{worst}"


def main(argv: list, goldens: dict = GOLDENS, golden_dir: Path = HERE,
         produce=produce) -> int:
    if argv not in ([], ["--write"], ["--print"]):
        print(__doc__, file=sys.stderr)
        return 2
    fresh, problems = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        if argv == ["--print"]:
            for name, golden in goldens.items():
                text = produce(name, Path(tmp))
                sys.stdout.buffer.write(f"# {golden.file}\n{text}".encode())
            return 0
        for name, golden in goldens.items():
            try:
                fresh[name] = produce(name, Path(tmp))
            except Exception as exc:  # noqa: BLE001 - any failure breaks the pin
                problems.append(f"{golden.file}: {type(exc).__name__}: {exc}")
    moved_cells, writes, refused = [], [], []
    for name, new in fresh.items():
        path = golden_dir / goldens[name].file
        if not path.exists():
            print(f"{path.name}: no golden yet")
            writes.append((path, new))
            continue
        cells, why = judge(goldens[name], path.read_bytes().decode(), new)
        if cells:
            moved_cells += cells
            refused += why
            writes.append((path, new))
    print(summary(moved_cells))
    write = argv == ["--write"]
    refused = problems + (refused if write else [])
    if refused:
        print("refusing to write:" if write else "failed:", *refused,
              sep="\n  ", file=sys.stderr)
    if not write or refused:
        return int(bool(refused or writes))
    for path, new in writes:
        path.write_bytes(new.encode())
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
