"""Re-pin the two non-reciprocal goldens from the working tree.

    python3 tests/golden/recapture.py

Recomputes ``condense_panel.json`` (eight ``condense`` results) and
``alloc_non_reciprocal.csv`` (the ``dce alloc`` grid that
``tests/test_cli.py::test_alloc_matches_golden_bytes`` runs), prints every
entry's old value, new value and relative difference, and rewrites both
files only if the change keeps the golden policy:

* every panel entry keeps its round count and ``converged`` flag, and no
  solve raises where none did (the CSV stores no round counts; its grid
  must still exit 0 with the same rows);
* every value moves by at most ``MAX_REL`` relative, unless the entry's
  objective (the panel's ``objective``, the CSV's ``nmse_l``) improves.

Otherwise it writes nothing and exits 1.  ``alloc_reciprocal.csv`` is not
touched: ``dce alloc`` for the reciprocal scheme runs no GP.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from dce.cli import main as dce_main  # noqa: E402
from dce.gp import condense  # noqa: E402
from dce.params import default_params  # noqa: E402

MAX_REL = 1e-9
PANEL = HERE / "condense_panel.json"
ALLOC_CSV = HERE / "alloc_non_reciprocal.csv"
ALLOC_ARGV = ["alloc", "--scheme", "non-reciprocal",
              "--pave-db", "10,15,20,25,30", "--gamma", "0.5,0.2,0.1"]


def _rel(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else float("inf")


def _state_fields(text: str) -> dict:
    return {k: float(v) for k, v in re.findall(r"(\w+)=([^,)]+)", text)}


def recapture_panel(problems: list) -> str:
    old_panel = json.loads(PANEL.read_text())
    new_panel = []
    for case in old_panel:
        tag = f"panel {case['p_ave_db']:.1f} dB"
        try:
            sol = condense(default_params(p_ave_db=case["p_ave_db"]), case["gamma"])
        except Exception as exc:  # noqa: BLE001 - any raise breaks the pin
            problems.append(f"{tag}: now raises {type(exc).__name__}: {exc}")
            new_panel.append(case)
            continue
        new = dict(case, objective=repr(float(sol.objective)),
                   state=repr(sol.state), rounds=len(sol.trace.steps),
                   converged=sol.trace.converged)
        for key in ("rounds", "converged"):
            if new[key] != case[key]:
                problems.append(f"{tag}: {key} {case[key]} -> {new[key]}")
        improved = float(new["objective"]) < float(case["objective"])
        pairs = [("objective", float(case["objective"]), float(new["objective"]))]
        old_state, new_state = _state_fields(case["state"]), _state_fields(new["state"])
        pairs += [(k, old_state[k], new_state[k]) for k in old_state]
        for name, old, val in pairs:
            rel = _rel(old, val)
            print(f"{tag:16s} {name:9s} {old!r:>24} {val!r:>24} {rel:.1e}")
            if rel > MAX_REL and not improved:
                problems.append(f"{tag}: {name} moved {rel:.1e} without improving")
        new_panel.append(new)
    return json.dumps(new_panel, indent=1) + "\n"


def recapture_alloc_csv(problems: list) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "alloc.csv"
        code = dce_main(ALLOC_ARGV + ["--out", str(out)])
        if code != 0:
            problems.append(f"dce alloc exited {code}")
            return ALLOC_CSV.read_bytes()
        lines = out.read_bytes().splitlines(keepends=True)
    table = b"".join(r for r in lines if not r.startswith(b"#"))
    old_rows = list(csv.reader(io.StringIO(ALLOC_CSV.read_bytes().decode())))
    new_rows = list(csv.reader(io.StringIO(table.decode())))
    header = old_rows[0]
    if new_rows[0] != header or [r[:2] for r in new_rows] != [r[:2] for r in old_rows]:
        problems.append("dce alloc printed a different header or grid")
        return table
    objective = header.index("nmse_l")
    changed = 0
    for old, new in zip(old_rows[1:], new_rows[1:]):
        tag = f"csv {old[0]} dB g={float(old[1]):g}"
        improved = float(new[objective]) < float(old[objective])
        for name, a, b in zip(header, old, new):
            if a == b:
                continue
            changed += 1
            rel = _rel(float(a), float(b))
            print(f"{tag:16s} {name:9s} {a:>24} {b:>24} {rel:.1e}")
            if rel > MAX_REL and not improved:
                problems.append(f"{tag}: {name} moved {rel:.1e} without improving")
    cells = (len(old_rows) - 1) * len(header)
    print(f"alloc_non_reciprocal.csv: {changed} of {cells} cells changed")
    return table


def main() -> int:
    problems: list = []
    panel = recapture_panel(problems)
    table = recapture_alloc_csv(problems)
    if problems:
        print("refusing to write:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    PANEL.write_text(panel)
    ALLOC_CSV.write_bytes(table)
    print(f"wrote {PANEL.name} and {ALLOC_CSV.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
