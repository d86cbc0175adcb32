"""Helpers shared by several test modules; pytest puts this directory on
``sys.path``, so tests import them as ``from helpers import ...``."""

import json
import re
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

import numpy as np


def strip_footer(text: str) -> str:
    """Drop footer/comment lines; used when comparing renders for equality."""
    kept = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return "\n".join(kept)


def dft_pilot(tau: int, n: int) -> np.ndarray:
    """First ``n`` columns of the unitary ``tau``-point DFT: a tau x n pilot
    with C^H C = I_n, the explicit pilot the training statistics stand for."""
    if n > tau:
        raise ValueError("semi-unitary pilot needs tau >= n")
    j, k = np.meshgrid(np.arange(tau), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / tau) / np.sqrt(tau)


def trials_first(x: np.ndarray) -> np.ndarray:
    """A trial-last (rows, cols, T) stack as the (T, rows, cols) view that
    per-trial references written with ``@`` and ``np.linalg`` work on."""
    return np.moveaxis(x, -1, 0)


def trials_last(x: np.ndarray) -> np.ndarray:
    """A (T, rows, cols) stack as the trial-last view ``dce`` works on."""
    return np.moveaxis(x, 0, -1)


# Every golden under golden/: its file, its rule (tests/golden/repin.py
# applies them), and the `dce` command line that prints it with the
# geometry config that command reads, or None for the condensation panel.
# The Monte-Carlo tables run at 4x2, 4x3(+5) (the decoder at M = 3 and 5
# columns), 16x8(+8) and 32x16(+16): 8 and 16 Householder reflectors per trial.
#   DRAWS   a float cell may move by MC_RTOL, and a table moved beyond
#           that is re-pinned;
#   SOLVER  re-pinned only if no producer fails, no integer or text cell
#           changes and no float cell moves by more than 1e-9 relative
#           unless its row's objective improves;
#   EXACT   never re-pinned.
DRAWS, SOLVER, EXACT = "draws", "solver", "exact"
GOLDEN_DIR = Path(__file__).parent / "golden"


class Golden(NamedTuple):
    file: str
    rule: str
    argv: Optional[Tuple[str, ...]]
    config: Optional[str] = None


_NMSE = ("nmse", "--trials", "2000", "--seed", "4")
_NMSE32 = ("nmse", "--trials", "300", "--seed", "4")
_SER = ("ser", "--trials", "1000", "--seed", "4")
_POINT = ("--gamma", "0.1", "--pave-db", "20")
_ECHO = ("--scheme", "non-reciprocal")
_MC = {
    "nmse": (_NMSE + _POINT, None),
    "tau": (_NMSE + _POINT + ("--tau-f", "4,8,16"), None),
    "echo": (_NMSE + _ECHO + _POINT, None),
    "ser": (_SER + _ECHO + _POINT, None),
    "ser16": (_SER + _ECHO + _POINT + ("--modulation", "16"), None),
    "serrecip": (_SER + ("--gamma", "0.1", "--pave-db", "10,20,30"), None),
    "ser_wide": (_SER + _ECHO + _POINT, "n_l=3\nn_u=5\n"),
    "wide": (_NMSE, "n_t=16\nn_l=8\nn_u=8\ntau_f=64\ntau_r=16\n"),
    "wide_echo": (_NMSE + _ECHO, "n_t=16\nn_l=8\nn_u=8\n"),
    "wide32": (_NMSE32, "n_t=32\nn_l=16\nn_u=16\n"),
    "wide32_echo": (_NMSE32 + _ECHO, "n_t=32\nn_l=16\nn_u=16\n"),
}
GOLDENS = {name: Golden(f"mc_{name}.csv", DRAWS, argv, config)
           for name, (argv, config) in _MC.items()}
GOLDENS.update(
    alloc_reciprocal=Golden("alloc_reciprocal.csv", EXACT, (
        "alloc", "--scheme", "reciprocal", "--pave-db",
        "0,5,10,15,20,25,30,35,40,45", "--gamma", "0.5,0.1,0.03,0.01")),
    alloc_non_reciprocal=Golden("alloc_non_reciprocal.csv", SOLVER, (
        "alloc", "--scheme", "non-reciprocal", "--pave-db", "10,15,20,25,30",
        "--gamma", "0.5,0.2,0.1")),
    # eight condense solves over 0-45 dB, at the points the file holds
    condense_panel=Golden("condense_panel.json", SOLVER, None),
)
# A float cell may move by this much relative (another CPU's BLAS kernels
# round differently); a changed draw moves a cell by about its half-width.
MC_RTOL = 1e-12


def produce(name, tmp_dir) -> str:
    """The text golden ``name`` pins, computed afresh in process: its `dce`
    table with comment lines dropped, or the condensation panel."""
    from dce.cli import main

    golden = GOLDENS[name]
    if golden.argv is None:
        return _condense_panel(GOLDEN_DIR / golden.file)
    argv = list(golden.argv)
    if golden.config is not None:
        cfg = tmp_dir / f"{name}.cfg"
        cfg.write_text(golden.config)
        argv += ["--config", str(cfg)]
    out = tmp_dir / f"{name}.out"
    code = main(argv + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"dce {' '.join(argv)} exited {code}")
    lines = out.read_bytes().decode().splitlines(keepends=True)
    return "".join(r for r in lines if not r.startswith("#"))


def _condense_panel(path) -> str:
    from dce.gp import condense
    from dce.params import default_params

    panel = []
    for case in json.loads(path.read_text()):
        sol = condense(default_params(p_ave_db=case["p_ave_db"]), case["gamma"])
        panel.append(dict(case, objective=repr(float(sol.objective)),
                          state=repr(sol.state), rounds=len(sol.trace.steps),
                          converged=sol.trace.converged))
    return json.dumps(panel, indent=1) + "\n"


def table_text(file: str, text: str) -> str:
    """A golden's text as CSV rows: a table as it is, the condensation
    panel as one row per solve: objective, t...t4, rounds, converged."""
    if not file.endswith(".json"):
        return text
    rows = [{"objective": case["objective"],
             **dict(re.findall(r"(\w+)=([^,)]+)", case["state"])),
             "rounds": str(case["rounds"]), "converged": json.dumps(case["converged"])}
            for case in json.loads(text)]
    return "".join(",".join(r) + "\n" for r in [rows[0], *(r.values() for r in rows)])


def moved(golden: Golden, old: str, new: str) -> list:
    """The changed_cells entries by which ``new`` breaks ``golden``'s pin
    ``old``: a Monte-Carlo cell beyond rounding, or any change to a
    deterministic golden (the one entry (None, "bytes", ...) when no cell
    differs but the bytes do)."""
    cells = changed_cells(table_text(golden.file, old), table_text(golden.file, new))
    if golden.rule == DRAWS:
        return [c for c in cells if c[-1]]
    if old != new and not cells:
        return [(None, "bytes", f"{len(old)} bytes", f"{len(new)} bytes", True)]
    return [c[:4] + (True,) for c in cells]


def changed_cells(golden: str, table: str):
    """Each cell whose text differs between ``golden`` and ``table``, as
    (row, column, old, new, moved).  ``moved`` marks a change beyond
    rounding: an integer or text cell must match exactly, a float cell
    within MC_RTOL relative.  Cells are matched by column name, so a header
    change still shows every shared cell: a column only one header has is
    the entry (None, column, "column", "dropped" or "added", True), shared
    columns in another order the entry (None, "order", old, new, True), and
    a changed row count the one entry (None, "shape", old, new, True)."""
    old = [r.split(",") for r in golden.splitlines()]
    new = [r.split(",") for r in table.splitlines()]
    if len(old) != len(new):
        return [(None, "shape", f"{len(old)} rows", f"{len(new)} rows", True)]
    shared = [c for c in old[0] if c in new[0]]
    cells = [(None, c, "column", "dropped", True) for c in old[0] if c not in new[0]]
    cells += [(None, c, "column", "added", True) for c in new[0] if c not in old[0]]
    if shared != [c for c in new[0] if c in old[0]]:
        cells.append((None, "order", " ".join(shared),
                      " ".join(c for c in new[0] if c in old[0]), True))
    pairs = [(dict(zip(old[0], a)), dict(zip(new[0], b)))
             for a, b in zip(old[1:], new[1:])]
    return cells + [(i, col, a[col], b[col], not _close(a[col], b[col]))
                    for i, (a, b) in enumerate(pairs, start=1)
                    for col in shared if a[col] != b[col]]


def float_cell(text: str) -> bool:
    """A cell that holds a float: it parses as one and is not an integer
    (counts, lengths, rounds), which must match exactly, as text must."""
    try:
        float(text)
    except ValueError:
        return False
    return not text.lstrip("-").isdigit()


def _close(a: str, b: str) -> bool:
    return (float_cell(a) and float_cell(b)
            and abs(float(b) - float(a)) <= MC_RTOL * abs(float(a)))
