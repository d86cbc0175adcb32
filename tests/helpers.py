"""Helpers shared by several test modules; pytest puts this directory on
``sys.path``, so tests import them as ``from helpers import ...``."""

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


# The 4x2, 4x3(+5), 16x8 and 32x16 Monte-Carlo tables CI's thread-`cmp` step
# prints, pinned as golden/mc_<name>.csv: each name's `dce` command line and
# the geometry config it reads (geometry keys have no flags), or None.
_NMSE = ["nmse", "--trials", "2000", "--seed", "4"]
_NMSE32 = ["nmse", "--trials", "300", "--seed", "4"]
_SER = ["ser", "--trials", "1000", "--seed", "4"]
_POINT = ["--gamma", "0.1", "--pave-db", "20"]
_ECHO = ["--scheme", "non-reciprocal"]
MC_TABLES = {
    "nmse": (_NMSE + _POINT, None),
    "tau": (_NMSE + _POINT + ["--tau-f", "4,8,16"], None),
    "echo": (_NMSE + _ECHO + _POINT, None),
    "ser": (_SER + _ECHO + _POINT, None),
    "ser16": (_SER + _ECHO + _POINT + ["--modulation", "16"], None),
    "serrecip": (_SER + ["--gamma", "0.1", "--pave-db", "10,20,30"], None),
    "ser_wide": (_SER + _ECHO + _POINT, "n_l=3\nn_u=5\n"),
    "wide": (_NMSE, "n_t=16\nn_l=8\nn_u=8\ntau_f=64\ntau_r=16\n"),
    "wide_echo": (_NMSE + _ECHO, "n_t=16\nn_l=8\nn_u=8\n"),
    "wide32": (_NMSE32, "n_t=32\nn_l=16\nn_u=16\n"),
    "wide32_echo": (_NMSE32 + _ECHO, "n_t=32\nn_l=16\nn_u=16\n"),
}
# A float cell may move by this much relative (another CPU's BLAS kernels
# round differently); a changed draw moves a cell by about its half-width.
MC_RTOL = 1e-12


def run_mc_table(name, tmp_dir) -> bytes:
    """The table ``MC_TABLES[name]`` prints in process, comment lines dropped."""
    from dce.cli import main

    argv, config = MC_TABLES[name]
    if config is not None:
        cfg = tmp_dir / f"{name}.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    out = tmp_dir / f"{name}.csv"
    code = main(argv + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"dce {' '.join(argv)} exited {code}")
    lines = out.read_bytes().splitlines(keepends=True)
    return b"".join(r for r in lines if not r.startswith(b"#"))


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


def _close(a: str, b: str) -> bool:
    """A float cell within MC_RTOL; an integer cell (counts, lengths) or a
    text cell only if equal, which the caller has already ruled out."""
    if a.lstrip("-").isdigit():
        return False
    try:
        return abs(float(b) - float(a)) <= MC_RTOL * abs(float(a))
    except ValueError:
        return False
