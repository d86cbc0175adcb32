"""Times at a fixed reference speed.

Single-thread speed on a shared machine drifts: other tenants move it by a
third within seconds, and by a quarter between minutes-long stretches, so
the same job reads 4.0k or 6.2k trials/s from one process to the next.  The
benchmark therefore times a fixed reference kernel (benchmark code, never
the library) next to the measured work, and reports every time as

    measured time * REFERENCE_S / kernel time measured around it,

that is, the time the work would take on a machine that runs the kernel in
REFERENCE_S.  Both sides of a comparison are scaled the same way; the raw
times stay in the report lines and the sidecar.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Kernel time the reported figures are scaled to (about its time on a
# 2-core x86_64 virtual machine at its faster speed).
REFERENCE_S = 4.0e-3


@dataclass(frozen=True)
class _Point:
    prior: float
    n: int
    noise: float


def _closed_form(p: _Point, energy: float) -> float:
    return 1.0 / (1.0 / p.prior + (energy / p.n) / (p.noise + 1e-3 * energy))


def kernel_s() -> float:
    """Wall time of one run of the reference kernel.

    The kernel mixes the kinds of work the library does: small complex
    numpy operations (draws, an SVD, a product), frozen-dataclass
    construction with scalar closed forms, and plain scalar arithmetic.
    """
    rng = np.random.default_rng(0)
    acc = 0.0
    start = time.perf_counter()
    for k in range(50):
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        u, s, _ = np.linalg.svd(a)
        acc += float(np.sum(np.abs(a @ a.conj().T))) + float(s[0])
        for j in range(20):
            acc += _closed_form(_Point(1.0 + j, 4, 0.5), 0.1 * j + k)
        for j in range(60):
            acc += (j * 0.5) / (1.0 + j)
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return elapsed


def scaled(raw_s: float, kernel: float) -> float:
    """``raw_s`` at the reference speed, given the kernel time around it."""
    return raw_s * REFERENCE_S / kernel
