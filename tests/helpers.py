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
