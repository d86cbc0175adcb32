r"""Rate-3/4 orthogonal space-time block code for four transmit antennas,
with square-QAM mapping and a generic linear decoder.

The codeword (rows are time slots, columns are antennas) for the symbol
triple (s1, s2, s3) is::

    [  s1    s2    s3    0  ]
    [ -s2*   s1*   0    -s3 ]
    [ -s3*   0     s1*   s2 ]
    [  0     s3*  -s2*   s1 ]

Columns are mutually orthogonal with squared norm |s1|^2+|s2|^2+|s3|^2, so
after stacking real and imaginary parts the map from the six real symbol
coordinates to the received block is a scaled isometry.  The decoder builds
that map for whatever channel matrix it is handed (the receiver's own
estimate, used as if it were the truth) and reduces detection to independent
nearest-neighbor decisions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import UnsupportedGeometry

CODE_ANTENNAS = 4
CODE_SLOTS = 4
CODE_SYMBOLS = 3
SUPPORTED_QAM = (4, 16, 64)


def qam_constellation(order: int) -> np.ndarray:
    """Square QAM points with unit average energy, index = (row-major grid)."""
    if order not in SUPPORTED_QAM:
        raise ValueError(f"modulation order must be one of {SUPPORTED_QAM}")
    side = int(round(np.sqrt(order)))
    levels = 2 * np.arange(side) - side + 1
    points = (levels[:, None] + 1j * levels[None, :]).ravel()
    return points / np.sqrt(2.0 * (order - 1) / 3.0)


def code_matrix(symbols: np.ndarray) -> np.ndarray:
    """Codeword for one symbol triple; shape (CODE_SLOTS, CODE_ANTENNAS)."""
    s1, s2, s3 = symbols
    c = np.conj
    return np.array([
        [s1, s2, s3, 0.0],
        [-c(s2), c(s1), 0.0, -s3],
        [-c(s3), 0.0, c(s1), s2],
        [0.0, c(s3), -c(s2), s1],
    ])


def _real_basis() -> np.ndarray:
    """The six real coordinates (Re s1, Im s1, ..., Im s3) as symbol triples."""
    out = np.zeros((6, CODE_SYMBOLS), dtype=complex)
    for k in range(CODE_SYMBOLS):
        out[2 * k, k] = 1.0
        out[2 * k + 1, k] = 1j
    return out


def dispersion_map(h: np.ndarray, scale: float) -> np.ndarray:
    """Real linear map from symbol coordinates to the received block.

    Column j stacks Re/Im of scale * code_matrix(basis_j) @ h.  Orthogonality
    of the code makes m.T @ m == scale**2 * ||h||_F**2 * I exactly.
    """
    if h.shape[0] != CODE_ANTENNAS:
        raise UnsupportedGeometry(
            f"the block code drives {CODE_ANTENNAS} transmit antennas, "
            f"got a channel with {h.shape[0]} rows")
    cols = []
    for basis in _real_basis():
        block = scale * code_matrix(basis) @ h
        cols.append(np.concatenate([block.real.ravel(), block.imag.ravel()]))
    return np.stack(cols, axis=1)


def encode_block(symbols: np.ndarray, scale: float) -> np.ndarray:
    return scale * code_matrix(symbols)


def decode_block(y: np.ndarray, h_hat: np.ndarray, scale: float,
                 constellation: np.ndarray) -> np.ndarray:
    """Nearest-neighbor symbol indices given a received block and a channel
    the receiver believes in.  Matched filtering is exact ML here because the
    dispersion map is a scaled isometry."""
    m = dispersion_map(h_hat, scale)
    gain = scale ** 2 * float(np.sum(np.abs(h_hat) ** 2))
    if gain <= 0:
        raise UnsupportedGeometry("channel estimate is identically zero")
    y_real = np.concatenate([y.real.ravel(), y.imag.ravel()])
    coords = (m.T @ y_real) / gain
    symbols = coords[0::2] + 1j * coords[1::2]
    return np.argmin(np.abs(symbols[:, None] - constellation[None, :]), axis=1)


def block_scale(power_per_slot: float) -> float:
    """Amplitude scale so each slot radiates power_per_slot on average
    (each row of the codeword carries all three unit-energy symbols)."""
    return float(np.sqrt(power_per_slot / CODE_SYMBOLS))


def verify_code_orthogonality(rng: np.random.Generator, rounds: int = 32,
                              ) -> Tuple[float, float]:
    """Max deviation of C^H C from ||s||^2 I over random symbol draws, and of
    m.T m from its scaled identity; used by the self-check command."""
    worst_code, worst_map = 0.0, 0.0
    for _ in range(rounds):
        s = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2)
        cmat = code_matrix(s)
        gram = cmat.conj().T @ cmat
        target = float(np.sum(np.abs(s) ** 2)) * np.eye(CODE_ANTENNAS)
        worst_code = max(worst_code, float(np.abs(gram - target).max()))
        h = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        m = dispersion_map(h, 0.7)
        target_m = 0.49 * float(np.sum(np.abs(h) ** 2)) * np.eye(6)
        worst_map = max(worst_map, float(np.abs(m.T @ m - target_m).max()))
    return worst_code, worst_map
