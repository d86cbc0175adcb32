r"""Rate-3/4 orthogonal space-time block code for four transmit antennas,
with square-QAM mapping and a closed-form matched-filter decoder.

The codeword (rows are time slots, columns are antennas) for the symbol
triple (s1, s2, s3) is::

    [  s1    s2    s3    0  ]
    [ -s2*   s1*   0    -s3 ]
    [ -s3*   0     s1*   s2 ]
    [  0     s3*  -s2*   s1 ]

Columns are mutually orthogonal with squared norm |s1|^2+|s2|^2+|s3|^2, so
after stacking real and imaginary parts the map from the six real symbol
coordinates to the received block is a scaled isometry (the dispersion map;
the test suite builds it explicitly, in ``tests/test_ostbc.py``).
Matched filtering through that map is therefore exact ML and reduces
detection to independent nearest-neighbor decisions.  The decoder evaluates
the matched filter in closed form for whole stacks of blocks, each with the
channel matrix its receiver believes in (its own estimate, used as if it
were the truth).

On the square QAM grid the nearest point is the nearest level on each real
axis separately, so the decoder slices instead of searching all M points:
each coordinate is scaled onto the level indices, rounded with ``rint`` and
clipped to the grid.  Within 1e-9 level spacings of a midpoint, where the
rounded coordinate may land one level off, the two neighboring levels are
compared directly, so the index is always a nearest point of the
constellation as stored.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import UnsupportedGeometry

CODE_ANTENNAS = 4
CODE_SLOTS = 4
CODE_SYMBOLS = 3
SUPPORTED_QAM = (4, 16, 64)


@functools.lru_cache(maxsize=None)
def qam_constellation(order: int) -> np.ndarray:
    """Square QAM points with unit average energy, index = (row-major grid).

    Cached (and marked read-only) because every Monte Carlo block maps its
    symbols through it and ``decode_block`` slices it.
    """
    if order not in SUPPORTED_QAM:
        raise ValueError(f"modulation order must be one of {SUPPORTED_QAM}")
    side = int(round(np.sqrt(order)))
    levels = 2 * np.arange(side) - side + 1
    points = (levels[:, None] + 1j * levels[None, :]).ravel()
    points = points / np.sqrt(2.0 * (order - 1) / 3.0)
    points.flags.writeable = False
    return points


# The codeword as a gather from (s1, s2, s3, s1*, s2*, s3*, 0) with signs.
_CODE_INDEX = np.array([[0, 1, 2, 6],
                        [4, 3, 6, 2],
                        [5, 6, 3, 1],
                        [6, 5, 4, 0]])
_CODE_SIGN = np.array([[1, 1, 1, 1],
                       [-1, 1, 1, -1],
                       [-1, 1, 1, 1],
                       [1, 1, -1, 1]])


def code_matrix(symbols: np.ndarray) -> np.ndarray:
    """Codewords for symbol triples (..., 3); shape (..., CODE_SLOTS,
    CODE_ANTENNAS)."""
    s = np.asarray(symbols)
    ext = np.concatenate([s, np.conj(s), np.zeros_like(s[..., :1])], axis=-1)
    return ext[..., _CODE_INDEX] * _CODE_SIGN


def _require_code_antennas(h: np.ndarray) -> None:
    if h.shape[-2] != CODE_ANTENNAS:
        raise UnsupportedGeometry(
            f"the block code drives {CODE_ANTENNAS} transmit antennas, "
            f"got a channel with {h.shape[-2]} rows")


def encode_block(symbols: np.ndarray, scale: float) -> np.ndarray:
    """Transmitted blocks for symbol triples (..., 3)."""
    return scale * code_matrix(symbols)


def _slice_square_qam(symbols: np.ndarray, constellation: np.ndarray) -> np.ndarray:
    """Index of the constellation point nearest each symbol, axis by axis."""
    side = int(round(np.sqrt(constellation.size)))
    levels = constellation[::side].real   # row i of the grid has real part levels[i]
    top = side - 1
    xy = np.stack([symbols.real, symbols.imag])
    u = (xy - levels[0]) * (top / (levels[-1] - levels[0]))
    k = np.rint(u)
    near = np.abs(u - k) > 0.5 - 1e-9
    np.clip(k, 0, top, out=k)
    if near.any():
        x = xy[near]
        lo = np.clip(np.floor(u[near]), 0, top - 1).astype(np.intp)
        k[near] = lo + (np.abs(x - levels[lo + 1]) < np.abs(x - levels[lo]))
    k = k.astype(np.intp)
    return k[0] * side + k[1]


def decode_block(y: np.ndarray, h_hat: np.ndarray, scale: float,
                 order: int) -> np.ndarray:
    """Nearest-neighbor indices into ``qam_constellation(order)`` (..., 3)
    for received blocks (..., 4, M), each decoded with the channel
    (..., 4, M) the receiver believes in.

    The matched filter m.T y / (scale^2 ||h||^2) of the dispersion map m
    (built explicitly in ``tests/test_ostbc.py``), written out per symbol:
    each symbol collects the four slots it occupies, conjugated where the
    codeword carries its conjugate.  An order outside SUPPORTED_QAM, and a
    non-finite block or estimate, raises ValueError.
    """
    _require_code_antennas(h_hat)
    constellation = qam_constellation(order)
    if not (np.isfinite(y).all() and np.isfinite(h_hat).all()):
        # the slicer would turn a NaN into an index outside the constellation
        raise ValueError("received block or channel estimate is not finite")
    gain = scale * np.sum(np.abs(h_hat) ** 2, axis=(-2, -1))
    if np.any(gain <= 0):
        raise UnsupportedGeometry("channel estimate is identically zero")
    h0, h1, h2, h3 = np.moveaxis(h_hat, -2, 0)
    y0, y1, y2, y3 = np.moveaxis(y, -2, 0)
    c = np.conj
    symbols = np.stack([
        c(h0) * y0 + h1 * c(y1) + h2 * c(y2) + c(h3) * y3,
        c(h1) * y0 - h0 * c(y1) + c(h3) * y2 - h2 * c(y3),
        c(h2) * y0 - c(h3) * y1 - h0 * c(y2) + h1 * c(y3),
    ], axis=-2).sum(axis=-1) / gain[..., None]
    return _slice_square_qam(symbols, constellation)


def block_scale(power_per_slot: float) -> float:
    """Amplitude scale so each slot radiates power_per_slot on average
    (each row of the codeword carries all three unit-energy symbols)."""
    return float(np.sqrt(power_per_slot / CODE_SYMBOLS))

