r"""Rate-3/4 orthogonal space-time block code for four transmit antennas,
with square-QAM mapping and a closed-form matched-filter decoder.

The codeword (rows are time slots, columns are antennas) for the symbol
triple (s1, s2, s3) is::

    [  s1    s2    s3    0  ]
    [ -s2*   s1*   0    -s3 ]
    [ -s3*   0     s1*   s2 ]
    [  0     s3*  -s2*   s1 ]

Columns are mutually orthogonal with squared norm |s1|^2+|s2|^2+|s3|^2
(Tarokh, Jafarkhani & Calderbank, IEEE Trans. IT 1999), so after stacking
real and imaginary parts the map from the six real symbol coordinates to
the received block is a scaled isometry (the dispersion map; the test
suite builds it explicitly, in ``tests/reference_ostbc.py``).  Matched
filtering through that map is therefore exact ML and reduces detection to
independent nearest-neighbor decisions.  The same orthogonality makes the
filter's real 6 x 8M map F satisfy F F^T = ||h||_F^2 I_6, so white slot
noise reaches the filter output as three i.i.d. CN(0, var ||h||_F^2)
symbols, and the decoder takes exactly that in place of per-slot noise.

Both halves work on stacks with the trial axes last, as (slot or antenna,
M, trial) rows: ``encode_block`` forms the noiseless received blocks
scale X(s) H from the codeword's twelve signed symbol taps, and
``decode_block`` evaluates the filter's twelve products h_a^H y_t on them,
each with the channel matrix its receiver believes in (its own estimate,
used as if it were the truth).  The code fixes four transmit antennas, so
the same products serve every receiver width M.

On the square QAM grid the nearest point is the nearest level on each real
axis separately, so the decoder slices instead of searching every point:
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


# The codeword's twelve nonzero entries, slot by slot (three per slot): entry
# j sits in slot j // 3 and antenna column _TAP_ANTENNA[j], and holds
# _TAP_SIGN[j] times symbol _TAP_SYMBOL[j] % 3, conjugated where
# _TAP_SYMBOL[j] >= 3 (an index into (s1, s2, s3, s1*, s2*, s3*)).
_TAP_ANTENNA = np.array([0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3])
_TAP_SYMBOL = np.array([0, 1, 2, 4, 3, 2, 5, 3, 1, 5, 4, 0])
_TAP_SIGN = np.array([1, 1, 1, -1, 1, -1, -1, 1, 1, 1, -1, 1], dtype=float)
# The matched filter reads tap j as sign_j h_a^H y_t where the tap carries a
# symbol and as its conjugate where it carries a conjugate.  Its taps are
# listed symbol by symbol, four each (one per slot, in slot order), with
# each tap's antenna and the signs of (Re, Im) that apply both.
_FILTER_TAP = np.array([0, 4, 7, 11, 1, 3, 8, 10, 2, 5, 6, 9])
_FILTER_ANTENNA = _TAP_ANTENNA[_FILTER_TAP]
_FILTER_SIGN = np.array([(sign, -sign if symbol >= CODE_SYMBOLS else sign)
                         for sign, symbol in zip(_TAP_SIGN[_FILTER_TAP],
                                                 _TAP_SYMBOL[_FILTER_TAP])])


def _require_code_antennas(h: np.ndarray) -> None:
    if h.shape[0] != CODE_ANTENNAS:
        raise UnsupportedGeometry(
            f"the block code drives {CODE_ANTENNAS} transmit antennas, "
            f"got a channel with {h.shape[0]} rows")


def encode_block(symbols: np.ndarray, channels: np.ndarray,
                 scale: float) -> np.ndarray:
    """The noiseless received blocks scale X(s) H, (CODE_SLOTS, M, ...),
    for symbol triples (3, ...) sent through channels H (4, M, ...), the
    trial axes last.

    Slot t receives the sum of its three taps, each a signed symbol (or
    its conjugate) times one antenna's row of H.
    """
    _require_code_antennas(channels)
    s = np.asarray(symbols)
    lead = (-1,) + (1,) * (s.ndim - 1)
    taps = np.concatenate([s, np.conj(s)])[_TAP_SYMBOL]
    taps *= (scale * _TAP_SIGN).reshape(lead)
    rows = np.take(np.asarray(channels, dtype=complex), _TAP_ANTENNA, axis=0)
    rows *= taps[:, None]
    return rows.reshape((CODE_SLOTS, CODE_SYMBOLS) + rows.shape[1:]).sum(axis=1)


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


def _matched_filter(received: np.ndarray, h_hat: np.ndarray) -> np.ndarray:
    """The matched filter's output (3, ...) for blocks (CODE_SLOTS, M, ...)
    and the channels (4, M, ...) it is matched to, before its division by
    scale ||h_hat||_F^2: for each symbol, the sum over the four slots it
    occupies of sign_j h_a^H y_t, conjugated where the codeword carries the
    symbol's conjugate."""
    h_taps = np.take(np.asarray(h_hat, dtype=complex), _FILTER_ANTENNA, axis=0)
    np.conjugate(h_taps, out=h_taps)
    by_slot = h_taps.reshape((CODE_SYMBOLS, CODE_SLOTS) + h_taps.shape[1:])
    by_slot *= received                        # each symbol's taps, slot by slot
    taps = h_taps.sum(axis=1)                  # h_a^H y_t, (12, ...)
    parts = taps.view(np.float64).reshape(taps.shape + (2,))
    parts *= _FILTER_SIGN.reshape((-1,) + (1,) * (taps.ndim - 1) + (2,))
    summed = parts.reshape((CODE_SYMBOLS, CODE_SLOTS) + parts.shape[1:]).sum(axis=1)
    return summed.view(complex)[..., 0]


def decode_block(received: np.ndarray, h_hat: np.ndarray, scale: float,
                 order: int, noise: np.ndarray) -> np.ndarray:
    """Nearest-neighbor indices into ``qam_constellation(order)`` (3, ...)
    for noiseless received blocks (CODE_SLOTS, M, ...), each decoded with
    the channel (4, M, ...) the receiver believes in, the trial axes last.

    ``noise`` holds (3, ...) CN(0, var) draws for slot noise of variance
    var: the decoder adds ``noise * ||h_hat||_F`` to the matched filter's
    output, which has the law of the filter's output of that slot noise
    (F F^T = ||h_hat||_F^2 I_6, see the module docstring).  An order
    outside SUPPORTED_QAM, and a non-finite block, estimate or noise,
    raises ValueError.
    """
    _require_code_antennas(h_hat)
    constellation = qam_constellation(order)
    if not (np.isfinite(received).all() and np.isfinite(h_hat).all()
            and np.isfinite(noise).all()):
        # the slicer would turn a NaN into an index outside the constellation
        raise ValueError("received block, channel estimate or noise is not finite")
    energy = np.einsum("am...,am...->...", h_hat, np.conj(h_hat)).real
    if np.any(energy <= 0):
        raise UnsupportedGeometry("channel estimate is identically zero")
    symbols = _matched_filter(received, h_hat)
    symbols += noise * np.sqrt(energy)
    symbols /= scale * energy
    return _slice_square_qam(symbols, constellation)


def block_scale(power_per_slot: float) -> float:
    """Amplitude scale so each slot radiates power_per_slot on average
    (each row of the codeword carries all three unit-energy symbols)."""
    return float(np.sqrt(power_per_slot / CODE_SYMBOLS))

