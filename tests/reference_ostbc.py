r"""The block code in the block domain, as a reference.

The library never forms a codeword or draws slot noise: ``dce.ostbc``
encodes from the code's twelve symbol taps and adds the matched filter's
share of the noise after the filter.  This module keeps the explicit
route: the codeword matrix X(s), the real dispersion map from the six
symbol coordinates to the received block, and the data phase the
Monte Carlo ran before, with per-slot CN(0, var) noise on every slot and
antenna and the dispersion-map matched filter, on stacks of trials with
the trial axis first.  ``test_ostbc.py`` checks the library's kernels
against it block by block, and ``test_montecarlo.py`` checks the SER of
the filter-domain draw against it.
"""

import numpy as np

from dce.ostbc import CODE_SLOTS, CODE_SYMBOLS, qam_constellation
from dce.rng import complex_gaussian

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


def real_basis() -> np.ndarray:
    """The six real coordinates (Re s1, Im s1, ..., Im s3) as symbol triples."""
    out = np.zeros((6, CODE_SYMBOLS), dtype=complex)
    for k in range(CODE_SYMBOLS):
        out[2 * k, k] = 1.0
        out[2 * k + 1, k] = 1j
    return out


def dispersion_map(h: np.ndarray, scale: float) -> np.ndarray:
    """Real linear maps (..., 8M, 6) from symbol coordinates to the received
    blocks, for channels (..., 4, M).

    Column j stacks Re/Im of scale * code_matrix(basis_j) @ h.  Orthogonality
    of the code makes m.T @ m == scale**2 * ||h||_F**2 * I exactly.
    """
    h = np.asarray(h)
    blocks = scale * code_matrix(real_basis()) @ h[..., None, :, :]
    flat = blocks.reshape(blocks.shape[:-2] + (-1,))
    return np.swapaxes(np.concatenate([flat.real, flat.imag], axis=-1), -1, -2)


def matched_filter_decode(y: np.ndarray, h: np.ndarray, scale: float,
                          constellation: np.ndarray) -> np.ndarray:
    """The real-isometry matched filter through ``dispersion_map``, then an
    exhaustive nearest-point search: indices (..., 3) for received blocks
    y (..., 4, M) decoded with channels h (..., 4, M)."""
    m = dispersion_map(h, scale)
    gain = scale ** 2 * np.sum(np.abs(h) ** 2, axis=(-2, -1))
    flat = y.reshape(y.shape[:-2] + (-1,))
    y_real = np.concatenate([flat.real, flat.imag], axis=-1)
    coords = np.einsum("...ij,...i->...j", m, y_real) / gain[..., None]
    symbols = coords[..., 0::2] + 1j * coords[..., 1::2]
    return np.argmin(np.abs(symbols[..., None] - constellation), axis=-1)


def block_domain_errors(rng, params, modulation: int, scale: float,
                        h_d, g, lr_est, ur_est) -> np.ndarray:
    """Symbol errors per trial (T, 2) of both receivers for one block of
    the data phase in the block domain: symbols drawn (T, 3), one codeword
    product against [h_d, g], CN(0, var_w) and CN(0, var_v) noise on every
    slot and antenna, each receiver's estimate through the dispersion-map
    matched filter."""
    n = h_d.shape[0]
    pts = qam_constellation(modulation)
    sent = rng.integers(0, modulation, size=(n, CODE_SYMBOLS))
    received = scale * code_matrix(pts[sent]) @ np.concatenate([h_d, g], axis=-1)
    y_lr = received[..., :params.n_l] + complex_gaussian(
        rng, (n, CODE_SLOTS, params.n_l), params.var_w)
    y_ur = received[..., params.n_l:] + complex_gaussian(
        rng, (n, CODE_SLOTS, params.n_u), params.var_v)
    return np.stack([
        np.count_nonzero(matched_filter_decode(y, est, scale, pts) != sent, axis=1)
        for y, est in ((y_lr, lr_est), (y_ur, ur_est))], axis=1)
