"""Rate-3/4 four-antenna block code: orthogonality, QAM mapping, decoding."""

import numpy as np
import pytest

from dce import ostbc
from dce.errors import UnsupportedGeometry
from dce.ostbc import (
    CODE_ANTENNAS,
    CODE_SLOTS,
    CODE_SYMBOLS,
    SUPPORTED_QAM,
    block_scale,
    code_matrix,
    decode_block,
    encode_block,
    qam_constellation,
)
from dce.rng import complex_gaussian


def test_codeword_shape_and_rate():
    cmat = code_matrix(np.array([1.0, 2.0, 3.0]))
    assert cmat.shape == (CODE_SLOTS, CODE_ANTENNAS) == (4, 4)
    assert CODE_SYMBOLS == 3  # three symbols over four slots


def test_codeword_layout_and_stacking():
    """Entries follow the module's codeword table, conjugates included, and a
    stack of triples gives the stack of codewords."""
    s1, s2, s3 = 1 + 1j, 2 - 1j, 3j
    c = np.conj
    expected = np.array([[s1, s2, s3, 0],
                         [-c(s2), c(s1), 0, -s3],
                         [-c(s3), 0, c(s1), s2],
                         [0, c(s3), -c(s2), s1]])
    np.testing.assert_array_equal(code_matrix(np.array([s1, s2, s3])), expected)
    stack = code_matrix(np.array([[s1, s2, s3], [s3, s1, s2]]))
    assert stack.shape == (2, 4, 4)
    np.testing.assert_array_equal(stack[0], expected)
    np.testing.assert_array_equal(stack[1], code_matrix(np.array([s3, s1, s2])))


def test_column_orthogonality(rng):
    for _ in range(50):
        s = complex_gaussian(rng, (3,))
        cmat = code_matrix(s)
        gram = cmat.conj().T @ cmat
        expected = float(np.sum(np.abs(s) ** 2)) * np.eye(4)
        np.testing.assert_allclose(gram, expected, atol=1e-12)


def test_verify_helper_bounds(rng):
    """Over 32 random draws, the worst deviation of C^H C from ||s||^2 I and
    of m.T m from its scaled identity both stay within 1e-10."""
    worst_code, worst_map = 0.0, 0.0
    for _ in range(32):
        s = complex_gaussian(rng, (3,))
        cmat = code_matrix(s)
        target = float(np.sum(np.abs(s) ** 2)) * np.eye(CODE_ANTENNAS)
        worst_code = max(worst_code,
                         float(np.abs(cmat.conj().T @ cmat - target).max()))
        h = complex_gaussian(rng, (4, 2))
        m = dispersion_map(h, 0.7)
        target_m = 0.49 * float(np.sum(np.abs(h) ** 2)) * np.eye(6)
        worst_map = max(worst_map, float(np.abs(m.T @ m - target_m).max()))
    assert worst_code <= 1e-10
    assert worst_map <= 1e-10


@pytest.mark.parametrize("order", SUPPORTED_QAM)
def test_constellation_unit_average_power(order):
    pts = qam_constellation(order)
    assert pts.size == order
    assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0)
    # all points distinct
    assert len(np.unique(np.round(pts, 9))) == order


def test_constellation_rejects_unsupported_order():
    for bad in (2, 8, 32, 128):
        with pytest.raises(ValueError):
            qam_constellation(bad)


def test_block_scale_power_accounting(rng):
    """Each codeword row carries all three symbols; with unit-energy symbols
    the per-slot radiated power equals the requested level on average."""
    power = 7.3
    scale = block_scale(power)
    order = 16
    pts = qam_constellation(order)
    row_power = np.zeros(CODE_SLOTS)
    rounds = 20000
    for _ in range(rounds):
        s = pts[rng.integers(0, order, size=CODE_SYMBOLS)]
        block = encode_block(s, scale)
        row_power += np.sum(np.abs(block) ** 2, axis=1)
    np.testing.assert_allclose(row_power / rounds, power, rtol=0.03)


def test_dispersion_map_is_scaled_isometry(rng):
    h = complex_gaussian(rng, (4, 2))
    scale = 1.3
    m = dispersion_map(h, scale)
    expected = scale ** 2 * float(np.sum(np.abs(h) ** 2)) * np.eye(6)
    np.testing.assert_allclose(m.T @ m, expected, atol=1e-10)


def test_decode_block_antenna_guard(rng):
    pts = qam_constellation(4)
    for shape in ((6, 2), (2, 2)):
        with pytest.raises(UnsupportedGeometry):
            decode_block(complex_gaussian(rng, (4, 2)),
                         complex_gaussian(rng, shape), 1.0, pts)


def test_decode_inverts_encode_noiselessly(rng):
    """Perfect CSI, no noise: every symbol triple decodes exactly."""
    for order in SUPPORTED_QAM:
        pts = qam_constellation(order)
        scale = block_scale(5.0)
        for _ in range(50):
            h = complex_gaussian(rng, (4, 2))
            idx = rng.integers(0, order, size=CODE_SYMBOLS)
            y = encode_block(pts[idx], scale) @ h
            np.testing.assert_array_equal(
                decode_block(y, h, scale, pts), idx)


def test_decode_high_power_low_noise_ser(rng):
    """64-QAM at overwhelming SNR with perfect CSI: zero errors in 500 blocks."""
    pts = qam_constellation(64)
    scale = block_scale(1e6)
    errors = 0
    for _ in range(500):
        h = complex_gaussian(rng, (4, 2))
        idx = rng.integers(0, 64, size=CODE_SYMBOLS)
        y = encode_block(pts[idx], scale) @ h + complex_gaussian(rng, (4, 2))
        errors += int(np.sum(decode_block(y, h, scale, pts) != idx))
    assert errors == 0


def test_decode_rejects_zero_estimate(rng):
    pts = qam_constellation(4)
    with pytest.raises(UnsupportedGeometry):
        decode_block(complex_gaussian(rng, (4, 2)),
                     np.zeros((4, 2), dtype=complex), 1.0, pts)


def test_decode_degrades_gracefully_with_bad_csi(rng):
    """A channel estimate dominated by error still decodes *some* blocks but
    worse than the true channel does; sanity check, not a rate claim."""
    pts = qam_constellation(16)
    scale = block_scale(20.0)
    good, bad = 0, 0
    rounds = 400
    for _ in range(rounds):
        h = complex_gaussian(rng, (4, 2))
        h_bad = 0.3 * h + complex_gaussian(rng, (4, 2), 0.91)
        idx = rng.integers(0, 16, size=CODE_SYMBOLS)
        y = encode_block(pts[idx], scale) @ h + complex_gaussian(rng, (4, 2))
        good += int(np.sum(decode_block(y, h, scale, pts) != idx))
        bad += int(np.sum(decode_block(y, h_bad, scale, pts) != idx))
    assert bad > good


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
    cols = []
    for basis in _real_basis():
        block = scale * code_matrix(basis) @ h
        cols.append(np.concatenate([block.real.ravel(), block.imag.ravel()]))
    return np.stack(cols, axis=1)


def _reference_decode(y, h, scale, constellation):
    """The real-isometry matched filter through ``dispersion_map``, one block
    at a time."""
    m = dispersion_map(h, scale)
    gain = scale ** 2 * float(np.sum(np.abs(h) ** 2))
    coords = (m.T @ np.concatenate([y.real.ravel(), y.imag.ravel()])) / gain
    symbols = coords[0::2] + 1j * coords[1::2]
    return np.argmin(np.abs(symbols[:, None] - constellation[None, :]), axis=1)


@pytest.mark.parametrize("order", SUPPORTED_QAM)
def test_batched_decoder_matches_dispersion_map_reference(order):
    """On a noisy stack decoded with imperfect channel estimates, the closed
    form returns the same indices as the dispersion-map matched filter."""
    rng = np.random.default_rng(order)
    pts = qam_constellation(order)
    scale = block_scale(4.0)
    n = 2000
    h = complex_gaussian(rng, (n, 4, 2))
    h_hat = 0.8 * h + complex_gaussian(rng, (n, 4, 2), 0.36)
    idx = rng.integers(0, order, size=(n, CODE_SYMBOLS))
    blocks = encode_block(pts[idx], scale)
    for k in range(0, n, 97):
        np.testing.assert_array_equal(blocks[k], encode_block(pts[idx[k]], scale))
    y = blocks @ h + complex_gaussian(rng, (n, 4, 2), 0.5)
    decoded = decode_block(y, h_hat, scale, pts)
    assert decoded.shape == (n, CODE_SYMBOLS)
    reference = np.array([_reference_decode(y[k], h_hat[k], scale, pts)
                          for k in range(n)])
    np.testing.assert_array_equal(decoded, reference)
    assert np.any(decoded != idx)   # the noise does cause errors


def test_batched_decoder_rejects_a_zero_row(rng):
    pts = qam_constellation(4)
    h = complex_gaussian(rng, (3, 4, 2))
    h[1] = 0.0
    with pytest.raises(UnsupportedGeometry):
        decode_block(complex_gaussian(rng, (3, 4, 2)), h, 1.0, pts)


# ---------------------------------------------------------------------------
# square-QAM slicer
# ---------------------------------------------------------------------------

def _argmin_indices(symbols, constellation):
    """The exhaustive nearest-point search the slicer replaces, and the
    distances it compared."""
    dist = np.abs(symbols[:, None] - constellation[None, :])
    return np.argmin(dist, axis=1), dist


@pytest.mark.parametrize("order", SUPPORTED_QAM)
def test_slicer_matches_argmin_on_random_points(order):
    rng = np.random.default_rng(100 + order)
    pts = qam_constellation(order)
    # spread wider than the grid so the clip at the outer levels is exercised
    symbols = complex_gaussian(rng, 100_000, 1.5)
    expected, _ = _argmin_indices(symbols, pts)
    np.testing.assert_array_equal(ostbc._slice_square_qam(symbols, pts), expected)


@pytest.mark.parametrize("order", SUPPORTED_QAM)
def test_slicer_at_decision_boundaries(order):
    """On every midpoint between adjacent levels, one ulp either side of it,
    on the levels and beyond the outer ones, the slicer and the exhaustive
    search pick the same point or two points at exactly equal distance."""
    pts = qam_constellation(order)
    levels = np.unique(pts.real)
    mids = (levels[:-1] + levels[1:]) / 2
    coords = np.concatenate([
        mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf), levels,
        levels[[0, -1]] + [-1e-9, 1e-9], levels[[0, -1]] * 3, [-1e6, 1e6, 0.0]])
    re, im = np.meshgrid(coords, coords)
    symbols = (re + 1j * im).ravel()
    sliced = ostbc._slice_square_qam(symbols, pts)
    expected, dist = _argmin_indices(symbols, pts)
    rows = np.arange(symbols.size)
    differ = sliced != expected
    np.testing.assert_array_equal(dist[rows, sliced][differ],
                                  dist[rows, expected][differ])
    assert np.all((sliced >= 0) & (sliced < order))


@pytest.mark.parametrize("constellation", [
    qam_constellation(16) * np.exp(0.1j),               # rotated grid
    np.exp(2j * np.pi * np.arange(8) / 8),               # 8-PSK
    qam_constellation(16)[::-1],                         # reindexed grid
], ids=["rotated-16qam", "8-point", "reversed-16qam"])
def test_decoder_rejects_other_constellations(constellation, rng):
    h = complex_gaussian(rng, (2, 4, 2))
    with pytest.raises(ValueError):
        decode_block(complex_gaussian(rng, (2, 4, 2)), h, 1.0, constellation)


@pytest.mark.parametrize("where", ["block", "estimate"])
def test_decoder_rejects_non_finite_input(where, rng):
    pts = qam_constellation(16)
    h = complex_gaussian(rng, (2, 4, 2))
    y = complex_gaussian(rng, (2, 4, 2))
    (y if where == "block" else h)[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        decode_block(y, h, 1.0, pts)
