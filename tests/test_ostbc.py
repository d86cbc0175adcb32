"""Rate-3/4 four-antenna block code: orthogonality, QAM mapping, the
filter-domain noise law, and decoding against the block-domain reference."""

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
    decode_block,
    encode_block,
    qam_constellation,
)
from dce.rng import complex_gaussian
from reference_ostbc import code_matrix, dispersion_map, matched_filter_decode

WIDTHS = (1, 2, 3, 4, 5)   # receiver columns M


def _trial_last(x):
    """A (T, 4, M) stack as (4, M, T) rows."""
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


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
    # through the identity channel the taps lay out the same codeword
    np.testing.assert_array_equal(
        encode_block(np.array([s1, s2, s3]), np.eye(4), 2.0), 2.0 * expected)


@pytest.mark.parametrize("m", WIDTHS)
def test_encode_matches_codeword_product(m, rng):
    """The twelve taps, on trial-last rows, give scale X(s) H block by block."""
    n = 300
    s = complex_gaussian(rng, (n, CODE_SYMBOLS))
    h = complex_gaussian(rng, (n, 4, m))
    got = encode_block(s.T, _trial_last(h), 0.7)
    assert got.shape == (CODE_SLOTS, m, n)
    np.testing.assert_allclose(got, _trial_last(0.7 * code_matrix(s) @ h),
                               rtol=0, atol=1e-13)


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
    rounds = 20000
    s = pts[rng.integers(0, order, size=(CODE_SYMBOLS, rounds))]
    identity = np.broadcast_to(np.eye(CODE_ANTENNAS)[..., None],
                               (CODE_ANTENNAS, CODE_ANTENNAS, rounds))
    blocks = encode_block(s, identity, scale)    # the codewords, (slot, antenna, round)
    row_power = np.sum(np.abs(blocks) ** 2, axis=1).mean(axis=-1)
    np.testing.assert_allclose(row_power, power, rtol=0.03)


def test_dispersion_map_is_scaled_isometry(rng):
    h = complex_gaussian(rng, (4, 2))
    scale = 1.3
    m = dispersion_map(h, scale)
    expected = scale ** 2 * float(np.sum(np.abs(h) ** 2)) * np.eye(6)
    np.testing.assert_allclose(m.T @ m, expected, atol=1e-10)


def _filter_map(h: np.ndarray) -> np.ndarray:
    """The matched filter's real 6 x 8M map for one channel h (4, M), built
    by filtering the 8M unit blocks (a 1 or a 1j in one slot and column)."""
    cols = h.shape[1]
    k = CODE_SLOTS * cols
    units = np.concatenate([np.eye(k), 1j * np.eye(k)], axis=1)
    units = units.reshape(CODE_SLOTS, cols, 2 * k)
    stack = np.broadcast_to(h[..., None], h.shape + (2 * k,))
    out = ostbc._matched_filter(units, stack)              # (3, 8M)
    return np.stack([out.real, out.imag], axis=1).reshape(6, 2 * k)


@pytest.mark.parametrize("m", WIDTHS)
def test_filter_noise_law_is_exact(m, rng):
    """The whole case for drawing noise after the filter: its real map F
    satisfies F F^T = ||h||_F^2 I_6 exactly, so white CN(0, var) slot noise
    leaves it as three i.i.d. CN(0, var ||h||_F^2) symbols.  F is real
    linear: it reproduces the filter on a random block."""
    for _ in range(5):
        h = complex_gaussian(rng, (4, m))
        f = _filter_map(h)
        energy = float(np.sum(np.abs(h) ** 2))
        np.testing.assert_allclose(f @ f.T, energy * np.eye(6), rtol=0, atol=1e-12)
        y = complex_gaussian(rng, (CODE_SLOTS, m))
        direct = ostbc._matched_filter(y, h)
        via_map = f @ np.concatenate([y.real.ravel(), y.imag.ravel()])
        np.testing.assert_allclose(via_map[0::2] + 1j * via_map[1::2], direct,
                                   rtol=0, atol=1e-12)


def test_decode_inverts_encode_noiselessly(rng):
    """Perfect CSI, no noise: every symbol triple decodes exactly, for every
    QAM order and receiver width."""
    scale = block_scale(5.0)
    n = 400
    for order in SUPPORTED_QAM:
        pts = qam_constellation(order)
        for m in WIDTHS:
            h = complex_gaussian(rng, (4, m, n))
            idx = rng.integers(0, order, size=(CODE_SYMBOLS, n))
            y = encode_block(pts[idx], h, scale)
            np.testing.assert_array_equal(
                decode_block(y, h, scale, order, np.zeros((CODE_SYMBOLS, n))), idx)


def test_decode_block_antenna_guard(rng):
    """Both halves of the code refuse a channel without four antenna rows."""
    for shape in ((6, 2), (2, 2)):
        h = complex_gaussian(rng, shape)
        with pytest.raises(UnsupportedGeometry):
            decode_block(complex_gaussian(rng, (4, 2)), h, 1.0, 4,
                         np.zeros(CODE_SYMBOLS))
        with pytest.raises(UnsupportedGeometry):
            encode_block(np.ones(CODE_SYMBOLS), h, 1.0)


def test_decode_high_power_low_noise_ser(rng):
    """64-QAM at overwhelming SNR with perfect CSI: zero errors in 500 blocks."""
    pts = qam_constellation(64)
    scale = block_scale(1e6)
    n = 500
    h = complex_gaussian(rng, (4, 2, n))
    idx = rng.integers(0, 64, size=(CODE_SYMBOLS, n))
    y = encode_block(pts[idx], h, scale)
    noise = complex_gaussian(rng, (CODE_SYMBOLS, n))
    assert np.count_nonzero(decode_block(y, h, scale, 64, noise) != idx) == 0


def test_decode_rejects_zero_estimate(rng):
    with pytest.raises(UnsupportedGeometry):
        decode_block(complex_gaussian(rng, (4, 2)),
                     np.zeros((4, 2), dtype=complex), 1.0, 4,
                     np.zeros(CODE_SYMBOLS))


def test_decode_degrades_gracefully_with_bad_csi(rng):
    """A channel estimate dominated by error still decodes *some* blocks but
    worse than the true channel does; sanity check, not a rate claim."""
    pts = qam_constellation(16)
    scale = block_scale(20.0)
    n = 400
    h = complex_gaussian(rng, (4, 2, n))
    h_bad = 0.3 * h + complex_gaussian(rng, (4, 2, n), 0.91)
    idx = rng.integers(0, 16, size=(CODE_SYMBOLS, n))
    y = encode_block(pts[idx], h, scale)
    noise = complex_gaussian(rng, (CODE_SYMBOLS, n))
    good = np.count_nonzero(decode_block(y, h, scale, 16, noise) != idx)
    bad = np.count_nonzero(decode_block(y, h_bad, scale, 16, noise) != idx)
    assert bad > good


@pytest.mark.parametrize("order", SUPPORTED_QAM)
def test_batched_decoder_matches_dispersion_map_reference(order):
    """Per-slot noise W decoded through the dispersion map, with imperfect
    channel estimates, gives the indices the decoder gives from the
    noiseless block plus W's share after the filter, F w / ||h_hat||_F:
    the filter-domain draw is that share, drawn directly."""
    rng = np.random.default_rng(order)
    pts = qam_constellation(order)
    scale = block_scale(4.0)
    n = 2000
    h = complex_gaussian(rng, (n, 4, 2))
    h_hat = 0.8 * h + complex_gaussian(rng, (n, 4, 2), 0.36)
    idx = rng.integers(0, order, size=(n, CODE_SYMBOLS))
    w = complex_gaussian(rng, (n, 4, 2), 0.5)
    blocks = encode_block(pts[idx].T, _trial_last(h), scale)
    share = (ostbc._matched_filter(_trial_last(w), _trial_last(h_hat))
             / np.sqrt(np.sum(np.abs(h_hat) ** 2, axis=(1, 2))))
    decoded = decode_block(blocks, _trial_last(h_hat), scale, order, share)
    assert decoded.shape == (CODE_SYMBOLS, n)
    reference = matched_filter_decode(np.moveaxis(blocks, -1, 0) + w, h_hat,
                                      scale, pts)
    np.testing.assert_array_equal(decoded.T, reference)
    assert np.any(decoded.T != idx)   # the noise does cause errors


def test_batched_decoder_rejects_a_zero_row(rng):
    h = complex_gaussian(rng, (4, 2, 3))
    h[..., 1] = 0.0
    with pytest.raises(UnsupportedGeometry):
        decode_block(complex_gaussian(rng, (4, 2, 3)), h, 1.0, 4,
                     np.zeros((CODE_SYMBOLS, 3)))


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


@pytest.mark.parametrize("order", [8], ids=["8-point"])
def test_decoder_rejects_other_constellations(order, rng):
    """An order with no square grid in SUPPORTED_QAM has nothing to slice."""
    h = complex_gaussian(rng, (4, 2, 2))
    with pytest.raises(ValueError, match="modulation order must be one of"):
        decode_block(complex_gaussian(rng, (4, 2, 2)), h, 1.0, order,
                     np.zeros((CODE_SYMBOLS, 2)))


@pytest.mark.parametrize("where", ["block", "estimate", "noise"])
def test_decoder_rejects_non_finite_input(where, rng):
    h = complex_gaussian(rng, (4, 2, 2))
    y = complex_gaussian(rng, (4, 2, 2))
    noise = complex_gaussian(rng, (CODE_SYMBOLS, 2))
    {"block": y, "estimate": h, "noise": noise}[where].flat[-1] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        decode_block(y, h, 1.0, 16, noise)
