"""Channel sampling, null-space computation, and the reverse and forward
training phases, all on trial-last stacks of trials, and the literal
reference's round trip.  The per-trial references are written with ``@``
on trial-first views (``helpers.trials_first``)."""

import numpy as np
import pytest

from dce import training
from dce.nmse import echo_gain
from dce.params import (
    NON_RECIPROCAL,
    RECIPROCAL,
    default_params,
    nonreciprocal_allocation,
    reciprocal_allocation,
)
from dce.rng import complex_gaussian
from dce.training import (
    forward_training,
    null_space_basis,
    reverse_training,
    sample_channels,
)
from helpers import dft_pilot, trials_first, trials_last
from reference_sim import cn, haar_unitaries, round_trip


def _hermitian(x):
    return np.conj(np.swapaxes(x, -1, -2))


def _basis(h):
    """The AN basis N of each estimate of a trial-first stack, or of one
    estimate: the production kernel takes trial-last stacks and returns
    N^H m, so N is (N^H I)^H."""
    eye = np.eye(h.shape[-2])
    if h.ndim == 2:
        return _hermitian(null_space_basis(h, eye))
    return _hermitian(trials_first(null_space_basis(trials_last(h), eye)))


def _channels(params, mode, rng, trials):
    """``sample_channels``' draw as trial-first (h_d, g) views."""
    channels = sample_channels(params, mode, rng, trials)
    n_l = params.n_l
    return trials_first(channels[:, :n_l]), trials_first(channels[:, n_l:])


def _forward(params, alloc, h_d_hat, h_d, g, rng):
    """``forward_training`` on trial-first stacks: its (y_l, y_u) as
    trial-first views of the side-by-side statistics it returns."""
    span = None if h_d_hat is None else trials_last(h_d_hat)
    y = forward_training(params, alloc, span,
                         trials_last(np.concatenate([h_d, g], axis=-1)), rng)
    return trials_first(y[:, :params.n_l]), trials_first(y[:, params.n_l:])


def _assert_nulls(h):
    """On every row, whatever its rank: N^H N = I within 1e-13 and
    ||N^H h|| <= 1e-13 ||h|| (so exactly 0 for a zero row)."""
    n = _basis(h)
    n_t, n_l = h.shape[-2:]
    assert n.shape == h.shape[:-2] + (n_t, n_t - n_l)
    assert np.max(np.abs(_hermitian(n) @ n - np.eye(n_t - n_l))) <= 1e-13
    resid = np.linalg.norm(_hermitian(n) @ h, axis=(-2, -1))
    assert np.all(resid <= 1e-13 * np.linalg.norm(h, axis=(-2, -1)))


# ---------------------------------------------------------------------------
# channel sampling
# ---------------------------------------------------------------------------

def test_reciprocal_shapes_and_transpose(defaults, rng):
    """[h_d, g] side by side, and the reverse phase's uplink is the plain
    transpose of h_d, no conjugate: its statistic less its replayed noise
    is sqrt(e_r/n_l) h_d^T exactly."""
    channels = sample_channels(defaults, RECIPROCAL, rng, 3)
    assert channels.shape == (4, 4, 3)
    state = rng.bit_generator.state
    y_t = reverse_training(defaults, reciprocal_allocation(2.0, 4.0),
                           channels[:, :2], rng)
    assert y_t.shape == (2, 4, 3)
    rng.bit_generator.state = state
    noise = complex_gaussian(rng, y_t.shape, defaults.var_wt)
    np.testing.assert_array_equal(
        y_t, np.sqrt(2.0 / 2) * np.swapaxes(channels[:, :2], 0, 1) + noise)


def test_channel_entry_variance(defaults):
    h_d, _ = _channels(defaults, RECIPROCAL, np.random.default_rng(5), 10000)
    sq = np.mean(np.abs(h_d) ** 2, axis=(1, 2))
    assert 0.97 < np.mean(sq) < 1.03


@pytest.mark.parametrize("mode", [RECIPROCAL, NON_RECIPROCAL])
def test_channel_blocks_take_their_own_variances(mode):
    """One draw holds [h_d, g], and nothing else is drawn (the echo
    scheme's uplink is not): each column block has its own entry variance
    within 3% at 10,000 trials."""
    params = default_params(var_h=0.5, var_hd=0.25, var_hu=4.0, var_g=2.0)
    rng = np.random.default_rng(7)
    h_d, g = _channels(params, mode, rng, 10000)
    replay = np.random.default_rng(7)
    replay.standard_normal((params.n_t, params.n_l + params.n_u, 10000, 2))
    assert rng.random() == replay.random()
    var_d = params.var_h if mode == RECIPROCAL else params.var_hd
    for block, var in ((h_d, var_d), (g, params.var_g)):
        assert np.mean(np.abs(block) ** 2) == pytest.approx(var, rel=0.03)


def test_unknown_mode_rejected(defaults, rng):
    with pytest.raises(ValueError):
        sample_channels(defaults, "half-duplex", rng, 1)


# ---------------------------------------------------------------------------
# pilots and null spaces
# ---------------------------------------------------------------------------

def test_pilot_matrix_semi_unitary():
    """The explicit pilot of the reference models below is semi-unitary."""
    for tau, n in ((2, 2), (4, 4), (8, 4), (6, 2)):
        c = dft_pilot(tau, n)
        np.testing.assert_allclose(c.conj().T @ c, np.eye(n), atol=1e-12)
    with pytest.raises(ValueError):
        dft_pilot(2, 4)


def test_null_space_canonical():
    h = np.zeros((4, 2), dtype=complex)
    h[0, 0] = h[1, 1] = 1.0  # first two standard basis vectors
    n = _basis(h)
    assert n.shape == (4, 2)
    np.testing.assert_allclose(n.conj().T @ h, 0.0, atol=1e-14)
    # basis spans exactly {e3, e4}: the top 2x2 block must vanish
    np.testing.assert_allclose(n[:2, :], 0.0, atol=1e-14)


def test_null_space_random_matrices(rng):
    """Per row of a stack: N^H h = 0 and N^H N = I."""
    h = complex_gaussian(rng, (50, 4, 2))
    n = _basis(h)
    assert n.shape == (50, 4, 2)
    resid = np.linalg.norm(_hermitian(n) @ h, axis=(1, 2))
    assert np.all(resid <= 1e-10 * np.linalg.norm(h, axis=(1, 2)))
    ortho = np.linalg.norm(_hermitian(n) @ n - np.eye(2), axis=(1, 2))
    assert np.all(ortho <= 1e-12)


def test_null_space_rank_deficient():
    """A rank-one row and its full-rank neighbour are both nulled by an
    orthonormal basis."""
    col = np.ones((4, 1), dtype=complex)
    _assert_nulls(np.stack([np.hstack([col, col]), np.eye(4, 2, dtype=complex)]))


def _with_singular_values(rng, n_t, sv):
    """(len(sv), n_t, n_l) stack whose rows have the given singular values."""
    sv = np.asarray(sv, dtype=float)
    n_l = sv.shape[-1]
    u, _ = np.linalg.qr(complex_gaussian(rng, (sv.shape[0], n_t, n_l)))
    v, _ = np.linalg.qr(complex_gaussian(rng, (sv.shape[0], n_l, n_l)))
    return (u * sv[:, None, :]) @ _hermitian(v)


def test_null_space_rank_mask_matches_svd_criterion(rng):
    """s_min/s_max of 0, 1e-11, 1e-9 and 1, each at three scales: every
    row is nulled by an orthonormal basis, whatever its conditioning."""
    ratios = [0.0, 1e-11, 1e-9, 1.0]
    sv = [[scale, scale * r] for r in ratios for scale in (1e-8, 1.0, 1e8)]
    _assert_nulls(_with_singular_values(rng, 4, sv))


def test_null_space_unbatched_rank_deficient():
    """A single rank-one (n_t, n_l) estimate, with no trial axis, is nulled
    too, and so is a full-rank one."""
    col = np.ones((4, 1), dtype=complex)
    _assert_nulls(np.hstack([col, 2.0 * col]))
    _assert_nulls(np.eye(4, 2, dtype=complex))


@pytest.mark.parametrize("n_t,n_l", [(6, 1), (6, 3), (4, 2)])
def test_null_space_projector(rng, n_t, n_l):
    """Per row, N N^H is the projector I - h (h^H h)^{-1} h^H onto the left
    null space, and N^H N = I."""
    h = complex_gaussian(rng, (40, n_t, n_l))
    n = _basis(h)
    assert n.shape == (40, n_t, n_t - n_l)
    proj = np.eye(n_t) - h @ np.linalg.solve(_hermitian(h) @ h, _hermitian(h))
    assert np.max(np.abs(n @ _hermitian(n) - proj)) <= 1e-12
    assert np.max(np.abs(_hermitian(n) @ n - np.eye(n_t - n_l))) <= 1e-12


@pytest.mark.parametrize("n_t,n_l", [(6, 1), (6, 3)])
def test_null_space_rank_mask_other_geometries(rng, n_t, n_l):
    """Rows with s_min/s_max of 1e-11, 1e-9, 0.5 and 0 (for one column, a
    zero row) are nulled by orthonormal bases for one and three columns."""
    sv = [np.geomspace(1.0, r, n_l) if r else np.r_[np.ones(n_l - 1), 0.0]
          for r in (1e-11, 1e-9, 0.5, 0.0)]
    _assert_nulls(_with_singular_values(rng, n_t, sv))


LAPACK_GEOMETRIES = [(4, 2), (6, 1), (6, 3), (8, 4), (16, 8), (32, 16)]


def _lapack_rows(rng, n_t, n_l):
    """Random rows at three scales, and rows whose every reflector has a zero
    tail: e_1, ..., e_{n_l} (H_k = I), the same times 1j (H_k scales
    coordinate k) and random upper-trapezoidal rows."""
    h = complex_gaussian(rng, (8, n_t, n_l))
    eye = np.eye(n_t, n_l, dtype=complex)
    return np.concatenate([h, 1e-100 * h, 1e100 * h,
                           np.stack([eye, 1j * eye]), np.triu(h[:2])])


@pytest.mark.parametrize("n_t,n_l", LAPACK_GEOMETRIES)
def test_null_space_matches_lapack(rng, n_t, n_l):
    """N is the trailing n_t-n_l columns of LAPACK's complete Q (geqrf's
    reflectors, formed by ungqr) within 1e-13 on every row, and so is it
    for rank-one rows [c, 0, ..., 0], whose later columns reduce exactly
    to zero."""
    h = _lapack_rows(rng, n_t, n_l)
    n = _basis(h)
    q = np.linalg.qr(h, mode="complete")[0]
    assert np.max(np.abs(n - q[..., n_l:])) <= 1e-13
    if n_l > 1:
        rank_one = np.zeros((4, n_t, n_l), dtype=complex)
        rank_one[..., 0] = complex_gaussian(rng, (4, n_t))
        n = _basis(rank_one)
        q = np.linalg.qr(rank_one, mode="complete")[0]
        assert np.max(np.abs(n - q[..., n_l:])) <= 1e-13


@pytest.mark.parametrize("n_t,n_l", LAPACK_GEOMETRIES)
def test_householder_r_matches_geqrf(rng, n_t, n_l):
    """The reflectors reduce each row to geqrf's R, diagonal signs included,
    within 1e-13 of ||R||_F."""
    h = _lapack_rows(rng, n_t, n_l)
    a = np.transpose(h, (1, 2, 0)).copy()
    training._householder(a, n_l)
    r = np.triu(np.moveaxis(a[:n_l], -1, 0))
    want = np.linalg.qr(h, mode="r")
    scale = np.linalg.norm(want, axis=(1, 2))[:, None, None]
    assert np.max(np.abs(r - want) / scale) <= 1e-13


@pytest.mark.parametrize("n_t,n_l", LAPACK_GEOMETRIES + [(32, 31)])
def test_null_space_random_rank_one_rows(rng, n_t, n_l):
    """Rows that lost rank are nulled by an orthonormal basis: rank-one rows
    c d^T, zero rows, rows with a duplicated column and rows whose last
    column is a near-duplicate (s_min/s_max about 1e-12; with one column
    the last two are random rows).  Their null space has more than n_t-n_l
    dimensions, so which N is taken rests on rounding, and no LAPACK basis
    is compared."""
    rank_one = complex_gaussian(rng, (10, n_t, 1)) @ complex_gaussian(rng, (10, 1, n_l))
    h = complex_gaussian(rng, (10, n_t, n_l))
    duplicate, near = h.copy(), h.copy()
    duplicate[..., -1] = duplicate[..., 0]
    near[..., -1] = near[..., 0] + 1e-12 * complex_gaussian(rng, (10, n_t))
    _assert_nulls(np.concatenate([rank_one, np.zeros_like(h), duplicate, near]))


def test_null_space_zero_row(recwarn):
    """An all-zero estimate is nulled by an orthonormal basis, its outputs
    are finite and nothing warns: every reflector is the identity, so N^H m
    is m's last rows."""
    h = np.zeros((3, 4, 2), dtype=complex)
    h[1] = np.eye(4, 2)
    _assert_nulls(h)
    m = np.arange(12.0).reshape(4, 3)
    seen = trials_first(null_space_basis(trials_last(h), m))
    assert np.all(np.isfinite(seen))
    np.testing.assert_array_equal(seen[0], m[2:])
    assert len(recwarn) == 0


# ---------------------------------------------------------------------------
# explicit-pilot reference
# ---------------------------------------------------------------------------

def _fed_draws(monkeypatch, draws):
    """Make the training module's draws return ``draws``, a list of
    (trial-first value, variance) pairs, in order and trial-last, checking
    each requested shape and variance.  Returns the queue, which is empty
    once the phase drew all of them."""
    queue = list(draws)

    def draw(rng, shape, var=1.0):
        value, want_var = queue.pop(0)
        value = trials_last(value)
        assert value.shape == tuple(shape) and var == want_var
        return value.copy()

    monkeypatch.setattr(training, "complex_gaussian", draw)
    return queue


def _assert_close(got, want, rel):
    np.testing.assert_allclose(got, want, rtol=rel, atol=rel * np.abs(want).max())


# ---------------------------------------------------------------------------
# forward phase
# ---------------------------------------------------------------------------

def _reference_forward(params, alloc, h_d_hat, h_d, g, rng, tau):
    """The forward phase over an explicit tau-slot pilot C: the transmit
    block X_t = sqrt(E/n_t) C + A N^H, with N from a complete QR of each
    estimate and full-size draws A, W, V.  Returns (x_t, C^H (X_t H_d + W),
    C^H (X_t G + V)) and the draws the phase makes in their place,
    C^H A, C^H W and C^H V with their variances."""
    trials, n_t, n_l = h_d.shape
    energy = alloc.e_f if alloc.scheme == RECIPROCAL else alloc.e_3
    c = dft_pilot(tau, n_t)
    x_t = np.broadcast_to(np.sqrt(energy / n_t) * c, (trials, tau, n_t))
    draws = []
    if alloc.var_a > 0:
        q, _ = np.linalg.qr(h_d_hat, mode="complete")
        a = complex_gaussian(rng, (trials, tau, n_t - n_l), alloc.var_a)
        x_t = x_t + a @ _hermitian(q[..., n_l:])
        draws.append((c.conj().T @ a, alloc.var_a))
    w = complex_gaussian(rng, (trials, tau, n_l), params.var_w)
    v = complex_gaussian(rng, (trials, tau, params.n_u), params.var_v)
    draws += [(c.conj().T @ w, params.var_w), (c.conj().T @ v, params.var_v)]
    return (x_t, c.conj().T @ (x_t @ h_d + w), c.conj().T @ (x_t @ g + v)), draws


def _forward_with_reference(params, alloc, h_d_hat, h_d, g, monkeypatch, tau,
                            seed=0):
    """Production outputs, with the phase's draws replaced by the reference's
    C^H A, C^H W and C^H V, and the explicit reference (x_t, ref_l, ref_u);
    asserts the phase draws exactly those, in that order."""
    reference, draws = _reference_forward(params, alloc, h_d_hat, h_d, g,
                                          np.random.default_rng(seed), tau)
    with monkeypatch.context() as patch:
        queue = _fed_draws(patch, draws)
        out = _forward(params, alloc, h_d_hat, h_d, g, None)
    assert queue == []
    return out, reference


@pytest.mark.parametrize("scheme", [RECIPROCAL, NON_RECIPROCAL],
                         ids=["recip", "echo"])
@pytest.mark.parametrize("n_t,n_l,n_u", [(4, 2, 2), (6, 1, 2), (6, 3, 3),
                                         (16, 8, 8)])
def test_forward_matches_transmit_block_reference(monkeypatch, scheme, n_t, n_l, n_u):
    """Trial by trial, at tau = n_t and tau > n_t: the explicit transmit
    block with AN through N from the complete QR, read through C^H, equals
    the phase's statistic drawn as C^H A, C^H W and C^H V, within 1e-12
    relative.  As C^H has orthonormal rows, C^H W has the law of the
    phase's own draw, so both give the same joint law of channels and
    statistics."""
    params = default_params(n_t=n_t, n_l=n_l, n_u=n_u, tau_f=n_t + 2)
    if scheme == RECIPROCAL:
        alloc = reciprocal_allocation(2.0, 4.0, var_a=0.8)
    else:
        alloc = nonreciprocal_allocation(2.0, 1.0, 2.0, 4.0, var_a=0.8)
    trials = 33
    h_d, g = _channels(params, scheme, np.random.default_rng(40), trials)
    h_d_hat = h_d + complex_gaussian(np.random.default_rng(41), h_d.shape, 0.1)
    for tau in (n_t, 2 * n_t + 1):
        (y_l, y_u), (_, ref_l, ref_u) = _forward_with_reference(
            params, alloc, h_d_hat, h_d, g, monkeypatch, tau, seed=42)
        _assert_close(y_l, ref_l, 1e-12)
        _assert_close(y_u, ref_u, 1e-12)


def test_forward_no_an_is_pure_pilot(defaults, rng, monkeypatch):
    """Without AN the phase needs no estimate: both receivers read the
    scaled channels plus their own noise, bit for bit, and the explicit
    transmit block is the pure pilot."""
    h_d, g = _channels(defaults, RECIPROCAL, rng, 5)
    alloc = reciprocal_allocation(0.0, 4.0, var_a=0.0)
    (y_l, y_u), (x_t, ref_l, ref_u) = _forward_with_reference(
        defaults, alloc, None, h_d, g, monkeypatch, defaults.tau_f)
    expected = np.sqrt(4.0 / 4) * dft_pilot(defaults.tau_f, defaults.n_t)
    np.testing.assert_array_equal(x_t, np.broadcast_to(expected, (5, 4, 4)))
    _assert_close(y_l, ref_l, 1e-12)
    _assert_close(y_u, ref_u, 1e-12)
    replay = np.random.default_rng()
    replay.bit_generator.state = rng.bit_generator.state
    y_l, y_u = _forward(defaults, alloc, None, h_d, g, rng)
    w = trials_first(complex_gaussian(replay, (defaults.n_t, defaults.n_l, 5),
                                      defaults.var_w))
    v = trials_first(complex_gaussian(replay, (defaults.n_t, defaults.n_u, 5),
                                      defaults.var_v))
    np.testing.assert_array_equal(y_l, np.sqrt(4.0 / 4) * h_d + w)
    np.testing.assert_array_equal(y_u, np.sqrt(4.0 / 4) * g + v)
    assert rng.random() == replay.random()


def test_forward_an_invisible_at_perfect_csi(defaults, rng, monkeypatch):
    """With h_d_hat = h_d the AN lands exactly in the LR's blind spot."""
    h_d, g = _channels(defaults, RECIPROCAL, rng, 20)
    alloc = reciprocal_allocation(0.0, 4.0, var_a=3.0)
    tau = defaults.tau_f
    (y_l, y_u), (x_t, ref_l, ref_u) = _forward_with_reference(
        defaults, alloc, h_d, h_d, g, monkeypatch, tau)
    _assert_close(y_l, ref_l, 1e-12)
    _assert_close(y_u, ref_u, 1e-12)
    c = dft_pilot(tau, defaults.n_t)
    pilot_part = np.sqrt(alloc.e_f / defaults.n_t) * c
    an_part = x_t - pilot_part
    bound = 1e-10 * np.linalg.norm(h_d, axis=(1, 2))
    assert np.all(np.linalg.norm(an_part @ h_d, axis=(1, 2)) <= bound)
    # the production LR statistic holds the pilot and the noise and no AN
    w = ref_l - c.conj().T @ (x_t @ h_d)
    leak = y_l - np.sqrt(alloc.e_f / defaults.n_t) * h_d - w
    assert np.all(np.linalg.norm(leak, axis=(1, 2)) <= bound)
    # the AN itself is not degenerate
    assert np.all(np.linalg.norm(an_part, axis=(1, 2)) > 0.1)


def test_forward_pilot_row_power(defaults, rng, monkeypatch):
    h_d, g = _channels(defaults, RECIPROCAL, rng, 3)
    (y_l, y_u), (x_t, ref_l, ref_u) = _forward_with_reference(
        defaults, reciprocal_allocation(0.0, 4.0), h_d, h_d, g, monkeypatch,
        defaults.tau_f)
    _assert_close(y_l, ref_l, 1e-12)
    _assert_close(y_u, ref_u, 1e-12)
    row_power = np.sum(np.abs(x_t) ** 2, axis=-1)
    np.testing.assert_allclose(row_power, 1.0, atol=1e-12)


def test_forward_energy_accounting(defaults, monkeypatch):
    """Mean transmit energy = pilot energy + (n_t-n_l)*var_a*tau_f, within 3%."""
    alloc = reciprocal_allocation(0.0, 6.0, var_a=0.8)
    expected = 6.0 + 2 * 0.8 * defaults.tau_f
    trials = 10000
    h_d, g = _channels(defaults, RECIPROCAL, np.random.default_rng(11), trials)
    (y_l, y_u), (x_t, ref_l, ref_u) = _forward_with_reference(
        defaults, alloc, h_d, h_d, g, monkeypatch, defaults.tau_f, seed=11)
    _assert_close(y_l, ref_l, 1e-12)
    _assert_close(y_u, ref_u, 1e-12)
    total = np.sum(np.abs(x_t) ** 2)
    assert total / trials == pytest.approx(expected, rel=0.03)


def _geometry_cases(cases):
    """``cases`` (id, values) at 4x2(+2), under their own ids, and at 8x4(+4)
    and 32x16(+16), with the geometry appended to the id."""
    return [pytest.param(*values, geometry,
                         id=case_id + ("" if geometry == (4, 2) else
                                       "-{}x{}".format(*geometry)))
            for geometry in ((4, 2), (8, 4), (32, 16)) for case_id, values in cases]


@pytest.mark.parametrize("k", [1, 4, 5, 32])
def test_product_kernels_match_per_trial_matmul(k):
    """Both kernels of the trial-last product, the broadcast multiply-adds
    (k <= 4) and numpy's matmul (k > 4), equal a per-trial ``@`` within
    1e-13, on a transposed view as the right factor, into a fresh result
    and added to a given one."""
    rng = np.random.default_rng(k)
    a = complex_gaussian(rng, (6, k, 11))
    b = complex_gaussian(rng, (3, k, 11)).swapaxes(0, 1)
    base = complex_gaussian(rng, (6, 3, 11))
    want = trials_first(a) @ trials_first(b)
    for got, ref in ((training._product(a, b), want),
                     (training._product(a, b, base.copy()), want + trials_first(base))):
        assert got.shape == (6, 3, 11)
        np.testing.assert_allclose(trials_first(got), ref, rtol=1e-13,
                                   atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("scheme,var_a,geometry", _geometry_cases([
    ("recip-pilots", (RECIPROCAL, 0.0)), ("recip-an", (RECIPROCAL, 0.8)),
    ("echo-pilots", (NON_RECIPROCAL, 0.0)), ("echo-an", (NON_RECIPROCAL, 0.8))]))
def test_forward_fused_product_matches_separate_products(scheme, var_a, geometry):
    """One pass over [h_d, g] gives both receivers what two separate passes
    give, sqrt(E/n_t) H + A (N^H H) + noise for H = h_d and H = g, with
    A (N^H H) as a per-trial ``@``, and draws exactly A, W and V.  Without
    AN the phase takes no estimate."""
    n_t, n_l = geometry
    params = default_params(n_t=n_t, n_l=n_l, n_u=n_l)
    if scheme == RECIPROCAL:
        alloc = reciprocal_allocation(2.0, 4.0, var_a=var_a)
        energy = alloc.e_f
    else:
        alloc = nonreciprocal_allocation(2.0, 1.0, 2.0, 4.0, var_a=var_a)
        energy = alloc.e_3
    trials = 9
    h_d, g = _channels(params, scheme, np.random.default_rng(20), trials)
    h_d_hat = (h_d + complex_gaussian(np.random.default_rng(21), h_d.shape, 0.1)
               if var_a > 0 else None)
    rng, replay = np.random.default_rng(22), np.random.default_rng(22)
    y_l, y_u = _forward(params, alloc, h_d_hat, h_d, g, rng)
    want_l, want_u = np.sqrt(energy / n_t) * h_d, np.sqrt(energy / n_t) * g
    if var_a > 0:
        a = trials_first(complex_gaussian(replay, (n_t, n_t - n_l, trials), var_a))
        span = trials_last(h_d_hat)
        want_l = want_l + a @ trials_first(null_space_basis(span, trials_last(h_d)))
        want_u = want_u + a @ trials_first(null_space_basis(span, trials_last(g)))
    want_l = want_l + trials_first(complex_gaussian(replay, (n_t, n_l, trials),
                                                    params.var_w))
    want_u = want_u + trials_first(complex_gaussian(replay, (n_t, params.n_u, trials),
                                                    params.var_v))
    for got, want in ((y_l, want_l), (y_u, want_u)):
        np.testing.assert_allclose(got, want, rtol=1e-14,
                                   atol=1e-14 * np.abs(want).max())
    assert y_l.shape == (trials, n_t, n_l)
    assert y_u.shape == (trials, n_t, params.n_u)
    assert rng.random() == replay.random()


# ---------------------------------------------------------------------------
# reverse phase
# ---------------------------------------------------------------------------

def test_reverse_training_pilot_product(monkeypatch):
    """Trial by trial at tau = n_l and tau > n_l: the explicit reverse
    block sqrt(e_r/n_l) C H_d^T + W, with a full-size draw W, read through
    C^H equals the phase's statistic drawn as C^H W, within 1e-12
    relative.  The phase is the reciprocal scheme's only: the echo
    scheme's reverse statistic is drawn in its own frame by the Monte
    Carlo, and an echo allocation is refused."""
    params = default_params()
    n_t, n_l = params.n_t, params.n_l
    alloc = reciprocal_allocation(3.0, 4.0)
    h_d = sample_channels(params, RECIPROCAL, np.random.default_rng(32), 7)[:, :n_l]
    for tau in (n_l, 3 * n_l + 1):
        c = dft_pilot(tau, n_l)
        w = complex_gaussian(np.random.default_rng(31), (7, tau, n_t),
                             params.var_wt)
        want = c.conj().T @ (np.sqrt(3.0 / n_l) * c @ np.swapaxes(trials_first(h_d), 1, 2) + w)
        with monkeypatch.context() as patch:
            queue = _fed_draws(patch, [(c.conj().T @ w, params.var_wt)])
            y_t = reverse_training(params, alloc, h_d, None)
        assert queue == []
        _assert_close(trials_first(y_t), want, 1e-12)
    with pytest.raises(ValueError):
        reverse_training(params, nonreciprocal_allocation(1.0, 1.0, 3.0, 4.0),
                         h_d, np.random.default_rng(0))


def test_reverse_zero_energy_is_noise(defaults):
    rng = np.random.default_rng(12)
    alloc = reciprocal_allocation(0.0, 4.0)
    channels = sample_channels(defaults, RECIPROCAL, rng, 10000)
    y = reverse_training(defaults, alloc, channels[:, :defaults.n_l], rng)
    assert np.mean(np.abs(y) ** 2) == pytest.approx(defaults.var_wt, rel=0.03)


def test_reverse_pilot_energy(defaults, rng):
    """The pilot the statistic carries, read off it with its noise replayed
    and the full-row-rank uplink inverted, holds e_r."""
    h_d = sample_channels(defaults, RECIPROCAL, rng, 2)[:, :defaults.n_l]
    h_u = h_d.swapaxes(0, 1)
    state = rng.bit_generator.state
    y_t = reverse_training(defaults, reciprocal_allocation(2.0, 4.0), h_d, rng)
    rng.bit_generator.state = state
    noise = complex_gaussian(rng, y_t.shape, defaults.var_wt)
    x_l = trials_first(y_t - noise) @ np.linalg.pinv(trials_first(h_u))
    for k in range(2):
        assert np.linalg.norm(x_l[k]) ** 2 == pytest.approx(2.0, abs=1e-12)


def test_reverse_noiseless_identifiability(rng):
    """With the noise turned off, least squares recovers H^T exactly from
    the statistic sqrt(e_r/n_l) H^T."""
    quiet = default_params(var_wt=1e-30)
    h_d = sample_channels(quiet, RECIPROCAL, rng, 3)[:, :quiet.n_l]
    h_u = h_d.swapaxes(0, 1)
    y_t = reverse_training(quiet, reciprocal_allocation(5.0, 4.0), h_d, rng)
    x_l = np.sqrt(5.0 / quiet.n_l) * np.eye(quiet.n_l)
    for k in range(3):
        h_t, *_ = np.linalg.lstsq(x_l, y_t[..., k], rcond=None)
        np.testing.assert_allclose(h_t, h_u[..., k], atol=1e-10)


# ---------------------------------------------------------------------------
# round trip (non-reciprocal only): the literal reference's, since the Monte
# Carlo draws the echo transmitter's span in the frame of its reverse
# statistic (``montecarlo._estimate_span``)
# ---------------------------------------------------------------------------

def test_round_trip_rejected_for_reciprocal(defaults, rng):
    h_d, _ = _channels(defaults, RECIPROCAL, rng, 1)
    with pytest.raises(ValueError):
        round_trip(defaults, reciprocal_allocation(1.0, 1.0), h_d,
                   np.swapaxes(h_d, 1, 2), np.eye(defaults.n_t), rng)


def test_echo_gain_values(defaults):
    # E_0=E_1=4, n_t=4, n_l=2, unit variances: sqrt(4 / (8 + 8)) = 0.5
    assert echo_gain(defaults, 4.0, 4.0) == pytest.approx(0.5, abs=1e-15)
    assert echo_gain(defaults, 4.0, 0.0) == 0.0


def test_round_trip_zero_echo_power(defaults, rng):
    h_d, _ = _channels(defaults, NON_RECIPROCAL, rng, 1)
    h_u = complex_gaussian(rng, (1, defaults.n_l, defaults.n_t), defaults.var_hu)
    alloc = nonreciprocal_allocation(4.0, 0.0, 1.0, 1.0)
    y_t1 = round_trip(defaults, alloc, h_d, h_u, np.eye(defaults.n_t), rng)
    assert echo_gain(defaults, alloc.e_0, alloc.e_1) == 0.0
    # Y_t1 is then pure transmitter-side noise
    assert np.mean(np.abs(y_t1) ** 2) < 10 * defaults.var_wt


@pytest.mark.parametrize("n_t,n_l", [(4, 2), (8, 4), (32, 16)],
                         ids=["4x2", "8x4", "32x16"])
def test_round_trip_replays_its_draws(n_t, n_l):
    """Y_t1 = alpha (c Q H_d + W_0) H_u + W_1 with c = sqrt(e_0/n_t), a
    Haar probe Q and W_0 and W_1 replayed from the same stream: the round
    trip draws nothing else, and its probe c Q carries
    trace(X^H X) = e_0."""
    params = default_params(n_t=n_t, n_l=n_l, n_u=n_l)
    alloc = nonreciprocal_allocation(3.0, 5.0, 1.0, 1.0)
    rng = np.random.default_rng(17)
    h_d, _ = _channels(params, NON_RECIPROCAL, rng, 9)
    h_u = complex_gaussian(rng, (9, n_l, n_t), params.var_hu)
    q = haar_unitaries(rng, 9, n_t)
    state = rng.bit_generator.state
    y_t1 = round_trip(params, alloc, h_d, h_u, q, rng)
    after = rng.bit_generator.state
    rng.bit_generator.state = state
    w_0 = cn(rng, (9, n_t, n_l), params.var_w)
    w_1 = cn(rng, (9, n_t, n_t), params.var_wt)
    assert rng.bit_generator.state == after
    c = np.sqrt(alloc.e_0 / n_t)
    alpha = echo_gain(params, alloc.e_0, alloc.e_1)
    probe = c * q
    np.testing.assert_allclose(np.trace(_hermitian(probe) @ probe, axis1=1,
                                        axis2=2).real, alloc.e_0, rtol=1e-12)
    want = alpha * (probe @ h_d + w_0) @ h_u + w_1
    np.testing.assert_allclose(y_t1, want, rtol=1e-13, atol=1e-13)


def test_round_trip_echo_energy_normalization(defaults):
    """The gain scales the mean echoed block energy to exactly e_1 (3% MC).

    The gain's denominator is the mean received-block energy
    e_0*n_l*var_hd + n_t*n_l*var_w, so alpha^2 * E||Y_L0||^2 = e_1.
    """
    alloc = nonreciprocal_allocation(4.0, 4.0, 1.0, 1.0)
    rng = np.random.default_rng(13)
    alpha = echo_gain(defaults, alloc.e_0, alloc.e_1)
    trials = 10000
    channels = sample_channels(defaults, NON_RECIPROCAL, rng, trials)
    h_d = channels[:, :defaults.n_l]
    # the LR's block as the round trip forms it (see the replay test), from
    # the round trip's own first draw
    w_0 = complex_gaussian(rng, (defaults.n_t, defaults.n_l, trials), defaults.var_w)
    y_l0 = np.sqrt(alloc.e_0 / defaults.n_t) * h_d + w_0
    acc = alpha ** 2 * np.sum(np.abs(y_l0) ** 2)
    assert acc / trials == pytest.approx(alloc.e_1, rel=0.03)


def test_whole_pipeline_deterministic(defaults):
    alloc = reciprocal_allocation(2.0, 4.0, var_a=0.5)

    def run():
        rng = np.random.default_rng(99)
        channels = sample_channels(defaults, RECIPROCAL, rng, 16)
        y_t = reverse_training(defaults, alloc, channels[:, :defaults.n_l], rng)
        y = forward_training(defaults, alloc, channels[:, :defaults.n_l],
                             channels, rng)
        return y_t, y

    for a, b in zip(run(), run()):
        np.testing.assert_array_equal(a, b)
