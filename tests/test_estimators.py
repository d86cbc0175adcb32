"""LMMSE estimators on stacks of trials: closed-form error variances,
empirical agreement, optimality against alternative linear filters,
orthogonality of errors.  The transmitter's estimators are the suite's
references (``reference_estimators.py``), checked here against the closed
forms for their errors."""

import numpy as np
import pytest

from dce.estimators import _pilot_filter, lr_estimate_reciprocal, ur_estimate
from dce.nmse import (
    downlink_beta,
    jensen_factor,
    lmmse_error_var,
    lr_effective_noise_nonreciprocal,
    lr_effective_noise_reciprocal,
    nmse_l_nonreciprocal_approx,
    rho0_downlink,
    t0_round_trip,
    tx_error_var_reciprocal,
    tx_error_var_uplink,
    ur_effective_noise,
)
from dce.params import (
    NON_RECIPROCAL,
    RECIPROCAL,
    default_params,
    nonreciprocal_allocation,
    reciprocal_allocation,
)
from dce.rng import complex_gaussian
from dce.training import (
    echo_gain,
    forward_training,
    reverse_training,
    round_trip_training,
    sample_channels,
)
from helpers import dft_pilot
from reference_estimators import (tx_estimate_downlink, tx_estimate_reciprocal,
                                  tx_estimate_uplink)

TRIALS = 10000


def _empirical_mse(run_stack, trials=TRIALS, seed=0):
    """Mean over the trials of each trial's mean squared entry error."""
    est, truth = run_stack(np.random.default_rng(seed), trials)
    return float(np.mean(np.abs(est - truth) ** 2))


# ---------------------------------------------------------------------------
# transmitter-side, reciprocal
# ---------------------------------------------------------------------------

def test_tx_reciprocal_zero_energy(defaults, rng):
    _, h_u, _ = sample_channels(defaults, RECIPROCAL, rng, 3)
    y_t = reverse_training(defaults, reciprocal_allocation(0.0, 1.0), h_u, rng)
    out = tx_estimate_reciprocal(y_t, defaults, 0.0)
    assert out.shape == (3, 4, 2)
    np.testing.assert_array_equal(out, 0.0)  # prior mean
    assert tx_error_var_reciprocal(defaults, 0.0) == pytest.approx(defaults.var_h)


def test_tx_reciprocal_error_variance_formula(defaults):
    # unit variances, n_l=2, e_r=2: (1/1 + 2/2)^{-1} = 0.5
    assert tx_error_var_reciprocal(defaults, 2.0) == pytest.approx(0.5)


def test_tx_reciprocal_empirical_agreement(defaults):
    alloc = reciprocal_allocation(2.0, 4.0)

    def stack(rng, n):
        h_d, h_u, _ = sample_channels(defaults, RECIPROCAL, rng, n)
        y_t = reverse_training(defaults, alloc, h_u, rng)
        return tx_estimate_reciprocal(y_t, defaults, alloc.e_r), h_d

    assert _empirical_mse(stack) == pytest.approx(0.5, rel=0.02)


def test_tx_reciprocal_negative_energy_rejected(defaults):
    with pytest.raises(ValueError):
        tx_estimate_reciprocal(np.zeros((2, 4), dtype=complex), defaults, -1.0)


# ---------------------------------------------------------------------------
# LR, reciprocal
# ---------------------------------------------------------------------------

def test_lr_effective_noise_example(defaults):
    # e_r=2 gives transmitter error 0.5; AN leaks (4-2)*1*0.5, plus var_w=1
    assert lr_effective_noise_reciprocal(defaults, 2.0, 1.0) == pytest.approx(2.0)


def test_lr_effective_noise_perfect_reverse_limit(defaults):
    """e_r -> inf nulls the AN leakage entirely, leaving just var_w."""
    assert lr_effective_noise_reciprocal(defaults, 1e12, 5.0) == pytest.approx(
        defaults.var_w, rel=1e-9)


def test_lr_reciprocal_no_an_agreement(defaults):
    alloc = reciprocal_allocation(0.0, 4.0, var_a=0.0)

    def stack(rng, n):
        h_d, _, g = sample_channels(defaults, RECIPROCAL, rng, n)
        y_l, _ = forward_training(defaults, alloc, h_d, h_d, g, rng)
        return lr_estimate_reciprocal(y_l, defaults, alloc), h_d

    mse = _empirical_mse(stack)
    assert mse == pytest.approx(0.5, rel=0.02)  # (1/1 + 4/4)^{-1}


def test_lr_reciprocal_with_an_agreement(defaults):
    """Estimator under AN leakage: analytic error matches Monte Carlo (2%)."""
    alloc = reciprocal_allocation(2.0, 4.0, var_a=1.0)
    analytic = 1.0 / (1.0 / 1.0 + (4.0 / 4.0) / 2.0)  # 2/3

    def stack(rng, n):
        h_d, h_u, g = sample_channels(defaults, RECIPROCAL, rng, n)
        y_t = reverse_training(defaults, alloc, h_u, rng)
        h_hat = tx_estimate_reciprocal(y_t, defaults, alloc.e_r)
        y_l, _ = forward_training(defaults, alloc, h_hat, h_d, g, rng)
        return lr_estimate_reciprocal(y_l, defaults, alloc), h_d

    assert _empirical_mse(stack) == pytest.approx(analytic, rel=0.02)


# ---------------------------------------------------------------------------
# UR
# ---------------------------------------------------------------------------

def test_ur_error_variance_formulas(defaults):
    """Error variance of the UR filter's statistics at e_f = 4."""
    def errv(var_a):
        return lmmse_error_var(defaults.var_g, 4.0, defaults.n_t,
                               ur_effective_noise(defaults, var_a))

    assert errv(0.0) == pytest.approx(0.5)
    # AN raises the UR's noise floor to (4-2)*1*1 + 1 = 3: (1 + (4/4)/3)^{-1}
    assert ur_effective_noise(defaults, 1.0) == pytest.approx(3.0)
    assert errv(1.0) == pytest.approx(0.75)


def test_ur_empirical_agreement(defaults):
    alloc = reciprocal_allocation(2.0, 4.0, var_a=1.0)

    def stack(rng, n):
        h_d, h_u, g = sample_channels(defaults, RECIPROCAL, rng, n)
        y_t = reverse_training(defaults, alloc, h_u, rng)
        h_hat = tx_estimate_reciprocal(y_t, defaults, alloc.e_r)
        _, y_u = forward_training(defaults, alloc, h_hat, h_d, g, rng)
        return ur_estimate(y_u, defaults, alloc), g

    assert _empirical_mse(stack) == pytest.approx(0.75, rel=0.02)


# ---------------------------------------------------------------------------
# transmitter-side, non-reciprocal
# ---------------------------------------------------------------------------

def test_tx_uplink_formulas(defaults, rng):
    assert tx_error_var_uplink(defaults, 0.0) == pytest.approx(defaults.var_hu)
    assert tx_error_var_uplink(defaults, 2.0) == pytest.approx(0.5)
    y = complex_gaussian(rng, (3, defaults.n_l, defaults.n_t))
    out = tx_estimate_uplink(np.zeros_like(y), defaults, 0.0)
    assert out.shape == (3, 2, 4)
    np.testing.assert_array_equal(out, 0.0)


def test_tx_uplink_empirical_agreement(defaults):
    alloc = nonreciprocal_allocation(0.0, 0.0, 2.0, 0.0)

    def stack(rng, n):
        _, h_u, _ = sample_channels(defaults, NON_RECIPROCAL, rng, n)
        y_t = reverse_training(defaults, alloc, h_u, rng)
        return tx_estimate_uplink(y_t, defaults, alloc.e_2), h_u

    assert _empirical_mse(stack) == pytest.approx(0.5, rel=0.02)


def test_downlink_beta_frozen_value(defaults):
    # direct-substitution oracle at e_0=e_1=e_2=10 (fixed before implementation)
    alloc = nonreciprocal_allocation(10.0, 10.0, 10.0, 10.0)
    assert downlink_beta(defaults, alloc) == pytest.approx(17.0 / 15.0, rel=1e-12)
    dead = nonreciprocal_allocation(10.0, 0.0, 10.0, 10.0)
    assert downlink_beta(defaults, dead) == np.inf


def test_downlink_noiseless_consistency():
    """Huge energies + tiny noise: the echo-based estimate recovers h_d,
    although the regularizer beta shrinks with the noise."""
    quiet = default_params(var_w=1e-12, var_wt=1e-12)
    alloc = nonreciprocal_allocation(1e6, 1e6, 1e6, 1.0)
    rng = np.random.default_rng(21)
    h_d, h_u, _ = sample_channels(quiet, NON_RECIPROCAL, rng, 4)
    y_t = reverse_training(quiet, alloc, h_u, rng)
    hu_hat = tx_estimate_uplink(y_t, quiet, alloc.e_2)
    y_t1 = round_trip_training(quiet, alloc, h_d, h_u, rng)
    out = tx_estimate_downlink(y_t1, hu_hat, quiet, alloc)
    np.testing.assert_allclose(out, h_d, atol=1e-7)


def test_downlink_conditional_mse_matches_trace(defaults):
    """For one FIXED uplink estimate, empirical conditional MSE tracks the
    trace of the conditional covariance factor
    var_hd (I - rho0 M (M + beta I)^{-1}), M = Hu_hat^* Hu_hat^T, within 3%
    at 1e4 trials."""
    alloc = nonreciprocal_allocation(10.0, 10.0, 10.0, 10.0)
    setup_rng = np.random.default_rng(31)
    _, h_u0, _ = sample_channels(defaults, NON_RECIPROCAL, setup_rng, 1)
    y_t = reverse_training(defaults, alloc, h_u0, setup_rng)
    hu_hat = tx_estimate_uplink(y_t, defaults, alloc.e_2)[0]
    n_l = defaults.n_l
    m = hu_hat.conj() @ hu_hat.T
    shrink = m @ np.linalg.inv(m + downlink_beta(defaults, alloc) * np.eye(n_l))
    cond_factor = defaults.var_hd * (
        np.eye(n_l) - rho0_downlink(defaults, alloc.e_0) * shrink)
    conditional_nmse = float(np.trace(cond_factor).real) / n_l

    # Conditioned on hu_hat: true h_u = hu_hat + independent error, and the
    # whole round trip re-randomizes everything else.
    eps2 = tx_error_var_uplink(defaults, alloc.e_2)
    rng = np.random.default_rng(32)
    trials = TRIALS
    h_u = hu_hat + complex_gaussian(rng, (trials, *hu_hat.shape), eps2)
    h_d = complex_gaussian(rng, (trials, defaults.n_t, defaults.n_l),
                           defaults.var_hd)
    y_t1 = round_trip_training(defaults, alloc, h_d, h_u, rng)
    out = tx_estimate_downlink(
        y_t1, np.broadcast_to(hu_hat, h_u.shape), defaults, alloc)
    acc = np.sum(np.mean(np.abs(out - h_d) ** 2, axis=(1, 2)))
    assert acc / trials == pytest.approx(conditional_nmse, rel=0.03)


def _haar_unitaries(rng, trials, n):
    """Haar-random n x n unitaries: the QR of a complex-Gaussian stack with
    R's diagonal phases moved into Q (Mezzadri, Notices AMS 2007)."""
    q, r = np.linalg.qr(complex_gaussian(rng, (trials, n, n)))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def test_fixed_probe_reproduces_haar_probe(defaults):
    """The identity behind the fixed probe, trial by trial.  A Haar probe
    c Q with noises W_0' = Q W_0 and W_1' = Q W_1 gives the same estimate,
    within 1e-13 relative, as ``round_trip_training``'s probe c I with the
    noises Q^H W_0' = W_0 and Q^H W_1' = W_1 it drew.  The Haar side hands
    the estimator Q^H Y_t1', as X^H Y = c Q^H Y for the probe c Q while the
    estimator applies the c itself.  As Q^H W has the law of W, both probes
    give the same joint law of channels and estimates."""
    alloc = nonreciprocal_allocation(3.0, 5.0, 2.0, 6.0, var_a=0.4)
    p, trials = defaults, 64
    rng = np.random.default_rng(51)
    h_d, h_u, _ = sample_channels(p, NON_RECIPROCAL, rng, trials)
    y_t = reverse_training(p, alloc, h_u, rng)
    hu_hat = tx_estimate_uplink(y_t, p, alloc.e_2)
    q = _haar_unitaries(rng, trials, p.n_t)
    state = rng.bit_generator.state
    y_t1 = round_trip_training(p, alloc, h_d, h_u, rng)
    fixed = tx_estimate_downlink(y_t1, hu_hat, p, alloc)

    rng.bit_generator.state = state
    w_0 = complex_gaussian(rng, (trials, p.n_t, p.n_l), p.var_w)
    w_1 = complex_gaussian(rng, (trials, p.n_t, p.n_t), p.var_wt)
    x_haar = np.sqrt(alloc.e_0 / p.n_t) * q
    alpha = echo_gain(p, alloc.e_0, alloc.e_1)
    y_haar = alpha * (x_haar @ h_d + q @ w_0) @ h_u + q @ w_1
    haar = tx_estimate_downlink(np.conj(np.swapaxes(q, 1, 2)) @ y_haar, hu_hat,
                                p, alloc)
    rel = (np.linalg.norm(fixed - haar, axis=(1, 2))
           / np.linalg.norm(haar, axis=(1, 2)))
    assert rel.max() <= 1e-13


def test_downlink_needs_echo(defaults, rng):
    alloc = nonreciprocal_allocation(10.0, 0.0, 10.0, 10.0)
    hu = tx_estimate_uplink(complex_gaussian(rng, (1, 2, 4)), defaults, alloc.e_2)
    with pytest.raises(ValueError):
        tx_estimate_downlink(complex_gaussian(rng, (1, 4, 4)), hu, defaults, alloc)


# ---------------------------------------------------------------------------
# LR, non-reciprocal
# ---------------------------------------------------------------------------

def test_lr_nonreciprocal_no_an_reduction(defaults):
    """var_a=0 collapses the approximation to the plain LMMSE variance."""
    alloc = nonreciprocal_allocation(10.0, 10.0, 10.0, 8.0, var_a=0.0)
    plain = 1.0 / (1.0 / defaults.var_hd + 8.0 / (defaults.n_t * defaults.var_w))
    assert nmse_l_nonreciprocal_approx(defaults, alloc, "printed") == pytest.approx(
        plain, rel=1e-12)


def test_lr_nonreciprocal_perfect_tx_csi_limit(defaults):
    """e_0, e_2 -> inf: AN fully nulled, same reduction as var_a=0."""
    alloc = nonreciprocal_allocation(1e12, 1e12, 1e12, 8.0, var_a=3.0)
    plain = 1.0 / (1.0 / defaults.var_hd + 8.0 / (defaults.n_t * defaults.var_w))
    assert nmse_l_nonreciprocal_approx(defaults, alloc, "printed") == pytest.approx(
        plain, rel=1e-3)


def test_jensen_factor_variants(defaults):
    alloc = nonreciprocal_allocation(10.0, 10.0, 10.0, 10.0, 0.5)
    printed = jensen_factor(defaults, alloc, "printed")
    squared = jensen_factor(defaults, alloc, "sigma-squared")
    assert 0.0 < squared < printed < 1.0  # sqrt(s) > s for s < 1
    dead = nonreciprocal_allocation(10.0, 0.0, 10.0, 10.0, 0.5)
    assert jensen_factor(defaults, dead, "printed") == 0.0
    with pytest.raises(ValueError):
        jensen_factor(defaults, alloc, "exact")


# ---------------------------------------------------------------------------
# cross-cutting properties
# ---------------------------------------------------------------------------

def test_lmmse_beats_alternative_linear_filters():
    """2x1 toy: scalar LMMSE beats least squares and 100 perturbed filters."""
    var_h, var_n, energy = 1.0, 1.0, 3.0
    tau, n = 2, 1
    c = dft_pilot(tau, n)
    x = np.sqrt(energy / n) * c
    w_lmmse = (np.sqrt(energy / n) / (energy / n + var_n / var_h)) * c.conj().T
    w_ls = np.linalg.pinv(x)

    rng = np.random.default_rng(17)
    trials = 10000
    h = complex_gaussian(rng, (trials, 1, 1), var_h)
    noise = complex_gaussian(rng, (trials, tau, 1), var_n)
    y = x[None, :, :] @ h + noise

    def mse(w):
        return float(np.mean(np.abs(w[None, :, :] @ y - h) ** 2))

    mse_lmmse = mse(w_lmmse)
    assert mse_lmmse < mse(w_ls)
    for _ in range(100):
        perturbed = w_lmmse * (1 + 0.05 * rng.standard_normal()) \
            + 0.05 * complex_gaussian(rng, w_lmmse.shape)
        assert mse_lmmse <= mse(perturbed) + 1e-12


def test_error_estimate_orthogonality(defaults):
    """|corr(estimate, error)| <= 0.03 at 1e4 trials for each estimator."""
    alloc = reciprocal_allocation(2.0, 4.0, var_a=1.0)
    rng = np.random.default_rng(23)
    h_d, h_u, g = sample_channels(defaults, RECIPROCAL, rng, TRIALS)
    y_t = reverse_training(defaults, alloc, h_u, rng)
    tx = tx_estimate_reciprocal(y_t, defaults, alloc.e_r)
    y_l, y_u = forward_training(defaults, alloc, tx, h_d, g, rng)
    lr = lr_estimate_reciprocal(y_l, defaults, alloc)
    ur = ur_estimate(y_u, defaults, alloc)
    pairs = {"tx": (tx, h_d), "lr": (lr, h_d), "ur": (ur, g)}
    for name, (stack, truth) in pairs.items():
        est, err = stack[:, 0, 0], stack[:, 0, 0] - truth[:, 0, 0]
        rho = np.mean(est * np.conj(err)) / np.sqrt(
            np.mean(np.abs(est) ** 2) * np.mean(np.abs(err) ** 2))
        assert abs(rho) <= 0.03, f"{name} estimator violates orthogonality: {rho}"


def test_analytic_error_monotone_in_energy(defaults):
    """More training energy never hurts, across 1000 random operating points."""
    rng = np.random.default_rng(29)
    for _ in range(1000):
        e = float(rng.uniform(0.0, 50.0))
        bump = float(rng.uniform(0.01, 10.0))
        assert tx_error_var_reciprocal(defaults, e + bump) <= \
            tx_error_var_reciprocal(defaults, e) + 1e-15
        assert tx_error_var_uplink(defaults, e + bump) <= \
            tx_error_var_uplink(defaults, e) + 1e-15


@pytest.mark.parametrize("alloc", [
    nonreciprocal_allocation(10.0, 10.0, 10.0, 10.0),
    nonreciprocal_allocation(0.5, 30.0, 0.2, 4.0, var_a=0.3),
], ids=["balanced", "weak-uplink"])
def test_downlink_matches_svd_reference(defaults, alloc):
    """On a stack whose uplink rows are scaled over ten decades, plus one row
    with trace/beta >= 1e15, every estimate is within 1e-13 relative of
    gain X_t0^H Y_t1 V diag(s/(s^2 + beta)) U^H, Hu_hat = U diag(s) V^H,
    and none is zeroed; X_t0 = sqrt(e_0/n_t) I is the probe the round trip
    sends."""
    rng = np.random.default_rng(41)
    beta = downlink_beta(defaults, alloc)
    hu = complex_gaussian(rng, (400, 2, 4)) * 10.0 ** rng.uniform(0, 10, (400, 1, 1))
    far = complex_gaussian(rng, (1, 2, 4))
    far *= np.sqrt(1e15 * beta / np.sum(np.abs(far) ** 2))
    hu = np.concatenate([hu, far])
    y_t1 = complex_gaussian(rng, (401, 4, 4))
    est = tx_estimate_downlink(y_t1, hu, defaults, alloc)

    u, s, vh = np.linalg.svd(hu, full_matrices=False)
    gain = defaults.var_hd / (echo_gain(defaults, alloc.e_0, alloc.e_1)
                              * t0_round_trip(defaults, alloc.e_0))
    shrunk = np.conj(np.swapaxes(vh, 1, 2)) * (s / (s * s + beta))[:, None, :]
    x_t0 = np.sqrt(alloc.e_0 / defaults.n_t) * np.eye(defaults.n_t)
    ref = gain * (x_t0.conj().T @ y_t1 @ shrunk @ np.conj(np.swapaxes(u, 1, 2)))
    assert np.trace(np.conj(np.swapaxes(hu[-1], 0, 1)) @ hu[-1]).real / beta >= 1e15
    rel = np.linalg.norm(est - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
    assert rel.max() <= 1e-13
    assert np.all(np.linalg.norm(est, axis=(1, 2)) > 0)


def _pilot_filter_reference(prior_var, noise_var, energy, tau, n_cols):
    """prior (prior X^H X + noise I)^{-1} X^H with X = sqrt(energy/n_cols) C:
    the LMMSE filter through its n_cols x n_cols system, whose matrix is a
    multiple of the identity up to rounding."""
    x = np.sqrt(energy / n_cols) * dft_pilot(tau, n_cols)
    gram = prior_var * (x.conj().T @ x) + noise_var * np.eye(n_cols)
    return prior_var * np.linalg.solve(gram, x.conj().T)


def test_pilot_filters_match_lmmse_reference(defaults):
    """Every gain the estimators apply at the default parameters, for a
    reciprocal and an echo allocation, and gains for pilots with tau in
    {n, 2n, 4n} whose tau x tau Gram matrix prior X X^H + noise I has
    condition number 1e2 to 1e13: the gain times C^H is within 1e-13
    relative of the reference filter."""
    p = defaults
    rec = reciprocal_allocation(2.0, 4.0, var_a=0.5)
    echo = nonreciprocal_allocation(3.0, 5.0, 2.0, 6.0, var_a=0.4)
    cases = [
        (p.var_h, p.var_wt, rec.e_r, p.tau_r, p.n_l),
        (p.var_h, lr_effective_noise_reciprocal(p, rec.e_r, rec.var_a), rec.e_f, p.tau_f, p.n_t),
        (p.var_g, ur_effective_noise(p, rec.var_a), rec.e_f, p.tau_f, p.n_t),
        (p.var_hu, p.var_wt, echo.e_2, p.n_l, p.n_l),
        (p.var_hd, lr_effective_noise_nonreciprocal(p, echo, "printed"), echo.e_3, p.n_t, p.n_t),
        (p.var_g, ur_effective_noise(p, echo.var_a), echo.e_3, p.n_t, p.n_t),
    ]
    n, energy = 4, 4.0
    for tau in (n, 2 * n, 4 * n):
        for cond in (1e2, 1e4, 1e7, 1e11, 1e13):
            # prior energy/n + noise = cond * noise
            cases.append((2.5, 2.5 * (energy / n) / (cond - 1), energy, tau, n))
    for args in cases:
        gain = _pilot_filter(*args[:3], args[4])  # (prior, noise, energy, n_cols)
        np.testing.assert_allclose(gain * dft_pilot(*args[3:]).conj().T,
                                   _pilot_filter_reference(*args),
                                   rtol=1e-13, atol=0, err_msg=str(args))

