"""Scalar closed forms: the LMMSE kernel, NMSE evaluators, feasibility
interval, derived constants, the exact spectral factor."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dce.errors import InfeasibleGamma
from dce.montecarlo import solve_allocation
from dce.nmse import (
    JENSEN_VARIANTS,
    check_gamma,
    downlink_beta,
    gamma_bounds,
    gamma_tilde,
    leakage_residual,
    lmmse_error_var,
    lr_effective_noise_nonreciprocal,
    mu_threshold,
    nmse_l_nonreciprocal_approx,
    nmse_l_reciprocal,
    nmse_lower_bound,
    nmse_u,
    sigma_sq_uplink,
)
from dce.params import (
    NON_RECIPROCAL,
    RECIPROCAL,
    default_params,
    nonreciprocal_allocation,
)
from dce.rng import complex_gaussian, trial_rng
from oracles import _laguerre_parts, jensen_factor, jensen_miss, spectral_factor


# ---------------------------------------------------------------------------
# closed forms at hand-checkable points
# ---------------------------------------------------------------------------

def test_lmmse_kernel_points_and_broadcasting():
    assert lmmse_error_var(1.0, 0.0, 4, 1.0) == 1.0  # no pilots: the prior
    assert lmmse_error_var(1.0, 4.0, 4, 1.0) == pytest.approx(0.5)
    assert lmmse_error_var(2.0, 6.0, 2, 3.0) == pytest.approx(2.0 / 3.0)
    energy = np.array([0.0, 4.0, 12.0])
    noise = np.array([[1.0], [3.0]])
    grid = lmmse_error_var(1.0, energy, 4, noise)
    assert grid.shape == (2, 3)
    for i, r in enumerate(noise[:, 0]):
        for j, e in enumerate(energy):
            assert grid[i, j] == lmmse_error_var(1.0, float(e), 4, float(r))


def test_lr_reciprocal_formula_points(defaults):
    # no forward pilots: estimate is the prior mean, NMSE is the prior var
    assert nmse_l_reciprocal(defaults, 5.0, 0.0, 2.0) == pytest.approx(
        defaults.var_h)
    # e_f=4, no AN: (1/1 + (4/4)/1)^{-1}
    assert nmse_l_reciprocal(defaults, 0.0, 4.0, 0.0) == pytest.approx(0.5)
    # e_r=2 -> tx error 0.5 -> leakage (4-2)*1*0.5, +var_w: r_eff=2
    assert nmse_l_reciprocal(defaults, 2.0, 4.0, 1.0) == pytest.approx(2.0 / 3.0)


def test_ur_reciprocal_formula_points(defaults):
    assert nmse_u(defaults, 0.0, 3.0) == pytest.approx(defaults.var_g)
    assert nmse_u(defaults, 4.0, 0.0) == pytest.approx(0.5)
    # AN floor (4-2)*1*1 + 1 = 3: (1 + (4/4)/3)^{-1}
    assert nmse_u(defaults, 4.0, 1.0) == pytest.approx(0.75)


def test_ur_saturates_at_prior_under_heavy_an(defaults):
    assert nmse_u(defaults, 4.0, 1e12) == pytest.approx(
        defaults.var_g, rel=1e-9)


def test_negative_allocation_rejected(defaults):
    with pytest.raises(ValueError):
        nmse_l_reciprocal(defaults, -1.0, 4.0, 0.0)
    with pytest.raises(ValueError):
        nmse_u(defaults, 4.0, -0.5)
    with pytest.raises(ValueError):
        nmse_u(defaults, -4.0, 0.0)


def test_lr_nonreciprocal_no_an_reduces_to_plain_lmmse(defaults):
    alloc = nonreciprocal_allocation(10.0, 10.0, 10.0, 8.0, var_a=0.0)
    plain = 1.0 / (1.0 / defaults.var_hd
                   + (8.0 / defaults.n_t) / defaults.var_w)
    assert nmse_l_nonreciprocal_approx(defaults, alloc, "printed") == pytest.approx(plain)


def test_lr_nonreciprocal_no_probe_worst_case_leakage(defaults):
    """e_0=0 means no downlink knowledge: AN leaks at the full prior var."""
    alloc = nonreciprocal_allocation(0.0, 10.0, 10.0, 8.0, var_a=2.0)
    r_eff = ((defaults.n_t - defaults.n_l) * 2.0 * defaults.var_hd
             + defaults.var_w)
    expected = 1.0 / (1.0 / defaults.var_hd + (8.0 / defaults.n_t) / r_eff)
    assert nmse_l_nonreciprocal_approx(defaults, alloc, "printed") == pytest.approx(expected)


def test_ur_nonreciprocal_matches_reciprocal_form(defaults):
    # UR sees the same forward phase in both schemes, so one kernel serves
    # both: the reciprocal form with e_3 in place of e_f
    for e, a in [(4.0, 0.0), (4.0, 1.0), (17.0, 2.5)]:
        r_eff = (defaults.n_t - defaults.n_l) * a * defaults.var_g + defaults.var_v
        assert nmse_u(defaults, e, a) == pytest.approx(
            1.0 / (1.0 / defaults.var_g + (e / defaults.n_t) / r_eff))


# ---------------------------------------------------------------------------
# derived scalars
# ---------------------------------------------------------------------------

def test_gamma_tilde_points(defaults):
    assert gamma_tilde(defaults, 0.1) == pytest.approx(36.0)
    assert gamma_tilde(defaults, defaults.var_g) == pytest.approx(0.0)


def test_gamma_tilde_is_exactly_the_ur_floor_boundary(defaults):
    """NMSE_U >= gamma iff e_f * var_v / r_eff <= gamma_tilde (1000 points)."""
    rng = np.random.default_rng(7)
    gt_cache = {}
    for _ in range(1000):
        e_f = float(rng.uniform(0.0, 200.0))
        var_a = float(rng.uniform(0.0, 20.0))
        gamma = float(rng.uniform(0.01, defaults.var_g))
        gt = gt_cache.setdefault(gamma, gamma_tilde(defaults, gamma))
        r_eff = ((defaults.n_t - defaults.n_l) * var_a * defaults.var_g
                 + defaults.var_v)
        lhs = nmse_u(defaults, e_f, var_a) >= gamma
        rhs = e_f * defaults.var_v / r_eff <= gt
        assert lhs == rhs


def test_mu_threshold_sign(defaults):
    assert mu_threshold(defaults) == pytest.approx(0.0)  # unit variances
    noisy = default_params(var_h=50.0, var_v=40.0)
    assert mu_threshold(noisy) == pytest.approx(2 * (40.0 - 1.0 / 50.0))


def test_gamma_bounds_reciprocal(defaults):
    lo, hi = gamma_bounds(defaults, RECIPROCAL)
    assert hi == pytest.approx(defaults.var_g)
    assert lo == pytest.approx(1.0 / 151.0)  # budget 600 over n_t*var_v=4


def test_gamma_bounds_nonreciprocal(defaults):
    lo, hi = gamma_bounds(defaults, NON_RECIPROCAL)
    assert hi == pytest.approx(defaults.var_g)
    assert lo == pytest.approx(1.0 / (1.0 + 1400.0 / 4.0))
    with pytest.raises(ValueError):
        gamma_bounds(defaults, "fdd")


def test_check_gamma_scheme_split(defaults):
    lo_r, hi = gamma_bounds(defaults, RECIPROCAL)
    lo_n, _ = gamma_bounds(defaults, NON_RECIPROCAL)
    assert lo_n < lo_r  # the echo scheme has more budget to burn on pilots
    check_gamma(defaults, lo_r / 2, RECIPROCAL)  # allowed: floor never binds
    with pytest.raises(InfeasibleGamma):
        check_gamma(defaults, lo_n / 2, NON_RECIPROCAL)
    for scheme in (RECIPROCAL, NON_RECIPROCAL):
        with pytest.raises(InfeasibleGamma):
            check_gamma(defaults, hi * 1.01, scheme)
        with pytest.raises(InfeasibleGamma):
            check_gamma(defaults, 0.0, scheme)
        check_gamma(defaults, 0.1, scheme)


def test_check_gamma_echo_floor_below_prior(defaults):
    """The echo scheme's floor constraint divides by 1/gamma - 1/var_g, so
    gamma = var_g is rejected there; the reciprocal scheme accepts it, and
    the echo scheme accepts the next float below."""
    check_gamma(defaults, defaults.var_g, RECIPROCAL)
    with pytest.raises(InfeasibleGamma, match="below var_g"):
        check_gamma(defaults, defaults.var_g, NON_RECIPROCAL)
    below = float(np.nextafter(defaults.var_g, 0.0))
    check_gamma(defaults, below, NON_RECIPROCAL)
    assert 1.0 / below - 1.0 / defaults.var_g > 0.0


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------

def test_lower_bound_values():
    p15 = default_params(p_ave_db=15.0)
    assert nmse_lower_bound(p15, RECIPROCAL) == pytest.approx(0.020647, rel=1e-4)
    assert nmse_lower_bound(p15, NON_RECIPROCAL) == pytest.approx(8.954e-3,
                                                                  rel=1e-3)


def test_lower_bound_approaches_prior_at_zero_power():
    starved = default_params(p_ave_db=-80.0)
    assert nmse_lower_bound(starved, RECIPROCAL) == pytest.approx(
        starved.var_h, rel=1e-6)


def test_lower_bound_decreasing_in_power():
    prev = np.inf
    for db in [0.0, 5.0, 10.0, 15.0, 20.0, 25.0]:
        cur = nmse_lower_bound(default_params(p_ave_db=db), RECIPROCAL)
        assert cur < prev
        prev = cur


def test_lower_bound_unknown_scheme(defaults):
    with pytest.raises(ValueError):
        nmse_lower_bound(defaults, "tdd-hybrid")


# ---------------------------------------------------------------------------
# monotonicity / range over random operating points
# ---------------------------------------------------------------------------

VARIANCES = ("var_h", "var_hd", "var_hu", "var_g", "var_w", "var_wt", "var_v")


def _random_params(rng):
    """n_t from 2 to 8, n_l below it, every variance from 0.1 to 10."""
    n_t = int(rng.integers(2, 9))
    return default_params(n_t=n_t, n_l=int(rng.integers(1, n_t)),
                          **{v: float(rng.uniform(0.1, 10.0)) for v in VARIANCES})


def test_directional_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = _random_params(rng)
        e_r = float(rng.uniform(0.0, 60.0))
        e_f = float(rng.uniform(0.1, 120.0))
        var_a = float(rng.uniform(0.0, 12.0))
        d = float(rng.uniform(0.01, 5.0))
        base_l = nmse_l_reciprocal(p, e_r, e_f, var_a)
        # more forward pilot energy always helps LR, hurts UR floor-wise
        assert nmse_l_reciprocal(p, e_r, e_f + d, var_a) <= base_l + 1e-15
        # more reverse energy never hurts (sharper null of the AN)
        assert nmse_l_reciprocal(p, e_r + d, e_f, var_a) <= base_l + 1e-15
        # more AN never helps the LR, never hurts (raises) the UR error
        assert nmse_l_reciprocal(p, e_r, e_f, var_a + d) >= base_l - 1e-15
        base_u = nmse_u(p, e_f, var_a)
        assert nmse_u(p, e_f, var_a + d) >= base_u - 1e-15
        assert nmse_u(p, e_f + d, var_a) <= base_u + 1e-15
        # the echo scheme's LR: more forward energy helps, more AN hurts
        echo = [float(e) for e in rng.uniform(0.0, 60.0, 3)]
        for variant in JENSEN_VARIANTS:
            base, more_e3, more_an = (
                nmse_l_nonreciprocal_approx(
                    p, nonreciprocal_allocation(*echo, e_3, a), variant)
                for e_3, a in ((e_f, var_a), (e_f + d, var_a), (e_f, var_a + d)))
            assert more_e3 <= base + 1e-15
            assert more_an >= base - 1e-15


def test_values_stay_in_range():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        p = _random_params(rng)
        e_r = float(rng.uniform(0.0, 500.0))
        e_f = float(rng.uniform(0.0, 500.0))
        var_a = float(rng.uniform(0.0, 50.0))
        v_l = nmse_l_reciprocal(p, e_r, e_f, var_a)
        v_u = nmse_u(p, e_f, var_a)
        assert 0.0 < v_l <= p.var_h + 1e-15
        assert 0.0 < v_u <= p.var_g + 1e-15
        alloc = nonreciprocal_allocation(*[float(e) for e in rng.uniform(0.0, 500.0, 3)],
                                         e_f, var_a)
        for variant in JENSEN_VARIANTS:
            assert 0.0 < nmse_l_nonreciprocal_approx(p, alloc, variant) <= p.var_hd + 1e-15


# ---------------------------------------------------------------------------
# derived constants
# ---------------------------------------------------------------------------

def test_sigma_sq_uplink_frozen_point(defaults):
    # direct-substitution oracle frozen before implementation
    assert sigma_sq_uplink(defaults, 10.0) == pytest.approx(5.0 / 6.0, rel=1e-12)
    assert sigma_sq_uplink(defaults, 0.0) == 0.0


def test_derived_constants_bundle(defaults):
    """The scalars both allocators lean on, each from its one definition."""
    assert gamma_tilde(defaults, 0.1) == pytest.approx(36.0)
    alloc = nonreciprocal_allocation(10.0, 10.0, 10.0, 10.0)
    assert sigma_sq_uplink(defaults, alloc.e_2) == pytest.approx(5.0 / 6.0)
    assert downlink_beta(defaults, alloc) == pytest.approx(17.0 / 15.0)
    for scheme in (RECIPROCAL, NON_RECIPROCAL):
        with pytest.raises(InfeasibleGamma):
            check_gamma(defaults, defaults.var_g * 2, scheme)


@pytest.mark.parametrize("variant", ["printed", "sigma-squared"])
def test_lr_effective_noise_nonreciprocal_exact_at_high_power(variant):
    """60-300 dB, every energy 4 P and AN variance P: the echo scheme's AN
    residual var_hd (1 - rho0 j) and the LR's effective noise stay within
    1e-13 relative of an exact rational evaluation of the same float
    inputs, although 1 - rho0 j falls to about 1/P."""
    for db in (60, 100, 140, 200, 250, 300):
        p = default_params(p_ave_db=db, p_bar_t_db=db, p_bar_l_db=db)
        alloc = nonreciprocal_allocation(*[4 * p.p_ave] * 4, var_a=p.p_ave)
        beta = downlink_beta(p, alloc)
        sigma2 = sigma_sq_uplink(p, alloc.e_2)
        s = float(np.sqrt(sigma2)) if variant == "printed" else sigma2
        var_hd, e_0, var_w, n_t = (Fraction(x) for x in (p.var_hd, alloc.e_0,
                                                         p.var_w, p.n_t))
        rho0 = var_hd * e_0 / (var_hd * e_0 + n_t * var_w)
        j = n_t * Fraction(s) / (Fraction(beta) + n_t * Fraction(s))
        resid = var_hd * (1 - rho0 * j)
        r_eff = (p.n_t - p.n_l) * Fraction(alloc.var_a) * resid + var_w
        got = leakage_residual(p, alloc.e_0, beta, s)
        assert abs(Fraction(float(got)) / resid - 1) <= 1e-13, db
        got = lr_effective_noise_nonreciprocal(p, alloc, variant)
        assert abs(Fraction(got) / r_eff - 1) <= 1e-13, db


# ---------------------------------------------------------------------------
# the exact spectral factor
# ---------------------------------------------------------------------------

GEOMETRIES = [(1, 2), (2, 4), (3, 4), (8, 16), (16, 32), (31, 32), (1, 32)]
QUAD_BS = [1e-6, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e3]


def _telatar_parts(n_l, n_t, b):
    """(F, 1 - F) by scipy quad over Telatar's unordered-eigenvalue density
    of an n_l x n_l complex Wishart matrix with n_t degrees of freedom,
    (1/n_l) sum_k p_k(x)^2 x^alpha e^-x with p_k the orthonormal Laguerre
    polynomials of alpha = n_t - n_l, evaluated by their recurrence."""
    alpha = n_t - n_l
    log_norm = -0.5 * math.lgamma(alpha + 1)

    def density(x):
        prev, cur, total = 0.0, 1.0, 1.0
        for k in range(n_l - 1):
            prev, cur = cur, (((x - 2 * k - alpha - 1) * cur
                               - math.sqrt(k * (k + alpha)) * prev)
                              / math.sqrt((k + 1) * (k + 1 + alpha)))
            total += cur * cur
        return total * math.exp(2 * log_norm + alpha * math.log(x) - x) / n_l

    def integral(f):
        kinks = sorted({min(b, 1.0), min(10 * b, 1.0), 1.0, 10.0, 100.0})
        inner = quad(f, 0.0, 400.0, points=kinks, limit=500, epsabs=0.0,
                     epsrel=1e-13)[0]
        return inner + quad(f, 400.0, np.inf, epsabs=0.0, epsrel=1e-13)[0]

    return (integral(lambda x: density(x) * x / (x + b)),
            b * integral(lambda x: density(x) / (x + b)))


@pytest.mark.parametrize("n_l, n_t", GEOMETRIES,
                         ids=[f"{n_l}x{n_t}" for n_l, n_t in GEOMETRIES])
def test_spectral_factor_matches_telatar_quad(n_l, n_t):
    """The continued fraction matches a quadrature of Telatar's density:
    the factor and its miss within 1e-12 relative for b in [1e-3, 1e3],
    and within 1e-9 absolute below, down to b = 1e-6."""
    for b in QUAD_BS:
        got, want = _laguerre_parts(n_l, n_t, b), _telatar_parts(n_l, n_t, b)
        for g, w in zip(got, want):
            if b >= 1e-3:
                assert abs(g / w - 1.0) <= 1e-12, (b, got, want)
            else:
                assert abs(g - w) <= 1e-9, (b, got, want)


def _sampled_factor(params, alloc, samples, seed):
    """Mean of lambda/(lambda + beta) over the eigenvalues of ``samples``
    drawn Hu_hat Hu_hat^H, and its standard error over the draws."""
    sigma2 = sigma_sq_uplink(params, alloc.e_2)
    beta = downlink_beta(params, alloc)
    hu = complex_gaussian(trial_rng(seed, 0), (samples, params.n_l, params.n_t),
                          sigma2)
    lam = np.linalg.eigvalsh(hu @ np.conj(np.swapaxes(hu, 1, 2)))
    per_draw = np.mean(lam / (lam + beta), axis=1)
    return float(per_draw.mean()), float(per_draw.std(ddof=1) / np.sqrt(samples))


def test_spectral_factor_matches_sampled_eigenvalues():
    """At two of accept-07's solved echo allocations (gamma = 0.1) a
    1e5-draw eigenvalue average lies within 6 standard errors of the exact
    factor."""
    for pave in (15.0, 25.0):
        p = default_params(p_ave_db=pave)
        alloc, _, _ = solve_allocation(p, 0.1, NON_RECIPROCAL)
        factor, _ = spectral_factor(p, alloc)
        mean, se = _sampled_factor(p, alloc, 100_000, seed=7)
        assert abs(mean - factor) <= 6 * se, (pave, mean, factor, se)


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(n_t=st.integers(2, 32), data=st.data(),
       log_b=st.floats(-6.0, 6.0))
def test_spectral_factor_below_jensen_bound(n_t, data, log_b):
    """lambda/(lambda + beta) is concave and E lambda = n_t sigma^2, so the
    factor never exceeds the sigma-squared surrogate n_t/(b + n_t)."""
    n_l = data.draw(st.integers(1, n_t - 1))
    b = 10.0 ** log_b
    factor, miss = _laguerre_parts(n_l, n_t, b)
    assert 0.0 < factor <= n_t / (b + n_t)
    assert miss >= b / (b + n_t)


@pytest.mark.parametrize("n_l, n_t", GEOMETRIES,
                         ids=[f"{n_l}x{n_t}" for n_l, n_t in GEOMETRIES])
def test_spectral_factor_asymptotes(n_l, n_t):
    """As b -> 0 the miss tends to b E[1/x] = b/(n_t - n_l); as b -> inf the
    factor tends to E[x]/b = n_t/b.  The b -> 0 limit keeps the truncated
    fraction's 2e-4 relative error at n_t - n_l = 1."""
    alpha = n_t - n_l
    for b in (1e-20, 1e-12, 1e-9):
        _, miss = _laguerre_parts(n_l, n_t, b)
        assert miss == pytest.approx(b / alpha, rel=2e-4 if alpha == 1 else 1e-8)
    for b in (1e12, 1e20):
        factor, _ = _laguerre_parts(n_l, n_t, b)
        assert factor == pytest.approx(n_t / b, rel=1e-10)


def test_spectral_factor_report(defaults):
    """At a plain echo allocation the exact factor lies in (0, 1), as do
    both surrogates, with sigma-squared below printed, and each surrogate's
    miss is 1 minus its factor."""
    alloc = nonreciprocal_allocation(10.0, 10.0, 10.0, 10.0, 0.5)
    factor, miss = spectral_factor(defaults, alloc)
    assert 0.0 < factor < 1.0
    assert factor + miss == pytest.approx(1.0, abs=1e-15)
    assert (0.0 < jensen_factor(defaults, alloc, "sigma-squared")
            < jensen_factor(defaults, alloc, "printed") < 1.0)
    for v in JENSEN_VARIANTS:
        assert jensen_miss(defaults, alloc, v) == pytest.approx(
            1.0 - jensen_factor(defaults, alloc, v), rel=1e-12)


def test_spectral_factor_degenerate_cases(defaults):
    """Without an echo or without uplink pilots there is no round trip:
    the factor is exactly 0 and its miss exactly 1."""
    dead_echo = nonreciprocal_allocation(10.0, 0.0, 10.0, 10.0, 0.5)
    assert spectral_factor(defaults, dead_echo) == (0.0, 1.0)
    blind_uplink = nonreciprocal_allocation(10.0, 10.0, 0.0, 10.0, 0.5)
    assert spectral_factor(defaults, blind_uplink) == (0.0, 1.0)
