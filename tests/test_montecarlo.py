"""Monte-Carlo layer: empirical NMSE vs closed forms, the allocation
dispatcher, symbol-error experiments."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dce import montecarlo, training
from dce.alloc_reciprocal import solve_reciprocal
from dce.errors import (InfeasibleGamma, NotConverged, RankDeficient,
                        UnsupportedGeometry)
from dce.gp import budget_posynomials, to_gp_variables
from dce.montecarlo import (
    BLOCK_TRIALS,
    run_nmse_experiment,
    run_ser_experiment,
    solve_allocation,
)
from dce.nmse import gamma_bounds
from dce.ostbc import (CODE_SYMBOLS, block_scale, decode_block, encode_block,
                       qam_constellation)
from dce.params import (
    NON_RECIPROCAL,
    RECIPROCAL,
    SCHEMES,
    default_params,
    nonreciprocal_allocation,
    reciprocal_allocation,
)
from dce.rng import complex_gaussian, trial_rng
from dce.training import forward_training, null_space_basis
from reference_estimators import (tx_estimate_downlink, tx_estimate_reciprocal,
                                  tx_estimate_uplink)
from reference_ostbc import block_domain_errors


# ---------------------------------------------------------------------------
# NMSE experiments
# ---------------------------------------------------------------------------

def test_trial_floor_enforced(defaults):
    with pytest.raises(ValueError):
        run_nmse_experiment(defaults, reciprocal_allocation(0.0, 4.0), trials=99)


def test_reciprocal_no_an_empirical_lr(defaults):
    report = run_nmse_experiment(defaults, reciprocal_allocation(0.0, 4.0),
                                 trials=10000)
    assert report.analytic_lr == pytest.approx(0.5)
    assert report.empirical_lr == pytest.approx(0.5, rel=0.02)


def test_no_forward_pilots_ur_sees_prior(defaults):
    report = run_nmse_experiment(defaults, reciprocal_allocation(2.0, 0.0),
                                 trials=10000)
    assert report.analytic_ur == pytest.approx(defaults.var_g)
    assert report.empirical_ur == pytest.approx(defaults.var_g, rel=0.02)


def test_report_is_deterministic(defaults):
    alloc = reciprocal_allocation(2.0, 4.0, var_a=1.0)
    a = run_nmse_experiment(defaults, alloc, trials=500, seed=7)
    b = run_nmse_experiment(defaults, alloc, trials=500, seed=7)
    assert a == b
    c = run_nmse_experiment(defaults, alloc, trials=500, seed=8)
    assert c != a


@pytest.mark.parametrize("experiment", ["nmse", "ser"])
def test_degenerate_trial_raises_on_first_draw(defaults, experiment, monkeypatch):
    """One trial of block 1 of a 600-trial run made degenerate (its span's
    rank mask cleared) raises RankDeficient on that block's first draw,
    naming block 1 and the trial's index in the run; no block draws from a
    second substream, so nothing is redrawn."""
    basis, calls, keys = training.null_space_basis, [], []

    def one_degenerate(span, m):
        seen, full_rank = basis(span, m)
        calls.append(span.shape[0])
        if len(calls) == 2:   # block 1's draw
            full_rank[44] = False
        return seen, full_rank

    def spy(*key):
        keys.append(key)
        return trial_rng(*key)

    monkeypatch.setattr(training, "null_space_basis", one_degenerate)
    monkeypatch.setattr(montecarlo, "trial_rng", spy)
    with pytest.raises(RankDeficient, match=r"^trial 300 \(block 1\): ") as raised:
        if experiment == "nmse":
            run_nmse_experiment(defaults, reciprocal_allocation(2.0, 4.0, var_a=1.0),
                                trials=600, seed=5)
        else:
            run_ser_experiment(defaults, 0.1, modulation=16, trials=600, seed=5,
                               scheme=NON_RECIPROCAL)
    assert raised.value.trial == BLOCK_TRIALS + 44
    assert calls == [BLOCK_TRIALS, BLOCK_TRIALS]
    assert keys == [(5, 0), (5, 1)]


@pytest.mark.parametrize("scheme", [RECIPROCAL, NON_RECIPROCAL])
def test_block_outcomes_depend_only_on_seed_and_block(defaults, scheme):
    """Sharding: over 600 trials (a partial last block) ``_run_blocks``
    returns, row for row, what each block gives run alone from
    ``trial_rng(seed, block)``, here in reverse block order."""
    alloc, _, _ = solve_allocation(defaults, 0.1, scheme)
    assert alloc.var_a > 0

    def one_block(rng, n):
        h_d, g, lr, ur = montecarlo._estimation_round(
            defaults, alloc, rng, n, "printed")
        return np.concatenate([lr, ur, h_d, g], axis=-1).reshape(n, -1)

    trials, seed = 600, 11
    joint = montecarlo._run_blocks(one_block, trials, seed)
    assert joint.shape[0] == trials
    starts = list(enumerate(range(0, trials, BLOCK_TRIALS)))
    for block, start in reversed(starts):
        n = min(BLOCK_TRIALS, trials - start)
        alone = one_block(trial_rng(seed, block), n)
        np.testing.assert_array_equal(joint[start:start + n], alone)


# ---------------------------------------------------------------------------
# the AN's null space from the span of the transmitter's estimate
# ---------------------------------------------------------------------------

def _hermitian(x):
    return np.conj(np.swapaxes(x, -1, -2))


def _informed_allocation(scheme):
    """An allocation with AN and every pilot the transmitter's estimate
    needs."""
    if scheme == RECIPROCAL:
        return reciprocal_allocation(3.0, 6.0, var_a=0.8)
    return nonreciprocal_allocation(3.0, 2.0, 3.0, 6.0, var_a=0.8)


def _span_and_estimate(params, alloc, trials, seed):
    """Channels, the span ``_estimate_span`` hands the forward phase and the
    transmitter's LMMSE estimate (the reference estimators) from the same
    draws, which the span must make exactly."""
    rng = np.random.default_rng(seed)
    h_d, h_u, g = training.sample_channels(params, alloc.scheme, rng, trials)
    replay = np.random.default_rng()
    replay.bit_generator.state = rng.bit_generator.state
    span = montecarlo._estimate_span(params, alloc, h_d, h_u, rng)
    y_t = training.reverse_training(params, alloc, h_u, replay)
    if alloc.scheme == RECIPROCAL:
        estimate = tx_estimate_reciprocal(y_t, params, alloc.e_r)
    else:
        y_t1 = training.round_trip_training(params, alloc, h_d, h_u, replay)
        estimate = tx_estimate_downlink(
            y_t1, tx_estimate_uplink(y_t, params, alloc.e_2), params, alloc)
    assert rng.random() == replay.random()
    return h_d, g, span, estimate


@pytest.mark.parametrize("scheme", [RECIPROCAL, NON_RECIPROCAL])
@pytest.mark.parametrize("n_t,n_l", [(4, 2), (8, 4), (16, 8)])
def test_span_gives_the_estimates_an(scheme, n_t, n_l, monkeypatch):
    """The span has the estimate's left null space: the AN bases N_span and
    N_est of each trial differ by a unitary U = N_span^H N_est (singular
    values 1 within 1e-12).  So A N_span^H = (A U) N_est^H, and the forward
    statistics from the span equal, trial by trial within 1e-12 relative,
    those from the estimate with its AN draw A replaced by A U.  U is fixed
    before A is drawn, so A U has the law of A."""
    params = default_params(n_t=n_t, n_l=n_l, n_u=n_l)
    alloc = _informed_allocation(scheme)
    trials = 64
    h_d, g, span, estimate = _span_and_estimate(params, alloc, trials, seed=n_t)
    eye = np.eye(n_t)
    u = (null_space_basis(span, eye)[0]
         @ _hermitian(null_space_basis(estimate, eye)[0]))
    np.testing.assert_allclose(np.linalg.svd(u, compute_uv=False), 1.0,
                               rtol=0, atol=1e-12)

    from_span = forward_training(params, alloc, span, h_d, g,
                                 np.random.default_rng(7))
    draw, shapes = training.complex_gaussian, []

    def rotated(rng, shape, var=1.0):   # the phase's first draw is its AN
        shapes.append(shape)
        x = draw(rng, shape, var)
        return x @ u if len(shapes) == 1 else x

    monkeypatch.setattr(training, "complex_gaussian", rotated)
    from_estimate = forward_training(params, alloc, estimate, h_d, g,
                                     np.random.default_rng(7))
    assert shapes[0] == (trials, n_t, n_t - n_l)
    for got, want in zip(from_span, from_estimate):
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def test_rank_test_decomposes_nothing_at_32x16(monkeypatch):
    """At 32x16 the QR bound clears every row of i.i.d. Gaussian estimates
    and of the echo spans the Monte Carlo draws at CI's point (gamma 0.1,
    20 dB): no singular value is computed."""
    params = default_params(n_t=32, n_l=16, n_u=16)
    alloc, _, _ = solve_allocation(params, 0.1, NON_RECIPROCAL)
    rng = np.random.default_rng(9)
    h_d, h_u, _ = training.sample_channels(params, NON_RECIPROCAL, rng, BLOCK_TRIALS)
    stacks = [complex_gaussian(rng, h_d.shape),
              montecarlo._estimate_span(params, alloc, h_d, h_u, rng)]
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for stack in stacks:
        assert null_space_basis(stack, np.eye(32))[1].all()
    assert calls == []


def _solved_blind_reciprocal():
    params = default_params(p_ave_db=0, var_h=0.5)
    return params, solve_reciprocal(params, 0.5).alloc


def _solved_unprobed_echo():
    params = default_params(p_ave_db=0, n_t=2, n_l=1, n_u=1)
    return params, solve_allocation(params, float(np.exp(-1.5)), NON_RECIPROCAL)[0]


@pytest.mark.parametrize("instance", [
    _solved_blind_reciprocal,
    lambda: (default_params(), nonreciprocal_allocation(4.0, 0.0, 2.0, 4.0, var_a=1.0)),
    lambda: (default_params(), nonreciprocal_allocation(4.0, 2.0, 0.0, 4.0, var_a=1.0)),
    _solved_unprobed_echo,
], ids=["reciprocal-e_r-0", "echo-e_1-0", "echo-e_2-0", "echo-e_0-0"])
def test_an_without_transmitter_estimate(instance):
    """A transmitter with no downlink information that sends AN puts it in
    a Haar-random subspace: no trial raises, and both NMSEs land within
    6 standard errors of the closed forms, which assume that subspace.  The
    reciprocal instance is what ``solve_reciprocal`` returns at 0 dB, an
    allocation with e_r = 0 and AN; the e_0 = 0 one is what condensation
    returns for a 2x1x1 geometry at 0 dB, whose echo carries no probe."""
    params, alloc = instance()
    assert alloc.var_a > 0 and (alloc.e_r == 0
                                or alloc.e_0 * alloc.e_1 * alloc.e_2 == 0)
    report = run_nmse_experiment(params, alloc, trials=20000, seed=4)
    se = 1.0 / 1.959963984540054
    assert abs(report.empirical_lr - report.analytic_lr) <= 6 * se * report.half_width_95_lr
    assert abs(report.empirical_ur - report.analytic_ur) <= 6 * se * report.half_width_95_ur


def test_reciprocal_long_pilots_match_closed_forms():
    """Pilots longer than the antenna counts (8x4(+4), tau_f = 24,
    tau_r = 12) at the solved 20 dB, gamma 0.1 allocation, which sends AN:
    4,096 trials land within 6 standard errors of both closed forms."""
    params = default_params(n_t=8, n_l=4, n_u=4, tau_f=24, tau_r=12)
    alloc = solve_reciprocal(params, 0.1).alloc
    assert alloc.var_a > 0 and alloc.e_r > 0
    report = run_nmse_experiment(params, alloc, trials=4096, seed=0)
    se = 1.0 / 1.959963984540054
    assert abs(report.empirical_lr - report.analytic_lr) <= 6 * se * report.half_width_95_lr
    assert abs(report.empirical_ur - report.analytic_ur) <= 6 * se * report.half_width_95_ur


def test_reciprocal_half_widths_cover_closed_forms(defaults):
    """The printed 95% intervals are honest: at the solved 20 dB, gamma 0.1
    reciprocal allocation, over 400 seeds of 500 trials, the closed form
    lies inside the interval for 0.915-0.985 of the seeds (0.95 within 3.2
    binomial standard deviations), for the LR and for the UR.  The echo
    LR is left out: its closed form is a surrogate."""
    alloc, _, _ = solve_allocation(defaults, 0.1, RECIPROCAL)
    assert alloc.var_a > 0
    covered = np.zeros(2)
    for seed in range(400):
        r = run_nmse_experiment(defaults, alloc, trials=500, seed=seed)
        covered += [abs(r.empirical_lr - r.analytic_lr) <= r.half_width_95_lr,
                    abs(r.empirical_ur - r.analytic_ur) <= r.half_width_95_ur]
    assert np.all((0.915 <= covered / 400) & (covered / 400 <= 0.985)), covered / 400


def test_nonreciprocal_empirical_tracks_surrogate(defaults):
    """Solved echo-scheme allocation: Monte Carlo within 15% of the
    approximation (it is a surrogate, not an exact moment)."""
    alloc, nmse_l, _ = solve_allocation(defaults, 0.1, NON_RECIPROCAL,
                                        "printed")
    report = run_nmse_experiment(defaults, alloc, trials=10000)
    assert report.analytic_lr == pytest.approx(nmse_l)
    assert report.empirical_lr == pytest.approx(report.analytic_lr, rel=0.15)


# ---------------------------------------------------------------------------
# solve + sweep
# ---------------------------------------------------------------------------

def test_solve_allocation_schemes(defaults):
    alloc_r, l_r, u_r = solve_allocation(defaults, 0.1, RECIPROCAL, "printed")
    assert alloc_r.scheme == RECIPROCAL
    assert u_r == pytest.approx(0.1, rel=1e-9)
    alloc_n, l_n, u_n = solve_allocation(defaults, 0.1, NON_RECIPROCAL,
                                         "printed")
    assert alloc_n.scheme == NON_RECIPROCAL
    assert u_n >= 0.1 * (1 - 1e-6)
    assert 0.0 < l_r < 1.0 and 0.0 < l_n < 1.0
    with pytest.raises(ValueError):
        solve_allocation(defaults, 0.1, "fdd", "printed")
    with pytest.raises(InfeasibleGamma):
        solve_allocation(defaults, 2.0, RECIPROCAL, "printed")


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(scheme=st.sampled_from(SCHEMES), p_ave_db=st.floats(0.0, 40.0),
       n_t=st.integers(2, 6), data=st.data())
def test_every_solved_allocation_runs_clean(scheme, p_ave_db, n_t, data):
    """Whatever allocation either solver returns, at any geometry and any
    log-uniform floor inside ``gamma_bounds``, runs through the Monte-Carlo
    trial path without a RankDeficient, its LR error lies in (0, prior], its UR
    error meets the floor and it meets the average, transmitter and LR
    budgets (1e-8 relative for the echo scheme, 1e-9 for the reciprocal
    one).  Only an infeasible floor and an unconverged condensation may
    stop a solve."""
    params = default_params(p_ave_db=p_ave_db, n_t=n_t,
                            n_l=data.draw(st.integers(1, n_t - 1), label="n_l"),
                            n_u=data.draw(st.integers(1, 4), label="n_u"))
    lo, hi = gamma_bounds(params, scheme)
    gamma = float(np.exp(data.draw(st.floats(np.log(lo), np.log(hi)), label="ln gamma")))
    try:
        alloc, nmse_l, nmse_u = solve_allocation(params, gamma, scheme)
    except (InfeasibleGamma, NotConverged):
        assume(False)
    report = run_nmse_experiment(params, alloc, trials=300)
    prior = params.var_h if scheme == RECIPROCAL else params.var_hd
    assert 0.0 < nmse_l <= prior
    assert nmse_u >= gamma * (1 - 1e-9)
    for used, budget in _budgets_used(params, gamma, alloc):
        assert used <= budget * (1 + (1e-9 if scheme == RECIPROCAL else 1e-8))


def _budgets_used(params, gamma, alloc):
    """(energy used, budget) of the average, transmitter and LR budgets, as
    the reciprocal budgets and the echo scheme's ``budget_posynomials``
    (each posynomial against 1) state them."""
    p = params
    if alloc.scheme == NON_RECIPROCAL:
        x = to_gp_variables(p, alloc).x()
        return [(posy.value(x), 1.0) for posy in budget_posynomials(p, gamma)[3:]]
    an = (p.n_t - p.n_l) * alloc.var_a * p.tau_f
    return [(alloc.e_r + alloc.e_f + an, p.budget_average_reciprocal()),
            (alloc.e_f + an, p.budget_tx_reciprocal()),
            (alloc.e_r, p.budget_lr_reciprocal())]


# ---------------------------------------------------------------------------
# symbol-error experiments
# ---------------------------------------------------------------------------

def test_ser_input_validation(defaults):
    with pytest.raises(ValueError):
        run_ser_experiment(defaults, 0.1, modulation=8)
    with pytest.raises(ValueError, match="at least one trial"):
        run_ser_experiment(defaults, 0.1, modulation=16, trials=0)
    wide = default_params(n_t=6, n_l=2)
    with pytest.raises(UnsupportedGeometry):
        run_ser_experiment(wide, 0.1, modulation=16, trials=200)


@pytest.mark.parametrize("scheme", [RECIPROCAL, NON_RECIPROCAL])
def test_ser_data_phase_fused_product(defaults, scheme, monkeypatch):
    """A block's data phase, one encode against [h_d, g], decodes exactly
    what two separate encodes decode, with each receiver's three noise
    symbols per trial drawn after the filter, LR first, and leaves the
    block's stream where the replay left it."""
    captured = {}

    def capture(block_fn, trials, seed):
        captured["block_fn"] = block_fn
        return np.zeros((trials, 2), dtype=int)

    monkeypatch.setattr(montecarlo, "_run_blocks", capture)
    run_ser_experiment(defaults, 0.1, modulation=64, trials=40, scheme=scheme)
    rng, replay = trial_rng(8, 0), trial_rng(8, 0)
    errors = captured["block_fn"](rng, 40)

    alloc, _, _ = solve_allocation(defaults, 0.1, scheme)
    h_d, g, lr_est, ur_est = montecarlo._estimation_round(
        defaults, alloc, replay, 40, "printed")
    pts = qam_constellation(64)
    scale = block_scale(defaults.p_ave)
    sent = replay.integers(0, 64, size=(CODE_SYMBOLS, 40))
    noise = [complex_gaussian(replay, (CODE_SYMBOLS, 40), var)
             for var in (defaults.var_w, defaults.var_v)]
    want = [np.count_nonzero(decode_block(
        encode_block(pts[sent], np.moveaxis(h, 0, -1), scale),
        np.moveaxis(est, 0, -1), scale, 64, w) != sent, axis=0)
        for h, est, w in ((h_d, lr_est, noise[0]), (g, ur_est, noise[1]))]
    np.testing.assert_array_equal(errors, np.stack(want, axis=1))
    assert errors[:, 1].sum() > 0   # the comparison sees decoding errors
    assert rng.random() == replay.random()


@pytest.mark.parametrize("scheme", [RECIPROCAL, NON_RECIPROCAL])
def test_ser_matches_block_domain_reference(defaults, scheme):
    """The filter-domain noise draw against the block-domain data phase
    (per-slot noise on every slot and antenna, the dispersion-map matched
    filter, an exhaustive nearest-point search) on the same channels and
    estimates: each receiver's SER agrees within 4 binomial standard errors
    of the difference."""
    trials, seed = 3000, 21
    report = run_ser_experiment(defaults, 0.1, modulation=64, trials=trials,
                                seed=seed, scheme=scheme)
    alloc, _, _ = solve_allocation(defaults, 0.1, scheme)
    scale = block_scale(defaults.p_ave)

    def reference_block(rng, n):
        h_d, g, lr_est, ur_est = montecarlo._estimation_round(
            defaults, alloc, rng, n, "printed")
        return block_domain_errors(rng, defaults, 64, scale, h_d, g,
                                   lr_est, ur_est)

    errors = montecarlo._run_blocks(reference_block, trials, seed)
    symbols = CODE_SYMBOLS * trials
    for got, ref_errors in ((report.ser_lr, errors[:, 0]),
                            (report.ser_ur, errors[:, 1])):
        ref = ref_errors.sum() / symbols
        se = np.sqrt((got * (1 - got) + ref * (1 - ref)) / symbols)
        assert 0 < ref < 1
        assert abs(got - ref) <= 4 * se, (scheme, got, ref, se)


def test_ser_report_fields_and_determinism(defaults):
    a = run_ser_experiment(defaults, 0.1, modulation=16, trials=300, seed=5)
    b = run_ser_experiment(defaults, 0.1, modulation=16, trials=300, seed=5)
    assert a == b
    assert a.trials == 300
    assert 0.0 <= a.ser_lr <= 1.0 and 0.0 <= a.ser_ur <= 1.0


def test_ser_advantage_over_ur(defaults):
    """The whole point: with a solved allocation the LR decodes far better
    than the UR at the same operating point.  Dense constellations expose
    the UR's floored estimate; sparse ones forgive it."""
    report = run_ser_experiment(default_params(p_ave_db=25.0), 0.1,
                                modulation=64, trials=2000)
    assert report.ser_lr < 0.01
    assert report.ser_ur > 0.1
