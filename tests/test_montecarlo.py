"""Monte-Carlo layer: empirical NMSE vs closed forms, the spectral-factor
oracle, the allocation dispatcher, symbol-error experiments."""

import tracemalloc

import numpy as np
import pytest

from dce import montecarlo, training
from dce.alloc_reciprocal import solve_reciprocal
from dce.errors import InfeasibleGamma, RankDeficient, UnsupportedGeometry
from dce.estimators import tx_estimate_reciprocal
from dce.montecarlo import (
    BLOCK_TRIALS,
    ORACLE_CHUNK,
    jensen_oracle,
    run_nmse_experiment,
    run_ser_experiment,
    solve_allocation,
)
from dce.nmse import JENSEN_VARIANTS
from dce.ostbc import (CODE_SLOTS, CODE_SYMBOLS, block_scale, decode_block,
                       encode_block, qam_constellation)
from dce.params import (
    NON_RECIPROCAL,
    RECIPROCAL,
    default_params,
    nonreciprocal_allocation,
    reciprocal_allocation,
)
from dce.rng import complex_gaussian, trial_rng


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


def test_resample_counter_present(defaults):
    report = run_nmse_experiment(defaults, reciprocal_allocation(1.0, 3.0),
                                 trials=200)
    assert report.resampled_trials >= 0
    assert report.trials == 200


def test_degenerate_trials_are_redrawn(defaults, monkeypatch):
    """With the rank tolerance raised, the trials whose transmitter estimate
    falls below it in each block's first draw are exactly the ones counted
    as resampled; the redrawn run is finite and repeats bit for bit."""
    monkeypatch.setattr(training, "RANK_RTOL", 0.3)
    alloc = reciprocal_allocation(2.0, 4.0, var_a=1.0)
    trials = 2 * BLOCK_TRIALS + 88   # the last block is partial
    expected = 0
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        rng = trial_rng(5, block)
        n = min(BLOCK_TRIALS, trials - start)
        _, h_u, _ = training.sample_channels(defaults, RECIPROCAL, rng, n)
        _, y_t = training.reverse_training(defaults, alloc, h_u, rng)
        _, full_rank = training.null_space_basis(
            tx_estimate_reciprocal(y_t, defaults, alloc.e_r), np.eye(defaults.n_t))
        expected += int(np.count_nonzero(~full_rank))
    a = run_nmse_experiment(defaults, alloc, trials=trials, seed=5)
    b = run_nmse_experiment(defaults, alloc, trials=trials, seed=5)
    assert a == b
    assert 0 < a.resampled_trials == expected < trials
    assert all(np.isfinite(x) and x > 0 for x in (
        a.empirical_lr, a.empirical_ur, a.half_width_95_lr, a.half_width_95_ur))


def test_ser_degenerate_trials_are_redrawn(defaults, monkeypatch):
    monkeypatch.setattr(training, "RANK_RTOL", 0.3)
    a = run_ser_experiment(defaults, 0.1, modulation=16, trials=600, seed=3,
                           scheme=NON_RECIPROCAL)
    b = run_ser_experiment(defaults, 0.1, modulation=16, trials=600, seed=3,
                           scheme=NON_RECIPROCAL)
    assert a == b
    assert a.resampled_trials > 0
    assert 0.0 <= a.ser_lr <= 1.0 and 0.0 <= a.ser_ur <= 1.0


@pytest.mark.parametrize("alloc", [
    reciprocal_allocation(0.0, 4.0, var_a=1.0),              # no reverse pilots
    nonreciprocal_allocation(4.0, 0.0, 2.0, 4.0, var_a=1.0),  # no echo
], ids=["reciprocal-e_r-0", "echo-e_1-0"])
def test_redraws_exhausted_raise(defaults, alloc, monkeypatch):
    """With a rank tolerance no matrix meets (s_min > s_max), every draw is
    degenerate, so AN has no null space and the redraws run out."""
    monkeypatch.setattr(training, "RANK_RTOL", 1.0)
    with pytest.raises(RankDeficient, match="redraws"):
        run_nmse_experiment(defaults, alloc, trials=200, seed=1)


def _solved_blind_reciprocal():
    params = default_params(p_ave_db=0, var_h=0.5)
    return params, solve_reciprocal(params, 0.5).alloc


@pytest.mark.parametrize("instance", [
    _solved_blind_reciprocal,
    lambda: (default_params(), nonreciprocal_allocation(4.0, 0.0, 2.0, 4.0, var_a=1.0)),
    lambda: (default_params(), nonreciprocal_allocation(4.0, 2.0, 0.0, 4.0, var_a=1.0)),
], ids=["reciprocal-e_r-0", "echo-e_1-0", "echo-e_2-0"])
def test_an_without_transmitter_estimate(instance):
    """A transmitter with no downlink information that sends AN puts it in
    a Haar-random subspace: no trial is redrawn, and both NMSEs land within
    6 standard errors of the closed forms, which assume that subspace.  The
    reciprocal instance is what ``solve_reciprocal`` returns at 0 dB, an
    allocation with e_r = 0 and AN."""
    params, alloc = instance()
    assert alloc.var_a > 0 and (alloc.e_r == 0 or alloc.e_1 * alloc.e_2 == 0)
    report = run_nmse_experiment(params, alloc, trials=20000, seed=4)
    assert report.resampled_trials == 0
    se = 1.0 / 1.959963984540054
    assert abs(report.empirical_lr - report.analytic_lr) <= 6 * se * report.half_width_95_lr
    assert abs(report.empirical_ur - report.analytic_ur) <= 6 * se * report.half_width_95_ur


def test_nonreciprocal_empirical_tracks_surrogate(defaults):
    """Solved echo-scheme allocation: Monte Carlo within 15% of the
    approximation (it is a surrogate, not an exact moment)."""
    alloc, nmse_l, _ = solve_allocation(defaults, 0.1, NON_RECIPROCAL,
                                        "printed")
    report = run_nmse_experiment(defaults, alloc, trials=10000)
    assert report.analytic_lr == pytest.approx(nmse_l)
    assert report.empirical_lr == pytest.approx(report.analytic_lr, rel=0.15)


# ---------------------------------------------------------------------------
# spectral-factor oracle
# ---------------------------------------------------------------------------

def test_jensen_oracle_sample_floor(defaults):
    alloc = nonreciprocal_allocation(10.0, 10.0, 10.0, 10.0, 0.5)
    with pytest.raises(ValueError):
        jensen_oracle(defaults, alloc, trials=9999)


def test_jensen_oracle_report(defaults):
    alloc = nonreciprocal_allocation(10.0, 10.0, 10.0, 10.0, 0.5)
    report = jensen_oracle(defaults, alloc, trials=10000, seed=3)
    assert 0.0 < report["empirical"] < 1.0
    assert 0.0 < report["sigma-squared"] < report["printed"] < 1.0
    assert report["closer"] in JENSEN_VARIANTS
    gaps = {v: abs(report["empirical"] - report[v]) for v in JENSEN_VARIANTS}
    assert report["closer"] == min(gaps, key=gaps.get)


def test_jensen_oracle_degenerate_cases(defaults):
    dead_echo = nonreciprocal_allocation(10.0, 0.0, 10.0, 10.0, 0.5)
    assert jensen_oracle(defaults, dead_echo, trials=10000)["empirical"] == 0.0
    blind_uplink = nonreciprocal_allocation(10.0, 10.0, 0.0, 10.0, 0.5)
    assert jensen_oracle(defaults, blind_uplink,
                         trials=10000)["empirical"] == 0.0


def test_jensen_oracle_memory_flat_in_trials(defaults):
    """Samples are drawn and reduced ORACLE_CHUNK at a time, so a call over
    six chunks peaks no higher than a call over two."""
    alloc = nonreciprocal_allocation(10.0, 10.0, 10.0, 10.0, 0.5)
    peaks = []
    for chunks in (2, 6):
        tracemalloc.start()
        try:
            jensen_oracle(defaults, alloc, trials=chunks * ORACLE_CHUNK)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


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
    """A block's data phase, one product against [h_d, g], decodes exactly
    what two separate products decode and leaves the block's stream where
    the separate products left it."""
    captured = {}

    def capture(block_fn, trials, seed):
        captured["block_fn"] = block_fn
        return np.zeros((trials, 2), dtype=int), 0

    monkeypatch.setattr(montecarlo, "_run_blocks", capture)
    run_ser_experiment(defaults, 0.1, modulation=64, trials=40, scheme=scheme)
    rng, replay = trial_rng(8, 0), trial_rng(8, 0)
    errors, bad = captured["block_fn"](rng, 40)

    alloc, _, _ = solve_allocation(defaults, 0.1, scheme)
    h_d, g, lr_est, ur_est, replay_bad = montecarlo._estimation_round(
        defaults, alloc, replay, 40, "printed")
    pts = qam_constellation(64)
    scale = block_scale(defaults.p_ave)
    sent = replay.integers(0, 64, size=(40, CODE_SYMBOLS))
    blocks = encode_block(pts[sent], scale)
    y_lr = blocks @ h_d + complex_gaussian(
        replay, (40, CODE_SLOTS, defaults.n_l), defaults.var_w)
    y_ur = blocks @ g + complex_gaussian(
        replay, (40, CODE_SLOTS, defaults.n_u), defaults.var_v)
    want = [np.count_nonzero(decode_block(y, est, scale, pts) != sent, axis=1)
            for y, est in ((y_lr, lr_est), (y_ur, ur_est))]
    np.testing.assert_array_equal(errors, np.stack(want, axis=1))
    np.testing.assert_array_equal(bad, replay_bad)
    assert errors[:, 1].sum() > 0   # the comparison sees decoding errors
    assert rng.random() == replay.random()


def test_ser_report_fields_and_determinism(defaults):
    a = run_ser_experiment(defaults, 0.1, modulation=16, trials=300, seed=5)
    b = run_ser_experiment(defaults, 0.1, modulation=16, trials=300, seed=5)
    assert a == b
    assert a.trials == 300
    assert a.resampled_trials == 0
    assert 0.0 <= a.ser_lr <= 1.0 and 0.0 <= a.ser_ur <= 1.0


def test_ser_advantage_over_ur(defaults):
    """The whole point: with a solved allocation the LR decodes far better
    than the UR at the same operating point.  Dense constellations expose
    the UR's floored estimate; sparse ones forgive it."""
    report = run_ser_experiment(default_params(p_ave_db=25.0), 0.1,
                                modulation=64, trials=2000)
    assert report.ser_lr < 0.01
    assert report.ser_ur > 0.1
