"""Monte-Carlo layer: empirical NMSE vs closed forms, the allocation
dispatcher, symbol-error experiments."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dce import montecarlo, training
from dce.alloc_reciprocal import solve_reciprocal
from dce.config import MAX_POWER_DB
from dce.errors import (InfeasibleGamma, NonFiniteOutcome, NotConverged,
                        UnsupportedGeometry)
from dce.gp import budget_posynomials, to_gp_variables
from dce.montecarlo import (
    block_trials,
    run_nmse_experiment,
    run_ser_experiment,
    solve_allocation,
)
from dce.nmse import (echo_gain, forward_filters, gamma_bounds, lmmse_gain,
                      sigma_sq_uplink, tx_error_var_uplink)
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
from helpers import trials_first, trials_last
from reference_ostbc import block_domain_errors
from reference_sim import simulate


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
    """One trial of block 0 of a 600-trial run made non-finite stops the run
    in that block, whose 512 trials at 4x2x2 are the run's first 512: its
    substream is created once, and block 1's never, so nothing is redrawn
    or drawn past the fault.  The reciprocal NMSE run's trial gets a NaN in
    its block's one complex draw, which holds the rotated channels' rows
    outside the estimate's span, R, B and the noise statistics' normals,
    and raises NonFiniteOutcome naming block 0 and the trial's index in the
    run; the echo SER run's gets a NaN AN basis, and the decoder refuses the
    NaN estimate with its ValueError."""
    module, name = ((montecarlo, "complex_gaussian") if experiment == "nmse"
                    else (training, "null_space_basis"))
    draw, calls, keys = getattr(module, name), [], []

    def one_degenerate(*args):
        seen = draw(*args)
        calls.append(seen.shape[-1])
        if len(calls) == 1:   # the first block's first draw
            seen[..., 300] = np.nan
        return seen

    def spy(*key):
        keys.append(key)
        return trial_rng(*key)

    monkeypatch.setattr(module, name, one_degenerate)
    monkeypatch.setattr(montecarlo, "trial_rng", spy)
    if experiment == "nmse":
        with pytest.raises(NonFiniteOutcome, match=r"^trial 300 \(block 0\) ") as raised:
            run_nmse_experiment(defaults, reciprocal_allocation(2.0, 4.0, var_a=1.0),
                                trials=600, seed=5)
        assert raised.value.trial == 300
    else:
        with pytest.raises(ValueError, match="not finite"):
            run_ser_experiment(defaults, 0.1, modulation=16, trials=600, seed=5,
                               scheme=NON_RECIPROCAL)
    assert calls == [block_trials(defaults)] == [512]
    assert keys == [(5, 0)]


def test_non_finite_outcome_in_a_later_stack(monkeypatch):
    """A non-finite outcome in the second block of a 1,300-trial run in
    blocks of 512 trials is named by its index in the run and its block,
    and the third block's substream is never made."""
    keys, blocks = [], []

    def spy(*key):
        keys.append(key)
        return trial_rng(*key)

    def block_fn(rng, n):
        blocks.append(n)
        out = np.zeros((2, n))
        if len(blocks) == 2:
            out[1, 300] = np.inf
        return out

    monkeypatch.setattr(montecarlo, "trial_rng", spy)
    with pytest.raises(NonFiniteOutcome, match=r"^trial 812 \(block 1\) ") as raised:
        montecarlo._run_blocks(block_fn, 1300, 2, 512)
    assert raised.value.trial == 812
    assert blocks == [512, 512]
    assert keys == [(2, 0), (2, 1)]


def test_overflow_raises_instead_of_returning_nan(defaults):
    """An echo energy e_1 of 1.7e308 makes the span's entries about
    sqrt(e_1), whose squares overflow the AN basis's Householder norms, so
    the squared errors are NaN: the run raises NonFiniteOutcome naming
    trial 0 (block 0) instead of reporting NaN NMSEs and half-widths."""
    huge = nonreciprocal_allocation(1e200, 1.7e308, 1e200, 10.0, 1.0)
    with pytest.warns(RuntimeWarning) as warned, pytest.raises(
            NonFiniteOutcome, match=r"^trial 0 \(block 0\) ") as raised:
        run_nmse_experiment(defaults, huge, trials=600, seed=1)
    assert raised.value.trial == 0
    assert any("overflow" in str(w.message) for w in warned)


@pytest.mark.parametrize("scheme", [RECIPROCAL, NON_RECIPROCAL])
def test_block_outcomes_depend_only_on_seed_and_block(defaults, scheme, monkeypatch):
    """Sharding: at 4x2x2, where a block is 512 trials, ``_run_blocks``
    returns, byte for byte and row for row, what each block gives run
    alone from ``trial_rng(seed, block)``, here in reverse block order, and
    a run of k blocks gives the first k blocks of a longer run.  Both
    outcomes are checked, the NMSE run's per-trial squared errors and the
    SER run's per-trial error counts, over 1, 512, 513, 1024, 1100 and
    1600 trials: a lone trial, whole blocks, a partial last block and a
    short one, against a 2,048-trial run."""
    run_blocks, block_fns = montecarlo._run_blocks, []

    def capture(block_fn, trials, seed, size):
        block_fns.append(block_fn)
        return run_blocks(block_fn, trials, seed, size)

    monkeypatch.setattr(montecarlo, "_run_blocks", capture)
    alloc, _, _ = solve_allocation(defaults, 0.1, scheme)
    assert alloc.var_a > 0
    run_nmse_experiment(defaults, alloc, trials=100)
    run_ser_experiment(defaults, 0.1, modulation=64, trials=1, scheme=scheme)
    size = block_trials(defaults)
    assert size == 512

    seed = 11
    for block_fn in block_fns:
        longer = run_blocks(block_fn, 2048, seed, size)
        for trials in (1, 512, 513, 1024, 1100, 1600):
            joint = run_blocks(block_fn, trials, seed, size)
            assert joint.shape[1] == trials
            whole = trials // size * size
            assert joint[:, :whole].tobytes() == longer[:, :whole].tobytes()
            starts = list(enumerate(range(0, trials, size)))
            for block, start in reversed(starts):
                n = min(size, trials - start)
                alone = block_fn(trial_rng(seed, block), n)
                assert joint[:, start:start + n].tobytes() == alone.tobytes()


@pytest.mark.parametrize("experiment,scheme,geometry,per_trial", [
    ("nmse", RECIPROCAL, (4, 2, 2), (21, 6, 0)),
    ("nmse", NON_RECIPROCAL, (4, 2, 2), (47, 4, 0)),
    ("nmse", NON_RECIPROCAL, (4, 3, 1), (58, 5, 0)),
    ("ser", RECIPROCAL, (4, 2, 2), (54, 0, 3)),
    ("ser", NON_RECIPROCAL, (4, 2, 2), (67, 2, 3)),
], ids=["recip", "echo", "echo-4x3x1", "ser-recip", "ser-echo"])
def test_each_trial_draws_a_fixed_number_of_normals(experiment, scheme, geometry,
                                                    per_trial, monkeypatch):
    """Every block of a 600-trial run, 512 and 88 trials at 4x2x2 and
    4x3x1, draws, per trial and from its own substream, per_trial =
    (complex normals, gamma variates, integers) and nothing else.  At 4x2x2
    with every pilot and AN, a reciprocal NMSE trial draws 21 complex
    normals (the rotated H_d and G's rows outside the estimate's span 8,
    the entry of the estimate's R above its diagonal 1, B = Q^H A 8, one
    per block of each receiver's error 4) and 6 gamma variates (R's
    diagonal 2, one per block 4); an echo one draws 47 complex normals
    (H_d and G 16, the round trip's W_0 8, the uplink estimate's error E'
    4, the entry of its Bartlett factor C below the diagonal of C^H 1, the
    rotated round-trip noise W' 8, A 8, the noise statistics 2) and 4
    gamma variates (C's diagonal 2, the noise statistics 2).  At 4x3x1,
    where C^H has entries below its diagonal in two rows, the echo trial
    draws 58 complex normals (16, 12, 9, 3, 12, 4 and 2) and 5 gamma
    variates.  An SER trial draws the channels in the physical frame, the
    reciprocal one 16 + 8 + 8 for H_d and G, the reverse noise and A, the
    echo one the 16 + 21 + 8 of its NMSE trial's channels, span and A and
    C's 2 gamma variates, the forward noise W and V in full (8 each) and
    each receiver's 3 filtered data-noise symbols, so 54 and 67 complex
    normals, and its 3 code symbols.  A change that quietly draws more, or
    draws another way, fails here."""
    counts = {}

    class Counting:
        def __init__(self, block, rng):
            self.block, self.rng = block, rng

        def standard_normal(self, size):
            counts[self.block][0] += int(np.prod(size))
            return self.rng.standard_normal(size)

        def standard_gamma(self, shape, size):
            counts[self.block][1] += int(np.prod(size))
            return self.rng.standard_gamma(shape, size=size)

        def integers(self, low, high, size):
            counts[self.block][2] += int(np.prod(size))
            return self.rng.integers(low, high, size=size)

    def counting(seed, block):
        assert block not in counts   # each substream is created once
        counts[block] = [0, 0, 0]
        return Counting(block, trial_rng(seed, block))

    monkeypatch.setattr(montecarlo, "trial_rng", counting)
    params = default_params(n_t=geometry[0], n_l=geometry[1], n_u=geometry[2])
    if experiment == "nmse":
        run_nmse_experiment(params, _informed_allocation(scheme), trials=600, seed=3)
    else:
        run_ser_experiment(params, 0.1, modulation=16, trials=600, seed=3,
                           scheme=scheme)
    normals, gammas, symbols = per_trial
    assert counts == {block: [2 * normals * n, gammas * n, symbols * n]
                      for block, n in enumerate((512, 88))}


def test_reciprocal_nmse_draws_no_channels_span_or_basis(defaults, monkeypatch):
    """A reciprocal NMSE run draws in the frame of the transmitter's
    estimate: with every pilot and AN it samples no channels, runs no
    reverse phase, and builds no span and no AN basis."""
    def refuse(*args):
        raise AssertionError("the physical frame was drawn")

    for module, name in ((montecarlo, "sample_channels"),
                         (montecarlo, "reverse_training"),
                         (montecarlo, "_estimate_span"),
                         (training, "null_space_basis")):
        monkeypatch.setattr(module, name, refuse)
    report = run_nmse_experiment(defaults, _informed_allocation(RECIPROCAL),
                                 trials=600, seed=1)
    assert 0 < report.empirical_lr < report.empirical_ur


def _ks_pvalue(a, b):
    """Two-sample Kolmogorov-Smirnov p-value by Kolmogorov's asymptotic
    series at sqrt(n m / (n + m)) D, within about 1% of scipy's ks_2samp
    for samples of 40,000 (whose import would cost a third of a second)."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    d = np.abs(np.searchsorted(a, grid, side="right") / len(a)
               - np.searchsorted(b, grid, side="right") / len(b)).max()
    lam = np.sqrt(len(a) * len(b) / (len(a) + len(b))) * d
    k = np.arange(1, 1001)
    return min(1.0, 2 * np.sum((-1.0) ** (k - 1) * np.exp(-2 * (k * lam) ** 2)))


def _full_noise_sq_err(params, channels, estimates):
    """Each receiver's mean squared entry error per trial, (2, T), of
    estimates whose forward noise was drawn entry by entry."""
    sq, n_l = np.abs(estimates - channels) ** 2, params.n_l
    return np.stack([sq[:, :n_l].sum(axis=(0, 1)) / (params.n_t * n_l),
                     sq[:, n_l:].sum(axis=(0, 1)) / (params.n_t * params.n_u)])


@pytest.mark.parametrize("geometry,alloc", [
    ((4, 2, 2), reciprocal_allocation(10.0, 40.0, var_a=0.2)),
    ((4, 2, 2), nonreciprocal_allocation(10.0, 10.0, 10.0, 40.0, var_a=0.2)),
    ((8, 4, 4), reciprocal_allocation(20.0, 80.0, var_a=0.2)),
    ((4, 2, 2), reciprocal_allocation(30.0, 3.0, var_a=0.3)),
    ((8, 4, 4), reciprocal_allocation(30.0, 3.0, var_a=0.3)),
    ((4, 1, 1), reciprocal_allocation(30.0, 3.0, var_a=0.3)),
    ((4, 2, 2), nonreciprocal_allocation(10.0, 10.0, 10.0, 40.0)),
], ids=["recip-4x2x2", "echo-4x2x2", "recip-8x4x4", "recip-weak-4x2x2",
        "recip-weak-8x4x4", "recip-weak-4x1x1", "echo-no-an-4x2x2"])
def test_noise_statistic_keeps_the_law_of_the_full_noise(geometry, alloc,
                                                         monkeypatch):
    """The NMSE score draws each block of a receiver's error as its mean
    plus one CN(0, 1) and one Gamma(K_b - 1) variate, and a reciprocal
    trial in the frame of the transmitter's estimate, the rows inside its
    span folded into their block's statistic; scoring
    ``forward_training``'s noisy statistics in the physical frame,
    channels, reverse noise, AN basis and every noise entry drawn, must
    give the same law.  Over 40,000 trials a side (independent seeds), each
    receiver's per-trial errors agree in mean and second moment within 4
    combined standard errors, and a two-sample KS test gives p > 1e-4
    (``_assert_same_law``).  Forward SNR 10 per entry makes the noise most
    of each error, so a wrong gamma shape, a wrong variance on z or a
    dropped imaginary part fails here.  The weak allocation (30, 3, 0.3),
    whose small shrink leaves most of the estimate's R and the rotated
    channels in the LR's error, is where a wrong law of R or of a block
    shows: R's scale off by 10%, its entries above the diagonal dropped or
    Gamma(n_t) on its whole diagonal, the top block's spread without the
    shrunk channel, Gamma(K_b) for Gamma(K_b - 1) or the bottom block's
    mean without the shrunk channel each fail here.  At 4x1x1 a top
    block holds one entry, and its gamma shape is 0.  The echo allocation
    without AN draws no span: its forward phase reads none."""
    params = default_params(n_t=geometry[0], n_l=geometry[1], n_u=geometry[2])
    trials = 40000
    got = _engine_outcomes(params, alloc, trials, monkeypatch)
    (gain_l, _), (gain_u, _) = forward_filters(params, alloc)

    def full_noise(rng, n):
        return _full_noise_sq_err(params, *montecarlo._estimation_round(
            params, alloc, rng, n, gain_l, gain_u, forward_training))

    _assert_same_law(got, montecarlo._run_blocks(full_noise, trials, 2,
                                                 block_trials(params)))


def _engine_outcomes(params, alloc, trials, monkeypatch):
    """The per-trial squared errors, (2, trials), of a reciprocal or echo
    ``run_nmse_experiment`` at seed 1, whose means it reports."""
    run_blocks, captured = montecarlo._run_blocks, []

    def capture(block_fn, n, seed, size):
        captured.append(run_blocks(block_fn, n, seed, size))
        return captured[-1]

    monkeypatch.setattr(montecarlo, "_run_blocks", capture)
    report = run_nmse_experiment(params, alloc, trials=trials, seed=1)
    monkeypatch.undo()
    got, = captured
    assert (report.empirical_lr, report.empirical_ur) == tuple(got.mean(axis=1))
    return got


def _assert_same_law(got, want):
    """Each receiver's per-trial errors in ``got`` and ``want``, (2, T) each
    from independent draws, agree in mean and second moment within 4
    combined standard errors, and a two-sample KS test gives p > 1e-4."""
    for engine, reference in zip(got, want):
        for x, y in ((engine, reference), (engine ** 2, reference ** 2)):
            se = np.sqrt((x.var(ddof=1) + y.var(ddof=1)) / len(x))
            assert abs(x.mean() - y.mean()) <= 4 * se, (x.mean(), y.mean(), se)
        assert _ks_pvalue(engine, reference) > 1e-4


def _corr_se(x, y, batches=40):
    """corr(x, y) and its standard error from the spread of the
    correlations of ``batches`` equal batches, which needs no normality."""
    per_batch = [np.corrcoef(a, b)[0, 1] for a, b in
                 zip(np.split(x, batches), np.split(y, batches))]
    return np.corrcoef(x, y)[0, 1], np.std(per_batch, ddof=1) / np.sqrt(batches)


def _assert_same_coupling(got, want):
    """The receivers' per-trial errors in ``got`` and ``want``, (2, T) each
    from independent draws, agree on corr(err_L, err_U) (standard errors
    from 40 batches) and on P(err_L >= err_U) (binomial, pooled) within 4
    combined standard errors."""
    (r_got, se_got), (r_want, se_want) = _corr_se(*got), _corr_se(*want)
    assert abs(r_got - r_want) <= 4 * np.hypot(se_got, se_want), (r_got, r_want)
    p_got, p_want = (np.mean(err_l >= err_u) for err_l, err_u in (got, want))
    pooled = (p_got + p_want) / 2
    assert abs(p_got - p_want) <= 4 * np.sqrt(pooled * (1 - pooled) * 2 / got.shape[1]), (
        p_got, p_want)


def _solved_reciprocal(**geometry):
    params = default_params(**geometry)
    return params, solve_reciprocal(params, 0.1).alloc


@pytest.mark.parametrize("instance", [
    _solved_reciprocal,
    lambda: _solved_reciprocal(n_t=8, n_l=4, n_u=3, tau_f=16, tau_r=8),
    lambda: (default_params(), reciprocal_allocation(30.0, 3.0, var_a=0.3)),
    lambda: (default_params(), reciprocal_allocation(0.0, 8.0, var_a=0.5)),
    lambda: (default_params(), reciprocal_allocation(3.0, 6.0)),
], ids=["solved-4x2x2", "solved-8x4x3-long-pilots", "weak", "uninformed", "no-an"])
def test_reciprocal_nmse_matches_the_literal_reference(instance, monkeypatch):
    """The reciprocal Monte Carlo against ``reference_sim``, which runs each
    training round literally (slot-domain pilots and noise, the
    transmitter's estimate, its AN basis from a complete QR, the receivers'
    LMMSE gains on C^H Y) and shares no stream, draw order or kernel with
    the engine: over 20,000 trials a side, each receiver's errors have the
    same law (``_assert_same_law``), and the pair the same coupling, which
    the one B = Q^H A both receivers read gives it
    (``_assert_same_coupling``).  The points: solved at gamma 0.1 and
    20 dB at 4x2x2 and at 8x4x3 with tau_f = 16 and tau_r = 8; the weak
    allocation (30, 3, 0.3), whose small forward energy leaves most of the
    transmitter's estimate in each receiver's error; a transmitter with no
    reverse energy that sends AN; and no AN."""
    params, alloc = instance()
    trials = 20000
    got = _engine_outcomes(params, alloc, trials, monkeypatch)
    want = simulate(params, alloc, trials, seed=2)
    _assert_same_law(got, want)
    _assert_same_coupling(got, want)


def _solved_echo(p_ave_db=20.0, **geometry):
    params = default_params(p_ave_db=p_ave_db, **geometry)
    return params, solve_allocation(params, 0.1, NON_RECIPROCAL)[0]


def _weak_uplink():
    params, alloc = _solved_echo()
    return params, dataclasses.replace(alloc, e_2=0.5)


def _solved_echo_4x3x1():
    return _solved_echo(30.0, n_l=3, n_u=1)


# the points whose SER the reference also checks: the block code needs
# n_t = 4, and each point costs about 0.5 s of tier-1
_SER_POINTS = (_solved_echo, _solved_echo_4x3x1)


@pytest.mark.parametrize("instance", [
    _solved_echo,
    _solved_echo_4x3x1,
    lambda: _solved_echo(n_t=8, n_l=4, n_u=4),
    _weak_uplink,
    lambda: (default_params(), nonreciprocal_allocation(4.0, 0.0, 2.0, 4.0, var_a=1.0)),
], ids=["solved-4x2x2", "solved-4x3x1-30dB", "solved-8x4x4", "weak-uplink",
        "uninformed"])
def test_echo_matches_the_literal_reference(instance, monkeypatch):
    """The echo Monte Carlo, which draws the transmitter's span in the
    frame of its reverse statistic (a Bartlett factor, the uplink
    estimate's error and the rotated round-trip noise), against
    ``reference_sim``, which runs the reverse phase, a Haar-probed round
    trip and the transmitter's LMMSE estimates literally and shares no
    stream, draw order or kernel with the engine.  Over 20,000 trials a
    side, each receiver's NMSE errors have the same law
    (``_assert_same_law``) and the pair the same coupling
    (``_assert_same_coupling``); at the solved 4x2x2 and 4x3x1 points each
    receiver's 4- and 16-QAM symbol-error rate agrees within 4 binomial
    standard errors.  The points: solved at
    gamma 0.1 and 20 dB at 4x2x2 and 8x4x4, and at 30 dB at 4x3x1, where
    the Bartlett factor has entries below its diagonal in two rows; the
    4x2x2 allocation with a weak uplink, e_2 = 0.5, whose estimate leaves
    most of K in its error E'; and a transmitter with AN but no echo
    energy, whose AN subspace is Haar-random."""
    params, alloc = instance()
    assert alloc.var_a > 0
    trials = 20000
    modulations = (4, 16) if instance in _SER_POINTS else ()
    want = simulate(params, alloc, trials, seed=2, modulations=modulations)
    got = _engine_outcomes(params, alloc, trials, monkeypatch)
    _assert_same_law(got, want[:2])
    _assert_same_coupling(got, want[:2])

    monkeypatch.setattr(montecarlo, "solve_allocation",
                        lambda *args: (alloc, 0.0, 0.0))
    symbols = CODE_SYMBOLS * trials
    for modulation, reference in zip(modulations, want[2:].reshape((-1, 2, trials))):
        report = run_ser_experiment(params, 0.1, modulation, trials=trials,
                                    seed=3, scheme=NON_RECIPROCAL)
        for ser, errors in zip((report.ser_lr, report.ser_ur), reference):
            ref = errors.sum() / symbols
            se = np.sqrt((ser * (1 - ser) + ref * (1 - ref)) / symbols)
            assert abs(ser - ref) <= 4 * se, (modulation, ser, ref, se)


@pytest.mark.parametrize("scheme", [RECIPROCAL, NON_RECIPROCAL])
def test_stack_rule(scheme, monkeypatch):
    """A block is as many multiples of 256 trials as keep its [H_d, G]
    within BLOCK_ENTRIES entries, at least 256: 512 at 4x2x2, 1024 at
    4x1x1, 2048 at 2x1x1, and 256 at 4x2x8, 8x4x4 and 32x16x16.  Seen from
    the blocks of 600-trial runs, NMSE and (where the block code's four
    antennas allow it) SER: each block function's trial count."""
    run_blocks, seen = montecarlo._run_blocks, []

    def spy(block_fn, trials, seed, size):
        def counted(rng, n):
            seen.append(n)
            return block_fn(rng, n)
        return run_blocks(counted, trials, seed, size)

    monkeypatch.setattr(montecarlo, "_run_blocks", spy)
    for (n_t, n_l, n_u), size in (((4, 2, 2), 512), ((4, 1, 1), 1024),
                                  ((2, 1, 1), 2048), ((4, 2, 8), 256),
                                  ((8, 4, 4), 256), ((32, 16, 16), 256)):
        params = default_params(n_t=n_t, n_l=n_l, n_u=n_u)
        assert block_trials(params) == size
        want = [600] if size > 600 else [size] * (600 // size) + [600 % size]
        seen.clear()
        run_nmse_experiment(params, _informed_allocation(scheme), trials=600, seed=1)
        assert seen == want, (n_t, n_l, n_u)
        if n_t == 4:
            seen.clear()
            run_ser_experiment(params, 0.1, modulation=16, trials=600, scheme=scheme)
            assert seen == want, (n_t, n_l, n_u)


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


def _span_and_estimate(params, alloc, trials, seed, monkeypatch):
    """Channels, the span ``_estimate_span`` hands the forward phase and the
    transmitter's LMMSE estimate (the reference estimators) from the same
    draws, which the span must make exactly.

    The echo span is drawn in the frame of the reverse statistic y_t, so
    here it is fed the physical draws that frame stands for: with
    y_t^H = U C (QR, C's diagonal positive) and the uplink estimate
    Hu_hat = a y_t, the round trip's W_0, the rotated uplink error
    E' = (H_u - Hu_hat) U, a C^H's entries below its diagonal,
    |a C_kk|^2 / sigma_sq_uplink for C's diagonal and W' = W_1 U.  It must
    then build alpha Y_L0 H_u U + W_1 U = y_t1 U, whose column space is
    that of y_t1 y_t^H."""
    rng = np.random.default_rng(seed)
    channels = training.sample_channels(params, alloc.scheme, rng, trials)
    n_t, n_l = params.n_t, params.n_l
    h_d = channels[:, :n_l]
    if alloc.scheme == RECIPROCAL:
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        span = montecarlo._estimate_span(params, alloc, h_d, rng)
        y_t = training.reverse_training(params, alloc, h_d, replay)
        assert rng.random() == replay.random()
        return channels, span, tx_estimate_reciprocal(y_t, params, alloc.e_r)

    h_u = complex_gaussian(rng, (trials, n_l, n_t), params.var_hu)
    y_t = (np.sqrt(alloc.e_2 / n_l) * h_u
           + complex_gaussian(rng, h_u.shape, params.var_wt))
    w_0 = complex_gaussian(rng, (trials, n_t, n_l), params.var_w)
    w_1 = complex_gaussian(rng, (trials, n_t, n_t), params.var_wt)
    alpha = echo_gain(params, alloc.e_0, alloc.e_1)
    y_t1 = (alpha * (np.sqrt(alloc.e_0 / n_t) * trials_first(h_d) + w_0) @ h_u
            + w_1)
    hu_hat = tx_estimate_uplink(trials_last(y_t), params, alloc.e_2)
    estimate = tx_estimate_downlink(trials_last(y_t1), hu_hat, params, alloc)

    q, r = np.linalg.qr(_hermitian(y_t))
    phase = np.diagonal(r, axis1=1, axis2=2) / np.abs(np.diagonal(r, axis1=1, axis2=2))
    u, c = q * phase[:, None, :], np.conj(phase)[:, :, None] * r
    a_c = lmmse_gain(params.var_hu, alloc.e_2, n_l, params.var_wt) * c
    c_var = sigma_sq_uplink(params, alloc.e_2)
    below = [np.conj(a_c[:, j, row]) for row in range(n_l) for j in range(row)]
    normals = [(trials_last(w_0), params.var_w),
               (trials_last((h_u - trials_first(hu_hat)) @ u),
                tx_error_var_uplink(params, alloc.e_2)),
               (np.reshape(below, (-1, trials)), c_var),
               (trials_last(w_1 @ u), params.var_wt)]
    gammas = [np.abs(np.diagonal(a_c, axis1=1, axis2=2).T) ** 2 / c_var]

    def fed_normal(rng, shape, var):
        value, want_var = normals.pop(0)
        assert value.shape == tuple(shape) and var == want_var
        return value.copy()

    def fed_gamma(rng, shape, dims):
        assert np.array_equal(np.ravel(shape), np.arange(n_t, n_t - n_l, -1))
        value = gammas.pop(0)
        assert value.shape == tuple(dims)
        return value.copy()

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "complex_gaussian", fed_normal)
        patch.setattr(montecarlo, "standard_gamma", fed_gamma)
        span = montecarlo._estimate_span(params, alloc, h_d, None)
    assert normals == [] and gammas == []
    np.testing.assert_allclose(trials_first(span), y_t1 @ u, rtol=1e-12,
                               atol=1e-12 * np.abs(y_t1).max())
    return channels, span, estimate


@pytest.mark.parametrize("scheme", [RECIPROCAL, NON_RECIPROCAL])
@pytest.mark.parametrize("n_t,n_l", [(4, 2), (8, 4), (16, 8)])
def test_span_gives_the_estimates_an(scheme, n_t, n_l, monkeypatch):
    """The span has the estimate's left null space: the AN bases N_span and
    N_est of each trial differ by a unitary U = N_span^H N_est (singular
    values 1 within 1e-12).  So A N_span^H = (A U) N_est^H, and the forward
    statistics from the span equal, trial by trial within 1e-12 relative,
    those from the estimate with its AN draw A replaced by A U.  U is fixed
    before A is drawn, so A U has the law of A.  The echo span is fed the
    physical draws its frame stands for (``_span_and_estimate``), so this
    checks the frame's algebra trial by trial; ``reference_sim`` checks its
    law."""
    params = default_params(n_t=n_t, n_l=n_l, n_u=n_l)
    alloc = _informed_allocation(scheme)
    trials = 64
    channels, span, estimate = _span_and_estimate(params, alloc, trials, n_t,
                                                  monkeypatch)
    eye = np.eye(n_t)
    u = (trials_first(null_space_basis(span, eye))
         @ _hermitian(trials_first(null_space_basis(estimate, eye))))
    np.testing.assert_allclose(np.linalg.svd(u, compute_uv=False), 1.0,
                               rtol=0, atol=1e-12)

    from_span = forward_training(params, alloc, span, channels,
                                 np.random.default_rng(7))
    draw, shapes = training.complex_gaussian, []

    def rotated(rng, shape, var=1.0):   # the phase's first draw is its AN
        shapes.append(shape)
        x = draw(rng, shape, var)
        return trials_last(trials_first(x) @ u) if len(shapes) == 1 else x

    monkeypatch.setattr(training, "complex_gaussian", rotated)
    from_estimate = forward_training(params, alloc, estimate, channels,
                                     np.random.default_rng(7))
    assert shapes[0] == (n_t, n_t - n_l, trials)
    for got, want in zip(from_span, from_estimate):
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


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


def test_reciprocal_lr_reads_its_closed_form_at_the_power_ceiling():
    """At MAX_POWER_DB on all three power keys the reciprocal LR's empirical
    NMSE lies within 4 half-widths of its closed form (2,000 trials).  The
    ceiling is set by the echo scheme's AN basis, whose rounding leak the
    reciprocal NMSE, drawn without a basis, does not have."""
    params = default_params(MAX_POWER_DB, MAX_POWER_DB, MAX_POWER_DB)
    alloc, _, _ = solve_allocation(params, 0.1, RECIPROCAL)
    r = run_nmse_experiment(params, alloc, trials=2000, seed=3)
    assert abs(r.empirical_lr - r.analytic_lr) <= 4 * r.half_width_95_lr


def _at_power_db(db):
    params = default_params(db, db, db)
    return params, solve_allocation(params, 0.1, RECIPROCAL)[0]


@pytest.mark.parametrize("instance,trials", [
    (lambda: (default_params(var_h=1e300), reciprocal_allocation(10.0, 10.0, 1.0)), 2560),
    (lambda: (default_params(var_h=1e40), reciprocal_allocation(10.0, 10.0, 1.0)), 2560),
    (lambda: _at_power_db(350.0), 2048),
], ids=["var_h-1e300", "var_h-1e40", "power-350dB"])
def test_reciprocal_nmse_has_no_rounding_floor(instance, trials):
    """A library caller far beyond the CLI's range reads the closed forms:
    at var_h = 1e300 and 1e40 with the allocation (10, 10, 1) (2,560
    trials; closed form 0.56), and with all three power keys at 350 dB,
    solved at gamma 0.1 (2,048 trials; LR closed form 1.22e-35), both
    receivers' NMSEs lie within 4 standard errors of their closed forms,
    and no RuntimeWarning is raised.  No AN basis is computed and the
    shrink 1 - g s is never formed as a difference, so neither rounds to a
    floor."""
    params, alloc = instance()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = run_nmse_experiment(params, alloc, trials=trials, seed=1)
    se = 1.0 / 1.959963984540054
    assert abs(r.empirical_lr - r.analytic_lr) <= 4 * se * r.half_width_95_lr, r
    assert abs(r.empirical_ur - r.analytic_ur) <= 4 * se * r.half_width_95_ur, r


def test_nonreciprocal_empirical_tracks_surrogate(defaults):
    """Solved echo-scheme allocation: Monte Carlo within 15% of the
    approximation (it is a surrogate, not an exact moment)."""
    alloc, nmse_l, _ = solve_allocation(defaults, 0.1, NON_RECIPROCAL)
    report = run_nmse_experiment(defaults, alloc, trials=10000)
    assert report.analytic_lr == pytest.approx(nmse_l)
    assert report.empirical_lr == pytest.approx(report.analytic_lr, rel=0.15)


# ---------------------------------------------------------------------------
# solve + sweep
# ---------------------------------------------------------------------------

def test_solve_allocation_schemes(defaults):
    alloc_r, l_r, u_r = solve_allocation(defaults, 0.1, RECIPROCAL)
    assert alloc_r.scheme == RECIPROCAL
    assert u_r == pytest.approx(0.1, rel=1e-9)
    alloc_n, l_n, u_n = solve_allocation(defaults, 0.1, NON_RECIPROCAL)
    assert alloc_n.scheme == NON_RECIPROCAL
    assert u_n >= 0.1 * (1 - 1e-6)
    assert 0.0 < l_r < 1.0 and 0.0 < l_n < 1.0
    with pytest.raises(ValueError):
        solve_allocation(defaults, 0.1, "fdd")
    with pytest.raises(InfeasibleGamma):
        solve_allocation(defaults, 2.0, RECIPROCAL)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(scheme=st.sampled_from(SCHEMES), p_ave_db=st.floats(0.0, 40.0),
       n_t=st.integers(2, 6), data=st.data())
def test_every_solved_allocation_runs_clean(scheme, p_ave_db, n_t, data):
    """Whatever allocation either solver returns, at any geometry and any
    log-uniform floor inside ``gamma_bounds``, runs through the Monte-Carlo
    trial path without a NonFiniteOutcome, its LR error lies in (0, prior], its UR
    error meets the floor and it meets the average, transmitter and LR
    budgets (1e-8 relative for the echo scheme, 1e-9 for the reciprocal
    one).  The Monte Carlo reports exactly the errors the solve printed, so
    it scores the filters whose errors the allocator optimized.  Only an
    infeasible floor and an unconverged condensation may stop a solve."""
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
    assert report.analytic_lr == nmse_l and report.analytic_ur == nmse_u
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
    block's stream where its replay left it."""
    captured = {}

    def capture(block_fn, trials, seed, size):
        captured["block_fn"] = block_fn
        return np.zeros((2, trials), dtype=int)

    monkeypatch.setattr(montecarlo, "_run_blocks", capture)
    run_ser_experiment(defaults, 0.1, modulation=64, trials=40, scheme=scheme)
    n = 296
    rng, replay = trial_rng(8, 0), trial_rng(8, 0)
    errors = captured["block_fn"](rng, n)

    alloc, _, _ = solve_allocation(defaults, 0.1, scheme)
    (gain_l, _), (gain_u, _) = forward_filters(defaults, alloc)
    pts = qam_constellation(64)
    scale = block_scale(defaults.p_ave)
    n_l = defaults.n_l
    channels, estimates = montecarlo._estimation_round(
        defaults, alloc, replay, n, gain_l, gain_u, forward_training)
    sent = replay.integers(0, 64, size=(CODE_SYMBOLS, n))
    noise = [complex_gaussian(replay, (CODE_SYMBOLS, n), var)
             for var in (defaults.var_w, defaults.var_v)]
    want = np.stack([np.count_nonzero(decode_block(
        encode_block(pts[sent], channels[:, cols], scale),
        estimates[:, cols], scale, 64, w) != sent, axis=0)
        for cols, w in ((slice(None, n_l), noise[0]),
                        (slice(n_l, None), noise[1]))])
    np.testing.assert_array_equal(errors, want)
    assert errors[1].sum() > 0   # the comparison sees decoding errors
    assert rng.random() == replay.random()


@pytest.mark.parametrize("scheme,p_ave_db,gamma", [
    (RECIPROCAL, 20.0, 0.1), (NON_RECIPROCAL, 20.0, 0.1), (RECIPROCAL, 0.0, 0.01),
], ids=["reciprocal", "non-reciprocal", "reciprocal-no-an"])
def test_ser_matches_block_domain_reference(scheme, p_ave_db, gamma):
    """The filter-domain noise draw against the block-domain data phase
    (per-slot noise on every slot and antenna, the dispersion-map matched
    filter, an exhaustive nearest-point search) on the same channels and
    estimates: each receiver's SER agrees within 4 binomial standard errors
    of the difference, the reference in blocks of 256 trials.  At 0 dB and
    gamma 0.01 the reciprocal solve sends neither reverse pilots nor AN,
    (e_r, e_f, var_a) = (0, 6, 0), so the forward phase reads no span."""
    defaults = default_params(p_ave_db=p_ave_db)
    trials, seed = 3000, 21
    report = run_ser_experiment(defaults, gamma, modulation=64, trials=trials,
                                seed=seed, scheme=scheme)
    alloc, _, _ = solve_allocation(defaults, gamma, scheme)
    assert (alloc.var_a == 0) == (p_ave_db == 0.0)
    (gain_l, _), (gain_u, _) = forward_filters(defaults, alloc)
    scale = block_scale(defaults.p_ave)

    def reference_block(rng, n):
        channels, estimates = montecarlo._estimation_round(
            defaults, alloc, rng, n, gain_l, gain_u, forward_training)
        n_l = defaults.n_l
        return block_domain_errors(
            rng, defaults, 64, scale, trials_first(channels[:, :n_l]),
            trials_first(channels[:, n_l:]), trials_first(estimates[:, :n_l]),
            trials_first(estimates[:, n_l:])).T

    errors = montecarlo._run_blocks(reference_block, trials, seed, 256)
    symbols = CODE_SYMBOLS * trials
    for got, ref_errors in ((report.ser_lr, errors[0]),
                            (report.ser_ur, errors[1])):
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
