r"""Monte-Carlo experiments: empirical NMSE and SER.

A block of BLOCK_TRIALS trials is what is drawn and sharded: every block
draws from its own substream ``trial_rng(seed, block)``, so results are
bit-identical for a given (seed, trials) however the blocks are spread
over workers.  A stack, ``stack_blocks`` consecutive whole blocks side by
side on the trial axis, is what is computed: each phase runs once per stack
on (rows, cols, trials) arrays from the draw to the scoring, as in
``dce.training`` and ``dce.ostbc``, and each draw fills each block's slice
of the trial axis from that block's substream (``rng.BlockStreams``).  A
trial's outcome is computed from its own draws alone, so a stack's outcomes
are its blocks' run one by one, byte for byte.

The transmitter's downlink estimate is never formed: the AN needs only its
column space, which a matrix built from what the transmitter received spans
exactly (``_estimate_span``).  The AN basis nulls that span whatever its
rank, so no trial is checked for rank.  What can fail is the arithmetic (an
overflow at absurd energies, a corrupt input), and that would recur on a
redraw, so the first non-finite outcome stops the run with
NonFiniteOutcome, before any later stack is drawn (``_run_blocks``).

The SER data phase draws what the decoder reads.  The block code is
orthogonal, so its matched filter's real map F for an estimate h_hat has
F F^T = ||h_hat||_F^2 I_6: white slot noise reaches the filter as three
i.i.d. CN(0, var ||h_hat||_F^2) symbols, and each receiver draws those
(3 per trial) instead of 4 M slot values (``ostbc.decode_block``).

The NMSE score draws what the squared error reads.  Receiver R's error is
||X_R + g_R W_R||^2, where X_R = g_R S_R - H_R for its noiseless forward
statistic S_R (``training._forward_signal``) and its K_R = n_t n_R noise
entries W_R are i.i.d. CN(0, sigma_R^2), independent of X_R.  For any
unitary U whose first row is X_R^H / ||X_R||, U W_R has the law of W_R, so
the error has the law of | ||X_R|| + g_R sigma_R z |^2 + (g_R sigma_R)^2 Y
with z ~ CN(0, 1) and Y ~ Gamma(K_R - 1, 1), the noncentral chi-square
split (Johnson, Kotz & Balakrishnan, Continuous Univariate Distributions
vol. 2, ch. 29): each receiver draws one complex normal and one gamma
variate per trial instead of K_R complex normals (``_per_entry_sq_err``).
W_L and W_U are independent, so each trial's pair of errors keeps its
joint law.  The SER decoders read the noisy statistics, so the SER path
draws that noise in full (``training.forward_training``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .alloc_reciprocal import solve_reciprocal
from .errors import (InfeasibleGamma, NonFiniteOutcome, NotConverged,
                     UnsupportedGeometry)
from .gp import condense
from .nmse import (JENSEN_VARIANTS, forward_filters, nmse_l_nonreciprocal_approx,
                   nmse_u)
from .ostbc import (CODE_SYMBOLS, SUPPORTED_QAM, block_scale, decode_block,
                    encode_block, qam_constellation)
from .params import NON_RECIPROCAL, RECIPROCAL, PowerAllocation, SystemParams
from .rng import (BlockStreams, complex_gaussian, integers, standard_gamma,
                  trial_rng)
from .training import (_forward_signal, _product, forward_training,
                       reverse_training, round_trip_training, sample_channels)

MIN_NMSE_TRIALS = 100  # fewer gives meaningless confidence bounds
DESK_NMSE_TRIALS = 1000
DESK_SER_TRIALS = 5000
# Trials per block, the unit of drawing: each block has its own substream,
# so changing it moves every stochastic result.  512 against 256, paired in
# one process at the solved gamma 0.1 reciprocal point (2-core x86_64 VM,
# median of 7-9 rounds): 0.85x the time at 4x2, 1.13x at 8x4, 1.18x at
# 16x8, 1.06x at 32x16.  Stacks take the 4x2 gain without moving a draw.
BLOCK_TRIALS = 256
# A stack, the unit of computing, holds as many whole blocks as keep its
# [H_d, G] array within STACK_ENTRIES complex entries (128 KiB), at least
# one: 2 at 4x2x2, 1 from 4x2x8 and 8x4x4 up.  At 4x2x2, against one block
# (perfbench work_per_s, 2-core x86_64 VM, three rounds): 2 blocks give
# 1.14-1.19x on nmse-recip and 1.10-1.15x on ser-echo; 3, 4 or 8 blocks
# give 0.96-1.08x.
STACK_ENTRIES = 8192


@dataclass(frozen=True)
class NmseReport:
    analytic_lr: float
    analytic_ur: float
    empirical_lr: float
    empirical_ur: float
    half_width_95_lr: float
    half_width_95_ur: float
    trials: int
    resampled_trials: int = 0  # no trial is redrawn; perfbench's nmse-recip reads it


@dataclass(frozen=True)
class SerReport:
    ser_lr: float
    ser_ur: float
    trials: int


def _per_entry_sq_err(params: SystemParams, channels: np.ndarray,
                      estimates: np.ndarray, spread: np.ndarray,
                      rng) -> np.ndarray:
    """Each receiver's mean squared entry error per trial, (2, T), of the
    noiseless estimates (n_t, n_l + n_u, T) of [H_d, G] once each
    receiver's filtered noise, i.i.d. CN(0, spread_R^2) entries, is added.

    The noiseless error X_R is overwritten in place, its real and imaginary
    parts (interleaved on the trial axis) squared and summed over the rows,
    then over the receiver's columns, into ||X_R||^2; the noise is drawn
    as its statistic (one CN(0, 1) z_R and one Gamma(K_R - 1) variate per
    trial and receiver, in that order; see the module docstring).
    """
    parts = np.subtract(estimates, channels, out=estimates).view(np.float64)
    np.multiply(parts, parts, out=parts)
    by_col, n_l = np.add.reduce(parts, axis=0), params.n_l
    sq = np.stack([np.add.reduce(by_col[:n_l]), np.add.reduce(by_col[n_l:])])
    entries, draws = params.n_t * np.array([[n_l], [params.n_u]]), sq[:, 0::2].shape
    along = np.sqrt(sq[:, 0::2] + sq[:, 1::2]) + spread * complex_gaussian(rng, draws)
    across = standard_gamma(rng, entries - 1, draws)
    return (along.real ** 2 + along.imag ** 2 + spread ** 2 * across) / entries


def _estimate_span(params: SystemParams, alloc: PowerAllocation,
                   h_d, h_u, rng) -> Optional[np.ndarray]:
    """(n_t, n_l, T) matrices whose left null spaces carry the AN, or None
    without AN, when the forward phase reads none.

    AN goes into the left null space of the transmitter's downlink
    estimate, and a null space depends only on the column space, so each
    matrix spans what the estimate spans without being the estimate:
    - reciprocal: y_t^T, of which the estimate is a positive multiple;
    - echo: y_t1 y_t^H (``training._product``).  The LMMSE estimate is
      k y_t1 y_t^H G^{-1} with k > 0 and G = Hu_hat Hu_hat^H + beta I
      positive definite, so it has the same column space.
    The basis ``null_space_basis`` takes from the span is then N U for a
    unitary U fixed by the draws made so far, and the AN A it multiplies is
    drawn afterwards, i.i.d. CN(0, var_a), so A U^H has the law of A:
    every output keeps its joint law with the channels.

    A transmitter that holds no downlink information (reciprocal e_r = 0;
    echo e_0, e_1 or e_2 = 0) has an estimate that is identically zero,
    whose null space is all of C^n_t and picks no subspace.  The closed
    forms model that transmitter's AN subspace as Haar-random, independent
    of the channels, so AN goes into the null space of an independent
    CN(0, 1) draw.  The branch is decided from the allocation alone.
    """
    if alloc.var_a == 0:
        return None
    informed = (alloc.e_r > 0 if alloc.scheme == RECIPROCAL
                else alloc.e_0 > 0 and alloc.e_1 > 0 and alloc.e_2 > 0)
    if not informed:
        return complex_gaussian(rng, h_d.shape, 1.0)
    y_t = reverse_training(params, alloc, h_u, rng)
    if alloc.scheme == RECIPROCAL:
        return y_t.swapaxes(0, 1)
    y_t1 = round_trip_training(params, alloc, h_d, h_u, rng)
    return _product(y_t1, np.conj(y_t).swapaxes(0, 1))


def _estimation_round(params: SystemParams, alloc: PowerAllocation, rng,
                      trials: int, gain_l: float, gain_u: float,
                      forward: Callable):
    """One full training round for a stack of trials: (channels, estimates),
    both (n_t, n_l + n_u, T) with the LR's columns first, each estimate its
    ``forward`` statistic times that receiver's ``forward_filters`` gain:
    the noisy one of ``forward_training``, or without the receivers' noise
    that of ``training._forward_signal``."""
    n_l = params.n_l
    channels, h_u = sample_channels(params, alloc.scheme, rng, trials)
    span = _estimate_span(params, alloc, channels[:, :n_l], h_u, rng)
    estimates = forward(params, alloc, span, channels, rng)
    estimates[:, :n_l] *= gain_l
    estimates[:, n_l:] *= gain_u
    return channels, estimates


def stack_blocks(params: SystemParams) -> int:
    """Blocks per stack: as many whole blocks as keep a stack's [H_d, G]
    within STACK_ENTRIES entries, at least one."""
    per_block = BLOCK_TRIALS * params.n_t * (params.n_l + params.n_u)
    return max(1, STACK_ENTRIES // per_block)


def _run_blocks(stack_fn: Callable, trials: int, seed: int,
                blocks_per_stack: int) -> np.ndarray:
    """The (k, trials) outcomes of ``stack_fn(streams, n)``, which runs the
    n trials of a stack drawn from ``streams`` (``rng.BlockStreams``) and
    returns their (k, n) outcomes, over ``trials`` trials in stacks of
    ``blocks_per_stack`` blocks.  The first non-finite outcome raises
    NonFiniteOutcome naming its trial, by run index, and its block, before
    any later stack is drawn."""
    outcomes, blocks = [], -(-trials // BLOCK_TRIALS)
    for first in range(0, blocks, blocks_per_stack):
        stack = range(first, min(first + blocks_per_stack, blocks))
        sizes = tuple(min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS) for b in stack)
        streams = BlockStreams(tuple(trial_rng(seed, b) for b in stack), sizes)
        out = stack_fn(streams, sum(sizes))
        finite = np.isfinite(out).all(axis=0)
        if not finite.all():
            trial = int(np.argmin(finite))
            run_trial = first * BLOCK_TRIALS + trial
            raise NonFiniteOutcome(
                f"trial {run_trial} (block {run_trial // BLOCK_TRIALS}) gave "
                f"{out[:, trial].tolist()}", run_trial)
        outcomes.append(out)
    return np.concatenate(outcomes, axis=1)


def run_nmse_experiment(params: SystemParams, alloc: PowerAllocation,
                        trials: int = DESK_NMSE_TRIALS, seed: int = 0,
                        jensen_variant: str = JENSEN_VARIANTS[0]) -> NmseReport:
    """Empirical channel-estimation NMSE at both receivers.

    The LR and UR apply the gains of ``forward_filters`` against freshly
    drawn channels, noise, and AN; squared errors are averaged per entry.
    The analytic columns are the errors of those same filters (the echo
    LR's under ``jensen_variant``).  The 95% half-widths use the per-trial
    sample standard deviation.
    """
    if trials < MIN_NMSE_TRIALS:
        raise ValueError(f"fewer than {MIN_NMSE_TRIALS} trials gives "
                         "meaningless confidence bounds")
    (gain_l, analytic_lr), (gain_u, analytic_ur) = forward_filters(
        params, alloc, jensen_variant)
    spread = np.array([[gain_l * np.sqrt(params.var_w)],
                       [gain_u * np.sqrt(params.var_v)]])

    def one_stack(streams, n):
        return _per_entry_sq_err(params, *_estimation_round(
            params, alloc, streams, n, gain_l, gain_u, _forward_signal),
            spread, streams)

    sq_l, sq_u = _run_blocks(one_stack, trials, seed, stack_blocks(params))

    z95 = 1.959963984540054
    return NmseReport(
        analytic_lr=analytic_lr,
        analytic_ur=analytic_ur,
        empirical_lr=float(sq_l.mean()),
        empirical_ur=float(sq_u.mean()),
        half_width_95_lr=float(z95 * sq_l.std(ddof=1) / np.sqrt(trials)),
        half_width_95_ur=float(z95 * sq_u.std(ddof=1) / np.sqrt(trials)),
        trials=trials,
    )


def solve_allocation(params: SystemParams, gamma: float, scheme: str,
                     jensen_variant: str = JENSEN_VARIANTS[0],
                     ) -> Tuple[PowerAllocation, float, float]:
    """Solve the scheme's allocation problem; returns (alloc, nmse_l, nmse_u).

    An echo-scheme solve whose condensation stopped at CONDENSE_MAX_ROUNDS
    without meeting its stopping rule raises NotConverged.
    """
    if scheme == RECIPROCAL:
        sol = solve_reciprocal(params, gamma)
        return (sol.alloc, sol.objective,
                nmse_u(params, sol.alloc.e_f, sol.alloc.var_a))
    if scheme == NON_RECIPROCAL:
        sol = condense(params, gamma)
        if not sol.trace.converged:
            raise NotConverged(
                f"condensation stopped after {len(sol.trace.steps)} rounds "
                "without converging")
        return (sol.alloc,
                nmse_l_nonreciprocal_approx(params, sol.alloc, jensen_variant),
                nmse_u(params, sol.alloc.e_3, sol.alloc.var_a))
    raise ValueError(f"unknown scheme {scheme!r}")


def run_ser_experiment(params: SystemParams, gamma: float, modulation: int,
                       trials: int = DESK_SER_TRIALS, seed: int = 0,
                       scheme: str = RECIPROCAL,
                       jensen_variant: str = JENSEN_VARIANTS[0]) -> SerReport:
    """Data-phase symbol error rates when both receivers decode one block of
    the four-antenna rate-3/4 orthogonal code using their own channel
    estimates as if they were the truth, the gains of ``forward_filters``
    (the echo LR's under ``jensen_variant``).  An allocation that meets the
    floor with no forward pilot energy leaves nothing to decode with and
    raises InfeasibleGamma before any trial."""
    if modulation not in SUPPORTED_QAM:
        raise ValueError(f"modulation must be one of {SUPPORTED_QAM}")
    if trials < 1:
        raise ValueError("an SER experiment needs at least one trial")
    if params.n_t != 4:
        raise UnsupportedGeometry(
            f"the block code needs exactly 4 transmit antennas, got {params.n_t}")
    alloc, _, _ = solve_allocation(params, gamma, scheme)
    if alloc.forward == 0.0:
        raise InfeasibleGamma(
            f"gamma={gamma} is met with no forward pilots, so neither receiver "
            "has a channel estimate to decode with")
    (gain_l, _), (gain_u, _) = forward_filters(params, alloc, jensen_variant)
    constellation = qam_constellation(modulation)
    scale, n_l = block_scale(params.p_ave), params.n_l

    def one_stack(streams, n):
        channels, estimates = _estimation_round(params, alloc, streams, n,
                                                gain_l, gain_u, forward_training)
        sent = integers(streams, modulation, (CODE_SYMBOLS, n))
        # one encode against [h_d, g] side by side
        received = encode_block(constellation[sent], channels, scale)
        noise = [complex_gaussian(streams, (CODE_SYMBOLS, n), var)
                 for var in (params.var_w, params.var_v)]
        return np.stack([np.count_nonzero(
            decode_block(received[:, cols], estimates[:, cols], scale,
                         modulation, w) != sent, axis=0)
            for cols, w in zip((slice(n_l), slice(n_l, None)), noise)])

    errors = _run_blocks(one_stack, trials, seed, stack_blocks(params))
    err_lr, err_ur = (int(x) for x in errors.sum(axis=1))
    n_symbols = CODE_SYMBOLS * trials
    return SerReport(
        ser_lr=err_lr / n_symbols,
        ser_ur=err_ur / n_symbols,
        trials=trials,
    )
