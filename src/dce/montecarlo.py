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

In the physical frame, which the echo NMSE and every SER run draw, the
transmitter's downlink estimate is never formed: the AN needs only its
column space, which a matrix built from what the transmitter received spans
exactly (``_estimate_span``).  The AN basis nulls that span whatever its
rank, so no trial is checked for rank.  What can fail is the arithmetic (an
overflow at absurd energies, a corrupt input), and that would recur on a
redraw, so the first non-finite outcome stops the run with
NonFiniteOutcome, before any later stack is drawn (``_run_blocks``).

A reciprocal NMSE trial is drawn in the frame of the transmitter's
estimate instead (``_reciprocal_stack``), with the same law:
- the split: the reverse statistic y_t^T = c H_d + Z', c = sqrt(e_r/n_l),
  is jointly Gaussian with H_d, so H_d = H_hat + E with H_hat its LMMSE
  estimate, i.i.d. CN(0, var_h - tx_err) entries, and E i.i.d.
  CN(0, tx_err), tx_err = var_h var_wt / (c^2 var_h + var_wt), independent
  of y_t;
- the rotation: let H_hat = Q [R; 0] be its complete QR, Q = [U, N].  N is
  the AN basis, so receiver R's noiseless error g_R (s H_R + A N^H H_R) -
  H_R has the Frobenius norm of -(1 - g_R s) Q^H H_R + g_R B (Q^H H_R)[n_l:]
  with B = Q^H A, and Q^H H_d = [R; 0] + Q^H E;
- the law of R: complex Bartlett (Goodman, Ann. Math. Stat. 1963; Edelman
  & Rao, Acta Numerica 2005), |R_kk|^2 ~ (var_h - tx_err) Gamma(n_t - k)
  for k = 0 ... n_l - 1 and R_kj ~ CN(0, var_h - tx_err) above the
  diagonal, all independent;
- independence: E, G and A are independent of y_t, hence of Q, so Q^H E,
  Q^H G and B are i.i.d. CN with their variances and independent of R.
The trial draws R, [Q^H E, Q^H G] and B: at 4x2x2 with AN, 27 complex
normals (16, 1 above R's diagonal, 8 for B, the two noise statistics' 2)
and 4 gamma variates (R's diagonal 2, the noise statistics 2), against 34
and 2 in the physical frame, and no channel, reverse noise or Householder
pass.  Both receivers read the one B, so their errors keep their joint
law.  A transmitter with no reverse energy holds no estimate: R is 0,
tx_err = var_h, and the frame is any one independent of the channels, the
Haar-random AN subspace the closed forms assume.  The shrink 1 - g_R s is
taken as error_R / prior_R from ``forward_filters``, never as a difference,
and each variance enters as a standard deviation times what multiplies
it, so the error does not round to a floor however large var_h or the
energies get.  The frame is exact for the squared error only: the block
code is not rotation invariant, so SER stays in the physical frame.  It
costs trust: the engine re-derives the closed form's own LMMSE split,
so it checks the algebra and the code, not the physical model, and
``tests/reference_sim.py``, which runs each training round literally, is
the reciprocal scheme's only end-to-end physical check.

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
                   nmse_u, tx_error_var_reciprocal)
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


def _per_entry_sq_err(params: SystemParams, errors: np.ndarray,
                      spread: np.ndarray, rng) -> np.ndarray:
    """Each receiver's mean squared entry error per trial, (2, T), from its
    noiseless errors X_R side by side, (n_t, n_l + n_u, T) with the LR's
    first, once its filtered noise, i.i.d. CN(0, spread_R^2) entries, is
    added.

    ``errors`` is overwritten in place, its real and imaginary parts
    (interleaved on the trial axis) squared and summed over the rows, then
    over the receiver's columns, into ||X_R||^2; the noise is drawn as its
    statistic (one CN(0, 1) z_R and one Gamma(K_R - 1) variate per trial and
    receiver, in that order; see the module docstring).
    """
    parts = errors.view(np.float64)
    np.multiply(parts, parts, out=parts)
    by_col, n_l = np.add.reduce(parts, axis=0), params.n_l
    sq = np.stack([np.add.reduce(by_col[:n_l]), np.add.reduce(by_col[n_l:])])
    entries, draws = params.n_t * np.array([[n_l], [params.n_u]]), sq[:, 0::2].shape
    along = np.sqrt(sq[:, 0::2] + sq[:, 1::2]) + spread * complex_gaussian(rng, draws)
    across = standard_gamma(rng, entries - 1, draws)
    return (along.real ** 2 + along.imag ** 2 + spread ** 2 * across) / entries


def _reciprocal_stack(params: SystemParams, alloc: PowerAllocation,
                      gains: Tuple[float, float], shrinks: Tuple[float, float],
                      spread: np.ndarray) -> Callable:
    """The stack function of a reciprocal NMSE run, which draws each trial
    in the frame Q of the complete QR of the transmitter's estimate (see
    the module docstring): each receiver's g_R and shrink 1 - g_R s in
    ``gains`` and ``shrinks``, the LR's first, give its noiseless error
    Q^H X_R = -(1 - g_R s) Q^H H_R + g_R B (Q^H H_R)[n_l:], and
    ``_per_entry_sq_err`` adds its noise.

    One CN(0, 1) draw holds the rotated channels [Q^H H_d, Q^H G], the
    entries of the estimate's R above its diagonal, row by row, and
    B = Q^H A; a gamma draw gives R's diagonal.  Every variance enters as a
    standard deviation times what multiplies it, so no factor as small as
    the LR's shrink at a huge var_h is squared.
    """
    n_t, n_l, cols = params.n_t, params.n_l, params.n_l + params.n_u
    tx_err = tx_error_var_reciprocal(params, alloc.e_r)
    std = np.sqrt([tx_err, params.var_g])
    by_col = np.repeat(np.arange(2), (n_l, params.n_u))[:, None]
    rot_scale = -(np.multiply(shrinks, std))[by_col]
    tail_scale = (np.multiply(gains, std) * np.sqrt(alloc.var_a))[by_col]
    # the std of the estimate's entries, var_h - tx_err written without
    # that difference's cancellation, times the LR's shrink
    r_scale = shrinks[0] * np.sqrt(
        params.var_h * (alloc.e_r / n_l / params.var_wt * tx_err))
    n_rot = n_t * cols
    n_above = n_l * (n_l - 1) // 2 if alloc.e_r > 0 else 0
    n_b = n_t * (n_t - n_l) if alloc.var_a > 0 else 0
    bartlett = np.arange(n_t, n_t - n_l, -1)[:, None]

    def one_stack(streams, n):
        draw = complex_gaussian(streams, (n_rot + n_above + n_b, n))
        rot = draw[:n_rot].reshape(n_t, cols, n)
        errors = rot * rot_scale
        if alloc.e_r > 0:
            above = r_scale * draw[n_rot:n_rot + n_above]
            diag = r_scale * np.sqrt(standard_gamma(streams, bartlett, (n_l, n)))
            first = 0
            for k in range(n_l):
                errors[k, k] -= diag[k]
                errors[k, k + 1:n_l] -= above[first:first + n_l - 1 - k]
                first += n_l - 1 - k
        if alloc.var_a > 0:
            b = draw[n_rot + n_above:].reshape(n_t, n_t - n_l, n)
            _product(b, rot[n_l:] * tail_scale, errors)
        return _per_entry_sq_err(params, errors, spread, streams)

    return one_stack


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

    if alloc.scheme == RECIPROCAL:
        # the shrink 1 - g s as error / prior, which does not cancel as g s
        # nears 1
        one_stack = _reciprocal_stack(
            params, alloc, (gain_l, gain_u),
            (analytic_lr / params.var_h, analytic_ur / params.var_g), spread)
    else:
        def one_stack(streams, n):
            channels, errors = _estimation_round(params, alloc, streams, n, gain_l,
                                                 gain_u, _forward_signal)
            errors -= channels
            return _per_entry_sq_err(params, errors, spread, streams)

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
