r"""Monte-Carlo experiments: empirical NMSE and SER.

Trials run in blocks of BLOCK_TRIALS stacked (trials, rows, cols) arrays,
and every block draws from its own substream ``trial_rng(seed, block)``, so
results are bit-identical for a given (seed, trials) however the blocks are
spread over workers.  The transmitter's downlink estimate is never
formed: the AN needs only its column space, which a matrix built from what
the transmitter received spans exactly (``_estimate_span``).  That span
loses rank with probability about 1e-40 per trial (Edelman 1988); a loss
that does occur (an underflow, a corrupt input) would recur on a redraw, so
it raises RankDeficient at once.

The SER data phase draws what the decoder reads.  The block code is
orthogonal, so its matched filter's real map F for an estimate h_hat has
F F^T = ||h_hat||_F^2 I_6: white slot noise reaches the filter as three
i.i.d. CN(0, var ||h_hat||_F^2) symbols, and each receiver draws those
(3 per trial) instead of 4 M slot values (``ostbc.decode_block``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .alloc_reciprocal import solve_reciprocal
from .errors import (InfeasibleGamma, NotConverged, RankDeficient,
                     UnsupportedGeometry)
from .estimators import (lr_estimate_nonreciprocal, lr_estimate_reciprocal,
                         ur_estimate)
from .gp import condense
from .nmse import (JENSEN_VARIANTS, nmse_l_nonreciprocal_approx,
                   nmse_l_reciprocal, nmse_u)
from .ostbc import (CODE_SYMBOLS, SUPPORTED_QAM, block_scale, decode_block,
                    encode_block, qam_constellation)
from .params import NON_RECIPROCAL, RECIPROCAL, PowerAllocation, SystemParams
from .rng import complex_gaussian, trial_rng
from .training import (forward_training, reverse_training, round_trip_training,
                       sample_channels)

MIN_NMSE_TRIALS = 100  # fewer gives meaningless confidence bounds
DESK_NMSE_TRIALS = 1000
DESK_SER_TRIALS = 5000
# Trials per block: large enough that numpy's per-call overhead is spread
# thin, small enough that a block's arrays stay within a few hundred kB.
# A 2,000-trial operation at the solved default reciprocal point (2-core
# x86_64 VM, best of 12, 6 processes) takes 6.6-10.9 ms at 256, 5.6-9.2 at
# 512 (0.81-0.91x of 256 paired in one process), 6.7-10.5 at 1024-2000.
# Each block has its own substream; changing it moves every stochastic result.
BLOCK_TRIALS = 256


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


def _per_entry_sq_err(estimate: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Mean squared entry error of each trial of a stack: each trial's
    error, read as one row of real and imaginary parts, dotted with itself."""
    d = np.subtract(estimate, truth, order="C").reshape(estimate.shape[0], -1)
    parts = d.view(np.float64)
    return np.einsum("ij,ij->i", parts, parts) / d.shape[1]


def _estimate_span(params: SystemParams, alloc: PowerAllocation,
                   h_d, h_u, rng) -> Optional[np.ndarray]:
    """(T, n_t, n_l) matrices whose left null spaces carry the AN, or None
    without AN, when the forward phase reads none.

    AN goes into the left null space of the transmitter's downlink
    estimate, and a null space depends only on the column space, so each
    matrix spans what the estimate spans without being the estimate:
    - reciprocal: y_t^T, of which the estimate is a positive multiple;
    - echo: y_t1 y_t^H.  The LMMSE estimate is k y_t1 y_t^H G^{-1} with
      k > 0 and G = Hu_hat Hu_hat^H + beta I positive definite, so it
      has the same column space.
    The basis ``null_space_basis`` takes from the span is then N U for a
    unitary U fixed by the draws made so far, and the AN A it multiplies is
    drawn afterwards, i.i.d. CN(0, var_a), so A U^H has the law of A:
    every output keeps its joint law with the channels.

    A transmitter that holds no downlink information (reciprocal e_r = 0;
    echo e_0, e_1 or e_2 = 0) has an estimate that is identically zero,
    with no null space, so AN goes into the null space of an independent
    CN(0, 1) draw instead: a Haar-random subspace, which is the model the
    closed forms assume.  The branch is decided from the allocation alone.
    """
    if alloc.var_a == 0:
        return None
    informed = (alloc.e_r > 0 if alloc.scheme == RECIPROCAL
                else alloc.e_0 > 0 and alloc.e_1 > 0 and alloc.e_2 > 0)
    if not informed:
        return complex_gaussian(rng, (h_d.shape[0], params.n_t, params.n_l), 1.0)
    y_t = reverse_training(params, alloc, h_u, rng)
    if alloc.scheme == RECIPROCAL:
        return np.swapaxes(y_t, -1, -2)
    y_t1 = round_trip_training(params, alloc, h_d, h_u, rng)
    return y_t1 @ np.conj(np.swapaxes(y_t, -1, -2))


def _estimation_round(params: SystemParams, alloc: PowerAllocation, rng,
                      trials: int, jensen_variant: str):
    """One full training round for a stack of trials: (h_d, g, lr, ur)."""
    h_d, h_u, g = sample_channels(params, alloc.scheme, rng, trials)
    span = _estimate_span(params, alloc, h_d, h_u, rng)
    y_l, y_u = forward_training(params, alloc, span, h_d, g, rng)
    if alloc.scheme == RECIPROCAL:
        lr = lr_estimate_reciprocal(y_l, params, alloc)
    else:
        lr = lr_estimate_nonreciprocal(y_l, params, alloc, jensen_variant)
    ur = ur_estimate(y_u, params, alloc)
    return h_d, g, lr, ur


def _run_blocks(block_fn: Callable, trials: int, seed: int) -> np.ndarray:
    """The (trials, k) outcomes of ``block_fn(rng, n)``, which runs n trials,
    over ``trials`` trials; a RankDeficient names its block and run index."""
    outcomes = []
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        try:
            outcomes.append(block_fn(trial_rng(seed, block),
                                     min(BLOCK_TRIALS, trials - start)))
        except RankDeficient as exc:
            trial = start + exc.trial
            raise RankDeficient(f"trial {trial} (block {block}): {exc}", trial) from exc
    return np.concatenate(outcomes)


def run_nmse_experiment(params: SystemParams, alloc: PowerAllocation,
                        trials: int = DESK_NMSE_TRIALS, seed: int = 0,
                        jensen_variant: str = JENSEN_VARIANTS[0]) -> NmseReport:
    """Empirical channel-estimation NMSE at both receivers.

    The LR and UR run their production filters against freshly drawn
    channels, noise, and AN; squared errors are averaged per entry.  The
    95% half-widths use the per-trial sample standard deviation.
    """
    if trials < MIN_NMSE_TRIALS:
        raise ValueError(f"fewer than {MIN_NMSE_TRIALS} trials gives "
                         "meaningless confidence bounds")
    if alloc.scheme == RECIPROCAL:
        analytic_lr = nmse_l_reciprocal(params, alloc.e_r, alloc.e_f, alloc.var_a)
        analytic_ur = nmse_u(params, alloc.e_f, alloc.var_a)
    else:
        analytic_lr = nmse_l_nonreciprocal_approx(params, alloc, jensen_variant)
        analytic_ur = nmse_u(params, alloc.e_3, alloc.var_a)

    def one_block(rng, n):
        h_d, g, lr_est, ur_est = _estimation_round(params, alloc, rng, n,
                                                   jensen_variant)
        return np.stack([_per_entry_sq_err(lr_est, h_d),
                         _per_entry_sq_err(ur_est, g)], axis=1)

    sq = _run_blocks(one_block, trials, seed)
    sq_l, sq_u = sq[:, 0], sq[:, 1]

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
    estimates as if they were the truth.  An allocation that meets the
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
    if (alloc.e_f if scheme == RECIPROCAL else alloc.e_3) == 0.0:
        raise InfeasibleGamma(
            f"gamma={gamma} is met with no forward pilots, so neither receiver "
            "has a channel estimate to decode with")
    constellation = qam_constellation(modulation)
    scale = block_scale(params.p_ave)

    def one_block(rng, n):
        h_d, g, lr_est, ur_est = _estimation_round(params, alloc, rng, n,
                                                   jensen_variant)
        sent = rng.integers(0, modulation, size=(CODE_SYMBOLS, n))
        # one encode against [h_d, g] side by side, rows (antenna, M, trial)
        received = encode_block(constellation[sent], np.concatenate(
            [h_d, g], axis=-1).transpose(1, 2, 0), scale)
        noise_lr = complex_gaussian(rng, (CODE_SYMBOLS, n), params.var_w)
        noise_ur = complex_gaussian(rng, (CODE_SYMBOLS, n), params.var_v)
        errors = [np.count_nonzero(
            decode_block(received[:, cols], est.transpose(1, 2, 0), scale,
                         modulation, noise) != sent, axis=0)
            for cols, est, noise in ((slice(None, params.n_l), lr_est, noise_lr),
                                     (slice(params.n_l, None), ur_est, noise_ur))]
        return np.stack(errors, axis=1)

    errors = _run_blocks(one_block, trials, seed)
    err_lr, err_ur = (int(x) for x in errors.sum(axis=0))
    n_symbols = CODE_SYMBOLS * trials
    return SerReport(
        ser_lr=err_lr / n_symbols,
        ser_ur=err_ur / n_symbols,
        trials=trials,
    )
