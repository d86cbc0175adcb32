r"""Monte-Carlo experiments: empirical NMSE and SER.

A block of ``block_trials(params)`` trials is the unit of drawing,
computing and sharding: block b of a run draws from its own substream
``trial_rng(seed, b)`` alone, so results are bit-identical for a given
(seed, trials) however the blocks are spread over workers.  Each phase runs
once per block on (rows, cols, trials) arrays from the draw to the scoring,
as in ``dce.training`` and ``dce.ostbc``, and a trial's outcome is computed
from its own draws alone.

In the physical frame, which the echo NMSE and every SER run draw, the
transmitter's downlink estimate is never formed: the AN needs only its
column space, which a matrix drawn from what the transmitter reads spans
exactly (``_estimate_span``).  The AN basis nulls that span whatever its
rank, so no trial is checked for rank.  What can fail is the arithmetic (an
overflow at absurd energies, a corrupt input), and that would recur on a
redraw, so the first non-finite outcome stops the run with
NonFiniteOutcome, before any later block is drawn (``_run_blocks``).

The echo transmitter's span is drawn in the frame of its reverse statistic
y_t = sqrt(e_2/n_l) H_u + W_r, with the literal round trip's law.  Its
estimate spans what y_t1 y_t^H spans, y_t1 = alpha Y_L0 H_u + W_1 and
Y_L0 = sqrt(e_0/n_t) H_d + W_0.  With y_t^H = U C its QR (C's diagonal
positive, so C is invertible), that is the span of alpha Y_L0 K + W',
K = H_u U and W' = W_1 U.  The uplink's LMMSE split H_u = a y_t + E (a its
gain, E i.i.d. CN(0, tx_error_var_uplink) and independent of y_t) gives
K = a C^H + E U, where a C is complex Bartlett like R below, of variance
``nmse.sigma_sq_uplink``.  U is Haar and independent of C, so E' = E U and
W' are i.i.d. CN(0, tx_error_var_uplink) and CN(0, var_wt), independent of
C and of all else.  Only the transmitter's draws move, so the SER reads
this span too.  A trial draws W_0, E', C and W' and forms one
n_t x n_l x n_l product, in place of H_u, the reverse noise, the
n_t x n_t W_1 and an n_t x n_t x n_l product.  It costs trust: the engine
runs neither the reverse phase nor the round trip, and its split is the
closed forms' own, so ``tests/reference_sim.py``, which runs both
literally, is the echo scheme's only end-to-end check of the physics.

A reciprocal NMSE trial is drawn in the frame of the transmitter's
estimate instead (``_reciprocal_block``), with the same law:
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
So the top n_l rows of Q^H E and Q^H G, inside the estimate's span, are
i.i.d. Gaussian and independent of everything else the trial reads, and
through the shrink they only add to the receiver's noise.  Each receiver's
error is scored as two blocks of rows, each its mean plus i.i.d. Gaussian
entries (the noise statistic, below), and the blocks are summed:
- top, the n_l rows in the span: mean -(1 - g_L s) R (LR only) +
  g_R B[:n_l] P_R, where P_R = (Q^H H_R)[n_l:] are the rows outside it, and
  Gaussian part CN(0, (1 - g_R s)^2 eps_R + g_R^2 sigma_R^2), eps_L =
  tx_err and eps_U = var_g;
- bottom, the n_t - n_l rows outside it: mean (g_R B[n_l:] - (1 - g_R s) I)
  P_R, and Gaussian part CN(0, g_R^2 sigma_R^2).
The trial draws R, P = (Q^H [E, G])[n_l:] and B: at 4x2x2 with AN, 21
complex normals (8 for P, 1 above R's diagonal, 8 for B, one per block 4)
and 6 gamma variates (R's diagonal 2, one per block 4), against 34 and 2 in
the physical frame, and no channel, reverse noise or Householder pass.
Both receivers read the one B, so their errors keep their joint law.  A
transmitter with no reverse energy holds no estimate: R is 0,
tx_err = var_h, and the frame is any one independent of the channels, the
Haar-random AN subspace the closed forms assume.  The shrink 1 - g_R s is
taken as error_R / prior_R from ``forward_filters``, never as a difference,
the top block's spread is a hypot of standard deviations, and each
variance enters as a standard deviation times what multiplies it, so the
error does not round to a floor however large var_h or the energies get.
The frame is exact for the squared error only: the block code is not
rotation invariant, so SER stays in the physical frame.  It costs trust:
the engine re-derives the closed form's own LMMSE split, so it checks the
algebra and the code, not the physical model, and
``tests/reference_sim.py``, which runs each training round literally, is
the reciprocal scheme's only end-to-end physical check.

The SER data phase draws what the decoder reads.  The block code is
orthogonal, so its matched filter's real map F for an estimate h_hat has
F F^T = ||h_hat||_F^2 I_6: white slot noise reaches the filter as three
i.i.d. CN(0, var ||h_hat||_F^2) symbols, and each receiver draws those
(3 per trial) instead of 4 M slot values (``ostbc.decode_block``).

The NMSE score draws what the squared error reads.  A block of K
entries of a receiver's error, the whole error X_R + g_R W_R in the echo
scheme and each of the two blocks above in the reciprocal one, is its mean
mu, independent of the rest, plus i.i.d. CN(0, sd^2) entries: in the echo
scheme mu = X_R = g_R S_R - H_R for its noiseless forward statistic S_R
(``training._forward_signal``), and the entries are g_R W_R, the filtered
noise, sd = g_R sigma_R.  For any unitary U whose first row is
mu^H / ||mu||, U times the entries has their law, so the block's squared
norm has the law of | ||mu|| + sd z |^2 + sd^2 Y with z ~ CN(0, 1) and
Y ~ Gamma(K - 1, 1), the noncentral chi-square split (Johnson, Kotz &
Balakrishnan, Continuous Univariate Distributions vol. 2, ch. 29): each
block draws one complex normal and one gamma variate per trial instead of
K complex normals (``_per_entry_sq_err``), the echo NMSE one block per
receiver.  The blocks' Gaussian parts are independent, so each trial's
pair of errors keeps its joint law.  The SER decoders read the noisy
statistics, so the SER path draws that noise in full
(``training.forward_training``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .alloc_reciprocal import solve_reciprocal
from .errors import (InfeasibleGamma, NonFiniteOutcome, NotConverged,
                     UnsupportedGeometry)
from .gp import condense
from .nmse import (echo_gain, forward_filters, nmse_l_nonreciprocal_approx,
                   nmse_u, sigma_sq_uplink, tx_error_var_reciprocal,
                   tx_error_var_uplink)
from .ostbc import (CODE_SYMBOLS, SUPPORTED_QAM, block_scale, decode_block,
                    encode_block, qam_constellation)
from .params import NON_RECIPROCAL, RECIPROCAL, PowerAllocation, SystemParams
from .rng import complex_gaussian, standard_gamma, trial_rng
from .training import (_forward_signal, _product, forward_training,
                       reverse_training, sample_channels)

MIN_NMSE_TRIALS = 100  # fewer gives meaningless confidence bounds
DESK_NMSE_TRIALS = 1000
DESK_SER_TRIALS = 5000
# A block, the unit of drawing and computing, is a multiple of 256 trials:
# as many as keep its [H_d, G] array within BLOCK_ENTRIES complex entries
# (128 KiB), at least 256 (``block_trials``).  Larger arrays pay numpy's
# per-call overhead less often until they leave the cache: at 4x2x2, 512
# trials computed at once against 256 gave 1.14-1.19x on nmse-recip and
# 1.10-1.15x on ser-echo, and 768, 1024 or 2048 0.96-1.08x (perfbench
# work_per_s, 2-core x86_64 VM, BENCH_42.json); 1024-trial blocks read
# 0.88-0.91x of 512 (BENCH_48.json).  In one process 512 trials took 1.13x
# the time of 256 at 8x4 and 1.18x at 16x8.  Each block has its own
# substream, so changing the rule moves every stochastic result at a
# geometry whose block size it changes.
BLOCK_ENTRIES = 8192


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


def _block_entries(params: SystemParams, top: int = 0) -> np.ndarray:
    """K_b, the entries of each block of the receivers' errors, (blocks, 1),
    in the order of ``_per_entry_sq_err``: each receiver's whole error, or
    with ``top`` its rows [:top], the LR's then the UR's, then its rows
    [top:]."""
    n_cols = np.array([[params.n_l], [params.n_u]])
    rows = (top, params.n_t - top) if top else (params.n_t,)
    return np.concatenate([r * n_cols for r in rows])


def _per_entry_sq_err(params: SystemParams, errors: np.ndarray,
                      spread: np.ndarray, z: np.ndarray, across: np.ndarray,
                      entries: np.ndarray, top: int = 0) -> np.ndarray:
    """Each receiver's mean squared entry error per trial, (2, T), from the
    means mu_b of its error's blocks side by side, (n_t, n_l + n_u, T) with
    the LR's columns first, once each block's i.i.d. CN(0, spread_b^2)
    part is added.

    The blocks are those of ``_block_entries``: without ``top`` each
    receiver's error is one, and with it its rows [:top] and [top:] are
    two.  ``spread``, (blocks, 1), gives each block's spread, and each
    block's Gaussian part enters as its statistic (see the module
    docstring): ``z``, (blocks, T), CN(0, 1), and ``across``, (blocks, T),
    Gamma(K_b - 1, 1).  ``errors`` is overwritten in place, its real and
    imaginary parts (interleaved on the trial axis) squared and summed over
    each block's rows, then over its receiver's columns, into ||mu_b||^2,
    and a receiver's blocks are summed and divided by ``entries``, its
    entry count ``_block_entries(params)``.
    """
    parts = errors.view(np.float64)
    np.multiply(parts, parts, out=parts)
    n_l = params.n_l
    groups = (parts[:top], parts[top:]) if top else (parts,)
    sq = []
    for group in groups:
        by_col = np.add.reduce(group, axis=0)
        sq += [np.add.reduce(by_col[:n_l]), np.add.reduce(by_col[n_l:])]
    sq = np.stack(sq)
    along = np.sqrt(sq[:, 0::2] + sq[:, 1::2]) + spread * z
    by_block = along.real ** 2 + along.imag ** 2 + spread ** 2 * across
    per_receiver = np.add.reduce(by_block.reshape((len(groups), 2, -1)))
    return per_receiver / entries


def _reciprocal_block(params: SystemParams, alloc: PowerAllocation,
                      gains: Tuple[float, float], shrinks: Tuple[float, float],
                      spread: np.ndarray) -> Callable:
    """The block function of a reciprocal NMSE run, which draws each trial
    in the frame Q of the complete QR of the transmitter's estimate (see
    the module docstring).  Each receiver's g_R, shrink 1 - g_R s and noise
    spread g_R sigma_R in ``gains``, ``shrinks`` and ``spread``, the LR's
    first, give the two blocks of its error Q^H X_R + g_R Q^H W_R, which
    ``_per_entry_sq_err`` scores:
    - the top n_l rows, inside the estimate's span: mean
      -(1 - g_L s) R (LR only) + g_R B[:n_l] P_R, and an i.i.d. Gaussian
      part of spread hypot((1 - g_R s) sqrt(eps_R), g_R sigma_R), where
      eps_L = tx_err and eps_U = var_g;
    - the bottom n_t - n_l rows: mean (g_R B[n_l:] - (1 - g_R s) I) P_R,
      and the spread g_R sigma_R.

    One CN(0, 1) draw holds the out-of-span rows P = (Q^H [E, G])[n_l:],
    the entries of the estimate's R above its diagonal, row by row,
    B = Q^H A and each block's z; one gamma draw holds R's diagonal and
    each block's Gamma(K_b - 1).  Every variance enters as a standard
    deviation times what multiplies it, and none as a difference, so no
    factor as small as the LR's shrink at a huge var_h is squared.
    """
    n_t, n_l, cols = params.n_t, params.n_l, params.n_l + params.n_u
    tx_err = tx_error_var_reciprocal(params, alloc.e_r)
    std = np.sqrt([tx_err, params.var_g])
    by_col = np.repeat(np.arange(2), (n_l, params.n_u))[:, None]
    shrunk = np.multiply(shrinks, std)
    rot_scale = -shrunk[by_col]
    tail_scale = (np.multiply(gains, std) * np.sqrt(alloc.var_a))[by_col]
    # the top blocks' Gaussian part: Q^H E or Q^H G through the shrink, and
    # the receiver's noise
    spreads = np.concatenate([np.hypot(shrunk[:, None], spread), spread])
    # the std of the estimate's entries, var_h - tx_err written without
    # that difference's cancellation, times the LR's shrink
    r_scale = shrinks[0] * np.sqrt(
        params.var_h * (alloc.e_r / n_l / params.var_wt * tx_err))
    n_out = (n_t - n_l) * cols
    n_above = n_l * (n_l - 1) // 2 if alloc.e_r > 0 else 0
    n_b = n_t * (n_t - n_l) if alloc.var_a > 0 else 0
    n_mean, n_blocks = n_out + n_above + n_b, len(spreads)
    shapes = _block_entries(params, n_l) - 1
    if alloc.e_r > 0:
        shapes = np.concatenate([np.arange(n_t, n_t - n_l, -1)[:, None], shapes])
    entries = _block_entries(params)

    def one_block(rng, n):
        draw = complex_gaussian(rng, (n_mean + n_blocks, n))
        gammas = standard_gamma(rng, shapes, (len(shapes), n))
        out = draw[:n_out].reshape(n_t - n_l, cols, n)
        errors = np.zeros((n_t, cols, n), dtype=complex)
        np.multiply(out, rot_scale, out=errors[n_l:])
        if alloc.var_a > 0:
            b = draw[n_out + n_above:n_mean].reshape(n_t, n_t - n_l, n)
            _product(b, out * tail_scale, errors)
        if alloc.e_r > 0:
            above = r_scale * draw[n_out:n_out + n_above]
            diag = r_scale * np.sqrt(gammas[:n_l])
            first = 0
            for k in range(n_l):
                errors[k, k] -= diag[k]
                errors[k, k + 1:n_l] -= above[first:first + n_l - 1 - k]
                first += n_l - 1 - k
        return _per_entry_sq_err(params, errors, spreads, draw[n_mean:],
                                 gammas[-n_blocks:], entries, top=n_l)

    return one_block


def _estimate_span(params: SystemParams, alloc: PowerAllocation,
                   h_d, rng) -> Optional[np.ndarray]:
    """(n_t, n_l, T) matrices whose left null spaces carry the AN, or None
    without AN, when the forward phase reads none.

    AN goes into the left null space of the transmitter's downlink
    estimate, and a null space depends only on the column space, so each
    matrix spans what the estimate spans without being the estimate:
    - reciprocal: y_t^T, of which the estimate is a positive multiple;
    - echo: alpha Y_L0 K + W' (see the module docstring), which spans what
      y_t1 y_t^H spans, and so the LMMSE estimate k y_t1 y_t^H G^{-1} with
      k > 0 and G = Hu_hat Hu_hat^H + beta I positive definite.
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
    if alloc.scheme == RECIPROCAL:
        return reverse_training(params, alloc, h_d, rng).swapaxes(0, 1)
    n_t, n_l, trials = h_d.shape
    # alpha Y_L0 = alpha (sqrt(e_0/n_t) H_d + W_0), the LR's echo
    y_l0 = complex_gaussian(rng, h_d.shape, params.var_w)
    y_l0 += np.sqrt(alloc.e_0 / n_t) * h_d
    y_l0 *= echo_gain(params, alloc.e_0, alloc.e_1)
    # K = E' + a C^H, whose entries below the diagonal come row by row
    k = complex_gaussian(rng, (n_l, n_l, trials),
                         tx_error_var_uplink(params, alloc.e_2))
    c_var = sigma_sq_uplink(params, alloc.e_2)
    below = complex_gaussian(rng, (n_l * (n_l - 1) // 2, trials), c_var)
    diag = np.sqrt(c_var * standard_gamma(
        rng, np.arange(n_t, n_t - n_l, -1)[:, None], (n_l, trials)))
    for row in range(n_l):
        k[row, :row] += below[row * (row - 1) // 2:row * (row + 1) // 2]
        k[row, row] += diag[row]
    return _product(y_l0, k, complex_gaussian(rng, h_d.shape, params.var_wt))


def _estimation_round(params: SystemParams, alloc: PowerAllocation, rng,
                      trials: int, gain_l: float, gain_u: float,
                      forward: Callable):
    """One full training round for a block of trials: (channels, estimates),
    both (n_t, n_l + n_u, T) with the LR's columns first, each estimate its
    ``forward`` statistic times that receiver's ``forward_filters`` gain:
    the noisy one of ``forward_training``, or without the receivers' noise
    that of ``training._forward_signal``."""
    n_l = params.n_l
    channels = sample_channels(params, alloc.scheme, rng, trials)
    span = _estimate_span(params, alloc, channels[:, :n_l], rng)
    estimates = forward(params, alloc, span, channels, rng)
    estimates[:, :n_l] *= gain_l
    estimates[:, n_l:] *= gain_u
    return channels, estimates


def block_trials(params: SystemParams) -> int:
    """Trials per block: as many multiples of 256 as keep a block's [H_d, G]
    within BLOCK_ENTRIES entries, at least 256."""
    per_256 = 256 * params.n_t * (params.n_l + params.n_u)
    return 256 * max(1, BLOCK_ENTRIES // per_256)


def _run_blocks(block_fn: Callable, trials: int, seed: int,
                size: int) -> np.ndarray:
    """The (k, trials) outcomes of ``block_fn(rng, n)``, which runs the n
    trials of a block drawn from ``rng`` and returns their (k, n) outcomes,
    over ``trials`` trials in blocks of ``size``, block b drawn from
    ``trial_rng(seed, b)``.  The first non-finite outcome raises
    NonFiniteOutcome naming its trial, by run index, and its block, before
    any later block is drawn."""
    outcomes = []
    for block, first in enumerate(range(0, trials, size)):
        out = block_fn(trial_rng(seed, block), min(size, trials - first))
        finite = np.isfinite(out).all(axis=0)
        if not finite.all():
            trial = int(np.argmin(finite))
            raise NonFiniteOutcome(
                f"trial {first + trial} (block {block}) gave "
                f"{out[:, trial].tolist()}", first + trial)
        outcomes.append(out)
    return np.concatenate(outcomes, axis=1)


def run_nmse_experiment(params: SystemParams, alloc: PowerAllocation,
                        trials: int = DESK_NMSE_TRIALS, seed: int = 0) -> NmseReport:
    """Empirical channel-estimation NMSE at both receivers.

    The LR and UR apply the gains of ``forward_filters`` against freshly
    drawn channels, noise, and AN; squared errors are averaged per entry.
    The analytic columns are the errors of those same filters (for the echo
    LR, the paper's Jensen surrogate).  The 95% half-widths use the
    per-trial sample standard deviation.
    """
    if trials < MIN_NMSE_TRIALS:
        raise ValueError(f"fewer than {MIN_NMSE_TRIALS} trials gives "
                         "meaningless confidence bounds")
    (gain_l, analytic_lr), (gain_u, analytic_ur) = forward_filters(params, alloc)
    spread = np.array([[gain_l * np.sqrt(params.var_w)],
                       [gain_u * np.sqrt(params.var_v)]])

    if alloc.scheme == RECIPROCAL:
        # the shrink 1 - g s as error / prior, which does not cancel as g s
        # nears 1
        one_block = _reciprocal_block(
            params, alloc, (gain_l, gain_u),
            (analytic_lr / params.var_h, analytic_ur / params.var_g), spread)
    else:
        entries = _block_entries(params)
        shapes = entries - 1

        def one_block(rng, n):
            channels, errors = _estimation_round(params, alloc, rng, n, gain_l,
                                                 gain_u, _forward_signal)
            errors -= channels
            z = complex_gaussian(rng, (2, n))
            return _per_entry_sq_err(params, errors, spread, z,
                                     standard_gamma(rng, shapes, (2, n)), entries)

    sq_l, sq_u = _run_blocks(one_block, trials, seed, block_trials(params))

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


def solve_allocation(params: SystemParams, gamma: float, scheme: str
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
                nmse_l_nonreciprocal_approx(params, sol.alloc),
                nmse_u(params, sol.alloc.e_3, sol.alloc.var_a))
    raise ValueError(f"unknown scheme {scheme!r}")


def run_ser_experiment(params: SystemParams, gamma: float, modulation: int,
                       trials: int = DESK_SER_TRIALS, seed: int = 0,
                       scheme: str = RECIPROCAL) -> SerReport:
    """Data-phase symbol error rates when both receivers decode one block of
    the four-antenna rate-3/4 orthogonal code using their own channel
    estimates as if they were the truth, the gains of ``forward_filters``.
    An allocation that meets the floor with no forward pilot energy leaves
    nothing to decode with and raises InfeasibleGamma before any trial."""
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
    (gain_l, _), (gain_u, _) = forward_filters(params, alloc)
    constellation = qam_constellation(modulation)
    scale, n_l = block_scale(params.p_ave), params.n_l

    def one_block(rng, n):
        channels, estimates = _estimation_round(params, alloc, rng, n,
                                                gain_l, gain_u, forward_training)
        sent = rng.integers(0, modulation, size=(CODE_SYMBOLS, n))
        # one encode against [h_d, g] side by side
        received = encode_block(constellation[sent], channels, scale)
        noise = [complex_gaussian(rng, (CODE_SYMBOLS, n), var)
                 for var in (params.var_w, params.var_v)]
        return np.stack([np.count_nonzero(
            decode_block(received[:, cols], estimates[:, cols], scale,
                         modulation, w) != sent, axis=0)
            for cols, w in zip((slice(n_l), slice(n_l, None)), noise)])

    errors = _run_blocks(one_block, trials, seed, block_trials(params))
    err_lr, err_ur = (int(x) for x in errors.sum(axis=1))
    n_symbols = CODE_SYMBOLS * trials
    return SerReport(
        ser_lr=err_lr / n_symbols,
        ser_ur=err_ur / n_symbols,
        trials=trials,
    )
