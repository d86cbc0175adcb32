r"""Monte-Carlo experiments: empirical NMSE/SER and the spectral-surrogate
oracle.

Every experiment derives one RNG substream per trial from (seed, trial), so
results are bit-identical for a given seed regardless of batching.  Trials
that draw a numerically degenerate channel estimate (rank-deficient null
space, singular regressor) are redrawn from a fresh substream of the same
trial and counted in ``resampled_trials``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .alloc_reciprocal import AllocProblem, solve_reciprocal
from .errors import RankDeficient, SingularRegressor, UnsupportedGeometry
from .estimators import (lr_estimate_nonreciprocal, lr_estimate_reciprocal,
                         tx_estimate_downlink, tx_estimate_reciprocal,
                         tx_estimate_uplink, ur_estimate)
from .gp import condense
from .nmse import (downlink_beta, jensen_factor, nmse_l_nonreciprocal_approx,
                   nmse_l_reciprocal, nmse_u_nonreciprocal, nmse_u_reciprocal,
                   sigma_sq_uplink)
from .ostbc import (SUPPORTED_QAM, block_scale, decode_block, encode_block,
                    qam_constellation)
from .params import (NON_RECIPROCAL, RECIPROCAL, PowerAllocation, SystemParams,
                     db_to_linear)
from .rng import complex_gaussian, trial_rng
from .training import (forward_training, reverse_training, round_trip_training,
                       sample_channels)

MAX_RESAMPLES = 8
MIN_NMSE_TRIALS = 100  # fewer gives meaningless confidence bounds
DESK_SER_TRIALS = 5000
FULL_SER_TRIALS = 50000


@dataclass(frozen=True)
class NmseReport:
    analytic_lr: float
    analytic_ur: float
    empirical_lr: float
    empirical_ur: float
    half_width_95_lr: float
    half_width_95_ur: float
    trials: int
    resampled_trials: int


@dataclass(frozen=True)
class SerReport:
    ser_lr: float
    ser_ur: float
    trials: int
    modulation: int
    code: str


def _per_entry_sq_err(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sum(np.abs(estimate - truth) ** 2)) / truth.size


def _transmitter_side_estimate(params: SystemParams, alloc: PowerAllocation,
                               channels, rng) -> np.ndarray:
    """The n_t x n_l downlink estimate the transmitter nulls AN against."""
    rev = reverse_training(params, alloc, channels, rng)
    if alloc.scheme == RECIPROCAL:
        return tx_estimate_reciprocal(rev.received["tx"], params, alloc.e_r).estimate
    hu_hat = tx_estimate_uplink(rev.received["tx"], params, alloc.e_2)
    if alloc.e_1 <= 0:
        # no echo energy: the transmitter has no downlink information at all
        return np.zeros((params.n_t, params.n_l), dtype=complex)
    echo = round_trip_training(params, alloc, channels, rng)
    return tx_estimate_downlink(echo.received["tx"], echo.transmit,
                                hu_hat, params, alloc).estimate


def _estimation_round(params: SystemParams, alloc: PowerAllocation, rng,
                      jensen_variant: str):
    """One full training round; returns (channels, lr_estimate, ur_estimate)."""
    channels = sample_channels(params, alloc.scheme, rng)
    tx_est = _transmitter_side_estimate(params, alloc, channels, rng)
    fwd = forward_training(params, alloc, tx_est, channels, rng)
    if alloc.scheme == RECIPROCAL:
        lr = lr_estimate_reciprocal(fwd.received["lr"], params, alloc)
    else:
        lr = lr_estimate_nonreciprocal(fwd.received["lr"], params, alloc,
                                       jensen_variant)
    ur = ur_estimate(fwd.received["ur"], params, alloc)
    return channels, lr.estimate, ur.estimate


def _with_resampling(fn, seed: int, trial: int) -> Tuple[object, int]:
    for stream in range(MAX_RESAMPLES + 1):
        try:
            return fn(trial_rng(seed, trial, stream)), stream
        except (RankDeficient, SingularRegressor):
            continue
    raise RankDeficient(
        f"trial {trial} stayed degenerate after {MAX_RESAMPLES} redraws")


def run_nmse_experiment(params: SystemParams, alloc: PowerAllocation,
                        trials: int = 1000, seed: int = 0,
                        jensen_variant: str = "printed") -> NmseReport:
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
        analytic_ur = nmse_u_reciprocal(params, alloc.e_f, alloc.var_a)
    else:
        analytic_lr = nmse_l_nonreciprocal_approx(params, alloc, jensen_variant)
        analytic_ur = nmse_u_nonreciprocal(params, alloc.e_3, alloc.var_a)

    sq_l = np.empty(trials)
    sq_u = np.empty(trials)
    resampled = 0

    def one(rng):
        channels, lr_est, ur_est = _estimation_round(params, alloc, rng,
                                                     jensen_variant)
        return (_per_entry_sq_err(lr_est, channels.h_d),
                _per_entry_sq_err(ur_est, channels.g))

    for k in range(trials):
        (sq_l[k], sq_u[k]), stream = _with_resampling(one, seed, k)
        resampled += int(stream > 0)

    z95 = 1.959963984540054
    return NmseReport(
        analytic_lr=analytic_lr,
        analytic_ur=analytic_ur,
        empirical_lr=float(sq_l.mean()),
        empirical_ur=float(sq_u.mean()),
        half_width_95_lr=float(z95 * sq_l.std(ddof=1) / np.sqrt(trials)),
        half_width_95_ur=float(z95 * sq_u.std(ddof=1) / np.sqrt(trials)),
        trials=trials,
        resampled_trials=resampled,
    )


def solve_allocation(params: SystemParams, gamma: float, scheme: str,
                     jensen_variant: str = "printed",
                     ) -> Tuple[PowerAllocation, float, float]:
    """Solve the scheme's allocation problem; returns (alloc, nmse_l, nmse_u)."""
    if scheme == RECIPROCAL:
        sol = solve_reciprocal(AllocProblem(params, gamma))
        return (sol.alloc, sol.objective,
                nmse_u_reciprocal(params, sol.alloc.e_f, sol.alloc.var_a))
    if scheme == NON_RECIPROCAL:
        sol = condense(params, gamma)
        return (sol.alloc,
                nmse_l_nonreciprocal_approx(params, sol.alloc, jensen_variant),
                nmse_u_nonreciprocal(params, sol.alloc.e_3, sol.alloc.var_a))
    raise ValueError(f"unknown scheme {scheme!r}")


def sweep_power_allocation(params: SystemParams, scheme: str,
                           gammas: Sequence[float], paves_db: Sequence[float],
                           trials: int = 400, seed: int = 0,
                           jensen_variant: str = "printed",
                           ) -> List[Dict[str, object]]:
    """Solve + verify one allocation per (gamma, average-power) pair.

    Each row carries the solved energies, the analytic predictions, and the
    empirical check with its confidence half-widths.
    """
    rows: List[Dict[str, object]] = []
    for gamma in gammas:
        for p_ave_db in paves_db:
            p = dataclasses.replace(params, p_ave=db_to_linear(p_ave_db))
            alloc, nmse_l, nmse_u = solve_allocation(p, gamma, scheme,
                                                     jensen_variant)
            report = run_nmse_experiment(p, alloc, trials=trials, seed=seed,
                                         jensen_variant=jensen_variant)
            rows.append({
                "scheme": scheme,
                "gamma": gamma,
                "p_ave_db": p_ave_db,
                "e_r": alloc.e_r, "e_f": alloc.e_f,
                "e_0": alloc.e_0, "e_1": alloc.e_1,
                "e_2": alloc.e_2, "e_3": alloc.e_3,
                "var_a": alloc.var_a,
                "nmse_l_analytic": nmse_l,
                "nmse_u_analytic": nmse_u,
                "nmse_l_empirical": report.empirical_lr,
                "nmse_u_empirical": report.empirical_ur,
                "half_width_95_lr": report.half_width_95_lr,
                "half_width_95_ur": report.half_width_95_ur,
                "trials": trials,
            })
    return rows


def run_ser_experiment(params: SystemParams, gamma: float, modulation: int,
                       trials: int = DESK_SER_TRIALS, seed: int = 0,
                       scheme: str = RECIPROCAL,
                       jensen_variant: str = "printed") -> SerReport:
    """Data-phase symbol error rates when both receivers decode one block of
    the four-antenna rate-3/4 orthogonal code using their own channel
    estimates as if they were the truth."""
    if modulation not in SUPPORTED_QAM:
        raise ValueError(f"modulation must be one of {SUPPORTED_QAM}")
    if params.n_t != 4:
        raise UnsupportedGeometry(
            f"the block code needs exactly 4 transmit antennas, got {params.n_t}")
    alloc, _, _ = solve_allocation(params, gamma, scheme, jensen_variant)
    constellation = qam_constellation(modulation)
    scale = block_scale(params.p_ave)

    def one(rng):
        channels, lr_est, ur_est = _estimation_round(params, alloc, rng,
                                                     jensen_variant)
        sent = rng.integers(0, modulation, size=3)
        block = encode_block(constellation[sent], scale)
        y_lr = block @ channels.h_d + complex_gaussian(
            rng, (block.shape[0], params.n_l), params.var_w)
        y_ur = block @ channels.g + complex_gaussian(
            rng, (block.shape[0], params.n_u), params.var_v)
        err_lr = int(np.sum(decode_block(y_lr, lr_est, scale, constellation) != sent))
        err_ur = int(np.sum(decode_block(y_ur, ur_est, scale, constellation) != sent))
        return err_lr, err_ur

    total_lr = total_ur = 0
    for k in range(trials):
        (err_lr, err_ur), _ = _with_resampling(one, seed, k)
        total_lr += err_lr
        total_ur += err_ur
    n_symbols = 3 * trials
    return SerReport(
        ser_lr=total_lr / n_symbols,
        ser_ur=total_ur / n_symbols,
        trials=trials,
        modulation=modulation,
        code="ostbc-4tx-rate-3/4",
    )


def jensen_oracle(params: SystemParams, alloc: PowerAllocation,
                  trials: int = 10000, seed: int = 0) -> Dict[str, object]:
    """Adjudicate the two closed-form spectral surrogates empirically.

    Samples the eigenvalues lambda of Hu_hat Hu_hat^H (entries i.i.d.
    complex Gaussian with the uplink-estimate variance) and averages
    lambda/(lambda+beta), then reports which closed form lands closer.
    The eigenvalue average converges slowly, so fewer than 10^4 samples
    would adjudicate on noise; such calls are rejected outright.
    """
    if trials < 10000:
        raise ValueError("adjudication needs at least 10000 samples")
    sigma2 = sigma_sq_uplink(params, alloc.e_2)
    beta = downlink_beta(params, alloc)
    if not np.isfinite(beta) or sigma2 == 0.0:
        empirical = 0.0
    elif beta == 0.0:
        empirical = 1.0
    else:
        rng = trial_rng(seed, 0)
        hu = complex_gaussian(rng, (trials, params.n_l, params.n_t), sigma2)
        gram = hu @ np.conj(np.swapaxes(hu, 1, 2))
        lam = np.linalg.eigvalsh(gram)
        empirical = float(np.mean(lam / (lam + beta)))
    printed = jensen_factor(params, alloc, "printed")
    sigma_squared = jensen_factor(params, alloc, "sigma-squared")
    closer = ("printed" if abs(empirical - printed) <= abs(empirical - sigma_squared)
              else "sigma-squared")
    return {
        "empirical": empirical,
        "printed": printed,
        "sigma-squared": sigma_squared,
        "closer": closer,
        "beta": beta,
        "sigma_sq": sigma2,
        "trials": trials,
    }
