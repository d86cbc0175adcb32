r"""LMMSE estimators for every terminal and both training schemes.

All estimators are linear and work on stacks of trials.  A pilot-based
estimator multiplies its phase's statistic (``dce.training``: C^H Y, the
part of the received block its filter reads) by one scalar LMMSE gain
built from second-order statistics only (``dce.nmse``).  The echo-based
downlink estimate solves one regularized n_l x n_l system per trial, never
worse conditioned than the uplink estimate's Gram matrix.

Receivers know all second-order statistics (noise variances, AN variance,
the transmitter-side estimation error variance) but no realizations.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularRegressor
from .nmse import (downlink_beta, lr_effective_noise_nonreciprocal,
                   lr_effective_noise_reciprocal, t0_round_trip,
                   ur_effective_noise)
from .params import RECIPROCAL, PowerAllocation, SystemParams
from .training import echo_gain


def _pilot_filter(prior_var: float, noise_var: float, energy: float,
                  n_cols: int) -> float:
    r"""LMMSE gain on the statistic C^H Y = s Z + C^H W, s = sqrt(energy/n_cols).

    C is a semi-unitary pilot; Z has i.i.d. prior variance ``prior_var`` and
    W white noise ``noise_var``.  As C^H C = I, the LMMSE filter
    prior s C^H (prior s^2 C C^H + noise I)^{-1} equals this gain times C^H
    (Biguesh & Gershman, IEEE TSP 2006), and its per-entry error is
    ``dce.nmse.lmmse_error_var``.
    """
    s = np.sqrt(energy / n_cols)
    return prior_var * s / (prior_var * s * s + noise_var)


# ---------------------------------------------------------------------------
# transmitter-side estimators
# ---------------------------------------------------------------------------

def tx_estimate_reciprocal(y_t: np.ndarray, params: SystemParams,
                           e_r: float) -> np.ndarray:
    r"""Estimate the symmetric channel from the reverse statistic
    sqrt(e_r/n_l) H^T + noise.

    Returns the (..., n_t, n_l) downlink-oriented stack (transpose of the
    directly estimated H^T).
    """
    if e_r < 0:
        raise ValueError("e_r must be non-negative")
    gain = _pilot_filter(params.var_h, params.var_wt, e_r, params.n_l)
    return np.swapaxes(gain * y_t, -1, -2)


def tx_estimate_uplink(y_t2: np.ndarray, params: SystemParams,
                       e_2: float) -> np.ndarray:
    """Uplink-channel estimates from the non-reciprocal reverse phase
    (..., n_l, n_t)."""
    if e_2 < 0:
        raise ValueError("e_2 must be non-negative")
    return _pilot_filter(params.var_hu, params.var_wt, e_2, params.n_l) * y_t2


def tx_estimate_downlink(y_t1: np.ndarray, h_u_hat: np.ndarray,
                         params: SystemParams,
                         alloc: PowerAllocation) -> np.ndarray:
    r"""Downlink estimates from the echoed blocks, conditioned on the uplink
    estimates.

    Each trial's estimate is
    var_hd/(alpha t0) X_t0^H Y_t1 (Hu_hat^H Hu_hat + beta I)^{-1} Hu_hat^H
    for the probe X_t0 = sqrt(e_0/n_t) I that ``training.round_trip_training``
    sends, so X_t0^H Y_t1 is Y_t1 times that scalar.  The formula holds for
    any probe with X_t0^H X_t0 = (e_0/n_t) I; the simulator fixes it,
    because the probe is the transmitter's own and the UR never observes
    the round trip.
    Given Hu_hat, its error covariance is
    [var_hd I - var_hd*rho0*M(M+beta I)^{-1}] kron I_{n_t} with
    M = Hu_hat^* Hu_hat^T and rho0 the probe share of the echoed level
    (``dce.nmse.rho0_downlink``).

    The push-through identity (Hu_hat^H Hu_hat + beta I)^{-1} Hu_hat^H =
    Hu_hat^H G^{-1}, G = Hu_hat Hu_hat^H + beta I, moves the solve to the
    n_l x n_l side.  There every eigenvalue is beta plus one of Hu_hat's
    squared singular values, so G is never worse conditioned than
    Hu_hat Hu_hat^H however small beta is, while the n_t x n_t matrix
    keeps n_t - n_l eigenvalues at exactly beta.  A non-finite G
    is corrupt input and raises SingularRegressor.
    """
    alpha = echo_gain(params, alloc.e_0, alloc.e_1)
    if alpha <= 0:
        raise ValueError("echo-based estimation needs e_1 > 0 (alpha > 0)")
    gram = (h_u_hat @ np.conj(np.swapaxes(h_u_hat, -1, -2))
            + downlink_beta(params, alloc) * np.eye(params.n_l))
    if not np.all(np.isfinite(gram)):
        raise SingularRegressor("regularized uplink Gram matrix is not finite")
    gain = params.var_hd / (alpha * t0_round_trip(params, alloc.e_0))
    return gain * ((np.sqrt(alloc.e_0 / params.n_t) * y_t1)
                   @ np.conj(np.swapaxes(np.linalg.solve(gram, h_u_hat), -1, -2)))


# ---------------------------------------------------------------------------
# receiver-side estimators
# ---------------------------------------------------------------------------

def lr_estimate_reciprocal(y_l: np.ndarray, params: SystemParams,
                           alloc: PowerAllocation) -> np.ndarray:
    """LR's LMMSE estimates of the n_t x n_l downlink under AN disturbance."""
    r_eff = lr_effective_noise_reciprocal(params, alloc.e_r, alloc.var_a)
    return _pilot_filter(params.var_h, r_eff, alloc.e_f, params.n_t) * y_l


def lr_estimate_nonreciprocal(y_l3: np.ndarray, params: SystemParams,
                              alloc: PowerAllocation,
                              jensen_variant: str) -> np.ndarray:
    """LR's forward-phase estimates under the approximated disturbance covariance."""
    r_eff = lr_effective_noise_nonreciprocal(params, alloc, jensen_variant)
    return _pilot_filter(params.var_hd, r_eff, alloc.e_3, params.n_t) * y_l3


def ur_estimate(y_u: np.ndarray, params: SystemParams,
                alloc: PowerAllocation) -> np.ndarray:
    """UR's LMMSE estimates of its own n_t x n_u channel."""
    energy = alloc.e_f if alloc.scheme == RECIPROCAL else alloc.e_3
    return _pilot_filter(params.var_g, ur_effective_noise(params, alloc.var_a),
                         energy, params.n_t) * y_u
