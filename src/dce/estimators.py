r"""LMMSE estimators for every terminal and both training schemes.

All estimators are linear in the received block.  Each applies a cached
pilot filter built from second-order statistics only (the scalar closed
forms of ``dce.nmse``), so Monte-Carlo trials reuse the same matrix and the
per-trial cost is a small matmul.

Receivers know all second-order statistics (noise variances, AN variance,
the transmitter-side estimation error variance) but no realizations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import SingularRegressor
from .nmse import (downlink_beta, lr_effective_noise_nonreciprocal,
                   lr_effective_noise_reciprocal, rho0_downlink,
                   t0_round_trip, ur_effective_noise)
from .params import RECIPROCAL, PowerAllocation, SystemParams
from .training import echo_gain, pilot_matrix

# Conditioning threshold and jitter scale for symmetric solves.
COND_LIMIT = 1e12
JITTER_REL = 1e-12


@dataclass(frozen=True)
class EstimateWithError:
    """Estimate matrix plus, for the echo-based downlink estimate, the
    conditioning record describing its conditional error covariance."""

    estimate: np.ndarray
    conditioning: Optional[Dict[str, object]] = None


def spd_solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hermitian positive-definite solve with a conditioning guard.

    When cond(m) exceeds COND_LIMIT a diagonal jitter of
    JITTER_REL * trace(m)/n is added before solving.
    """
    if np.linalg.cond(m) > COND_LIMIT:
        n = m.shape[0]
        m = m + (JITTER_REL * np.trace(m).real / n) * np.eye(n)
    return np.linalg.solve(m, b)


@functools.lru_cache(maxsize=256)
def _pilot_filter(prior_var: float, noise_var: float, energy: float,
                  tau: int, n_cols: int) -> np.ndarray:
    r"""LMMSE filter for Y = X Z + W with X = sqrt(energy/n_cols) C.

    C is the tau x n_cols semi-unitary pilot; Z has i.i.d. prior variance
    ``prior_var`` and W white noise ``noise_var``.  Returns the n_cols x tau
    matrix mapping a received column to the estimate column.  Cached: the
    filter depends only on second-order statistics, never on the
    realization, so every Monte Carlo trial reuses the same matrix.
    """
    x = np.sqrt(energy / n_cols) * pilot_matrix(tau, n_cols)
    gram = prior_var * (x @ x.conj().T) + noise_var * np.eye(tau)
    filt = prior_var * spd_solve(gram, x).conj().T
    filt.flags.writeable = False
    return filt


# ---------------------------------------------------------------------------
# transmitter-side estimators
# ---------------------------------------------------------------------------

def tx_estimate_reciprocal(y_t: np.ndarray, params: SystemParams,
                           e_r: float) -> EstimateWithError:
    r"""Estimate the symmetric channel from Y_t = X_L H^T + noise.

    Returns the n_t x n_l downlink-oriented matrix (transpose of the
    directly estimated H^T).
    """
    if e_r < 0:
        raise ValueError("e_r must be non-negative")
    w = _pilot_filter(params.var_h, params.var_wt, e_r, params.tau_r, params.n_l)
    return EstimateWithError(estimate=(w @ y_t).T)


def tx_estimate_uplink(y_t2: np.ndarray, params: SystemParams,
                       e_2: float) -> EstimateWithError:
    """Uplink-channel estimate from the non-reciprocal reverse phase (n_l x n_t)."""
    if e_2 < 0:
        raise ValueError("e_2 must be non-negative")
    w = _pilot_filter(params.var_hu, params.var_wt, e_2, params.tau_2, params.n_l)
    return EstimateWithError(estimate=w @ y_t2)


def tx_estimate_downlink(y_t1: np.ndarray, x_t0: np.ndarray,
                         h_u_hat: EstimateWithError, params: SystemParams,
                         alloc: PowerAllocation) -> EstimateWithError:
    r"""Downlink estimate from the echoed block, conditioned on the uplink estimate.

    With M = Hu_hat^* Hu_hat^T and rho0 the probe share of the echoed
    level (``dce.nmse.rho0_downlink``), the conditional error covariance is
    [var_hd I - var_hd*rho0*M(M+beta I)^{-1}] kron I_{n_t}; its n_l x n_l
    factor is published in the conditioning record together with beta.
    """
    alpha = echo_gain(params, alloc.e_0, alloc.e_1)
    if alpha <= 0:
        raise ValueError("echo-based estimation needs e_1 > 0 (alpha > 0)")
    hu = h_u_hat.estimate
    n_t, n_l = params.n_t, params.n_l
    t0 = t0_round_trip(params, alloc.e_0)
    beta = downlink_beta(params, alloc)
    reg = hu.conj().T @ hu + beta * np.eye(n_t)
    if not np.all(np.isfinite(reg)) or np.linalg.cond(reg) > 1e14:
        raise SingularRegressor("regularized uplink Gram matrix is numerically singular")
    est = (params.var_hd / (alpha * t0)) * (
        x_t0.conj().T @ y_t1 @ spd_solve(reg, hu.conj().T))
    rho0 = rho0_downlink(params, alloc.e_0)
    m = hu.conj() @ hu.T
    shrink = m @ np.linalg.inv(m + beta * np.eye(n_l))
    cond_factor = params.var_hd * (np.eye(n_l) - rho0 * shrink)
    return EstimateWithError(
        estimate=est,
        conditioning={
            "hu_hat": hu,
            "beta": beta,
            "rho0": rho0,
            "cond_cov_factor": cond_factor,
            "conditional_nmse": float(np.trace(cond_factor).real) / n_l,
        },
    )


# ---------------------------------------------------------------------------
# receiver-side estimators
# ---------------------------------------------------------------------------

def lr_estimate_reciprocal(y_l: np.ndarray, params: SystemParams,
                           alloc: PowerAllocation) -> EstimateWithError:
    """LR's LMMSE estimate of the n_t x n_l downlink under AN disturbance."""
    r_eff = lr_effective_noise_reciprocal(params, alloc.e_r, alloc.var_a)
    w = _pilot_filter(params.var_h, r_eff, alloc.e_f, params.tau_f, params.n_t)
    return EstimateWithError(estimate=w @ y_l)


def lr_estimate_nonreciprocal(y_l3: np.ndarray, params: SystemParams,
                              alloc: PowerAllocation,
                              jensen_variant: str = "printed") -> EstimateWithError:
    """LR's forward-phase estimate under the approximated disturbance covariance."""
    r_eff = lr_effective_noise_nonreciprocal(params, alloc, jensen_variant)
    w = _pilot_filter(params.var_hd, r_eff, alloc.e_3, params.tau_3, params.n_t)
    return EstimateWithError(estimate=w @ y_l3)


def ur_estimate(y_u: np.ndarray, params: SystemParams,
                alloc: PowerAllocation) -> EstimateWithError:
    """UR's LMMSE estimate of its own n_t x n_u channel."""
    if alloc.scheme == RECIPROCAL:
        energy, tau = alloc.e_f, params.tau_f
    else:
        energy, tau = alloc.e_3, params.tau_3
    w = _pilot_filter(params.var_g, ur_effective_noise(params, alloc.var_a),
                      energy, tau, params.n_t)
    return EstimateWithError(estimate=w @ y_u)
