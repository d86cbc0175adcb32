r"""The transmitter's LMMSE estimates of its channels, as references.

The library never forms these estimates: the AN reads only their column
spaces (``dce.montecarlo._estimate_span``).  They stay here as the check on
``dce.nmse``'s closed forms for their errors (``test_estimators.py``), as
the estimate the span is compared against (``test_montecarlo.py``) and as
the transmitter's estimate of the literal reference (``reference_sim.py``).
Each works on trial-last stacks of trials, like the receivers' filters,
and takes the statistics ``dce.training``'s phases return.

The echo-based downlink estimate uses the push-through identity
(Hu_hat^H Hu_hat + beta I)^{-1} Hu_hat^H = Hu_hat^H G^{-1} with
G = Hu_hat Hu_hat^H + beta I, which moves its solve to the n_l x n_l side.
There every eigenvalue is beta plus one of Hu_hat's squared singular
values, so G is never worse conditioned than Hu_hat Hu_hat^H however small
beta gets at high power, while the n_t x n_t matrix keeps n_t - n_l
eigenvalues at exactly beta.
"""

import numpy as np

from dce.nmse import downlink_beta, echo_gain, lmmse_gain, t0_round_trip
from dce.params import PowerAllocation, SystemParams


def tx_estimate_reciprocal(y_t: np.ndarray, params: SystemParams,
                           e_r: float) -> np.ndarray:
    r"""Estimate the symmetric channel from the reverse statistic
    sqrt(e_r/n_l) H^T + noise.

    Returns the (n_t, n_l, ...) downlink-oriented stack (transpose of the
    directly estimated H^T).
    """
    if e_r < 0:
        raise ValueError("e_r must be non-negative")
    gain = lmmse_gain(params.var_h, e_r, params.n_l, params.var_wt)
    return np.swapaxes(gain * y_t, 0, 1)


def tx_estimate_uplink(y_t2: np.ndarray, params: SystemParams,
                       e_2: float) -> np.ndarray:
    """Uplink-channel estimates from the non-reciprocal reverse phase
    (n_l, n_t, ...)."""
    if e_2 < 0:
        raise ValueError("e_2 must be non-negative")
    return lmmse_gain(params.var_hu, e_2, params.n_l, params.var_wt) * y_t2


def tx_estimate_downlink(y_t1: np.ndarray, h_u_hat: np.ndarray,
                         params: SystemParams,
                         alloc: PowerAllocation) -> np.ndarray:
    r"""Downlink estimates (n_t, n_l, T) from the echoed blocks (n_t, n_t, T),
    conditioned on the uplink estimates (n_l, n_t, T).

    Each trial's estimate is
    var_hd/(alpha t0) X_t0^H Y_t1 (Hu_hat^H Hu_hat + beta I)^{-1} Hu_hat^H
    for the probe X_t0 = sqrt(e_0/n_t) I that ``training.round_trip_training``
    sends, so X_t0^H Y_t1 is Y_t1 times that scalar.  Given Hu_hat, its
    error covariance is
    [var_hd I - var_hd*rho0*M(M+beta I)^{-1}] kron I_{n_t} with
    M = Hu_hat^* Hu_hat^T and rho0 the probe share of the echoed level
    (``dce.nmse.rho0_downlink``).  The solve runs on the n_l x n_l side
    (see the module docstring), trial by trial on trial-first views.
    """
    alpha = echo_gain(params, alloc.e_0, alloc.e_1)
    if alpha <= 0:
        raise ValueError("echo-based estimation needs e_1 > 0 (alpha > 0)")
    y_t1, h_u_hat = np.moveaxis(y_t1, -1, 0), np.moveaxis(h_u_hat, -1, 0)
    gram = (h_u_hat @ np.conj(np.swapaxes(h_u_hat, -1, -2))
            + downlink_beta(params, alloc) * np.eye(params.n_l))
    gain = params.var_hd / (alpha * t0_round_trip(params, alloc.e_0))
    estimate = gain * ((np.sqrt(alloc.e_0 / params.n_t) * y_t1)
                       @ np.conj(np.swapaxes(np.linalg.solve(gram, h_u_hat), -1, -2)))
    return np.moveaxis(estimate, 0, -1)
