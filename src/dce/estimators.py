r"""LMMSE estimators for both receivers and both training schemes.

All estimators are linear and work on stacks of trials.  Each multiplies
its phase's statistic (``dce.training``: C^H Y, the part of the received
block its filter reads) by one scalar LMMSE gain built from second-order
statistics only (``dce.nmse``).

The transmitter's own estimates are not here: the AN reads only their
column spaces, which ``dce.montecarlo`` takes from the transmitter's
received statistics directly.  The reference transmitter-side estimators
live in the test suite (``tests/reference_estimators.py``), where they
check ``dce.nmse``'s closed forms for those estimates' errors.

Receivers know all second-order statistics (noise variances, AN variance,
the transmitter-side estimation error variance) but no realizations.
"""

from __future__ import annotations

import numpy as np

from .nmse import (lr_effective_noise_nonreciprocal,
                   lr_effective_noise_reciprocal, ur_effective_noise)
from .params import RECIPROCAL, PowerAllocation, SystemParams


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
