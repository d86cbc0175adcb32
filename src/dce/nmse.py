r"""Scalar closed forms: error variances, effective noise levels, NMSEs and
the feasibility interval of the UR floor.

Every estimation error in the model is the per-entry LMMSE error variance of
a Gaussian prior observed through orthogonal pilots in white noise,
``lmmse_error_var``; the functions here supply its prior and effective
noise for the transmitter, the legitimate receiver (LR) and the
unauthorized receiver (UR).  Everything is a pure scalar function of the
system parameters and allocation entries.  ``forward_filters`` pairs each
receiver's filter gain (``lmmse_gain``) with that filter's error: the
Monte-Carlo module applies the one and reports the other, and the
allocators optimize the errors.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import InfeasibleGamma
from .params import NON_RECIPROCAL, RECIPROCAL, PowerAllocation, SystemParams

JENSEN_VARIANTS = ("printed", "sigma-squared")   # the first is the default


def lmmse_error_var(prior, energy, n, noise):
    """Per-entry LMMSE error variance when pilot energy ``energy`` is spread
    over ``n`` streams in noise ``noise``: 1/(1/prior + (energy/n)/noise).

    Broadcasts over NumPy arrays.
    """
    return 1.0 / (1.0 / prior + (energy / n) / noise)


def lmmse_gain(prior, energy, n, noise):
    r"""LMMSE gain on C^H Y = s Z + C^H W, s = sqrt(energy/n), whose per-entry
    error is ``lmmse_error_var`` of the same arguments.  C is a semi-unitary
    pilot, Z has i.i.d. prior variance ``prior`` and W white noise ``noise``.
    As C^H C = I, the LMMSE filter prior s C^H (prior s^2 C C^H + noise I)^{-1}
    equals this gain times C^H (Biguesh & Gershman, IEEE TSP 2006).
    """
    s = np.sqrt(energy / n)
    return prior * s / (prior * s * s + noise)


# ---------------------------------------------------------------------------
# transmitter-side statistics
# ---------------------------------------------------------------------------

def tx_error_var_reciprocal(params: SystemParams, e_r: float) -> float:
    """Per-entry error variance of the transmitter's reverse-training estimate."""
    return lmmse_error_var(params.var_h, e_r, params.n_l, params.var_wt)


def tx_error_var_uplink(params: SystemParams, e_2: float) -> float:
    """Per-entry error variance of the uplink estimate (non-reciprocal)."""
    return lmmse_error_var(params.var_hu, e_2, params.n_l, params.var_wt)


def sigma_sq_uplink(params: SystemParams, e_2: float) -> float:
    """Per-entry variance of the uplink channel estimate."""
    return (params.var_hu ** 2 * e_2
            / (params.var_hu * e_2 + params.n_l * params.var_wt))


def echo_gain(params: SystemParams, e_0: float, e_1: float) -> float:
    """Amplifying gain applied by the LR to its received round-trip block."""
    denom = e_0 * params.n_l * params.var_hd + params.n_t * params.n_l * params.var_w
    return float(np.sqrt(e_1 / denom))


def t0_round_trip(params: SystemParams, e_0: float) -> float:
    """Round-trip downlink signal-plus-noise level t0 = var_hd*e_0/n_t + var_w."""
    return params.var_hd * e_0 / params.n_t + params.var_w


def rho0_downlink(params: SystemParams, e_0: float) -> float:
    """Share of the echoed level carried by the probe:
    var_hd*e_0 / (var_hd*e_0 + n_t*var_w)."""
    return params.var_hd * e_0 / (params.var_hd * e_0 + params.n_t * params.var_w)


def downlink_beta(params: SystemParams, alloc: PowerAllocation) -> float:
    r"""Regularizer of the echo-based downlink estimator.

    beta = n_l * eps2 + var_wt / (alpha^2 * t0) with eps2 the uplink
    estimate's per-entry error variance and t0 the round-trip level.
    Infinite when the echo gain is zero (no round-trip information).
    """
    alpha = echo_gain(params, alloc.e_0, alloc.e_1)
    if alpha == 0.0:
        return float("inf")
    eps2 = tx_error_var_uplink(params, alloc.e_2)
    return (params.n_l * eps2
            + params.var_wt / (alpha ** 2 * t0_round_trip(params, alloc.e_0)))


def _jensen_terms(params: SystemParams, alloc: PowerAllocation,
                  variant: str) -> Tuple[float, float]:
    """(beta, s) of the spectral surrogate n_t*s/(beta + n_t*s)."""
    if variant not in JENSEN_VARIANTS:
        raise ValueError(f"unknown jensen variant {variant!r}")
    sigma2 = sigma_sq_uplink(params, alloc.e_2)
    return downlink_beta(params, alloc), (np.sqrt(sigma2) if variant == "printed" else sigma2)


def _surrogate_miss(n_t: int, beta, s):
    """1 - n_t*s/(beta + n_t*s) as beta/(beta + n_t*s), which cancels nothing
    as the factor nears 1; 1 at beta = inf.  Broadcasts over NumPy arrays."""
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(beta), 1.0, beta / (beta + n_t * s))


def leakage_residual(params: SystemParams, e_0, beta, s):
    r"""Per-entry error variance of the echo-based downlink estimate that AN
    leaks through, var_hd*(1 - rho0*j) with j = n_t*s/(beta + n_t*s).

    Written as var_hd*((1 - rho0) + rho0*(1 - j)), with
    1 - rho0 = n_t*var_w/(var_hd*e_0 + n_t*var_w) and
    1 - j = beta/(beta + n_t*s) (1 at beta = inf, no round trip), so that
    nothing cancels as rho0*j -> 1 at high power.  Broadcasts over NumPy
    arrays.
    """
    noise = params.n_t * params.var_w
    miss_0 = noise / (params.var_hd * e_0 + noise)
    miss_j = _surrogate_miss(params.n_t, beta, s)
    return params.var_hd * (miss_0 + rho0_downlink(params, e_0) * miss_j)


# ---------------------------------------------------------------------------
# effective noise seen by the receivers in the forward phase
# ---------------------------------------------------------------------------

def lr_effective_noise_reciprocal(params: SystemParams, e_r: float,
                                  var_a: float) -> float:
    """Per-entry disturbance variance seen by the LR in the forward phase.

    AN leaks through the transmitter's estimation error only:
    (n_t - n_l) * var_a * errv_tx + var_w.
    """
    errv = tx_error_var_reciprocal(params, e_r)
    return (params.n_t - params.n_l) * var_a * errv + params.var_w


def lr_effective_noise_nonreciprocal(params: SystemParams, alloc: PowerAllocation,
                                     jensen_variant: str) -> float:
    """AN leakage through the echo-based downlink estimate, plus LR noise."""
    residual = float(leakage_residual(
        params, alloc.e_0, *_jensen_terms(params, alloc, jensen_variant)))
    return (params.n_t - params.n_l) * alloc.var_a * residual + params.var_w


def ur_effective_noise(params: SystemParams, var_a: float) -> float:
    """AN hits the UR at full strength: (n_t - n_l)*var_a*var_g + var_v."""
    return (params.n_t - params.n_l) * var_a * params.var_g + params.var_v


def forward_filters(params: SystemParams, alloc: PowerAllocation,
                    jensen_variant: str) -> Tuple[Tuple[float, float], ...]:
    """``((gain_l, nmse_l), (gain_u, nmse_u))``: each receiver's forward-phase
    LMMSE gain and its error, from one (prior, ``alloc.forward``, effective
    noise) triple.  The echo scheme's LR error is the Jensen surrogate
    ``jensen_variant`` picks."""
    if alloc.scheme == RECIPROCAL:
        lr = (params.var_h,
              lr_effective_noise_reciprocal(params, alloc.e_r, alloc.var_a))
    else:
        lr = (params.var_hd,
              lr_effective_noise_nonreciprocal(params, alloc, jensen_variant))
    ur = params.var_g, ur_effective_noise(params, alloc.var_a)
    return tuple((lmmse_gain(prior, alloc.forward, params.n_t, noise),
                  lmmse_error_var(prior, alloc.forward, params.n_t, noise))
                 for prior, noise in (lr, ur))


# ---------------------------------------------------------------------------
# channel-estimation NMSE at the receivers
# ---------------------------------------------------------------------------

def nmse_l_reciprocal(params: SystemParams, e_r: float, e_f: float,
                      var_a: float) -> float:
    """LR channel-estimation NMSE in the reciprocal scheme; in (0, var_h]."""
    if min(e_r, e_f, var_a) < 0:
        raise ValueError("allocation entries must be non-negative")
    r_eff = lr_effective_noise_reciprocal(params, e_r, var_a)
    return lmmse_error_var(params.var_h, e_f, params.n_t, r_eff)


def nmse_u(params: SystemParams, e_fwd: float, var_a: float) -> float:
    """UR channel-estimation NMSE, exact in both schemes, for forward pilot
    energy ``e_fwd`` (e_f or e_3); in (0, var_g]."""
    if min(e_fwd, var_a) < 0:
        raise ValueError("allocation entries must be non-negative")
    return lmmse_error_var(params.var_g, e_fwd, params.n_t,
                           ur_effective_noise(params, var_a))


def nmse_l_nonreciprocal_approx(params: SystemParams, alloc: PowerAllocation,
                                jensen_variant: str) -> float:
    """Approximate LR NMSE for the echo-based scheme (Jensen surrogate)."""
    r_eff = lr_effective_noise_nonreciprocal(params, alloc, jensen_variant)
    return lmmse_error_var(params.var_hd, alloc.e_3, params.n_t, r_eff)


# ---------------------------------------------------------------------------
# UR floor and bounds
# ---------------------------------------------------------------------------

def gamma_tilde(params: SystemParams, gamma: float) -> float:
    r"""Forward-energy bound induced by the UR floor:
    (1/gamma - 1/var_g) * n_t * var_v.

    Without AN, NMSE_U >= gamma iff the forward energy stays below this.
    """
    return (1.0 / gamma - 1.0 / params.var_g) * params.n_t * params.var_v


def mu_threshold(params: SystemParams) -> float:
    """Reverse-energy threshold below which AN is counter-productive."""
    return params.n_l * (params.var_v * params.var_wt / (params.var_g * params.var_w)
                         - params.var_wt / params.var_h)


def forward_budget(params: SystemParams, scheme: str) -> float:
    """Largest forward pilot energy: the smaller of the transmitter and
    average-energy budgets."""
    if scheme == RECIPROCAL:
        return min(params.budget_tx_reciprocal(),
                   params.budget_average_reciprocal())
    if scheme == NON_RECIPROCAL:
        return min(params.budget_tx_nonreciprocal(),
                   params.budget_average_nonreciprocal())
    raise ValueError(f"unknown scheme {scheme!r}")


def gamma_bounds(params: SystemParams, scheme: str) -> Tuple[float, float]:
    """Achievable interval (gamma_min, gamma_max) for the UR floor.

    gamma_max is the prior variance var_g; gamma_min is the UR NMSE when the
    entire admissible forward energy is spent on pilots with no AN.
    """
    budget = forward_budget(params, scheme)
    gamma_min = lmmse_error_var(params.var_g, budget, params.n_t, params.var_v)
    return gamma_min, params.var_g


def check_gamma(params: SystemParams, gamma: float, scheme: str) -> None:
    """Reject floors no allocation can satisfy.

    Above gamma_max the floor is unconditionally violated, for either scheme.
    Below gamma_min the floor is vacuous (the UR error never gets that small):
    the reciprocal solver simply proceeds with the constraint inactive, while
    the non-reciprocal route rejects it because the condensation construction
    presumes the floor binds at the optimum.  The non-reciprocal route also
    rejects gamma_max itself: its floor constraint divides by
    1/gamma - 1/var_g.
    """
    lo, hi = gamma_bounds(params, scheme)
    if not 0.0 < gamma <= hi:
        raise InfeasibleGamma(
            f"gamma={gamma:g} outside achievable interval (0, {hi:g}]")
    if scheme == NON_RECIPROCAL and not 1.0 / gamma > 1.0 / hi:
        raise InfeasibleGamma(
            f"gamma={gamma:g} must lie below var_g={hi:g} under the "
            "non-reciprocal scheme, whose floor constraint divides by "
            "1/gamma - 1/var_g")
    if scheme == NON_RECIPROCAL and gamma < lo:
        raise InfeasibleGamma(
            f"gamma={gamma:g} below the smallest enforceable floor {lo:g}; "
            "the ratio constraint cannot be met with equality")


def nmse_lower_bound(params: SystemParams, scheme: str) -> float:
    """Best LR NMSE attainable with every budget spent on forward pilots."""
    budget = forward_budget(params, scheme)
    prior = params.var_h if scheme == RECIPROCAL else params.var_hd
    return lmmse_error_var(prior, budget, params.n_t, params.var_w)
