r"""System parameters and value types shared by every stage of the simulator.

Conventions
-----------
* All powers/energies/variances are LINEAR scale internally.  dB enters only
  at configuration boundaries and is converted with ``db_to_linear``.
* Channel matrices: downlink to the legitimate receiver (LR) is
  ``n_t x n_l``, uplink is ``n_l x n_t``, downlink to the unauthorized
  receiver (UR) is ``n_t x n_u``.
* Training energies are whole-phase energies (power times slots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

RECIPROCAL = "reciprocal"
NON_RECIPROCAL = "non-reciprocal"
SCHEMES = (RECIPROCAL, NON_RECIPROCAL)


def db_to_linear(x_db: float) -> float:
    """10^(x/10); ValueError when that overflows a float."""
    try:
        return float(10.0 ** (x_db / 10.0))
    except OverflowError:
        raise ValueError(f"{x_db!r} dB is too large for a linear power") from None


def linear_to_db(x: float) -> float:
    """10*log10(x); zero maps to -inf (log-scale plots drop such points)."""
    if x < 0:
        raise ValueError("negative power cannot be expressed in dB")
    if x == 0:
        return float("-inf")
    return float(10.0 * np.log10(x))


@dataclass(frozen=True)
class SystemParams:
    """Static system description: geometry, statistics, budgets.

    ``var_h`` is the symmetric-channel element variance used by the
    reciprocal scheme; ``var_hd``/``var_hu`` are the separate downlink and
    uplink variances for the non-reciprocal scheme.  ``p_ave`` constrains the
    average transmit power over a whole training round, ``p_bar_t`` and
    ``p_bar_l`` are the per-terminal peak (individual) limits.  ``tau_r``
    and ``tau_f`` are the reciprocal scheme's reverse and forward lengths;
    the echo scheme's round-trip and forward phases take n_t slots each
    and its uplink phase n_l slots.
    """

    n_t: int
    n_l: int
    n_u: int
    tau_r: int
    tau_f: int
    p_ave: float
    p_bar_t: float
    p_bar_l: float
    var_h: float = 1.0
    var_hd: float = 1.0
    var_hu: float = 1.0
    var_g: float = 1.0
    var_w: float = 1.0
    var_wt: float = 1.0
    var_v: float = 1.0

    def __post_init__(self):
        # getattr, not vars(self): reading __dict__ would make every later
        # attribute load on this instance slower (CPython 3.11+)
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.n_t < 2 or self.n_l < 1 or self.n_u < 1:
            raise ValueError("need n_t >= 2, n_l >= 1, n_u >= 1")
        if self.n_t <= self.n_l:
            raise ValueError("n_t must exceed n_l (AN needs a null space)")
        for name in ("var_h", "var_hd", "var_hu", "var_g", "var_w",
                     "var_wt", "var_v", "p_ave", "p_bar_t", "p_bar_l"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.tau_f < self.n_t:
            raise ValueError("tau_f < n_t leaves the forward pilot rank deficient")
        if self.tau_r < self.n_l:
            raise ValueError("tau_r < n_l leaves the reverse pilot rank deficient")

    # Energy budgets (whole-phase caps derived from power limits).
    def budget_average_reciprocal(self) -> float:
        return self.p_ave * (self.tau_r + self.tau_f)

    def budget_tx_reciprocal(self) -> float:
        return self.p_bar_t * self.tau_f

    def budget_lr_reciprocal(self) -> float:
        return self.p_bar_l * self.tau_r

    def budget_average_nonreciprocal(self) -> float:
        # Round trip, echo and forward take n_t slots each, the uplink n_l.
        return self.p_ave * (3 * self.n_t + self.n_l)

    def budget_tx_nonreciprocal(self) -> float:
        return self.p_bar_t * 2 * self.n_t

    def budget_lr_nonreciprocal(self) -> float:
        return self.p_bar_l * (self.n_t + self.n_l)


def default_params(p_ave_db: float = 20.0, p_bar_t_db: float = 30.0,
                   p_bar_l_db: float = 20.0, n_t: int = 4, n_l: int = 2,
                   n_u: int = 2, tau_r: Optional[int] = None,
                   tau_f: Optional[int] = None, **overrides) -> SystemParams:
    """Standard 4x2x2 benchmark geometry with unit variances.

    Powers are given in dB.  ``tau_r`` defaults to ``n_l`` and ``tau_f``
    to ``n_t`` (the minimal training lengths).
    """
    return SystemParams(
        n_t=n_t, n_l=n_l, n_u=n_u,
        tau_r=n_l if tau_r is None else tau_r,
        tau_f=n_t if tau_f is None else tau_f,
        p_ave=db_to_linear(p_ave_db),
        p_bar_t=db_to_linear(p_bar_t_db),
        p_bar_l=db_to_linear(p_bar_l_db),
        **overrides,
    )


def with_fixed_energy_budgets(params: SystemParams, tau_f: int) -> SystemParams:
    """Clone ``params`` with a new forward length but unchanged ENERGY caps.

    The power limits are rescaled so that p_ave*(tau_r+tau_f),
    p_bar_t*tau_f and p_bar_l*tau_r keep the values they had under the
    original training lengths.  This is the regime used when sweeping the
    forward training length at a fixed energy budget.
    """
    s = params.budget_average_reciprocal()
    bt = params.budget_tx_reciprocal()
    bl = params.budget_lr_reciprocal()
    return replace(
        params,
        tau_f=tau_f,
        p_ave=s / (params.tau_r + tau_f),
        p_bar_t=bt / tau_f,
        p_bar_l=bl / params.tau_r,
    )


@dataclass(frozen=True)
class PowerAllocation:
    """One point of the training/AN power design space.

    Reciprocal scheme uses (e_r, e_f, var_a); non-reciprocal uses
    (e_0, e_1, e_2, e_3, var_a).  Unused fields stay at 0.
    """

    scheme: str
    var_a: float = 0.0
    e_r: float = 0.0
    e_f: float = 0.0
    e_0: float = 0.0
    e_1: float = 0.0
    e_2: float = 0.0
    e_3: float = 0.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for name in ("var_a", "e_r", "e_f", "e_0", "e_1", "e_2", "e_3"):
            v = getattr(self, name)
            if not 0 <= v < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {v!r}")

    @property
    def forward(self) -> float:
        """Forward pilot energy: e_f (reciprocal scheme) or e_3 (echo scheme)."""
        return self.e_f if self.scheme == RECIPROCAL else self.e_3

    def energies(self) -> Dict[str, float]:
        if self.scheme == RECIPROCAL:
            return {"e_r": self.e_r, "e_f": self.e_f, "var_a": self.var_a}
        return {"e_0": self.e_0, "e_1": self.e_1, "e_2": self.e_2,
                "e_3": self.e_3, "var_a": self.var_a}


def reciprocal_allocation(e_r: float, e_f: float, var_a: float = 0.0) -> PowerAllocation:
    return PowerAllocation(scheme=RECIPROCAL, e_r=e_r, e_f=e_f, var_a=var_a)


def nonreciprocal_allocation(e_0: float, e_1: float, e_2: float, e_3: float,
                             var_a: float = 0.0) -> PowerAllocation:
    return PowerAllocation(scheme=NON_RECIPROCAL, e_0=e_0, e_1=e_1,
                           e_2=e_2, e_3=e_3, var_a=var_a)
