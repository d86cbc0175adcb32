r"""Reciprocal-scheme power allocation: reduced line search plus closed form.

The three-variable problem (reverse energy, forward energy, AN variance)
collapses to one dimension: for a fixed reverse energy e_r the optimal
forward/AN split is closed-form.  Writing S for the average-energy budget,
B_t and B_l for the transmitter/LR individual budgets, gt for the
forward-energy level that exactly activates the UR floor, and
a = (n_t - n_l) * var_a for the AN energy per slot:

* remaining forward-phase budget: R = min(S_eff - e_r, B_t) with
  S_eff = min(S, B_l + B_t);
* if R < gt, the UR floor cannot be reached: spend it all on pilots (a=0);
* if the transmitter's estimation error variance is at least
  var_g*var_w/var_v (e_r <= mu), AN leaks too strongly through it, or at
  e_r == mu buys nothing for its energy: cap pilots at gt, no AN;
* otherwise the UR floor is active: a = (R - gt)/(tau_f + var_g*gt/var_v)
  and e_f = gt*(var_g*a/var_v + 1), which spends exactly R.

The solver scans this one-variable objective on a dense grid and refines
with golden section; the independent check, a brute-force lattice oracle,
lives in the test suite (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .nmse import (check_gamma, forward_budget, gamma_tilde, mu_threshold,
                   nmse_l_reciprocal, nmse_u_reciprocal, tx_error_var_reciprocal)
from .params import RECIPROCAL, PowerAllocation, SystemParams, reciprocal_allocation

SCAN_POINTS = 512
GOLDEN_REL_WIDTH = 1e-9
ACTIVE_RTOL = 1e-9


@dataclass(frozen=True)
class ReciprocalSolution:
    alloc: PowerAllocation
    objective: float
    branch: str
    active_constraints: Tuple[str, ...]


def _budgets(p: SystemParams) -> Tuple[float, float, float]:
    """The average, transmitter and LR energy budgets."""
    return (p.budget_average_reciprocal(), p.budget_tx_reciprocal(),
            p.budget_lr_reciprocal())


def _inner_solution(p: SystemParams, gamma: float,
                    e_r: float) -> Tuple[float, float, float]:
    """Best (e_f, var_a, nmse_l) for a fixed reverse energy."""
    gt = gamma_tilde(p, gamma)
    s, b_t, b_l = _budgets(p)
    s_eff = min(s, b_l + b_t)
    remaining = max(min(s_eff - e_r, b_t), 0.0)
    if remaining < gt:
        e_f, a = remaining, 0.0
    elif tx_error_var_reciprocal(p, e_r) >= p.var_g * p.var_w / p.var_v:
        e_f, a = gt, 0.0
    else:
        a = (remaining - gt) / (p.tau_f + p.var_g * gt / p.var_v)
        e_f = gt * (p.var_g * a / p.var_v + 1.0)
    var_a = a / (p.n_t - p.n_l)
    return e_f, var_a, nmse_l_reciprocal(p, e_r, e_f, var_a)


def _active_constraints(p: SystemParams, gamma: float,
                        alloc: PowerAllocation) -> Tuple[str, ...]:
    s, b_t, b_l = _budgets(p)
    an_energy = (p.n_t - p.n_l) * alloc.var_a * p.tau_f
    out = []
    if alloc.e_r + alloc.e_f + an_energy >= s * (1 - ACTIVE_RTOL):
        out.append("average-power")
    if alloc.e_f + an_energy >= b_t * (1 - ACTIVE_RTOL):
        out.append("tx-power")
    if alloc.e_r >= b_l * (1 - ACTIVE_RTOL):
        out.append("lr-power")
    nu = nmse_u_reciprocal(p, alloc.e_f, alloc.var_a)
    if abs(nu - gamma) <= ACTIVE_RTOL * gamma:
        out.append("ur-nmse")
    return tuple(out)


def _golden_section(fun, lo: float, hi: float) -> Tuple[float, float]:
    """Minimize fun on [lo, hi] down to width GOLDEN_REL_WIDTH*(hi-lo), or
    until the float spacing at the bracket stops it shrinking."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    width = hi - lo
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    seen = set()
    while (b - a) > GOLDEN_REL_WIDTH * width:
        # (a, b, c, d) fixes every later step, so a state seen before means
        # the bracket cycles between floats without shrinking
        if (a, b, c, d) in seen:
            break
        seen.add((a, b, c, d))
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = c if fc < fd else d
    return x, min(fc, fd)


def solve_reciprocal(params: SystemParams, gamma: float) -> ReciprocalSolution:
    """Minimize the LR NMSE subject to the UR floor and the power budgets.

    Closed-form branch: when mu exceeds min(B_l, S - gt), AN never pays off
    anywhere in the admissible range and (0, gt, 0) is optimal.  Otherwise a
    dense scan plus golden-section refinement solves the one-dimensional
    reduced problem; ties go to the smallest reverse energy.
    """
    p = params
    check_gamma(p, gamma, RECIPROCAL)
    gt = gamma_tilde(p, gamma)
    mu = mu_threshold(p)
    s, b_t, b_l = _budgets(p)
    s_eff = min(s, b_l + b_t)

    # The closed form (0, gt, 0) only exists when spending gt on forward
    # pilots is affordable; below the enforceable-floor threshold the target
    # is vacuous and the reduced search handles it (no floor ever binds).
    if gt <= forward_budget(p, RECIPROCAL) and mu > min(b_l, s - gt):
        alloc = reciprocal_allocation(0.0, gt, 0.0)
        return ReciprocalSolution(
            alloc=alloc,
            objective=nmse_l_reciprocal(p, 0.0, gt, 0.0),
            branch="closed-form",
            active_constraints=_active_constraints(p, gamma, alloc),
        )

    lo = max(0.0, s_eff - b_t)
    hi = min(b_l, s_eff)
    objective = lambda e_r: _inner_solution(p, gamma, e_r)[2]

    if hi - lo <= 0:
        best_er, best_val = lo, objective(lo)
    else:
        grid = np.linspace(lo, hi, SCAN_POINTS)
        vals = [objective(e) for e in grid]
        k = int(np.argmin(vals))  # argmin takes the first index on ties
        best_er, best_val = float(grid[k]), vals[k]
        step = (hi - lo) / (SCAN_POINTS - 1)
        g_lo = max(lo, best_er - step)
        g_hi = min(hi, best_er + step)
        x, fx = _golden_section(objective, g_lo, g_hi)
        if fx < best_val:
            best_er, best_val = x, fx

    e_f, var_a, _ = _inner_solution(p, gamma, best_er)
    alloc = reciprocal_allocation(best_er, e_f, var_a)
    return ReciprocalSolution(
        alloc=alloc,
        objective=best_val,
        branch="line-search",
        active_constraints=_active_constraints(p, gamma, alloc),
    )
