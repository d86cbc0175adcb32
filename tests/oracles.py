"""Brute-force lattice oracles for both power allocations; pytest puts this
directory on ``sys.path``, so tests import them as ``from oracles import ...``.

Each scores a lattice with the closed-form kernels alone and calls no
solver, so it stays an independent check on ``solve_reciprocal`` and
``condense``.
"""

import numpy as np

from dce.alloc_reciprocal import (ACTIVE_RTOL, ReciprocalSolution,
                                  _active_constraints, _budgets)
from dce.errors import NoFeasiblePoint
from dce.nmse import (gamma_tilde, leakage_residual, lmmse_error_var,
                      sigma_sq_uplink, tx_error_var_uplink)
from dce.params import (PowerAllocation, SystemParams,
                        nonreciprocal_allocation, reciprocal_allocation)


def grid_oracle_reciprocal(params: SystemParams, gamma: float,
                           resolution: int) -> ReciprocalSolution:
    """Exhaustive lattice search over (e_r, e_f, var_a); independent oracle.

    ``resolution`` points per axis over the constraint box.  Slower but
    assumption-free; the solver must win or tie on every instance.
    """
    if resolution < 50:
        raise ValueError("resolution < 50 is too coarse to be a useful oracle")
    p = params
    s, b_t, b_l = _budgets(p)
    s_eff = min(s, b_l + b_t)
    n_an = p.n_t - p.n_l

    er_axis = np.linspace(0.0, min(b_l, s_eff), resolution)
    ef_axis = np.linspace(0.0, min(b_t, s), resolution)
    an_energy_axis = np.linspace(0.0, min(b_t, s), resolution)  # (n_t-n_l)*var_a*tau_f
    var_a_axis = an_energy_axis / (n_an * p.tau_f)

    # UR-side quantities do not depend on e_r; precompute the plane.
    ur_noise = p.var_g * n_an * var_a_axis + p.var_v
    nmse_u = 1.0 / (1.0 / p.var_g + (ef_axis[:, None] / p.n_t) / ur_noise[None, :])
    floor_ok = nmse_u >= gamma * (1 - ACTIVE_RTOL)
    tx_ok = ef_axis[:, None] + an_energy_axis[None, :] <= b_t * (1 + ACTIVE_RTOL)

    best_val = np.inf
    best = None
    for e_r in er_axis:
        if e_r > b_l * (1 + ACTIVE_RTOL):
            break
        errv = 1.0 / (1.0 / p.var_h + e_r / (p.n_l * p.var_wt))
        r_eff = n_an * var_a_axis * errv + p.var_w
        nmse_l = 1.0 / (1.0 / p.var_h + (ef_axis[:, None] / p.n_t) / r_eff[None, :])
        avg_ok = (e_r + ef_axis[:, None] + an_energy_axis[None, :]
                  <= s * (1 + ACTIVE_RTOL))
        mask = floor_ok & tx_ok & avg_ok
        if not mask.any():
            continue
        masked = np.where(mask, nmse_l, np.inf)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        if masked[i, j] < best_val:
            best_val = float(masked[i, j])
            best = (float(e_r), float(ef_axis[i]), float(var_a_axis[j]))
    if best is None:
        raise NoFeasiblePoint(
            "no lattice point satisfies the budgets and the UR floor; "
            "check gamma or refine the grid")
    alloc = reciprocal_allocation(*best)
    return ReciprocalSolution(
        alloc=alloc, objective=best_val, branch="grid",
        active_constraints=_active_constraints(p, gamma, alloc),
    )


def grid_oracle_nonreciprocal(params: SystemParams, gamma: float,
                              resolution: int = 20) -> PowerAllocation:
    """Lattice minimizer of the sigma-squared surrogate of the LR NMSE, the
    objective ``condense`` optimizes; NoFeasiblePoint when no point fits.

    The axes, linspace(0, cap, resolution+1) over (e_0, e_1, e_2), nest as
    the resolution doubles; one (e_1, e_2) plane is scored per e_0 and the
    first minimum kept.  Each point splits R = min(B_t - e_0, S - e_0 - e_1
    - e_2) exactly into pilots e_3 and AN energy a*n_t, a = (n_t - n_l)*var_a:
    the LR score (e_3/n_t)/(a*resid + var_w) grows with e_3, the UR floor
    caps e_3 at gt*(var_g*a/var_v + 1), along that cap the score rises with
    a iff the AN leakage resid < var_g*var_w/var_v, and once R binds more AN
    only costs pilots.  So a = max(R - gt, 0)/(n_t + var_g*gt/var_v) under
    that condition, else 0, and e_3 = min(R, gt)*(var_g*a/var_v + 1), as in
    ``alloc_reciprocal`` with n_t forward slots.
    """
    if resolution < 20:
        raise ValueError("resolution < 20 is too coarse to be a useful oracle")
    p = params
    s, b_t, b_l = (p.budget_average_nonreciprocal(), p.budget_tx_nonreciprocal(),
                   p.budget_lr_nonreciprocal())
    gt = gamma_tilde(p, gamma)
    e_1 = np.linspace(0.0, min(s, b_l), resolution + 1)[:, None]
    e_2 = e_1.T
    lr_ok = (e_1 + e_2) <= b_l * (1 + 1e-9)
    # alpha**2 * t0 = e_1/(n_t*n_l): the Jensen factor lives on the (e_1, e_2)
    # plane, and beta is infinite (the factor 0) at e_1 = 0
    sigma2 = sigma_sq_uplink(p, e_2)
    with np.errstate(divide="ignore"):
        beta = p.n_l * tx_error_var_uplink(p, e_2) + p.n_t * p.n_l * p.var_wt / e_1
    best_val, best = np.inf, None
    for e_0 in np.linspace(0.0, min(s, b_t), resolution + 1):
        resid = leakage_residual(p, e_0, beta, sigma2)
        rest = np.minimum(b_t - e_0, s - e_0 - e_1 - e_2)
        # gamma >= var_g makes gt <= 0 and e_3 negative, inf or nan: masked below
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.maximum(rest - gt, 0.0) / (p.n_t + p.var_g * gt / p.var_v)
            a = np.where(resid < p.var_g * p.var_w / p.var_v, a, 0.0)
            e_3 = np.minimum(rest, gt) * (p.var_g * a / p.var_v + 1.0)
            nmse_u = lmmse_error_var(p.var_g, e_3, p.n_t, a * p.var_g + p.var_v)
            ok = lr_ok & (rest >= 0) & (e_3 >= 0) & (nmse_u >= gamma * (1 - 1e-9))
            nmse_l = np.where(ok, lmmse_error_var(p.var_hd, e_3, p.n_t,
                                                  a * resid + p.var_w), np.inf)
        k = np.unravel_index(np.argmin(nmse_l), nmse_l.shape)
        if nmse_l[k] < best_val:
            best_val = float(nmse_l[k])
            best = (float(e_0), float(e_1[k[0], 0]), float(e_2[0, k[1]]),
                    float(e_3[k]), float(a[k]) / (p.n_t - p.n_l))
    if best is None:
        raise NoFeasiblePoint("no lattice point satisfies the budgets and the UR floor")
    return nonreciprocal_allocation(*best)
