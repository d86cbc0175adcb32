"""Brute-force lattice oracles for both power allocations, the exact
spectral factor the echo scheme's Jensen surrogates stand in for, and the
LR NMSE of the surrogate ``condense`` optimizes; pytest puts this directory
on ``sys.path``, so tests import them as ``from oracles import ...``.

Each lattice oracle scores a lattice with the closed-form kernels alone and
calls no solver, so it stays an independent check on ``solve_reciprocal``
and ``condense``.  The spectral factor F, with the surrogates' factor and
miss beside it, is the reference the surrogates are checked against.
"""

from typing import Tuple

import numpy as np

from dce.alloc_reciprocal import (ACTIVE_RTOL, ReciprocalSolution,
                                  _active_constraints, _budgets)
from dce.errors import NoFeasiblePoint
from dce.nmse import (_surrogate_miss, downlink_beta, gamma_tilde,
                      leakage_residual, lmmse_error_var, sigma_sq_uplink,
                      tx_error_var_uplink)
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


# ---------------------------------------------------------------------------
# the exact spectral factor and the Jensen surrogates' factor and miss
# ---------------------------------------------------------------------------

# Most rows of the Laguerre Jacobi matrix the spectral factor folds in.  Its
# truncation error falls like exp(-4*sqrt(b*rows)): 100/b + 64 rows matched
# 10^6 rows to 2.2e-16 for b in [1e-3, 1e5] from 1x2 to 31x32, and twice that
# is kept.  At the cap, b < 2e-3, F is off by 1.2e-10 at most down to b = 1e-6.
MAX_SPECTRAL_ROWS = 100_000
JENSEN_VARIANTS = ("printed", "sigma-squared")


def _jensen_terms(params: SystemParams, alloc: PowerAllocation, variant: str):
    """(beta, s) of the surrogate n_t*s/(beta + n_t*s): s = sigma in the
    paper's ``printed`` one (the library's) and sigma^2, the uplink
    estimate's entry variance, in ``sigma-squared`` (``condense``'s)."""
    sigma2 = sigma_sq_uplink(params, alloc.e_2)
    s = (np.sqrt(sigma2), sigma2)[JENSEN_VARIANTS.index(variant)]   # ValueError if unknown
    return downlink_beta(params, alloc), s


def nmse_l_sigma_squared(params: SystemParams, alloc: PowerAllocation) -> float:
    """``nmse_l_nonreciprocal_approx`` under the sigma-squared surrogate."""
    beta, s = _jensen_terms(params, alloc, "sigma-squared")
    resid = float(leakage_residual(params, alloc.e_0, beta, s))
    r_eff = (params.n_t - params.n_l) * alloc.var_a * resid + params.var_w
    return lmmse_error_var(params.var_hd, alloc.e_3, params.n_t, r_eff)


def jensen_factor(params: SystemParams, alloc: PowerAllocation,
                  variant: str) -> float:
    r"""Surrogate ``variant`` for E{1/(beta/lambda + 1)} over the
    uplink-estimate spectrum; 0 without a usable round trip (alpha = 0 or
    e_2 = 0)."""
    beta, s = _jensen_terms(params, alloc, variant)
    if not np.isfinite(beta) or s == 0.0:
        return 0.0
    return float(params.n_t * s / (beta + params.n_t * s))


def jensen_miss(params: SystemParams, alloc: PowerAllocation, variant: str) -> float:
    """1 - jensen_factor(params, alloc, variant), without cancellation."""
    return float(_surrogate_miss(params.n_t, *_jensen_terms(params, alloc, variant)))


def _laguerre_parts(n_l: int, n_t: int, b: float) -> Tuple[float, float]:
    """(F, 1 - F) of ``spectral_factor`` at b = beta/sigma^2."""
    m, alpha = n_l, n_t - n_l
    rows = MAX_SPECTRAL_ROWS if b * MAX_SPECTRAL_ROWS < 200.0 else int(200.0 / b) + 129
    k = np.arange(m + rows - 1, m - 1, -1, dtype=float)
    g = 0.0   # ((J + bI) from row k on)^-1 [0, 0], from the truncated bottom up
    for diag, off_sq in zip((2 * k + alpha + 1 + b).tolist(),
                            ((k + 1) * (k + 1 + alpha)).tolist()):
        g = 1.0 / (diag - off_sq * g)
    j = np.arange(m, dtype=float)
    off = np.sqrt(j[1:] * (j[1:] + alpha))
    s = np.diag(2 * j + alpha + 1) + np.diag(off, 1) + np.diag(off, -1)
    s[-1, -1] -= m * (m + alpha) * g   # the tail, folded in
    mu = np.linalg.eigvalsh(s)
    return float(np.mean(mu / (mu + b))), float(np.mean(b / (mu + b)))


def spectral_factor(params: SystemParams, alloc: PowerAllocation) -> Tuple[float, float]:
    r"""The exact F = E{lambda/(lambda + beta)} the Jensen surrogates stand
    in for, and its miss 1 - F, each without cancellation.

    lambda is an unordered eigenvalue of Hu_hat Hu_hat^H (n_l x n_t entries
    i.i.d. CN(0, sigma^2)); lambda/sigma^2 has Telatar's (1999) Laguerre
    density of alpha = n_t - n_l.  With b = beta/sigma^2 and J the Jacobi
    matrix of the weight x^alpha e^-x (diagonal 2k + alpha + 1, off-diagonal
    sqrt(k(k + alpha))), 1 - F = (b/n_l) tr of the leading n_l x n_l block
    of (J + bI)^-1.  A backward continued fraction folds J's tail into that
    block, a Schur complement with eigenvalues mu > 0: F = mean(mu/(mu + b))
    and 1 - F = mean(b/(mu + b)); ``sigma-squared`` puts every mu at n_t.
    (0.0, 1.0) without a round trip (beta = inf or e_2 = 0).
    """
    sigma2 = sigma_sq_uplink(params, alloc.e_2)
    b = downlink_beta(params, alloc) / sigma2 if sigma2 > 0.0 else float("inf")
    if not np.isfinite(b):
        return 0.0, 1.0
    return _laguerre_parts(params.n_l, params.n_t, b)
