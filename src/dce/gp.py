r"""Non-reciprocal power allocation by successive geometric-programming
condensation.

Change of variables (all strictly positive at interior points):

    t0 = var_hd*e_0/n_t + var_w        round-trip downlink signal-plus-noise level
    t1 = alpha**2                      squared echo gain
    t2 = e_2/n_l                       uplink pilot energy per antenna
    t3 = e_3/n_t                       forward pilot energy per antenna
    t4 = (n_t-n_l)*var_a*var_g + var_v effective UR noise level
    t                                  estimation-quality score; the LR NMSE
                                       surrogate equals 1/(1/var_hd + t/var_w)

Maximizing t subject to the budget constraints is a generalized GP whose
single non-posynomial piece is the ratio constraint numer(x)/denom(x) <= 1.
Each outer iteration replaces denom by its best monomial under-estimator at
the current point (weights = log-gradient exponents, an AM-GM bound, hence
global under-estimation and tangency), leaving an ordinary GP that a
primal-dual interior-point routine solves to high accuracy, holding every
log-sum-exp constraint row as one stacked term matrix.  The matrix is
stacked once per solve: a round rewrites only the condensed ratio row's
terms, in place.  From the second round on, the previous round's KKT point,
polished on the new GP, usually passes the same certificate without the
interior-point solve.  Because the monomial never exceeds the true
denominator, every inner-feasible point is feasible for the original
problem, and the objective improves monotonically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import Infeasible, NotConverged, Stalled
from .nmse import (NON_RECIPROCAL, check_gamma, lmmse_error_var, t0_round_trip,
                   ur_effective_noise)
from .params import PowerAllocation, SystemParams, nonreciprocal_allocation

X_NAMES = ("t", "t0", "t1", "t2", "t3", "t4")
LOG_BOX = 60.0            # |log x_k| cage keeping the interior point bounded
RATIO_ACTIVITY_TOL = 1e-6
CONDENSE_TOL = 1e-6       # relative objective change that ends condensation
CONDENSE_MAX_ROUNDS = 50
KKT_TOL = 1e-8            # worst KKT violation an inner solve may return
PD_MU = 10.0              # primal-dual: t = PD_MU * m / (surrogate gap)
PD_ALPHA = 0.01           # primal-dual: residual decrease per unit step
PD_GAP_TOL = 1e-10        # primal-dual stop: surrogate duality gap ...
PD_FEAS_TOL = 1e-10       # ... and dual residual (max norm)
PD_MAX_ITER = 100
PHASE1_SLACK = -1e-3      # phase 1 stops once every row is this far inside


# ---------------------------------------------------------------------------
# state and problem data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GpState:
    """A point in the transformed variable space."""

    t: float
    t0: float
    t1: float
    t2: float
    t3: float
    t4: float

    def __post_init__(self):
        for name in X_NAMES:
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")

    def x(self) -> np.ndarray:
        return np.array([self.t, self.t0, self.t1, self.t2, self.t3, self.t4])


@dataclass(frozen=True)
class CondensationStep:
    expansion: Tuple[float, ...]
    thetas: Dict[str, float]
    optimum: Tuple[float, ...]
    objective: float


@dataclass
class CondensationTrace:
    steps: List[CondensationStep]
    converged: bool = False
    ratio_activity: float = float("nan")

    def objectives(self) -> List[float]:
        return [s.objective for s in self.steps]


@dataclass(frozen=True)
class NonReciprocalSolution:
    alloc: PowerAllocation
    objective: float
    state: GpState
    trace: CondensationTrace


@dataclass(frozen=True)
class Posynomial:
    """sum_i coeffs[i] * prod_k x_k**expo[i, k]; constraint sense is <= 1."""

    coeffs: np.ndarray
    expo: np.ndarray

    def value(self, x: np.ndarray) -> float:
        return float(self.coeffs
                     @ np.multiply.reduce(x[None, :] ** self.expo, axis=1))

    def log_data(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.log(self.coeffs), self.expo


def monomial(coeff: float, expo: Sequence[float]) -> Posynomial:
    return Posynomial(np.array([coeff], dtype=float),
                      np.asarray([expo], dtype=float))


# ---------------------------------------------------------------------------
# variable maps
# ---------------------------------------------------------------------------

def _quality_terms(params: SystemParams) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients/exponents (over t0,t1,t2 only) of the two echo-quality
    posynomials: f_num (weights the estimate side) and f_den (weights the
    noise side, i.e. f_num with a 1/var_w on the t0-free terms and the
    round-trip term divided by t0)."""
    p = params
    k = p.n_t * p.var_hu / p.var_wt
    num_c = np.array([p.n_l, k, 1.0, p.var_wt / p.var_hu])
    num_e = np.array([[1, 1, 0], [1, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=float)
    den_c = np.array([p.n_l / p.var_w, k, 1.0 / p.var_w,
                      p.var_wt / (p.var_hu * p.var_w)])
    den_e = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=float)
    return num_c, num_e, den_c, den_e


def _embed(expo3: np.ndarray, t_pow: float = 0.0, t3_pow: float = 0.0,
           t4_pow: float = 0.0) -> np.ndarray:
    """Lift exponents over (t0,t1,t2) into the full 6-variable space."""
    m = expo3.shape[0]
    out = np.zeros((m, 6))
    out[:, 0] = t_pow
    out[:, 1:4] = expo3
    out[:, 4] = t3_pow
    out[:, 5] = t4_pow
    return out


def ratio_parts(params: SystemParams) -> Tuple[Posynomial, Posynomial]:
    """Numerator and denominator posynomials of the quality-ratio constraint
    numer(x) <= denom(x); both have eight monomial terms."""
    p = params
    num_c, num_e, den_c, den_e = _quality_terms(params)
    lever = p.var_hd / p.var_g
    numer = Posynomial(
        np.concatenate([lever * den_c, num_c]),
        np.vstack([_embed(den_e, t_pow=1.0, t4_pow=1.0),
                   _embed(num_e, t_pow=1.0)]))
    denom = Posynomial(
        np.concatenate([num_c, p.var_v * lever * den_c]),
        np.vstack([_embed(num_e, t3_pow=1.0),
                   _embed(den_e, t_pow=1.0)]))
    return numer, denom


def quality_score(params: SystemParams, t0: float, t1: float, t2: float,
                  t3: float, t4: float) -> float:
    """Value of t that makes the quality ratio exactly active."""
    p = params
    num_c, num_e, den_c, den_e = _quality_terms(params)
    x3 = np.array([t0, t1, t2])
    f_num = float(num_c @ np.multiply.reduce(x3[None, :] ** num_e, axis=1))
    f_den = float(den_c @ np.multiply.reduce(x3[None, :] ** den_e, axis=1))
    lever = p.var_hd / p.var_g
    return t3 * f_num / (lever * (t4 - p.var_v) * f_den + f_num)


def to_gp_variables(params: SystemParams, alloc: PowerAllocation) -> GpState:
    """Map a physical allocation to the transformed variables.

    The score t is set so the quality ratio is active, which is where any
    optimum lives.
    """
    p = params
    t0 = t0_round_trip(p, alloc.e_0)
    t1 = alloc.e_1 / (p.n_t * p.n_l * t0)
    t2 = alloc.e_2 / p.n_l
    t3 = alloc.e_3 / p.n_t
    t4 = ur_effective_noise(p, alloc.var_a)
    t = quality_score(params, t0, t1, t2, t3, t4)
    return GpState(t, t0, t1, t2, t3, t4)


def from_gp_variables(params: SystemParams, state: GpState) -> PowerAllocation:
    """Invert the variable map back to physical powers (exact inverse)."""
    p = params

    def _clip(v: float, what: str) -> float:
        if v < -1e-8 * max(1.0, abs(v)):
            raise ValueError(f"{what} maps to a negative energy: {v}")
        return max(v, 0.0)

    e_0 = _clip(p.n_t * (state.t0 - p.var_w) / p.var_hd, "t0")
    e_1 = p.n_t * p.n_l * state.t0 * state.t1
    e_2 = p.n_l * state.t2
    e_3 = p.n_t * state.t3
    var_a = _clip((state.t4 - p.var_v) / ((p.n_t - p.n_l) * p.var_g), "t4")
    return nonreciprocal_allocation(e_0, e_1, e_2, e_3, var_a)


# ---------------------------------------------------------------------------
# condensation pieces
# ---------------------------------------------------------------------------

def denominator_exponents(denom: Posynomial, x_bar: np.ndarray) -> np.ndarray:
    """Log-gradient weights a_k = x_k * d(log denom)/d(x_k) at x_bar.

    These are the AM-GM weights: denom(x) >= denom(x_bar) * prod (x_k/x_bar_k)**a_k
    with equality (value and gradient) at x_bar.  For ``ratio_parts``'
    denominator every component lies in [0, 1], because each variable
    enters every term with exponent 0 or 1.
    """
    terms = denom.coeffs * np.multiply.reduce(x_bar[None, :] ** denom.expo, axis=1)
    total = terms.sum()
    if not (total > 0):
        raise ValueError("expansion point gives a vanishing denominator")
    return (terms / total) @ denom.expo


def condensed_ratio(numer: Posynomial, denom: Posynomial, x_bar: np.ndarray,
                    a: np.ndarray) -> Posynomial:
    """Posynomial form of numer(x)/denom_hat(x) <= 1, denom_hat being the
    monomial with exponents ``a`` that touches denom at x_bar."""
    d_bar = denom.value(x_bar)
    scale = d_bar * float(np.multiply.reduce(x_bar ** (-a)))
    return Posynomial(numer.coeffs / scale, numer.expo - a[None, :])


def budget_posynomials(params: SystemParams, gamma: float) -> List[Posynomial]:
    """The fixed (already posynomial) constraints: variable floors, the UR
    floor, and the three power budgets, each normalized to <= 1."""
    p = params
    offset = p.n_t * p.var_w / p.var_hd + p.n_t * p.var_v / p.var_g
    c1 = 1.0 / (1.0 / gamma - 1.0 / p.var_g)
    c2 = 1.0 / (p.budget_average_nonreciprocal() + offset)
    c3 = 1.0 / (p.budget_tx_nonreciprocal() + offset)
    c4 = 1.0 / p.budget_lr_nonreciprocal()
    e = np.eye(6)
    avg_c = np.array([p.n_t / p.var_hd, p.n_t * p.n_l, p.n_l, p.n_t,
                      p.n_t / p.var_g])
    avg_e = np.array([e[1], e[1] + e[2], e[3], e[4], e[5]])
    tx_c = np.array([p.n_t / p.var_hd, p.n_t, p.n_t / p.var_g])
    tx_e = np.array([e[1], e[4], e[5]])
    lr_c = np.array([p.n_t * p.n_l, p.n_l])
    lr_e = np.array([e[1] + e[2], e[3]])
    return [
        monomial(p.var_w, -e[1]),            # t0 >= var_w
        monomial(p.var_v, -e[5]),            # t4 >= var_v
        monomial(c1, e[4] - e[5]),           # UR floor: c1 * t3 / t4 <= 1
        Posynomial(c2 * avg_c, avg_e),       # average power
        Posynomial(c3 * tx_c, tx_e),         # transmitter power
        Posynomial(c4 * lr_c, lr_e),         # LR power
    ]


# ---------------------------------------------------------------------------
# inner GP solver (primal-dual interior point on one stacked term matrix)
# ---------------------------------------------------------------------------

class _Terms:
    """Every log-constraint row of an inner GP, stacked term by term.

    In log space each constraint is a log-sum-exp of affine terms, row j
    being f_j(y) = log sum_{i in j} exp(b_i + a_i.y) <= 0 (Boyd, Kim,
    Vandenberghe & Hassibi, "A tutorial on geometric programming", 2007).
    ``a`` (T x n) and ``b`` (T) hold the terms row after row: the posynomial
    constraints in order, then the safety cage |y_k| <= LOG_BOX as 2n
    one-term rows -LOG_BOX +/- y_k (k0+, k0-, k1+, ...).  Row j starts at
    term ``starts[j]``; ``row`` maps every term to its row.  A one-term row
    needs no special case: its log-sum is log(1) = 0, its softmax weight 1,
    its gradient its a and its centred term a - g exactly zero.
    """

    __slots__ = ("b", "a", "row", "starts", "m")

    def __init__(self, b: np.ndarray, a: np.ndarray, row: np.ndarray):
        self.b, self.a, self.row = b, a, row
        self.m = int(row[-1]) + 1
        self.starts = np.searchsorted(row, np.arange(self.m))

    @classmethod
    def stack(cls, constraints: Sequence[Posynomial], n: int) -> "_Terms":
        """The rows of ``constraints`` followed by the cage rows."""
        logs = [posy.log_data() for posy in constraints]
        cage = np.zeros((2 * n, n))
        cage[0::2], cage[1::2] = np.eye(n), -np.eye(n)
        sizes = [b.size for b, _ in logs] + [1] * (2 * n)
        return cls(np.concatenate([b for b, _ in logs] + [np.full(2 * n, -LOG_BOX)]),
                   np.vstack([a for _, a in logs] + [cage]),
                   np.repeat(np.arange(len(sizes)), sizes))

    def lifted(self) -> "_Terms":
        """Phase 1's rows over (y, s): f_j(y) - s <= 0, one column of -1."""
        return _Terms(self.b, np.hstack([self.a, -np.ones((self.b.size, 1))]),
                      self.row)

    def _log_sum(self, y: np.ndarray):
        z = self.b + self.a @ y
        z_max = np.maximum.reduceat(z, self.starts)
        w = np.exp(z - z_max[self.row])
        s = np.add.reduceat(w, self.starts)
        return z_max + np.log(s), w, s

    def parts(self, y: np.ndarray):
        """(f, the row gradients G (m x n), the terms' softmax weights p
        within their row, the centred terms D = a - G[row]); the solver hands
        it on to every later use at y, so copy f before writing into it."""
        return self.parts_from(self._log_sum(y))

    def parts_from(self, log_sum):
        """``parts`` of the point whose ``_log_sum`` is ``log_sum``."""
        f, w, s = log_sum
        p = w / s[self.row]
        g = np.add.reduceat(p[:, None] * self.a, self.starts)
        return f, g, p, self.a - g[self.row]

    def curvature(self, p: np.ndarray, d: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
        """sum_j weights_j * (Hessian of f_j) from ``parts``' p and D, the
        Hessian of row j being sum_{i in j} p_i d_i d_i^T."""
        return (d.T * (p * weights[self.row])) @ d


def _primal_dual(c_lin: np.ndarray, terms: _Terms, y: np.ndarray, parts,
                 watch: Optional[Tuple[_Terms, tuple]] = None):
    """Feasible-start primal-dual path following for min c.y s.t. f(y) <= 0
    (Boyd & Vandenberghe, *Convex Optimization*, 2004, section 11.7).

    From a strictly feasible ``y``, whose ``terms.parts`` are ``parts``,
    with lambda = -1/f, each iteration sets
    t = PD_MU * m / eta, eta = -f.lambda the surrogate duality gap, and
    takes one Newton step on the modified KKT residuals r_dual = c + G^T
    lambda and r_cent = -lambda*f - 1/t, the multipliers eliminated into one
    n x n system.  The step is 0.99 of the largest keeping lambda > 0,
    halved until every row is strictly feasible (value-only) and then until
    the residual norm falls by the factor 1 - PD_ALPHA * step.  Stops once
    eta <= PD_GAP_TOL and |r_dual| <= PD_FEAS_TOL, after PD_MAX_ITER
    iterations, or when the step vanishes.  The residual test reuses the
    feasibility test's log-sum.

    Phase 1 passes ``watch`` = (the original rows, their ``_log_sum`` at
    y without its slack coordinate).  Those rows are then evaluated once at
    every accepted iterate, and the loop also stops once each is below
    PHASE1_SLACK.  Returns (y, lambda, ``terms.parts(y)``, the watched
    rows' log-sum at y or None), so that no caller evaluates y again.
    """
    f, g, p, d = parts
    lam = -1.0 / f
    rows, watched = watch if watch is not None else (None, None)
    for _ in range(PD_MAX_ITER):
        if rows is not None and np.maximum.reduce(watched[0]) < PHASE1_SLACK:
            break
        gap = -float(f @ lam)
        r_dual = c_lin + g.T @ lam
        if gap <= PD_GAP_TOL and np.maximum.reduce(np.abs(r_dual)) <= PD_FEAS_TOL:
            break
        inv_t = gap / (PD_MU * terms.m)
        r_cent = -lam * f - inv_t
        norm = np.sqrt(r_dual @ r_dual + r_cent @ r_cent)
        hess = terms.curvature(p, d, lam) + (g.T * (-lam / f)) @ g
        rhs = -r_dual - g.T @ (r_cent / f)
        try:
            dy = np.linalg.solve(hess, rhs)
        except np.linalg.LinAlgError:
            dy = np.linalg.lstsq(hess + 1e-9 * np.eye(y.size), rhs, rcond=None)[0]
        dlam = (r_cent - lam * (g @ dy)) / f
        shrink = dlam < 0.0
        step = 0.99 * float(np.minimum.reduce(-lam[shrink] / dlam[shrink],
                                              initial=1.0))
        for _ in range(60):
            y_new = y + step * dy
            log_sum = terms._log_sum(y_new)
            if np.maximum.reduce(log_sum[0]) < 0.0:
                break
            step *= 0.5
        else:
            break
        for k in range(60):
            if k:
                y_new = y + step * dy
                log_sum = terms._log_sum(y_new)
            lam_new = lam + step * dlam
            f_new, g_new, p_new, d_new = terms.parts_from(log_sum)
            rd = c_lin + g_new.T @ lam_new
            rc = -lam_new * f_new - inv_t
            if np.sqrt(rd @ rd + rc @ rc) <= (1.0 - PD_ALPHA * step) * norm:
                break
            step *= 0.5
        else:
            break
        y, lam = y_new, lam_new
        f, g, p, d = f_new, g_new, p_new, d_new
        if rows is not None:
            watched = rows._log_sum(y[:-1])
    return y, lam, (f, g, p, d), watched


def _stationarity_system(c_lin: np.ndarray, terms: _Terms, act: np.ndarray,
                         parts, lam_a: np.ndarray):
    """Residual and derivatives of the active-set KKT equations at the point
    whose ``terms.parts`` are ``parts``.

    F stacks stationarity (c + sum lam_j grad f_j) over the log-constraint
    values f_j of the active rows ``act``; G holds the active gradients
    row-wise and h_sum the multiplier-weighted Hessian of the Lagrangian.
    """
    f, g, p, d = parts
    lam = np.zeros(terms.m)
    lam[act] = lam_a
    grads = g[act]
    residual = np.concatenate([c_lin + grads.T @ lam_a, f[act]])
    return residual, grads, terms.curvature(p, d, lam)


def _kkt_polish(c_lin: np.ndarray, terms: _Terms, y0: np.ndarray, lam0: np.ndarray,
                parts0):
    """Refine an interior-point end point, or the previous round's KKT
    point, to a true KKT point of this GP.

    An interior point keeps every active row a small slack away from zero
    and every inactive multiplier a little above it.  Here Newton's method
    is applied to the active-set KKT system (stationarity + active
    constraints at equality), dropping any constraint whose multiplier
    converges negative and adding back the most violated row outside the
    set, one change per re-solve.  Each point's ``terms.parts`` is computed
    once and handed on: ``parts0`` are y0's, and an accepted trial's system
    is the next iteration's.  Returns (y, full multiplier vector,
    ``terms.parts(y)``), or (y0, lam0, parts0) as given when refinement
    fails.
    """
    n = y0.size
    m = terms.m
    lam_scale = max(float(np.maximum.reduce(lam0)), 1.0)
    act = np.flatnonzero((parts0[0] >= -1e-5) | (lam0 >= 1e-6 * lam_scale))
    for _ in range(m + 1):
        if not act.size:
            break
        y, parts = y0.copy(), parts0
        lam_a = np.maximum(lam0[act], 1e-12)
        converged = False
        norm_prev = np.inf
        kkt_mat = np.zeros((n + act.size, n + act.size))
        system = _stationarity_system(c_lin, terms, act, parts, lam_a)
        for it in range(60):
            big_f, grads, h_sum = system
            norm_f = float(np.maximum.reduce(np.abs(big_f)))
            if norm_f <= 1e-12:
                converged = True
                break
            if it > 0 and norm_f >= 0.9999 * norm_prev:
                break
            norm_prev = norm_f
            kkt_mat[:n, :n] = h_sum
            kkt_mat[:n, n:] = grads.T
            kkt_mat[n:, :n] = grads
            try:
                d = np.linalg.solve(kkt_mat, -big_f)
                if not np.logical_and.reduce(np.isfinite(d)):
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError:
                d = np.linalg.lstsq(kkt_mat, -big_f, rcond=None)[0]
            step = 1.0
            for _ in range(25):
                y_try = y + step * d[:n]
                lam_try = lam_a + step * d[n:]
                parts_try = terms.parts(y_try)
                trial = _stationarity_system(c_lin, terms, act, parts_try, lam_try)
                if float(np.maximum.reduce(np.abs(trial[0]))) < norm_f:
                    break
                step *= 0.5
            else:
                break
            y, lam_a, parts, system = y_try, lam_try, parts_try, trial
        if not converged:
            break
        if float(np.minimum.reduce(lam_a)) < -1e-11:
            act = np.delete(act, np.argmin(lam_a))
            continue
        f_out = parts[0].copy()
        f_out[act] = -np.inf
        if np.maximum.reduce(f_out) > 0.0:
            # a dropped (or never admitted) row is now violated: put the worst back
            act = np.sort(np.append(act, np.argmax(f_out)))
            continue
        lam_full = np.zeros(m)
        lam_full[act] = np.maximum(lam_a, 0.0)
        return y, lam_full, parts
    return y0, lam0, parts0


def _kkt_certificate(c_lin: np.ndarray, parts, lam: np.ndarray):
    """Worst violation across all four KKT conditions at the point whose
    ``terms.parts`` are ``parts``, plus its log-constraint values."""
    f, g, _, _ = parts
    residual = c_lin + g.T @ lam
    comp = float(np.maximum.reduce(np.abs(lam * f)))
    primal = float(np.maximum.reduce(f))
    dual = max(0.0, -float(np.minimum.reduce(lam)))
    kkt = max(float(np.maximum.reduce(np.abs(residual))), comp,
              max(primal, 0.0), dual)
    return kkt, comp, f


def _certified(c_lin: np.ndarray, terms: _Terms, n_posy: int, y: np.ndarray,
               lam: np.ndarray, parts) -> Tuple[np.ndarray, Dict[str, object]]:
    """Polish (y, lam) to a KKT point and certify it: (x, info) when the
    KKT residual is within KKT_TOL and every posynomial is <= 1 + 1e-8,
    else NotConverged carrying the best iterate.  ``parts`` are
    ``terms.parts(y)``.  ``info`` keeps the log-point ``y`` and the full
    multiplier vector ``lam``.  The certificate reads the row values and
    gradients the polish last computed at ``y``."""
    # Cold end points certify unpolished too, with the same pool outcomes,
    # but the polish stays: without it the edge and interior starts differ
    # by 3.6e-12 and the pinned condense panel moves (1.6 dB t1 by 2.0e-13).
    y, lam, parts = _kkt_polish(c_lin, terms, y, lam, parts)
    kkt, comp, f_all = _kkt_certificate(c_lin, parts, lam)
    x_opt = np.exp(y)
    info = {
        "kkt_residual": kkt,
        "duality_gap": comp,
        "objective": float(np.multiply.reduce(x_opt ** c_lin)),
        "constraint_values": np.exp(f_all[:n_posy]),
        "y": y,
        "lam": lam,
    }
    if kkt > KKT_TOL or np.logical_or.reduce(info["constraint_values"] > 1 + 1e-8):
        raise NotConverged(f"inner solve stopped with KKT residual {kkt:.3e} "
                           f"(tolerance {KKT_TOL:.1e})", best=(x_opt, info))
    return x_opt, info


def solve_inner_gp(terms: _Terms, objective: Sequence[float],
                   start: Sequence[float]) -> Tuple[np.ndarray, Dict[str, object]]:
    """Solve min prod x**objective s.t. each posynomial <= 1, x > 0, the
    posynomials' rows and the cage rows being ``terms``
    (``_Terms.stack(constraints, n)``).

    Primal-dual interior point in log space: with y = log x every
    constraint becomes a log-sum-exp function and the monomial objective
    becomes linear, so the problem is smooth and convex.  A start less than
    1e-9 inside some row first runs phase 1, ``_primal_dual`` on the lifted
    rows f_j(y) - s <= 0 minimizing s, until every row is PHASE1_SLACK
    inside; Infeasible when the slack stays >= -1e-9.  ``_primal_dual``
    then follows the central path from there, and its end point and
    multipliers are polished and certified by ``_certified``.  Each point's
    rows are evaluated once and handed on: the start's to phase 1's first
    stop test (or to phase 2), phase 1's last stop test's to the slack
    test and phase 2, and phase 2's last step score's to the polish.
    """
    x0 = np.asarray(start, dtype=float)
    if (np.logical_or.reduce(x0 <= 0)
            or not np.logical_and.reduce(np.isfinite(x0))):
        raise ValueError("start must be strictly positive and finite")
    n = x0.size
    c_lin = np.asarray(objective, dtype=float)
    if c_lin.size != n:
        raise ValueError("objective exponent vector length must match start")
    y = np.log(x0)
    log_sum = terms._log_sum(y)
    start_slack = float(np.maximum.reduce(log_sum[0]))

    if start_slack > -1e-9:
        # phase 1: min s subject to f_j(y) <= s, over (y, s)
        lifted = terms.lifted()
        z = np.append(y, start_slack + 1.0)
        c_s = np.zeros(n + 1)
        c_s[-1] = 1.0
        z, _, _, log_sum = _primal_dual(c_s, lifted, z, lifted.parts(z),
                                        watch=(terms, log_sum))
        slack = float(np.maximum.reduce(log_sum[0]))
        if slack >= -1e-9:
            raise Infeasible(
                "no strictly feasible point exists for the inner geometric "
                f"program (best constraint slack {slack:.3e})")
        y = z[:n]

    y, lam, parts, _ = _primal_dual(c_lin, terms, y, terms.parts_from(log_sum))
    return _certified(c_lin, terms, terms.m - 2 * n, y, lam, parts)


def _warm_inner_gp(terms: _Terms, objective: Sequence[float],
                   prev: Dict[str, object]) -> Optional[Tuple[np.ndarray, Dict[str, object]]]:
    """The inner GP of ``terms`` solved from the previous round's certified
    KKT point ``prev["y"], prev["lam"]`` by the active-set polish alone;
    None when the result fails the certificate a cold solve must pass."""
    c_lin = np.asarray(objective, dtype=float)
    try:
        return _certified(c_lin, terms, terms.m - 2 * c_lin.size, prev["y"],
                          prev["lam"], terms.parts(prev["y"]))
    except NotConverged:
        return None


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------

def initial_feasible_state(params: SystemParams, gamma: float) -> GpState:
    """Heuristic interior start: split the average budget evenly over the
    four training energies, pick the smallest AN variance that meets the UR
    floor, then shrink everything until all budgets hold strictly."""
    p = params
    s = p.budget_average_nonreciprocal()
    b_t = p.budget_tx_nonreciprocal()
    b_l = p.budget_lr_nonreciprocal()
    e = s / 4.0
    t4_needed = (e / p.n_t) * (1.0 / gamma - 1.0 / p.var_g)
    var_a = max(0.0, (t4_needed - p.var_v) / ((p.n_t - p.n_l) * p.var_g))
    for _ in range(200):
        an = (p.n_t - p.n_l) * var_a * p.n_t
        ok = (4 * e + an <= s * (1 - 1e-3)
              and 2 * e + an <= b_t * (1 - 1e-3)
              and 2 * e <= b_l * (1 - 1e-3))
        if ok:
            break
        e *= 0.95
        var_a *= 0.95
    alloc = nonreciprocal_allocation(e, e, e, e, var_a)
    return to_gp_variables(params, alloc)


def condense(params: SystemParams, gamma: float, start: Optional[GpState] = None,
             ) -> NonReciprocalSolution:
    """Successive condensation until the objective stops improving.

    Each round linearizes only the denominator of the quality-ratio
    constraint (in log space), solves the resulting GP, and re-expands at
    the optimum.  The GP's rows are stacked once per call, the quality
    ratio's row first: each round rewrites only that row's eight terms in
    place, so the row layout never changes.  From round 2 on the GP is first
    solved warm, by the KKT polish started at the previous round's certified
    (y, lambda); a warm result that fails the certificate falls back to the
    cold interior-point solve from x_bar.  The monomial under-estimates the
    true denominator everywhere, so iterates stay feasible for the original
    problem and the score increases monotonically; a decrease raises
    Stalled, as does a final point that violates the original ratio.  The
    objective is the sigma-squared Jensen surrogate of the LR NMSE, i.e.
    ``nmse_l_nonreciprocal_approx(params, alloc, "sigma-squared")`` of the
    returned allocation up to the inner solver's tolerance.
    """
    check_gamma(params, gamma, NON_RECIPROCAL)
    if start is None:
        start = initial_feasible_state(params, gamma)
    x_bar = start.x()
    fixed = budget_posynomials(params, gamma)
    numer, denom = ratio_parts(params)
    objective = np.array([-1.0, 0, 0, 0, 0, 0])

    # the ratio row's terms (numer's, until the first round rewrites them)
    ratio_row = slice(0, numer.coeffs.size)
    terms = _Terms.stack([numer] + fixed, 6)

    trace = CondensationTrace(steps=[])
    nmse_prev = None
    info = None
    for _ in range(CONDENSE_MAX_ROUNDS):
        a = denominator_exponents(denom, x_bar)
        terms.b[ratio_row], terms.a[ratio_row] = (
            condensed_ratio(numer, denom, x_bar, a).log_data())
        warm = None if info is None else _warm_inner_gp(terms, objective, info)
        x_opt, info = (warm if warm is not None
                       else solve_inner_gp(terms, objective, x_bar))
        nmse = lmmse_error_var(params.var_hd, x_opt[0], 1, params.var_w)
        trace.steps.append(CondensationStep(
            expansion=tuple(x_bar.tolist()),
            thetas=dict(zip(X_NAMES, a.tolist())),
            optimum=tuple(x_opt.tolist()),
            objective=nmse,
        ))
        if nmse_prev is not None:
            if nmse > nmse_prev * (1 + 1e-9):
                raise Stalled(
                    f"objective worsened from {nmse_prev:.12g} to {nmse:.12g}; "
                    "the surrogate no longer under-estimates the denominator")
            if abs(nmse - nmse_prev) <= CONDENSE_TOL * nmse_prev:
                trace.converged = True
                x_bar = x_opt
                break
        nmse_prev = nmse
        x_bar = x_opt

    ratio = numer.value(x_bar) / denom.value(x_bar)
    trace.ratio_activity = float(ratio)
    if ratio > 1 + RATIO_ACTIVITY_TOL:
        raise Stalled(
            f"final point violates the original quality ratio ({ratio:.8f} > 1); "
            "condensation was not conservative")

    state = GpState(*(float(v) for v in x_bar))
    alloc = from_gp_variables(params, state)
    return NonReciprocalSolution(
        alloc=alloc,
        objective=trace.steps[-1].objective,
        state=state,
        trace=trace,
    )
