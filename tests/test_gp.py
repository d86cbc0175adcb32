"""Geometric-programming route for the echo-based scheme: variable maps,
condensation weights, inner primal-dual solver, outer loop, lattice oracle.

The scipy reference solves in this file are the independent second route for
the inner solver; the library itself never imports scipy.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from dce import gp
from dce.errors import Infeasible, NoFeasiblePoint, NotConverged, Stalled
from dce.gp import (
    LOG_BOX,
    GpState,
    Posynomial,
    X_NAMES,
    _Terms,
    budget_posynomials,
    condense,
    condensed_ratio,
    denominator_exponents,
    from_gp_variables,
    initial_feasible_state,
    monomial,
    quality_score,
    ratio_parts,
    solve_inner_gp,
    to_gp_variables,
)
from dce.nmse import gamma_tilde, nmse_l_nonreciprocal_approx, nmse_u
from dce.params import default_params, nonreciprocal_allocation
from oracles import grid_oracle_nonreciprocal

GOLDEN_PANEL = json.loads(
    (Path(__file__).parent / "golden" / "condense_panel.json").read_text())


def _condensed_at(params, x_bar):
    """The production condensation of the quality ratio at ``x_bar``."""
    numer, denom = ratio_parts(params)
    return condensed_ratio(numer, denom, x_bar, denominator_exponents(denom, x_bar))


def _sigma_squared(params, alloc):
    """The LR NMSE surrogate condensation and the lattice oracle minimize."""
    return nmse_l_nonreciprocal_approx(params, alloc, "sigma-squared")


def _random_alloc(rng):
    return nonreciprocal_allocation(
        float(rng.uniform(1.0, 100.0)),
        float(rng.uniform(1.0, 100.0)),
        float(rng.uniform(1.0, 100.0)),
        float(rng.uniform(1.0, 100.0)),
        float(rng.uniform(0.0, 5.0)),
    )


# ---------------------------------------------------------------------------
# variable maps
# ---------------------------------------------------------------------------

def test_to_gp_variables_frozen_point(defaults):
    # direct-substitution oracle frozen before implementation
    st = to_gp_variables(defaults, nonreciprocal_allocation(10, 10, 10, 10, 0.5))
    assert st.t == pytest.approx(1.70421511627907, rel=1e-12)
    assert st.t0 == pytest.approx(3.5)
    assert st.t1 == pytest.approx(5.0 / 14.0)
    assert st.t2 == pytest.approx(5.0)
    assert st.t3 == pytest.approx(2.5)
    assert st.t4 == pytest.approx(2.0)


def test_to_gp_variables_degenerate_corners(defaults):
    no_probe = to_gp_variables(defaults, nonreciprocal_allocation(0, 1, 1, 1, 0))
    assert no_probe.t0 == pytest.approx(defaults.var_w)
    assert no_probe.t4 == pytest.approx(defaults.var_v)


def test_variable_map_round_trip(defaults, rng):
    for _ in range(100):
        alloc = _random_alloc(rng)
        back = from_gp_variables(defaults, to_gp_variables(defaults, alloc))
        for field in ("e_0", "e_1", "e_2", "e_3", "var_a"):
            np.testing.assert_allclose(getattr(back, field),
                                       getattr(alloc, field), rtol=1e-12)


def test_from_gp_variables_rejects_sub_noise_levels(defaults):
    with pytest.raises(ValueError):
        from_gp_variables(defaults, GpState(1.0, defaults.var_w / 2, 1, 1, 1,
                                            defaults.var_v))


def test_gp_state_validation():
    with pytest.raises(ValueError):
        GpState(1.0, -1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        GpState(np.nan, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_quality_score_activates_ratio(defaults, rng):
    """t from quality_score makes numer(x) == denom(x) exactly."""
    numer, denom = ratio_parts(defaults)
    for _ in range(50):
        alloc = _random_alloc(rng)
        x = to_gp_variables(defaults, alloc).x()
        np.testing.assert_allclose(numer.value(x), denom.value(x), rtol=1e-10)


# ---------------------------------------------------------------------------
# condensation surrogate
# ---------------------------------------------------------------------------

def test_theta_exponents_frozen_point(defaults):
    a = denominator_exponents(ratio_parts(defaults)[1], np.ones(6))
    assert dict(zip(X_NAMES, a)) == pytest.approx(
        {"t": 0.5, "t0": 0.5, "t1": 0.75, "t2": 0.625, "t3": 0.5, "t4": 0.0})


def test_theta_exponents_in_unit_interval(defaults, rng):
    for _ in range(200):
        x = rng.uniform(0.05, 20.0, size=6)
        a = denominator_exponents(ratio_parts(defaults)[1], x)
        assert np.all(a >= 0.0) and np.all(a <= 1.0)


def test_theta_concentrates_when_t3_vanishes(defaults):
    thin = GpState(1.0, 1.0, 1.0, 1.0, 1e-14, 1.0)
    a = dict(zip(X_NAMES, denominator_exponents(ratio_parts(defaults)[1], thin.x())))
    assert a["t3"] == pytest.approx(0.0, abs=1e-12)
    assert a["t"] == pytest.approx(1.0, abs=1e-12)


def test_condensed_ratio_tangent_and_conservative(defaults, rng):
    """Equal value at the expansion point; never below the true ratio
    elsewhere (so feasibility transfers to the original constraint)."""
    numer, denom = ratio_parts(defaults)
    for _ in range(20):
        x_bar = rng.uniform(0.1, 10.0, size=6)
        hat = condensed_ratio(numer, denom, x_bar, denominator_exponents(denom, x_bar))
        true_bar = numer.value(x_bar) / denom.value(x_bar)
        np.testing.assert_allclose(hat.value(x_bar), true_bar, rtol=1e-10)
        for _ in range(500):
            x = x_bar * rng.uniform(0.2, 5.0, size=6)
            assert hat.value(x) >= numer.value(x) / denom.value(x) - 1e-12


def test_condensed_ratio_gradient_tangency(defaults, rng):
    """Central finite differences of log(hat) and log(true ratio) agree at
    the expansion point to 1e-6 in every coordinate."""
    numer, denom = ratio_parts(defaults)
    x_bar = rng.uniform(0.5, 3.0, size=6)
    hat = condensed_ratio(numer, denom, x_bar, denominator_exponents(denom, x_bar))
    h = 1e-6
    for k in range(6):
        up, dn = x_bar.copy(), x_bar.copy()
        up[k] *= 1 + h
        dn[k] *= 1 - h
        g_hat = (np.log(hat.value(up)) - np.log(hat.value(dn))) / (2 * h)
        g_true = (np.log(numer.value(up) / denom.value(up))
                  - np.log(numer.value(dn) / denom.value(dn))) / (2 * h)
        assert g_hat == pytest.approx(g_true, abs=1e-5)


# ---------------------------------------------------------------------------
# inner solver
# ---------------------------------------------------------------------------

def test_inner_solver_scalar_toy():
    x, info = solve_inner_gp(_Terms.stack([monomial(0.5, [-1.0])], 1), [1.0], [3.0])
    assert x[0] == pytest.approx(0.5, abs=1e-6)
    assert info["kkt_residual"] <= 1e-8
    # min 1/x subject to 2x <= 1, from the other side of the optimum
    x, info = solve_inner_gp(_Terms.stack([monomial(2.0, [1.0])], 1), [-1.0], [0.1])
    assert x[0] == pytest.approx(0.5, abs=1e-6)
    assert info["kkt_residual"] <= 1e-8


def test_inner_solver_two_variable_toy():
    cons = [monomial(0.5, [-1.0, 0.0]), monomial(0.5, [0.0, -1.0])]
    x, _ = solve_inner_gp(_Terms.stack(cons, 2), [1.0, 1.0], [2.0, 7.0])
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-5)
    # min 1/(xy) subject to x + y <= 1: one row with two terms
    cons = [Posynomial(np.array([1.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))]
    x, _ = solve_inner_gp(_Terms.stack(cons, 2), [-1.0, -1.0], [0.2, 0.6])
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-5)


def test_inner_solver_input_validation():
    terms = _Terms.stack([monomial(0.5, [-1.0])], 1)
    with pytest.raises(ValueError):
        solve_inner_gp(terms, [1.0], [-1.0])
    with pytest.raises(ValueError):
        solve_inner_gp(terms, [1.0, 2.0], [1.0])


def test_inner_solver_against_scipy_reference(defaults):
    """Second route: the same log-space program handed to SLSQP.  Objectives
    must agree to 1e-5 relative on a production-sized instance."""
    gamma = 0.1
    start = initial_feasible_state(defaults, gamma)
    constraints = ([_condensed_at(defaults, start.x())]
                   + budget_posynomials(defaults, gamma))
    objective = np.array([-1.0, 0, 0, 0, 0, 0])
    x_mine, info = solve_inner_gp(_Terms.stack(constraints, 6), objective,
                                  start.x())

    logs = [c.log_data() for c in constraints]

    def neg_log_t(y):
        return objective @ y

    cons_scipy = [
        {"type": "ineq",
         "fun": (lambda y, b=b, a=a:
                 -(np.log(np.exp(b + a @ y).sum())))}
        for b, a in logs
    ]
    ref = minimize(neg_log_t, np.log(start.x()), method="SLSQP",
                   constraints=cons_scipy,
                   options={"maxiter": 400, "ftol": 1e-12})
    assert ref.success
    np.testing.assert_allclose(np.log(info["objective"]), ref.fun, atol=1e-5)


def _interior_point(params, gamma):
    """Constraints of the production condensed problem (ratio, floors,
    budgets), their stacked terms (the cage rows follow) and a strictly
    interior point: the start with t halved (the ratio row was active there)
    and the other variables cut by 10% (the average budget was nearly
    active)."""
    start = initial_feasible_state(params, gamma)
    constraints = ([_condensed_at(params, start.x())]
                   + budget_posynomials(params, gamma))
    terms = _Terms.stack(constraints, 6)
    y = np.log(start.x())
    y[0] -= math.log(2.0)
    y[1:] += math.log(0.9)
    assert terms._log_sum(y)[0].max() < -0.05
    return constraints, terms, y


def _lifted_point(terms, y, slack):
    """Phase 1's lifted rows f_j(y) - s <= 0 and its objective (min s) at
    (y, s), with s the largest row value plus ``slack``."""
    s = terms._log_sum(y)[0].max() + slack
    c_lin = np.zeros(7)
    c_lin[-1] = 1.0
    return terms.lifted(), c_lin, np.concatenate([y, [s]])


@pytest.mark.parametrize("lifted, t", [(False, 1.0), (False, 8000.0),
                                       (True, 1.0), (True, 20.0)],
                         ids=["main-1", "main-8000", "lifted-1", "lifted-20"])
def test_lagrangian_derivatives_match_central_differences(defaults, lifted, t):
    """Gradient c + G^T lambda and Hessian ``curvature(p, D, lambda)`` of the
    Lagrangian c.y + lambda.f(y), which the primal-dual Newton system is
    built from, against central differences of its value, at central-path
    multipliers lambda = -1/(t f), on the production problem (multi- and
    single-term rows) and on phase 1's lift, whose slack entry, row and
    column collect a term from every row (further out on the lift the
    slack's linear term s ~ 1 dominates the value, and the differences'
    rounding, ~1e-16 / h**2, swamps the curvature)."""
    _, terms, y = _interior_point(defaults, 0.1)
    c_lin = np.array([-1.0, 0, 0, 0, 0, 0])
    if lifted:
        terms, c_lin, y = _lifted_point(terms, y, 1.0)
    f, g, p, d = terms.parts(y)
    lam = -1.0 / (t * f)
    grad = c_lin + g.T @ lam
    hess = terms.curvature(p, d, lam)

    def lagrangian(step):
        return float(c_lin @ (y + step)) + float(lam @ terms._log_sum(y + step)[0])

    n = y.size
    h, e = 1e-4, np.eye(n)
    fd_grad = np.array([(lagrangian(h * e[k]) - lagrangian(-h * e[k])) / (2 * h)
                        for k in range(n)])
    fd_hess = np.array([[(lagrangian(h * (e[k] + e[l]))
                          - lagrangian(h * (e[k] - e[l]))
                          - lagrangian(h * (e[l] - e[k]))
                          + lagrangian(-h * (e[k] + e[l])))
                         / (4 * h * h) for l in range(n)] for k in range(n)])
    np.testing.assert_allclose(fd_grad, grad, rtol=1e-6,
                               atol=1e-7 * np.abs(grad).max())
    np.testing.assert_allclose(fd_hess, hess, rtol=1e-4,
                               atol=1e-5 * np.abs(hess).max())


@pytest.mark.parametrize("lifted", [False, True], ids=["main", "lifted"])
def test_values_equal_parts_bit_for_bit(defaults, lifted):
    """The row values of the log-sum alone, which the primal-dual
    feasibility test reads, equal the full evaluation's bit for bit at 50
    random interior points."""
    _, terms, y0 = _interior_point(defaults, 0.1)
    if lifted:
        terms, _, y0 = _lifted_point(terms, y0, 1.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        y = y0 + rng.normal(scale=0.05, size=y0.size)
        f = terms.parts(y)[0]
        assert f.max() < 0.0
        assert np.array_equal(terms._log_sum(y)[0], f)


def _log_rows(constraints, n, lifted):
    """Reference rows (b, a), one per constraint and then the cage rows
    -LOG_BOX + y_k, -LOG_BOX - y_k for each k; ``lifted`` appends phase 1's
    slack column of -1."""
    rows = [c.log_data() for c in constraints]
    for k in range(n):
        for sign in (1.0, -1.0):
            a = np.zeros((1, n))
            a[0, k] = sign
            rows.append((np.array([-LOG_BOX]), a))
    if lifted:
        rows = [(b, np.hstack([a, -np.ones((a.shape[0], 1))])) for b, a in rows]
    return rows


def _row_loop_reference(rows, y, lam):
    """Reference: row values, gradients and the multiplier-weighted Hessian
    sum as a loop over single rows, each a log-sum-exp with its own softmax
    gradient and Hessian."""
    n = y.size
    f, g = np.zeros(len(rows)), np.zeros((len(rows), n))
    hess = np.zeros((n, n))
    for j, (b, a) in enumerate(rows):
        z = b + a @ y
        w = np.exp(z - z.max())
        p = w / w.sum()
        f[j] = float(z.max() + math.log(w.sum()))
        g[j] = a.T @ p
        hess += lam[j] * ((a.T * p) @ a - np.outer(g[j], g[j]))
    return f, g, hess


@pytest.mark.parametrize("phase1", [False, True], ids=["main", "phase1"])
def test_terms_match_row_loop_reference(defaults, phase1):
    """The stacked term matrix gives the row values, row gradients and
    multiplier-weighted curvature of a per-row log-sum-exp loop to 1e-12
    relative, at 200 random interior points with central-path multipliers
    -1/(t f) for t from 1 to 20**8, for the main problem and for phase 1's
    lift, where any y is interior for a large enough slack (so y spreads
    wider there, and slacks take both signs)."""
    constraints, terms, y0 = _interior_point(defaults, 0.1)
    rows = _log_rows(constraints, 6, phase1)
    rng = np.random.default_rng(29)
    for i in range(200):
        y = y0 + rng.normal(scale=2.0 if phase1 else 0.05, size=6)
        if phase1:
            b_terms, _, z = _lifted_point(terms, y, float(rng.uniform(0.01, 2.0)))
        else:
            b_terms, z = terms, y
        f, g, p, d = b_terms.parts(z)
        assert f.max() < 0.0
        lam = -1.0 / (20.0 ** (i % 9) * f)
        ref_f, ref_g, ref_hess = _row_loop_reference(rows, z, lam)
        hess = b_terms.curvature(p, d, lam)
        assert np.abs(f - ref_f).max() <= 1e-12 * np.abs(ref_f).max()
        assert np.abs(g - ref_g).max() <= 1e-12 * np.abs(ref_g).max()
        assert np.abs(hess - ref_hess).max() <= 1e-12 * np.abs(ref_hess).max()
        assert np.array_equal(b_terms._log_sum(z)[0], f)


def test_one_term_rows_are_affine(rng):
    """A one-term row needs no special case in the term matrix: its value is
    exactly b + a.y, its gradient exactly a and its centred term row exactly
    zero, so it adds no log-sum-exp curvature; on rows of one to three terms
    over 1-8 variables, lifted and not."""
    for n in range(1, 9):
        for _ in range(50):
            sizes = rng.integers(1, 4, size=4)
            terms = _Terms.stack(
                [Posynomial(np.exp(rng.normal(size=k)),
                            rng.choice([-1.0, 0.0, 1.0, 0.5, -2.5], size=(k, n)))
                 for k in sizes], n)
            for t in (terms, terms.lifted()):
                y = rng.normal(size=t.a.shape[1]) * 10.0 ** rng.uniform(-3, 2)
                f, g, _, d = t.parts(y)
                one = np.bincount(t.row) == 1
                first = t.starts[one]
                assert one.sum() == np.sum(sizes == 1) + 2 * n
                assert np.array_equal(f[one], (t.b + t.a @ y)[first])
                assert np.array_equal(g[one], t.a[first])
                assert not d[one[t.row]].any()
                assert np.array_equal(t._log_sum(y)[0], f)


def test_inner_solver_flags_unreachable_tolerance(defaults, monkeypatch):
    """An absurd KKT tolerance cannot be met; the failure must carry the
    best iterate instead of silently returning it."""
    gamma = 0.1
    start = initial_feasible_state(defaults, gamma)
    constraints = ([_condensed_at(defaults, start.x())]
                   + budget_posynomials(defaults, gamma))
    monkeypatch.setattr(gp, "KKT_TOL", 1e-300)
    with pytest.raises(NotConverged) as err:
        solve_inner_gp(_Terms.stack(constraints, 6), [-1.0, 0, 0, 0, 0, 0],
                       start.x())
    x_best, info = err.value.best
    assert np.all(x_best > 0) and np.isfinite(info["kkt_residual"])
    _assert_fresh_certificate([-1.0, 0, 0, 0, 0, 0], _Terms.stack(constraints, 6),
                              len(constraints), info)


def test_inner_solver_raises_infeasible():
    """2/x <= 1 and x <= 1 have no common point: phase 1 ends with its
    slack above zero (min s is log(2)/2) and the solve raises Infeasible."""
    with pytest.raises(Infeasible):
        solve_inner_gp(_Terms.stack([monomial(2.0, [-1.0]), monomial(1.0, [1.0])], 1),
                       [1.0], [1.0])


def test_boundary_and_interior_starts_agree(defaults):
    """Round 1 starts on its ratio row, so phase 1 runs first; a strictly
    interior start skips it.  Both reach the same certified point to 1e-12
    relative."""
    _, terms, y_inside = _interior_point(defaults, 0.1)
    x_edge = initial_feasible_state(defaults, 0.1).x()
    assert terms._log_sum(np.log(x_edge))[0].max() > -1e-9
    objective = [-1.0, 0, 0, 0, 0, 0]
    from_edge, info_edge = solve_inner_gp(terms, objective, x_edge)
    from_inside, info_inside = solve_inner_gp(terms, objective, np.exp(y_inside))
    np.testing.assert_allclose(from_edge, from_inside, rtol=1e-12, atol=0)
    assert info_edge["objective"] == pytest.approx(info_inside["objective"],
                                                   rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------

def test_condense_production_point():
    params = default_params(p_ave_db=25.0)
    sol = condense(params, 0.1)
    assert sol.trace.converged
    assert len(sol.trace.steps) <= 50
    objs = sol.trace.steps
    assert all(b <= a * (1 + 1e-9) for a, b in zip(objs, objs[1:]))
    assert abs(sol.trace.ratio_activity - 1.0) <= 1e-6
    assert sol.objective == pytest.approx(objs[-1])


def test_condense_beats_lattice():
    params = default_params(p_ave_db=25.0)
    sol = condense(params, 0.1)
    oracle_alloc = grid_oracle_nonreciprocal(params, 0.1, resolution=20)
    assert (_sigma_squared(params, sol.alloc)
            <= _sigma_squared(params, oracle_alloc))


def test_condense_fixed_point(defaults, monkeypatch):
    """Restarting from the solved state terminates in at most two rounds."""
    sol = condense(defaults, 0.1)
    monkeypatch.setattr(gp, "initial_feasible_state", lambda params, gamma: sol.state)
    again = condense(defaults, 0.1)
    assert len(again.trace.steps) <= 2
    assert again.objective == pytest.approx(sol.objective, rel=1e-6)


def test_condense_monotone_on_random_instances():
    rng = np.random.default_rng(47)
    done = 0
    while done < 8:
        params = default_params(p_ave_db=float(rng.uniform(10.0, 28.0)))
        gamma = float(rng.uniform(0.02, 0.5))
        try:
            sol = condense(params, gamma)
        except Infeasible:
            continue
        objs = sol.trace.steps
        assert all(b <= a * (1 + 1e-9) for a, b in zip(objs, objs[1:]))
        assert np.isfinite(sol.objective) and sol.objective > 0
        done += 1


def test_condense_detects_sabotaged_weights(defaults, monkeypatch):
    """Deliberately wrong condensation weights must not produce a 'solution'."""
    monkeypatch.setattr(gp, "denominator_exponents",
                        lambda denom, x_bar: np.array([1.0, 0, 0, 0, 0, 0]))
    with pytest.raises((Stalled, Infeasible, NotConverged)):
        condense(defaults, 0.1)


@pytest.mark.parametrize("case", GOLDEN_PANEL,
                         ids=[f"{c['p_ave_db']:.1f}dB" for c in GOLDEN_PANEL])
def test_condense_matches_golden_panel(case):
    """Bit pin of successive condensation over 0-45 dB: objective, final
    state, round count and convergence flag equal the committed reprs.  The
    21.9 dB instance stops unconverged at CONDENSE_MAX_ROUNDS (ROADMAP item 4)."""
    sol = condense(default_params(p_ave_db=case["p_ave_db"]), case["gamma"])
    assert repr(float(sol.objective)) == case["objective"]
    assert repr(sol.state) == case["state"]
    assert len(sol.trace.steps) == case["rounds"]
    assert sol.trace.converged == case["converged"]


# (p_ave_db, gamma) instances of the benchmark's alloc-echo pool: 3 to 40
# rounds, the last one 1% above gamma_min with a degenerate active set
POOL_CASES = [
    (25.65315494534047, 0.45910198239257516),
    (14.230986754138591, 0.4253078626332756),
    (23.392965754143443, 0.009058809074696236),
    (41.22640291068457, 0.0014836432242929713),
    (10.940409690522175, 0.02900053463877861),
    (2.559675406933809, 0.13815674316058327),
]
WORKSPACE_CASES = ([(c["p_ave_db"], c["gamma"]) for c in GOLDEN_PANEL]
                   + POOL_CASES)
EQUIVALENCE_CASES = ([(c["p_ave_db"], c["gamma"]) for c in GOLDEN_PANEL]
                     + [(p, 0.1) for p in (10.0, 15.0, 20.0, 25.0, 30.0)]
                     + POOL_CASES)


def _outcome(p_ave_db, gamma):
    """(rounds, converged, objective) of one condense, or the raised type."""
    try:
        sol = condense(default_params(p_ave_db=p_ave_db), gamma)
    except Exception as exc:  # noqa: BLE001 - the raise is the outcome
        return type(exc)
    return len(sol.trace.steps), sol.trace.converged, sol.objective


@pytest.mark.parametrize("p_ave_db, gamma", EQUIVALENCE_CASES,
                         ids=[f"{p:.1f}dB-{g:.3g}" for p, g in EQUIVALENCE_CASES])
def test_warm_start_matches_cold_rounds(monkeypatch, p_ave_db, gamma):
    """Warm-starting later rounds from the previous KKT point changes only
    the last bits: round counts, convergence flags and raised errors equal
    those of every round solved cold, objectives agree to 1e-9."""
    warm = _outcome(p_ave_db, gamma)
    monkeypatch.setattr(gp, "_warm_inner_gp", lambda *args: None)
    cold = _outcome(p_ave_db, gamma)
    if isinstance(cold, type):
        assert warm is cold
        return
    assert warm[:2] == cold[:2]
    assert warm[2] == pytest.approx(cold[2], rel=1e-9)


def test_warm_result_failing_certificate_falls_back_to_cold(defaults, monkeypatch):
    """A warm result is judged by the cold solve's certificate: when it
    cannot pass, every later round is exactly the cold solve: the same
    optimum, so the same objective and the same next expansion point."""
    solve, optima = gp.solve_inner_gp, {"cold": [], "fallback": []}

    def recorded(run):
        def call(*args):
            x, info = solve(*args)
            optima[run].append(x)
            return x, info
        return call

    monkeypatch.setattr(gp, "_warm_inner_gp", lambda *args: None)
    monkeypatch.setattr(gp, "solve_inner_gp", recorded("cold"))
    cold = condense(defaults, 0.1)
    monkeypatch.undo()
    warm_inner_gp, rejected = gp._warm_inner_gp, []

    def unreachable_tolerance(*args):
        with monkeypatch.context() as m:
            m.setattr(gp, "KKT_TOL", 1e-300)
            result = warm_inner_gp(*args)
        rejected.append(result is None)
        return result

    monkeypatch.setattr(gp, "_warm_inner_gp", unreachable_tolerance)
    monkeypatch.setattr(gp, "solve_inner_gp", recorded("fallback"))
    fallback = condense(defaults, 0.1)
    assert rejected == [True] * (len(cold.trace.steps) - 1)
    assert len(optima["fallback"]) == len(optima["cold"]) == len(cold.trace.steps)
    for x_fallback, x_cold in zip(optima["fallback"], optima["cold"]):
        assert np.array_equal(x_fallback, x_cold)
    assert fallback.trace.steps == cold.trace.steps
    assert fallback.state == cold.state


# (default_params overrides, gamma, resumed cold solves): the panel, the
# pool, and the three seeded random instances where a hand-off at a surrogate
# gap of 1e-6 failed the certificate while the polish still picked its set by
# lambda >= 1e-6 * max lambda (KKT residual 1.4e-8 to 3.6e-8).  In the last
# two the indicator also marks the transmitter budget active at the
# hand-off, though its slack at the optimum is 3.8e-4 and 3.6e-3; the
# polish's Newton steps stall on that set.  It drops the member with the
# smallest indicator (that budget in the first case, the LR budget at
# 20 against its 30 in the second) and re-solves, one change at a time,
# until the set certifies, so phase 2 no longer resumes.
HANDOFF_CASES = ([({"p_ave_db": p}, g, 0) for p, g in WORKSPACE_CASES]
                 + [({"n_t": 8, "n_l": 4, "n_u": 4, "p_ave_db": 27.801880748517302},
                     0.03600544658977729, 0),
                    ({"n_t": 6, "n_l": 2, "n_u": 3, "p_ave_db": 28.06024719652498},
                     0.4658265213691244, 0),
                    ({"n_t": 6, "n_l": 2, "n_u": 3, "p_ave_db": 28.047011862959756},
                     0.02880465483469404, 0)])


def _count_resumes(monkeypatch):
    """Wrap ``gp._primal_dual``; the list returned gains one entry per call,
    True when the call resumes a stopped path from its multipliers."""
    primal_dual, resumed = gp._primal_dual, []

    def counted(*args, **kwargs):
        resumed.append(kwargs.get("lam") is not None)
        return primal_dual(*args, **kwargs)

    monkeypatch.setattr(gp, "_primal_dual", counted)
    return resumed


def _solution(overrides, gamma):
    """One ``condense`` result, or the type it raised."""
    try:
        return condense(default_params(**overrides), gamma)
    except Exception as exc:  # noqa: BLE001 - the raise is the outcome
        return type(exc)


@pytest.mark.parametrize("overrides, gamma, resumes", HANDOFF_CASES,
                         ids=[f"{o.get('n_t', 4)}x{o.get('n_l', 2)}-"
                              f"{o['p_ave_db']:.1f}dB-{g:.3g}"
                              for o, g, _ in HANDOFF_CASES])
def test_early_handoff_matches_full_path(monkeypatch, overrides, gamma, resumes):
    """Handing the cold interior point to the polish at PD_HANDOFF_GAP
    instead of at PD_GAP_TOL leaves every round count, convergence flag and
    raised type as it was; objective and final state agree to 1e-12.  The
    indicator finds the active set at the hand-off: no cold solve of the
    panel or the pool resumes its interior point, and each case resumes as
    many as ``HANDOFF_CASES`` lists."""
    resumed = _count_resumes(monkeypatch)
    early = _solution(overrides, gamma)
    assert sum(resumed) == resumes
    monkeypatch.setattr(gp, "PD_HANDOFF_GAP", gp.PD_GAP_TOL)
    full = _solution(overrides, gamma)
    if isinstance(full, type) or isinstance(early, type):
        assert early is full
        return
    assert len(early.trace.steps) == len(full.trace.steps)
    assert early.trace.converged == full.trace.converged
    assert early.objective == pytest.approx(full.objective, rel=1e-12, abs=0)
    np.testing.assert_allclose(early.state.x(), full.state.x(), rtol=1e-12, atol=0)


@pytest.mark.parametrize("p_ave_db, gamma", [(20.0, 0.1), POOL_CASES[-1]],
                         ids=["20.0dB-0.1", "2.6dB-0.138"])
def test_failed_handoff_resumes_the_full_path(monkeypatch, p_ave_db, gamma):
    """When the polished hand-off point fails the certificate, phase 2
    resumes from the hand-off (y, lambda) and takes the steps a path run
    straight to PD_GAP_TOL takes: every round's optimum, the objectives and
    the state equal, bit for bit, those of a run whose hand-off gap is
    PD_GAP_TOL."""
    params = default_params(p_ave_db=p_ave_db)
    solve, optima = gp.solve_inner_gp, {"full": [], "resumed": []}

    def recorded(run):
        def call(*args):
            x, info = solve(*args)
            optima[run].append(x)
            return x, info
        return call

    monkeypatch.setattr(gp, "PD_HANDOFF_GAP", gp.PD_GAP_TOL)
    monkeypatch.setattr(gp, "solve_inner_gp", recorded("full"))
    full = condense(params, gamma)
    monkeypatch.undo()
    certify, handoff = gp._certified, [False]

    def failing_once(*args):
        if handoff[0]:
            handoff[0] = False
            with monkeypatch.context() as m:
                m.setattr(gp, "KKT_TOL", 1e-300)
                return certify(*args)
        return certify(*args)

    def cold(*args):
        handoff[0] = True
        return recorded("resumed")(*args)

    monkeypatch.setattr(gp, "_certified", failing_once)
    monkeypatch.setattr(gp, "solve_inner_gp", cold)
    resumed = _count_resumes(monkeypatch)
    again = condense(params, gamma)
    assert sum(resumed) == len(optima["resumed"]) >= 1
    assert len(optima["resumed"]) == len(optima["full"])
    for x_resumed, x_full in zip(optima["resumed"], optima["full"]):
        assert np.array_equal(x_resumed, x_full)
    assert again.trace.steps == full.trace.steps
    assert again.trace.converged == full.trace.converged
    assert again.state == full.state


@pytest.mark.parametrize("p_ave_db, gamma", WORKSPACE_CASES,
                         ids=[f"{p:.1f}dB-{g:.3g}" for p, g in WORKSPACE_CASES])
def test_condense_rewrites_only_the_ratio_row(monkeypatch, p_ave_db, gamma):
    """One ``condense`` stacks its rows once.  Every inner solve, cold or
    warm, gets that workspace, and at each call its ``b`` and ``a`` equal
    those of a fresh stack of the round's GP: the ratio row is rewritten in
    place and nothing else moves.  The round's expansion point is the cold
    solve's start, or the previous optimum exp(y) a warm solve starts from,
    and it must be the initial state in the first round and the previous
    round's optimum after: a round's warm call comes first, so the warm
    calls so far number the round."""
    params = default_params(p_ave_db=p_ave_db)
    fixed = budget_posynomials(params, gamma)
    stack, stacked, expansions = gp._Terms.stack, [], []

    def counted(constraints, n):
        stacked.append(stack(constraints, n))
        return stacked[-1]

    def checked(name):
        inner = getattr(gp, name)

        def call(terms, objective, start):
            assert terms is stacked[-1]
            x_bar = start if name == "solve_inner_gp" else np.exp(start["y"])
            fresh = stack([_condensed_at(params, x_bar)] + fixed, 6)
            assert np.array_equal(terms.b, fresh.b)
            assert np.array_equal(terms.a, fresh.a)
            result = inner(terms, objective, start)
            expansions.append((name, x_bar, result))
            return result
        return call

    monkeypatch.setattr(gp._Terms, "stack", staticmethod(counted))
    for name in ("solve_inner_gp", "_warm_inner_gp"):
        monkeypatch.setattr(gp, name, checked(name))
    sol = condense(params, gamma)
    assert len(stacked) == 1
    rounds, x_round, optimum = 0, initial_feasible_state(params, gamma).x(), None
    for name, x_bar, result in expansions:
        if name == "_warm_inner_gp":
            rounds, x_round = rounds + 1, optimum
        assert np.array_equal(x_bar, x_round)
        if result is not None:
            optimum = result[0]
    assert rounds == len(sol.trace.steps) - 1


def test_degenerate_active_set_instance_converges(monkeypatch):
    """1% above gamma_min at 2.56 dB the polish used to drop the average
    budget (negative multiplier) and return a point violating it by 1.4e-8;
    re-admitting the violated row lets every round pass the certificate,
    and the result is no worse than the resolution-40 lattice on the
    sigma-squared surrogate condensation optimizes."""
    p_ave_db, gamma = POOL_CASES[-1]
    params = default_params(p_ave_db=p_ave_db)
    certified, certify = [], gp._certified

    def record(*args):
        x, info = certify(*args)
        certified.append(info)
        return x, info

    monkeypatch.setattr(gp, "_certified", record)
    sol = condense(params, gamma)
    assert sol.trace.converged
    assert len(certified) == len(sol.trace.steps)
    for info in certified:
        assert info["kkt_residual"] <= gp.KKT_TOL
        assert np.all(info["constraint_values"] <= 1 + 1e-8)
    assert sol.trace.ratio_activity <= 1 + 1e-6
    oracle = grid_oracle_nonreciprocal(params, gamma, resolution=40)
    assert _sigma_squared(params, sol.alloc) <= _sigma_squared(params, oracle)


def _condense_golden_panel():
    for case in GOLDEN_PANEL:
        condense(default_params(p_ave_db=case["p_ave_db"]), case["gamma"])


def test_hot_loops_evaluate_each_point_once(monkeypatch):
    """No cold ``solve_inner_gp`` call (phase 1, phase 2, polish and
    certificate), no ``_certified`` call (polish plus certificate) and no
    ``_primal_dual`` call evaluates the rows of one ``_Terms`` twice at the
    same y over the golden panel: each evaluation is handed on to whatever
    needs it next.  Every ``_Terms`` seen is kept alive, so no id is reused."""
    log_sum, seen, scopes, repeats = gp._Terms._log_sum, [], [], []
    evaluated = {"solve_inner_gp": 0, "_certified": 0, "_primal_dual": 0}
    lift, lifted = gp._Terms.lifted, []

    def recorded(terms, y):
        seen.append(terms)
        key = (id(terms), y.tobytes())
        for name, keys in scopes:
            if key in keys:
                repeats.append((name, y.tolist()))
            keys.add(key)
            evaluated[name] += 1
        return log_sum(terms, y)

    def lifted_rows(terms):
        lifted.append(lift(terms))
        return lifted[-1]

    def scoped(name):
        inner = getattr(gp, name)

        def call(*args, **kwargs):
            scopes.append((name, set()))
            try:
                return inner(*args, **kwargs)
            finally:
                scopes.pop()
        return call

    monkeypatch.setattr(gp._Terms, "_log_sum", recorded)
    monkeypatch.setattr(gp._Terms, "lifted", lifted_rows)
    for name in evaluated:
        monkeypatch.setattr(gp, name, scoped(name))
    _condense_golden_panel()
    assert repeats == []
    assert min(evaluated.values()) > 100
    # every cold solve of the panel ran phase 1, and its rows were evaluated
    assert len(lifted) >= len(GOLDEN_PANEL)
    assert {id(t) for t in lifted} <= {id(t) for t in seen}


def _assert_fresh_certificate(c_lin, terms, n_posy, info):
    """``info``'s KKT residual, duality gap and constraint values equal, bit
    for bit, ``_kkt_certificate`` recomputed from scratch at its (y, lam)."""
    kkt, comp, f = gp._kkt_certificate(np.asarray(c_lin, dtype=float),
                                       terms.parts(info["y"]), info["lam"])
    assert info["kkt_residual"] == kkt
    assert info["duality_gap"] == comp
    assert np.array_equal(info["constraint_values"], np.exp(f[:n_posy]))


def test_handed_over_certificate_equals_fresh_one(monkeypatch):
    """Every certified inner solve of the golden panel reports the
    certificate of the point it returns (the panel's pins, the state and the
    objective, do not cover these values)."""
    certify, certified = gp._certified, []

    def check(c_lin, terms, n_posy, y, lam, parts):
        x, info = certify(c_lin, terms, n_posy, y, lam, parts)
        _assert_fresh_certificate(c_lin, terms, n_posy, info)
        certified.append(info)
        return x, info

    monkeypatch.setattr(gp, "_certified", check)
    _condense_golden_panel()
    assert len(certified) == sum(case["rounds"] for case in GOLDEN_PANEL)


def test_initial_state_is_strictly_feasible(defaults):
    gamma = 0.1
    st = initial_feasible_state(defaults, gamma)
    for con in budget_posynomials(defaults, gamma):
        assert con.value(st.x()) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# lattice oracle
# ---------------------------------------------------------------------------

def test_oracle_resolution_guard(defaults):
    with pytest.raises(ValueError):
        grid_oracle_nonreciprocal(defaults, 0.1, resolution=19)


def _scalar_scan_oracle(p, gamma, resolution):
    """A 5-D lattice search of the sigma-squared surrogate as one scalar
    (e_0, e_1) loop with a full (e_3, e_2, var_a) lattice per pair, first
    minimum kept."""
    s, b_t, b_l = (p.budget_average_nonreciprocal(), p.budget_tx_nonreciprocal(),
                   p.budget_lr_nonreciprocal())
    n_an = p.n_t - p.n_l
    e0_axis = np.linspace(0.0, min(s, b_t), resolution + 1)
    e1_axis = np.linspace(0.0, min(s, b_l), resolution + 1)
    e2_axis = np.linspace(0.0, min(s, b_l), resolution + 1)
    e3_axis = np.linspace(0.0, min(s, b_t), resolution + 1)
    an_axis = np.linspace(0.0, min(s, b_t), resolution + 1)
    va_axis = an_axis / (n_an * p.n_t)
    ur_noise = n_an * va_axis * p.var_g + p.var_v
    nmse_u = 1.0 / (1.0 / p.var_g + (e3_axis[:, None] / p.n_t) / ur_noise[None, :])
    floor_ok = nmse_u >= gamma * (1 - 1e-9)
    eps2 = 1.0 / (1.0 / p.var_hu + e2_axis / (p.n_l * p.var_wt))
    spectral = p.var_hu - eps2
    best_val, best = np.inf, None
    for e_0 in e0_axis:
        t0 = p.var_hd * e_0 / p.n_t + p.var_w
        rho0 = (t0 - p.var_w) / t0
        for e_1 in e1_axis:
            if e_1 > b_l * (1 + 1e-9):
                break
            with np.errstate(divide="ignore"):
                beta = p.n_l * eps2 + np.where(
                    e_1 > 0, p.var_wt / ((e_1 / (p.n_t * p.n_l * t0)) * t0), np.inf)
            jfac = np.where(np.isinf(beta), 0.0,
                            p.n_t * spectral / (beta + p.n_t * spectral))
            resid = p.var_hd * (1.0 - rho0 * jfac)
            r_eff = n_an * va_axis[None, :] * resid[:, None] + p.var_w
            nmse_l = 1.0 / (1.0 / p.var_hd
                            + (e3_axis[:, None, None] / p.n_t) / r_eff[None, :, :])
            avg_ok = (e_0 + e_1 + e3_axis[:, None, None] + e2_axis[None, :, None]
                      + an_axis[None, None, :]) <= s * (1 + 1e-9)
            tx_ok = (e_0 + e3_axis[:, None] + an_axis[None, :]) <= b_t * (1 + 1e-9)
            lr_ok = (e_1 + e2_axis) <= b_l * (1 + 1e-9)
            mask = floor_ok[:, None, :] & tx_ok[:, None, :] & lr_ok[None, :, None] & avg_ok
            cand = np.where(mask, nmse_l, np.inf)
            i3, i2, ia = np.unravel_index(np.argmin(cand), cand.shape)
            if cand[i3, i2, ia] < best_val:
                best_val = float(cand[i3, i2, ia])
                best = (float(e_0), float(e_1), float(e2_axis[i2]),
                        float(e3_axis[i3]), float(va_axis[ia]))
    return None if best is None else nonreciprocal_allocation(*best)


@pytest.mark.parametrize("kwargs,gamma,resolution", [
    ({}, 0.1, 20),
    ({"p_ave_db": 25.0}, 0.03, 21),
    ({"p_ave_db": 3.0}, 0.5, 20),             # every budget binds
    ({"p_bar_t_db": 12.0, "var_hu": 0.4}, 0.01, 23),
    ({}, 1.5, 20),                            # the floor excludes every point
], ids=["defaults", "25dB", "budgets-bind", "tx-limited", "floor-infeasible"])
def test_oracle_matches_scalar_scan(kwargs, gamma, resolution):
    """The 3-D oracle, with its exact forward split, never loses to the 5-D
    scan over the same (e_0, e_1, e_2) axes, raises where the scan finds
    nothing, and returns an allocation inside the budgets and the UR floor."""
    p = default_params(**kwargs)
    scan = _scalar_scan_oracle(p, gamma, resolution)
    if scan is None:
        with pytest.raises(NoFeasiblePoint):
            grid_oracle_nonreciprocal(p, gamma, resolution=resolution)
        return
    alloc = grid_oracle_nonreciprocal(p, gamma, resolution=resolution)
    assert _sigma_squared(p, alloc) <= _sigma_squared(p, scan) * (1 + 1e-12)
    an = (p.n_t - p.n_l) * alloc.var_a * p.n_t
    tol = 1 + 1e-9
    assert (alloc.e_0 + alloc.e_1 + alloc.e_2 + alloc.e_3 + an
            <= p.budget_average_nonreciprocal() * tol)
    assert alloc.e_0 + alloc.e_3 + an <= p.budget_tx_nonreciprocal() * tol
    assert alloc.e_1 + alloc.e_2 <= p.budget_lr_nonreciprocal() * tol
    assert nmse_u(p, alloc.e_3, alloc.var_a) >= gamma * (1 - 1e-9)


@pytest.mark.parametrize("kwargs,gamma", [
    ({}, 0.1),
    ({"var_v": 3.0, "p_ave_db": 5.0}, 0.3),   # the optimum has AN idle
], ids=["an-pays", "an-idle"])
def test_oracle_forward_split_is_exact(kwargs, gamma):
    """At the oracle's (e_0, e_1, e_2) no split of the forward budget on a
    dense AN grid, with the pilots as large as the budget and the UR floor
    allow, beats the closed-form split."""
    p = default_params(**kwargs)
    alloc = grid_oracle_nonreciprocal(p, gamma, resolution=20)
    rest = min(p.budget_tx_nonreciprocal() - alloc.e_0,
               p.budget_average_nonreciprocal() - alloc.e_0 - alloc.e_1 - alloc.e_2)
    cap = gamma_tilde(p, gamma)
    scan = []
    for an in np.linspace(0.0, rest, 2001):
        a = an / p.n_t
        e_3 = min(rest - an, cap * (p.var_g * a / p.var_v + 1.0))
        scan.append(_sigma_squared(p, nonreciprocal_allocation(
            alloc.e_0, alloc.e_1, alloc.e_2, e_3, a / (p.n_t - p.n_l))))
    assert _sigma_squared(p, alloc) <= min(scan) * (1 + 1e-12)


def test_oracle_nesting(defaults):
    """Doubling the resolution nests the lattice: the finer search can only
    match or improve the coarse one."""
    coarse = _sigma_squared(
        defaults, grid_oracle_nonreciprocal(defaults, 0.1, resolution=20))
    fine = _sigma_squared(
        defaults, grid_oracle_nonreciprocal(defaults, 0.1, resolution=40))
    assert fine <= coarse + 1e-15
