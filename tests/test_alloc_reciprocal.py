"""Reciprocal allocator: reduced line search, closed-form branch, lattice
oracle agreement, constraint activity."""

import signal
import time

import numpy as np
import pytest

from dce.alloc_reciprocal import (
    _inner_solution,
    solve_reciprocal,
)
from dce.errors import InfeasibleGamma
from dce.nmse import gamma_bounds, gamma_tilde, nmse_u
from dce.params import RECIPROCAL, default_params
from oracles import grid_oracle_reciprocal


GAMMA = 0.1


@pytest.fixture(scope="module")
def params():
    return default_params()


def _split(p, e_r):
    """(alpha, e_f) of the inner split at GAMMA: alpha = (n_t - n_l)*var_a
    is the AN energy per slot, e_f the forward pilot energy."""
    e_f, var_a, _ = _inner_solution(p, GAMMA, e_r)
    return (p.n_t - p.n_l) * var_a, e_f


# ---------------------------------------------------------------------------
# inner closed forms
# ---------------------------------------------------------------------------

def test_alpha_of_er_points(params):
    # e_r at the budget edge leaves nothing for AN
    s = params.budget_average_reciprocal()
    gt = gamma_tilde(params, GAMMA)
    assert _split(params, s - gt)[0] == pytest.approx(0.0, abs=1e-12)
    # (600 - 36 - 50) / (tau_f + var_g*gt/var_v) = 514/40
    assert _split(params, 50.0)[0] == pytest.approx(12.85)


def test_ef_of_er_points(params):
    gt = gamma_tilde(params, GAMMA)
    s = params.budget_average_reciprocal()
    assert _split(params, s - gt)[1] == pytest.approx(gt)
    assert _split(params, 50.0)[1] == pytest.approx(36.0 * 13.85)


def test_inner_split_exhausts_average_budget(params):
    """e_r + e_f + AN energy over the forward phase == S, exactly."""
    p = params
    s = p.budget_average_reciprocal()
    gt = gamma_tilde(p, GAMMA)
    rng = np.random.default_rng(3)
    for e_r in rng.uniform(0.0, s - gt, size=50):
        a, e_f = _split(p, e_r)
        np.testing.assert_allclose(e_r + e_f + a * p.tau_f, s, rtol=1e-12)


def test_inner_split_keeps_floor_exactly_active(params):
    """The (e_f, var_a) pair pins the UR error to gamma to 1e-12."""
    p = params
    for e_r in [0.0, 50.0, 213.7]:
        a, e_f = _split(p, e_r)
        nu = nmse_u(p, e_f, a / (p.n_t - p.n_l))
        assert nu == pytest.approx(GAMMA, rel=1e-12)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_line_search_branch_on_defaults(params):
    sol = solve_reciprocal(params, GAMMA)
    assert sol.branch == "line-search"
    assert sol.alloc.scheme == RECIPROCAL
    assert "ur-nmse" in sol.active_constraints
    assert "average-power" in sol.active_constraints
    # with the floor active, budget exhaustion is exact
    p = params
    total = (sol.alloc.e_r + sol.alloc.e_f
             + (p.n_t - p.n_l) * sol.alloc.var_a * p.tau_f)
    np.testing.assert_allclose(total, p.budget_average_reciprocal(), rtol=1e-9)
    nu = nmse_u(p, sol.alloc.e_f, sol.alloc.var_a)
    np.testing.assert_allclose(nu, GAMMA, rtol=1e-9)


def test_solver_matches_dense_oracle(params):
    sol = solve_reciprocal(params, GAMMA)
    oracle = grid_oracle_reciprocal(params, GAMMA, 200)
    assert sol.objective <= oracle.objective + 1e-3
    np.testing.assert_allclose(sol.objective, oracle.objective, atol=1e-3)


def test_closed_form_branch():
    """High effective-noise asymmetry makes AN counter-productive for any
    affordable reverse energy: the solver returns (0, gamma_tilde, 0)."""
    p = default_params(p_bar_l_db=10.0, var_h=50.0, var_v=40.0)
    sol = solve_reciprocal(p, 0.9)
    assert sol.branch == "closed-form"
    assert sol.alloc.e_r == 0.0
    assert sol.alloc.var_a == 0.0
    assert sol.alloc.e_f == pytest.approx(gamma_tilde(p, 0.9))
    assert "ur-nmse" in sol.active_constraints
    # the lattice cannot beat it (it can only miss e_f = gamma_tilde)
    oracle = grid_oracle_reciprocal(p, 0.9, 120)
    assert sol.objective <= oracle.objective + 1e-12


def test_vacuous_floor_spends_everything_on_pilots():
    """gamma below the enforceable minimum: constraint never binds, solution
    is all forward pilots with exact zeros elsewhere."""
    for p in (default_params(), default_params(p_ave_db=10.0)):
        lo, _ = gamma_bounds(p, RECIPROCAL)
        sol = solve_reciprocal(p, lo / 2)
        assert sol.alloc.e_r == 0.0
        assert sol.alloc.var_a == 0.0
        assert sol.alloc.e_f == pytest.approx(
            min(p.budget_average_reciprocal(), p.budget_tx_reciprocal()))
        assert "ur-nmse" not in sol.active_constraints


def test_infeasible_gamma_rejected():
    p = default_params()
    with pytest.raises(InfeasibleGamma):
        solve_reciprocal(p, p.var_g * 1.5)
    with pytest.raises(InfeasibleGamma):
        solve_reciprocal(p, 0.0)


def test_solver_deterministic(params):
    a, b = solve_reciprocal(params, GAMMA), solve_reciprocal(params, GAMMA)
    assert a == b


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_rejects_coarse_resolution(params):
    with pytest.raises(ValueError):
        grid_oracle_reciprocal(params, GAMMA, 49)


def test_oracle_agreement_low_power():
    p = default_params(p_ave_db=15.0)
    sol = solve_reciprocal(p, 0.03)
    oracle = grid_oracle_reciprocal(p, 0.03, 200)
    np.testing.assert_allclose(sol.objective, oracle.objective, atol=1e-3)
    assert sol.objective <= oracle.objective + 1e-9


def test_solver_never_loses_to_lattice_on_random_instances():
    """Across random powers/floors/variances the continuous solver is at
    least as good as a 60-point lattice (it optimizes a superset)."""
    rng = np.random.default_rng(41)
    tried = 0
    while tried < 10:
        p = default_params(
            p_ave_db=float(rng.uniform(5.0, 25.0)),
            var_h=float(rng.uniform(0.5, 4.0)),
            var_v=float(rng.uniform(0.5, 4.0)),
            var_w=float(rng.uniform(0.5, 2.0)),
        )
        lo, hi = gamma_bounds(p, RECIPROCAL)
        gamma = float(rng.uniform(lo * 1.5, hi * 0.8))
        sol = solve_reciprocal(p, gamma)
        oracle = grid_oracle_reciprocal(p, gamma, 60)
        assert sol.objective <= oracle.objective + 1e-6 * oracle.objective
        tried += 1


@pytest.mark.parametrize("pave_db, gamma, pbar_t_db, pbar_l_db", [
    (45.0, 0.5, 0.0, 120.0),
    (5.0, 0.05, -80.0, 20.0),
    (20.0, 0.99, -80.0, 120.0),
    (-20.0, 0.001, -80.0, -10.0),
])
def test_golden_section_stops_at_float_spacing(pave_db, gamma, pbar_t_db, pbar_l_db):
    """On these instances the golden-section bracket reaches adjacent floats
    above its width target and can shrink no further; the solve still
    returns promptly with a feasible allocation no worse than the lattice."""
    p = default_params(p_ave_db=pave_db, p_bar_t_db=pbar_t_db, p_bar_l_db=pbar_l_db)

    def hung(signum, frame):
        raise TimeoutError("solve_reciprocal did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        start = time.perf_counter()
        sol = solve_reciprocal(p, gamma)
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 1.0
    a = sol.alloc
    an_energy = (p.n_t - p.n_l) * a.var_a * p.tau_f
    tol = 1 + 1e-12
    assert a.e_r + a.e_f + an_energy <= p.budget_average_reciprocal() * tol
    assert a.e_f + an_energy <= p.budget_tx_reciprocal() * tol
    assert a.e_r <= p.budget_lr_reciprocal() * tol
    assert nmse_u(p, a.e_f, a.var_a) >= gamma * (1 - 1e-9)
    assert sol.objective <= grid_oracle_reciprocal(p, gamma, 60).objective
