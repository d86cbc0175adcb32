"""End-to-end acceptance suite.

Ten scenarios, each printing one PASS/FAIL line (visible with -v via the
test outcome, and explicitly on stdout).  Tolerances and runtime caps are
stated inline; every random draw is seeded.
"""

import csv
import time

import numpy as np
import pytest

import dce.cli as cli
from dce.alloc_reciprocal import solve_reciprocal
from dce.gp import (
    condense,
    condensed_ratio,
    denominator_exponents,
    ratio_parts,
)
from dce.montecarlo import (
    run_nmse_experiment,
    run_ser_experiment,
    solve_allocation,
)
from dce.nmse import gamma_bounds, nmse_u
from dce.params import (
    NON_RECIPROCAL,
    RECIPROCAL,
    default_params,
    reciprocal_allocation,
    with_fixed_energy_budgets,
)
from helpers import strip_footer
from oracles import (JENSEN_VARIANTS, grid_oracle_nonreciprocal,
                     grid_oracle_reciprocal, jensen_miss, nmse_l_sigma_squared,
                     spectral_factor)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} failed: {detail}"


def _random_feasible_reciprocal(rng):
    """A random operating point that respects every budget."""
    p = default_params(p_ave_db=float(rng.uniform(8.0, 25.0)))
    s = p.budget_average_reciprocal()
    e_r = float(rng.uniform(0.0, min(p.budget_lr_reciprocal(), 0.4 * s)))
    e_f = float(rng.uniform(0.5, 0.5 * (s - e_r)))
    an_budget = s - e_r - e_f
    var_a = float(rng.uniform(0.0, an_budget / ((p.n_t - p.n_l) * p.tau_f)))
    return p, reciprocal_allocation(e_r, e_f, var_a)


def test_accept_01_reciprocal_empirical_matches_closed_forms():
    """20 random feasible reciprocal allocations, 1e4 trials each: empirical
    NMSE within 2% of the closed forms at both receivers.  Cap: 60 s."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(20):
        p, alloc = _random_feasible_reciprocal(rng)
        rep = run_nmse_experiment(p, alloc, trials=10000, seed=1000 + k)
        err_l = abs(rep.empirical_lr / rep.analytic_lr - 1.0)
        err_u = abs(rep.empirical_ur / rep.analytic_ur - 1.0)
        worst = max(worst, err_l, err_u)
        assert err_l <= 0.02, f"LR mismatch {err_l:.4f} at point {k}"
        assert err_u <= 0.02, f"UR mismatch {err_u:.4f} at point {k}"
    elapsed = time.time() - t0
    _report("accept-01", elapsed <= 60.0,
            f"20 points, worst rel dev {worst:.4f} (tol 0.02), {elapsed:.1f}s")


def test_accept_02_reciprocal_solver_beats_dense_oracle():
    """100 random feasible problems (a dozen engineered so artificial noise
    is counter-productive): solver objective <= lattice(200) + 1e-3 and the
    UR floor is active to 1e-9 relative.  Cap: 300 s."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst_gap, worst_act = -np.inf, 0.0
    problems = []
    for _ in range(88):
        p = default_params(
            p_ave_db=float(rng.uniform(8.0, 25.0)),
            var_h=float(rng.uniform(0.5, 4.0)),
            var_v=float(rng.uniform(0.5, 4.0)),
            var_w=float(rng.uniform(0.5, 2.0)),
        )
        lo, hi = gamma_bounds(p, RECIPROCAL)
        problems.append((p, float(rng.uniform(1.2 * lo, 0.8 * hi))))
    for _ in range(12):
        p = default_params(p_bar_l_db=10.0, var_h=float(rng.uniform(30.0, 80.0)),
                           var_v=float(rng.uniform(20.0, 60.0)))
        problems.append((p, float(rng.uniform(0.3, 0.9))))

    branches = set()
    for p, gamma in problems:
        sol = solve_reciprocal(p, gamma)
        oracle = grid_oracle_reciprocal(p, gamma, 200)
        gap = sol.objective - oracle.objective
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-3, f"solver lost to the lattice by {gap:.2e}"
        nu = nmse_u(p, sol.alloc.e_f, sol.alloc.var_a)
        act = abs(nu / gamma - 1.0)
        worst_act = max(worst_act, act)
        assert act <= 1e-9, f"UR floor inactive: rel dev {act:.2e}"
        branches.add(sol.branch)
    elapsed = time.time() - t0
    _report("accept-02", branches == {"line-search", "closed-form"}
            and elapsed <= 300.0,
            f"100 problems, branches {sorted(branches)}, worst oracle gap "
            f"{worst_gap:.2e} (tol 1e-3), worst floor dev {worst_act:.2e} "
            f"(tol 1e-9), {elapsed:.1f}s")


def test_accept_03_forward_length_dilution():
    """Fixed energy budgets (defaults 30/20 dB): the analytic LR NMSE never
    improves as the forward phase stretches over {4,6,8,12,16} slots, and
    the tighter floor (gamma=0.1) suffers a strictly larger total rise than
    gamma=0.03 at each power level."""
    rises = {}
    for pave in (15.0, 20.0, 25.0):
        for gamma in (0.1, 0.03):
            vals = []
            for tau in (4, 6, 8, 12, 16):
                p = with_fixed_energy_budgets(default_params(p_ave_db=pave), tau)
                _, nmse_l, _ = solve_allocation(p, gamma, RECIPROCAL)
                vals.append(nmse_l)
            assert all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:])), \
                f"dilution not monotone at pave={pave}, gamma={gamma}: {vals}"
            rises[(pave, gamma)] = vals[-1] - vals[0]
    for pave in (15.0, 20.0, 25.0):
        assert rises[(pave, 0.1)] > rises[(pave, 0.03)], \
            f"tight floor should pay more for long training at {pave} dB"
    _report("accept-03", True,
            "monotone over tau in {4..16} at 6 grid points; rise(0.1) > "
            "rise(0.03) at 15/20/25 dB")


def test_accept_04_an_power_ordering_and_starved_zeros():
    """More demanded UR error -> more jamming at every power level; at 10 dB
    with gamma=0.03 the floor is out of reach and reverse/AN are exactly 0."""
    for pave in (15.0, 20.0, 25.0):
        p = default_params(p_ave_db=pave)
        tight, _, _ = solve_allocation(p, 0.1, RECIPROCAL)
        loose, _, _ = solve_allocation(p, 0.03, RECIPROCAL)
        assert tight.var_a > loose.var_a, \
            f"AN not ordered at {pave} dB: {tight.var_a} vs {loose.var_a}"
    starved, _, _ = solve_allocation(default_params(p_ave_db=10.0), 0.03, RECIPROCAL)
    assert starved.var_a == 0.0 and starved.e_r == 0.0, \
        f"starved point should zero AN and reverse energy, got {starved}"
    _report("accept-04", True,
            "var_a(0.1) > var_a(0.03) at 15/20/25 dB; exact zeros at "
            "10 dB / gamma=0.03")


def test_accept_05_condensation_solves_the_echo_problem():
    """Six operating points: at most 50 rounds, monotone objective, quality
    ratio active to 1e-6, and never above a resolution-40 lattice oracle,
    both scored on the sigma-squared surrogate condensation optimizes.
    Cap: 600 s."""
    t0 = time.time()
    worst_excess = -np.inf
    for gamma in (0.1, 0.03):
        for pave in (15.0, 20.0, 25.0):
            p = default_params(p_ave_db=pave)
            sol = condense(p, gamma)
            objs = sol.trace.steps
            assert len(objs) <= 50, f"{len(objs)} rounds at {pave}/{gamma}"
            assert sol.trace.converged
            assert all(b <= a * (1 + 1e-9) for a, b in zip(objs, objs[1:])), \
                f"non-monotone trace at {pave}/{gamma}"
            assert abs(sol.trace.ratio_activity - 1.0) <= 1e-6, \
                f"quality ratio inactive: {sol.trace.ratio_activity}"
            oracle_alloc = grid_oracle_nonreciprocal(p, gamma, resolution=40)
            mine, oracle_obj = (nmse_l_sigma_squared(p, alloc)
                                for alloc in (sol.alloc, oracle_alloc))
            excess = mine / oracle_obj - 1.0
            worst_excess = max(worst_excess, excess)
            assert mine <= oracle_obj, \
                f"condensation {excess:.3e} above the lattice at {pave}/{gamma}"
    elapsed = time.time() - t0
    _report("accept-05", elapsed <= 600.0,
            f"6 points converged, worst excess over oracle(40) "
            f"{worst_excess:+.3e} (tol 0), {elapsed:.1f}s")


def test_accept_06_surrogate_tangent_and_conservative():
    """The condensed ratio touches the true ratio (finite-difference log
    gradients within 1e-4) and never under-estimates it on 1e4 points."""
    p = default_params()
    numer, denom = ratio_parts(p)
    rng = np.random.default_rng(606)
    worst_grad, worst_under = 0.0, 0.0
    for _ in range(20):
        x_bar = rng.uniform(0.3, 8.0, size=6)
        hat = condensed_ratio(numer, denom, x_bar,
                              denominator_exponents(denom, x_bar))
        h = 1e-6
        for k in range(6):
            up, dn = x_bar.copy(), x_bar.copy()
            up[k] *= 1 + h
            dn[k] *= 1 - h
            g_hat = (np.log(hat.value(up)) - np.log(hat.value(dn))) / (2 * h)
            g_true = (np.log(numer.value(up) / denom.value(up))
                      - np.log(numer.value(dn) / denom.value(dn))) / (2 * h)
            worst_grad = max(worst_grad, abs(g_hat - g_true))
        for _ in range(500):
            x = x_bar * rng.uniform(0.2, 5.0, size=6)
            under = numer.value(x) / denom.value(x) - hat.value(x)
            worst_under = max(worst_under, under)
    assert worst_grad <= 1e-4, f"tangency broken: {worst_grad:.2e}"
    assert worst_under <= 1e-12, f"surrogate under-estimates by {worst_under:.2e}"
    _report("accept-06", True,
            f"worst gradient dev {worst_grad:.2e} (tol 1e-4); worst "
            f"under-estimation {worst_under:.2e} over 1e4 points (tol 1e-12)")


def test_accept_07_echo_scheme_surrogate_tracks_reality():
    """Solved echo-scheme allocations, 1e4 trials: Monte Carlo within 15% of
    the analytic surrogate; the exact spectral factor names which printed
    variant sits closer to it."""
    worst = 0.0
    for gamma in (0.1, 0.03):
        for pave in (15.0, 20.0, 25.0):
            p = default_params(p_ave_db=pave)
            alloc, nmse_l, _ = solve_allocation(p, gamma, NON_RECIPROCAL)
            rep = run_nmse_experiment(p, alloc, trials=10000, seed=77)
            dev = abs(rep.empirical_lr / nmse_l - 1.0)
            worst = max(worst, dev)
            assert dev <= 0.15, \
                f"surrogate off by {dev:.3f} at {pave}/{gamma}"
    p = default_params()
    alloc, _, _ = solve_allocation(p, 0.1, NON_RECIPROCAL)
    factor, miss = spectral_factor(p, alloc)
    gaps = {v: abs(miss - jensen_miss(p, alloc, v)) for v in JENSEN_VARIANTS}
    _report("accept-07", True,
            f"worst LR dev {worst:.3f} (tol 0.15) over 6 points; spectral "
            f"factor exactly {factor:.4f} -> closer variant: "
            f"{min(JENSEN_VARIANTS, key=gaps.get)}")


def test_accept_08_floor_respected_empirically(tmp_path):
    """Every row of a 2x3 ``dce nmse`` sweep under each scheme keeps the
    empirical UR NMSE above gamma minus the 95% half-width."""
    checked = 0
    for scheme in (RECIPROCAL, NON_RECIPROCAL):
        out = tmp_path / f"{scheme}.csv"
        assert cli.main(["nmse", "--scheme", scheme, "--gamma", "0.1,0.03",
                         "--pave-db", "15,20,25", "--trials", "2000",
                         "--out", str(out)]) == 0
        for r in csv.DictReader(strip_footer(out.read_text()).splitlines()):
            gamma = float(r["gamma"])
            slack = float(r["nmse_u_empirical"]) - (gamma - float(r["hw95_ur"]))
            assert slack >= 0.0, \
                (f"{scheme} {gamma}/{r['p_ave_db']}: empirical UR "
                 f"{r['nmse_u_empirical']} below floor {gamma}")
            checked += 1
    _report("accept-08", checked == 12,
            f"{checked}/12 sweep rows keep empirical UR NMSE >= gamma - hw95")


def test_accept_09_ser_discrimination():
    """64-QAM data phase at gamma=0.1 over 10..30 dB, 5000 blocks per point:
    the UR stays above 0.1 symbol errors everywhere while the LR improves
    monotonically (within binomial confidence).  Cap: 900 s."""
    t0 = time.time()
    paves = (10.0, 15.0, 20.0, 25.0, 30.0)
    lr, ur, hw = [], [], []
    trials = 5000
    for k, pave in enumerate(paves):
        rep = run_ser_experiment(default_params(p_ave_db=pave), 0.1,
                                 modulation=64, trials=trials, seed=900 + k)
        lr.append(rep.ser_lr)
        ur.append(rep.ser_ur)
        n_sym = 3 * trials
        hw.append(1.96 * np.sqrt(max(rep.ser_lr * (1 - rep.ser_lr), 1e-9)
                                 / n_sym))
    assert all(u > 0.1 for u in ur), f"UR slipped below 0.1: {ur}"
    for k in range(len(paves) - 1):
        assert lr[k + 1] <= lr[k] + hw[k] + hw[k + 1], \
            f"LR SER rose from {lr[k]:.4f} to {lr[k + 1]:.4f} at {paves[k + 1]} dB"
    elapsed = time.time() - t0
    _report("accept-09", elapsed <= 900.0,
            f"UR SER in [{min(ur):.3f}, {max(ur):.3f}] (> 0.1); LR falls "
            f"{lr[0]:.3f} -> {lr[-1]:.5f}; {elapsed:.1f}s")


def test_accept_10_byte_determinism(tmp_path):
    """Each command run twice with the same seed produces byte-identical
    tables once the timestamp footer is stripped."""
    cases = [
        ("alloc", ["alloc", "--gamma", "0.1,0.03", "--pave-db", "15,20"]),
        ("nmse", ["nmse", "--gamma", "0.1", "--pave-db", "20",
                  "--trials", "300", "--seed", "4"]),
        ("ser", ["ser", "--gamma", "0.1", "--pave-db", "20",
                 "--trials", "300", "--seed", "4"]),
    ]
    for name, argv in cases:
        out_a = tmp_path / f"{name}_a.csv"
        out_b = tmp_path / f"{name}_b.csv"
        assert cli.main([*argv, "--out", str(out_a)]) == 0
        assert cli.main([*argv, "--out", str(out_b)]) == 0
        a = strip_footer(out_a.read_text())
        b = strip_footer(out_b.read_text())
        assert a == b, f"{name} output not reproducible"
        assert a.strip(), f"{name} produced an empty table"
    _report("accept-10", True,
            "alloc/nmse/ser each byte-identical across repeat runs "
            "(footer excluded)")
