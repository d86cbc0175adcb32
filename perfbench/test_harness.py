"""Tests of the benchmark harness's own logic.

    python3 -m pytest -q perfbench/test_harness.py
"""

import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest

import dce
import stats
import tracer
from workloads import AllocEcho, AllocRecip


# --- tail percentile -------------------------------------------------------

def test_tail_is_eleventh_largest_with_its_percentile_and_count():
    samples = list(range(100, 0, -1))          # 1..100, unsorted
    pct, value, n = stats.tail(samples)
    assert (pct, value, n) == (90.0, 90, 100)
    assert sum(x > value for x in samples) == 10


def test_tail_falls_back_to_median_when_fewer_than_ten_lie_beyond_it():
    pct, value, n = stats.tail(list(range(21)))      # rank 11 is the median
    assert (value, n) == (10, 21) and pct == pytest.approx(100 * 11 / 21)
    assert stats.tail(list(range(20))) == (50.0, 9.5, 20)
    assert stats.tail([3.0]) == (50.0, 3.0, 1)
    pct, value, n = stats.tail(list(range(22)))
    assert (value, n) == (11, 22) and pct == pytest.approx(100 * 12 / 22)
    with pytest.raises(ValueError):
        stats.tail([])


def test_entry_means_average_the_repeats_of_each_panel_entry():
    lat = [1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 9.0]
    ops = [0, 1, 2, 3, 4, 5, 7]              # period 3; op 6 never ran
    assert stats.entry_means(lat, ops, 3) == [2.0, 5.0, 4.0]


# --- fail_frac accounting ----------------------------------------------------

def test_fail_frac_counts_raised_and_wrong_operations(monkeypatch):
    capture = tracer.Capture(["gp.condense"]).install()
    try:
        wl = AllocRecip(seed=3, capture=capture)
        real = dce.solve_allocation
        calls = []

        def forced(params, gamma, scheme):
            calls.append(gamma)
            if len(calls) == 2:
                raise dce.NoFeasiblePoint("forced")
            alloc, nmse_l, nmse_u = real(params, gamma, scheme)
            if len(calls) == 3:   # break the average budget
                alloc = dce.reciprocal_allocation(alloc.e_r + 1e6, alloc.e_f, alloc.var_a)
            return alloc, nmse_l, nmse_u

        monkeypatch.setattr(dce, "solve_allocation", forced)
        results = [wl.run(i) for i in range(5)]
    finally:
        capture.uninstall()
    assert stats.fail_frac(r.failure for r in results) == (2, 5, 0.4)
    assert results[1].failure == "raised NoFeasiblePoint" and not results[1].wrong
    assert results[1].work == 0
    assert "average budget" in results[2].failure and results[2].wrong
    assert [r.failure for r in results[3:]] == [None, None]


def test_unconverged_condense_is_a_failure_but_not_a_wrong_output(monkeypatch):
    capture = tracer.Capture(["gp.condense"]).install()
    try:
        wl = AllocEcho(seed=0, capture=capture)
        # the instance with the highest floor converges in a few rounds
        i = max(range(len(wl.panel)), key=lambda k: wl.panel[k][1])
        first = wl.run(i)
        assert first.failure is None, first.failure
        p, gamma, _ = wl.panel[i]
        solved = dce.solve_allocation(p, gamma, dce.NON_RECIPROCAL)
        stuck = SimpleNamespace(trace=SimpleNamespace(
            converged=False, steps=[None] * 50, ratio_activity=1.0))

        def unconverged(params, gamma, scheme):
            capture.results["gp.condense"].append(stuck)
            return solved

        monkeypatch.setattr(dce, "solve_allocation", unconverged)
        res = wl.run(i)
    finally:
        capture.uninstall()
    assert res.failure == "not converged" and not res.wrong and res.work == 1
    assert stats.fail_frac([first.failure, res.failure]) == (1, 2, 0.5)


# --- wrapper install and uninstall -------------------------------------------

def _bindings(original):
    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "dce" or name.startswith("dce."))]
    return [(m.__name__, attr) for m in mods for attr, v in vars(m).items()
            if getattr(v, "__wrapped__", None) is original or v is original]


def test_tracer_patches_every_binding_and_restores_originals():
    original = dce.training.forward_training
    sites = _bindings(original)
    assert {"dce.training", "dce.montecarlo", "dce"} <= {m for m, _ in sites}
    t = tracer.Tracer("test").install()
    try:
        for mod, attr in sites:
            assert sys.modules[mod].__dict__[attr] is not original
        p = dce.default_params()
        dce.run_nmse_experiment(p, dce.reciprocal_allocation(1.0, 8.0, 0.5),
                                trials=100, seed=1)
    finally:
        t.uninstall()
    for mod, attr in sites:
        assert sys.modules[mod].__dict__[attr] is original
    for name in tracer.traced_names():
        assert tracer.lookup(name) is not None
        assert not hasattr(tracer.lookup(name), "__wrapped__")
    agg = tracer.aggregate(t.spans, t.names)
    assert agg["training.forward_training"]["calls"] == 100
    assert agg["montecarlo.run_nmse_experiment"]["calls"] == 1
    # self times of all spans add up to the root span's duration
    root = [s for s in t.spans if s[tracer.PARENT] == -1]
    assert len(root) == 1
    total = sum(tracer.self_times(t.spans))
    assert total == pytest.approx(root[0][tracer.END] - root[0][tracer.START], rel=1e-9)


def test_reinstall_and_stacking_with_capture():
    original = dce.gp.condense
    capture = tracer.Capture(["gp.condense"]).install()
    t = tracer.Tracer("test", names=["gp.condense"]).install()
    t.uninstall()
    assert dce.montecarlo.condense is not original          # capture still bound
    t.reinstall()
    assert dce.montecarlo.condense.__wrapped__ is dce.gp.condense.__wrapped__
    t.uninstall()
    capture.uninstall()
    assert dce.montecarlo.condense is original and dce.gp.condense is original
    assert dce.condense is original


def test_absent_functions_are_reported_not_raised():
    t = tracer.Tracer("test", names=["training.no_such_function",
                                     "no_such_module.f", "rng.trial_rng"]).install()
    t.uninstall()
    assert t.absent == ["training.no_such_function", "no_such_module.f"]
    agg = tracer.aggregate([], t.names)
    assert agg["training.no_such_function"] == {"calls": 0, "busy_s": 0.0,
                                                "self_s": 0.0, "raised": 0}


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1, False), ("b", 1.0, 4.0, 0, False),
             ("c", 2.0, 3.0, 1, False), ("d", 5.0, 9.0, 0, True)]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    agg = tracer.aggregate(spans, ["a", "d"])
    assert agg["d"]["raised"] == 1 and agg["a"]["busy_s"] == 10.0
    assert tracer.rebase(spans, 1)[0][tracer.PARENT] == -1
    assert tracer.rebase(spans, 1)[1][tracer.PARENT] == 0
