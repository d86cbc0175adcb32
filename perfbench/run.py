"""Benchmark of the ``dce`` package: one workload per invocation.

    python3 perfbench/run.py --workload alloc-echo --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.

With ``--trace 0`` the workload runs in PARTS fresh worker processes, one
after another, each single-threaded and never two at once.  Worker ``k``
sets up (import ``dce``, generate the inputs) and then runs whole passes
over its share of the panel (entries ``k``, ``k + PARTS``, ...): the first
worker as many as start within ``--seconds / PARTS``, the others the same
number (alloc-echo always makes one pass).  This process pools their operations,
checks them and reports the end-to-end metrics; pooling over processes
averages out the few-percent speed offsets that differ from one process to
the next.  With ``--trace 1`` a fixed, seed-determined set of operations
runs in this process three times each (untraced, traced, traced again)
with every public function in ``tracer.LAYERS`` wrapped, and the per-layer
metrics are reported.  Every operation's output is checked (see
``workloads.py``).

Lines starting with ``#`` are the human report: every metric with its unit
and sample count, the failures, and the run environment.  The last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of a traced run and a sidecar with the full result are
written under ``perfbench/out/``.

Exit status: 0 on success, 2 when the library cannot be imported from this
checkout, 3 when the traced run's exact counts differ between two runs of
the same operation (nondeterminism), 4 when a worker process fails.
"""

import time

_T0 = time.perf_counter()   # set-up time is counted from here

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import uuid
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Worker processes of an untraced run; each also measures one set-up.
PARTS = 4
# Every worker must be done this long after the run started.
DEADLINE_S = 170
# The reference kernel (speed.py) runs after at least this much timed
# work, and scales the operations timed since its previous run.
KERNEL_EVERY_S = 0.2
# Kernel runs averaged for a set-up time.
SETUP_KERNEL_RUNS = 3

# Counts that must repeat exactly when the same operation runs twice.
EXACT_COUNTS = ("rng.trial_rng.calls", "nmse.nmse_l_reciprocal.calls",
                "ostbc.decode_block.calls", "gp.condense.rounds",
                "alloc_reciprocal.branch.closed_form",
                "alloc_reciprocal.branch.line_search")
BRANCHES = {"closed-form": "alloc_reciprocal.branch.closed_form",
            "line-search": "alloc_reciprocal.branch.line_search"}


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def source_fingerprint() -> str:
    """sha256 over the library's source files, identifying the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def import_library():
    """Import ``dce`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dce
    except ImportError as exc:
        raise BenchmarkError(f"cannot import dce from {src}: {exc}", 2)
    if Path(dce.__file__).resolve() != (src / "dce" / "__init__.py").resolve():
        raise BenchmarkError(f"dce was imported from {dce.__file__}, not {src}", 2)
    return dce


def environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:   # the layout of show_config differs across numpy versions
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": source_fingerprint(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_kernel_s() -> float:
    import speed
    return statistics.mean(speed.kernel_s() for _ in range(SETUP_KERNEL_RUNS))


def timed_share(workload, part: int, parts: int, seconds: float,
                passes: Optional[int]) -> tuple:
    """Whole passes over this worker's share of the panel (entries ``part``,
    ``part + parts``, ...): exactly ``passes`` of them, or, when that is
    None, as many as start within ``seconds`` (at least one).  Returns the
    results and the number of passes.  Each result's ``kernel_s`` is the
    mean reference-kernel time of the kernel runs just before and just
    after it."""
    import speed
    period = workload.ops_per_pass()
    share = range(part, period, parts)
    results, pending, since = [], [], 0.0
    before = speed.kernel_s()
    start = time.perf_counter()
    done = 0
    while share and (done < passes if passes is not None
                     else done == 0 or time.perf_counter() - start < seconds):
        for entry in share:
            res = workload.run(done * period + entry)
            results.append(res)
            pending.append(res)
            since += res.latency_s
            if since >= KERNEL_EVERY_S:
                after = speed.kernel_s()
                for r in pending:
                    r.kernel_s = (before + after) / 2
                pending, since, before = [], 0.0, after
        done += 1
    if pending:
        after = speed.kernel_s()
        for r in pending:
            r.kernel_s = (before + after) / 2
    return results, done


def run_parts(args) -> tuple:
    """Run the PARTS workers one after another; returns their pooled
    operations, set-ups ``(seconds, kernel seconds)``, peak RSS values and
    the panel length.

    The first worker runs share passes for its slice of ``--seconds``; the
    others then run the same number of passes, so every panel entry runs
    equally often and the mix of operations is the same in every run.  A
    workload with fixed ``passes`` runs exactly that many.
    """
    from workloads import WORKLOADS, OpResult
    started = time.perf_counter()
    results, setups, rss = [], [], []
    passes = WORKLOADS[args.workload].passes
    for part in range(PARTS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / PARTS),
               "--part", str(part)]
        if passes is not None:
            cmd += ["--passes", str(passes)]
        left = DEADLINE_S - (time.perf_counter() - started)
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"worker {part} did not finish in time", 4)
        if done.returncode != 0:
            raise BenchmarkError(f"worker {part} failed with status {done.returncode}: "
                                 f"{done.stderr.strip()[-2000:]}", 4)
        out = json.loads(done.stdout.strip().splitlines()[-1])
        results.extend(OpResult(**r) for r in out["ops"])
        setups.append((out["setup_s"], out["setup_kernel_s"]))
        rss.append(out["peak_rss_mb"])
        period = out["period"]
        if passes is None:
            passes = out["passes"]
    results.sort(key=lambda r: r.op)
    return results, setups, rss, period


def end_to_end(results, setups, rss, period: int) -> dict:
    """The JSON metrics; every time is at the reference speed (speed.py).

    The latency percentiles are taken over the panel's entries, each the
    mean of its repeats: a single 3 ms solve scaled by the kernel time of
    its 0.2 s neighbourhood is too noisy a sample for a median.
    """
    import speed
    import stats
    latencies = [speed.scaled(r.latency_s, r.kernel_s) for r in results]
    per_entry = stats.entry_means(latencies, [r.op for r in results], period)
    _, tail_s, _ = stats.tail(per_entry)
    return {
        "setup_s": {"value": statistics.median(speed.scaled(s, k) for s, k in setups),
                    "unit": "s"},
        "work_per_s": {"value": sum(r.work for r in results) / sum(latencies), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(per_entry) * 1e3, "unit": "ms"},
        "op_ms_tail": {"value": tail_s * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": max(rss), "unit": "MB"},
    }


def report_end_to_end(workload, results, setups, rss, period, metrics) -> list:
    """Human report lines, naming each metric as the workload's user sees it,
    with the raw (unscaled) figure beside the reference-speed one."""
    import stats
    unit = workload.work_unit
    op = "solve" if unit == "solves" else "point"
    n = len(results)
    raw = [r.latency_s for r in results]
    work = sum(r.work for r in results)
    failed, attempted, frac = stats.fail_frac(r.failure for r in results)
    _, raw_tail, _ = stats.tail(raw)
    pct, _, _ = stats.tail([0.0] * period)
    kernels = [r.kernel_s for r in results]
    m = {k: v["value"] for k, v in metrics.items()}
    return [
        f"setup_s = {m['setup_s']:.4f} s (median of {len(setups)} fresh-process "
        f"set-ups; raw {statistics.median(s for s, _ in setups):.4f} s)",
        f"{unit}_per_s = {m['work_per_s']:.4f} 1/s ({work} {unit} in {n} operations, "
        f"{sum(raw):.3f} s of timed wall; raw {work / sum(raw):.4f} 1/s)",
        f"{op}_ms_p50 = {m['op_ms_p50']:.4f} ms (n={period} panel entries, each the mean "
        f"of its {n // period} repeats; raw over all {n}: {statistics.median(raw) * 1e3:.4f} ms)",
        f"{op}_ms_tail = {m['op_ms_tail']:.4f} ms (p{pct:.1f}, n={period} panel entries; "
        f"raw over all {n}: {raw_tail * 1e3:.4f} ms)",
        f"fail_frac = {frac:.4f} ({failed} of {attempted} operations)",
        f"peak_rss_mb = {m['peak_rss_mb']:.1f} MB (largest of {len(rss)} processes)",
        f"reference kernel: median {statistics.median(kernels) * 1e3:.4f} ms, "
        f"range {min(kernels) * 1e3:.4f}-{max(kernels) * 1e3:.4f} ms",
    ]


def traced_run(dce, workload, capture, run_id: str):
    """Untraced, traced and traced again, for each operation of the fixed set.

    ``trace.overhead_frac`` compares the traced and untraced times at the
    reference speed (each execution is scaled by the kernel runs around it);
    the per-layer times are raw.
    """
    import speed
    import tracer as tr
    tracer = tr.Tracer(run_id).install()
    tracer.uninstall()
    pilot = getattr(getattr(dce, "training", None), "pilot_matrix", None)
    cache_info = getattr(pilot, "cache_info", None)
    results, untraced_wall, traced_wall = [], 0.0, [0.0, 0.0]
    raw_traced_wall = 0.0
    kernel = speed.kernel_s()
    totals = [tr.aggregate([], tracer.names), tr.aggregate([], tracer.names)]
    extra = {"rounds": 0, "converged": 0, "condense": 0, "resampled": 0,
             "trials": 0, "closed_form": 0, "line_search": 0}
    hits = misses = 0
    mismatches = []
    for i in workload.traced_ops():
        plain = workload.run(i)
        results.append(plain)
        k_after = speed.kernel_s()
        untraced_wall += speed.scaled(plain.latency_s, (kernel + k_after) / 2)
        kernel = k_after
        counts = []
        for rep in (0, 1):
            tracer.reinstall()
            before = cache_info() if cache_info else None
            first = len(tracer.spans)
            try:
                res = workload.run(i)
            finally:
                tracer.uninstall()
            after = cache_info() if cache_info else None
            results.append(res)
            k_after = speed.kernel_s()
            traced_wall[rep] += speed.scaled(res.latency_s, (kernel + k_after) / 2)
            raw_traced_wall += res.latency_s / 2
            kernel = k_after
            agg = tr.aggregate(tr.rebase(tracer.spans, first), tracer.names)
            for name, row in agg.items():
                for key, value in row.items():
                    totals[rep].setdefault(name, dict.fromkeys(row, 0))[key] += value
            sols = capture.results.get("gp.condense", [])
            branches = [s.branch for s in capture.results.get(
                "alloc_reciprocal.solve_reciprocal", [])]
            count = {f"{name}.calls": agg[name]["calls"] for name in agg}
            count["gp.condense.rounds"] = sum(len(s.trace.steps) for s in sols)
            for branch, key in BRANCHES.items():
                count[key] = branches.count(branch)
            counts.append({k: count.get(k, 0) for k in EXACT_COUNTS})
            if rep == 0:
                extra["rounds"] += count["gp.condense.rounds"]
                extra["condense"] += len(sols)
                extra["converged"] += sum(bool(s.trace.converged) for s in sols)
                extra["closed_form"] += branches.count("closed-form")
                extra["line_search"] += branches.count("line-search")
                if workload.work_unit == "trials" and res.work:
                    extra["trials"] += res.work
                    extra["resampled"] += res.detail.get(
                        "resampled", max(0, agg["rng.trial_rng"]["calls"] - res.work))
                if before is not None:
                    hits += after.hits - before.hits
                    misses += after.misses - before.misses
        if counts[0] != counts[1]:
            mismatches.append((i, counts[0], counts[1]))
    workload.check_across(results)
    if mismatches:
        raise BenchmarkError(f"exact counts differ between two runs of the same "
                             f"operation (nondeterminism): {mismatches[:3]}", 3)

    metrics = {}
    for name in tracer.names:
        t0, t1 = totals[0][name], totals[1][name]
        metrics[f"{name}.calls"] = (t0["calls"], "count")
        metrics[f"{name}.busy_s"] = ((t0["busy_s"] + t1["busy_s"]) / 2, "s")
        metrics[f"{name}.self_s"] = ((t0["self_s"] + t1["self_s"]) / 2, "s")
    wall = sum(traced_wall) / 2
    self_sum = sum(metrics[f"{n}.self_s"][0] for n in tracer.names)
    metrics.update({
        "training.null_space_basis.raised": (totals[0]["training.null_space_basis"]["raised"], "count"),
        "training.pilot_matrix.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "estimators.tx_estimate_downlink.raised": (totals[0]["estimators.tx_estimate_downlink"]["raised"], "count"),
        "montecarlo.resampled_frac": (extra["resampled"] / extra["trials"] if extra["trials"] else 0.0, "frac"),
        "gp.condense.rounds": (extra["rounds"], "count"),
        "gp.condense.converged_frac": (extra["converged"] / extra["condense"] if extra["condense"] else 0.0, "frac"),
        "alloc_reciprocal.branch.closed_form": (extra["closed_form"], "count"),
        "alloc_reciprocal.branch.line_search": (extra["line_search"], "count"),
        "trace.overhead_frac": ((wall - untraced_wall) / untraced_wall, "frac"),
        "trace.attributed_frac": (self_sum / raw_traced_wall, "frac"),
    })
    info = {"absent": tracer.absent, "traced_wall_s": raw_traced_wall,
            "traced_wall_at_reference_s": wall,
            "untraced_wall_at_reference_s": untraced_wall, "self_sum_s": self_sum,
            "operations": len(workload.traced_ops())}
    return results, metrics, info, tracer


def write_spans(path: Path, tracer, workload_name: str, seed: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"run_id": tracer.run_id, "workload": workload_name, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "raised"],
                   "spans": tracer.spans}, fh)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--passes", type=int, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def worker(args, workload_cls) -> int:
    """One worker process of an untraced run: prints its operations as JSON."""
    import dataclasses
    from tracer import Capture
    capture = Capture(["gp.condense"]).install()
    try:
        workload = workload_cls(args.seed, capture)
        setup_s = time.perf_counter() - _T0
        setup_kernel = setup_kernel_s()
        results, passes = timed_share(workload, args.part, PARTS, args.seconds,
                                      args.passes)
    finally:
        capture.uninstall()
    print(json.dumps({
        "setup_s": setup_s, "setup_kernel_s": setup_kernel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": passes, "period": workload.ops_per_pass(), "ops": [dataclasses.asdict(r) for r in results]}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:        # before numpy is first imported
        os.environ[var] = "1"
    try:
        dce = import_library()
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return exc.code
    import stats
    from tracer import Capture
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    if args.part is not None:
        return worker(args, workload_cls)

    run_id = uuid.uuid4().hex
    try:
        if args.trace:
            capture = Capture(["gp.condense", "alloc_reciprocal.solve_reciprocal"]).install()
            try:
                workload = workload_cls(args.seed, capture)
                results, values, info, tracer = traced_run(dce, workload, capture, run_id)
            finally:
                capture.uninstall()
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            lines = [f"{k} = {v['value']!r} {v['unit']}" for k, v in metrics.items()]
            lines.append(f"self times cover {info['self_sum_s']:.4f} s of "
                         f"{info['traced_wall_s']:.4f} s traced wall; at the "
                         f"reference speed traced {info['traced_wall_at_reference_s']:.4f} s, "
                         f"untraced {info['untraced_wall_at_reference_s']:.4f} s; absent: "
                         f"{info['absent'] or 'none'}")
        else:
            results, setups, rss, period = run_parts(args)
            workload_cls.check_across(results)
            metrics = end_to_end(results, setups, rss, period)
            lines = report_end_to_end(workload_cls, results, setups, rss, period, metrics)
            info = {"setup_samples_s": setups, "peak_rss_mb": rss,
                    "raw_latency_s": [r.latency_s for r in results],
                    "kernel_s": [r.kernel_s for r in results]}
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return exc.code

    failed, attempted, _ = stats.fail_frac(r.failure for r in results)
    env = environment(args)
    counts = {"operations": attempted,
              workload_cls.work_unit: sum(r.work for r in results)}
    print(f"# dce benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"# env {json.dumps(env)}")
    print(f"# counts {json.dumps(counts)}")
    for line in lines:
        print(f"# {line}")
    for r in results:
        if r.failure:
            print(f"# failed operation {r.op}: {r.failure}")
    result = {"correct": not any(r.wrong for r in results), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        write_spans(OUT_DIR / f"spans-{stem}.json.gz", tracer, args.workload, args.seed)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(
        {"run_id": run_id, "env": env, "counts": counts, "info": info,
         "failures": [[r.op, r.failure] for r in results if r.failure],
         **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
