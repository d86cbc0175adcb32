"""Capture the golden solver objectives of the allocation workloads' pools.

Run from the repository root when the pool definition changes, never to
make a failing check pass:

    python3 perfbench/capture_golden.py alloc-echo alloc-recip

Each ``golden/<workload>.json`` holds, per pool instance, the objective
that ``solve_allocation`` returned when it was captured, plus the
convergence flag and round count (alloc-echo) or the branch (alloc-recip)
for reference.  An instance whose solve raised at capture has no golden.  ``inputs_sha256`` ties the file to the generated pool.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(names):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import dce
    from tracer import Capture
    from workloads import WORKLOADS, _fingerprint, _pave_params
    import run

    for name in names:
        cls = WORKLOADS[name]
        pool = cls.pool()
        capture = Capture(["gp.condense", "alloc_reciprocal.solve_reciprocal"]).install()
        objective, extra = [], []
        try:
            for k, (kw, gamma) in enumerate(pool):
                capture.clear()
                try:
                    _, nmse_l, _ = dce.solve_allocation(_pave_params(**kw), gamma, cls.scheme)
                except dce.DceError as exc:
                    # No golden: a later fix may solve it, and is then held
                    # to the budget and floor checks only.
                    objective.append(None)
                    extra.append(f"raised {type(exc).__name__}")
                    print(f"{name} {k + 1}/{len(pool)}", extra[-1], file=sys.stderr, flush=True)
                    continue
                objective.append(nmse_l)
                if cls.scheme == dce.NON_RECIPROCAL:
                    tr = capture.results["gp.condense"][-1].trace
                    extra.append([tr.converged, len(tr.steps)])
                else:
                    extra.append(capture.results["alloc_reciprocal.solve_reciprocal"][-1].branch)
                print(f"{name} {k + 1}/{len(pool)}", extra[-1], file=sys.stderr, flush=True)
        finally:
            capture.uninstall()
        out = {
            "workload": name,
            "inputs_sha256": _fingerprint(pool),
            "source_sha256": run.source_fingerprint(),
            "objective": objective,
            "converged_rounds" if cls.scheme == dce.NON_RECIPROCAL else "branch": extra,
        }
        (HERE / "golden").mkdir(exist_ok=True)
        (HERE / "golden" / f"{name}.json").write_text(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
