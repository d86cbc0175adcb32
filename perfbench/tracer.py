"""Outside-in tracing of the ``dce`` package.

The benchmark never edits the library.  Instead it replaces a public
function with a wrapper at every place a ``dce`` module has bound it:
``montecarlo`` does ``from .training import forward_training``, so patching
``dce.training.forward_training`` alone would miss the calls the Monte-Carlo
loop makes.  ``Patcher`` finds each binding by identity in every loaded
``dce.*`` module (and the package itself) and puts the original object back
on ``uninstall``.

``Tracer`` uses it to record one span per call: name, start, end, parent
span and whether the call raised.  Spans stay in memory; the benchmark
writes them out when it ends.  A listed function that the library no longer
has is reported as absent, never as an error.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# The layers are the package's modules; each entry names the public
# functions whose calls are timed in the traced run.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "rng": ("trial_rng", "complex_gaussian"),
    "training": ("sample_channels", "reverse_training", "round_trip_training",
                 "forward_training", "null_space_basis"),
    "estimators": ("tx_estimate_reciprocal", "tx_estimate_uplink",
                   "tx_estimate_downlink", "lr_estimate_reciprocal",
                   "lr_estimate_nonreciprocal", "ur_estimate"),
    "montecarlo": ("run_nmse_experiment", "run_ser_experiment",
                   "solve_allocation"),
    "ostbc": ("encode_block", "decode_block"),
    "gp": ("condense", "solve_inner_gp", "initial_feasible_state"),
    "alloc_reciprocal": ("solve_reciprocal",),
    "nmse": ("nmse_l_reciprocal", "nmse_u_reciprocal",
             "nmse_l_nonreciprocal_approx", "nmse_u_nonreciprocal"),
}

PACKAGE = "dce"


def traced_names() -> List[str]:
    """Every ``<module>.<function>`` the traced run times, in layer order."""
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def lookup(qualname: str) -> Optional[Callable]:
    """The function ``<module>.<function>`` of the package, or None if absent."""
    mod_name, _, fn_name = qualname.rpartition(".")
    try:
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
    except ImportError:
        return None
    fn = getattr(module, fn_name, None)
    return fn if callable(fn) else None


class Patcher:
    """Replaces functions at every ``dce.*`` binding and restores them."""

    def __init__(self):
        self._sites: List[Tuple[object, str, Callable, Callable]] = []

    def patch(self, original: Callable, wrapper: Callable) -> int:
        """Bind ``wrapper`` wherever ``original`` is bound; returns the count."""
        bound = 0
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._sites.append((module, attr, original, wrapper))
                    bound += 1
        return bound

    def reapply(self) -> None:
        """Bind the wrappers again at the sites found by ``patch``."""
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Bind the originals again, also in modules imported after patching."""
        originals = {id(w): (w, o) for _, _, o, w in self._sites}
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])


class Capture:
    """Keeps the return value of selected functions (no timing).

    The output checks need what ``condense`` returns (``trace.converged``),
    which ``solve_allocation`` and ``run_ser_experiment`` do not pass on.
    """

    def __init__(self, qualnames: Iterable[str]):
        self.results: Dict[str, list] = {name: [] for name in qualnames}
        self._patcher = Patcher()

    def install(self) -> "Capture":
        for name, sink in self.results.items():
            fn = lookup(name)
            if fn is None:
                continue

            def wrapper(*args, _fn=fn, _sink=sink, **kwargs):
                result = _fn(*args, **kwargs)
                _sink.append(result)
                return result

            self._patcher.patch(fn, functools.wraps(fn)(wrapper))
        return self

    def clear(self) -> None:
        for sink in self.results.values():
            sink.clear()

    def uninstall(self) -> None:
        self._patcher.restore()


# Span fields, kept as tuples to make recording cheap.
NAME, START, END, PARENT, RAISED = range(5)


class Tracer:
    """Records a span for every call of the functions in ``LAYERS``."""

    def __init__(self, run_id: str, names: Optional[Iterable[str]] = None):
        self.run_id = run_id
        self.names = list(names) if names is not None else traced_names()
        self.spans: List[Optional[tuple]] = []
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._patcher = Patcher()

    def install(self) -> "Tracer":
        for name in self.names:
            fn = lookup(name)
            if fn is None:
                self.absent.append(name)
                continue
            self._patcher.patch(fn, self._wrap(name, fn))
        return self

    def uninstall(self) -> None:
        self._patcher.restore()

    def reinstall(self) -> None:
        """Bind the wrappers again after ``uninstall`` (no new lookup)."""
        self._patcher.reapply()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, raised)

        return wrapper


def self_times(spans: List[tuple]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def aggregate(spans: List[tuple], names: Iterable[str]) -> Dict[str, Dict[str, float]]:
    """Per-function calls, busy time, self time and raised count.

    ``spans`` must be a closed set: every parent index refers into it.
    Names with no span report zeros.
    """
    out = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "raised": 0} for n in names}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                       "raised": 0})
        row["calls"] += 1
        row["busy_s"] += s[END] - s[START]
        row["self_s"] += own
        row["raised"] += int(s[RAISED])
    return out


def rebase(spans: List[tuple], first: int) -> List[tuple]:
    """The spans from index ``first`` on, with parent indices made local."""
    return [(s[NAME], s[START], s[END], s[PARENT] - first if s[PARENT] >= first else -1,
             s[RAISED]) for s in spans[first:]]
