"""Exception taxonomy for the DCE library.

Every failure mode that callers are expected to branch on gets its own
class; anything else is a plain ValueError at the offending call site.
"""


class DceError(Exception):
    """Base class for all library-specific errors."""


class RankDeficient(DceError):
    """A Monte-Carlo trial's transmitter estimate lost column rank, so no AN
    null space exists; ``trial`` is its index in its stack or run."""

    def __init__(self, message, trial=None):
        super().__init__(message)
        self.trial = trial


class InfeasibleGamma(DceError):
    """Requested UR NMSE floor lies outside the achievable interval."""


class NoFeasiblePoint(DceError):
    """A brute-force lattice contains no point satisfying all constraints.

    No library code raises it.  Its users are the test suite's lattice
    oracles (``tests/oracles.py``) and the benchmark harness's own test,
    which raises ``dce.NoFeasiblePoint`` as a sample operation failure.
    """


class Infeasible(DceError):
    """Phase-one search found no strictly feasible point for the GP."""


class NotConverged(DceError):
    """Iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class Stalled(DceError):
    """Condensation objective decreased between iterations (solver failure)."""


class UnsupportedGeometry(DceError):
    """Operation only defined for a specific antenna geometry (e.g. 4 TX)."""


class ConfigError(DceError):
    """Configuration file or flag set failed validation."""
