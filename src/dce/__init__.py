r"""Discriminatory channel estimation via two-way training.

A transmitter and its legitimate receiver cooperate through reverse,
round-trip, and forward training phases so that artificial noise, injected
in the estimated null space of the legitimate channel, degrades any
unauthorized receiver's channel estimate while barely touching the
legitimate one.  The package provides the training simulation, closed-form
NMSE predictions, the two power-allocation solvers (a reduced line search
for reciprocal channels, successive GP condensation otherwise) and
Monte-Carlo verification including data-phase symbol error rates with a
four-antenna orthogonal block code.  The brute-force lattice oracles that
check both solvers live in the test suite (``tests/oracles.py``).
"""

from .alloc_reciprocal import solve_reciprocal
from .config import ExperimentConfig
from .errors import (ConfigError, DceError, Infeasible, InfeasibleGamma,
                     NoFeasiblePoint, NonFiniteOutcome, NotConverged, Stalled,
                     UnsupportedGeometry)
from .gp import GpState, condense, initial_feasible_state, solve_inner_gp
from .montecarlo import (run_nmse_experiment, run_ser_experiment,
                         solve_allocation)
from .nmse import (nmse_l_nonreciprocal_approx, nmse_l_reciprocal,
                   nmse_lower_bound, nmse_u)
from .params import (NON_RECIPROCAL, RECIPROCAL, PowerAllocation, SystemParams,
                     default_params, linear_to_db, reciprocal_allocation,
                     with_fixed_energy_budgets)
from .rng import complex_gaussian, trial_rng
from .tables import ResultTable
from .training import (forward_training, null_space_basis, reverse_training,
                       sample_channels)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
