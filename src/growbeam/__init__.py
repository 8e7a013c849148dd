"""Optimality-driven surface growth of a layered prestressed cantilever beam."""

from types import ModuleType as _ModuleType

from .beam import (BeamConfig, EquilibriumState, HeightField, LayerStack,
                   LoadCase, LoadKind, PrestrainPair, bending_moment,
                   deflection, equilibrium_general, stress_at)
from .baseline import BaselineSolution, solve_baseline_first, solve_baseline_step
from .compliance import (ComplianceDensity, compliance_total,
                         convex_envelope_1d, f_second, f_value, g_second,
                         g_value)
from .config import RunConfig, parse_config
from .errors import ConfigError, ConvergenceError, DomainError, InfeasibleError
from .growth import GrowthTrace, MassSchedule, StepRecord, run_growth
from .output import read_profile, render_curve_svg, render_profile_svg, write_trace
from .solver import (MassMode, SolverOptions, StepProblem, StepSolution,
                     kkt_residual, minimize_step)

__version__ = "0.1.0"

# the submodules bound by the imports above are not part of the API
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
