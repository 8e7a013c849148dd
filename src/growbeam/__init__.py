"""Optimality-driven surface growth of a layered prestressed cantilever beam."""

from .beam import (BeamConfig, EquilibriumState, HeightField, LayerStack,
                   LoadCase, LoadKind, PrestrainPair, bending_moment,
                   deflection, equilibrium_bare, equilibrium_general,
                   equilibrium_one_layer, stress_at)
from .baseline import (BaselineSolution, baseline_mass, solve_baseline_first,
                       solve_baseline_step)
from .compliance import (ComplianceDensity, compliance_total,
                         convex_envelope_1d, density_baseline,
                         density_precurv_first, density_prestrain,
                         f_concavity_interval, f_second, f_second_raw,
                         f_value, f_value_raw, g_second, g_second_raw,
                         g_value, g_value_raw)
from .errors import (ConfigError, ConvergenceError, DegenerateSectionError,
                     DomainError, InfeasibleError)
from .growth import (GrowthTrace, MassSchedule, ScheduleKind, StepRecord,
                     run_growth, stationarity_report)
from .solver import (MassMode, SolverOptions, StepProblem, StepSolution,
                     kkt_residual, minimize_step, project_mass_lb)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

from .config import RunConfig, dump_config, parse_config  # noqa: E402
from .output import (read_profile, render_curve_svg, render_profile_svg,  # noqa: E402
                     write_trace)

__all__ = [name for name in dir() if not name.startswith("_")]
