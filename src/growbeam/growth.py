"""Multi-step growth orchestration: mass schedule, the section state carried
from step to step, solver invocation, and trace recording."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .beam import (BeamConfig, EquilibriumState, HeightField, LayerStack,
                   LoadCase, PrestrainPair, _as_values, bending_moment, solve_section)
from .beam import equilibrium_general  # noqa: F401  (traced here by bench/spans.py)
from .compliance import ComplianceDensity, compliance_total
from .errors import ConvergenceError, DomainError
from .solver import (TOL_ACTIVE, MassMode, SolverOptions, StepProblem, StepSolution,
                     minimize_step)

ABLATION_FLOOR_FRACTION = 1e-3  # lower bound 1e-3 * h0 when ablation is on


@dataclass(frozen=True)
class MassSchedule:
    """Target masses m_1..m_S: m0 + i * increment, or the explicit ``values``."""

    increment: float | None = None
    values: tuple | None = None

    def __post_init__(self):
        if (self.increment is None) == (self.values is None):
            raise DomainError("a mass schedule takes exactly one of increment and values")
        vals = self.values or ()
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise DomainError("mass targets must be nondecreasing")
        if self.values is None and not self.increment >= 0:   # NaN fails too
            raise DomainError("mass increment must be nonnegative")

    @classmethod
    def affine(cls, increment: float) -> "MassSchedule":
        return cls(increment=increment)

    @classmethod
    def explicit(cls, values) -> "MassSchedule":
        return cls(values=tuple(float(v) for v in values))

    def targets(self, m0: float, steps: int) -> np.ndarray:
        if self.values is None:
            return m0 + self.increment * np.arange(1, steps + 1)
        if len(self.values) != steps:
            raise DomainError(f"schedule lists {len(self.values)} masses for {steps} steps")
        return np.asarray(self.values)


@dataclass(kw_only=True)
class StepRecord(StepSolution):
    """A solved step with its bookkeeping: the step's index, and the mass,
    compliance, share of grown cells and largest increment of its profile."""

    index: int
    mass: float
    compliance: float
    growth_fraction: float
    max_increment: float

    @classmethod
    def of(cls, index: int, problem: StepProblem, solution: StepSolution,
           compliance: float) -> "StepRecord":
        """Record ``solution`` of ``problem`` as step ``index``; a cell has
        grown when it rose more than TOL_ACTIVE above ``problem.h_prev``."""
        inc = solution.h.values - problem.h_prev.values
        return cls(**vars(solution), index=index, mass=solution.h.mass(problem.config),
                   compliance=compliance, growth_fraction=float((inc > TOL_ACTIVE).mean()),
                   max_increment=float(inc.max()))


@dataclass
class GrowthTrace:
    """Full run record: per-step profiles, compliances, multipliers,
    residuals, and the prestrain pair and mass target of every step."""

    config: BeamConfig
    load: LoadCase
    tau: float
    mass_mode: MassMode
    ablation: bool
    h0: HeightField
    initial_mass: float
    initial_compliance: float
    records: list = field(default_factory=list)
    prestrains: list = field(default_factory=list)
    mass_targets: list = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.records)

    @property
    def problems(self) -> list:
        """Each recorded step's StepProblem, rebuilt by replaying the
        recorded heights; a run keeps no per-step density."""
        section = _Section(self.config, self.load, self.h0, self.ablation)
        problems = []
        for record, pre, m_i in zip(self.records, self.prestrains, self.mass_targets):
            problems.append(section.problem(pre, m_i, self.tau, self.mass_mode))
            section.deposit(problems[-1].density, record.h, pre)
        return problems

    def heights_by_step(self):
        """Profiles indexed 0..S, step 0 being the initial height."""
        return [self.h0.values] + [r.h.values for r in self.records]


class _Section:
    """The deposited beam as the next step sees it: its top profile and the
    per-cell prestrain integrals A = int e^p dy, R = int y e^p dy - M/E.

    Each step adds one layer, so the state advances in O(N) per step.  Only
    ablation, which may cut into earlier layers, also keeps the history the
    density trims, as ``beam.Layers``.
    """

    def __init__(self, config: BeamConfig, load: LoadCase, h0: HeightField,
                 ablation: bool):
        self.config = config
        self.moment = bending_moment(load, config, config.x_centers)
        self.top = h0
        self.a = np.zeros(config.n_cells)
        self.r = -self.moment / config.young_modulus
        self.history = LayerStack((h0,), ()).segments() if ablation else None
        self.floor = HeightField(ABLATION_FLOOR_FRACTION * h0.values) if ablation else None

    def problem(self, pre: PrestrainPair, mass_target: float, tau: float,
                mass_mode: MassMode) -> StepProblem:
        density = ComplianceDensity(self.config.young_modulus, self.moment,
                                    self.top.values, self.a, self.r,
                                    pre.eps_p, pre.kappa_p, self.history)
        return StepProblem(density=density, h_prev=self.top,
                           mass_target=float(mass_target), tau=tau,
                           mass_mode=mass_mode,
                           lower_bound=self.top if self.floor is None else self.floor,
                           config=self.config)

    def deposit(self, density: ComplianceDensity, h: HeightField, pre: PrestrainPair):
        self.a, self.r = density.section_integrals(h.values)
        if self.history is not None:
            self.history = self.history.deposit(h.values, pre)
        self.top = h

    def equilibrium(self) -> EquilibriumState:
        # R already carries the load, so the balance solve takes no moment
        eps, kappa = solve_section(self.top.values, self.a, self.r, 0.0,
                                   self.config.young_modulus)
        return EquilibriumState(eps, kappa)


def _require_finite(value: float, what: str, load: LoadCase, h0: HeightField) -> None:
    """Refuse a ``what`` that the load overflows at the initial height."""
    if not math.isfinite(value):
        raise DomainError(f"load {load.value:g} with height0 {float(np.min(h0.values)):g}: "
                          f"{what} not finite")


def run_growth(config: BeamConfig, load: LoadCase, h0, schedule: MassSchedule,
               prestrains, tau: float = math.inf,
               mass_mode: MassMode = MassMode.EQUALITY, ablation: bool = False,
               options: SolverOptions | None = None) -> GrowthTrace:
    """Run the S-step growth process and record the trace.

    ``prestrains`` supplies one PrestrainPair per step.  The lower bound of
    step i is h_{i-1}, or the fixed floor 1e-3 * h0 when ablation is enabled
    (the densities diverge as h -> 0, so the floor keeps the objective
    finite).  A solver failure aborts the run with the partial trace attached
    to the raised ConvergenceError.
    """
    options = options or SolverOptions()
    prestrains = list(prestrains)
    if not prestrains:
        raise DomainError("need at least one growth step")
    h0 = h0 if isinstance(h0, HeightField) else HeightField(_as_values(h0, config.n_cells))
    m0 = h0.mass(config)
    targets = schedule.targets(m0, len(prestrains))

    section = _Section(config, load, h0, ablation)
    with np.errstate(all="ignore"):
        c0 = compliance_total(section.equilibrium(), h0, config)
    _require_finite(c0, "initial compliance", load, h0)
    trace = GrowthTrace(config=config, load=load, tau=tau, mass_mode=mass_mode,
                        ablation=ablation, h0=h0, initial_mass=m0,
                        initial_compliance=c0)

    for i, (m_i, pre) in enumerate(zip(targets, prestrains), start=1):
        problem = section.problem(pre, m_i, tau, mass_mode)
        try:
            sol = minimize_step(problem, options)
        except ConvergenceError as err:
            err.partial_trace = trace
            raise

        section.deposit(problem.density, sol.h, pre)
        trace.prestrains.append(pre)
        trace.mass_targets.append(float(m_i))
        trace.records.append(StepRecord.of(
            i, problem, sol, compliance_total(section.equilibrium(), sol.h, config)))
    return trace
