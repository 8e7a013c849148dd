"""One incremental growth step: minimize compliance plus the proximal term
under the mass constraint and the cellwise lower bound.

The objective is separable,

    F(h) = delta * sum_j c_j(h_j) + delta/(2 tau) * sum_j (h_j - hprev_j)^2,

so a projected-gradient method with an exact Euclidean projection onto
{delta * sum h = m, h >= lb} (Michelot's active-set iteration on the shift),
or onto {delta * sum h <= m, h >= lb} when the budget is an upper bound, is
the natural solver.  Steps are sized by a safeguarded Barzilai-Borwein
rule with Armijo backtracking along the projection arc, which keeps the
objective monotonically non-increasing.

Sign conventions follow the Lagrangian L = F + lam * (delta sum h - m)
- sum_j mu_j (h_j - lb_j): at a stationary point c' + (h - hprev)/tau + lam
vanishes on cells strictly above the bound and equals mu_j >= 0 on pinned
cells.  For the no-prestrain problem this makes lam = 36 M^2 / (E h^4) > 0
on the growth set.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .beam import BeamConfig, HeightField, _as_values
from .compliance import ComplianceDensity
from .errors import ConvergenceError, InfeasibleError


class MassMode(enum.Enum):
    EQUALITY = "equality"
    INEQUALITY = "inequality"


TOL_ACTIVE = 1e-9        # bound-activity threshold
ARMIJO = 1e-4            # sufficient-decrease factor of the line search
BACKTRACK = 0.5          # step shrink factor per backtrack
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SolverOptions:
    tol_kkt: float = 1e-8        # stationarity residual, density-gradient scale
    tol_mass: float = 1e-10      # mass feasibility, relative to the target
    max_iter: int = 10_000


@dataclass(frozen=True)
class StepProblem:
    """One incremental minimization instance."""

    density: ComplianceDensity
    h_prev: HeightField
    mass_target: float
    tau: float
    mass_mode: MassMode
    lower_bound: HeightField
    config: BeamConfig

    def __post_init__(self):
        if not (self.tau > 0):
            raise InfeasibleError("tau must be positive (math.inf allowed)")
        lb_mass = self.config.delta * float(np.sum(self.lower_bound.values))
        if self.mass_mode is MassMode.EQUALITY:
            if self.mass_target < lb_mass - 1e-9 * max(1.0, abs(self.mass_target)):
                raise InfeasibleError(
                    f"mass target {self.mass_target} below the lower-bound mass {lb_mass}")


@dataclass
class StepSolution:
    h: HeightField
    lam: float
    mu: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    objective_history: np.ndarray
    degenerate: bool = False


def _project_shift(z, lb, mass, delta):
    """Euclidean projection onto {delta * sum h = mass, h >= lb}.

    Returns (h, t) with h_j = max(lb_j, z_j - t), exact up to rounding.
    Michelot's active-set iteration (Condat, Math. Prog. 2016, Sec. 3) on
    the breakpoints y = z - lb: start from the shift that spreads the excess
    mass over every cell, then keep the cells with y > t and recompute t in
    closed form on them until no cell drops out.  The shift only grows and a
    dropped cell stays dropped, so it ends after at most N passes.
    """
    z = np.asarray(z, dtype=float)
    lb = np.asarray(lb, dtype=float)
    target = mass / delta
    base = float(np.sum(lb))
    if target < base - 1e-9 * max(1.0, abs(target)):
        raise InfeasibleError(
            f"mass {mass} infeasible for the lower bound (needs >= {base * delta})")
    if target <= base:
        return lb.copy(), float(np.max(z - lb))

    excess = target - base
    kept = z - lb
    t = (float(np.sum(kept)) - excess) / kept.size
    while True:
        above = kept[kept > t]
        # An empty set means the excess is below the rounding of the sum:
        # every cell is then pinned at this t.
        if above.size in (0, kept.size):
            break
        kept = above
        t = (float(np.sum(kept)) - excess) / kept.size
    return np.maximum(lb, z - t), t


def _project(z, lb, mass, delta, at_most):
    """(h, t) of the projection onto {delta * sum h = mass, h >= lb}, or onto
    {delta * sum h <= mass, h >= lb} if ``at_most``.  By the latter's KKT
    conditions (t >= 0, zero unless the budget binds) that is max(lb, z)
    with t = 0 when this point fits the budget, and the equality projection
    otherwise."""
    if at_most:
        h = np.maximum(lb, z)
        if delta * float(np.sum(h)) <= mass:
            return h, 0.0
    return _project_shift(z, lb, mass, delta)


def project_mass_lb(z, lb, mass, delta):
    """Projection of z onto the mass/lower-bound constraint set (values only)."""
    h, _ = _project_shift(z, lb, mass, delta)
    return h


def _stationarity(q, h, lb, lam):
    """Max stationarity defect |c' + prox' + lam| over cells above the bound."""
    free = h > lb + TOL_ACTIVE
    if not np.any(free):
        return 0.0
    return float(np.max(np.abs(q[free] + lam)))


def kkt_residual(problem: StepProblem, h, lam: float) -> float:
    """Discrete stationarity residual of a candidate solution.

    Evaluates max_j |c'(h_j) + (h_j - hprev_j)/tau + lam| over the cells with
    h_j > lb_j + TOL_ACTIVE; the proximal term drops out for tau = inf.  The
    max over an empty growth set is 0 by convention.  ``lam`` is the mass
    multiplier normalized so that lam = 36 M^2/(E h^4) on the growth set of
    the no-prestrain problem.
    """
    hv = _as_values(h, problem.config.n_cells)
    q = np.asarray(problem.density.derivative(hv), dtype=float)
    if not math.isinf(problem.tau):
        q += (hv - problem.h_prev.values) / problem.tau
    return _stationarity(q, hv, problem.lower_bound.values, lam)


def minimize_step(problem: StepProblem, options: SolverOptions | None = None) -> StepSolution:
    """Solve one incremental step to stationarity by one projected-gradient run.

    Every iterate is projected onto the feasible set: {delta sum h = m,
    h >= lb} in equality mode, {delta sum h <= m, h >= lb} in inequality
    mode.  The latter projection is max(lb, z) when that point fits the
    budget and the equality projection otherwise, as its KKT conditions
    give.  The mass multiplier is estimated from the free cells; in
    inequality mode it is 0 while the budget is slack (shift 0) and clipped
    at 0 when it binds.  When no cell is free (singleton feasible set) it is
    taken from the projection dual and the step flagged degenerate.
    Nonconvex densities carry stationarity-only semantics; the returned
    ``kkt_residual`` is the certificate.
    """
    options = options or SolverOptions()
    density = problem.density
    delta = problem.config.delta
    mass = problem.mass_target
    h_prev = problem.h_prev.values
    lb = problem.lower_bound.values
    tau = problem.tau
    prox_on = not math.isinf(tau)
    at_most = problem.mass_mode is MassMode.INEQUALITY

    def projection(z):
        return _project(z, lb, mass, delta, at_most)

    def objective(h):
        val = float(np.sum(density.value(h)))
        if prox_on:
            val += 0.5 / tau * float(np.sum((h - h_prev) ** 2))
        return delta * val

    def density_grad(h):
        q = np.asarray(density.derivative(h), dtype=float)
        if prox_on:
            q += (h - h_prev) / tau
        return q

    # Singleton feasible set: the mass budget equals the lower-bound mass, so
    # the only feasible point is lb itself.  Report the projection-dual
    # multiplier (unit step) and flag the step as degenerate.
    slack = mass / delta - float(np.sum(lb))
    if slack <= max(lb.size * TOL_ACTIVE,
                    options.tol_mass * max(1.0, abs(mass)) / delta):
        h = lb.copy()
        q = density_grad(h)
        _, shift = projection(h - delta * q)
        lam = shift / delta
        return _pack_solution(problem, h, q, lam, 0.0, 0, [objective(h)], True)

    h, shift = projection(np.maximum(h_prev, lb))
    q = density_grad(h)
    g = delta * q
    obj = objective(h)
    history = [obj]
    alpha = 0.1 * max(float(np.max(h)), 1e-6) / (float(np.max(np.abs(g))) + 1e-300)
    best = (obj, h, q, 0.0)

    for it in range(1, options.max_iter + 1):
        free = h > lb + TOL_ACTIVE
        degenerate = False
        if at_most and shift <= 0.0:
            lam = 0.0
        elif np.any(free):
            lam = -float(np.mean(q[free]))
            if at_most:
                lam = max(lam, 0.0)
        else:
            lam = shift / (alpha * delta)
            degenerate = True

        r_stat = _stationarity(q, h, lb, lam)
        r_dual = 0.0
        if np.any(~free) and not degenerate:
            r_dual = max(0.0, -float(np.min(q[~free] + lam)))
        if r_stat <= options.tol_kkt and r_dual <= options.tol_kkt:
            return _pack_solution(problem, h, q, lam, r_stat, it - 1, history, degenerate)

        h_new, shift_new = projection(h - alpha * g)
        d = h_new - h
        g_dot_d = float(np.dot(g, d))
        obj_new = objective(h_new)
        # Sufficient decrease up to the floating-point resolution of the
        # objective; without the noise floor the line search freezes once the
        # true decrease per step drops below eps * |obj|.
        noise = 16.0 * np.finfo(float).eps * max(1.0, abs(obj))
        backtracks = 0
        while (obj_new > obj + ARMIJO * g_dot_d + noise
               and backtracks < MAX_BACKTRACKS
               and float(np.max(np.abs(d))) > 0.0):
            alpha *= BACKTRACK
            h_new, shift_new = projection(h - alpha * g)
            d = h_new - h
            g_dot_d = float(np.dot(g, d))
            obj_new = objective(h_new)
            backtracks += 1
        if obj_new > obj + noise:  # no acceptable decrease at this precision
            h_new, shift_new, obj_new = h, shift, obj
            d = np.zeros_like(h)

        q_new = density_grad(h_new)
        g_new = delta * q_new

        # safeguarded BB step from the accepted move
        s_dot_y = float(np.dot(d, g_new - g))
        if s_dot_y > 1e-300:
            alpha = float(np.dot(d, d)) / s_dot_y
        else:
            alpha *= 2.0
        alpha = min(max(alpha, 1e-18), 1e18)

        h, q, g, obj, shift = h_new, q_new, g_new, obj_new, shift_new
        history.append(obj)
        if obj < best[0]:
            best = (obj, h, q, lam)

    obj, h, q, lam = best
    r_stat = _stationarity(q, h, lb, lam)
    sol = _pack_solution(problem, h, q, lam, r_stat, options.max_iter, history, False)
    raise ConvergenceError(
        f"projected gradient did not reach tol_kkt={options.tol_kkt} "
        f"in {options.max_iter} iterations (residual {r_stat:.3e})", best=sol)


def _pack_solution(problem, h, q, lam, r_stat, iterations, history, degenerate):
    lb = problem.lower_bound.values
    active = ~(h > lb + 1e-15)
    mu = np.zeros_like(h)
    mu[active] = np.maximum(q[active] + lam, 0.0)
    prox = 0.0
    if not math.isinf(problem.tau):
        prox = (problem.config.delta * 0.5 / problem.tau
                * float(np.sum((h - problem.h_prev.values) ** 2)))
    return StepSolution(
        h=HeightField(h.copy()),
        lam=float(lam),
        mu=mu,
        objective=problem.config.delta * float(np.sum(problem.density.value(h))) + prox,
        kkt_residual=r_stat,
        iterations=iterations,
        objective_history=np.asarray(history),
        degenerate=degenerate,
    )
