"""One incremental growth step: minimize compliance plus the proximal term
under the mass constraint and the cellwise lower bound.

The objective is separable,

    F(h) = delta * sum_j c_j(h_j) + delta/(2 tau) * sum_j (h_j - hprev_j)^2,

with a diagonal Hessian, one mass constraint and a lower bound per cell.
Its classical solver is projected Newton (Bertsekas, SIAM J. Control Optim.
1982): a diagonal Newton step projected in the Hessian metric onto
{delta * sum h = m, h >= lb} (Michelot's active-set iteration on the shift),
or onto {delta * sum h <= m, h >= lb} when the budget is an upper bound,
with Armijo backtracking along the projection arc.

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


def _project_shift(z, lb, mass, delta, w=1.0):
    """Projection onto {delta * sum h = mass, h >= lb} in the metric
    sum (h - z)^2 / w, w > 0 (Euclidean for a scalar w).

    Returns (h, t) with h_j = max(lb_j, z_j - t w_j), exact up to rounding.
    Michelot's active-set iteration (Condat, Math. Prog. 2016, Sec. 3) on
    the breakpoints y = z - lb: start from the shift that spreads the excess
    mass over every cell, then keep the cells with y > t w and recompute
    t = (sum y - excess) / sum w on them until no cell drops out.  The shift
    only grows and a dropped cell stays dropped, so it ends in N passes.
    """
    z = np.asarray(z, dtype=float)
    lb = np.asarray(lb, dtype=float)
    target = mass / delta
    base = float(np.sum(lb))
    if target < base - 1e-9 * max(1.0, abs(target)):
        raise InfeasibleError(
            f"mass {mass} infeasible for the lower bound (needs >= {base * delta})")
    if target <= base:
        return lb.copy(), float(np.max((z - lb) / w))

    excess = target - base
    kept, w_kept = z - lb, w
    while True:
        w_sum = float(np.sum(w_kept)) if np.ndim(w) else w * kept.size
        t = (float(np.sum(kept)) - excess) / w_sum
        mask = kept > t * w_kept
        above = kept[mask]
        # An empty set means the excess is below the rounding of the sum:
        # every cell is then pinned at this t.
        if above.size in (0, kept.size):
            break
        kept = above
        if np.ndim(w):
            w_kept = w_kept[mask]
    return np.maximum(lb, z - t * w), t


def _project(z, lb, mass, delta, at_most, w=1.0):
    """(h, t) of the projection in the metric sum (h - z)^2 / w onto
    {delta * sum h = mass, h >= lb}, or onto {delta * sum h <= mass, h >= lb}
    if ``at_most``.  By the latter's KKT conditions (t >= 0, zero unless the
    budget binds) that is max(lb, z) with t = 0 when this point fits the
    budget, and the equality projection otherwise."""
    if at_most:
        h = np.maximum(lb, z)
        if delta * float(np.sum(h)) <= mass:
            return h, 0.0
    return _project_shift(z, lb, mass, delta, w)


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
    """Solve one incremental step to stationarity by projected Newton.

    Each iteration projects z = h - q w, with q = c' + (h - hprev)/tau and
    w = 1/|c'' + 1/tau|, in the metric sum (h - z)^2 / w and backtracks
    along that arc until the Armijo test holds.  A full step whose model
    decrease is below the objective's noise floor is taken; a shorter one
    that still fails the test raises ``ConvergenceError`` at once, and so
    does such a full step when the residual after it does not fall below
    the one before it.  The mass multiplier is estimated from the free
    cells; in inequality mode it is 0 while the budget is slack and clipped
    at 0 when it binds.  A singleton feasible set (budget = lower-bound
    mass) takes it from the projection dual and flags the step degenerate.
    Nonconvex densities carry stationarity-only semantics; ``kkt_residual``
    is the certificate.
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

    def projection(z, w=1.0):
        return _project(z, lb, mass, delta, at_most, w)

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

    def not_converged(why=""):   # at the current iterate
        sol = _pack_solution(problem, h, q, lam, r_stat, it, history, False)
        return ConvergenceError(
            f"projected Newton did not reach tol_kkt={options.tol_kkt} "
            f"in {it} iterations (residual {r_stat:.3e}){why}", best=sol)

    h, shift = projection(np.maximum(h_prev, lb))
    q = density_grad(h)
    obj = objective(h)
    history = [obj]
    floor_step = False

    for it in range(options.max_iter + 1):
        free = h > lb + TOL_ACTIVE
        lam = -float(np.mean(q[free])) if np.any(free) else -float(np.min(q))
        if at_most:
            lam = max(lam, 0.0) if shift > 0.0 else 0.0
        r_stat = _stationarity(q, h, lb, lam)
        r_dual = -float(np.min(q[~free] + lam, initial=0.0))
        if r_stat <= options.tol_kkt and r_dual <= options.tol_kkt:
            return _pack_solution(problem, h, q, lam, r_stat, it, history, False)
        if it == options.max_iter:
            raise not_converged()
        if floor_step and r_stat >= r_prev:
            raise not_converged("; the full step's decrease was at rounding level "
                                "and the residual did not fall")

        w = 1.0 / np.maximum(np.abs(density.curvature(h) + 1.0 / tau),
                             np.finfo(float).tiny)
        step = q * w
        # Armijo up to the rounding of the objective: without the noise floor
        # the search freezes once the true decrease drops below eps * |obj|.
        noise = 16.0 * np.finfo(float).eps * max(1.0, abs(obj))
        alpha = 1.0
        while True:
            h_new, shift_new = projection(h - alpha * step, w)
            g_dot_d = delta * float(np.dot(q, h_new - h))
            obj_new = objective(h_new)
            if (obj_new <= obj + ARMIJO * g_dot_d + noise
                    or (alpha == 1.0 and -g_dot_d <= noise)):
                break
            if -g_dot_d <= noise:
                raise not_converged("; no decrease above rounding along the step")
            alpha *= BACKTRACK

        h, shift, obj = h_new, shift_new, obj_new
        floor_step, r_prev = -g_dot_d <= noise, r_stat
        q = density_grad(h)
        history.append(obj)



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
