"""One incremental growth step: minimize compliance plus the proximal term
under the mass constraint and the cellwise lower bound.

The objective is separable,

    F(h) = delta * sum_j c_j(h_j) + delta/(2 tau) * sum_j (h_j - hprev_j)^2,

with a diagonal Hessian, one mass constraint and a lower bound per cell.
Its classical solver is projected Newton (Bertsekas, SIAM J. Control Optim.
1982): a diagonal Newton step projected in the Hessian metric onto
{delta * sum h = m, h >= lb}, or onto {delta * sum h <= m, h >= lb} when the
budget is an upper bound, with Armijo backtracking along the projection arc.
The projection solves for one shift: by a Newton step from the shift the
mass multiplier predicts, which usually ends it, and otherwise by Michelot's
active-set iteration.

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
from .errors import ConvergenceError, DomainError, InfeasibleError


class MassMode(enum.Enum):
    EQUALITY = "equality"
    INEQUALITY = "inequality"


TOL_ACTIVE = 1e-9        # bound-activity threshold
ARMIJO = 1e-4            # sufficient-decrease factor of the line search
BACKTRACK = 0.5          # step shrink factor per backtrack


@dataclass(frozen=True)
class SolverOptions:
    tol_kkt: float = 1e-8        # first-order KKT residual, density-gradient scale
    tol_mass: float = 1e-10      # degenerate-step threshold, relative to the mass target
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
        if not math.isfinite(self.mass_target):
            raise DomainError(f"mass target must be finite (got {self.mass_target})")
        # in both mass modes the budget must cover the lower bound's mass
        lb_mass = self.config.delta * float(np.sum(self.lower_bound.values))
        if self.mass_target < lb_mass - 1e-9 * max(1.0, abs(self.mass_target)):
            raise InfeasibleError(
                f"mass target {self.mass_target} below the lower-bound mass {lb_mass}")


@dataclass
class StepSolution:
    h: HeightField
    lam: float
    objective: float
    kkt_residual: float
    iterations: int
    degenerate: bool = False


def _project_shift(z, lb, mass, delta, w=1.0, at_most=False, t0=None):
    """Projection onto {delta * sum h = mass, h >= lb}, or onto
    {delta * sum h <= mass, h >= lb} if ``at_most``, in the metric
    sum (h - z)^2 / w, w > 0 (Euclidean for a scalar w).

    Returns (h, t) with h_j = max(lb_j, z_j - t w_j), exact up to rounding.
    Under an at-most budget t >= 0 is zero unless the budget binds, so the
    result is max(lb, z) with t = 0 when that point fits the budget, and the
    equality projection otherwise.  The latter is the root t of the convex,
    decreasing phi(t) = sum max(0, y - t w) - excess, y = z - lb: the shift
    t(S) = (sum_S y - excess) / sum_S w of the set S = {y > t w}.

    With array weights and a start shift ``t0`` it first takes one Newton
    step on phi from t0, which is t(S) for the set S at t0 (Cominetti,
    Mascarenhas & Silva, Math. Prog. Comp. 2014); if the set at t(S) is S
    again, t(S) is the root.  Otherwise Michelot's active-set iteration
    (Condat, Math. Prog. 2016, Sec. 3), Newton from the left, runs from the
    set at t(S), or from every cell without ``t0`` or when the set at t0 is
    empty or every cell: recompute t on the kept cells and keep those with
    y > t w until no cell drops out.  A Newton step lands at or left of the
    root, so from there t only grows and a dropped cell stays dropped: it
    ends in N passes.  Both starts end on the same set and bits unless a
    breakpoint lies within rounding of the root.
    """
    z = np.asarray(z, dtype=float)
    lb = np.asarray(lb, dtype=float)
    if at_most:
        h = np.maximum(lb, z)
        if delta * float(np.sum(h)) <= mass:
            return h, 0.0
    target = mass / delta
    base = float(np.sum(lb))
    if target <= base:   # StepProblem refuses a budget below the bound's mass
        return lb.copy(), float(np.max((z - lb) / w))

    excess = target - base
    kept, w_kept = z - lb, w
    if t0 is not None and np.ndim(w):
        # One Newton step on the convex, decreasing phi(t) from t0 lands at
        # or left of the root; an empty or full set at t0 starts cold.
        guess = kept > t0 * w
        if 0 < np.count_nonzero(guess) < kept.size:
            t = (float(np.sum(kept[guess])) - excess) / float(np.sum(w[guess]))
            mask = kept > t * w
            if np.array_equal(mask, guess):
                return np.maximum(lb, z - t * w), t
            if mask.any():
                kept, w_kept = kept[mask], w[mask]
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


def _gradient(problem: StepProblem, h):
    """q = c'(h) + (h - hprev)/tau; the proximal term drops out for tau = inf."""
    q = np.asarray(problem.density.derivative(h), dtype=float)
    if not math.isinf(problem.tau):
        q += (h - problem.h_prev.values) / problem.tau
    return q


def _defect(q, free, lam):
    """``kkt_residual`` from the gradient q and the mask of the free cells."""
    g = q + lam
    return max(float(np.max(np.abs(g[free]), initial=0.0)),
               max(0.0, -float(np.min(g[~free], initial=0.0))))


def kkt_residual(problem: StepProblem, h, lam: float) -> float:
    """First-order KKT residual of a candidate solution: the larger of
    max |q + lam| over the free cells h_j > lb_j + TOL_ACTIVE and
    max(0, -(q + lam)) over the others (a max over no cell is 0), with
    q = c'(h) + (h - hprev)/tau (no proximal term for tau = inf).  ``lam``
    is the mass multiplier, 36 M^2/(E h^4) on the growth set of the
    no-prestrain problem.
    """
    hv = _as_values(h, problem.config.n_cells)
    return _defect(_gradient(problem, hv), hv > problem.lower_bound.values + TOL_ACTIVE, lam)


def minimize_step(problem: StepProblem, options: SolverOptions | None = None) -> StepSolution:
    """Solve one incremental step to a first-order KKT point by projected
    Newton: it stops once the ``kkt_residual`` of the iterate is at most
    ``tol_kkt``.

    Each iteration projects z = h - q w, with q = c' + (h - hprev)/tau and
    w = 1/|c'' + 1/tau|, in the metric sum (h - z)^2 / w and backtracks
    along that arc until the Armijo test holds.  A trial step alpha starts
    the projection's shift at alpha * lam: at a fixed point t = -alpha q =
    alpha * lam on the free cells, so near the solution one Newton step on
    the shift ends the projection.  A full step whose model
    decrease is below the objective's noise floor is taken; a shorter one
    that still fails the test raises ``ConvergenceError`` at once, and so
    does such a full step when the residual after it does not fall below
    the one before it.  The mass multiplier is the mean of -q over the free
    cells, or -min q when none is free; in inequality mode it is 0 while the
    budget is slack and clipped at 0 when it binds.  A singleton feasible set
    (budget = lower-bound mass) starts at lb and stops there at once, flagged
    degenerate.  A start point with a non-finite objective or gradient
    raises ``DomainError``.  On nonconvex densities the certificate is
    first-order only.
    """
    options = options or SolverOptions()
    density = problem.density
    delta = problem.config.delta
    mass = problem.mass_target
    h_prev = problem.h_prev.values
    lb = problem.lower_bound.values
    tau = problem.tau
    at_most = problem.mass_mode is MassMode.INEQUALITY

    def projection(z, w=1.0, t0=None):
        return _project_shift(z, lb, mass, delta, w, at_most, t0)

    def objective(h):
        val = float(np.sum(density.value(h)))
        if not math.isinf(tau):
            val += 0.5 / tau * float(np.sum((h - h_prev) ** 2))
        return delta * val

    def not_converged(why=""):   # at the current iterate
        best = StepSolution(HeightField(h), float(lam), obj, res, it, degenerate)
        return ConvergenceError(
            f"projected Newton did not reach tol_kkt={options.tol_kkt} "
            f"in {it} iterations (residual {res:.3e}){why}", best=best)

    # Singleton feasible set: the mass budget equals the lower-bound mass, so
    # the only feasible point is lb itself.
    slack = mass / delta - float(np.sum(lb))
    degenerate = slack <= max(lb.size * TOL_ACTIVE,
                              options.tol_mass * max(1.0, abs(mass)) / delta)
    h, shift = (lb, 0.0) if degenerate else projection(np.maximum(h_prev, lb))
    q = _gradient(problem, h)
    obj = objective(h)
    if not (math.isfinite(obj) and np.all(np.isfinite(q))):
        raise DomainError("step objective or gradient not finite at the start point")
    if degenerate and at_most:   # the budget binds if a unit step from lb leaves it
        _, shift = projection(h - delta * q)
    floor_step = False

    for it in range(options.max_iter + 1):
        free = h > lb + TOL_ACTIVE
        lam = 0.0 - float(np.mean(q[free]) if np.any(free) else np.min(q))  # never -0.0
        if at_most:
            lam = max(lam, 0.0) if shift > 0.0 else 0.0
        res = _defect(q, free, lam)
        if res <= options.tol_kkt:
            return StepSolution(HeightField(h), float(lam), obj, res, it, degenerate)
        if it == options.max_iter:
            raise not_converged()
        if floor_step and res >= r_prev:
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
            h_new, shift_new = projection(h - alpha * step, w, alpha * lam)
            g_dot_d = delta * float(np.dot(q, h_new - h))
            obj_new = objective(h_new)
            if (obj_new <= obj + ARMIJO * g_dot_d + noise
                    or (alpha == 1.0 and -g_dot_d <= noise)):
                break
            if -g_dot_d <= noise:
                raise not_converged("; no decrease above rounding along the step")
            alpha *= BACKTRACK

        h, shift, obj = h_new, shift_new, obj_new
        floor_step, r_prev = -g_dot_d <= noise, res
        q = _gradient(problem, h)
