"""Exact KKT solution of the no-prestrain step problem.

On the growth set the optimal height satisfies lam = 36 M(x)^2 / (E h^4),
i.e. h = c s with c = (36 M^2 / E)^(1/4) and s = lam^(-1/4); elsewhere it
sticks to the previous profile.  Under a uniform load the candidate is
affine in x, which makes the optimal profiles affine-then-unchanged.  The
first step from a constant height admits a fully closed form; later steps
solve the mass equation for s in closed form on an active set that only
shrinks.  This module is the primary verification oracle for the numerical
solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beam import BeamConfig, HeightField, LoadCase, _as_values, bending_moment
from .errors import DomainError


@dataclass(frozen=True)
class BaselineSolution:
    """Piecewise optimal profile with its KKT certificate data.

    ``growth_set`` marks the cells where the candidate height dominates the
    previous profile; ``x_hat`` is the end of the growth interval and is only
    defined for the first step from a constant height under a uniform load.
    """

    h: HeightField
    lam: float
    growth_set: np.ndarray
    x_hat: float | None = None


def solve_baseline_first(config: BeamConfig, p: float, h0: float, m1: float) -> BaselineSolution:
    """Closed-form first step from a constant height under a uniform load p.

    The optimal profile is h0 * (m1 + sqrt(m1^2 - m0^2))/m0 * (l - x)/l up to
    x_hat and h0 beyond, with m0 = h0 * l; the positive root keeps
    x_hat >= 0.
    """
    if h0 <= 0:
        raise DomainError("h0 must be positive")
    if p == 0:
        raise DomainError("a nonzero load is required")
    ell = config.length
    m0 = h0 * ell
    if m1 <= m0:
        raise DomainError(f"m1 = {m1} adds no mass over m0 = {m0}")
    root = np.sqrt(m1**2 - m0**2)
    slope = (m1 + root) / ell**2                  # (9 p^2 / (E lam))^(1/4)
    lam = 9.0 * p**2 / (config.young_modulus * slope**4)
    x_hat = (1.0 - m0 / (m1 + root)) * ell
    xc = config.x_centers
    cand = slope * (ell - xc)
    growth = cand >= h0
    h = np.where(growth, np.maximum(cand, h0), h0)
    return BaselineSolution(HeightField(h), float(lam), growth, float(x_hat))


def solve_baseline_step(config: BeamConfig, load: LoadCase, h_prev,
                        m_i: float) -> BaselineSolution:
    """One exact step from an arbitrary previous profile.

    With c = (36 M^2/E)^(1/4) and s = lam^(-1/4) the step is
    h = max(h_prev, c s).  Starting from every cell with c > 0, s is solved
    in closed form from the mass equation on the kept cells, the cells with
    c s < h_prev are dropped, and this repeats until none drops.  s only
    decreases and a dropped cell stays dropped, so it ends after at most N
    passes with the mass equation exact up to rounding.
    """
    hp = _as_values(h_prev, config.n_cells)
    e = config.young_modulus
    delta = config.delta
    m2 = bending_moment(load, config, config.x_centers) ** 2
    mass_prev = delta * float(np.sum(hp))
    tol = 1e-14 * max(1.0, abs(m_i))
    if m_i < mass_prev - 1e-9 * max(1.0, abs(m_i)):
        raise DomainError(f"m_i = {m_i} below the current mass {mass_prev}")
    if m_i <= mass_prev + tol:
        # Nothing grows; the smallest dual-feasible multiplier certifies it.
        lam = float(np.max(36.0 * m2 / (e * hp**4)))
        return BaselineSolution(HeightField(hp.copy()), lam,
                                np.zeros_like(hp, dtype=bool), None)
    if float(np.max(m2)) == 0.0:
        raise DomainError("zero bending moment everywhere; growth has no driver")

    c = (36.0 * m2 / e) ** 0.25
    target = m_i / delta
    growth = c > 0.0
    while True:
        s = (target - float(np.sum(hp[~growth]))) / float(np.sum(c[growth]))
        drop = growth & (c * s < hp)
        # dropping every kept cell would mean m_i <= mass_prev up to rounding
        if not np.any(drop) or np.array_equal(drop, growth):
            break
        growth &= ~drop
    h = np.where(growth, np.maximum(c * s, hp), hp)
    return BaselineSolution(HeightField(h), float(s ** -4), growth, None)
