"""Cantilever geometry, loading, layered prestrain bookkeeping, and
cross-sectional equilibrium.

Units follow the decimeter/Newton convention used throughout the package:
lengths in dm, loads in N/dm or N dm, Young's modulus in N/dm^2.  The beam
has unit depth into the page.  All fields are sampled at the midpoints of N
uniform cells; the statically determinate bending moment M(x) never depends
on the cross-section height.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError


class LoadKind(enum.Enum):
    UNIFORM = "uniform"  # distributed load p in N/dm
    MOMENT = "moment"    # constant bending moment M in N dm


@dataclass(frozen=True)
class LoadCase:
    kind: LoadKind
    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise DomainError("load value must be finite")


@dataclass(frozen=True)
class BeamConfig:
    """Beam length, material stiffness, and discretization.

    The interval [0, length] is split into ``n_cells`` uniform cells of
    width ``delta``; heights, strains and curvatures live at cell centers.
    """

    length: float = 20.0
    young_modulus: float = 1.0e5
    n_cells: int = 200

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise DomainError("length must be positive and finite")
        if not 0 < self.young_modulus < math.inf:
            raise DomainError("young_modulus must be positive and finite")
        if not isinstance(self.n_cells, (int, np.integer)) or self.n_cells < 1:
            raise DomainError("n_cells must be at least 1 and an integer")

    @property
    def delta(self) -> float:
        return self.length / self.n_cells

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_cells + 1)

    @property
    def x_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.delta


def _as_values(h, n_cells: int) -> np.ndarray:
    """Accept a HeightField, an array, or a scalar; return a (N,) float array."""
    if isinstance(h, HeightField):
        return h.values
    arr = np.asarray(h, dtype=float)
    if arr.ndim == 0:
        return np.full(n_cells, float(arr))
    if arr.shape != (n_cells,):
        raise DomainError(f"height array has shape {arr.shape}, expected ({n_cells},)")
    return arr


@dataclass(frozen=True)
class HeightField:
    """Piecewise-constant section height h(x), one value per cell, in dm."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise DomainError("height field must be a nonempty 1-D array")
        if not (vals.min() > 0.0 and vals.max() < math.inf):   # NaN fails min > 0
            raise DomainError("heights must be finite and positive")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, config: BeamConfig, h: float) -> "HeightField":
        return cls(np.full(config.n_cells, float(h)))

    def mass(self, config: BeamConfig) -> float:
        """Total cross-section area in dm^2 (unit density, unit depth)."""
        return config.delta * float(self.values.sum())


@dataclass(frozen=True)
class PrestrainPair:
    """Axial prestrain and precurvature of one deposited layer.

    Constant along the beam; the deposited material is stress free in the
    configuration with strain eps_p + y * kappa_p (y the global section
    coordinate).
    """

    eps_p: float = 0.0
    kappa_p: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.eps_p) and np.isfinite(self.kappa_p)):
            raise DomainError("prestrain values must be finite")


@dataclass(frozen=True)
class LayerStack:
    """Deposition history: heights h_0..h_S plus one prestrain pair per layer.

    With ``ablation`` disabled the heights must be cellwise nondecreasing;
    with it, later heights may cut into earlier layers (see :class:`Layers`).
    """

    heights: tuple
    prestrains: tuple
    ablation: bool = False

    def __post_init__(self):
        heights = tuple(self.heights)
        prestrains = tuple(self.prestrains)
        if len(heights) < 1:
            raise DomainError("layer stack needs at least the initial height")
        if len(prestrains) != len(heights) - 1:
            raise DomainError("need exactly one prestrain pair per deposited layer")
        n = heights[0].values.size
        for h in heights:
            if h.values.size != n:
                raise DomainError("all height fields must share the grid")
        if not self.ablation:
            for prev, cur in zip(heights, heights[1:]):
                if np.any(cur.values < prev.values - 1e-12):
                    raise DomainError("heights must be cellwise nondecreasing")
        object.__setattr__(self, "heights", heights)
        object.__setattr__(self, "prestrains", prestrains)

    @property
    def top(self) -> HeightField:
        return self.heights[-1]

    def segments(self) -> "Layers":
        """The history replayed in one pass over the heights."""
        heights = np.array([h.values for h in self.heights])
        return Layers(np.minimum.accumulate(heights[::-1], axis=0)[::-1],
                      np.array([0.0] + [p.eps_p for p in self.prestrains]),
                      np.array([0.0] + [p.kappa_p for p in self.prestrains]))


# A named tuple with ``tops`` first, not a dataclass: bench/spans.py reads
# ``history[0].size``, and tests zip a carried history against segments().
class Layers(NamedTuple):
    """Per-cell material columns of a deposition history.

    Row k of the (S+1, N) array ``tops`` is min(h_k, ..., h_S), so layer k,
    with prestrain pair (eps_p[k], kappa_p[k]), spans (tops[k-1], tops[k]]
    with tops[-1] = 0; row 0 is the original, prestrain-free material.  A
    layer has zero width where it was not deposited or was later ablated.
    """

    tops: np.ndarray
    eps_p: np.ndarray
    kappa_p: np.ndarray

    def deposit(self, h, pre: PrestrainPair) -> "Layers":
        """The history after a layer with prestrain ``pre`` takes the section
        to h: every top is clipped at h and h appended."""
        return Layers(np.vstack((np.minimum(self.tops, h), h)),
                      np.append(self.eps_p, pre.eps_p), np.append(self.kappa_p, pre.kappa_p))

    def trim(self, h, cells):
        """The integrals (A, B) of the layers of ``cells`` cut at h, and the
        prestrain pair of the layer that owns the surface there: the lowest one
        whose top reaches h."""
        tops = self.tops[:, cells]
        a, b = prestress_section_integrals(np.minimum(tops, h), self.eps_p, self.kappa_p)
        row = np.count_nonzero(tops < h, axis=0)
        return a, b, self.eps_p[row], self.kappa_p[row]


@dataclass(frozen=True)
class EquilibriumState:
    """Axial strain and curvature fields solving force/moment balance."""

    eps: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        eps = np.array(self.eps, dtype=float)
        kap = np.array(self.kappa, dtype=float)
        if eps.shape != kap.shape or eps.ndim != 1:
            raise DomainError("eps and kappa must be 1-D arrays of equal length")
        eps.setflags(write=False)
        kap.setflags(write=False)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "kappa", kap)


def bending_moment(load: LoadCase, config: BeamConfig, x):
    """Bending moment M(x) in N dm at position(s) x.

    A uniform load p gives M(x) = (p/2)(l - x)^2; a constant-moment case
    gives M(x) = M everywhere.
    """
    x = np.asarray(x, dtype=float)
    tol = 1e-12 * config.length
    if not np.all((x >= -tol) & (x <= config.length + tol)):     # NaN fails too
        raise DomainError("x must lie in [0, length]")
    if load.kind is LoadKind.UNIFORM:
        m = 0.5 * load.value * (config.length - x) ** 2
    else:
        m = np.full_like(x, load.value)
    return float(m) if m.ndim == 0 else m


def prestress_section_integrals(tops, eps_p, kappa_p):
    """Area and first-moment integrals of the prestrain over material columns.

    Returns (A, B) per cell with
        A = sum_k int_{L_k} (eps_k + y kap_k) dy
        B = sum_k int_{L_k} y (eps_k + y kap_k) dy
    evaluated in closed form over the layers L_k of a :class:`Layers` history.
    """
    w1, w2, w3 = (np.diff(tops**n, axis=0, prepend=0.0) for n in (1, 2, 3))
    a = eps_p[:, None] * w1 + 0.5 * kappa_p[:, None] * w2
    b = 0.5 * eps_p[:, None] * w2 + kappa_p[:, None] * w3 / 3.0
    return a.sum(axis=0), b.sum(axis=0)


def solve_section(h_top, a, b_pre, moment, young_modulus):
    """Solve the per-cell 2x2 balance system for (eps, kappa).

    Force balance:   eps*h + kappa*h^2/2            = A
    Moment balance:  eps*h^2/2 + kappa*h^3/3        = B_pre - M/E

    ``h_top`` is a HeightField's values, so every height is positive.
    """
    h = np.asarray(h_top, dtype=float)
    rhs = b_pre - np.asarray(moment, dtype=float) / young_modulus
    eps = (4.0 * a * h - 6.0 * rhs) / h**2
    kappa = (12.0 * rhs - 6.0 * a * h) / h**3
    return eps, kappa


def equilibrium_general(config: BeamConfig, load: LoadCase,
                        stack: LayerStack) -> EquilibriumState:
    """Equilibrium of an arbitrary deposition history via per-cell 2x2 solves."""
    a, b = prestress_section_integrals(*stack.segments())
    m = bending_moment(load, config, config.x_centers)
    eps, kappa = solve_section(stack.top.values, a, b, m, config.young_modulus)
    return EquilibriumState(eps, kappa)


def stress_at(state: EquilibriumState, stack: LayerStack, config: BeamConfig,
              x: float, y: float) -> float:
    """Axial stress at (x, y) in N/dm^2.

    In the original material sigma = E e; in deposited layer k,
    sigma = E (e - eps_k - y kap_k), with e = eps(x) + y kappa(x).
    Layer k owns its band of :class:`Layers`, here replayed in the cell's
    column alone (O(S) per point); y = 0 belongs to the original material.
    """
    tol = 1e-12 * config.length
    if not -tol <= x <= config.length + tol:   # NaN fails too
        raise DomainError("x outside the beam")
    j = min(int(np.clip(x / config.delta, 0, config.n_cells - 1)), config.n_cells - 1)
    tops = np.minimum.accumulate([h.values[j] for h in stack.heights][::-1])[::-1]
    h_top = tops[-1]
    ytol = 1e-12 * max(1.0, h_top)
    if not -ytol <= y <= h_top + ytol:
        raise DomainError("y outside the current cross-section")
    e = state.eps[j] + y * state.kappa[j]
    pre = 0.0
    for k in range(len(tops) - 1, 0, -1):
        if tops[k] - tops[k - 1] > ytol and y > tops[k - 1] + ytol:
            pre = stack.prestrains[k - 1].eps_p + y * stack.prestrains[k - 1].kappa_p
            break
    return config.young_modulus * (e - pre)


def deflection(state: EquilibriumState, config: BeamConfig) -> np.ndarray:
    """Transverse displacement w at the N+1 grid nodes, clamped at x = 0.

    Integrates w'' = -kappa twice: midpoint rule for the slope (kappa lives
    at cell centers), trapezoidal rule for w.  Postprocessing only.
    """
    d = config.delta
    theta = np.concatenate(([0.0], np.cumsum(-state.kappa * d)))
    w = np.concatenate(([0.0], np.cumsum(0.5 * (theta[:-1] + theta[1:]) * d)))
    return w
