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
        if self.n_cells < 1:
            raise DomainError("n_cells must be at least 1")

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
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            raise DomainError("heights must be finite and positive")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, config: BeamConfig, h: float) -> "HeightField":
        return cls(np.full(config.n_cells, float(h)))

    def mass(self, config: BeamConfig) -> float:
        """Total cross-section area in dm^2 (unit density, unit depth)."""
        return config.delta * float(np.sum(self.values))


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

    With ``ablation`` disabled the heights must be cellwise nondecreasing.
    With ablation allowed, later heights may cut into earlier layers; the
    removed material (and its prestrain) is discarded when the per-cell
    material columns are rebuilt by :meth:`segments`.
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

    def segments(self):
        """Per-cell material columns after replaying the deposition history.

        Returns ``(y_lo, y_hi, eps_p, kappa_p)`` where the y arrays have
        shape (S+1, N); row 0 is the original (prestrain-free) material.
        Rows may have zero width in cells where a layer was not deposited
        or was later ablated.
        """
        hs = [h.values for h in self.heights]
        segments = _deposit(None, 0.0, hs[0], PrestrainPair())
        for top, h, pre in zip(hs, hs[1:], self.prestrains):
            segments = _deposit(segments, top, h, pre)
        return segments


def _deposit(segments, top, h, pre: PrestrainPair):
    """Material segments (y_lo, y_hi, eps_p, kappa_p) after a layer with
    prestrain ``pre`` takes the section from ``top`` to ``h``: each row is
    clipped at h and the row (min(top, h), h] appended.  From None with
    top = 0 it starts the original material."""
    y_lo, y_hi, eps_p, kappa_p = segments or (np.empty((0, h.size)),) * 2 + (np.empty(0),) * 2
    return (np.vstack((np.minimum(y_lo, h), np.minimum(top, h))),
            np.vstack((np.minimum(y_hi, h), h)),
            np.append(eps_p, pre.eps_p), np.append(kappa_p, pre.kappa_p))


def _trim(segments, h, cells):
    """The integrals (A, B) of the segments of ``cells`` cut at h, and the
    prestrain pair of the layer that owns the surface there: the topmost
    segment (y_lo, y_hi] that holds h."""
    y_lo, y_hi, eps_p, kappa_p = segments
    y_lo, y_hi = y_lo[:, cells], y_hi[:, cells]
    a, b = prestress_section_integrals(np.minimum(y_lo, h), np.minimum(y_hi, h),
                                       eps_p, kappa_p)
    inside = (h > y_lo) & (h <= y_hi)
    row = inside.shape[0] - 1 - np.argmax(inside[::-1], axis=0)
    return a, b, eps_p[row], kappa_p[row]


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
    if np.any(x < -tol) or np.any(x > config.length + tol):
        raise DomainError("x must lie in [0, length]")
    if load.kind is LoadKind.UNIFORM:
        m = 0.5 * load.value * (config.length - x) ** 2
    else:
        m = np.full_like(x, load.value)
    return float(m) if m.ndim == 0 else m


def prestress_section_integrals(y_lo, y_hi, eps_p, kappa_p):
    """Area and first-moment integrals of the prestrain over material columns.

    Returns (A, B) per cell with
        A = sum_k int_{L_k} (eps_k + y kap_k) dy
        B = sum_k int_{L_k} y (eps_k + y kap_k) dy
    evaluated in closed form over the segment intervals.
    """
    w1 = y_hi - y_lo
    w2 = y_hi**2 - y_lo**2
    w3 = y_hi**3 - y_lo**3
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
    y_lo, y_hi, eps_p, kappa_p = stack.segments()
    a, b = prestress_section_integrals(y_lo, y_hi, eps_p, kappa_p)
    m = bending_moment(load, config, config.x_centers)
    eps, kappa = solve_section(stack.top.values, a, b, m, config.young_modulus)
    return EquilibriumState(eps, kappa)


def stress_at(state: EquilibriumState, stack: LayerStack, config: BeamConfig,
              x: float, y: float) -> float:
    """Axial stress at (x, y) in N/dm^2.

    In the original material sigma = E e; in deposited layer k,
    sigma = E (e - eps_k - y kap_k), with e = eps(x) + y kappa(x).
    Layer k owns the half-open band (y_lo_k, y_hi_k]; y = 0 belongs to the
    original material.
    """
    tol = 1e-12 * config.length
    if x < -tol or x > config.length + tol:
        raise DomainError("x outside the beam")
    j = min(int(np.clip(x / config.delta, 0, config.n_cells - 1)), config.n_cells - 1)
    y_lo, y_hi, eps_p, kappa_p = stack.segments()
    h_top = stack.top.values[j]
    ytol = 1e-12 * max(1.0, h_top)
    if y < -ytol or y > h_top + ytol:
        raise DomainError("y outside the current cross-section")
    e = state.eps[j] + y * state.kappa[j]
    pre = 0.0
    for k in range(len(eps_p) - 1, 0, -1):
        if y_hi[k, j] - y_lo[k, j] > ytol and y > y_lo[k, j] + ytol:
            pre = eps_p[k] + y * kappa_p[k]
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
