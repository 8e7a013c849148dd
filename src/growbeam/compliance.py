"""Mean-compliance functionals, their pointwise densities and derivatives,
and the dimensionless convexity diagnostics.

The mean compliance of a height profile h is the thermoelastic-style energy
integral E e^2 over the section, which reduces to

    C(h) = E int eps^2 h + eps kappa h^2 + kappa^2 h^3 / 3 dx

with (eps, kappa) the equilibrium fields for that profile.  Because the beam
is statically determinate the integrand is a pointwise function of h, so one
scalar density c(h) per cell suffices.  ``ComplianceDensity`` writes it as
one quadratic form in the section's prestrain integrals; every subcommand,
``analytic`` included, evaluates densities through it, and the convexity
diagnostics f and g are two of its densities at unit scale.  The closed
forms (no prestrain, constant axial prestrain, a first precurved
deposition) and the diagnostics' raw power sums are test oracles in
``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .beam import (BeamConfig, EquilibriumState, LayerStack, LoadCase,
                   PrestrainPair, _as_values, bending_moment, prestress_section_integrals)
from .errors import DomainError


def compliance_total(state: EquilibriumState, h, config: BeamConfig) -> float:
    """Mean compliance in N dm under midpoint quadrature."""
    hv = _as_values(h, config.n_cells)
    e = config.young_modulus
    eps, kap = state.eps, state.kappa
    c = e * (eps**2 * hv + eps * kap * hv**2 + kap**2 * hv**3 / 3.0)
    return config.delta * float(c.sum())


def _check_height(h):
    h = np.asarray(h, dtype=float)
    if h.min(initial=np.inf) <= 0:
        raise DomainError("height must be positive")
    return h


class ComplianceDensity:
    """One step's pointwise compliance density c_j(h) across all cells.

    A section of height h balances at [eps, kappa] = K(h)^-1 [A, R], with
    K = [[h, h^2/2], [h^2/2, h^3/3]] and the prestrain integrals
    A = int e^p dy, R = int y e^p dy - M/E over its material column, so its
    density E int (eps + y kappa)^2 dy is E (4A^2/h - 12AR/h^2 + 12R^2/h^3).
    The step deposits a layer with prestrain pair (eps_p, kappa_p) on
    ``h_prev``; from the state (A, R) at h_prev, for h >= h_prev,

        A(h) = alpha + eps_p h + kappa_p h^2 / 2,
        R(h) = beta + eps_p h^2 / 2 + kappa_p h^3 / 3,

    with alpha, beta frozen per cell.  The density is then the Laurent
    polynomial

        c = E [4 alpha^2/h - 12 alpha beta/h^2 + 12 beta^2/h^3
               + 2 (alpha eps_p + beta kappa_p) + eps_p^2 h + eps_p kappa_p h^2
               + kappa_p^2 h^3 / 3],
        c' = E [(eps_p + kappa_p h)^2 - 4 (alpha h - 3 beta)^2 / h^4],

    whose coefficients are computed once.  Without ablation it is the
    density at every h > 0.  With ablation ``history`` is the section's
    ``beam.Layers`` and cells cut below h_prev use it trimmed at h
    (``configs/ablation_eps_plus.cfg`` runs this path); ``history`` is None
    otherwise.  Every argument broadcasts against the candidate heights; a
    scalar E, eps_p or kappa_p is kept as a Python float, with the same bits.
    """

    def __init__(self, young_modulus, moment, h_prev, a, r, eps_p=0.0, kappa_p=0.0,
                 history=None):
        # scalars stay Python floats: 0-d arrays cost numpy dispatch per operation
        e, eps_p, kappa_p = (float(c) if np.ndim(c) == 0 else np.asarray(c, dtype=float)
                             for c in (young_modulus, eps_p, kappa_p))
        h_prev = np.asarray(h_prev, dtype=float)
        self.young_modulus = e
        self.moment = np.asarray(moment, dtype=float)
        self.h_prev = h_prev
        self.eps_p = eps_p
        self.kappa_p = kappa_p
        self.history = history
        self.alpha = a - h_prev * (eps_p + 0.5 * kappa_p * h_prev)
        self.beta = r - h_prev**2 * (0.5 * eps_p + kappa_p * h_prev / 3.0)
        alpha, beta = self.alpha, self.beta
        # value: c0 + u (c1 + u (c2 + u c3)) + h (p1 + h (p2 + h p3)), u = 1/h
        self._inverse = (4.0 * e * alpha**2, -12.0 * e * alpha * beta, 12.0 * e * beta**2)
        # derivative: (q0 + q1 h)^2 - (u (s1 + u s2))^2
        s = 2.0 * np.sqrt(e)
        self._slope = (s * alpha, -3.0 * s * beta)
        self._prestrained = bool(np.count_nonzero(eps_p) or np.count_nonzero(kappa_p))
        if self._prestrained:
            self._c0 = 2.0 * e * (alpha * eps_p + beta * kappa_p)
            self._poly = (e * eps_p**2, e * eps_p * kappa_p, e * kappa_p**2 / 3.0)
            self._surface = (np.sqrt(e) * eps_p, np.sqrt(e) * kappa_p)

    @classmethod
    def baseline(cls, young_modulus, moment):
        """No prestrain anywhere: 12 M^2 / (E h^3)."""
        return cls(young_modulus, moment, 0.0, 0.0,
                   -np.asarray(moment, dtype=float) / young_modulus)

    @classmethod
    def const_prestrain(cls, young_modulus, moment, base_height, eps_p):
        """First deposition of a constant axial prestrain on a bare beam."""
        return cls(young_modulus, moment, base_height, 0.0,
                   -np.asarray(moment, dtype=float) / young_modulus, eps_p=eps_p)

    @classmethod
    def const_precurv_first(cls, young_modulus, moment, base_height, kappa_p):
        """First deposition of a constant precurvature on a bare beam."""
        return cls(young_modulus, moment, base_height, 0.0,
                   -np.asarray(moment, dtype=float) / young_modulus, kappa_p=kappa_p)

    @classmethod
    def general(cls, config: BeamConfig, load: LoadCase, stack: LayerStack,
                step_prestrain: PrestrainPair):
        """Next deposition on an arbitrary history, replayed from the stack."""
        m = bending_moment(load, config, config.x_centers)
        history = stack.segments()
        a, b = prestress_section_integrals(history.tops, history.eps_p, history.kappa_p)
        return cls(config.young_modulus, m, stack.top.values, a,
                   b - m / config.young_modulus, step_prestrain.eps_p,
                   step_prestrain.kappa_p, history if stack.ablation else None)

    def section_integrals(self, h):
        """The state (A, R) of the section built up (or cut down) to h."""
        h = np.asarray(h, dtype=float)
        a = self.alpha + h * (self.eps_p + 0.5 * self.kappa_p * h)
        r = self.beta + h * h * (0.5 * self.eps_p + self.kappa_p * h / 3.0)
        cut = self._cut(h)
        if cut is not None:
            below, _, _, a_cut, r_cut, _, _ = cut
            a[below], r[below] = a_cut, r_cut
        return a, r

    def value(self, h):
        h = _check_height(h)
        c1, c2, c3 = self._inverse
        u = 1.0 / h
        out = c3 * u
        out += c2
        out *= u
        out += c1
        out *= u
        if self._prestrained:
            p1, p2, p3 = self._poly
            out += self._c0 + h * (p1 + h * (p2 + h * p3))
        cut = self._cut(h)
        if cut is not None:
            below, hb, young, a, r, _, _ = cut
            out[below] = young * (4.0 * a * a / hb - 12.0 * a * r / hb**2
                                  + 12.0 * r * r / hb**3)
        return out

    def derivative(self, h):
        h = _check_height(h)
        s1, s2 = self._slope
        u = 1.0 / h
        out = s2 * u
        out += s1
        out *= u
        out *= out
        out *= -1.0
        if self._prestrained:
            q0, q1 = self._surface
            e_top = q0 + q1 * h
            out += e_top * e_top
        cut = self._cut(h)
        if cut is not None:
            below, hb, young, a, r, e_top, _ = cut
            w = a * hb - 3.0 * r
            out[below] = -4.0 * young * w * (w + e_top * hb * hb) / hb**4
        return out

    def curvature(self, h):
        """c''(h) = E [2 kappa_p (eps_p + kappa_p h) + 8 (alpha h - 3 beta)
        (alpha h - 6 beta) / h^5], from the derivative's coefficients."""
        h = _check_height(h)
        s1, s2 = self._slope
        u = 1.0 / h
        out = 2.0 * u**3 * (s1 + s2 * u) * (s1 + 2.0 * s2 * u)
        if self._prestrained:
            q0, q1 = self._surface
            out += 2.0 * q1 * (q0 + q1 * h)
        cut = self._cut(h)
        if cut is not None:
            # with w = A h - 3R and e = e^p(h): w' = A - 2 e h, e' = kappa
            below, hb, young, a, r, e, kap = cut
            w = a * hb - 3.0 * r
            out[below] = (-4.0 * young
                          * ((2.0 * w + e * hb * hb) * (a - 2.0 * e * hb) * hb
                             + (2.0 * e + kap * hb) * w * hb * hb
                             - 4.0 * w * (w + e * hb * hb)) / hb**5)
        return out

    # -- ablation: cells cut below h_prev ---------------------------------

    def _cut(self, h):
        """None without a history or with no cell below h_prev; else the cut
        cells' mask, heights, E, A, R, e^p(h) and de^p/dh, from the history
        trimmed at h (dA/dh = e^p(h), dR/dh = h e^p(h)).  A cell at h_prev
        keeps the new layer's polynomial."""
        if self.history is None:
            return None
        below = h < self.h_prev
        if not below.any():
            return None
        hb = np.broadcast_to(h, below.shape)[below]
        e, m = (np.broadcast_to(x, below.shape)[below]
                for x in (self.young_modulus, self.moment))
        a, b, eps_p, kappa_p = self.history.trim(hb, below)
        return below, hb, e, a, b - m / e, eps_p + hb * kappa_p, kappa_p


# ---------------------------------------------------------------------------
# Dimensionless diagnostics.  With hbar = h/h0 and eta = M/(E h0^2 eps_p) the
# constant-prestrain density is E eps_p^2 h0 f(eta, hbar); with
# mu = M/(E h0^3 kappa_p) the first-step precurvature density is
# E h0^3 kappa_p^2 g(mu, hbar).  So f and g are those densities at unit
# scale, E = h0 = eps_p = 1 (kappa_p = 1) under the moment eta (mu).
# ---------------------------------------------------------------------------

def _ret(x):
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def f_value(eta, hbar):
    """Rescaled constant-prestrain compliance density."""
    return _ret(ComplianceDensity.const_prestrain(1.0, eta, 1.0, 1.0).value(hbar))


def f_second(eta, hbar):
    """d^2 f / d hbar^2, the curvature of that density."""
    return _ret(ComplianceDensity.const_prestrain(1.0, eta, 1.0, 1.0).curvature(hbar))


def g_value(mu, hbar):
    """Rescaled first-step precurvature compliance density."""
    return _ret(ComplianceDensity.const_precurv_first(1.0, mu, 1.0, 1.0).value(hbar))


def g_second(mu, hbar):
    """d^2 g / d hbar^2, the curvature of that density; positive for hbar >= 1."""
    return _ret(ComplianceDensity.const_precurv_first(1.0, mu, 1.0, 1.0).curvature(hbar))


def convex_envelope_1d(x, y):
    """Lower convex envelope of sampled points, evaluated at the sample x's.

    Builds the lower hull of the graph (monotone-chain) and interpolates it
    back onto the sample abscissae.  Requires at least three strictly
    increasing x values.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise DomainError("x and y must be 1-D arrays of equal length")
    if x.size < 3:
        raise DomainError("need at least 3 sample points")
    if np.any(np.diff(x) <= 0):
        raise DomainError("x must be strictly increasing with no duplicates")

    hull_x, hull_y = [], []
    for xi, yi in zip(x.tolist(), y.tolist()):   # Python floats: same bits, less dispatch
        while len(hull_x) >= 2:
            cross = ((hull_x[-1] - hull_x[-2]) * (yi - hull_y[-2])
                     - (hull_y[-1] - hull_y[-2]) * (xi - hull_x[-2]))
            if cross <= 0.0:
                hull_x.pop()
                hull_y.pop()
            else:
                break
        hull_x.append(xi)
        hull_y.append(yi)
    env = np.interp(x, np.array(hull_x), np.array(hull_y))
    return x, np.minimum(env, y)
