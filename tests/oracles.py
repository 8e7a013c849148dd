"""Closed forms kept as independent references for the tests.

The package computes every density through ``ComplianceDensity``'s one
quadratic form and every equilibrium through the per-cell 2x2 solve; the
closed forms below are derived separately (no prestrain, constant axial
prestrain, a first precurved deposition, the displayed power sums of the
diagnostics, and the baseline mass at a given multiplier), so the tests
check the package against them.  The layer history is replayed deposit by
deposit as bands (y_lo, y_hi], the reference for the clipped tops the
package carries.  The raw power sums are the references for
``f_value``, ``f_second``, ``g_value`` and ``g_second``, which the package
evaluates as two of its densities at unit scale.
"""

import numpy as np

from growbeam.beam import (BeamConfig, EquilibriumState, LoadCase, PrestrainPair,
                           _as_values, bending_moment)
from growbeam.compliance import _ret
from growbeam.errors import DomainError


# Densities in closed form: references for ComplianceDensity

def density_baseline(h, moment, young_modulus):
    """Compliance density 12 M^2 / (E h^3) of a beam with no prestrain."""
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0):
        raise DomainError("height must be positive")
    out = 12.0 * np.asarray(moment, dtype=float) ** 2 / (young_modulus * h**3)
    return float(out) if out.ndim == 0 else out


def density_prestrain(h, h0, moment, young_modulus, eps_p):
    """Compliance density for constant axial prestrain, zero precurvature.

    Valid at every deposition step (the layer integrals telescope), and
    reduces to the baseline density when eps_p = 0.
    """
    h = np.asarray(h, dtype=float)
    h0 = np.asarray(h0, dtype=float)
    if np.any(h0 <= 0):
        raise DomainError("base height must be positive")
    if np.any(h <= 0):
        raise DomainError("height must be positive")
    e, m = young_modulus, np.asarray(moment, dtype=float)
    k = e * eps_p * h0**2 + 2.0 * m
    out = (3.0 * k**2 / (e * h**3)
           - e * eps_p**2 * (2.0 * h0 - h)
           - 6.0 * eps_p * h0 * k / h**2
           + 4.0 * e * eps_p**2 * h0**2 / h)
    return float(out) if out.ndim == 0 else out


def density_precurv_first(h, h0, moment, young_modulus, kappa_p):
    """Compliance density for constant precurvature at the first deposition."""
    h = np.asarray(h, dtype=float)
    h0 = np.asarray(h0, dtype=float)
    if np.any(h0 <= 0):
        raise DomainError("base height must be positive")
    if np.any(h <= 0):
        raise DomainError("height must be positive")
    e, m = young_modulus, np.asarray(moment, dtype=float)
    q = e * kappa_p * h0**3 + 3.0 * m
    out = (4.0 * q**2 / (3.0 * e * h**3)
           - kappa_p * (2.0 * e * kappa_p * h0**3 - e * kappa_p * h**3 + 6.0 * m) / 3.0
           - 2.0 * h0**2 * kappa_p * q / h**2
           + e * h0**4 * kappa_p**2 / h)
    return float(out) if out.ndim == 0 else out


# The diagnostics' displayed power sums: references for f_value, f_second,
# g_value and g_second

def _check_hbar(hbar):
    hbar = np.asarray(hbar, dtype=float)
    if np.any(hbar <= 0):
        raise DomainError("hbar must be positive")
    return hbar


def f_value_raw(eta, hbar):
    hb = _check_hbar(hbar)
    eta = np.asarray(eta, dtype=float)
    num = (12.0 * eta**2 - 12.0 * eta * hb + 12.0 * eta
           + hb**4 - 2.0 * hb**3 + 4.0 * hb**2 - 6.0 * hb + 3.0)
    return _ret(num / hb**3)


def f_second_raw(eta, hbar):
    hb = _check_hbar(hbar)
    eta = np.asarray(eta, dtype=float)
    num = 144.0 * eta**2 + 144.0 * eta - 72.0 * eta * hb + 8.0 * hb**2 - 36.0 * hb + 36.0
    return _ret(num / hb**5)


def f_concavity_interval(eta):
    """The hbar interval where f'' <= 0: between (6 eta + 3)/2 and 6 eta + 3."""
    r = 6.0 * eta + 3.0
    return min(r, 0.5 * r), max(r, 0.5 * r)


def g_value_raw(mu, hbar):
    hb = _check_hbar(hbar)
    mu = np.asarray(mu, dtype=float)
    return _ret(1.0 / hb - (-hb**3 + 6.0 * mu + 2.0) / 3.0
                - 2.0 * (3.0 * mu + 1.0) / hb**2
                + 4.0 * (3.0 * mu + 1.0) ** 2 / (3.0 * hb**3))


def g_second_raw(mu, hbar):
    hb = _check_hbar(hbar)
    mu = np.asarray(mu, dtype=float)
    num = 72.0 * mu**2 - 18.0 * mu * hb + 48.0 * mu + hb**6 + hb**2 - 6.0 * hb + 8.0
    return _ret(2.0 * num / hb**5)


# Equilibrium in closed form: references for the per-cell 2x2 solve

def equilibrium_bare(config: BeamConfig, load: LoadCase, h0) -> EquilibriumState:
    """Equilibrium of the original beam: eps = 6M/(E h^2), kappa = -12M/(E h^3)."""
    h = _as_values(h0, config.n_cells)
    m = bending_moment(load, config, config.x_centers)
    e = config.young_modulus
    return EquilibriumState(6.0 * m / (e * h**2), -12.0 * m / (e * h**3))


def equilibrium_one_layer(config: BeamConfig, load: LoadCase, h0, h1,
                          pre: PrestrainPair) -> EquilibriumState:
    """Closed-form equilibrium after depositing one prestrained layer on h0."""
    h0 = _as_values(h0, config.n_cells)
    h1 = _as_values(h1, config.n_cells)
    if np.any(h1 < h0 - 1e-12):
        raise DomainError("h1 must dominate h0 cellwise")
    m = bending_moment(load, config, config.x_centers)
    e = config.young_modulus
    ep, kp = pre.eps_p, pre.kappa_p
    d = h1 - h0
    eps = (ep * h1 - 3.0 * ep * h0 - 2.0 * kp * h0**2) / h1**2 * d + 6.0 * m / (e * h1**2)
    kappa = (4.0 * kp * h0**2 + kp * h0 * h1 + 6.0 * ep * h0 + kp * h1**2) / h1**3 * d \
        - 12.0 * m / (e * h1**3)
    return EquilibriumState(eps, kappa)


# The layer history replayed one deposit at a time: references for
# beam.Layers, which carries only each layer's top

def _deposit_segments(segments, top, h, pre: PrestrainPair):
    """Segments (y_lo, y_hi, eps_p, kappa_p) after a layer with prestrain
    ``pre`` takes the section from ``top`` to ``h``: each row is clipped at
    h and the row (min(top, h), h] appended.  From None with top = 0 it
    starts the original material."""
    y_lo, y_hi, eps_p, kappa_p = segments or (np.empty((0, h.size)),) * 2 + (np.empty(0),) * 2
    return (np.vstack((np.minimum(y_lo, h), np.minimum(top, h))),
            np.vstack((np.minimum(y_hi, h), h)),
            np.append(eps_p, pre.eps_p), np.append(kappa_p, pre.kappa_p))


def segments_replay(stack):
    """Each layer's band (y_lo, y_hi] with its prestrain pair, replayed."""
    hs = [h.values for h in stack.heights]
    segments = _deposit_segments(None, 0.0, hs[0], PrestrainPair())
    for top, h, pre in zip(hs, hs[1:], stack.prestrains):
        segments = _deposit_segments(segments, top, h, pre)
    return segments


def segment_integrals(y_lo, y_hi, eps_p, kappa_p):
    """(A, B) per cell over the bands (y_lo, y_hi], in closed form."""
    w1 = y_hi - y_lo
    w2 = y_hi**2 - y_lo**2
    w3 = y_hi**3 - y_lo**3
    a = eps_p[:, None] * w1 + 0.5 * kappa_p[:, None] * w2
    b = 0.5 * eps_p[:, None] * w2 + kappa_p[:, None] * w3 / 3.0
    return a.sum(axis=0), b.sum(axis=0)


def owner_row(y_lo, y_hi, h):
    """Per column, the topmost row whose band (y_lo, y_hi] holds h."""
    inside = (h > y_lo) & (h <= y_hi)
    return inside.shape[0] - 1 - np.argmax(inside[::-1], axis=0)


def stress_from_segments(state: EquilibriumState, stack, config: BeamConfig, x, y):
    """``beam.stress_at`` read from the whole history of ``stack.segments()``
    (O(S N) per point): E (e - eps_k - y kap_k) in the topmost layer k of
    nonzero width whose band holds y, E e in the original material."""
    j = min(int(np.clip(x / config.delta, 0, config.n_cells - 1)), config.n_cells - 1)
    tops, eps_p, kappa_p = stack.segments()
    ytol = 1e-12 * max(1.0, stack.top.values[j])
    pre = 0.0
    for k in range(len(eps_p) - 1, 0, -1):
        if tops[k, j] - tops[k - 1, j] > ytol and y > tops[k - 1, j] + ytol:
            pre = eps_p[k] + y * kappa_p[k]
            break
    return config.young_modulus * (state.eps[j] + y * state.kappa[j] - pre)


# The no-prestrain step's mass at a given multiplier

def _candidate(m2, young_modulus, lam):
    return (36.0 * m2 / (young_modulus * lam)) ** 0.25


def baseline_mass(config: BeamConfig, load: LoadCase, h_prev, lam: float) -> float:
    """Mass of max(h_prev, candidate(lam)) under midpoint quadrature."""
    hp = _as_values(h_prev, config.n_cells)
    m2 = bending_moment(load, config, config.x_centers) ** 2
    cand = _candidate(m2, config.young_modulus, lam)
    return config.delta * float(np.sum(np.maximum(hp, cand)))
