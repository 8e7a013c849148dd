import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growbeam as gb
from growbeam.beam import Layers, prestress_section_integrals
from growbeam.compliance import ComplianceDensity
from growbeam.errors import DomainError
from tests.conftest import random_stack
from tests.oracles import (density_baseline, density_precurv_first,
                           density_prestrain, equilibrium_bare,
                           equilibrium_one_layer, f_concavity_interval,
                           f_second_raw, f_value_raw, g_second_raw,
                           g_value_raw)

ETA_NEG = 20.0 / (1.0e5 * 0.3**2 * -0.01)   # -2/9
ETA_POS = -ETA_NEG


def fd4(fn, h, step):
    """Fourth-order central difference, independent of the library FD."""
    return (-fn(h + 2 * step) + 8 * fn(h + step)
            - 8 * fn(h - step) + fn(h - 2 * step)) / (12 * step)


class TestComplianceTotal:
    def test_zero_state(self, paper_config):
        st_ = gb.EquilibriumState(np.zeros(200), np.zeros(200))
        h0 = gb.HeightField.constant(paper_config, 0.3)
        assert gb.compliance_total(st_, h0, paper_config) == 0.0

    def test_constant_moment_reference(self, paper_config, moment_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        st_ = equilibrium_bare(paper_config, moment_load, h0)
        c = gb.compliance_total(st_, h0, paper_config)
        assert c == pytest.approx(35.5556, rel=1e-5)
        assert c == pytest.approx(20.0 * 12.0 * 20.0**2 / (1.0e5 * 0.3**3), rel=1e-12)

    def test_nonnegative_on_random_stacks(self, rng, uniform_load):
        config = gb.BeamConfig(20.0, 1.0e5, 16)
        for layers in (0, 1, 3):
            stack = random_stack(rng, config, layers)
            st_ = gb.equilibrium_general(config, uniform_load, stack)
            assert gb.compliance_total(st_, stack.top, config) >= 0.0


@pytest.mark.parametrize("h", [0.0, -0.3])
def test_density_refuses_a_height_that_is_not_positive(h):
    density = ComplianceDensity.baseline(1.0e5, np.ones(3))
    for evaluate in (density.value, density.derivative, density.curvature):
        with pytest.raises(DomainError, match="height must be positive"):
            evaluate(np.array([0.3, h, 0.3]))


def test_density_of_no_heights_is_empty():
    # no height to refuse: each evaluation returns its empty array
    empty = np.array([])
    for diagnostic in (gb.f_value, gb.f_second, gb.g_value, gb.g_second):
        assert diagnostic(0.1, empty).shape == (0,)
    density = ComplianceDensity.const_prestrain(1.0e5, 20.0, 0.3, 0.01)
    for evaluate in (density.value, density.derivative, density.curvature):
        assert evaluate(empty).shape == (0,)


class TestDensityBaseline:
    def test_reference(self):
        assert density_baseline(0.3, 20.0, 1.0e5) == pytest.approx(1.77778, rel=1e-5)

    def test_zero_moment(self):
        assert density_baseline(0.5, 0.0, 1.0e5) == 0.0

    def test_matches_compliance_per_unit_length(self, paper_config, moment_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        st_ = equilibrium_bare(paper_config, moment_load, h0)
        per_len = gb.compliance_total(st_, h0, paper_config) / paper_config.length
        assert density_baseline(0.3, 20.0, 1.0e5) == pytest.approx(per_len, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            density_baseline(0.0, 20.0, 1.0e5)


class TestDensityPrestrain:
    def test_reduces_to_baseline(self):
        for h in (0.3, 0.5, 1.2):
            assert density_prestrain(h, 0.3, 20.0, 1.0e5, 0.0) == pytest.approx(
                density_baseline(h, 20.0, 1.0e5), rel=1e-13)

    def test_value_at_base_height(self):
        # hbar = 1 collapses to the baseline density of the original beam
        want = 12.0 * 20.0**2 / (1.0e5 * 0.3**3)
        assert density_prestrain(0.3, 0.3, 20.0, 1.0e5, -0.01) == pytest.approx(
            want, rel=1e-12)

    def test_dimensionless_consistency(self, rng):
        for _ in range(300):
            h0 = float(rng.uniform(0.1, 0.8))
            hbar = float(rng.uniform(1.0, 5.0))
            m = float(rng.uniform(-40.0, 40.0))
            e = float(rng.uniform(1e4, 1e6))
            ep = float(rng.choice([-1, 1]) * rng.uniform(0.002, 0.05))
            eta = m / (e * h0**2 * ep)
            direct = density_prestrain(hbar * h0, h0, m, e, ep)
            scaled = e * ep**2 * h0 * gb.f_value(eta, hbar)
            assert direct == pytest.approx(scaled, rel=1e-10, abs=1e-10 * abs(scaled) + 1e-14)
            # c'' = E eps_p^2 f''(eta, hbar) / h0, with f'' = 4 (6 eta - hbar + 3)
            # (6 eta - 2 hbar + 3) / hbar^5 and a floor near its zeros
            curv = ComplianceDensity.const_prestrain(e, m, h0, ep).curvature(hbar * h0)
            want = e * ep**2 * gb.f_second(eta, hbar) / h0
            terms = (e * ep**2 / h0 * 4.0 * (6.0 * abs(eta) + hbar + 3.0)
                     * (6.0 * abs(eta) + 2.0 * hbar + 3.0) / hbar**5)
            assert abs(curv - want) <= 1e-10 * max(abs(want), 1e-3 * terms)

    def test_matches_equilibrium_route(self, rng):
        # one-layer closed-form equilibrium plus the energy integrand is an
        # independent route to the same density
        config = gb.BeamConfig(length=4.0, young_modulus=1.0e5, n_cells=1)
        for _ in range(200):
            h0 = float(rng.uniform(0.1, 0.6))
            h1 = h0 + float(rng.uniform(0.0, 0.6))
            m = float(rng.uniform(-40.0, 40.0))
            ep = float(rng.uniform(-0.05, 0.05))
            load = gb.LoadCase(gb.LoadKind.MOMENT, m)
            st_ = equilibrium_one_layer(config, load,
                                        gb.HeightField.constant(config, h0),
                                        gb.HeightField.constant(config, h1),
                                        gb.PrestrainPair(ep, 0.0))
            u, v = st_.eps[0], st_.kappa[0]
            direct = config.young_modulus * (u**2 * h1 + u * v * h1**2 + v**2 * h1**3 / 3)
            closed = density_prestrain(h1, h0, m, config.young_modulus, ep)
            assert closed == pytest.approx(direct, rel=1e-10, abs=1e-12)


class TestDensityPrecurvFirst:
    def test_base_height_is_baseline(self):
        want = 12.0 * 20.0**2 / (1.0e5 * 0.3**3)
        assert density_precurv_first(0.3, 0.3, 20.0, 1.0e5, 0.05) == pytest.approx(
            want, rel=1e-12)

    def test_unloaded_at_base_height(self):
        assert density_precurv_first(0.3, 0.3, 0.0, 1.0e5, 0.05) == pytest.approx(
            0.0, abs=1e-12)

    def test_reduces_to_baseline(self):
        for h in (0.4, 0.9):
            assert density_precurv_first(h, 0.3, 20.0, 1.0e5, 0.0) == pytest.approx(
                density_baseline(h, 20.0, 1.0e5), rel=1e-13)

    def test_matches_equilibrium_route(self, rng):
        config = gb.BeamConfig(length=4.0, young_modulus=1.0e5, n_cells=1)
        for _ in range(200):
            h0 = float(rng.uniform(0.1, 0.6))
            h1 = h0 + float(rng.uniform(0.0, 0.6))
            m = float(rng.uniform(-40.0, 40.0))
            kp = float(rng.uniform(-0.2, 0.2))
            load = gb.LoadCase(gb.LoadKind.MOMENT, m)
            st_ = equilibrium_one_layer(config, load,
                                        gb.HeightField.constant(config, h0),
                                        gb.HeightField.constant(config, h1),
                                        gb.PrestrainPair(0.0, kp))
            u, v = st_.eps[0], st_.kappa[0]
            direct = config.young_modulus * (u**2 * h1 + u * v * h1**2 + v**2 * h1**3 / 3)
            closed = density_precurv_first(h1, h0, m, config.young_modulus, kp)
            assert closed == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_dimensionless_consistency(self, rng):
        for _ in range(300):
            h0 = float(rng.uniform(0.1, 0.8))
            hbar = float(rng.uniform(1.0, 5.0))
            m = float(rng.uniform(-40.0, 40.0))
            e = float(rng.uniform(1e4, 1e6))
            kp = float(rng.choice([-1, 1]) * rng.uniform(0.01, 0.3))
            mu = m / (e * h0**3 * kp)
            direct = density_precurv_first(hbar * h0, h0, m, e, kp)
            scaled = e * h0**3 * kp**2 * gb.g_value(mu, hbar)
            assert direct == pytest.approx(scaled, rel=1e-10, abs=1e-10 * abs(scaled) + 1e-14)
            # c'' = E h0 kappa_p^2 g''(mu, hbar), with g'' = 2 hbar + 2 (hbar - 6 mu - 2)
            # (hbar - 12 mu - 4) / hbar^5
            curv = ComplianceDensity.const_precurv_first(e, m, h0, kp).curvature(hbar * h0)
            want = e * h0 * kp**2 * gb.g_second(mu, hbar)
            t = abs(6.0 * mu + 2.0)
            terms = e * h0 * kp**2 * (2.0 * hbar + 2.0 * (hbar + t) * (hbar + 2.0 * t) / hbar**5)
            assert abs(curv - want) <= 1e-10 * max(abs(want), 1e-3 * terms)


class TestCaseReductionLattice:
    def test_general_on_bare_beam_is_baseline(self, rng, uniform_load):
        config = gb.BeamConfig(20.0, 1.0e5, 32)
        h0 = gb.HeightField(rng.uniform(0.1, 0.6, size=32))
        stack = gb.LayerStack((h0,), ())
        density = ComplianceDensity.general(config, uniform_load, stack,
                                            gb.PrestrainPair(0.0, 0.0))
        h = h0.values + rng.uniform(0.0, 0.5, size=32)
        m = gb.bending_moment(uniform_load, config, config.x_centers)
        np.testing.assert_allclose(density.value(h),
                                   density_baseline(h, m, 1.0e5),
                                   rtol=1e-10, atol=1e-14)

    def test_prestrain_telescopes_across_steps(self, rng, moment_load):
        # constant axial prestrain: the multi-layer general density equals the
        # single closed form in (h0, h) at any step
        config = gb.BeamConfig(20.0, 1.0e5, 8)
        h0 = gb.HeightField.constant(config, 0.3)
        h1 = gb.HeightField(0.3 + rng.uniform(0.0, 0.2, size=8))
        h2 = gb.HeightField(h1.values + rng.uniform(0.0, 0.2, size=8))
        pre = gb.PrestrainPair(0.013, 0.0)
        stack = gb.LayerStack((h0, h1, h2), (pre, pre))
        density = ComplianceDensity.general(config, moment_load, stack, pre)
        h = h2.values + rng.uniform(0.0, 0.3, size=8)
        np.testing.assert_allclose(
            density.value(h),
            density_prestrain(h, 0.3, 20.0, 1.0e5, 0.013),
            rtol=1e-10)


class TestClosedFormOracles:
    """Each constructor of the one quadratic-form density against the
    independent closed forms, value and derivative."""

    N = 10_000

    @pytest.fixture
    def samples(self):
        rng = np.random.default_rng(11)
        n = self.N
        h0 = rng.uniform(0.1, 0.8, size=n)
        return dict(
            h0=h0, h=h0 * rng.uniform(1.0, 4.0, size=n),
            m=rng.choice([-1.0, 1.0], size=n) * rng.uniform(5.0, 40.0, size=n),
            e=rng.uniform(1e4, 1e6, size=n),
            ep=rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.002, 0.05, size=n),
            kp=rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.01, 0.3, size=n))

    @staticmethod
    def assert_rel(got, want, tol=1e-10):
        assert float(np.max(np.abs(got - want) / np.abs(want))) <= tol

    def test_baseline(self, samples):
        h, m, e = samples["h"], samples["m"], samples["e"]
        d = ComplianceDensity.baseline(e, m)
        self.assert_rel(d.value(h), density_baseline(h, m, e))
        self.assert_rel(d.derivative(h), -36.0 * m**2 / (e * h**4))

    def test_const_prestrain(self, samples):
        h, h0, m, e, ep = (samples[k] for k in ("h", "h0", "m", "e", "ep"))
        d = ComplianceDensity.const_prestrain(e, m, h0, ep)
        k = e * ep * h0**2 + 2.0 * m
        slope = (-9.0 * k**2 / (e * h**4) + e * ep**2
                 + 12.0 * ep * h0 * k / h**3 - 4.0 * e * ep**2 * h0**2 / h**2)
        self.assert_rel(d.value(h), density_prestrain(h, h0, m, e, ep))
        self.assert_rel(d.derivative(h), slope)

    def test_const_precurv_first(self, samples):
        h, h0, m, e, kp = (samples[k] for k in ("h", "h0", "m", "e", "kp"))
        d = ComplianceDensity.const_precurv_first(e, m, h0, kp)
        q = e * kp * h0**3 + 3.0 * m
        slope = (-4.0 * q**2 / (e * h**4) + e * kp**2 * h**2
                 + 4.0 * h0**2 * kp * q / h**3 - e * h0**4 * kp**2 / h**2)
        self.assert_rel(d.value(h), density_precurv_first(h, h0, m, e, kp))
        self.assert_rel(d.derivative(h), slope)

    def test_history_only_under_ablation(self, rng, uniform_load):
        config = gb.BeamConfig(20.0, 1.0e5, 8)
        stack = random_stack(rng, config, 2)
        pre = gb.PrestrainPair(0.01, 0.0)
        assert ComplianceDensity.general(config, uniform_load, stack, pre).history is None
        cut = gb.LayerStack(stack.heights, stack.prestrains, ablation=True)
        assert isinstance(ComplianceDensity.general(config, uniform_load, cut, pre).history,
                          Layers)


class TestDensityDerivative:
    def test_baseline_reference(self):
        d = ComplianceDensity.baseline(1.0e5, 20.0)
        assert d.derivative(0.6) == pytest.approx(-1.11111, rel=1e-5)
        assert d.derivative(0.6) == pytest.approx(
            -36.0 * 400.0 / (1.0e5 * 0.6**4), rel=1e-13)

    def test_prestrain_at_base_height(self):
        # c'(h0) = E (eps_p)^2 f'(1) with f'(1) = -12 eta - 36 eta^2
        d = ComplianceDensity.const_prestrain(1.0e5, 20.0, 0.3, -0.01)
        want = 1.0e5 * 1e-4 * (-12.0 * ETA_NEG - 36.0 * ETA_NEG**2)
        assert d.derivative(0.3) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(8.8889, rel=1e-4)

    @pytest.mark.parametrize("case", ["baseline", "prestrain", "precurv"])
    def test_matches_fd_randomized(self, rng, case):
        for _ in range(400):
            h0 = float(rng.uniform(0.1, 0.8))
            h = h0 * float(rng.uniform(1.0, 4.0))
            m = float(rng.choice([-1, 1]) * rng.uniform(5.0, 40.0))
            e = float(rng.uniform(1e4, 1e6))
            if case == "baseline":
                d = ComplianceDensity.baseline(e, m)
                terms = 36.0 * m**2 / (e * h**4)
            elif case == "prestrain":
                ep = float(rng.choice([-1, 1]) * rng.uniform(0.002, 0.05))
                d = ComplianceDensity.const_prestrain(e, m, h0, ep)
                k = e * ep * h0**2 + 2 * m
                terms = (9 * k**2 / (e * h**4) + e * ep**2
                         + 12 * abs(ep) * h0 * abs(k) / h**3 + 4 * e * ep**2 * h0**2 / h**2)
            else:
                kp = float(rng.choice([-1, 1]) * rng.uniform(0.01, 0.3))
                d = ComplianceDensity.const_precurv_first(e, m, h0, kp)
                q = e * kp * h0**3 + 3 * m
                terms = (4 * q**2 / (e * h**4) + e * kp**2 * h**2
                         + 4 * h0**2 * abs(kp) * abs(q) / h**3 + e * h0**4 * kp**2 / h**2)
            step = 1e-4 * max(h, 1.0)
            for fn, df, scale in ((d.value, d.derivative, terms),
                                  (d.derivative, d.curvature, terms / h)):
                a = df(h)
                b = fd4(fn, h, step)
                denom = max(abs(a), abs(b), 1e-3 * scale)
                assert abs(a - b) / denom <= 1e-6

    def test_general_matches_fd(self, rng, uniform_load):
        config = gb.BeamConfig(20.0, 1.0e5, 8)
        for cut in [None] * 40 + ["top"] * 40 + ["lower"] * 40:
            stack = random_stack(rng, config, 3 if cut == "lower" else 2)
            pre = gb.PrestrainPair(float(rng.uniform(-0.03, 0.03)),
                                   float(rng.uniform(-0.1, 0.1)))
            if cut is None:
                h = stack.top.values + rng.uniform(0.01, 0.4, size=8)
                step = 1e-4 * np.maximum(h, 1.0)
            else:
                # cut away from a layer's edges, where the trimmed history
                # sets the density: into the top layer, or through the middle
                # of a random lower one (row 0 is the original material)
                stack = gb.LayerStack(stack.heights, stack.prestrains, ablation=True)
                if cut == "top":
                    lo, hi = stack.heights[-2].values, stack.top.values
                    h = lo + rng.uniform(0.25, 0.75, size=8) * (hi - lo)
                else:
                    tops = np.vstack([np.zeros(8)] + [f.values for f in stack.heights[:-1]])
                    k = rng.integers(0, len(tops) - 1, size=8)
                    lo, hi = tops[k, range(8)], tops[k + 1, range(8)]
                    h = 0.5 * (lo + hi)
                step = np.minimum(1e-4, 0.05 * (hi - lo))
            d = ComplianceDensity.general(config, uniform_load, stack, pre)
            if cut is not None:
                # replay: the cut as one more layer, then the energy integrand
                replay = gb.LayerStack(stack.heights + (gb.HeightField(h),),
                                       stack.prestrains + (pre,), ablation=True)
                st_ = gb.equilibrium_general(config, uniform_load, replay)
                u, v = st_.eps, st_.kappa
                np.testing.assert_allclose(
                    d.value(h), 1.0e5 * (u**2 * h + u * v * h**2 + v**2 * h**3 / 3),
                    rtol=1e-12)
            for fn, df in ((d.value, d.derivative), (d.derivative, d.curvature)):
                a = df(h)
                b = fd4(fn, h, step)
                denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
                assert np.max(np.abs(a - b) / denom) <= 1e-6

    def test_general_growth_side_at_kink(self, paper_config, moment_load):
        # a pinned cell must see the cost of depositing new material, not the
        # average of deposit and removal slopes; under ablation a cell at
        # h_prev keeps the new layer's density, and only cells below it are cut
        h0 = gb.HeightField.constant(paper_config, 0.3)
        pre = gb.PrestrainPair(-0.01, 0.0)
        closed = ComplianceDensity.const_prestrain(1.0e5, 20.0, 0.3, -0.01)
        free = ComplianceDensity.general(paper_config, moment_load,
                                         gb.LayerStack((h0,), ()), pre)
        h = h0.values.copy()
        h[::2] = 0.2
        kink = h == h0.values
        for ablation in (False, True):
            d = ComplianceDensity.general(paper_config, moment_load,
                                          gb.LayerStack((h0,), (), ablation=ablation), pre)
            assert d.derivative(h0.values)[0] == pytest.approx(
                closed.derivative(0.3), rel=1e-10)
            for evaluate, uncut in ((d.value, free.value), (d.derivative, free.derivative),
                                    (d.curvature, free.curvature)):
                got, want = evaluate(h), uncut(h)
                np.testing.assert_array_equal(got[kink], want[kink])
                if ablation:
                    assert np.all(got[~kink] != want[~kink])
                else:
                    np.testing.assert_array_equal(got, want)

    def test_cut_cells_broadcast_a_per_cell_young_modulus(self, rng, uniform_load):
        # one E per cell gives the bits of the scalar E, on cut cells (into
        # the top layer and below it), at h_prev and above it
        config = gb.BeamConfig(20.0, 1.0e5, 8)
        stack = random_stack(rng, config, 2)
        stack = gb.LayerStack(stack.heights, stack.prestrains, ablation=True)
        m = gb.bending_moment(uniform_load, config, config.x_centers)
        segments = stack.segments()
        a, b = prestress_section_integrals(*segments)
        args = (m, stack.top.values, a, b - m / 1.0e5, 0.01, 0.05, segments)
        scalar = ComplianceDensity(1.0e5, *args)
        per_cell = ComplianceDensity(np.full(8, 1.0e5), *args)
        h = stack.top.values * np.array([0.2, 0.5, 0.9, 1.0, 1.0, 1.1, 1.5, 0.7])
        assert np.any(h < stack.heights[-2].values)
        for name in ("value", "derivative", "curvature", "section_integrals"):
            np.testing.assert_array_equal(getattr(per_cell, name)(h),
                                          getattr(scalar, name)(h))

    @pytest.mark.parametrize("ablation", [False, True])
    def test_scalar_coefficients_in_every_form(self, rng, uniform_load, ablation):
        # E, eps_p and kappa_p as Python floats, float64 scalars, 0-d arrays
        # and per-cell arrays give the same bits, on cut and uncut cells
        config = gb.BeamConfig(20.0, 1.0e5, 8)
        stack = random_stack(rng, config, 2)
        stack = gb.LayerStack(stack.heights, stack.prestrains, ablation=ablation)
        m = gb.bending_moment(uniform_load, config, config.x_centers)
        segments = stack.segments()
        a, b = prestress_section_integrals(*segments)
        h = stack.top.values * np.array([0.2, 0.5, 0.9, 1.0, 1.0, 1.1, 1.5, 0.7])
        assert np.any(h < stack.heights[-2].values)

        def build(form):
            return ComplianceDensity(form(1.0e5), m, stack.top.values, a, b - m / 1.0e5,
                                     form(0.01), form(0.05), segments if ablation else None)

        want = build(float)
        for form in (np.float64, np.array, lambda v: np.full(8, v)):
            got = build(form)
            for name in ("value", "derivative", "curvature", "section_integrals"):
                assert (np.asarray(getattr(got, name)(h)).tobytes()
                        == np.asarray(getattr(want, name)(h)).tobytes()), (form, name)

    def test_scalar_cut_height_broadcasts(self, uniform_load):
        # one height below every cell's h_prev is that height in each cell
        config = gb.BeamConfig(20.0, 1.0e5, 4)
        stack = gb.LayerStack((gb.HeightField.constant(config, 0.3),), (), ablation=True)
        d = ComplianceDensity.general(config, uniform_load, stack, gb.PrestrainPair(0.01, 0.0))
        for name in ("value", "derivative", "curvature", "section_integrals"):
            np.testing.assert_array_equal(getattr(d, name)(0.2),
                                          getattr(d, name)(np.full(4, 0.2)))


class TestDimensionlessF:
    def test_paper_minimum_negative_prestrain(self):
        assert gb.f_second(ETA_NEG, 1.0) == pytest.approx(-0.89, abs=0.01)

    def test_paper_minimum_positive_prestrain(self):
        assert gb.f_second(ETA_POS, 2.56) == pytest.approx(-0.05, abs=0.005)

    def test_value_at_one(self, rng):
        for eta in rng.uniform(-5, 5, size=50):
            assert gb.f_value(eta, 1.0) == pytest.approx(12.0 * eta**2,
                                                         rel=1e-12, abs=1e-12)

    def test_raw_matches_stable(self, rng):
        eta = rng.uniform(-5, 5, size=500)
        hbar = rng.uniform(0.2, 10.0, size=500)
        np.testing.assert_allclose(gb.f_value(eta, hbar), f_value_raw(eta, hbar),
                                   rtol=1e-10)
        np.testing.assert_allclose(gb.f_second(eta, hbar), f_second_raw(eta, hbar),
                                   rtol=1e-9, atol=1e-12)

    def test_sign_structure(self, rng):
        for eta in rng.uniform(-2.0, 2.0, size=40):
            lo, hi = f_concavity_interval(eta)
            for hbar in rng.uniform(0.05, 8.0, size=40):
                inside = lo <= hbar <= hi
                val = gb.f_second(eta, hbar)
                if inside:
                    assert val <= 1e-12
                else:
                    assert val >= -1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            gb.f_value(0.1, 0.0)
        with pytest.raises(DomainError):
            gb.f_second(0.1, -1.0)


class TestDimensionlessG:
    def test_value_at_one(self, rng):
        for mu in rng.uniform(-5, 5, size=50):
            assert gb.g_value(mu, 1.0) == pytest.approx(12.0 * mu**2,
                                                        rel=1e-12, abs=1e-12)

    def test_positive_second_derivative(self, rng):
        mu = rng.uniform(-10, 10, size=20000)
        hbar = rng.uniform(1.0, 10.0, size=20000)
        assert np.min(gb.g_second(mu, hbar)) > 0.0

    def test_raw_matches_completed_square(self, rng):
        mu = rng.uniform(-10, 10, size=5000)
        hbar = rng.uniform(1.0, 10.0, size=5000)
        np.testing.assert_allclose(gb.g_second(mu, hbar), g_second_raw(mu, hbar),
                                   rtol=1e-10)
        np.testing.assert_allclose(gb.g_value(mu, hbar), g_value_raw(mu, hbar),
                                   rtol=1e-10, atol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            gb.g_value(0.1, -2.0)


class TestConvexEnvelope:
    def test_convex_input_unchanged(self):
        x = np.linspace(-2, 2, 101)
        y = x**2
        _, env = gb.convex_envelope_1d(x, y)
        np.testing.assert_allclose(env, y, atol=1e-14)

    def test_positive_prestrain_nearly_convex(self):
        hbar = np.linspace(1.0, 6.0, 2048)
        f = gb.f_value(ETA_POS, hbar)
        _, env = gb.convex_envelope_1d(hbar, f)
        assert np.max(f - env) <= 0.02 * np.max(np.abs(f))

    def test_negative_prestrain_gap(self):
        hbar = np.linspace(1.0, 6.0, 2048)
        f = gb.f_value(ETA_NEG, hbar)
        _, env = gb.convex_envelope_1d(hbar, f)
        window = (hbar > 1.0) & (hbar < 2.3)
        gap = np.max((f - env)[window])
        assert gap > 1e-3 * np.max(np.abs(f))

    def test_envelope_below_and_convex(self, rng):
        x = np.linspace(0.0, 1.0, 257)
        y = rng.normal(size=257)
        _, env = gb.convex_envelope_1d(x, y)
        assert np.all(env <= y + 1e-12)
        second = np.diff(env, 2)
        assert np.min(second) >= -1e-12

    def test_input_errors(self):
        with pytest.raises(DomainError, match="x and y must be 1-D arrays of equal length"):
            gb.convex_envelope_1d(np.arange(4.0), np.arange(3.0))
        with pytest.raises(DomainError, match="x and y must be 1-D arrays of equal length"):
            gb.convex_envelope_1d(np.ones((3, 3)), np.ones((3, 3)))
        with pytest.raises(DomainError):
            gb.convex_envelope_1d(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            gb.convex_envelope_1d(np.array([0.0, 1.0, 1.0, 2.0]),
                                  np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(DomainError):
            gb.convex_envelope_1d(np.array([0.0, 2.0, 1.0]),
                                  np.array([1.0, 2.0, 3.0]))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=3, max_size=60))
def test_envelope_property(values):
    x = np.arange(len(values), dtype=float)
    y = np.asarray(values)
    _, env = gb.convex_envelope_1d(x, y)
    assert np.all(env <= y + 1e-9)
    assert env[0] == y[0] and env[-1] == y[-1]
    if len(values) > 2:
        assert np.min(np.diff(env, 2)) >= -1e-9
