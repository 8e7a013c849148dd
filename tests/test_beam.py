import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growbeam as gb
from growbeam.beam import Layers
from growbeam.errors import DomainError
from tests.conftest import random_stack
from tests.oracles import (equilibrium_bare, equilibrium_one_layer, owner_row,
                           segment_integrals, segments_replay, stress_from_segments)


def section_balance_residuals(state, stack, config, load):
    """Independent force/moment balance check via stress integration.

    The stress is affine in y inside every material segment, so a
    trapezoid rule for the force and Simpson's rule for the moment
    integrate it exactly segment by segment.
    """
    tops, _, _ = stack.segments()
    xc = config.x_centers
    m = gb.bending_moment(load, config, xc)
    res_f = np.zeros(config.n_cells)
    res_m = np.zeros(config.n_cells)
    for j in range(config.n_cells):
        force = 0.0
        moment = 0.0
        for lo, hi in zip(np.r_[0.0, tops[:-1, j]], tops[:, j]):
            w = hi - lo
            if w <= 1e-15:
                continue
            nudge = 1e-9 * w
            ya, yb = lo + nudge, hi - nudge
            sa = gb.stress_at(state, stack, config, xc[j], ya)
            sb = gb.stress_at(state, stack, config, xc[j], yb)
            ym = 0.5 * (ya + yb)
            sm = gb.stress_at(state, stack, config, xc[j], ym)
            force += 0.5 * (sa + sb) * w
            moment += (-ya * sa - 4.0 * ym * sm - yb * sb) / 6.0 * w
        res_f[j] = force
        res_m[j] = moment - m[j]
    h = stack.top.values
    scale = config.young_modulus * h * np.maximum(np.abs(state.eps),
                                                  np.abs(state.kappa) * h) + 1e-30
    return np.abs(res_f) / scale, np.abs(res_m) / (scale * h)


@pytest.mark.parametrize("length, young_modulus", [
    (math.inf, 1.0e5), (math.nan, 1.0e5), (20.0, math.inf), (20.0, math.nan)])
def test_config_needs_finite_length_and_modulus(length, young_modulus):
    with pytest.raises(DomainError):
        gb.BeamConfig(length=length, young_modulus=young_modulus, n_cells=10)


class TestRefusals:
    """Each constructor and entry point refuses an input outside its domain
    with a DomainError that says what is wrong."""

    def test_non_finite_load(self):
        with pytest.raises(DomainError, match="load value must be finite"):
            gb.LoadCase(gb.LoadKind.UNIFORM, math.nan)

    def test_no_cells(self):
        with pytest.raises(DomainError, match="n_cells must be at least 1"):
            gb.BeamConfig(n_cells=0)

    def test_non_integer_cells(self):
        # 2.5 cells would put the last center on the free end
        with pytest.raises(DomainError, match="n_cells must be at least 1 and an integer"):
            gb.BeamConfig(20.0, 1.0e5, 2.5)
        assert gb.BeamConfig(20.0, 1.0e5, np.int64(5)).x_centers.size == 5

    def test_height_array_of_the_wrong_shape(self, paper_config, uniform_load):
        with pytest.raises(DomainError,
                           match=r"height array has shape \(3,\), expected \(200,\)"):
            gb.solve_baseline_step(paper_config, uniform_load, np.ones(3), 7.5)

    @pytest.mark.parametrize("values", [np.array([]), np.ones((2, 2))], ids=["empty", "2-D"])
    def test_height_field_shape(self, values):
        with pytest.raises(DomainError, match="height field must be a nonempty 1-D array"):
            gb.HeightField(values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.3])
    def test_height_field_values(self, bad):
        with pytest.raises(DomainError, match="heights must be finite and positive"):
            gb.HeightField(np.array([0.3, bad]))

    @pytest.mark.parametrize("eps_p, kappa_p", [(math.inf, 0.0), (0.0, math.nan)])
    def test_non_finite_prestrain(self, eps_p, kappa_p):
        with pytest.raises(DomainError, match="prestrain values must be finite"):
            gb.PrestrainPair(eps_p, kappa_p)

    def test_empty_layer_stack(self):
        with pytest.raises(DomainError, match="layer stack needs at least the initial height"):
            gb.LayerStack((), ())

    def test_layer_stack_on_two_grids(self, paper_config):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        with pytest.raises(DomainError, match="all height fields must share the grid"):
            gb.LayerStack((h0, gb.HeightField(np.ones(3))), (gb.PrestrainPair(),))

    @pytest.mark.parametrize("eps, kappa", [(np.ones(3), np.ones(4)),
                                            (np.ones((2, 2)), np.ones((2, 2)))],
                             ids=["unequal", "2-D"])
    def test_equilibrium_state_shapes(self, eps, kappa):
        with pytest.raises(DomainError,
                           match="eps and kappa must be 1-D arrays of equal length"):
            gb.EquilibriumState(eps, kappa)

    @pytest.mark.parametrize("x", [-0.1, 20.1, math.nan])
    def test_stress_outside_the_beam(self, paper_config, moment_load, x):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        state = equilibrium_bare(paper_config, moment_load, h0)
        with pytest.raises(DomainError, match="x outside the beam"):
            gb.stress_at(state, gb.LayerStack((h0,), ()), paper_config, x, 0.1)


class TestBendingMoment:
    def test_vanishes_at_free_end(self, paper_config, uniform_load):
        assert gb.bending_moment(uniform_load, paper_config, 20.0) == 0.0

    def test_uniform_load_at_clamp(self, paper_config, uniform_load):
        # (p/2) l^2 = 0.01 * 400
        assert gb.bending_moment(uniform_load, paper_config, 0.0) == pytest.approx(4.0)

    def test_constant_moment(self, paper_config, moment_load):
        for x in (0.0, 7.3, 20.0):
            assert gb.bending_moment(moment_load, paper_config, x) == 20.0

    def test_outside_domain_raises(self, paper_config, uniform_load):
        with pytest.raises(DomainError):
            gb.bending_moment(uniform_load, paper_config, -0.5)
        with pytest.raises(DomainError):
            gb.bending_moment(uniform_load, paper_config, 20.5)
        with pytest.raises(DomainError):
            gb.bending_moment(uniform_load, paper_config, math.nan)


class TestEquilibriumBare:
    def test_reference_values(self, paper_config, moment_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        st_ = equilibrium_bare(paper_config, moment_load, h0)
        assert st_.eps[0] == pytest.approx(0.0133333, rel=1e-5)
        assert st_.kappa[0] == pytest.approx(-0.0888889, rel=1e-5)

    def test_unloaded(self, paper_config):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        st_ = equilibrium_bare(paper_config, gb.LoadCase(gb.LoadKind.MOMENT, 0.0), h0)
        assert np.all(st_.eps == 0.0) and np.all(st_.kappa == 0.0)

    def test_height_power_laws(self, paper_config, moment_load):
        a = equilibrium_bare(paper_config, moment_load,
                             gb.HeightField.constant(paper_config, 0.3))
        b = equilibrium_bare(paper_config, moment_load,
                             gb.HeightField.constant(paper_config, 0.6))
        assert b.eps[0] == pytest.approx(a.eps[0] / 4.0, rel=1e-13)
        assert b.kappa[0] == pytest.approx(a.kappa[0] / 8.0, rel=1e-13)


class TestEquilibriumOneLayer:
    def test_stress_free_layer_reduces_to_taller_beam(self, paper_config, moment_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        h1 = gb.HeightField.constant(paper_config, 0.45)
        st_ = equilibrium_one_layer(paper_config, moment_load, h0, h1,
                                    gb.PrestrainPair(0.0, 0.0))
        bare = equilibrium_bare(paper_config, moment_load, h1)
        np.testing.assert_allclose(st_.eps, bare.eps, rtol=1e-13)
        np.testing.assert_allclose(st_.kappa, bare.kappa, rtol=1e-13)

    def test_reference_values(self, paper_config, moment_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        h1 = gb.HeightField.constant(paper_config, 0.4)
        st_ = equilibrium_one_layer(paper_config, moment_load, h0, h1,
                                    gb.PrestrainPair(0.01, 0.0))
        assert st_.eps[0] == pytest.approx(0.004375, rel=1e-12)
        assert st_.kappa[0] == pytest.approx(-0.009375, rel=1e-12)

    def test_matching_prestrain_leaves_state_unchanged(self, rng):
        # A layer deposited stress-free on the deformed beam carries none of
        # the load: (eps, kappa) stay at the bare-beam values of h0.
        config = gb.BeamConfig(length=10.0, young_modulus=2.0e5, n_cells=1)
        for _ in range(100):
            h0 = float(rng.uniform(0.1, 0.6))
            h1 = h0 + float(rng.uniform(0.0, 0.5))
            m = float(rng.uniform(-40.0, 40.0))
            load = gb.LoadCase(gb.LoadKind.MOMENT, m)
            e = config.young_modulus
            pre = gb.PrestrainPair(6.0 * m / (e * h0**2), -12.0 * m / (e * h0**3))
            st_ = equilibrium_one_layer(config, load,
                                        gb.HeightField.constant(config, h0),
                                        gb.HeightField.constant(config, h1), pre)
            assert st_.eps[0] == pytest.approx(6.0 * m / (e * h0**2), rel=1e-10, abs=1e-18)
            assert st_.kappa[0] == pytest.approx(-12.0 * m / (e * h0**3), rel=1e-10, abs=1e-18)

    def test_dominance_precondition(self, paper_config, moment_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        bad = gb.HeightField.constant(paper_config, 0.25)
        with pytest.raises(DomainError):
            equilibrium_one_layer(paper_config, moment_load, h0, bad,
                                  gb.PrestrainPair(0.0, 0.0))


class TestEquilibriumGeneral:
    def test_matches_one_layer_randomized(self, rng):
        config = gb.BeamConfig(length=5.0, young_modulus=1.0e5, n_cells=1)
        for _ in range(1000):
            h0 = float(rng.uniform(0.05, 0.8))
            h1 = h0 + float(rng.uniform(0.0, 0.6))
            pre = gb.PrestrainPair(float(rng.uniform(-0.05, 0.05)),
                                   float(rng.uniform(-0.2, 0.2)))
            m = float(rng.uniform(-50.0, 50.0))
            load = gb.LoadCase(gb.LoadKind.MOMENT, m)
            f0 = gb.HeightField.constant(config, h0)
            f1 = gb.HeightField.constant(config, h1)
            a = equilibrium_one_layer(config, load, f0, f1, pre)
            b = gb.equilibrium_general(config, load, gb.LayerStack((f0, f1), (pre,)))
            scale = (abs(pre.eps_p) + h1 * abs(pre.kappa_p)
                     + 6.0 * abs(m) / (config.young_modulus * h0**2) + 1e-12)
            assert abs(a.eps[0] - b.eps[0]) <= 1e-12 * scale
            assert abs(a.kappa[0] - b.kappa[0]) <= 1e-12 * scale / h1

    def test_zero_layers_is_bare(self, paper_config, uniform_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        a = equilibrium_bare(paper_config, uniform_load, h0)
        b = gb.equilibrium_general(paper_config, uniform_load, gb.LayerStack((h0,), ()))
        np.testing.assert_allclose(a.eps, b.eps, rtol=1e-13, atol=1e-20)
        np.testing.assert_allclose(a.kappa, b.kappa, rtol=1e-13, atol=1e-20)

    def test_stress_free_layers_merge(self, paper_config, moment_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        h1 = gb.HeightField.constant(paper_config, 0.4)
        h2 = gb.HeightField.constant(paper_config, 0.55)
        stack = gb.LayerStack((h0, h1, h2), (gb.PrestrainPair(), gb.PrestrainPair()))
        a = gb.equilibrium_general(paper_config, moment_load, stack)
        b = equilibrium_bare(paper_config, moment_load, h2)
        np.testing.assert_allclose(a.eps, b.eps, rtol=1e-12)
        np.testing.assert_allclose(a.kappa, b.kappa, rtol=1e-12)

    @pytest.mark.parametrize("n_layers", [1, 3, 6])
    def test_balance_residuals(self, rng, uniform_load, n_layers):
        config = gb.BeamConfig(length=20.0, young_modulus=1.0e5, n_cells=12)
        stack = random_stack(rng, config, n_layers)
        state = gb.equilibrium_general(config, uniform_load, stack)
        rf, rm = section_balance_residuals(state, stack, config, uniform_load)
        assert rf.max() <= 1e-9
        assert rm.max() <= 1e-9

    def test_balance_residuals_with_ablation(self, rng, uniform_load):
        # heights random-walk up and down; the replayed material columns must
        # still balance force and moment exactly
        config = gb.BeamConfig(length=20.0, young_modulus=1.0e5, n_cells=10)
        heights = [gb.HeightField(rng.uniform(0.3, 0.6, size=10))]
        pres = []
        for _ in range(5):
            delta = rng.uniform(-0.15, 0.25, size=10)
            nxt = np.maximum(heights[-1].values + delta, 0.05)
            heights.append(gb.HeightField(nxt))
            pres.append(gb.PrestrainPair(rng.uniform(-0.05, 0.05),
                                         rng.uniform(-0.2, 0.2)))
        stack = gb.LayerStack(tuple(heights), tuple(pres), ablation=True)
        state = gb.equilibrium_general(config, uniform_load, stack)
        rf, rm = section_balance_residuals(state, stack, config, uniform_load)
        assert rf.max() <= 1e-9
        assert rm.max() <= 1e-9


class TestStressAt:
    def test_base_of_bare_beam(self, paper_config, moment_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        stack = gb.LayerStack((h0,), ())
        st_ = equilibrium_bare(paper_config, moment_load, h0)
        x = paper_config.x_centers[3]
        assert gb.stress_at(st_, stack, paper_config, x, 0.0) == pytest.approx(
            paper_config.young_modulus * st_.eps[3], rel=1e-13)

    def test_neutral_axis_at_midheight(self, paper_config, moment_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        stack = gb.LayerStack((h0,), ())
        st_ = equilibrium_bare(paper_config, moment_load, h0)
        assert abs(gb.stress_at(st_, stack, paper_config, 1.0, 0.15)) <= 1e-9

    def test_affine_within_layer(self, rng, uniform_load):
        config = gb.BeamConfig(length=20.0, young_modulus=1.0e5, n_cells=8)
        stack = random_stack(rng, config, 2)
        state = gb.equilibrium_general(config, uniform_load, stack)
        tops, _, _ = stack.segments()
        j = 3
        x = config.x_centers[j]
        for lo, hi in zip(np.r_[0.0, tops[:-1, j]], tops[:, j]):
            if hi - lo < 1e-6:
                continue
            ys = np.linspace(lo + 1e-7, hi - 1e-7, 3)
            s = [gb.stress_at(state, stack, config, x, y) for y in ys]
            lin = s[0] + (s[2] - s[0]) * (ys[1] - ys[0]) / (ys[2] - ys[0])
            assert s[1] == pytest.approx(lin, rel=1e-10, abs=1e-10)

    def test_column_matches_segments_on_a_long_ablation_history(self, rng, uniform_load):
        # 200 layers at N = 2000: the stress read from one column's running
        # minimum is the one read from the whole segments() history, bit for
        # bit, inside layers, on their tops and at both ends of the section
        config = gb.BeamConfig(20.0, 1.0e5, 2000)
        stack = TestLayerStack.ablation_stack(rng, 2000, 200)
        state = gb.equilibrium_general(config, uniform_load, stack)
        tops = stack.segments()[0]
        for j in rng.integers(0, 2000, size=12):
            x = config.x_centers[j]
            for y in (0.0, tops[-1, j], *tops[rng.integers(0, 201, size=3), j],
                      *rng.uniform(0.0, tops[-1, j], size=3)):
                got = gb.stress_at(state, stack, config, x, y)
                want = stress_from_segments(state, stack, config, x, y)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (j, y)

    def test_above_surface_raises(self, paper_config, moment_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        stack = gb.LayerStack((h0,), ())
        st_ = equilibrium_bare(paper_config, moment_load, h0)
        for y in (0.31, math.nan):
            with pytest.raises(DomainError):
                gb.stress_at(st_, stack, paper_config, 1.0, y)


class TestDeflection:
    def test_zero_curvature(self, paper_config):
        st_ = gb.EquilibriumState(np.zeros(200), np.zeros(200))
        assert np.all(gb.deflection(st_, paper_config) == 0.0)

    def test_constant_curvature_exact(self, paper_config):
        kappa = -0.0888889
        st_ = gb.EquilibriumState(np.zeros(200), np.full(200, kappa))
        w = gb.deflection(st_, paper_config)
        # w'' = -kappa constant integrates to -kappa l^2 / 2 at the tip
        assert w[-1] == pytest.approx(-kappa * 20.0**2 / 2.0, rel=1e-12)

    def test_second_order_convergence(self, uniform_load):
        # parabolic-moment tip deflection: w(l) = 3 p l^4 / (2 E h^3);
        # compare against the exact value at two resolutions
        h = 0.3
        exact = 1.5 * 0.02 * 20.0**4 / (1.0e5 * h**3)
        errs = []
        for n in (50, 100):
            config = gb.BeamConfig(20.0, 1.0e5, n)
            h0 = gb.HeightField.constant(config, h)
            st_ = equilibrium_bare(config, uniform_load, h0)
            w = gb.deflection(st_, config)
            errs.append(abs(w[-1] - exact))
        assert errs[1] <= errs[0] / 3.2  # ~4x for a second-order scheme


class TestLayerStack:
    def test_monotonicity_enforced(self, paper_config):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        h1 = gb.HeightField.constant(paper_config, 0.2)
        with pytest.raises(DomainError):
            gb.LayerStack((h0, h1), (gb.PrestrainPair(),))
        gb.LayerStack((h0, h1), (gb.PrestrainPair(),), ablation=True)

    def test_prestrain_count(self, paper_config):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        with pytest.raises(DomainError):
            gb.LayerStack((h0,), (gb.PrestrainPair(),))

    def test_ablation_segments_replay(self):
        config = gb.BeamConfig(length=1.0, young_modulus=1.0, n_cells=1)
        fields = [gb.HeightField(np.array([v])) for v in (0.3, 0.5, 0.35, 0.45)]
        pres = (gb.PrestrainPair(0.01, 0.0), gb.PrestrainPair(0.02, 0.0),
                gb.PrestrainPair(0.03, 0.0))
        stack = gb.LayerStack(tuple(fields), pres, ablation=True)
        tops, eps, _ = stack.segments()
        widths = np.diff(tops, axis=0, prepend=0)[:, 0]
        # base [0,0.3]; layer1 trimmed to [0.3,0.35]; layer2 ablated away;
        # layer3 fills [0.35,0.45]
        np.testing.assert_allclose(widths, [0.3, 0.05, 0.0, 0.1], atol=1e-15)
        assert list(eps) == [0.0, 0.01, 0.02, 0.03]

    @staticmethod
    def ablation_stack(rng, n_cells, n_layers):
        """Random ablation history whose layers cut into row 0, keep zero
        width, or end exactly at an earlier layer's height."""
        heights = [rng.uniform(0.2, 0.5, size=n_cells)]
        for _ in range(n_layers):
            prev = heights[-1]
            earlier = np.array(heights)[rng.integers(0, len(heights), size=n_cells),
                                        range(n_cells)]
            moves = (np.maximum(prev + rng.uniform(-0.4, 0.3, size=n_cells), 0.01),
                     prev, earlier)
            heights.append(np.choose(rng.integers(0, 3, size=n_cells), moves))
        # distinct prestrains, so each layer's pair names its row
        pres = tuple(gb.PrestrainPair(0.01 * k, -0.02 * k) for k in range(1, n_layers + 1))
        return gb.LayerStack(tuple(map(gb.HeightField, heights)), pres, ablation=True)

    def test_segments_match_deposit_replay(self, rng):
        # each row's top is the replay's y_hi bit for bit, and the row below
        # it the replay's y_lo; Layers.deposit chained from the initial height
        # builds the same history
        for _ in range(20):
            stack = self.ablation_stack(rng, 40, int(rng.integers(1, 8)))
            history = stack.segments()
            chained = gb.LayerStack(stack.heights[:1], (), ablation=True).segments()
            for h, pre in zip(stack.heights[1:], stack.prestrains):
                chained = chained.deposit(h.values, pre)
            assert isinstance(chained, Layers)
            for carried, replayed in zip(chained, history, strict=True):
                np.testing.assert_array_equal(carried, replayed)
            tops, eps, kap = history
            y_lo, y_hi, eps_replay, kap_replay = segments_replay(stack)
            assert np.any(y_hi[0] < stack.heights[0].values)        # cut into row 0
            assert np.any(y_hi == y_lo) and np.any(y_hi > y_lo)
            np.testing.assert_array_equal(tops, y_hi)
            np.testing.assert_array_equal(np.vstack((np.zeros(40), tops[:-1])), y_lo)
            np.testing.assert_array_equal(eps, eps_replay)
            np.testing.assert_array_equal(kap, kap_replay)

    def test_trim_matches_deposit_replay(self, rng):
        # cut at random heights and at exact layer tops: the integrals and
        # the owning layer of the replay's segments (y_lo, y_hi]
        for _ in range(20):
            stack = self.ablation_stack(rng, 40, int(rng.integers(1, 8)))
            history = stack.segments()
            y_lo, y_hi, eps, kap = segments_replay(stack)
            exact = y_hi[rng.integers(0, len(y_hi), size=40), range(40)]
            h = np.where(rng.random(40) < 0.5, exact,
                         rng.uniform(0.001, 1.0, size=40) * y_hi[-1])
            cells = h < y_hi[-1]
            hc = h[cells]
            assert np.any(hc == exact[cells])
            a, b, eps_top, kap_top = history.trim(hc, cells)
            want_a, want_b = segment_integrals(np.minimum(y_lo[:, cells], hc),
                                               np.minimum(y_hi[:, cells], hc), eps, kap)
            np.testing.assert_array_equal(a, want_a)
            np.testing.assert_array_equal(b, want_b)
            row = owner_row(y_lo[:, cells], y_hi[:, cells], hc)
            np.testing.assert_array_equal(eps_top, eps[row])
            np.testing.assert_array_equal(kap_top, kap[row])


@settings(max_examples=60, deadline=None)
@given(h0=st.floats(0.05, 1.0), extra=st.floats(0.0, 1.0),
       eps_p=st.floats(-0.05, 0.05), kappa_p=st.floats(-0.2, 0.2),
       m=st.floats(-50.0, 50.0))
def test_one_layer_general_agreement_property(h0, extra, eps_p, kappa_p, m):
    config = gb.BeamConfig(length=5.0, young_modulus=1.0e5, n_cells=1)
    load = gb.LoadCase(gb.LoadKind.MOMENT, m)
    f0 = gb.HeightField.constant(config, h0)
    f1 = gb.HeightField.constant(config, h0 + extra)
    pre = gb.PrestrainPair(eps_p, kappa_p)
    a = equilibrium_one_layer(config, load, f0, f1, pre)
    b = gb.equilibrium_general(config, load, gb.LayerStack((f0, f1), (pre,)))
    scale = abs(eps_p) + abs(kappa_p) + abs(m) / config.young_modulus / h0**2 + 1e-9
    assert abs(a.eps[0] - b.eps[0]) <= 1e-11 * scale
    assert abs(a.kappa[0] - b.kappa[0]) <= 1e-11 * scale / h0
