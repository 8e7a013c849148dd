import math

import numpy as np
import pytest

import growbeam as gb
from growbeam.errors import ConvergenceError, DomainError
from growbeam.beam import prestress_section_integrals
from growbeam.growth import ABLATION_FLOOR_FRACTION, _Section


class TestMassSchedule:
    def test_affine_targets(self):
        sched = gb.MassSchedule.affine(0.6)
        np.testing.assert_allclose(sched.targets(6.0, 3), [6.6, 7.2, 7.8])

    def test_explicit_targets(self):
        sched = gb.MassSchedule.explicit([6.5, 7.0, 9.0])
        np.testing.assert_allclose(sched.targets(6.0, 3), [6.5, 7.0, 9.0])

    def test_explicit_wrong_length(self):
        with pytest.raises(DomainError):
            gb.MassSchedule.explicit([6.5, 7.0]).targets(6.0, 3)

    def test_decreasing_rejected(self):
        with pytest.raises(DomainError):
            gb.MassSchedule.explicit([7.0, 6.5])
        with pytest.raises(DomainError):
            gb.MassSchedule.affine(-0.1)

    @pytest.mark.parametrize("kwargs", [{}, {"increment": 1.0, "values": (7.0, 8.0)},
                                        {"increment": -0.1}, {"values": (7.0, 6.5)}],
                             ids=["neither", "both", "negative", "decreasing"])
    def test_constructor_checks(self, kwargs):
        # the constructor refuses what affine and explicit refuse: a negative
        # increment would remove mass under ablation
        with pytest.raises(DomainError):
            gb.MassSchedule(**kwargs)


@pytest.fixture(scope="module")
def trace():
    config = gb.BeamConfig(20.0, 1.0e5, 100)
    load = gb.LoadCase(gb.LoadKind.UNIFORM, 0.02)
    return config, load, gb.run_growth(config, load, 0.3,
                                       gb.MassSchedule.affine(0.6),
                                       [gb.PrestrainPair()] * 10, tau=math.inf)


class TestBaselineRun:
    def test_matches_analytic_per_step(self, trace):
        config, load, tr = trace
        h_prev = gb.HeightField.constant(config, 0.3)
        for record in tr.records:
            ana = gb.solve_baseline_step(config, load, h_prev, record.mass)
            assert np.max(np.abs(ana.h.values - record.h.values)) <= 1e-3 * 0.3
            h_prev = record.h

    def test_affine_then_unchanged_shape(self, trace):
        # on the growth region the profile is affine in x; beyond it the
        # previous profile survives untouched
        config, load, tr = trace
        h = tr.records[-1].h.values
        xc = config.x_centers
        grown = h > 0.3 + 1e-9
        on = np.nonzero(grown)[0]
        slopes = np.diff(h[on]) / np.diff(xc[on])
        assert np.max(np.abs(slopes - slopes[0])) <= 1e-4 * abs(slopes[0])
        assert np.all(h[~grown] == 0.3)

    def test_compliance_strictly_decreasing(self, trace):
        _, _, tr = trace
        comps = [tr.initial_compliance] + [r.compliance for r in tr.records]
        assert all(b < a for a, b in zip(comps, comps[1:]))

    def test_mass_accounting(self, trace):
        config, _, tr = trace
        targets = gb.MassSchedule.affine(0.6).targets(6.0, 10)
        for record, m_i in zip(tr.records, targets):
            assert abs(record.mass - m_i) <= 1e-10 * m_i

    def test_irreversibility(self, trace):
        _, _, tr = trace
        prev = tr.h0.values
        for record in tr.records:
            assert np.all(record.h.values >= prev - 1e-12)
            prev = record.h.values

    def test_stationarity_report(self, trace):
        _, _, tr = trace
        residuals = [r.kkt_residual for r in tr.records]
        assert len(residuals) == 10
        assert max(residuals) <= 1e-8


class TestResidualScaling:
    def test_residual_tracks_tolerance(self):
        config = gb.BeamConfig(20.0, 1.0e5, 50)
        load = gb.LoadCase(gb.LoadKind.UNIFORM, 0.02)
        maxres = []
        for tol in (1e-6, 1e-7, 1e-8):
            tr = gb.run_growth(config, load, 0.3, gb.MassSchedule.affine(0.6),
                               [gb.PrestrainPair()] * 3, tau=math.inf,
                               options=gb.SolverOptions(tol_kkt=tol))
            res = max(r.kkt_residual for r in tr.records)
            assert res <= tol
            maxres.append(res)
        assert maxres[2] <= maxres[0]

    def test_barely_convex_step_converges(self, uniform_load):
        # step 2 has min(c'' + 1/tau) = 0.098 against 1/tau = 10: a gradient
        # step crawls there, a step scaled by the curvature does not
        tr = gb.run_growth(gb.BeamConfig(20.0, 1.0e5, 40), uniform_load, 0.3,
                           gb.MassSchedule.affine(0.4),
                           [gb.PrestrainPair(-0.01, 0.02)] * 2, tau=0.1,
                           options=gb.SolverOptions(max_iter=50))
        assert max(r.kkt_residual for r in tr.records) <= 1e-8

    def test_full_step_within_rounding_is_taken(self, uniform_load):
        # near the solution the objective change of a full step is rounding;
        # held to the Armijo test, the step would end there short of tol_kkt
        tr = gb.run_growth(gb.BeamConfig(20.0, 1.0e5, 10), uniform_load, 0.3,
                           gb.MassSchedule.affine(0.2),
                           [gb.PrestrainPair(0.01, 0.0)] * 3, tau=0.1,
                           mass_mode=gb.MassMode.INEQUALITY)
        assert max(r.kkt_residual for r in tr.records) <= 1e-8


class TestConstantMomentRuns:
    @pytest.mark.parametrize("pre", [gb.PrestrainPair(0.01, 0.0),
                                     gb.PrestrainPair(0.0, 0.05),
                                     gb.PrestrainPair(0.0, -0.05)])
    @pytest.mark.parametrize("tau", [math.inf, 0.01])
    def test_uniform_growth(self, paper_config, moment_load, pre, tau):
        tr = gb.run_growth(paper_config, moment_load, 0.3,
                           gb.MassSchedule.affine(0.6), [pre] * 10, tau=tau)
        for record in tr.records:
            assert float(np.ptp(record.h.values)) <= 1e-6

    def test_zero_increment_pins_profile(self, paper_config, moment_load):
        tr = gb.run_growth(paper_config, moment_load, 0.3,
                           gb.MassSchedule.affine(0.0),
                           [gb.PrestrainPair(0.01, 0.0)] * 4, tau=math.inf)
        for record in tr.records:
            np.testing.assert_array_equal(record.h.values, 0.3)
            assert record.degenerate
        # empty growth sets give zero residuals by convention
        assert [r.kkt_residual for r in tr.records] == [0.0] * 4

    def test_inequality_never_absorbs_harmful_material(self, paper_config, moment_load):
        tr = gb.run_growth(paper_config, moment_load, 0.3,
                           gb.MassSchedule.affine(0.6),
                           [gb.PrestrainPair(-0.01, 0.0)] * 5, tau=0.01,
                           mass_mode=gb.MassMode.INEQUALITY)
        added = tr.records[-1].mass - tr.initial_mass
        assert added <= 1e-6
        for record, m_i in zip(tr.records, gb.MassSchedule.affine(0.6).targets(6.0, 5)):
            assert record.mass <= m_i * (1 + 1e-10)

    def test_tau_suppresses_localization(self, paper_config, moment_load):
        dm = 0.6
        tr = gb.run_growth(paper_config, moment_load, 0.3,
                           gb.MassSchedule.affine(dm),
                           [gb.PrestrainPair(-0.01, 0.0)] * 10, tau=0.01)
        uniform_increment = dm / paper_config.length
        for record in tr.records:
            assert record.max_increment <= 5.0 * uniform_increment


class TestAblation:
    def test_redistribution_at_constant_mass(self, paper_config, uniform_load):
        tr = gb.run_growth(paper_config, uniform_load, 0.3,
                           gb.MassSchedule.affine(0.0), [gb.PrestrainPair()],
                           tau=math.inf, ablation=True)
        record = tr.records[0]
        floor = ABLATION_FLOOR_FRACTION * 0.3
        assert np.all(record.h.values >= floor - 1e-12)
        assert record.mass == pytest.approx(6.0, rel=1e-10)
        assert record.compliance < tr.initial_compliance
        # taller near the clamp, ablated toward the tip
        assert record.h.values[0] > 0.3 > record.h.values[-1]

    def test_trace_allows_decreasing_heights(self, paper_config, uniform_load):
        tr = gb.run_growth(paper_config, uniform_load, 0.3,
                           gb.MassSchedule.affine(0.0), [gb.PrestrainPair()],
                           tau=math.inf, ablation=True)
        assert np.any(tr.records[0].h.values < 0.3)

    def test_redistribution_with_prestrained_deposits(self, paper_config, uniform_load):
        # nonzero prestrain exercises both derivative branches (deposit above
        # h_prev near the clamp, removal below it near the tip)
        tr = gb.run_growth(paper_config, uniform_load, 0.3,
                           gb.MassSchedule.affine(0.0),
                           [gb.PrestrainPair(0.01, 0.0)] * 2, tau=0.1,
                           ablation=True)
        last = tr.records[-1]
        assert last.mass == pytest.approx(6.0, rel=1e-10)
        assert np.any(last.h.values < 0.3) and np.any(last.h.values > 0.3)
        assert last.compliance < tr.initial_compliance
        assert max(r.kkt_residual for r in tr.records) <= 1e-8


class TestFailurePaths:
    def test_partial_trace_attached(self, paper_config, uniform_load):
        opts = gb.SolverOptions(max_iter=2, tol_kkt=1e-14)
        with pytest.raises(ConvergenceError) as err:
            gb.run_growth(paper_config, uniform_load, 0.3,
                          gb.MassSchedule.affine(0.6), [gb.PrestrainPair()] * 5,
                          tau=math.inf, options=opts)
        assert err.value.partial_trace is not None
        assert err.value.partial_trace.steps == 0

    @pytest.mark.parametrize("mode", list(gb.MassMode))
    def test_concave_ablation_kink_fails_fast(self, uniform_load, mode):
        # every kink at h_prev is convex (removal slope <= -1.7e-8 < 1.3e-3 <=
        # deposit slope), so h = h_prev is the exact minimiser, but the
        # certificate does not yet treat a cell at the kink as stationary:
        # the line search finds no decrease above rounding and says so at once
        with pytest.raises(ConvergenceError, match="did not reach") as err:
            gb.run_growth(gb.BeamConfig(20.0, 1.0e5, 40), uniform_load, 0.3,
                          gb.MassSchedule.affine(0.0),
                          [gb.PrestrainPair(-0.01, -0.02)] * 2, tau=0.1,
                          ablation=True, mass_mode=mode)
        assert err.value.best.iterations <= 5

    def test_rounding_floor_cycle_fails_fast(self, paper_config, uniform_load):
        # tol_kkt below what rounding reaches: the full steps are accepted
        # on the noise clause and the residual cycles at rounding level
        with pytest.raises(ConvergenceError, match="did not reach") as err:
            gb.run_growth(paper_config, uniform_load, 0.3,
                          gb.MassSchedule.affine(0.6), [gb.PrestrainPair()] * 3,
                          tau=math.inf, options=gb.SolverOptions(tol_kkt=1e-16))
        assert err.value.best.iterations <= 20

    def test_first_target_below_initial_mass(self, paper_config, uniform_load):
        with pytest.raises(DomainError):
            gb.run_growth(paper_config, uniform_load, 0.3,
                          gb.MassSchedule.explicit([5.0]), [gb.PrestrainPair()])

    def test_empty_prestrain_list(self, paper_config, uniform_load):
        with pytest.raises(DomainError):
            gb.run_growth(paper_config, uniform_load, 0.3,
                          gb.MassSchedule.affine(0.6), [])


class TestSectionState:
    def test_incremental_state_matches_replay(self, rng, uniform_load):
        # ten prestrained deposits carried as (A, R), and under ablation the
        # clipped tops too, against the full history replay through the
        # layer stack; ablating deposits also cut into earlier layers
        config = gb.BeamConfig(20.0, 1.0e5, 64)
        for ablation, cut in ((False, 0.0), (True, 0.2)):
            h = gb.HeightField(rng.uniform(0.1, 0.5, size=64))
            section = _Section(config, uniform_load, h, ablation=ablation)
            stack = gb.LayerStack((h,), (), ablation=ablation)
            for _ in range(10):
                pre = gb.PrestrainPair(float(rng.uniform(-0.05, 0.05)),
                                       float(rng.uniform(-0.2, 0.2)))
                # any budget above the bound's mass: only the density is used
                problem = section.problem(pre, 1e9, math.inf, gb.MassMode.INEQUALITY)
                h = gb.HeightField(np.maximum(
                    h.values + rng.uniform(-cut, 0.3, size=64), 0.01))
                section.deposit(problem.density, h, pre)
                stack = gb.LayerStack(stack.heights + (h,), stack.prestrains + (pre,),
                                      ablation=ablation)
            segments = stack.segments()
            if ablation:
                heights = np.array([f.values for f in stack.heights])
                assert np.any(np.diff(heights, axis=0) < 0)
                for carried, replayed in zip(section.history, segments, strict=True):
                    np.testing.assert_array_equal(carried, replayed)
            else:
                assert section.history is None
            a, b = prestress_section_integrals(*segments)
            r = b - section.moment / config.young_modulus
            np.testing.assert_allclose(section.a, a, rtol=1e-12,
                                       atol=1e-12 * float(np.max(np.abs(a))))
            np.testing.assert_allclose(section.r, r, rtol=1e-12,
                                       atol=1e-12 * float(np.max(np.abs(r))))

    def test_no_history_off_ablation(self, paper_config, moment_load):
        tr = gb.run_growth(paper_config, moment_load, 0.3,
                           gb.MassSchedule.affine(0.3),
                           [gb.PrestrainPair(0.01, 0.05)] * 3, tau=0.01)
        assert all(p.density.history is None for p in tr.problems)

    def test_problems_rebuilt_from_the_trace(self, paper_config, uniform_load):
        pres = [gb.PrestrainPair(0.01, 0.0), gb.PrestrainPair(0.0, 0.05),
                gb.PrestrainPair(-0.01, 0.02)]
        for mode in gb.MassMode:
            tr = gb.run_growth(paper_config, uniform_load, 0.3,
                               gb.MassSchedule.affine(0.4), pres, tau=0.01,
                               mass_mode=mode)
            problems = tr.problems
            assert [p.mass_target for p in problems] == pytest.approx([6.4, 6.8, 7.2])
            for record, problem in zip(tr.records, problems):
                assert gb.kkt_residual(problem, record.h, record.lam) == record.kkt_residual
                if mode is gb.MassMode.INEQUALITY:
                    assert record.lam >= 0.0
                    assert record.lam * (problem.mass_target - record.mass) <= 1e-8

    def test_ablation_optimizes_the_recorded_compliance(self, paper_config, uniform_load):
        # the step objective minus its proximal term is the compliance the
        # trace records, from the first step on; without the proximal term
        # the step must still converge at the kink of the ablation density
        for tau in (0.1, math.inf):
            tr = gb.run_growth(paper_config, uniform_load, 0.3,
                               gb.MassSchedule.affine(0.0),
                               [gb.PrestrainPair(0.01, 0.0)] * 2, tau=tau,
                               ablation=True, options=gb.SolverOptions(max_iter=50))
            for record, problem in zip(tr.records, tr.problems):
                prox = (paper_config.delta * 0.5 / tau
                        * float(np.sum((record.h.values - problem.h_prev.values) ** 2)))
                assert record.objective - prox == pytest.approx(record.compliance,
                                                                rel=1e-12)
