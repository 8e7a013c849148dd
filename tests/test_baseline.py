import itertools

import numpy as np
import pytest

import growbeam as gb
from growbeam.errors import DomainError
from tests.oracles import baseline_mass


class TestFirstStep:
    def test_canonical_instance(self, paper_config):
        sol = gb.solve_baseline_first(paper_config, 0.02, 0.3, 7.5)
        # slope factor (m1 + sqrt(m1^2 - m0^2)) / m0 = (7.5 + 4.5) / 6 = 2
        assert sol.h.values[0] == pytest.approx(2.0 * 0.3 * (20.0 - 0.05) / 20.0,
                                                rel=1e-13)
        assert sol.x_hat == pytest.approx(10.0, rel=1e-13)
        assert sol.lam == pytest.approx(0.044444, rel=1e-4)
        # mass of the continuous profile: slope * x_hat * (l - x_hat/2) piece
        # plus the untouched tail; the derivation imposes it to be m1
        slope = 2.0 * 0.3 / 20.0
        mass = slope * (20.0**2 - (20.0 - sol.x_hat) ** 2) / 2.0 + 0.3 * (20.0 - sol.x_hat)
        assert mass == pytest.approx(7.5, rel=1e-13)

    def test_discrete_mass_when_aligned(self, paper_config):
        # x_hat = 10 falls on a cell edge for N = 200, so the midpoint mass is exact
        sol = gb.solve_baseline_first(paper_config, 0.02, 0.3, 7.5)
        assert sol.h.mass(paper_config) == pytest.approx(7.5, rel=1e-13)

    def test_continuity_at_zero_added_mass(self, paper_config):
        sol = gb.solve_baseline_first(paper_config, 0.02, 0.3, 6.0 + 1e-10)
        assert sol.x_hat == pytest.approx(0.0, abs=1e-3)  # x_hat ~ sqrt(excess)
        assert np.max(np.abs(sol.h.values - 0.3)) <= 1e-5

    def test_no_growth_error(self, paper_config):
        with pytest.raises(DomainError, match="adds no mass over m0"):
            gb.solve_baseline_first(paper_config, 0.02, 0.3, 6.0)

    def test_zero_load_error(self, paper_config):
        with pytest.raises(DomainError):
            gb.solve_baseline_first(paper_config, 0.0, 0.3, 7.5)

    @pytest.mark.parametrize("h0", [0.0, -0.3])
    def test_height_not_positive(self, paper_config, h0):
        with pytest.raises(DomainError, match="h0 must be positive"):
            gb.solve_baseline_first(paper_config, 0.02, h0, 7.5)

    def test_growth_interval_is_prefix(self, paper_config):
        sol = gb.solve_baseline_first(paper_config, 0.02, 0.3, 7.5)
        g = sol.growth_set
        assert np.all(g[:100]) and not np.any(g[100:])


class TestStep:
    def test_growth_without_a_moment(self, paper_config):
        h_prev = gb.HeightField.constant(paper_config, 0.3)
        with pytest.raises(DomainError, match="zero bending moment everywhere"):
            gb.solve_baseline_step(paper_config, gb.LoadCase(gb.LoadKind.UNIFORM, 0.0),
                                   h_prev, 7.5)

    def test_agrees_with_first_step(self, paper_config, uniform_load):
        first = gb.solve_baseline_first(paper_config, 0.02, 0.3, 7.5)
        step = gb.solve_baseline_step(paper_config, uniform_load,
                                      gb.HeightField.constant(paper_config, 0.3), 7.5)
        assert np.max(np.abs(first.h.values - step.h.values)) <= 1e-10
        assert step.lam == pytest.approx(first.lam, rel=1e-10)

    def test_constant_moment_grows_uniformly(self, paper_config, moment_load):
        h_prev = gb.HeightField.constant(paper_config, 0.3)
        sol = gb.solve_baseline_step(paper_config, moment_load, h_prev, 8.0)
        np.testing.assert_allclose(sol.h.values, 8.0 / 20.0, rtol=1e-13)
        assert np.all(sol.growth_set)

    def test_kkt_certificate(self, paper_config, uniform_load, rng):
        h_prev = gb.HeightField(0.3 + 0.1 * rng.uniform(size=200))
        m_i = h_prev.mass(paper_config) + 1.0
        sol = gb.solve_baseline_step(paper_config, uniform_load, h_prev, m_i)
        m = gb.bending_moment(uniform_load, paper_config, paper_config.x_centers)
        e = paper_config.young_modulus
        grad_term = 36.0 * m**2 / (e * sol.h.values**4)
        on = sol.growth_set
        # stationarity on the growth set
        assert np.max(np.abs(grad_term[on] - sol.lam)) <= 1e-10 * max(1.0, sol.lam)
        # dual feasibility off it
        if np.any(~on):
            assert np.min(sol.lam - grad_term[~on]) >= -1e-10
        # complementarity by construction
        np.testing.assert_array_equal(sol.h.values[~on], h_prev.values[~on])
        # mass to near machine precision
        assert sol.h.mass(paper_config) == pytest.approx(m_i, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 20_000])
    def test_multiplier_exact_on_its_growth_set(self, rng, uniform_load, n):
        # (36 M^2/(E lam))^(1/4) on the growth set and h_prev off it meet the
        # mass target to rounding, for increments from 1e-12 to 10 times m
        config = gb.BeamConfig(20.0, 1.0e5, n)
        m = gb.bending_moment(uniform_load, config, config.x_centers)
        for _ in range(20):
            h_prev = gb.HeightField(rng.uniform(0.1, 0.6, size=n))
            m_i = h_prev.mass(config) * (1.0 + 10.0 ** rng.uniform(-12.0, 1.0))
            sol = gb.solve_baseline_step(config, uniform_load, h_prev, m_i)
            h = np.where(sol.growth_set, (36.0 * m**2 / (1.0e5 * sol.lam)) ** 0.25,
                         h_prev.values)
            assert abs(config.delta * float(np.sum(h)) - m_i) <= 1e-15 * m_i
            assert abs(sol.h.mass(config) - m_i) <= 1e-15 * m_i

    def test_growth_profile_affine_under_uniform_load(self, paper_config, uniform_load):
        sol = gb.solve_baseline_step(paper_config, uniform_load,
                                     gb.HeightField.constant(paper_config, 0.3), 9.0)
        xc = paper_config.x_centers
        on = np.nonzero(sol.growth_set)[0]
        i, j, k = on[0], on[len(on) // 2], on[-1]
        hi, hj, hk = sol.h.values[[i, j, k]]
        interp = hi + (hk - hi) * (xc[j] - xc[i]) / (xc[k] - xc[i])
        assert hj == pytest.approx(interp, rel=1e-10)

    def test_dual_mass_monotone(self, paper_config, uniform_load):
        h_prev = gb.HeightField.constant(paper_config, 0.3)
        lams = np.geomspace(1e-4, 1e2, 40)
        masses = [baseline_mass(paper_config, uniform_load, h_prev, lam)
                  for lam in lams]
        assert all(b < a + 1e-15 for a, b in zip(masses, masses[1:]))

    def test_two_steps_equal_one(self, paper_config, uniform_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        via = gb.solve_baseline_step(paper_config, uniform_load, h0, 7.5)
        two = gb.solve_baseline_step(paper_config, uniform_load, via.h, 9.0)
        one = gb.solve_baseline_step(paper_config, uniform_load, h0, 9.0)
        assert np.max(np.abs(two.h.values - one.h.values)) <= 1e-9

    def test_zero_added_mass(self, paper_config, uniform_load):
        h_prev = gb.HeightField.constant(paper_config, 0.3)
        sol = gb.solve_baseline_step(paper_config, uniform_load, h_prev, 6.0)
        np.testing.assert_array_equal(sol.h.values, h_prev.values)
        assert not np.any(sol.growth_set)

    def test_infeasible_mass(self, paper_config, uniform_load):
        with pytest.raises(DomainError, match="below the current mass"):
            gb.solve_baseline_step(paper_config, uniform_load,
                                   gb.HeightField.constant(paper_config, 0.3), 5.0)

    def test_extreme_targets_bracket_expansion(self, paper_config, uniform_load):
        h_prev = gb.HeightField.constant(paper_config, 0.3)
        big = gb.solve_baseline_step(paper_config, uniform_load, h_prev, 600.0)
        assert big.h.mass(paper_config) == pytest.approx(600.0, rel=1e-12)
        tiny = gb.solve_baseline_step(paper_config, uniform_load, h_prev, 6.0 + 1e-8)
        assert tiny.h.mass(paper_config) == pytest.approx(6.0 + 1e-8, rel=1e-12)

    def test_bruteforce_cannot_beat_analytic(self, uniform_load):
        config = gb.BeamConfig(length=3.0, young_modulus=1.0e5, n_cells=4)
        h_prev = gb.HeightField.constant(config, 0.3)
        pitch = 1e-3
        budget = 30
        m_i = config.delta * (1.2 + budget * pitch)
        sol = gb.solve_baseline_step(config, uniform_load, h_prev, m_i)
        m = gb.bending_moment(uniform_load, config, config.x_centers)

        def objective(h):
            return config.delta * np.sum(12.0 * m**2 / (1.0e5 * h**3))

        best = np.inf
        for combo in itertools.product(range(budget + 1), repeat=3):
            rest = budget - sum(combo)
            if rest < 0:
                continue
            h = 0.3 + pitch * np.array([*combo, rest], dtype=float)
            best = min(best, objective(h))
        assert objective(sol.h.values) <= best + 1e-6
