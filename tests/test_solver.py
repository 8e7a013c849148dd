import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growbeam as gb
from growbeam.compliance import ComplianceDensity
from growbeam.config import parse_config
from growbeam.errors import ConvergenceError, DomainError
from growbeam.solver import TOL_ACTIVE, _project_shift


def projection_bruteforce(z, lb, mass, delta):
    """QP oracle: enumerate all 2^N pinned sets and keep the feasible
    candidate closest to z."""
    n = len(z)
    target = mass / delta
    best = None
    for pinned in itertools.product([False, True], repeat=n):
        pinned = np.array(pinned)
        free = ~pinned
        h = lb.copy()
        if free.any():
            t = (z[free].sum() - (target - lb[pinned].sum())) / free.sum()
            h[free] = z[free] - t
            if np.any(h[free] < lb[free] - 1e-12):
                continue
        elif abs(lb.sum() - target) > 1e-12:
            continue
        dist = np.sum((h - z) ** 2)
        if best is None or dist < best[0] - 1e-15:
            best = (dist, h)
    return best[1]


def projection_sorted(z, lb, mass, delta, at_most=False, w=1.0):
    """Sort-based oracle (Duchi et al. 2008; Condat 2016) for the projection
    in the metric sum (h - z)^2 / w: h = lb + max(y - t w, 0) with the
    breakpoints y = z - lb.  The shift t is set by the largest k whose k-th
    largest ratio y / w stays above the shift that spreads the excess mass
    over the k largest, (sum y - excess) / sum w over them.  Under an
    at-most budget the shift is a nonnegative multiplier, so it is clipped
    at 0."""
    excess = mass / delta - lb.sum()
    if excess <= 0.0:
        return lb.copy()
    y = z - lb
    w = np.broadcast_to(w, y.shape)
    order = np.argsort(y / w)[::-1]
    shifts = (np.cumsum(y[order]) - excess) / np.cumsum(w[order])
    t = shifts[np.flatnonzero(y[order] / w[order] > shifts)[-1]]
    if at_most:
        t = max(t, 0.0)
    return lb + np.maximum(y - t * w, 0.0)


def assert_matches_oracle(z, lb, mass, delta, at_most=False, w=None):
    if at_most or w is not None:
        out, _ = _project_shift(z, lb, mass, delta, 1.0 if w is None else w, at_most)
    else:
        out, _ = _project_shift(z, lb, mass, delta)
    if at_most:
        assert delta * out.sum() <= mass * (1.0 + 1e-12)
    else:
        assert abs(delta * out.sum() - mass) <= 1e-12 * max(1.0, mass)
    np.testing.assert_allclose(
        out, projection_sorted(z, lb, mass, delta, at_most, 1.0 if w is None else w),
        rtol=1e-12)
    assert np.all(out >= lb)
    return out


def assert_warm_equals_cold(z, lb, mass, delta, w, at_most, starts):
    """``_project_shift`` from each start shift returns the cold start's h
    and t bit for bit."""
    h, t = _project_shift(z, lb, mass, delta, w, at_most)
    for t0 in starts:
        h_warm, t_warm = _project_shift(z, lb, mass, delta, w, at_most, t0=t0)
        assert t_warm == t, (t0, t_warm, t)
        np.testing.assert_array_equal(h_warm, h)


SIZES = [1, 2, 1000, 20_000]
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestProjection:
    def test_feasible_point_unchanged(self):
        z = np.array([0.4, 0.5, 0.6])
        lb = np.array([0.3, 0.3, 0.3])
        out = _project_shift(z, lb, 1.5, 1.0)[0]
        np.testing.assert_allclose(out, z, atol=1e-15)

    def test_reference_instance(self):
        out = _project_shift(np.array([0.5, 0.1]), np.array([0.3, 0.3]), 0.9, 1.0)[0]
        np.testing.assert_allclose(out, [0.6, 0.3], atol=1e-14)

    def test_matches_bruteforce(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            lb = rng.uniform(0.0, 1.0, size=n)
            z = rng.uniform(-1.0, 2.0, size=n)
            delta = float(rng.uniform(0.2, 2.0))
            mass = delta * (lb.sum() + float(rng.uniform(0.0, 2.0)))
            ours = _project_shift(z, lb, mass, delta)[0]
            ref = projection_bruteforce(z, lb, mass, delta)
            np.testing.assert_allclose(ours, ref, atol=1e-9)
            assert abs(delta * ours.sum() - mass) <= 1e-12 * max(1.0, mass)
            assert np.all(ours >= lb - 1e-12)

    def test_exact_mass_at_scale(self, rng):
        z = rng.uniform(0.0, 1.0, size=500)
        lb = np.full(500, 0.2)
        mass = 140.0
        out = _project_shift(z, lb, mass, 0.1)[0]
        assert abs(0.1 * out.sum() - mass) <= 1e-12 * mass

    @pytest.mark.parametrize("n", SIZES)
    def test_shift_is_exact(self, rng, n):
        for _ in range(5):
            lb = rng.uniform(0.1, 1.0, size=n)
            z = lb + rng.normal(0.0, 1.0, size=n)
            delta = 20.0 / n
            mass = delta * (lb.sum() + float(rng.uniform(0.1, 1.0)) * n)
            h, t = _project_shift(z, lb, mass, delta)
            assert np.array_equal(h, np.maximum(lb, z - t))
            # t solves the mass equation on its own free set
            free = h > lb
            t_free = (z[free].sum() - (mass / delta - lb[~free].sum())) / free.sum()
            assert abs(t - t_free) <= 4 * np.spacing(np.max(np.abs(z)))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("pinned", ["none", "half", "all_but_one"])
    def test_matches_sorted_oracle(self, rng, n, pinned):
        lb = rng.uniform(0.1, 1.0, size=n)
        y = rng.normal(0.0, 1.0, size=n)
        k = {"none": 0, "half": n // 2, "all_but_one": n - 1}[pinned]
        # unit weights (Euclidean, as a scalar and per cell) and the metric
        # weights of a Newton step
        for w in (1.0, np.ones(n), 10.0 ** rng.uniform(-3.0, 3.0, size=n)):
            # a shift between the k-th and (k+1)-th smallest ratio y / w pins
            # k cells; an at-most budget takes no negative shift and pins y <= 0
            order = np.sort(y / w)
            t = order[0] - 0.5 if k == 0 else 0.5 * (order[k - 1] + order[k])
            delta = 20.0 / n
            mass = delta * (lb.sum() + np.maximum(y - t * w, 0.0).sum())
            out = assert_matches_oracle(lb + y, lb, mass, delta, w=w)
            assert np.count_nonzero(out > lb) == n - k
            out = assert_matches_oracle(lb + y, lb, mass, delta, at_most=True, w=w)
            np.testing.assert_array_equal(out > lb, y > max(t, 0.0) * w)
            if np.ndim(w):
                starts = [t, 0.5 * (order[0] + t), order[-1] + 1.0]
                for at_most in (False, True):
                    assert_warm_equals_cold(lb + y, lb, mass, delta, w, at_most, starts)
                    if np.all(w == 1.0):
                        # the scalar 1.0 sums counts: the same bits as ones
                        for t0 in [None, *starts]:
                            h1, t1 = _project_shift(lb + y, lb, mass, delta, 1.0, at_most, t0)
                            hw, tw = _project_shift(lb + y, lb, mass, delta, w, at_most, t0)
                            assert t1 == tw and h1.tobytes() == hw.tobytes(), t0

    @pytest.mark.parametrize("n", SIZES[1:])
    @pytest.mark.parametrize("t", [0.5, 0.6])
    def test_matches_sorted_oracle_with_ties(self, rng, n, t):
        lb = np.full(n, 0.5)
        y = 0.25 * rng.integers(0, 5, size=n)     # breakpoints 0, 0.25, ..., 1
        y[:2] = 1.0
        mass = 0.5 * (lb.sum() + np.maximum(y - t, 0.0).sum())
        out = assert_matches_oracle(lb + y, lb, mass, 0.5)
        np.testing.assert_array_equal(out > lb, y > t)

    @pytest.mark.parametrize("n", SIZES[1:])
    @pytest.mark.parametrize("weights", ["heavy_tailed", "tied"])
    @pytest.mark.parametrize("at_most", [False, True])
    def test_warm_start_matches_cold_start(self, rng, n, weights, at_most):
        if weights == "heavy_tailed":
            # the metric weights 1/c'' reach 1e17 at the tip, where M -> 0
            lb = rng.uniform(0.1, 1.0, size=n)
            y = rng.normal(0.0, 1.0, size=n)
            w = 10.0 ** rng.uniform(-3.0, 17.0, size=n)
            delta = 20.0 / n
        else:
            # dyadic breakpoints shared by many cells keep every sum exact
            lb = np.full(n, 0.5)
            y = 0.25 * rng.integers(-2, 5, size=n)
            w = 2.0 ** rng.integers(-2, 3, size=n)
            y[:2], w[:2] = (1.0, -0.5), 1.0   # at least two breakpoints
            delta = 0.5
        ratios = np.unique(y / w)
        k = len(ratios) // 2
        # the root on a breakpoint (a tie in the tied case) and between two
        for root in (ratios[k], 0.5 * (ratios[k - 1] + ratios[k])):
            mass = delta * (lb.sum() + np.maximum(y - root * w, 0.0).sum())
            t = _project_shift(lb + y, lb, mass, delta, w, at_most)[1]
            starts = [t, t + 1e-9 * abs(t), t - 1e-9 * abs(t),
                      np.nextafter(t, np.inf), np.nextafter(t, -np.inf),
                      ratios[0], ratios[k // 2], ratios[-2], 0.0,
                      # no cell above it (zero slope), every cell above it
                      ratios[-1] + 1.0, ratios[0] - 1.0]
            assert_warm_equals_cold(lb + y, lb, mass, delta, w, at_most, starts)

    def test_warm_start_with_excess_below_rounding(self):
        # the Newton step from 0.5 lands on the shared ratio 1, where no cell
        # is above the shift; the cold start then pins every cell there
        z, lb, w = np.array([1.0, 1.0, 0.0]), np.zeros(3), np.ones(3)
        assert_warm_equals_cold(z, lb, 1e-20, 1.0, w, False, [0.5])

    @pytest.mark.parametrize("n", SIZES)
    def test_lower_bound_mass_returns_lb(self, rng, n):
        lb = rng.uniform(0.1, 1.0, size=n)
        z = lb + rng.normal(0.0, 1.0, size=n)
        out = assert_matches_oracle(z, lb, 0.5 * lb.sum(), 0.5)
        np.testing.assert_array_equal(out, lb)

    @pytest.mark.parametrize("n", SIZES)
    def test_feasible_point_unchanged_at_scale(self, rng, n):
        # dyadic values keep every sum exact, so z is feasible to the bit
        lb = rng.integers(1, 9, size=n) / 8.0
        z = lb + rng.integers(1, 65, size=n) / 64.0
        out = assert_matches_oracle(z, lb, 0.5 * z.sum(), 0.5)
        np.testing.assert_array_equal(out, z)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10_000))
def test_projection_optimality_property(n, seed):
    rng = np.random.default_rng(seed)
    lb = rng.uniform(0.0, 1.0, size=n)
    z = rng.uniform(-1.0, 2.0, size=n)
    mass = lb.sum() + float(rng.uniform(0.0, 1.5))
    h = _project_shift(z, lb, mass, 1.0)[0]
    # any random feasible point is no closer to z
    for _ in range(10):
        w = rng.uniform(0.0, 1.0, size=n)
        u = lb + (mass - lb.sum()) * w / max(w.sum(), 1e-12)
        assert np.sum((h - z) ** 2) <= np.sum((u - z) ** 2) + 1e-9


def run_config(text):
    rc = parse_config(text)
    return gb.run_growth(rc.beam_config(), rc.load_case(), rc.initial_height(),
                         rc.schedule(), rc.prestrains(), tau=rc.tau,
                         mass_mode=rc.mode(), ablation=rc.ablation,
                         options=rc.solver_options())


def test_warm_started_run_matches_cold_started_run(monkeypatch):
    # baseline.cfg at N = 2e4, where the warm start saves most passes: the
    # run with every projection started cold gives the same bits
    text = (CONFIGS / "baseline.cfg").read_text() + "n_cells = 20000\n"

    def run():
        trace = run_config(text)
        return (np.array(trace.heights_by_step()), [r.lam for r in trace.records],
                [(r.iterations, r.backtracks) for r in trace.records])

    warm_starts = []

    def spy(z, lb, mass, delta, w=1.0, at_most=False, t0=None):
        warm_starts.append(t0)
        return project(z, lb, mass, delta, w, at_most, t0)

    def cold(z, lb, mass, delta, w=1.0, at_most=False, t0=None):
        return project(z, lb, mass, delta, w, at_most)

    project = gb.solver._project_shift
    monkeypatch.setattr(gb.solver, "_project_shift", spy)
    h, lam, iterations = run()
    assert any(t0 is not None for t0 in warm_starts)
    monkeypatch.setattr(gb.solver, "_project_shift", cold)
    h_cold, lam_cold, iterations_cold = run()
    np.testing.assert_array_equal(h, h_cold)
    np.testing.assert_array_equal(lam, lam_cold)
    assert iterations == iterations_cold


def baseline_problem(config, load, h_prev, mass, tau=math.inf,
                     mode=gb.MassMode.EQUALITY, lower=None):
    m = gb.bending_moment(load, config, config.x_centers)
    density = ComplianceDensity.baseline(config.young_modulus, m)
    return gb.StepProblem(density=density, h_prev=h_prev, mass_target=mass,
                          tau=tau, mass_mode=mode,
                          lower_bound=lower or h_prev, config=config)


class TestMinimizeStep:
    def test_matches_analytic_first_step(self, paper_config, uniform_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        sol = gb.minimize_step(baseline_problem(paper_config, uniform_load, h0, 7.5))
        ana = gb.solve_baseline_first(paper_config, 0.02, 0.3, 7.5)
        assert np.max(np.abs(sol.h.values - ana.h.values)) <= 1e-3 * 0.3
        assert sol.lam == pytest.approx(ana.lam, rel=1e-4)

    @pytest.mark.parametrize("pre", [gb.PrestrainPair(0.01, 0.0),
                                     gb.PrestrainPair(0.0, 0.05),
                                     gb.PrestrainPair(0.0, -0.05)])
    def test_constant_moment_growth_is_uniform(self, paper_config, moment_load, pre):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        m = gb.bending_moment(moment_load, paper_config, paper_config.x_centers)
        if pre.kappa_p == 0.0:
            density = ComplianceDensity.const_prestrain(1.0e5, m, h0.values, pre.eps_p)
        else:
            density = ComplianceDensity.const_precurv_first(1.0e5, m, h0.values,
                                                            pre.kappa_p)
        problem = gb.StepProblem(density=density, h_prev=h0, mass_target=6.6,
                                 tau=0.01, mass_mode=gb.MassMode.EQUALITY,
                                 lower_bound=h0, config=paper_config)
        sol = gb.minimize_step(problem)
        assert float(np.ptp(sol.h.values)) <= 1e-6

    def test_inequality_refuses_harmful_material(self, paper_config, moment_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        m = gb.bending_moment(moment_load, paper_config, paper_config.x_centers)
        density = ComplianceDensity.const_prestrain(1.0e5, m, h0.values, -0.01)
        problem = gb.StepProblem(density=density, h_prev=h0, mass_target=6.6,
                                 tau=0.01, mass_mode=gb.MassMode.INEQUALITY,
                                 lower_bound=h0, config=paper_config)
        sol = gb.minimize_step(problem)
        added = paper_config.delta * float(np.sum(sol.h.values - h0.values))
        assert added <= 1e-6
        assert sol.lam == 0.0
        # mass-budget complementarity with a slack constraint
        assert sol.lam * (6.6 - sol.h.mass(paper_config)) <= 1e-8

    def test_inequality_binds_when_material_helps(self, paper_config, uniform_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        sol = gb.minimize_step(baseline_problem(paper_config, uniform_load, h0, 7.5,
                                                mode=gb.MassMode.INEQUALITY))
        assert sol.h.mass(paper_config) == pytest.approx(7.5, rel=1e-12)
        assert sol.lam > 0.0
        assert abs(sol.lam * (7.5 - sol.h.mass(paper_config))) <= 1e-8

    def test_feasibility_and_complementarity(self, paper_config, uniform_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        problem = baseline_problem(paper_config, uniform_load, h0, 7.5)
        sol = gb.minimize_step(problem)
        assert abs(sol.h.mass(paper_config) - 7.5) <= 1e-10 * 7.5
        assert np.all(sol.h.values >= h0.values - 1e-12)
        # the bound multiplier mu = c'(h) + lam of a pinned cell is >= 0: it
        # would not gain by growing
        pinned = ~(sol.h.values > h0.values + TOL_ACTIVE)
        assert np.any(pinned)
        grad = problem.density.derivative(sol.h.values)
        assert np.all(grad[pinned] + sol.lam >= -1e-8)

    def test_monotone_descent(self, paper_config, uniform_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        problem = baseline_problem(paper_config, uniform_load, h0, 7.5)
        converged = gb.minimize_step(problem)
        assert converged.iterations >= 3
        # the objective after k iterations is the best iterate of a run
        # capped at max_iter = k
        hist = []
        for k in range(1, converged.iterations):
            with pytest.raises(ConvergenceError) as err:
                gb.minimize_step(problem, gb.SolverOptions(max_iter=k))
            hist.append(err.value.best.objective)
        hist = np.array(hist + [converged.objective])
        tol = 16 * np.finfo(float).eps * np.maximum(1.0, np.abs(hist[:-1]))
        assert np.all(np.diff(hist) <= tol)

    def test_degenerate_zero_increment(self, paper_config, uniform_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        sol = gb.minimize_step(baseline_problem(paper_config, uniform_load, h0, 6.0))
        np.testing.assert_array_equal(sol.h.values, h0.values)
        assert sol.degenerate
        assert sol.kkt_residual == 0.0

    def test_degenerate_at_most_budget(self, paper_config, uniform_load, moment_load):
        # material helps under a uniform load: the budget binds at h0 and
        # lam is the largest marginal gain
        h0 = gb.HeightField.constant(paper_config, 0.3)
        problem = baseline_problem(paper_config, uniform_load, h0, 6.0,
                                   mode=gb.MassMode.INEQUALITY)
        sol = gb.minimize_step(problem)
        assert sol.degenerate
        np.testing.assert_array_equal(sol.h.values, h0.values)
        lam = -float(np.min(problem.density.derivative(h0.values)))
        assert lam > 0.0
        assert abs(sol.lam - lam) <= np.spacing(lam)
        # a negative prestrain under a constant moment makes material
        # harmful: the budget stays slack and lam = 0
        m = gb.bending_moment(moment_load, paper_config, paper_config.x_centers)
        density = ComplianceDensity.const_prestrain(1.0e5, m, h0.values, -0.01)
        problem = gb.StepProblem(density=density, h_prev=h0, mass_target=6.0,
                                 tau=0.01, mass_mode=gb.MassMode.INEQUALITY,
                                 lower_bound=h0, config=paper_config)
        sol = gb.minimize_step(problem)
        assert sol.degenerate
        assert sol.lam == 0.0

    def test_convergence_error_carries_best(self, paper_config, uniform_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        opts = gb.SolverOptions(max_iter=2, tol_kkt=1e-14)
        with pytest.raises(ConvergenceError) as err:
            gb.minimize_step(baseline_problem(paper_config, uniform_load, h0, 7.5), opts)
        best = err.value.best
        assert best is not None
        assert abs(best.h.mass(paper_config) - 7.5) <= 1e-10 * 7.5

    def test_proximal_selects_nearest_minimizer(self, moment_load):
        # two cells, concave compliance along the mass-constrained segment:
        # the compliance part has two symmetric minimizers at the segment
        # endpoints; the proximal term picks the one nearer to h_prev.
        config = gb.BeamConfig(length=2.0, young_modulus=1.0e5, n_cells=2)
        lb = gb.HeightField(np.array([0.3, 0.3]))
        h_prev = gb.HeightField(np.array([0.33, 0.30]))
        m = gb.bending_moment(moment_load, config, config.x_centers)
        density = ComplianceDensity.const_prestrain(1.0e5, m, 0.3, -0.01)
        mass = 0.70  # h1 + h2 = 0.70, endpoints (0.40, 0.30) and (0.30, 0.40)
        c_end = density.value(np.array([0.40, 0.30])).sum()
        c_swap = density.value(np.array([0.30, 0.40])).sum()
        assert c_end == pytest.approx(c_swap, rel=1e-12)
        mid = density.value(np.array([0.35, 0.35])).sum()
        assert mid > c_end  # concave along the segment: endpoints win
        problem = gb.StepProblem(density=density, h_prev=h_prev, mass_target=mass,
                                 tau=0.005, mass_mode=gb.MassMode.EQUALITY,
                                 lower_bound=lb, config=config)
        sol = gb.minimize_step(problem)
        a = np.array([0.40, 0.30])
        b = np.array([0.30, 0.40])
        dist_a = np.linalg.norm(sol.h.values - a)
        dist_b = np.linalg.norm(sol.h.values - b)
        assert dist_a < dist_b

    def test_small_instance_bruteforce(self, uniform_load):
        # exhaustive search over the exact-mass lattice (pitch 1e-3)
        config = gb.BeamConfig(length=3.0, young_modulus=1.0e5, n_cells=4)
        h0 = gb.HeightField.constant(config, 0.3)
        pitch = 1e-3
        budget = 40  # total added height in pitch units
        mass = config.delta * (4 * 0.3 + budget * pitch)
        sol = gb.minimize_step(baseline_problem(config, uniform_load, h0, mass))
        m = gb.bending_moment(uniform_load, config, config.x_centers)

        def objective(h):
            return config.delta * np.sum(12.0 * m**2 / (1.0e5 * h**3))

        best_obj = np.inf
        best_h = None
        for combo in itertools.product(range(budget + 1), repeat=3):
            rest = budget - sum(combo)
            if rest < 0:
                continue
            h = 0.3 + pitch * np.array([*combo, rest], dtype=float)
            val = objective(h)
            if val < best_obj:
                best_obj, best_h = val, h
        assert sol.objective <= best_obj + 1e-6
        assert np.max(np.abs(sol.h.values - best_h)) <= pitch

    def test_strict_convexity_restored_by_tau(self):
        # c'' >= E eps_p^2 min f'' / h0 = -0.89 * 10 / 0.3; 1/tau = 100 wins
        hbar = np.linspace(1.0, 6.0, 4001)
        c2 = 1.0e5 * 1e-4 * gb.f_second(20.0 / (1.0e5 * 0.09 * -0.01), hbar) / 0.3
        assert c2.min() == pytest.approx(-0.8889 * 10.0 / 0.3, rel=1e-3)
        assert c2.min() + 1.0 / 0.01 > 0.0


class TestKKTResidual:
    def test_analytic_baseline_certificate(self, paper_config, uniform_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        ana = gb.solve_baseline_first(paper_config, 0.02, 0.3, 7.5)
        problem = baseline_problem(paper_config, uniform_load, h0, 7.5)
        assert gb.kkt_residual(problem, ana.h, ana.lam) <= 1e-9
        assert ana.lam == pytest.approx(0.044444, rel=1e-4)

    def test_empty_growth_set_is_zero(self, paper_config, uniform_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        problem = baseline_problem(paper_config, uniform_load, h0, 7.5)
        assert gb.kkt_residual(problem, h0, 123.456) == 0.0

    def test_bound_cells_need_a_nonnegative_multiplier(self, paper_config, uniform_load):
        # every cell sits at its bound h0 and wants to grow: at lam = 0 the
        # bound multipliers c'(h0) + lam are all negative, so h0 is no KKT
        # point, and the residual is the largest violation
        h0 = gb.HeightField.constant(paper_config, 0.3)
        problem = baseline_problem(paper_config, uniform_load, h0, 7.5)
        violation = float(np.max(-problem.density.derivative(h0.values)))
        assert gb.kkt_residual(problem, h0, 0.0) == violation
        assert violation == pytest.approx(0.7040266, rel=1e-7)

    def test_every_cell_free(self, paper_config, uniform_load):
        # no cell at its bound: the residual is max |c'(h) + lam| alone
        h0 = gb.HeightField.constant(paper_config, 0.3)
        problem = baseline_problem(paper_config, uniform_load, h0, 7.5)
        h = np.full(paper_config.n_cells, 0.4)
        want = float(np.max(np.abs(problem.density.derivative(h) + 0.01)))
        assert gb.kkt_residual(problem, h, 0.01) == want > 0.0

    def test_perturbation_increases_residual(self, paper_config, uniform_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        ana = gb.solve_baseline_first(paper_config, 0.02, 0.3, 7.5)
        problem = baseline_problem(paper_config, uniform_load, h0, 7.5)
        base = gb.kkt_residual(problem, ana.h, ana.lam)
        bumped = ana.h.values.copy()
        j = int(np.nonzero(ana.growth_set)[0][0])
        bumped[j] += 1e-3
        assert gb.kkt_residual(problem, gb.HeightField(bumped), ana.lam) > base


class TestStepProblemValidation:
    def test_mass_below_lower_bound(self, paper_config, uniform_load):
        # an at-most budget below the bound's mass leaves no feasible point either
        h0 = gb.HeightField.constant(paper_config, 0.3)
        for mode in gb.MassMode:
            with pytest.raises(DomainError, match="below the lower-bound mass"):
                baseline_problem(paper_config, uniform_load, h0, 5.0, mode=mode)

    @pytest.mark.parametrize("mass", [math.inf, math.nan])
    def test_non_finite_mass_target(self, paper_config, uniform_load, mass):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        with pytest.raises(DomainError):
            baseline_problem(paper_config, uniform_load, h0, mass)

    def test_nonpositive_tau(self, paper_config, uniform_load):
        h0 = gb.HeightField.constant(paper_config, 0.3)
        with pytest.raises(DomainError, match="tau must be positive"):
            baseline_problem(paper_config, uniform_load, h0, 7.5, tau=0.0)


def recorded_iterations(text):
    """Iterations of each step of a config's run, as its records carry them."""
    return [r.iterations for r in run_config(text).records]


class TestIterationCounts:
    @pytest.mark.parametrize("name", ["baseline", "parabolic_kappa_plus"])
    def test_mesh_independent(self, name):
        # measured totals at N = 200 / 2e3 / 2e4: 38 / 41 / 41 and 27 / 27 / 27
        text = (CONFIGS / f"{name}.cfg").read_text()
        totals = [sum(recorded_iterations(text + f"n_cells = {n}\n"))
                  for n in (200, 2000, 20_000)]
        assert min(totals) > 0
        assert max(totals) <= 1.1 * min(totals), totals

    def test_flat_over_a_long_run(self):
        # a long constant-moment run: the later steps take no more iterations
        counts = recorded_iterations("load.kind = moment\nload.value = 20\nsteps = 200\n"
                                     "mass.increment = 0.6\nprestrain.eps = 0.01\n"
                                     "n_cells = 500\n")
        assert max(counts[100:]) <= max(counts[:100]), counts

    @pytest.mark.parametrize("name", ["baseline", "parabolic_kappa_plus"])
    def test_replayed_steps_match_records(self, name):
        # the solver is deterministic: each recorded step's problem, solved
        # again, gives the recorded bits and counters
        text = (CONFIGS / f"{name}.cfg").read_text()
        options = parse_config(text).solver_options()
        trace = run_config(text)
        for record, problem in zip(trace.records, trace.problems):
            sol = gb.minimize_step(problem, options)
            np.testing.assert_array_equal(sol.h.values, record.h.values)
            assert sol.lam == record.lam
            assert (sol.iterations, sol.backtracks) == (record.iterations, record.backtracks)

    def test_counters_add_up_to_projection_calls(self, monkeypatch):
        # a step of an equality run projects once to start, once per
        # iteration and once per backtrack; this run's steps backtrack 4, 1
        # and 0 times
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return project(*args, **kwargs)

        project = gb.solver._project_shift
        monkeypatch.setattr(gb.solver, "_project_shift", counted)
        trace = run_config("load.kind = uniform\nload.value = 0.02\nsteps = 3\n"
                           "mass.increment = 3.0\nprestrain.eps = 0.01\nn_cells = 100\n")
        assert any(r.backtracks for r in trace.records)
        assert len(calls) == sum(1 + r.iterations + r.backtracks for r in trace.records)
