"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion on stdout.
"""

import math
import time

import numpy as np
import pytest

import growbeam as gb
from growbeam.cli import main as cli_main
from growbeam.compliance import ComplianceDensity
from tests.oracles import equilibrium_one_layer, g_second_raw

L, H0, E, P, M_CONST = 20.0, 0.3, 1.0e5, 0.02, 20.0


def check(cid, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid}: {status} - {description}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {cid} failed: {description} {detail}"


@pytest.fixture(scope="module")
def config200():
    return gb.BeamConfig(L, E, 200)


@pytest.fixture(scope="module")
def uniform():
    return gb.LoadCase(gb.LoadKind.UNIFORM, P)


@pytest.fixture(scope="module")
def moment():
    return gb.LoadCase(gb.LoadKind.MOMENT, M_CONST)


@pytest.fixture(scope="module")
def first_step(config200, uniform):
    """Criterion-1 solve, shared with the invariant suite."""
    h0 = gb.HeightField.constant(config200, H0)
    density = ComplianceDensity.baseline(
        E, gb.bending_moment(uniform, config200, config200.x_centers))
    problem = gb.StepProblem(density=density, h_prev=h0, mass_target=7.5,
                             tau=math.inf, mass_mode=gb.MassMode.EQUALITY,
                             lower_bound=h0, config=config200)
    t0 = time.perf_counter()
    sol = gb.minimize_step(problem)
    elapsed = time.perf_counter() - t0
    return problem, sol, elapsed


@pytest.fixture(scope="module")
def uniform_growth_runs(config200, moment):
    """Criterion-4 runs, Equality mode, both regularizations."""
    runs = {}
    for pre in (gb.PrestrainPair(0.01, 0.0), gb.PrestrainPair(0.0, 0.05),
                gb.PrestrainPair(0.0, -0.05)):
        for tau in (math.inf, 0.01):
            runs[(pre.eps_p, pre.kappa_p, tau)] = gb.run_growth(
                config200, moment, H0, gb.MassSchedule.affine(0.6), [pre] * 10,
                tau=tau)
    return runs


@pytest.fixture(scope="module")
def remark3_run(config200, moment):
    return gb.run_growth(config200, moment, H0, gb.MassSchedule.affine(0.6),
                         [gb.PrestrainPair(-0.01, 0.0)] * 5, tau=0.01,
                         mass_mode=gb.MassMode.INEQUALITY)


@pytest.fixture(scope="module")
def parabolic_runs(config200, uniform):
    """Qualitative-criterion runs: 3 steps of 0.8 dm^2 keep the profiles in
    the regime where the unregularized problem still has a smooth stationary
    point (total added mass below the first-branch capacity)."""
    runs = {}
    for eps in (0.01, -0.01):
        for tau in (math.inf, 0.01):
            runs[(eps, tau)] = gb.run_growth(
                config200, uniform, H0, gb.MassSchedule.affine(0.8),
                [gb.PrestrainPair(eps, 0.0)] * 3, tau=tau)
    return runs


def test_criterion_01_analytic_vs_numeric_first_step(config200, first_step):
    problem, sol, elapsed = first_step
    ana = gb.solve_baseline_first(config200, P, H0, 7.5)
    linf = float(np.max(np.abs(sol.h.values - ana.h.values)))
    lam_err = abs(sol.lam - 0.044444) / 0.044444
    grown = sol.h.values > H0 + 1e-6
    x_hat_num = config200.x_nodes[int(np.max(np.nonzero(grown)[0])) + 1]
    ok = (linf <= 1e-3 * H0 and lam_err <= 1e-4
          and abs(x_hat_num - 10.0) <= config200.delta and elapsed <= 5.0)
    check(1, "analytic-vs-numeric first step",
          ok, f"Linf={linf:.2e}, lam rel err={lam_err:.2e}, "
              f"x_hat={x_hat_num:.3f}, {elapsed:.2f}s")


def test_criterion_02_paper_convexity_numbers():
    eta_neg = M_CONST / (E * H0**2 * -0.01)
    eta_pos = M_CONST / (E * H0**2 * +0.01)
    v1 = gb.f_second(eta_neg, 1.0)
    v2 = gb.f_second(eta_pos, 2.56)
    ok = abs(v1 - (-0.89)) <= 0.01 and abs(v2 - (-0.05)) <= 0.005
    check(2, "f'' minima match the reported values", ok,
          f"f''(eta-,1)={v1:.4f}, f''(eta+,2.56)={v2:.4f}")


def test_criterion_03_g_convexity():
    rng = np.random.default_rng(3)
    mu = rng.uniform(-10.0, 10.0, size=100_000)
    hbar = rng.uniform(1.0, 10.0, size=100_000)
    stab = gb.g_second(mu, hbar)
    raw = g_second_raw(mu, hbar)
    rel = np.max(np.abs(stab - raw) / np.maximum(np.abs(stab), 1e-300))
    ok = bool(np.min(stab) > 0.0) and rel <= 1e-10
    check(3, "g'' positive on 1e5 samples; raw vs completed-square to 1e-10",
          ok, f"min g''={float(np.min(stab)):.3e}, max rel diff={rel:.2e}")


def test_criterion_04_uniform_growth_constant_moment(uniform_growth_runs):
    worst = 0.0
    for run in uniform_growth_runs.values():
        for record in run.records:
            worst = max(worst, float(np.ptp(record.h.values)))
    check(4, "constant moment grows uniformly for all prestrain pairs",
          worst <= 1e-6, f"max per-step (max-min)={worst:.2e}")


def test_criterion_05_remark3_refusal(remark3_run):
    added = remark3_run.records[-1].mass - remark3_run.initial_mass
    check(5, "inequality mode refuses harmful material over 5 steps",
          added <= 1e-6, f"added mass={added:.2e}")


def test_criterion_06_remark1_identity():
    rng = np.random.default_rng(6)
    config = gb.BeamConfig(length=10.0, young_modulus=E, n_cells=1)
    worst = 0.0
    for _ in range(100):
        h0 = float(rng.uniform(0.1, 0.7))
        h1 = h0 + float(rng.uniform(0.0, 0.6))
        m = float(rng.uniform(-40.0, 40.0))
        load = gb.LoadCase(gb.LoadKind.MOMENT, m)
        pre = gb.PrestrainPair(6.0 * m / (E * h0**2), -12.0 * m / (E * h0**3))
        st_ = equilibrium_one_layer(config, load,
                                    gb.HeightField.constant(config, h0),
                                    gb.HeightField.constant(config, h1), pre)
        eps_ref = 6.0 * m / (E * h0**2)
        kap_ref = -12.0 * m / (E * h0**3)
        scale = abs(eps_ref) + abs(kap_ref) * h0 + 1e-15
        worst = max(worst, abs(st_.eps[0] - eps_ref) / scale,
                    abs(st_.kappa[0] - kap_ref) * h0 / scale)
    check(6, "matching prestrain leaves the bare-beam state unchanged",
          worst <= 1e-10, f"max rel dev={worst:.2e}")


def _fd(fn, h, step):
    """Fourth-order central differences; step proportional to h keeps the
    truncation/roundoff balance uniform across the sample range."""
    return (-fn(h + 2 * step) + 8 * fn(h + step)
            - 8 * fn(h - step) + fn(h - 2 * step)) / (12 * step)


def test_criterion_07_gradient_correctness():
    rng = np.random.default_rng(7)
    n = 10_000
    worst = {}

    def scaled_err(a, b, terms):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3 * terms)
        return float(np.max(np.abs(a - b) / denom))

    h0 = rng.uniform(0.1, 0.8, size=n)
    h = h0 * rng.uniform(1.0, 4.0, size=n)
    m = rng.choice([-1.0, 1.0], size=n) * rng.uniform(5.0, 40.0, size=n)
    e = rng.uniform(1e4, 1e6, size=n)
    step = 2e-4 * h

    d = ComplianceDensity.baseline(e, m)
    a, b = d.derivative(h), _fd(d.value, h, step)
    worst["baseline"] = scaled_err(a, b, 36 * m**2 / (e * h**4))

    ep = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.002, 0.05, size=n)
    d = ComplianceDensity.const_prestrain(e, m, h0, ep)
    k = e * ep * h0**2 + 2 * m
    terms = (9 * k**2 / (e * h**4) + e * ep**2 + 12 * np.abs(ep) * h0 * np.abs(k) / h**3
             + 4 * e * ep**2 * h0**2 / h**2)
    worst["prestrain"] = scaled_err(d.derivative(h), _fd(d.value, h, step), terms)

    kp = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.01, 0.3, size=n)
    d = ComplianceDensity.const_precurv_first(e, m, h0, kp)
    q = e * kp * h0**3 + 3 * m
    terms = (4 * q**2 / (e * h**4) + e * kp**2 * h**2
             + 4 * h0**2 * np.abs(kp) * np.abs(q) / h**3 + e * h0**4 * kp**2 / h**2)
    worst["precurv"] = scaled_err(d.derivative(h), _fd(d.value, h, step), terms)

    # general case: 20 random histories x 500 cells
    load = gb.LoadCase(gb.LoadKind.UNIFORM, P)
    config = gb.BeamConfig(L, E, 500)
    gen_worst = 0.0
    for _ in range(20):
        base = gb.HeightField(rng.uniform(0.1, 0.5, size=500))
        mid = gb.HeightField(base.values + rng.uniform(0.0, 0.3, size=500))
        pre_hist = gb.PrestrainPair(float(rng.uniform(-0.03, 0.03)),
                                    float(rng.uniform(-0.1, 0.1)))
        pre_new = gb.PrestrainPair(float(rng.uniform(-0.03, 0.03)),
                                   float(rng.uniform(-0.1, 0.1)))
        stack = gb.LayerStack((base, mid), (pre_hist,))
        d = ComplianceDensity.general(config, load, stack, pre_new)
        hh = mid.values + rng.uniform(0.01, 0.4, size=500)
        ss = 2e-4 * hh
        a, b = d.derivative(hh), _fd(d.value, hh, ss)
        gen_worst = max(gen_worst, scaled_err(a, b, np.maximum(np.abs(a), 1.0)))
    worst["general"] = gen_worst

    ok = all(v <= 1e-6 for v in worst.values())
    check(7, "density derivatives match central differences over 1e4 samples",
          ok, ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def _compositions(total, parts):
    """All nonnegative integer tuples of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def test_criterion_08_small_instance_bruteforce():
    pitch = 1e-3
    worst_gap = -np.inf
    worst_cert = 0.0
    for n, budget in ((4, 40), (6, 25)):
        config = gb.BeamConfig(length=3.0, young_modulus=E, n_cells=n)
        load = gb.LoadCase(gb.LoadKind.UNIFORM, P)
        h0 = gb.HeightField.constant(config, H0)
        mass = config.delta * (n * H0 + budget * pitch)
        m = gb.bending_moment(load, config, config.x_centers)
        density = ComplianceDensity.baseline(E, m)
        problem = gb.StepProblem(density=density, h_prev=h0, mass_target=mass,
                                 tau=math.inf, mass_mode=gb.MassMode.EQUALITY,
                                 lower_bound=h0, config=config)
        sol = gb.minimize_step(problem)

        combos = np.array(list(_compositions(budget, n)), dtype=float)
        heights = H0 + pitch * combos
        objs = config.delta * np.sum(12.0 * m**2 / (E * heights**3), axis=1)
        best = float(np.min(objs))
        worst_gap = max(worst_gap, sol.objective - best)

        ana = gb.solve_baseline_step(config, load, h0, mass)
        grad = 36.0 * m**2 / (E * ana.h.values**4)
        on = ana.growth_set
        stat = float(np.max(np.abs(grad[on] - ana.lam))) if np.any(on) else 0.0
        dual = float(max(0.0, np.max(grad[~on] - ana.lam))) if np.any(~on) else 0.0
        comp = float(np.max(np.abs((ana.lam - grad[~on])
                                   * (ana.h.values[~on] - H0)))) if np.any(~on) else 0.0
        feas = abs(ana.h.mass(config) - mass)
        worst_cert = max(worst_cert, stat / max(ana.lam, 1.0), dual, comp, feas)
    ok = worst_gap <= 1e-6 and worst_cert <= 1e-10
    check(8, "solver matches exhaustive search; KKT certificate holds",
          ok, f"max objective gap={worst_gap:.2e}, max certificate defect={worst_cert:.2e}")


def test_criterion_09_invariant_suite(first_step, uniform_growth_runs,
                                      remark3_run, parabolic_runs):
    worst = {"mass": 0.0, "irrev": 0.0, "comp": 0.0, "stat": 0.0}

    def scan(trace):
        prev = trace.h0.values
        targets = [r.mass for r in trace.records]
        for record, problem in zip(trace.records, trace.problems):
            h = record.h.values
            if trace.mass_mode is gb.MassMode.EQUALITY:
                worst["mass"] = max(worst["mass"],
                                    abs(record.mass - problem.mass_target)
                                    / problem.mass_target)
            else:
                worst["mass"] = max(worst["mass"],
                                    (record.mass - problem.mass_target)
                                    / problem.mass_target)
            worst["irrev"] = max(worst["irrev"], float(np.max(prev - h)))
            q = np.asarray(problem.density.derivative(h), dtype=float).copy()
            if not math.isinf(problem.tau):
                q += (h - problem.h_prev.values) / problem.tau
            comp = np.abs((q + record.lam) * (h - problem.lower_bound.values))
            worst["comp"] = max(worst["comp"], float(np.max(comp)))
            worst["stat"] = max(worst["stat"],
                                gb.kkt_residual(problem, record.h, record.lam))
            prev = h
        return targets

    for run in uniform_growth_runs.values():
        scan(run)
    scan(remark3_run)
    for run in parabolic_runs.values():
        scan(run)
    problem, sol, _ = first_step
    worst["mass"] = max(worst["mass"], abs(sol.h.mass(problem.config) - 7.5) / 7.5)
    worst["irrev"] = max(worst["irrev"],
                         float(np.max(problem.h_prev.values - sol.h.values)))
    worst["stat"] = max(worst["stat"], gb.kkt_residual(problem, sol.h, sol.lam))

    ok = (worst["mass"] <= 1e-10 and worst["irrev"] <= 1e-12
          and worst["comp"] <= 1e-8 and worst["stat"] <= 1e-8)
    check(9, "mass, irreversibility, complementarity, stationarity on all runs",
          ok, ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("load.kind = uniform\nload.value = 0.02\nsteps = 6\n"
                   "mass.increment = 0.6\nn_cells = 120\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(cfg), "--output-dir", str(a), "--quiet"]) == 0
    assert cli_main(["run", str(cfg), "--output-dir", str(b), "--quiet"]) == 0
    same_profile = (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()
    same_summary = (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    check(10, "identical configs produce byte-identical outputs",
          same_profile and same_summary)


def test_criterion_11_regularization_shifts_allocation(config200, parabolic_runs):
    # tau = inf allocates more of the added mass toward the clamp for
    # eps_p > 0; the comparison flips to the free half for eps_p < 0
    xc = config200.x_centers
    fixed_half = xc <= L / 2
    added = 3 * 0.8

    h_inf = parabolic_runs[(0.01, math.inf)].records[-1].h.values
    h_reg = parabolic_runs[(0.01, 0.01)].records[-1].h.values
    margin_fixed = config200.delta * float(np.sum((h_inf - h_reg)[fixed_half])) / added

    h_inf = parabolic_runs[(-0.01, math.inf)].records[-1].h.values
    h_reg = parabolic_runs[(-0.01, 0.01)].records[-1].h.values
    margin_free = config200.delta * float(np.sum((h_inf - h_reg)[~fixed_half])) / added

    ok = margin_fixed >= 0.01 and margin_free >= 0.01
    check(11, "tau=inf vs tau=0.01 mass allocation (qualitative figures)",
          ok, f"fixed-half margin={margin_fixed:.2%}, free-half margin={margin_free:.2%}")
