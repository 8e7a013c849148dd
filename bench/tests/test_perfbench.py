"""Tests of the benchmark's own logic.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from growbeam import cli  # noqa: E402
from growbeam.config import parse_config  # noqa: E402


def _span(name, start, end, parent=None, **attrs):
    return spans.Span(name, start, end, parent=parent, attrs=attrs)


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    parent = _span("p", 0.0, 10.0)
    children = [_span("a", 1.0, 3.0), _span("b", 2.0, 5.0),   # overlap: [1, 5]
                _span("c", 8.0, 12.0),                         # clipped: [8, 10]
                _span("d", 11.0, 12.0)]                        # outside
    assert spans.self_time(parent, children) == pytest.approx(4.0)
    assert spans.self_time(parent, []) == pytest.approx(10.0)


def test_layer_metrics_on_nested_spans():
    # cli.main > run_growth > two steps; the first step has three projections
    # (1 start + 1 iteration + 1 backtrack), the second one (converged at
    # the start point).
    s = [
        _span("cli.main", 0.0, 20.0),
        _span("growth.run_growth", 1.0, 19.0, 0),
        _span("solver.minimize_step", 2.0, 8.0, 1, iterations=1, equality=True),
        _span("solver.projection", 3.0, 4.0, 2),
        _span("solver.projection", 4.0, 5.0, 2),
        _span("solver.projection", 5.0, 6.0, 2),
        _span("solver.minimize_step", 10.0, 13.0, 1, iterations=0, equality=True),
        _span("solver.projection", 11.0, 12.0, 6),
        _span("beam.segments", 14.0, 15.0, 1, cells=6),
    ]
    m = spans.layer_metrics(s)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["growth.run_growth_s"] == pytest.approx(18.0)
    assert m["growth.self_s"] == pytest.approx(18.0 - 6.0 - 3.0 - 1.0)
    assert m["solver.minimize_step_s"] == pytest.approx(9.0)
    assert m["solver.self_s"] == pytest.approx(9.0 - 4.0)
    assert m["solver.projection_calls"] == 4
    assert m["solver.iterations_per_step"] == pytest.approx(0.5)
    assert m["solver.backtracks_per_step"] == pytest.approx(0.5)
    assert m["solver.accepted_per_projection"] == pytest.approx(3 / 4)
    assert m["beam.segments_cells"] == 6
    assert m["growth.step_late_over_early"] == pytest.approx(1.0)
    absent = spans.layer_metrics(s, missing=["solver.projection"])
    assert not any(name in absent for name in spans.NEEDS_PROJECTION)


def test_step_late_over_early_uses_a_tenth_of_the_intervals():
    starts = np.cumsum([0.0] + [1.0] * 10 + [3.0] * 10)  # 20 intervals
    assert spans.step_late_over_early(starts) == pytest.approx(3.0)
    assert spans.step_late_over_early([1.0]) is None


def test_patched_restores_every_site():
    from growbeam import compliance, growth, solver
    before = (growth.minimize_step, solver._project_shift,
              compliance.ComplianceDensity.__dict__["general"])
    recorder = spans.Recorder()
    with spans.Patched(recorder) as patched:
        assert growth.minimize_step is not before[0]
        assert patched.missing == []
    assert (growth.minimize_step, solver._project_shift,
            compliance.ComplianceDensity.__dict__["general"]) == before


# -- generator ----------------------------------------------------------------

PINNED_CASES = {
    "baseline_fine": dict(load_kind="uniform", load_value=0.02, steps=10,
                          mass_increment=0.6, n_cells=20_000, plot_steps=None,
                          prestrain_eps=(0.0,), prestrain_kappa=(0.0,)),
    "parabolic_kappa_plus": dict(load_kind="uniform", load_value=0.1, steps=10,
                                 mass_increment=0.6, prestrain_kappa=(0.05,),
                                 tau=0.01, plot_steps=(0, 5, 10), n_cells=10_000),
    "long_moment": dict(load_kind="moment", load_value=20.0, steps=200,
                        mass_increment=0.6, prestrain_eps=(0.01,), n_cells=500),
}

# configs/ at the commit that defined the benchmark.
PAPER_CONFIGS = {
    "analytic_first_step": "load.kind = uniform\nload.value = 0.02\nsteps = 1\n"
                           "mass.targets = 7.5\n",
    "baseline": "load.kind = uniform\nload.value = 0.02\nsteps = 10\n"
                "mass.increment = 0.6\nplot.steps = 0, 5, 10\n",
    "convexity": "load.kind = moment\nload.value = 20\nprestrain.eps = 0.01\n"
                 "prestrain.kappa = 0.05\nconvexity.hbar_max = 6.0\n"
                 "convexity.samples = 2048\n",
    "moment_eps_minus_ineq": "load.kind = moment\nload.value = 20\nsteps = 5\n"
                             "mass.increment = 0.6\nprestrain.eps = -0.01\ntau = 0.01\n"
                             "mass.mode = inequality\n",
    "moment_eps_minus_reg": "load.kind = moment\nload.value = 20\nsteps = 10\n"
                            "mass.increment = 0.6\nprestrain.eps = -0.01\ntau = 0.01\n"
                            "plot.steps = 0, 5\n",
    "moment_eps_plus": "load.kind = moment\nload.value = 20\nsteps = 10\n"
                       "mass.increment = 0.6\nprestrain.eps = 0.01\n"
                       "plot.steps = 0, 5, 10\n",
    "parabolic_eps_plus": "load.kind = uniform\nload.value = 0.02\nsteps = 3\n"
                          "mass.increment = 0.8\nprestrain.eps = 0.01\nplot.steps = 0, 3\n",
    "parabolic_kappa_plus": "load.kind = uniform\nload.value = 0.1\nsteps = 10\n"
                            "mass.increment = 0.6\nprestrain.kappa = 0.05\ntau = 0.01\n"
                            "plot.steps = 0, 5, 10\n",
}


def _parsed(workload, seed):
    return {c["case"]: parse_config(c["config"])
            for c in workloads.generate(workload, seed) if "config" in c}


def test_seed_zero_reproduces_the_pinned_inputs():
    for workload in ("baseline_fine", "kappa_replot", "long_moment"):
        for case, rc in _parsed(workload, 0).items():
            for field, value in PINNED_CASES[case].items():
                assert getattr(rc, field) == value, (case, field)
            assert (rc.length, rc.height0, rc.young_modulus) == (20.0, 0.3, 1.0e5)
    assert workloads.generate("kappa_replot", 0)[1] == {
        "case": "parabolic_kappa_plus", "command": "plot", "steps": [10]}
    paper = _parsed("paper_cases", 0)
    assert paper == {name: parse_config(text) for name, text in PAPER_CONFIGS.items()}
    subcommands = {c["case"]: c["command"] for c in workloads.generate("paper_cases", 0)}
    assert subcommands.pop("analytic_first_step") == "analytic"
    assert subcommands.pop("convexity") == "convexity"
    assert set(subcommands.values()) == {"run"}


def test_other_seeds_scale_only_loads_and_masses_by_one_factor():
    factor = workloads.seed_factor(7)
    assert 0.95 <= factor <= 1.05 and factor != 1.0
    assert workloads.generate("paper_cases", 7) == workloads.generate("paper_cases", 7)
    base, scaled = _parsed("paper_cases", 0), _parsed("paper_cases", 7)
    for case in base:
        a, b = base[case], scaled[case]
        assert b.load_value == a.load_value * factor
        if a.mass_targets is not None:
            assert b.mass_targets == tuple(v * factor for v in a.mass_targets)
        if a.mass_increment is not None:
            assert b.mass_increment == a.mass_increment * factor
        assert (b.steps, b.n_cells, b.prestrain_eps, b.tau) == \
            (a.steps, a.n_cells, a.prestrain_eps, a.tau)


# -- checks -------------------------------------------------------------------

def _small(workload, **overrides):
    """The workload's commands with a smaller grid or step count."""
    commands = workloads.generate(workload, 0)
    for c in commands:
        if "params" in c:
            c["params"].update(overrides)
            c["config"] = workloads.config_text(c["params"])
    return commands


def _run_in_process(commands, work_dir):
    cfg = os.path.join(work_dir, "cfg")
    os.makedirs(cfg)
    for c in commands:
        if "config" in c:
            with open(os.path.join(cfg, c["case"] + ".cfg"), "w") as handle:
                handle.write(c["config"])
    import child
    argvs = [child._argv(c, work_dir) for c in commands]
    return [cli.main(argv) for argv in argvs]


def _corrupt_height(path, row, factor=1.01):
    with open(path) as handle:
        lines = handle.read().splitlines()
    step, x, h = lines[row].split(",")
    lines[row] = f"{step},{x},{float(h) * factor!r}"
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload, overrides, row", [
    ("baseline_fine", {"n_cells": 200}, 5 * 200 + 10),
    ("long_moment", {"n_cells": 50, "steps": 12}, 7 * 50 + 3),
    ("kappa_replot", {"n_cells": 200}, 10 * 200 + 150),
])
def test_a_corrupted_profile_fails_its_check(tmp_path, workload, overrides, row):
    commands = _small(workload, **overrides)
    codes = _run_in_process(commands, str(tmp_path))
    assert codes == [0] * len(commands)
    assert checks.check_iteration(commands, str(tmp_path), codes) == []
    case = commands[0]["case"]
    _corrupt_height(os.path.join(checks.case_dir(str(tmp_path), case), "profile.csv"),
                    row + 1)
    failures = checks.check_iteration(commands, str(tmp_path), codes)
    assert failures
    assert run.failed({"failures": failures})


def test_paper_cases_pass_their_checks(tmp_path):
    commands = workloads.generate("paper_cases", 3)
    codes = _run_in_process(commands, str(tmp_path))
    assert checks.check_iteration(commands, str(tmp_path), codes) == []
    assert checks.check_iteration(commands, str(tmp_path), [0] * 7 + [3]) != []


def test_a_failed_iteration_counts_in_failed_frac(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    commands = _small("baseline_fine", n_cells=200)
    runner = run.Runner(commands, time.monotonic())
    good = runner.spawn()
    assert good["failures"] == [] and good["wall_s"] > 0 and good["setup_s"] > 0
    broken = [dict(commands[0], params=dict(commands[0]["params"], steps=11))]
    bad = run.Runner(broken, time.monotonic()).spawn()  # checks expect 11 steps
    assert bad["failures"]
    assert [run.failed(r) for r in (good, bad)] == [False, True]
    traced = runner.spawn(trace=True)
    assert traced["layers"]["solver.projection_calls"] > 0


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(10))) is None
    p, value = run.tail_percentile([float(v) for v in range(35)])
    assert p == 71 and sum(v > value for v in range(35)) == 10


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_matches_the_layer_map_and_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(BENCH, "layer_map.json")) as handle:
        layer_map = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    assert names == sorted(workloads.WORKLOADS) == sorted(layer_map["workloads"])
    assert [m["name"] for m in spec["per_layer"]] == list(layer_map["per_layer"])
    assert set(layer_map["per_layer"]) == set(spans.layer_metrics([])) | {"trace.overhead_frac"}
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    for entry in layer_map["per_layer"].values():
        assert set(entry["moves"]) <= set(e2e)
        assert set(entry["most_work"] + entry["little_work"]) <= set(names)
    every = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]) for m in every)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
