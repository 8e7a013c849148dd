"""The benchmark's layer tracing (bench/spans.py) must find every name it
patches; a rename in the package would otherwise break ``--trace 1``."""

import importlib.util
import math
import pathlib
import sys

import pytest

import growbeam as gb
from growbeam import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look the module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("ablation", [False, True])
def test_every_patch_site_resolves(spans, ablation):
    config = gb.BeamConfig(20.0, 1.0e5, 40)
    load = gb.LoadCase(gb.LoadKind.UNIFORM, 0.02)
    for mode in gb.MassMode:
        recorder = spans.Recorder()
        with spans.Patched(recorder) as patched:
            trace = gb.run_growth(config, load, 0.3,
                                  gb.MassSchedule.affine(0.0 if ablation else 0.4),
                                  [gb.PrestrainPair(0.01, 0.02)] * 2, tau=0.1,
                                  ablation=ablation, mass_mode=mode)
        assert set(patched.missing) <= spans.OPTIONAL
        # optional only to the benchmark: a rename must not drop its metrics silently
        assert "solver.projection" not in patched.missing
        metrics = spans.layer_metrics(recorder.spans, patched.missing)
        # both budget modes project through _project_shift, so every step
        # that is not degenerate counts at least its start projection
        if mode is gb.MassMode.EQUALITY or any(r.lam > 0.0 for r in trace.records):
            assert metrics["solver.projection_calls"] > 0
        assert metrics["solver.iterations_per_step"] > 0
        assert metrics["compliance.density_value_calls"] > 0
        assert metrics["compliance.density_derivative_calls"] > 0
        if ablation:
            assert metrics["compliance.history_cells_per_eval"] > 0
        else:
            assert metrics["beam.segments_calls"] == 0
            assert metrics["compliance.history_cells_per_eval"] == 0
        assert not math.isnan(metrics["growth.step_late_over_early"])


def test_analytic_is_traced(spans, tmp_path):
    # paper_cases' per-layer metrics of the analytic subcommand
    cfg = ROOT / "configs" / "analytic_first_step.cfg"
    recorder = spans.Recorder()
    with spans.Patched(recorder) as patched:
        assert cli.main(["analytic", str(cfg), "--output-dir", str(tmp_path),
                         "--quiet"]) == 0
    metrics = spans.layer_metrics(recorder.spans, patched.missing)
    assert metrics["compliance.density_build_s"] > 0
    assert metrics["baseline.solve_baseline_step_s"] > 0
    assert metrics["compliance.density_value_calls"] > 0


def test_plot_is_traced(spans, tmp_path):
    # kappa_replot's per-layer metrics of the plot subcommand
    cfg = tmp_path / "run.cfg"
    cfg.write_text("load.kind = uniform\nload.value = 0.02\nsteps = 3\n"
                   "mass.increment = 0.6\nn_cells = 40\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
    recorder = spans.Recorder()
    with spans.Patched(recorder) as patched:
        assert cli.main(["plot", str(out), "--steps", "0", "3", "--output-dir",
                         str(tmp_path / "plots"), "--quiet"]) == 0
    metrics = spans.layer_metrics(recorder.spans, patched.missing)
    assert metrics["output.read_profile_s"] > 0
    assert metrics["output.render_profile_svg_s"] > 0
    assert metrics["output.svg_bytes"] > 0
