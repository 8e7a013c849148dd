import json
import types
from pathlib import Path

import numpy as np
import pytest

import growbeam as gb
from growbeam import cli
from growbeam.cli import main
from tests.oracles import density_baseline
from tests.output_digest import compare, digest, subcommand
from tests.output_digest import main as digest_main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RUN_CFG = """\
load.kind = uniform
load.value = 0.02
steps = 5
mass.increment = 0.6
n_cells = 60
plot.steps = 0, 5
"""

# the step objective overflows binary64 under these loads
OVERFLOWING_LOADS = ["uniform\nload.value = 1e200", "moment\nload.value = 1e160"]

CONVEXITY_CFG = """\
load.kind = moment
load.value = 20
prestrain.eps = 0.01
prestrain.kappa = 0.05
convexity.samples = 512
"""


@pytest.fixture
def cfg_file(tmp_path):
    def write(text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


class TestRun:
    def test_success(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", cfg_file(RUN_CFG), "--output-dir", str(out)]) == 0
        assert (out / "profile.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "profile_step_5.svg").exists()
        assert "step 5" in capsys.readouterr().out

    def test_quiet(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", cfg_file(RUN_CFG), "--output-dir", str(out),
                     "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_config_error_exit_code(self, cfg_file, tmp_path, capsys):
        code = main(["run", cfg_file(RUN_CFG + "bogus = 1\n"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, cfg_file, tmp_path, capsys):
        code = main(["run", cfg_file(RUN_CFG + "solver.max_iter = 2\n"
                                     "solver.tol_kkt = 1e-14\n"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3

    def test_nonconvergence_keeps_completed_steps(self, cfg_file, tmp_path, capsys):
        # step 1 adds no mass and is solved without iterating; step 2 runs
        # out of iterations
        out = tmp_path / "out"
        code = main(["run", cfg_file("load.kind = uniform\nload.value = 0.02\n"
                                     "n_cells = 60\nsteps = 2\n"
                                     "mass.targets = 6.0, 6.6\n"
                                     "solver.max_iter = 2\n"),
                     "--output-dir", str(out)])
        assert code == 3
        assert "did not reach" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert [s["step"] for s in summary["steps"]] == [1]
        rows = (out / "profile.csv").read_text().splitlines()[1:]
        assert sorted({int(row.split(",")[0]) for row in rows}) == [0, 1]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("load", OVERFLOWING_LOADS)
    def test_overflowing_load_exit_code(self, cfg_file, tmp_path, capsys, load):
        code = main(["run", cfg_file(f"load.kind = {load}\nsteps = 2\nn_cells = 20\n"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "error: load 1e+" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_tiny_initial_height_names_load_and_height(self, cfg_file, tmp_path, capsys):
        code = main(["run", cfg_file("load.kind = uniform\nload.value = 0.02\nsteps = 2\n"
                                     "n_cells = 20\nheight0 = 1e-80\n"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert ("error: load 0.02 with height0 1e-80: initial compliance not finite"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("mode", ["equality", "inequality"])
    def test_first_target_below_initial_mass(self, cfg_file, tmp_path, capsys, mode):
        # m0 = 6.0; the first step's lower bound is h0, so its mass is m0
        code = main(["run", cfg_file("load.kind = uniform\nload.value = 0.02\n"
                                     f"steps = 2\nmass.targets = 5.0, 6.6\nmass.mode = {mode}\n"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "error: mass target 5.0 below the lower-bound mass" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_per_step_prestrain_lists(self, cfg_file, tmp_path, monkeypatch):
        traces = []

        def recording(*args, **kwargs):
            traces.append(gb.run_growth(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(cli, "run_growth", recording)
        cfg = cfg_file("load.kind = uniform\nload.value = 0.02\nsteps = 3\n"
                       "mass.increment = 0.6\nn_cells = 60\n"
                       "prestrain.eps = 0.01, 0.0, -0.01\n"
                       "prestrain.kappa = 0.0, 0.02, 0.0\n")
        assert main(["run", cfg, "--output-dir", str(tmp_path / "out"), "--quiet"]) == 0
        assert traces[0].prestrains == [gb.PrestrainPair(0.01, 0.0),
                                        gb.PrestrainPair(0.0, 0.02),
                                        gb.PrestrainPair(-0.01, 0.0)]

    def test_vanishing_moment_writes_a_positive_zero_lambda(self, cfg_file, tmp_path):
        # no load: q = 0 on every free cell, where -mean(q) is -0.0
        out = tmp_path / "out"
        cfg = cfg_file("load.kind = uniform\nload.value = 0\nsteps = 2\n")
        assert main(["run", cfg, "--output-dir", str(out), "--quiet"]) == 0
        text = (out / "summary.json").read_text()
        assert '"lambda": 0.0,' in text and "-0.0" not in text

    def test_plot_step_above_steps_is_refused_before_running(self, cfg_file, tmp_path,
                                                             capsys):
        out = tmp_path / "out"
        cfg = cfg_file(RUN_CFG.replace("plot.steps = 0, 5", "plot.steps = 0, 6"))
        assert main(["run", cfg, "--output-dir", str(out)]) == 2
        assert "plot.steps" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_exit_code(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "missing.cfg")])
        assert code == 4

    def test_env_var_output_dir(self, cfg_file, tmp_path, monkeypatch):
        out = tmp_path / "enved"
        monkeypatch.setenv("GROWBEAM_OUTPUT_DIR", str(out))
        assert main(["run", cfg_file(RUN_CFG), "--quiet"]) == 0
        assert (out / "profile.csv").exists()

    def test_determinism_across_runs(self, cfg_file, tmp_path):
        c = cfg_file(RUN_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", c, "--output-dir", str(a), "--quiet"]) == 0
        assert main(["run", c, "--output-dir", str(b), "--quiet"]) == 0
        assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


class TestAnalytic:
    def test_emits_profile_lambda_xhat(self, cfg_file, tmp_path):
        out = tmp_path / "ana"
        cfg = cfg_file(RUN_CFG.replace("mass.increment = 0.6",
                                       "mass.increment = 1.5")
                       .replace("steps = 5", "steps = 1")
                       .replace("plot.steps = 0, 5", "plot.steps = 0, 1")
                       .replace("n_cells = 60", "n_cells = 200"))
        assert main(["analytic", cfg, "--output-dir", str(out), "--quiet"]) == 0
        data = json.loads((out / "analytic.json").read_text())
        assert data["steps"][0]["lambda"] == pytest.approx(0.044444, rel=1e-4)
        assert data["steps"][0]["x_hat"] == pytest.approx(10.0, rel=1e-10)
        assert (out / "profile.csv").exists()

    def test_rejects_prestrain(self, cfg_file, tmp_path):
        code = main(["analytic", cfg_file(RUN_CFG + "prestrain.eps = 0.01\n"),
                     "--output-dir", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("line", ["tau = 0.01", "ablation = true"])
    def test_rejects_other_problems(self, cfg_file, tmp_path, capsys, line):
        # the closed form solves the tau = inf problem without ablation
        code = main(["analytic", cfg_file(RUN_CFG + line + "\n"),
                     "--output-dir", str(tmp_path / "x")])
        assert code == 2
        assert "tau = inf and ablation = false" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_inequality_mode_is_the_equality_solution(self, cfg_file, tmp_path):
        # with no prestrain c' < 0 on every loaded cell, so the budget binds
        for mode in ("equality", "inequality"):
            assert main(["analytic", cfg_file(RUN_CFG + f"mass.mode = {mode}\n"),
                         "--output-dir", str(tmp_path / mode), "--quiet"]) == 0
        for name in ("analytic.json", "profile.csv"):
            assert ((tmp_path / "equality" / name).read_bytes()
                    == (tmp_path / "inequality" / name).read_bytes()), name

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("load", OVERFLOWING_LOADS)
    def test_overflowing_load_exit_code(self, cfg_file, tmp_path, capsys, load):
        code = main(["analytic", cfg_file(f"load.kind = {load}\nsteps = 2\nn_cells = 20\n"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "error: load 1e+" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_tiny_initial_height_names_load_and_height(self, cfg_file, tmp_path, capsys):
        # at 1e-80 the closed-form density is still finite (about 1e237);
        # h0^3 underflows to 0 at 1e-110
        code = main(["analytic", cfg_file("load.kind = uniform\nload.value = 0.02\nsteps = 2\n"
                                          "n_cells = 20\nheight0 = 1e-110\n"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert ("error: load 0.02 with height0 1e-110: initial compliance not finite"
                in capsys.readouterr().err)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_multiplier_exit_code(self, cfg_file, tmp_path, capsys):
        # at 1e-80 the initial compliance is finite but 36 M^2/(E h^4) is not
        out = tmp_path / "out"
        code = main(["analytic", cfg_file("load.kind = uniform\nload.value = 0.02\nsteps = 2\n"
                                          "n_cells = 20\nheight0 = 1e-80\n"),
                     "--output-dir", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert ("error: load 0.02 with height0 1e-80: multiplier not finite"
                in captured.err)
        assert "lambda" not in captured.out
        assert not (out / "analytic.json").exists()

    def test_zero_increment(self, cfg_file, tmp_path):
        # m_1 = m0: no cell grows, there is no x_hat, and lambda is the
        # largest marginal gain 36 M^2/(E h0^4) at the first cell
        out = tmp_path / "ana"
        cfg = cfg_file("load.kind = uniform\nload.value = 0.02\nsteps = 1\n"
                       "mass.targets = 6.0\n")
        assert main(["analytic", cfg, "--output-dir", str(out), "--quiet"]) == 0
        step = json.loads((out / "analytic.json").read_text())["steps"][0]
        assert step["x_hat"] is None
        assert step["lambda"] == pytest.approx(0.7040266, rel=1e-7)

    def test_zero_load_zero_increment(self, cfg_file, tmp_path):
        # nothing grows, so there is no x_hat to compute; run solves it too
        cfg = cfg_file("load.kind = uniform\nload.value = 0\nsteps = 1\n"
                       "mass.targets = 6.0\n")
        for command in ("analytic", "run"):
            out = tmp_path / command
            assert main([command, cfg, "--output-dir", str(out), "--quiet"]) == 0
        step = json.loads((tmp_path / "analytic" / "analytic.json").read_text())["steps"][0]
        assert step["x_hat"] is None
        assert step["lambda"] == 0.0

    def test_first_target_below_initial_mass(self, cfg_file, tmp_path, capsys):
        # the step problem refuses the budget with run's message
        out = tmp_path / "out"
        code = main(["analytic", cfg_file("load.kind = uniform\nload.value = 0.02\n"
                                          "steps = 1\nmass.targets = 5.0\n"),
                     "--output-dir", str(out)])
        assert code == 2
        assert "error: mass target 5.0 below the lower-bound mass" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_follows_the_record_definitions(self, tmp_path):
        # kkt_residual and growth_fraction of summary.json are run's, worked
        # out on the step problem of the closed-form step
        path = CONFIGS / "analytic_first_step.cfg"
        rc = gb.parse_config(path.read_text())
        config = rc.beam_config()
        assert main(["analytic", str(path), "--output-dir", str(tmp_path), "--quiet"]) == 0
        step = json.loads((tmp_path / "summary.json").read_text())["steps"][0]
        _, heights = gb.read_profile(str(tmp_path))
        h0, h1 = heights[0], heights[1]
        density = gb.ComplianceDensity.baseline(
            config.young_modulus, gb.bending_moment(rc.load_case(), config, config.x_centers))
        h_prev = gb.HeightField(h0)
        problem = gb.StepProblem(density=density, h_prev=h_prev, mass_target=7.5,
                                 tau=rc.tau, mass_mode=rc.mode(), lower_bound=h_prev,
                                 config=config)
        assert step["kkt_residual"] == gb.kkt_residual(problem, h1, step["lambda"])
        assert step["growth_fraction"] == float(np.mean(h1 - h0 > gb.solver.TOL_ACTIVE))
        assert 0.0 < step["growth_fraction"] < 1.0

    def test_compliance_agrees_with_run_and_oracle(self, tmp_path):
        path = CONFIGS / "analytic_first_step.cfg"
        rc = gb.parse_config(path.read_text())
        config = rc.beam_config()
        m = gb.bending_moment(rc.load_case(), config, config.x_centers)
        got = {}
        for command in ("analytic", "run"):
            out = tmp_path / command
            assert main([command, str(path), "--output-dir", str(out), "--quiet"]) == 0
            summary = json.loads((out / "summary.json").read_text())
            _, heights = gb.read_profile(str(out))
            got[command] = [summary["initial"]["compliance"],
                            summary["steps"][0]["compliance"]]
            for c, h in zip(got[command], (heights[0], heights[1])):
                oracle = np.sum(density_baseline(h, m, rc.young_modulus))
                assert c == pytest.approx(config.delta * oracle, rel=1e-14), command
        assert got["analytic"] == pytest.approx(got["run"], rel=1e-14)


class TestConvexity:
    def test_tables_and_plots(self, cfg_file, tmp_path):
        out = tmp_path / "cvx"
        assert main(["convexity", cfg_file(CONVEXITY_CFG),
                     "--output-dir", str(out), "--quiet"]) == 0
        f_lines = (out / "f_table.csv").read_text().splitlines()
        assert f_lines[0] == "hbar,f,f_second,f_envelope"
        assert len(f_lines) == 1 + 512
        g_lines = (out / "g_table.csv").read_text().splitlines()
        assert g_lines[0] == "hbar,g,g_second"
        assert (out / "f_plot.svg").exists() and (out / "g_plot.svg").exists()
        # g'' column positive, envelope below f
        g2 = np.array([float(l.split(",")[2]) for l in g_lines[1:]])
        assert np.min(g2) > 0
        f_rows = np.array([[float(v) for v in l.split(",")] for l in f_lines[1:]])
        assert np.all(f_rows[:, 3] <= f_rows[:, 1] + 1e-12)

    def test_requires_moment_load(self, cfg_file, tmp_path):
        bad = CONVEXITY_CFG.replace("load.kind = moment", "load.kind = uniform")
        assert main(["convexity", cfg_file(bad),
                     "--output-dir", str(tmp_path / "x")]) == 2

    def test_requires_a_prestrain(self, cfg_file, tmp_path):
        bad = "load.kind = moment\nload.value = 20\n"
        assert main(["convexity", cfg_file(bad),
                     "--output-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("key, values", [("prestrain.eps", "0.01, 0.0"),
                                             ("prestrain.eps", "0.0, 0.01"),
                                             ("prestrain.kappa", "0.05, 0.0")])
    def test_refuses_a_per_step_list(self, cfg_file, tmp_path, capsys, key, values):
        # one value chooses the diagnostic; a per-step list has no one value
        text = "".join(line for line in CONVEXITY_CFG.splitlines(keepends=True)
                       if not line.startswith(key))
        cfg = cfg_file(text + f"steps = 2\n{key} = {values}\n")
        out = tmp_path / "x"
        assert main(["convexity", cfg, "--output-dir", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestPlot:
    def test_renders_from_trace_dir(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", cfg_file(RUN_CFG), "--output-dir", str(out),
                     "--quiet"]) == 0
        plots = tmp_path / "plots"
        assert main(["plot", str(out), "--steps", "0", "3",
                     "--output-dir", str(plots), "--quiet"]) == 0
        assert (plots / "profile_step_0.svg").exists()
        assert (plots / "profile_step_3.svg").exists()

    def test_empty_steps_ok(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        main(["run", cfg_file(RUN_CFG), "--output-dir", str(out), "--quiet"])
        assert main(["plot", str(out), "--quiet"]) == 0

    def test_invalid_step_index(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        main(["run", cfg_file(RUN_CFG), "--output-dir", str(out), "--quiet"])
        assert main(["plot", str(out), "--steps", "42", "--quiet"]) == 2

    def test_negative_step_index(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", cfg_file(RUN_CFG), "--output-dir", str(out), "--quiet"])
        assert main(["plot", str(out), "--steps", "-1", "--quiet"]) == 2
        assert "step -1 not in trace (has steps 0..5)" in capsys.readouterr().err
        assert not (out / "profile_step_-1.svg").exists()

    def test_steps_out_of_file_order_are_refused(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", cfg_file(RUN_CFG), "--output-dir", str(out),
                     "--quiet"]) == 0
        csv = out / "profile.csv"
        lines = csv.read_text().splitlines(keepends=True)
        steps = [lines[1 + 60 * k:61 + 60 * k] for k in range(6)]
        # steps 2 and 3 trade places: every row is still there
        steps[2], steps[3] = steps[3], steps[2]
        csv.write_text(lines[0] + "".join(sum(steps, [])))
        assert main(["plot", str(out), "--steps", "5", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert str(csv) in err and "step 3 where step 2 should begin" in err

    def test_ragged_profile_is_refused(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", cfg_file(RUN_CFG), "--output-dir", str(out),
                     "--quiet"]) == 0
        csv = out / "profile.csv"
        lines = csv.read_text().splitlines(keepends=True)
        del lines[next(k for k, line in enumerate(lines) if line.startswith("3,")) + 5]
        csv.write_text("".join(lines))
        assert main(["plot", str(out), "--steps", "5", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert str(csv) in err and "step 3 has 59 rows, step 0 has 60" in err

    def test_mismatched_x_centres_are_refused(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", cfg_file(RUN_CFG), "--output-dir", str(out),
                     "--quiet"]) == 0
        csv = out / "profile.csv"
        lines = csv.read_text().splitlines(keepends=True)
        k = next(k for k, line in enumerate(lines) if line.startswith("5,")) + 7
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
        csv.write_text("".join(lines))
        assert main(["plot", str(out), "--steps", "5", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert str(csv) in err and "step 5 has other x-centres than step 0" in err

    def test_missing_trace_dir(self, tmp_path):
        assert main(["plot", str(tmp_path / "nope"), "--steps", "0"]) == 4

    def test_replot_matches_run_when_centres_do_not_sum_to_length(self, cfg_file,
                                                                  tmp_path):
        # x_centers[-1] + x_centers[0] is 58.900000000000006 here, and the
        # x ticks then read 14.73 where the run's read 14.72
        cfg = cfg_file("load.kind = uniform\nload.value = 0.02\nsteps = 2\n"
                       "mass.increment = 0.6\nlength = 58.9\nn_cells = 13\n"
                       "plot.steps = 0, 2\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out), "--quiet"]) == 0
        plots = tmp_path / "plots"
        assert main(["plot", str(out), "--steps", "0", "2",
                     "--output-dir", str(plots), "--quiet"]) == 0
        for name in ("profile_step_0.svg", "profile_step_2.svg"):
            assert (plots / name).read_bytes() == (out / name).read_bytes(), name

    def test_replot_matches_run_above_the_thinning_threshold(self, cfg_file, tmp_path):
        # 4000 staircase points over 560 pixel columns: runs of up to 8
        # points per column are thinned, and the replot still matches
        cfg = cfg_file("load.kind = uniform\nload.value = 0.02\nsteps = 2\n"
                       "mass.increment = 0.6\nn_cells = 2000\nplot.steps = 0, 2\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out), "--quiet"]) == 0
        plots = tmp_path / "plots"
        assert main(["plot", str(out), "--steps", "0", "2",
                     "--output-dir", str(plots), "--quiet"]) == 0
        for name in ("profile_step_0.svg", "profile_step_2.svg"):
            assert (plots / name).read_bytes() == (out / name).read_bytes(), name
            assert (out / name).stat().st_size < 200_000, name


def test_output_digest_of_one_config(tmp_path):
    sums = digest([CONFIGS / "baseline.cfg"], tmp_path)
    svgs = [f"profile_step_{k}.svg" for k in (0, 5, 10)]
    assert sorted(sums) == sorted(["baseline/profile.csv", "baseline/summary.json"]
                                  + [f"baseline/{n}" for n in svgs]
                                  + [f"baseline/replot/{n}" for n in svgs])
    assert all(len(v) == 64 for v in sums.values())
    # the replot writes the run's bytes
    for name in svgs:
        assert sums[f"baseline/{name}"] == sums[f"baseline/replot/{name}"]
    assert subcommand("analytic_first_step") == "analytic"
    assert subcommand("convexity_minus") == "convexity"


def test_output_digest_compare(tmp_path, capsys):
    ref = {"a.csv": "1", "b.csv": "2", "c.csv": "3"}
    assert compare(ref, dict(ref)) == []
    assert compare(ref, {"a.csv": "1", "b.csv": "9", "d.csv": "4"}) == [
        "changed: b.csv", "added: d.csv", "missing: c.csv"]
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "convexity.cfg").write_text((CONFIGS / "convexity.cfg").read_text())
    sums = digest([configs / "convexity.cfg"], tmp_path / "out")
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(json.dumps(sums))
    argv = ["--configs", str(configs), "--compare", str(ref_path)]
    capsys.readouterr()
    assert digest_main(argv) == 0
    assert capsys.readouterr().out == "no difference\n"
    ref_path.write_text(json.dumps({**sums, "convexity/f_table.csv": "0" * 64}))
    assert digest_main(argv) == 1
    assert capsys.readouterr().out == "changed: convexity/f_table.csv\n"


def test_package_exports_no_modules_and_no_test_oracles():
    # the closed forms only the tests use live in tests/oracles.py
    assert not [name for name in gb.__all__
                if isinstance(getattr(gb, name), types.ModuleType)]
    for name in ("density_baseline", "density_prestrain",
                 "density_precurv_first", "f_value_raw", "f_second_raw",
                 "g_value_raw", "g_second_raw", "f_concavity_interval",
                 "equilibrium_bare", "equilibrium_one_layer", "baseline_mass",
                 "project_mass_lb"):
        assert not hasattr(gb, name), name
