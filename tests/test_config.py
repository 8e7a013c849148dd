import math

import pytest

import growbeam as gb
from growbeam.config import KEYS, RunConfig, parse_config
from growbeam.errors import ConfigError

MINIMAL = """\
load.kind = uniform
load.value = 0.02
steps = 10
mass.increment = 0.6
"""


class TestParse:
    def test_minimal_config_gets_reference_defaults(self):
        rc = parse_config(MINIMAL)
        assert rc.length == 20.0
        assert rc.height0 == 0.3
        assert rc.young_modulus == 1.0e5
        assert rc.n_cells == 200
        assert rc.tau == math.inf
        assert rc.mass_mode == "equality"
        assert rc.mass_increment == 0.6

    def test_comments_and_blanks(self):
        rc = parse_config("# header\n\nload.kind = moment  # trailing\nload.value = 20\n")
        assert rc.load_kind == "moment"
        assert rc.load_value == 20.0

    def test_tau_inf_sentinel(self):
        rc = parse_config(MINIMAL + "tau = inf\n")
        assert math.isinf(rc.tau)
        rc = parse_config(MINIMAL + "tau = 0.01\n")
        assert rc.tau == 0.01

    def test_n_cells_zero_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "n_cells = 0\n")
        assert "n_cells" in str(err.value)
        assert err.value.line == 5

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("load.knd = uniform\n")
        assert "unknown key" in str(err.value)
        assert err.value.line == 1

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("steps = 3\nsteps = 4\n")
        assert "duplicate" in str(err.value)
        assert err.value.line == 2

    def test_missing_separator_position(self):
        with pytest.raises(ConfigError) as err:
            parse_config("load.kind uniform\n")
        assert err.value.line == 1 and err.value.column == 1

    def test_bad_boolean(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "ablation = maybe\n")
        assert "invalid value for 'ablation': not a boolean: 'maybe'" in str(err.value)
        assert (err.value.line, err.value.column) == (5, 12)

    def test_missing_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "= 5\n")
        assert "missing key before '='" in str(err.value)
        assert (err.value.line, err.value.column) == (5, 1)

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("steps = soon\n")
        assert err.value.line == 1
        assert "invalid value" in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("length", "inf"), ("young_modulus", "inf"), ("height0", "inf"),
        ("load.value", "nan"), ("mass.targets", "6.5, nan"),
        ("mass.targets", "6.5, inf"), ("prestrain.eps", "-inf"),
        ("tau", "nan"), ("solver.tol_kkt", "1e999")])
    def test_non_finite_value_rejected_with_position(self, key, value):
        text = "load.kind = uniform\nsteps = 2\n" + f"{key} = {value}\n"
        if key != "mass.targets":
            text += "mass.increment = 0.6\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert (err.value.line, err.value.column) == (3, len(key) + 4)
        assert "not a finite number" in str(err.value)

    def test_missing_value(self):
        with pytest.raises(ConfigError):
            parse_config("steps =\n")

    def test_mutually_exclusive_mass_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "mass.targets = 6.6, 7.2\n")
        assert "mutually exclusive" in str(err.value)

    def test_prestrain_list_length(self):
        text = MINIMAL.replace("steps = 10", "steps = 3")
        rc = parse_config(text + "prestrain.eps = 0.01, 0.02, 0.03\n")
        assert rc.prestrain_eps == (0.01, 0.02, 0.03)
        with pytest.raises(ConfigError):
            parse_config(text + "prestrain.eps = 0.01, 0.02\n")

    def test_targets_length_checked(self):
        text = MINIMAL.replace("steps = 10", "steps = 2")
        text = text.replace("mass.increment = 0.6", "mass.targets = 6.6, 7.2")
        rc = parse_config(text)
        assert rc.mass_targets == (6.6, 7.2)
        bad = text.replace("6.6, 7.2", "6.6")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_mass_mode_values(self):
        rc = parse_config(MINIMAL + "mass.mode = inequality\n")
        assert rc.mode() is gb.MassMode.INEQUALITY
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "mass.mode = perhaps\n")

    def test_plot_steps_above_steps_rejected_with_position(self):
        text = MINIMAL.replace("steps = 10", "steps = 4")
        assert parse_config(text + "plot.steps = 0, 4\n").plot_steps == (0, 4)
        with pytest.raises(ConfigError) as err:
            parse_config(text + "plot.steps = 0, 5\n")
        assert "plot.steps" in str(err.value) and "steps=4" in str(err.value)
        assert (err.value.line, err.value.column) == (5, len("plot.steps = ") + 1)

    def test_hbar_window_validated(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "convexity.hbar_min = 5\nconvexity.hbar_max = 2\n")


class TestRoundTrip:
    """Config text written out by hand parses back to the RunConfig it
    spells, key by key."""

    def test_optional_keys_parse_to_their_fields(self):
        rc = parse_config(MINIMAL + "tau = 0.01\nprestrain.eps = 0.01\n"
                          "mass.mode = inequality\nablation = true\n"
                          "plot.steps = 0, 5, 10\noutput.dir = out/run1\n")
        assert (rc.load_kind, rc.load_value, rc.steps, rc.mass_increment) == \
            ("uniform", 0.02, 10, 0.6)
        assert rc.tau == 0.01
        assert rc.prestrain_eps == (0.01,)
        assert rc.mass_mode == "inequality"
        assert rc.ablation is True
        assert rc.plot_steps == (0, 5, 10)
        assert rc.output_dir == "out/run1"

    def test_defaults_written_out_parse_to_the_default(self):
        text = "\n".join([
            "length = 20.0", "height0 = 0.3", "young_modulus = 100000.0",
            "n_cells = 200", "load.kind = uniform", "load.value = 0.0",
            "steps = 10", "mass.mode = equality", "prestrain.eps = 0.0",
            "prestrain.kappa = 0.0", "tau = inf", "ablation = false",
            "solver.tol_kkt = 1e-08", "solver.tol_mass = 1e-10",
            "solver.max_iter = 10000", "convexity.hbar_min = 1.0",
            "convexity.hbar_max = 6.0", "convexity.samples = 2048",
        ]) + "\n"
        assert parse_config(text) == RunConfig()

    def test_every_key_parses_to_its_field(self):
        values = {
            "length": ("10", 10.0), "height0": ("0.2", 0.2),
            "young_modulus": ("2e5", 2.0e5), "n_cells": ("7", 7),
            "load.kind": ("moment", "moment"), "load.value": ("20", 20.0),
            "steps": ("2", 2), "mass.targets": ("2.5, 3.0", (2.5, 3.0)),
            "mass.mode": ("equality", "equality"),
            "prestrain.eps": ("0.01, 0.0", (0.01, 0.0)),
            "prestrain.kappa": ("0.0", (0.0,)), "tau": ("inf", math.inf),
            "ablation": ("false", False), "solver.tol_kkt": ("1e-9", 1e-9),
            "solver.tol_mass": ("1e-11", 1e-11),
            "solver.max_iter": ("500", 500),
            "output.dir": ("somewhere", "somewhere"),
            "plot.steps": ("0, 2", (0, 2)),
            "convexity.hbar_min": ("1.0", 1.0),
            "convexity.hbar_max": ("4.0", 4.0),
            "convexity.samples": ("256", 256),
        }
        # every key but mass.increment, which excludes mass.targets
        assert set(values) == set(KEYS) - {"mass.increment"}
        rc = parse_config("".join(f"{key} = {text}\n"
                                  for key, (text, _) in values.items()))
        for key, (_, want) in values.items():
            got = getattr(rc, KEYS[key][0])
            assert got == want and type(got) is type(want), key

    def test_key_registry_matches_fields(self):
        field_names = {f.name for f in RunConfig.__dataclass_fields__.values()}
        assert {spec[0] for spec in KEYS.values()} <= field_names


class TestDerivedObjects:
    def test_schedule_default_increment_is_tenth_of_initial_mass(self):
        rc = parse_config("load.kind = uniform\nload.value = 0.02\nsteps = 10\n")
        sched = rc.schedule()
        assert sched.increment == pytest.approx(0.6)

    def test_prestrain_expansion(self):
        rc = parse_config(MINIMAL + "prestrain.eps = 0.01\n")
        pres = rc.prestrains()
        assert len(pres) == 10
        assert all(p.eps_p == 0.01 for p in pres)

    def test_output_dir_resolution(self, monkeypatch):
        rc = parse_config(MINIMAL)
        monkeypatch.delenv("GROWBEAM_OUTPUT_DIR", raising=False)
        assert rc.resolve_output_dir() == "growbeam_out"
        monkeypatch.setenv("GROWBEAM_OUTPUT_DIR", "/tmp/elsewhere")
        assert rc.resolve_output_dir() == "/tmp/elsewhere"
        assert rc.resolve_output_dir("explicit") == "explicit"
        rc2 = parse_config(MINIMAL + "output.dir = cfgdir\n")
        assert rc2.resolve_output_dir() == "cfgdir"
