"""Every shipped config in configs/ runs through the CLI, and for the steps a
run draws, ``growbeam plot`` re-renders byte-identical SVGs from its trace."""

import glob
import os

import pytest

from growbeam.cli import main
from growbeam.config import parse_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
CONFIGS = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))


def _subcommand(path):
    """The subcommand a config is written for, as the README's loop picks it."""
    name = os.path.basename(path)
    if name.startswith("analytic"):
        return "analytic"
    if name.startswith("convexity"):
        return "convexity"
    return "run"


def test_configs_found():
    assert CONFIGS, f"no configs under {CONFIG_DIR}"


@pytest.mark.parametrize("path", CONFIGS,
                         ids=[os.path.basename(p)[:-len(".cfg")] for p in CONFIGS])
def test_config_runs_and_replots(path, tmp_path):
    out = tmp_path / "run"
    assert main([_subcommand(path), path, "--output-dir", str(out), "--quiet"]) == 0
    with open(path) as handle:
        steps = parse_config(handle.read()).plot_steps
    if not steps:
        return
    replot = tmp_path / "plot"
    assert main(["plot", str(out), "--steps", *map(str, steps),
                 "--output-dir", str(replot), "--quiet"]) == 0
    for step in steps:
        name = f"profile_step_{step}.svg"
        assert (replot / name).read_bytes() == (out / name).read_bytes(), name
