"""Every shipped config in configs/ runs through the CLI, and for the steps a
run draws, ``growbeam plot`` re-renders byte-identical SVGs from its trace."""

import glob
import os

import pytest

from growbeam.config import parse_config
from tests.output_digest import digest

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
CONFIGS = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))


def test_configs_found():
    assert CONFIGS, f"no configs under {CONFIG_DIR}"


@pytest.mark.parametrize("path", CONFIGS,
                         ids=[os.path.basename(p)[:-len(".cfg")] for p in CONFIGS])
def test_config_runs_and_replots(path, tmp_path):
    name = os.path.basename(path)[:-len(".cfg")]
    sums = digest([path], tmp_path)
    assert sums, name
    # every step the config draws has an SVG from the run and an identical replot
    with open(path) as handle:
        steps = parse_config(handle.read()).plot_steps
    for step in steps or ():
        key = f"{name}/profile_step_{step}.svg"
        assert sums[key.replace("/", "/replot/", 1)] == sums[key], key
