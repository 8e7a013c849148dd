import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import growbeam as gb
from growbeam.errors import DomainError
from growbeam.output import read_profile, render_profile_svg, write_trace


@pytest.fixture(scope="module")
def small_trace():
    config = gb.BeamConfig(20.0, 1.0e5, 2)
    load = gb.LoadCase(gb.LoadKind.UNIFORM, 0.02)
    return gb.run_growth(config, load, 0.3, gb.MassSchedule.affine(0.6),
                         [gb.PrestrainPair()], tau=math.inf)


@pytest.fixture(scope="module")
def run_trace():
    config = gb.BeamConfig(20.0, 1.0e5, 50)
    load = gb.LoadCase(gb.LoadKind.UNIFORM, 0.02)
    return gb.run_growth(config, load, 0.3, gb.MassSchedule.affine(0.6),
                         [gb.PrestrainPair()] * 10, tau=math.inf)


class TestWriteTrace:
    def test_row_count(self, small_trace, tmp_path):
        write_trace(small_trace, str(tmp_path))
        lines = (tmp_path / "profile.csv").read_text().splitlines()
        # header + (1 + steps) * n_cells rows
        assert lines[0] == "step,x_center,height"
        assert len(lines) == 1 + 2 * 2

    def test_lf_line_endings(self, small_trace, tmp_path):
        write_trace(small_trace, str(tmp_path))
        raw = (tmp_path / "profile.csv").read_bytes()
        assert b"\r" not in raw

    def test_determinism(self, run_trace, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_trace(run_trace, str(d1))
        write_trace(run_trace, str(d2))
        assert (d1 / "profile.csv").read_bytes() == (d2 / "profile.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()

    def test_csv_round_trip_exact(self, run_trace, tmp_path):
        write_trace(run_trace, str(tmp_path))
        _, steps = read_profile(str(tmp_path))
        for idx, values in enumerate(run_trace.heights_by_step()):
            np.testing.assert_array_equal(steps[idx], values)

    def test_summary_schema_and_round_trip(self, run_trace, tmp_path):
        write_trace(run_trace, str(tmp_path))
        data = json.loads((tmp_path / "summary.json").read_text())
        assert set(data) == {"initial", "steps"}
        assert len(data["steps"]) == 10
        first = data["steps"][0]
        assert set(first) == {"step", "mass", "compliance", "lambda",
                              "kkt_residual", "growth_fraction", "max_increment"}
        assert first["mass"] == run_trace.records[0].mass  # lossless float

    def test_file_mode_follows_umask(self, small_trace, tmp_path):
        old = os.umask(0o022)
        try:
            paths = write_trace(small_trace, str(tmp_path))
        finally:
            os.umask(old)
        assert all(os.stat(p).st_mode & 0o777 == 0o644 for p in paths)

    def test_returns_paths(self, small_trace, tmp_path):
        paths = write_trace(small_trace, str(tmp_path))
        assert all(os.path.exists(p) for p in paths)


class TestRenderSvg:
    def test_empty_step_list(self, run_trace, tmp_path):
        heights = dict(enumerate(run_trace.heights_by_step()))
        out = render_profile_svg(run_trace.config.x_centers, heights, [],
                                 str(tmp_path / "plots"), 20.0)
        assert out == []

    def test_files_and_well_formed_xml(self, run_trace, tmp_path):
        heights = dict(enumerate(run_trace.heights_by_step()))
        out = render_profile_svg(run_trace.config.x_centers, heights, [0, 5, 10],
                                 str(tmp_path), 20.0)
        assert len(out) == 3
        for path in out:
            root = ET.parse(path).getroot()
            assert root.tag.endswith("svg")

    def test_final_profile_monotone_on_growth_set(self, run_trace):
        # tall at the clamp, decreasing toward the untouched tail
        h = run_trace.records[-1].h.values
        grown = h > 0.3 + 1e-9
        assert np.all(np.diff(h[grown]) <= 1e-12)

    def test_invalid_index(self, run_trace, tmp_path):
        heights = dict(enumerate(run_trace.heights_by_step()))
        with pytest.raises(DomainError):
            render_profile_svg(run_trace.config.x_centers, heights, [99],
                               str(tmp_path), 20.0)


class TestReadProfile:
    def test_malformed_row(self, tmp_path):
        (tmp_path / "profile.csv").write_text(
            "step,x_center,height\n0,0.05,not-a-number\n")
        with pytest.raises(DomainError):
            read_profile(str(tmp_path))

    def test_empty_body(self, tmp_path):
        (tmp_path / "profile.csv").write_text("step,x_center,height\n")
        with pytest.raises(DomainError):
            read_profile(str(tmp_path))

    def test_wrong_header(self, tmp_path):
        (tmp_path / "profile.csv").write_text("a,b,c\n")
        with pytest.raises(DomainError):
            read_profile(str(tmp_path))
