import json
import math
import os
import xml.etree.ElementTree as ET
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growbeam as gb
from growbeam import output
from growbeam.errors import DomainError
from growbeam.output import (_format17, _Frame, _pixel_columns, read_profile,
                             render_curve_svg, render_profile_svg, write_csv,
                             write_trace)

# binary64 values whose 17-digit text is easy to get wrong: the smallest
# subnormal, a tiny normal, repeating and inexact decimals, a large integer
SPECIAL_VALUES = (5e-324, 1e-300, 1 / 3, 0.1, 1e16)


def _text17(v):
    return format(float(v), ".17g")


def _text6(v):
    return format(float(v), ".6g")


# The per-point pixel mapping of a 640x400 SVG whose plot box has margins
# left 60, right 20, top 20, bottom 45.
def _scalar_px(frame, x):
    return 60 + (x - frame.x0) / (frame.x1 - frame.x0) * 560


def _scalar_py(frame, y):
    return 355 - (y - frame.y0) / (frame.y1 - frame.y0) * 335


def _column_runs(px):
    """The maximal runs of consecutive points with one floor(px), as ranges."""
    cols = [math.floor(p) for p in px]
    runs, start = [], 0
    for k in range(1, len(cols) + 1):
        if k == len(cols) or cols[k] != cols[start]:
            runs.append(range(start, k))
            start = k
    return runs


def _profile_oracle(x_centers, heights_by_step):
    """profile.csv as a per-value formatter writes it."""
    rows = ["step,x_center,height"]
    for step, values in enumerate(heights_by_step):
        rows += [f"{step},{_text17(x)},{_text17(h)}" for x, h in zip(x_centers, values)]
    return "\n".join(rows) + "\n"


def _trace_of(config, heights_by_step):
    """A GrowthTrace whose profiles are exactly ``heights_by_step``."""
    trace = gb.GrowthTrace(config=config, load=gb.LoadCase(gb.LoadKind.UNIFORM, 0.02),
                           tau=math.inf, mass_mode=gb.MassMode.EQUALITY,
                           ablation=False, h0=gb.HeightField(heights_by_step[0]),
                           initial_mass=0.0, initial_compliance=0.0)
    for i, h in enumerate(heights_by_step[1:], start=1):
        trace.records.append(gb.StepRecord(
            index=i, h=gb.HeightField(h), mass=0.0, compliance=0.0, objective=0.0,
            lam=0.0, growth_fraction=0.0, max_increment=0.0, kkt_residual=0.0))
    return trace


def _special_heights(n_cells, seed, n_steps=len(SPECIAL_VALUES)):
    """Random positive profiles led by the special values, rotated one place
    per step so that even a one-cell grid writes each of them."""
    rng = np.random.default_rng(seed)
    steps = []
    for k in range(n_steps):
        values = rng.uniform(1e-3, 5.0, size=n_cells)
        lead = np.roll(SPECIAL_VALUES, k)[:n_cells]
        values[:len(lead)] = lead
        steps.append(values)
    return steps


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

    def test_failed_write_leaves_no_temporary_and_keeps_the_target(self, tmp_path):
        target = tmp_path / "profile.csv"
        target.write_bytes(b"old bytes\n")

        def chunks():
            yield b"new "
            raise RuntimeError("formatter failed")

        with pytest.raises(RuntimeError, match="formatter failed"):
            output._write_atomic(str(target), chunks())
        assert sorted(os.listdir(tmp_path)) == ["profile.csv"]
        assert target.read_bytes() == b"old bytes\n"

    @pytest.mark.parametrize("n_cells, length, n_steps, block", [
        pytest.param(1, 20.0, 5, None, id="1-20.0"),
        pytest.param(7, 7.3, 5, None, id="7-7.3"),
        pytest.param(601, 1 / 3, 5, None, id="601-0.3333333333333333"),
        # N (S + 1) rows against blocks of 8: one below, at and one above a
        # multiple, one cell over several blocks, a step longer than a block
        pytest.param(3, 7.3, 5, 8, id="rows-2x8-minus-1"),
        pytest.param(4, 7.3, 4, 8, id="rows-2x8"),
        pytest.param(3, 7.3, 11, 8, id="rows-4x8-plus-1"),
        pytest.param(1, 20.0, 17, 8, id="one-cell-17-rows"),
        pytest.param(19, 7.3, 3, 8, id="step-over-blocks"),
        pytest.param(output._BLOCK + 3, 1 / 3, 2, None, id="step-over-a-block"),
    ])
    def test_profile_matches_per_value_formatter(self, n_cells, length, n_steps, block,
                                                 tmp_path, monkeypatch):
        if block is not None:
            monkeypatch.setattr(output, "_BLOCK", block)
        config = gb.BeamConfig(length, 1.0e5, n_cells)
        heights = _special_heights(n_cells, seed=n_cells, n_steps=n_steps)
        write_trace(_trace_of(config, heights), str(tmp_path))
        expected = _profile_oracle(config.x_centers, heights)
        assert (tmp_path / "profile.csv").read_bytes() == expected.encode()

    def test_special_values_round_trip_exact(self, tmp_path):
        config = gb.BeamConfig(1 / 3, 1.0e5, 7)
        heights = _special_heights(7, seed=1)
        write_trace(_trace_of(config, heights), str(tmp_path))
        x_read, steps = read_profile(str(tmp_path))
        assert x_read.tobytes() == config.x_centers.tobytes()
        assert list(steps) == list(range(len(heights)))
        for k, values in enumerate(heights):
            assert steps[k].tobytes() == values.tobytes()


def _text_rows(values):
    """The per-value oracle: one ``format(v, ".17g")`` line per value."""
    return "".join(_text17(v) + "\n" for v in values).encode()


def _formatted(values):
    return _format17(np.asarray(values, dtype=float)).tobytes().translate(None, b"\0")


def _exact_ties():
    """Doubles with 18 significant digits ending in 5, so the 17th digit is
    an exact tie: (2k + 1) / 2^p has p decimals, and just above 10^(17 - p)
    it is a double (2k + 1 < 2^53) with 17 - p integer digits."""
    ties = [(2 * (int(10.0 ** (17 - p) * 2 ** (p - 1)) + i) + 1) / 2 ** p
            for p in range(2, 22) for i in range(1, 4)]
    for t in ties:
        digits = Decimal(t).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, t
    return ties


def _edge_values():
    """Each decade 1e-6 .. 1e18 at 0, +-1 and +-2 ulp, both ends of the
    fixed-point range, exact ties and their tenths, negatives and the
    special values."""
    decades = np.array([float(f"1e{k}") for k in range(-6, 19)])
    near = [decades]
    for direction in (np.inf, 0.0):
        step = decades
        for _ in range(2):
            step = np.nextafter(step, direction)
            near.append(step)
    ends = [np.nextafter(b, d) for b in (1e-4, 1e17) for d in (0.0, np.inf)]
    ties = np.array(_exact_ties())
    values = np.concatenate([*near, ends, ties, ties / 10])
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.0 ** -1022,
               -5e-324, 1.0, 10.0, 100.0, 1e16 + 2, 2.0 ** 53, 123456789.0]
    return np.concatenate([values, -values, special])


class TestFormat17:
    def test_edge_values_match_format(self):
        values = _edge_values()
        assert _formatted(values) == _text_rows(values)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(0, 2 ** 64 - 1),
        # the same patterns with the exponent in the fixed-point range
        st.integers(int(np.float64(1e-5).view(np.int64)),
                    int(np.float64(1e18).view(np.int64))),
    ), min_size=1, max_size=64), st.lists(st.booleans(), min_size=64, max_size=64))
    def test_raw_bit_patterns_match_format(self, bits, signs):
        signs = np.array(signs[:len(bits)], np.uint64) << 63
        patterns = np.array(bits, dtype=np.uint64) | signs
        values = patterns.view(np.float64)
        assert _formatted(values) == _text_rows(values)

    @pytest.mark.parametrize("values", [
        [], [0.3] * 3, [1234.5, 1200.0, 10.0], [-1e16, 1e-4, 99999999999999984.0],
        [5e-4, 0.00123, -0.0099],
    ])
    def test_margin_and_end(self, values):
        rows = _format17(np.asarray(values, dtype=float), margin=2, end=44)
        assert rows.shape[0] == len(values)
        assert not rows[:, :2].any() and (rows[:, -1] == 44).all()
        text = rows.tobytes().translate(None, b"\0")
        assert text == "".join(_text17(v) + "," for v in values).encode()


class TestWriteCsv:
    def test_matches_per_value_formatter(self, tmp_path):
        rng = np.random.default_rng(3)
        columns = [np.linspace(1.0, 6.0, 10), rng.normal(size=10),
                   np.array([*SPECIAL_VALUES, *(-v for v in SPECIAL_VALUES)]),
                   np.array([-0.0, 0.0, np.inf, -np.inf, 1e308, 1.5e-323,
                             123456789.0, 1e-5, 1e17, 0.5])]
        path = tmp_path / "table.csv"
        write_csv(str(path), "a,b,c,d", columns)
        rows = ["a,b,c,d"] + [",".join(map(_text17, row)) for row in zip(*columns)]
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


class TestRenderSvg:
    def test_empty_step_list(self, run_trace, tmp_path):
        heights = dict(enumerate(run_trace.heights_by_step()))
        out = render_profile_svg(run_trace.config.x_centers, heights, [],
                                 str(tmp_path / "plots"))
        assert out == []

    def test_files_and_well_formed_xml(self, run_trace, tmp_path):
        heights = dict(enumerate(run_trace.heights_by_step()))
        out = render_profile_svg(run_trace.config.x_centers, heights, [0, 5, 10],
                                 str(tmp_path))
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
                               str(tmp_path))

    @pytest.mark.parametrize("idx", [-1, -11, 11])
    def test_index_outside_the_list_is_refused(self, run_trace, tmp_path, idx):
        # a list would otherwise draw step 10 for -1
        message = rf"step {idx} not in trace \(has steps 0\.\.10\)"
        with pytest.raises(DomainError, match=message):
            render_profile_svg(run_trace.config.x_centers, run_trace.heights_by_step(),
                               [idx], str(tmp_path))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("bounds", [(0.0, 20.0, 0.0, 1.7), (1.0, 6.0, -3.2, 0.4),
                                        (0.0, 1e-3, 5.0, 5.0)])
    def test_frame_points_match_scalar_mapping(self, bounds):
        rng = np.random.default_rng(7)
        frame = _Frame(*bounds)
        # the extremes reach the exponent forms of "%.6g"
        extremes = [0.0, -0.0, 5e-324, 1e-300, 1e9, -1e9, 1 / 3]
        xs = np.concatenate([rng.uniform(bounds[0], bounds[1], 200), extremes])
        ys = np.concatenate([rng.uniform(bounds[2], bounds[3] + 1.0, 200), extremes[::-1]])
        px = [_scalar_px(frame, x) for x in xs.tolist()]
        py = [_scalar_py(frame, y) for y in ys.tolist()]
        assert frame.px(xs).tolist() == px
        assert frame.py(ys).tolist() == py
        expected = " ".join(f"{_text6(x)},{_text6(y)}" for x, y in zip(px, py))
        assert frame.points(xs, ys) == expected

    def test_profile_svg_matches_scalar_staircase(self, run_trace, tmp_path):
        heights = dict(enumerate(run_trace.heights_by_step()))
        length, idx = 20.0, 4
        (path,) = render_profile_svg(run_trace.config.x_centers, heights, [idx],
                                     str(tmp_path))
        frame = _Frame(0.0, length, 0.0, float(np.max(heights[idx])))
        n = run_trace.config.n_cells
        nodes = np.arange(n + 1) * (length / n)

        def staircase(h):
            xs = np.repeat(nodes, 2)[1:-1].tolist()
            return " ".join(f"{_text6(_scalar_px(frame, x))},{_text6(_scalar_py(frame, y))}"
                            for x, y in zip(xs, np.repeat(h, 2).tolist()))

        svg = "{http://www.w3.org/2000/svg}"
        root = ET.parse(path).getroot()
        # overlays of steps 0..idx-1, then the step's own outline
        lines = [el.get("points") for el in root.iter(svg + "polyline")]
        assert lines == [staircase(heights[k]) for k in range(idx + 1)]
        base = _text6(_scalar_py(frame, 0.0))
        (fill,) = [el.get("points") for el in root.iter(svg + "polygon")]
        assert fill == (f"{_text6(_scalar_px(frame, nodes[0]))},{base} "
                        f"{staircase(heights[idx])} "
                        f"{_text6(_scalar_px(frame, nodes[-1]))},{base}")

    # n = 2600 puts 4 or 5 points in each column of the sorted abscissae
    @pytest.mark.parametrize("n", [1000, 2600, 10_000, 20_000])
    @pytest.mark.parametrize("shape", ["random", "monotone", "oscillating", "unsorted_x"])
    def test_thinning_keeps_the_picture(self, shape, n):
        rng = np.random.default_rng(n)
        xs = np.linspace(0.0, 20.0, n)
        ys = {"random": rng.uniform(-1.0, 1.0, n),
              "monotone": np.linspace(-1.0, 1.0, n),
              "oscillating": np.sin(np.linspace(0.0, 400 * np.pi, n)),
              "unsorted_x": rng.uniform(-1.0, 1.0, n)}[shape]
        if shape == "unsorted_x":
            # back and forth across the box: each column is visited by
            # several runs, and runs are long where x turns
            xs = 10.0 + 10.0 * np.sin(np.linspace(0.0, 7 * np.pi, n))
        frame = _Frame(0.0, 20.0, -1.0, 1.0)
        px, py = frame.px(xs), frame.py(ys)
        keep = np.flatnonzero(_pixel_columns(px, py))
        full = [f"{_text6(x)},{_text6(y)}" for x, y in zip(px.tolist(), py.tolist())]
        assert frame.points(xs, ys).split(" ") == [full[k] for k in keep]
        if shape != "unsorted_x":
            assert len(keep) <= 4 * 561
        kept = set(keep.tolist())
        for run in _column_runs(px.tolist()):
            mine = [k for k in run if k in kept]
            if len(run) <= 4:
                assert mine == list(run)
                continue
            assert len(mine) <= 4
            assert (mine[0], mine[-1]) == (run[0], run[-1])
            assert py[mine].min() == py[run.start:run.stop].min()
            assert py[mine].max() == py[run.start:run.stop].max()

    def test_fine_staircase_at_most_four_points_per_column(self, tmp_path):
        n = 20_000
        rng = np.random.default_rng(3)
        x_centers = (np.arange(n) + 0.5) * (20.0 / n)
        heights = {0: np.full(n, 0.3), 1: 0.3 + rng.uniform(0.0, 1.0, n)}
        (path,) = render_profile_svg(x_centers, heights, [1], str(tmp_path))
        svg = "{http://www.w3.org/2000/svg}"
        root = ET.parse(path).getroot()
        flat, line = [el.get("points").split(" ") for el in root.iter(svg + "polyline")]
        (fill,) = [el.get("points").split(" ") for el in root.iter(svg + "polygon")]
        assert fill[1:-1] == line
        assert len(line) <= 4 * 561
        # a flat column ties min and max with its first point
        assert len(flat) <= 2 * 561
        frame = _Frame(0.0, 20.0, 0.0, float(np.max(heights[1])))
        for points, h in ((flat, heights[0]), (line, heights[1])):
            assert points[0] == f"{_text6(frame.px(0.0))},{_text6(frame.py(h[0]))}"
            assert points[-1] == f"{_text6(frame.px(20.0))},{_text6(frame.py(h[-1]))}"

    def test_curve_names_and_labels_are_escaped(self, tmp_path):
        curves = {"a & b": [0.0, 1.0, 0.0], "<f**>": [1.0, 2.0, 3.0]}
        path = render_curve_svg([0.0, 1.0, 2.0], curves, str(tmp_path / "c.svg"),
                                "x <dm>", "R&D > 0")
        raw = open(path, encoding="utf-8").read()
        assert "a &amp; b" in raw and "&lt;f**&gt;" in raw
        assert "x &lt;dm&gt;" in raw and "R&amp;D &gt; 0" in raw
        root = ET.parse(path).getroot()
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        # ten tick labels, the two axis labels, then one name per curve
        assert texts[10:] == ["x <dm>", "R&D > 0", "a & b", "<f**>"]


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

    @staticmethod
    def _write(tmp_path, rows):
        (tmp_path / "profile.csv").write_text(
            "step,x_center,height\n" + "".join(row + "\n" for row in rows))

    def test_malformed_row_mid_file_names_its_line(self, tmp_path):
        rows = [f"{step},{x},0.3" for step in range(3) for x in (0.5, 1.5)]
        rows[3] = "1,1.5,0.3x"
        self._write(tmp_path, rows)
        with pytest.raises(DomainError, match=r"profile\.csv:5: malformed row '1,1\.5,0\.3x"):
            read_profile(str(tmp_path))

    @pytest.mark.parametrize("bad", ["1.5,0.5,0.3", "1,0.5", "1,0.5#,0.3",
                                     "1,0.5,0.3,0.3", "1,0.5,"],
                             ids=["non-integer step", "two fields", "hash in field",
                                  "four fields", "empty field"])
    def test_bad_row_names_its_line(self, tmp_path, bad):
        self._write(tmp_path, ["0,0.5,0.3", "0,1.5,0.3", bad, "1,1.5,0.3"])
        with pytest.raises(DomainError, match=r"profile\.csv:4: malformed row"):
            read_profile(str(tmp_path))

    def test_blank_body(self, tmp_path):
        self._write(tmp_path, ["", ""])
        with pytest.raises(DomainError, match="no profile rows"):
            read_profile(str(tmp_path))

    def test_steps_grouped_in_step_order(self, tmp_path):
        # every row of a 2-cell, 3-step profile, but not in write_trace's
        # layout: refused, not sorted
        self._write(tmp_path, ["2,0.5,3.0", "0,0.5,1.0", "2,1.5,3.5",
                               "1,0.5,2.0", "0,1.5,1.5", "1,1.5,2.5"])
        with pytest.raises(DomainError, match=r"profile\.csv: step 2 where step 0 should "
                                              r"begin; steps must run 0, 1, 2, \.\.\. in "
                                              r"file order"):
            read_profile(str(tmp_path))

    @pytest.mark.parametrize("steps, first_bad", [
        ([1, 1, 2, 2], "step 1 where step 0"),
        ([0, 0, 2, 2], "step 2 where step 1"),
        ([0, 0, 1, 1, 0, 0], "step 0 where step 2"),
    ], ids=["first-step-not-0", "skipped-step", "step-repeated"])
    def test_misplaced_step_is_named(self, tmp_path, steps, first_bad):
        self._write(tmp_path, [f"{s},{0.5 + k % 2},0.3" for k, s in enumerate(steps)])
        with pytest.raises(DomainError, match=first_bad):
            read_profile(str(tmp_path))

    def test_heights_are_rows_of_one_array(self, run_trace, tmp_path):
        write_trace(run_trace, str(tmp_path))
        x_centers, steps = read_profile(str(tmp_path))
        assert list(steps) == list(range(11))
        assert all(type(k) is int for k in steps)
        block = steps[0].base
        assert block.shape == (11, run_trace.config.n_cells) and block.flags.c_contiguous
        assert all(steps[k].base is block for k in steps)
        assert x_centers.flags.c_contiguous and x_centers.base is None
