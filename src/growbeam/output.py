"""Trace serialization (CSV + JSON) and SVG profile/curve rendering.

Numeric text uses 17 significant digits so binary64 values survive a
round-trip exactly; identical traces produce byte-identical files.  Files
are written to a temporary name in the target directory and renamed into
place.

Numbers are formatted a whole array at a time: one ``%`` call over a row
template per table, profile step or polyline, never one call per value.
SVG polylines are drawn at pixel resolution: a run of more than four
consecutive points in one pixel column keeps four of them
(``_pixel_columns``); profile.csv holds the full data.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
import xml.etree.ElementTree as ET

import numpy as np

from .errors import DomainError
from .growth import GrowthTrace

PROFILE_CSV = "profile.csv"
SUMMARY_JSON = "summary.json"
_PROFILE_HEADER = "step,x_center,height"
_PROFILE_ROW = np.dtype([("step", np.int64), ("x", float), ("height", float)])


def _format_rows(columns, spec: str) -> list:
    """One string per row of the equal-length ``columns``: each value written
    with the %-style ``spec`` (``"%.17g"``, ``"%.6g"``), joined by commas.

    All values go through a single ``%`` call, which gives the same text as
    ``format(v, spec[1:])`` value by value.
    """
    table = np.column_stack(columns).astype(float, copy=False)
    row = ",".join([spec] * table.shape[1]) + "\n"
    return (row * table.shape[0] % tuple(table.ravel().tolist())).splitlines()


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _write_atomic(path: str, chunks) -> None:
    """Write the strings of ``chunks`` (an iterable) to ``path`` atomically."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~_umask())
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: str, columns) -> None:
    """Write equal-length float ``columns`` under ``header``, 17 significant
    digits per value."""
    _write_atomic(path, ["\n".join([header, *_format_rows(columns, "%.17g")]) + "\n"])


def write_trace(trace: GrowthTrace, directory: str):
    """Emit profile.csv and summary.json; returns the written paths."""
    os.makedirs(directory, exist_ok=True)
    # the x-centres are formatted once; each step fills its heights into a
    # row template "{step},{x},%.17g" and is written as one string
    cells = [f",{x},%.17g\n" for x in _format_rows([trace.config.x_centers], "%.17g")]

    def profile_text():
        yield _PROFILE_HEADER + "\n"
        for step, values in enumerate(trace.heights_by_step()):
            prefix = str(step)
            yield (prefix + prefix.join(cells)) % tuple(values.tolist())

    profile_path = os.path.join(directory, PROFILE_CSV)
    _write_atomic(profile_path, profile_text())

    summary = {
        "initial": {
            "mass": trace.initial_mass,
            "compliance": trace.initial_compliance,
        },
        "steps": [
            {
                "step": r.index,
                "mass": r.mass,
                "compliance": r.compliance,
                "lambda": r.lam,
                "kkt_residual": r.kkt_residual,
                "growth_fraction": r.growth_fraction,
                "max_increment": r.max_increment,
            }
            for r in trace.records
        ],
    }
    summary_path = os.path.join(directory, SUMMARY_JSON)
    _write_atomic(summary_path, [json.dumps(summary, indent=2, sort_keys=True) + "\n"])
    return [profile_path, summary_path]


def _malformed_profile(path: str, exc: ValueError) -> DomainError:
    """The error for a profile body that np.loadtxt refused, naming the first
    non-blank line that is not ``int,float,float``."""
    with open(path, "r", newline="") as handle:
        for lineno, line in enumerate(handle, start=1):
            if lineno == 1 or not line.strip():
                continue
            try:
                s, x, h = line.strip().split(",")
                int(s), float(x), float(h)
            except ValueError:
                return DomainError(f"{path}:{lineno}: malformed row {line!r}")
    return DomainError(f"{path}: malformed profile ({exc})")


def read_profile(directory: str):
    """Read profile.csv back: (x_centers, {step: heights})."""
    path = os.path.join(directory, PROFILE_CSV)
    with open(path, "r", newline="") as handle:
        header = handle.readline().strip()
    if header != _PROFILE_HEADER:
        raise DomainError(f"unexpected profile header: {header!r}")
    try:
        with warnings.catch_warnings():
            # an empty body is reported below, not warned about
            warnings.simplefilter("ignore", UserWarning)
            # numpy reads a path in large chunks in C; an open file object
            # would be read line by line through Python, twice as slowly
            rows = np.loadtxt(path, dtype=_PROFILE_ROW, delimiter=",", ndmin=1,
                              comments=None, skiprows=1)
    except ValueError as exc:
        raise _malformed_profile(path, exc) from None
    if rows.size == 0:
        raise DomainError(f"{path}: no profile rows")
    order = np.argsort(rows["step"], kind="stable")
    step = rows["step"][order]
    starts = np.flatnonzero(np.diff(step)) + 1
    heights = np.split(rows["height"][order], starts)
    x_centers = rows["x"][order[:len(heights[0])]]
    return x_centers, dict(zip(step[np.r_[0, starts]].tolist(), heights))


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled, deterministic, well-formed XML)
# ---------------------------------------------------------------------------

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 20, 20, 45


def _coord(v):
    return format(float(v), ".6g")


def _pixel_columns(px, py):
    """Mask of the points kept of the polyline through (px[k], py[k]), given
    in pixels.

    A group is a maximal run of consecutive points with the same floor(px).
    A group of at most 4 points is kept whole; a larger one keeps its first,
    min-py, max-py and last point, in their order (M4 aggregation, Jugel et
    al., PVLDB 7(10), 2014), which draws the same line at this width."""
    col = np.floor(px)
    if not np.any(col[4:] == col[:-4]):
        # no 5 consecutive points share a column: every point is kept
        return np.ones(len(px), dtype=bool)
    new = np.r_[True, col[1:] != col[:-1]]
    start = np.flatnonzero(new)
    size = np.diff(np.r_[start, len(px)])
    group = np.cumsum(new) - 1
    keep = np.repeat(size <= 4, size)
    keep[start] = keep[start + size - 1] = True
    for extreme in (np.minimum, np.maximum):
        hit = np.flatnonzero(py == extreme.reduceat(py, start)[group])
        # the first hit of each group: ties leave one point, not a run
        keep[hit[np.r_[True, group[hit[1:]] != group[hit[:-1]]]]] = True
    return keep


class _Frame:
    """Maps data coordinates into the SVG plot box and draws axes.

    ``px`` and ``py`` take scalars or whole arrays; the arithmetic is the
    same either way, so a coordinate maps to the same pixel float."""

    def __init__(self, x_min, x_max, y_min, y_max):
        if y_max <= y_min:
            y_max = y_min + 1.0
        pad = 0.05 * (y_max - y_min)
        self.x0, self.x1 = x_min, x_max
        self.y0, self.y1 = y_min - pad, y_max + pad

    def px(self, x):
        return _ML + (x - self.x0) / (self.x1 - self.x0) * (_W - _ML - _MR)

    def py(self, y):
        return _H - _MB - (y - self.y0) / (self.y1 - self.y0) * (_H - _MT - _MB)

    def points(self, xs, ys) -> str:
        """SVG points string of the polyline through (xs[k], ys[k]), thinned
        to at most 4 points per run in one pixel column."""
        px, py = self.px(xs), self.py(ys)
        keep = _pixel_columns(px, py)
        return " ".join(_format_rows([px[keep], py[keep]], "%.6g"))

    def svg(self, xlabel, ylabel):
        """A new SVG root holding the background, plot box, ticks and labels."""
        root = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                          width=str(_W), height=str(_H),
                          viewBox=f"0 0 {_W} {_H}")
        ET.SubElement(root, "rect", x="0", y="0", width=str(_W), height=str(_H),
                      fill="white")
        ET.SubElement(root, "rect", x=str(_ML), y=str(_MT),
                      width=str(_W - _ML - _MR), height=str(_H - _MT - _MB),
                      fill="none", stroke="black")
        for i in range(5):
            fx = self.x0 + (self.x1 - self.x0) * i / 4
            px = self.px(fx)
            ET.SubElement(root, "line", x1=_coord(px), y1=str(_H - _MB),
                          x2=_coord(px), y2=str(_H - _MB + 5), stroke="black")
            t = ET.SubElement(root, "text", x=_coord(px), y=str(_H - _MB + 18),
                              fill="black")
            t.set("text-anchor", "middle")
            t.set("font-size", "11")
            t.text = format(fx, ".4g")
            fy = self.y0 + (self.y1 - self.y0) * i / 4
            py = self.py(fy)
            ET.SubElement(root, "line", x1=str(_ML - 5), y1=_coord(py),
                          x2=str(_ML), y2=_coord(py), stroke="black")
            t = ET.SubElement(root, "text", x=str(_ML - 8), y=_coord(py + 4),
                              fill="black")
            t.set("text-anchor", "end")
            t.set("font-size", "11")
            t.text = format(fy, ".4g")
        xl = ET.SubElement(root, "text", x=_coord((_ML + _W - _MR) / 2),
                           y=str(_H - 8), fill="black")
        xl.set("text-anchor", "middle")
        xl.set("font-size", "12")
        xl.text = xlabel
        yl = ET.SubElement(root, "text", x="14", y=_coord((_MT + _H - _MB) / 2),
                           fill="black")
        yl.set("text-anchor", "middle")
        yl.set("font-size", "12")
        yl.set("transform",
               f"rotate(-90 14 {_coord((_MT + _H - _MB) / 2)})")
        yl.text = ylabel
        return root


def _polyline(root, points, color, width="1.5", dash=None):
    el = ET.SubElement(root, "polyline", points=points, fill="none", stroke=color)
    el.set("stroke-width", width)
    if dash:
        el.set("stroke-dasharray", dash)


def _write_svg(root, path):
    _write_atomic(path, [ET.tostring(root, encoding="unicode") + "\n"])


def render_profile_svg(x_centers, heights_by_step, step_indices, directory):
    """One SVG per requested step: the filled region {0 <= y <= h_i(x)} plus
    line overlays of every earlier profile.  Returns the written paths.

    The cell width is 2 * x_centers[0] and the span N times it, so a replot
    from ``profile.csv`` draws the same nodes and ticks as the run did."""
    os.makedirs(directory, exist_ok=True)
    available = sorted(heights_by_step)
    for idx in step_indices:
        if idx not in heights_by_step:
            raise DomainError(f"step {idx} not in trace (has {available})")
    if not step_indices:
        return []
    overall_max = max(float(np.max(heights_by_step[i])) for i in step_indices)
    width = 2.0 * float(x_centers[0])
    n = len(x_centers)
    frame = _Frame(0.0, n * width, 0.0, overall_max)
    # a staircase runs (x_j, h_j), (x_{j+1}, h_j) over the cell nodes x_j;
    # every step up to the last requested one is drawn, as a fill or an
    # overlay, and each staircase is formatted once and reused by later SVGs
    stair_x = np.repeat(np.arange(n + 1) * width, 2)[1:-1]
    last = max(step_indices)
    stairs = {step: frame.points(stair_x, np.repeat(heights_by_step[step], 2))
              for step in available if step <= last}
    left, right = _coord(frame.px(0.0)), _coord(frame.px(n * width))
    base = _coord(frame.py(0.0))
    paths = []
    for idx in step_indices:
        root = frame.svg("x [dm]", "height [dm]")
        ET.SubElement(root, "polygon",
                      points=f"{left},{base} {stairs[idx]} {right},{base}",
                      fill="#9ecae1", stroke="none")
        for prev in available:
            if prev >= idx:
                break
            _polyline(root, stairs[prev], "#555555", width="1", dash="4 3")
        _polyline(root, stairs[idx], "#08519c")
        title = ET.SubElement(root, "text", x=str(_ML + 8), y=str(_MT + 16),
                              fill="black")
        title.set("font-size", "12")
        title.text = f"step {idx}"
        path = os.path.join(directory, f"profile_step_{idx}.svg")
        _write_svg(root, path)
        paths.append(path)
    return paths


def render_curve_svg(xs, curves, path, xlabel, ylabel):
    """Plot named curves over a common abscissa (convexity diagnostics)."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    xs = np.asarray(xs, dtype=float)
    y_min = min(float(np.min(ys)) for ys in curves.values())
    y_max = max(float(np.max(ys)) for ys in curves.values())
    frame = _Frame(float(xs[0]), float(xs[-1]), y_min, y_max)
    root = frame.svg(xlabel, ylabel)
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    for k, (name, ys) in enumerate(curves.items()):
        _polyline(root, frame.points(xs, np.asarray(ys, dtype=float)),
                  palette[k % len(palette)])
        label = ET.SubElement(root, "text", x=str(_ML + 8),
                              y=str(_MT + 16 + 14 * k),
                              fill=palette[k % len(palette)])
        label.set("font-size", "11")
        label.text = name
    _write_svg(root, path)
    return path
