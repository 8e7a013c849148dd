"""Trace serialization (CSV + JSON) and SVG profile/curve rendering.

Numeric text uses 17 significant digits so binary64 values survive a
round-trip exactly; identical traces produce byte-identical files.  Files
are written to a temporary name in the target directory and renamed into
place.
"""

from __future__ import annotations

import json
import os
import tempfile
import xml.etree.ElementTree as ET

import numpy as np

from .errors import DomainError
from .growth import GrowthTrace

PROFILE_CSV = "profile.csv"
SUMMARY_JSON = "summary.json"


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~_umask())
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace(trace: GrowthTrace, directory: str):
    """Emit profile.csv and summary.json; returns the written paths."""
    os.makedirs(directory, exist_ok=True)
    xc = trace.config.x_centers

    rows = ["step,x_center,height"]
    for step, values in enumerate(trace.heights_by_step()):
        rows.extend(f"{step},{_fmt(x)},{_fmt(h)}" for x, h in zip(xc, values))
    profile_path = os.path.join(directory, PROFILE_CSV)
    _write_atomic(profile_path, "\n".join(rows) + "\n")

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
    _write_atomic(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return [profile_path, summary_path]


def read_profile(directory: str):
    """Read profile.csv back: (x_centers, {step: heights})."""
    path = os.path.join(directory, PROFILE_CSV)
    steps = {}
    xs = {}
    with open(path, "r", newline="") as handle:
        header = handle.readline().strip()
        if header != "step,x_center,height":
            raise DomainError(f"unexpected profile header: {header!r}")
        for lineno, line in enumerate(handle, start=2):
            try:
                s, x, h = line.strip().split(",")
                step, xv, hv = int(s), float(x), float(h)
            except ValueError:
                raise DomainError(f"{path}:{lineno}: malformed row {line!r}") from None
            steps.setdefault(step, []).append(hv)
            xs.setdefault(step, []).append(xv)
    if not steps:
        raise DomainError(f"{path}: no profile rows")
    first = min(steps)
    x_centers = np.asarray(xs[first])
    return x_centers, {k: np.asarray(v) for k, v in sorted(steps.items())}


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled, deterministic, well-formed XML)
# ---------------------------------------------------------------------------

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 20, 20, 45


def _coord(v):
    return format(float(v), ".6g")


class _Frame:
    """Maps data coordinates into the SVG plot box and draws axes."""

    def __init__(self, root, x_min, x_max, y_min, y_max, xlabel, ylabel):
        if y_max <= y_min:
            y_max = y_min + 1.0
        pad = 0.05 * (y_max - y_min)
        self.x0, self.x1 = x_min, x_max
        self.y0, self.y1 = y_min - pad, y_max + pad
        self.root = root
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

    def px(self, x):
        return _ML + (x - self.x0) / (self.x1 - self.x0) * (_W - _ML - _MR)

    def py(self, y):
        return _H - _MB - (y - self.y0) / (self.y1 - self.y0) * (_H - _MT - _MB)

    def polyline(self, xs, ys, color, width="1.5", dash=None):
        pts = " ".join(f"{_coord(self.px(x))},{_coord(self.py(y))}"
                       for x, y in zip(xs, ys))
        el = ET.SubElement(self.root, "polyline", points=pts, fill="none",
                           stroke=color)
        el.set("stroke-width", width)
        if dash:
            el.set("stroke-dasharray", dash)

    def fill_under(self, xs, ys, color):
        pts = [f"{_coord(self.px(xs[0]))},{_coord(self.py(0.0))}"]
        pts += [f"{_coord(self.px(x))},{_coord(self.py(y))}" for x, y in zip(xs, ys)]
        pts.append(f"{_coord(self.px(xs[-1]))},{_coord(self.py(0.0))}")
        ET.SubElement(self.root, "polygon", points=" ".join(pts), fill=color,
                      stroke="none")


def _staircase(x_centers, heights, length):
    """Piecewise-constant profile as node-based staircase coordinates."""
    n = len(heights)
    delta = length / n
    xs = np.repeat(np.arange(n + 1) * delta, 2)[1:-1]
    ys = np.repeat(heights, 2)
    return xs, ys


def _svg_root():
    root = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                      width=str(_W), height=str(_H),
                      viewBox=f"0 0 {_W} {_H}")
    return root


def _write_svg(root, path):
    _write_atomic(path, ET.tostring(root, encoding="unicode") + "\n")


def render_profile_svg(x_centers, heights_by_step, step_indices, directory,
                       length):
    """One SVG per requested step: the filled region {0 <= y <= h_i(x)} plus
    line overlays of every earlier profile.  Returns the written paths."""
    os.makedirs(directory, exist_ok=True)
    available = sorted(heights_by_step)
    for idx in step_indices:
        if idx not in heights_by_step:
            raise DomainError(f"step {idx} not in trace (has {available})")
    paths = []
    overall_max = max((float(np.max(heights_by_step[i])) for i in step_indices),
                      default=1.0)
    for idx in step_indices:
        root = _svg_root()
        frame = _Frame(root, 0.0, length, 0.0, overall_max, "x [dm]", "height [dm]")
        xs, ys = _staircase(x_centers, heights_by_step[idx], length)
        frame.fill_under(xs, ys, "#9ecae1")
        for prev in available:
            if prev >= idx:
                break
            pxs, pys = _staircase(x_centers, heights_by_step[prev], length)
            frame.polyline(pxs, pys, "#555555", width="1", dash="4 3")
        frame.polyline(xs, ys, "#08519c")
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
    root = _svg_root()
    frame = _Frame(root, float(xs[0]), float(xs[-1]), y_min, y_max, xlabel, ylabel)
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    for k, (name, ys) in enumerate(curves.items()):
        frame.polyline(xs, np.asarray(ys, dtype=float), palette[k % len(palette)])
        label = ET.SubElement(root, "text", x=str(_ML + 8),
                              y=str(_MT + 16 + 14 * k),
                              fill=palette[k % len(palette)])
        label.set("font-size", "11")
        label.text = name
    _write_svg(root, path)
    return path
