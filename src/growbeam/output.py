"""Trace serialization (CSV + JSON) and SVG profile/curve rendering.

Numeric text uses 17 significant digits so binary64 values survive a
round-trip exactly; identical traces produce byte-identical files.  Files
are written to a temporary name in the target directory and renamed into
place; every JSON file goes through ``write_json``.

``_format17`` writes ``format(v, ".17g")`` for a whole array with exact
integer arithmetic in numpy (per value outside [1e-4, 1e17)); profile.csv
goes through it ``_BLOCK`` rows at a time.  Each SVG is text from one
template (``_Frame.write``) with ``&``, ``<`` and ``>`` escaped in caller
text; polylines take one ``%`` call each and are drawn at pixel resolution:
a run of more than four consecutive points in one pixel column keeps four
of them (``_pixel_columns``); profile.csv holds the full data.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings

import numpy as np

from .errors import DomainError
from .growth import GrowthTrace

PROFILE_CSV = "profile.csv"
SUMMARY_JSON = "summary.json"
_PROFILE_HEADER = "step,x_center,height"
_PROFILE_ROW = np.dtype([("step", np.int64), ("x", float), ("height", float)])
_BLOCK = 4096       # profile.csv rows per numpy pass
# ASCII of 0000..9999 as uint32, then again with trailing zeros as NUL
_DIGITS = np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1],
                                                                 np.uint16) % 10 + 48
_GROUPS = np.concatenate([_DIGITS, _DIGITS * np.logical_or.accumulate(
    _DIGITS[:, ::-1] > 48, axis=1)[:, ::-1]]).astype(np.uint8).view(np.uint32).ravel()
del _DIGITS
_POW10 = np.array([float(10 ** s) for s in range(21)])          # exact
_DECADES = np.array([float(f"1e{k}") for k in range(-5, 18)])  # >= 10^k


def _split(a):
    """Veltkamp's split a = hi + lo into halves of at most 26 bits."""
    hi = a * 134217729.0 - (a * 134217729.0 - a)
    return hi, a - hi


def _format17(values, margin: int = 0, end: int = 10) -> np.ndarray:
    """Row k: ``margin`` columns for the caller, ``format(values[k], ".17g")``
    in ASCII, then the byte ``end``; NUL bytes anywhere are padding.

    For |v| in [1e-4, 1e17) (fixed-point text), X = floor(log10 |v|) comes
    from the exponent bits, and v * 10^(16 - X) = hi + lo exactly (Dekker's
    product).  hi is an even integer above 2^53, so hi + rint(lo) is the
    17-digit integer rounded half to even; no double lies close enough
    below a power of ten for it to carry to 18 digits.
    """
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    a[~fast] = 1.0
    x = (((a.view(np.int64) >> 52) - 1023) * 78913) >> 18  # e2 * log10(2) floored
    x += a >= _DECADES[x + 6]
    p = _POW10[16 - x]
    (a_hi, a_lo), (p_hi, p_lo), hi = _split(a), _split(p), a * p
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    lo_x, hi_x = int(x.min(initial=0)), int(x.max(initial=0))   # slow rows: X = 0
    base = 1 + max(0, -lo_x)            # the column of the units digit
    slow = np.flatnonzero(~fast)
    texts = [format(v[i], ".17g").encode() for i in slow.tolist()]
    width = max([base + 19, *map(len, texts)])
    out = np.zeros((len(v), margin + width + 1), np.uint8)
    out[:, -1] = end
    text = out[:, margin:-1]
    # each digit first as a fraction digit, digit i in column base + 1 + i
    # after '0's; four at a time, from the table's second half when only
    # zero groups follow
    for j in range(lo_x, 1):
        text[:, base + j] = 48
    groups = np.ndarray((len(v), 4), np.uint32, out.reshape(-1)[margin + base + 2:],
                        strides=(out.shape[1], 4))
    tail = np.full(len(v), 10000)
    for k in range(3, -1, -1):
        rest = d // 10 ** 4
        group = d - rest * 10 ** 4
        groups[:, k] = _GROUPS[group + tail]
        tail *= group == 0
        d = rest
    text[:, base + 1] = d + 48
    if hi_x > 0:                    # integer digits are kept, zeros or not
        big = np.flatnonzero(x > 0)
        text[big, base + 2:base + 18] |= np.uint8(48) * (np.arange(1, 17) <= x[big, None])
    # then digits 0..X move one column left and '.' takes column X + 1 (if
    # a digit follows); below 1, "0.0..." leads
    for j in range(lo_x, hi_x + 2):
        right = text[:, base + j + 1]
        col = np.where(j <= x, right,
                       np.where(j == x + 1, 46 * (right > 0), text[:, base + j]))
        text[:, base + j] = col if j >= 0 else col * (j >= x)
    neg = v < 0
    if neg.any():
        text[:, 0] = 45 * neg
    if texts:
        text[slow] = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts),
                                   np.uint8).reshape(-1, width)
    return out


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _write_atomic(path: str, chunks) -> None:
    """Write the bytes of ``chunks`` (an iterable) to ``path`` atomically."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~_umask())
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: str, columns) -> None:
    """Write equal-length float ``columns`` under ``header``, 17 significant
    digits per value."""
    rows = np.concatenate([_format17(c, end=44) for c in columns], axis=1)
    rows[:, -1] = 10
    _write_atomic(path, [header.encode() + b"\n", rows.tobytes().translate(None, b"\0")])


def write_json(path: str, value) -> None:
    """Write ``value`` as JSON, indented by 2 with sorted keys, and a newline."""
    _write_atomic(path, [(json.dumps(value, indent=2, sort_keys=True) + "\n").encode()])


def _profile_blocks(trace: GrowthTrace):
    """profile.csv as bytes, ``_BLOCK`` rows (which may span steps) at a time."""
    heights = trace.heights_by_step()
    xs = _format17(trace.config.x_centers, end=44)      # "x," once per cell
    n, ws = len(xs), len(str(len(heights) - 1)) + 1
    total = n * len(heights)
    yield (_PROFILE_HEADER + "\n").encode()
    for start in range(0, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        parts = [(k, max(start - k * n, 0), min(stop - k * n, n))
                 for k in range(start // n, (stop - 1) // n + 1)]
        values = np.concatenate([heights[k][i:j] for k, i, j in parts])
        bits = values.view(np.uint64)   # a run of equal heights is formatted once
        first = np.r_[True, bits[1:] != bits[:-1]]
        rows = _format17(values[first], ws + xs.shape[1]).take(np.cumsum(first) - 1, axis=0)
        r = 0
        for k, i, j in parts:
            rows[r:r + j - i, :ws] = np.frombuffer(f"{k},".encode().ljust(ws, b"\0"), np.uint8)
            rows[r:r + j - i, ws:ws + xs.shape[1]] = xs[i:j]
            r += j - i
        yield rows.tobytes().translate(None, b"\0")


def write_trace(trace: GrowthTrace, directory: str):
    """Emit profile.csv and summary.json; returns the written paths."""
    os.makedirs(directory, exist_ok=True)
    profile_path = os.path.join(directory, PROFILE_CSV)
    _write_atomic(profile_path, _profile_blocks(trace))

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
    write_json(summary_path, summary)
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
    """Read profile.csv back as ``write_trace`` writes it: steps 0, 1, ..., S in
    file order, each with step 0's x in the same order.  Returns (x_centers,
    {step: heights}), the heights being the rows of one (S + 1, N) array."""
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
    step = rows["step"]
    firsts = np.r_[0, np.flatnonzero(step[1:] != step[:-1]) + 1]
    misplaced = np.flatnonzero(step[firsts] != np.arange(firsts.size))
    if misplaced.size:
        k = misplaced[0]
        raise DomainError(f"{path}: step {step[firsts[k]]} where step {k} should begin; "
                          "steps must run 0, 1, 2, ... in file order")
    sizes = np.diff(np.r_[firsts, step.size])
    ragged = np.flatnonzero(sizes != sizes[0])
    if ragged.size:
        k = ragged[0]
        raise DomainError(f"{path}: step {k} has {sizes[k]} rows, step 0 has {sizes[0]}")
    x_bits = rows["x"].view(np.uint64).reshape(firsts.size, sizes[0])
    mismatched = np.flatnonzero((x_bits != x_bits[0]).any(axis=1))
    if mismatched.size:
        raise DomainError(f"{path}: step {mismatched[0]} has other x-centres than step 0")
    heights = np.ascontiguousarray(rows["height"].reshape(x_bits.shape))
    return rows["x"][:sizes[0]].copy(), dict(enumerate(heights))


# ---------------------------------------------------------------------------
# SVG rendering: text from one template, deterministic, well-formed XML
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
    """Maps data coordinates into the SVG plot box and writes the document.

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
        xy = np.column_stack([px[keep], py[keep]]).ravel().tolist()
        return ("%.6g,%.6g " * (len(xy) // 2) % tuple(xy))[:-1]   # one % call

    def write(self, path, xlabel, ylabel, body):
        """Write the SVG document at ``path``: background, plot box, ticks
        and the axis labels, then the element strings of ``body``."""
        def parts():
            yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
                   f'viewBox="0 0 {_W} {_H}"><rect x="0" y="0" width="{_W}" height="{_H}" '
                   f'fill="white" /><rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                   f'height="{_H - _MT - _MB}" fill="none" stroke="black" />')
            for i in range(5):
                fx = self.x0 + (self.x1 - self.x0) * i / 4
                fy = self.y0 + (self.y1 - self.y0) * i / 4
                px, py = _coord(self.px(fx)), self.py(fy)
                yield (f'<line x1="{px}" y1="{_H - _MB}" x2="{px}" y2="{_H - _MB + 5}" '
                       f'stroke="black" /><text x="{px}" y="{_H - _MB + 18}" fill="black" '
                       f'text-anchor="middle" font-size="11">{fx:.4g}</text><line '
                       f'x1="{_ML - 5}" y1="{_coord(py)}" x2="{_ML}" y2="{_coord(py)}" '
                       f'stroke="black" /><text x="{_ML - 8}" y="{_coord(py + 4)}" '
                       f'fill="black" text-anchor="end" font-size="11">{fy:.4g}</text>')
            mid = _coord((_MT + _H - _MB) / 2)
            yield (f'<text x="{_coord((_ML + _W - _MR) / 2)}" y="{_H - 8}" fill="black" '
                   f'text-anchor="middle" font-size="12">{_escape(xlabel)}</text><text '
                   f'x="14" y="{mid}" fill="black" text-anchor="middle" font-size="12" '
                   f'transform="rotate(-90 14 {mid})">{_escape(ylabel)}</text>')
            yield from body
            yield "</svg>\n"
        _write_atomic(path, (part.encode() for part in parts()))


def _escape(text):
    """``xml.sax.saxutils.escape`` without its import of urllib.request."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_profile_svg(x_centers, heights_by_step, step_indices, directory):
    """One SVG per requested step, ``heights_by_step[k]`` being step k's
    profile (k = 0..len - 1): the filled region {0 <= y <= h_i(x)} plus line
    overlays of every earlier profile.  Returns the written paths.

    The cell width is 2 * x_centers[0] and the span N times it, so a replot
    from ``profile.csv`` draws the same nodes and ticks as the run did."""
    os.makedirs(directory, exist_ok=True)
    count = len(heights_by_step)
    for idx in step_indices:
        if not 0 <= idx < count:
            raise DomainError(f"step {idx} not in trace (has steps 0..{count - 1})")
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
    stairs = [frame.points(stair_x, np.repeat(heights_by_step[step], 2))
              for step in range(max(step_indices) + 1)]
    left, right = _coord(frame.px(0.0)), _coord(frame.px(n * width))
    base = _coord(frame.py(0.0))

    def body(idx):
        yield (f'<polygon points="{left},{base} {stairs[idx]} {right},{base}" '
               'fill="#9ecae1" stroke="none" />')
        for prev in range(idx):
            yield (f'<polyline points="{stairs[prev]}" fill="none" stroke="#555555" '
                   'stroke-width="1" stroke-dasharray="4 3" />')
        yield (f'<polyline points="{stairs[idx]}" fill="none" stroke="#08519c" '
               f'stroke-width="1.5" /><text x="{_ML + 8}" y="{_MT + 16}" fill="black" '
               f'font-size="12">step {idx}</text>')

    paths = [os.path.join(directory, f"profile_step_{idx}.svg") for idx in step_indices]
    for idx, path in zip(step_indices, paths):
        frame.write(path, "x [dm]", "height [dm]", body(idx))
    return paths


def render_curve_svg(xs, curves, path, xlabel, ylabel):
    """Plot named curves over a common abscissa (convexity diagnostics)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    xs = np.asarray(xs, dtype=float)
    y_min = min(float(np.min(ys)) for ys in curves.values())
    y_max = max(float(np.max(ys)) for ys in curves.values())
    frame = _Frame(float(xs[0]), float(xs[-1]), y_min, y_max)
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    body = []
    for k, (name, ys) in enumerate(curves.items()):
        color = palette[k % len(palette)]
        points = frame.points(xs, np.asarray(ys, dtype=float))
        body.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5" /><text x="{_ML + 8}" y="{_MT + 16 + 14 * k}" '
                    f'fill="{color}" font-size="11">{_escape(name)}</text>')
    frame.write(path, xlabel, ylabel, body)
    return path
