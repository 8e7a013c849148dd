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

``read_profile`` reads profile.csv back ``_CHUNK`` bytes at a time, the
inverse of ``_format17``: rows and commas are found with numpy, and each
decimal field is read as the integer of its digits (8 at a time in an
int64 word, ``_digits``) and rounded once to the nearest double
(``_nearest``).  Any other line goes through ``int`` and ``float``.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import DomainError
from .growth import GrowthTrace

PROFILE_CSV = "profile.csv"
SUMMARY_JSON = "summary.json"
_PROFILE_HEADER = "step,x_center,height"
_BLOCK = 4096       # profile.csv rows per numpy pass when written
_CHUNK = 1 << 17    # profile.csv bytes per numpy pass when read
_PAD = b"0" * 24    # before a chunk, so that 3 words end at every field's end
# SWAR on little-endian int64 words, a text's first byte lowest
_C = 0x0101010101010101                     # 1 in each byte
_HIGH = 0x80 * _C - 2 ** 64                 # 0x80 in each byte, as an int64
_BYTES = np.array([[24], [16], [8]])        # from word j's first byte to the end
# times a 1 at byte b of word j, its top byte is 23 - 8 j - b: the digits after it
_AFTER = np.array([[16], [8], [0]]) * _C + 0x0706050403020100
# digit pairs, then groups of 4, then of 8, each as one integer
_SWAR = ((2561, 8, 0x00FF00FF00FF00FF), (6553601, 16, 0x0000FFFF0000FFFF),
         (42949672960001, 32, 0xFFFFFFFF))
_P10 = np.array([10 ** q for q in range(19)])
_UP10 = np.r_[0, _P10[1:] - _P10[:-1]]      # 10^q - 10^(q - 1)
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


def _product(a, b):
    """a * b = hi + lo exactly (Dekker's product)."""
    (a_hi, a_lo), (b_hi, b_lo), hi = _split(a), _split(b), a * b
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


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
    hi, lo = _product(a, p)
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


def _window(buf, end, size, n):
    """The ``n`` little-endian int64 words that end before byte ``end`` of
    ``buf``, all but their last ``size`` bytes cleared, as an (n, len(end))
    array; and the bits cleared in each."""
    clear = np.minimum(np.maximum(_BYTES[-n:] - size, 0), 8) * 8
    rows = np.ndarray((len(buf) - 8 * n + 1,), f"V{8 * n}", buf, strides=(1,))
    w = np.ascontiguousarray(rows[end - 8 * n].view("<i8").reshape(-1, n).T)
    w >>= clear
    w <<= clear
    return w, clear


def _digits(w, clear):
    """Each word's 8 ASCII digits as an integer, by three multiply-shift
    steps (SWAR, Lemire 2021), and the mask of texts whose uncleared bytes
    are all digits."""
    w -= 0x30 * _C >> clear << clear
    ok = ~(((w + 0x76 * _C) | w) & _HIGH).any(0)
    for mul, shift, mask in _SWAR:
        w *= mul
        w >>= shift
        w &= mask
    return w, ok


def _nearest(d, f):
    """The double nearest d / 10^f (0 <= d < 10^17, f <= 20), ties to even.

    v = fl(fl(d) / 10^f) is within 1.5 ulp of it; the exact residual
    d - v 10^f (Clinger 1990) then keeps v or takes a neighbour."""
    p = _POW10[f]
    v = d.astype(float) / p
    hi, lo = _product(v, p)
    low = d - (d >> 4 << 4)                     # d - low and low are exact doubles
    r = ((d - low).astype(float) - hi) + low    # r - lo = d - v p, exactly
    bits = v.view(np.int64)
    half = ((np.maximum(bits >> 52, 53) - 53) << 52).view(float) * p  # ulp(v) p / 2
    below = half * np.where(bits << 12 == 0, 0.5, 1.0)                 # v a power of 2
    odd = bits & 1 == 1
    up = (r - half > lo) | (r - half == lo) & odd
    down = (r + below < lo) | (r + below == lo) & odd
    return (bits + up - down).view(float)


def _values(buf, end, size):
    """(values, ok) of the texts of ``size`` bytes ending before byte
    ``end``: an optional '-', then digits with at most one '.'.  ``ok``
    marks the texts read here: at most 24 bytes after the sign, 17
    significant digits, 20 after the point.  Elsewhere the value is 0."""
    size = np.maximum(size, 0)
    neg = np.frombuffer(buf, np.uint8)[end - size] == 45
    size = size - neg
    w, clear = _window(buf, end, size, 3)
    x = w ^ 0x2E * _C                                           # '.' -> 0
    dot = ~((x & 0x7F * _C) + 0x7F * _C | x) >> 7 & _C          # 1 where '.' was
    w += 2 * dot                                                # '.' -> '0'
    dots = dot.sum(0) * _C >> 56
    f = (dot * _AFTER).sum(0) >> 56                             # digits after '.'
    w, ok = _digits(w, clear)
    d = (w[0] * 10 ** 8 + w[1]) * 10 ** 8 + w[2]
    q = np.minimum((f + 1) * dots, 18)                          # drop the '0' at '.'
    d -= d // _P10[q] * _UP10[q]
    ok &= (size <= 24) & (size > dots) & (dots <= 1) & (w[0] < 100) & (d < 10 ** 17) \
        & (f <= 20)
    v = _nearest(d * ok, f * ok)
    return np.where(neg, -v, v), ok


def _row(line: bytes):
    """(step, x, height) of one line by ``int`` and ``float`` (ASCII, no
    '_'), or None: the lane for a line the word parse does not take."""
    fields = line.split(b",")
    try:
        if len(fields) == 3 and line.isascii() and b"_" not in line \
                and -2 ** 63 <= (step := int(fields[0])) < 2 ** 63:
            return step, float(fields[1]), float(fields[2])
    except ValueError:
        pass
    return None


def _last_step(handle, body: int, size: int) -> int:
    """The step of the file's last line that is not blank, or -1."""
    for begin in (max(body, size - 4096), body):
        handle.seek(begin)
        lines = handle.read().replace(b"\r", b"\n").split(b"\n")[begin > body:]
        line = next((line for line in reversed(lines) if line), None)
        if line is not None or begin == body:
            return (_row(line or b"") or (-1,))[0]


class _Profile:
    """profile.csv's rows, fed as whole lines a chunk at a time.

    Step 0's rows give N, x_centers and step 0's x texts (3 words and a
    length per cell); a later row's x is parsed only where its text differs
    from its cell's.  Heights go into one (S + 1, N) array, S being the
    last line's step.  A malformed line is refused at once, the layout
    faults at the end, in ``read_profile``'s order."""

    def __init__(self, path, last, limit):
        self.path, self.last, self.limit = path, last, limit
        self.lines, self.rows = 1, 0    # lines before the chunk (with the header), rows
        self.sizes = []                 # rows of steps 0, 1, ... while in order
        self.misplaced = self.mismatched = self.x = self.heights = None
        self.first = []                 # step 0 so far: (windows, lengths, x, heights)

    def feed(self, buf, tail=0):
        """Take ``_PAD`` and then whole lines, each ending in a newline, the
        last ``tail`` bytes not from the file."""
        if b"\r" in buf:                        # a CR, alone or before LF, ends a line
            buf = buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        a = np.frombuffer(buf, np.uint8)
        delim = np.flatnonzero(a <= 44)         # ',' and newline, or a byte for _row
        kind = a[delim]
        ends = np.flatnonzero(kind == 10)
        i1, i2 = np.maximum(ends - 2, 0), np.maximum(ends - 1, 0)
        nl, c1, c2 = delim[ends], delim[i1], delim[i2]
        start = np.concatenate(([len(_PAD) - 1], nl[:-1])) + 1
        w, ok = _digits(*_window(buf, c1, c1 - start, 1))
        steps, size = w[0], c2 - c1 - 1
        heights, h_ok = _values(buf, nl, nl - c2 - 1)
        lane = ~(ok & h_ok & (c1 > start) & (c1 - start <= 8)
                 & (kind[i1] + kind[i2] == 88)                 # ',' ',' newline
                 & (ends - np.concatenate(([-1], ends[:-1])) == 3))
        xs, fail = {}, len(nl)

        def row(i):                 # line i by _row; a malformed line is refused
            if (r := _row(buf[start[i]:nl[i]])) is None:
                line = buf[start[i]:min(nl[i] + 1, len(buf) - tail)]
                raise DomainError(f"{self.path}:{self.lines + i + 1}: malformed row "
                                  f"{line.decode(errors='replace')!r}")
            return r

        def parse_x(i):             # x of the rows i; row() takes what _values does not
            x, ok = _values(buf, c2[i], size[i])
            for k in np.flatnonzero(~ok | lane[i]).tolist():
                x[k] = xs[i[k]] if i[k] in xs else row(i[k])[1]
            return x, ok & ~lane[i]

        for i in np.flatnonzero(lane).tolist():
            try:
                if start[i] < nl[i]:            # not a blank line
                    steps[i], xs[i], heights[i] = row(i)
            except DomainError:
                fail = i
                break
        rows, r0 = np.flatnonzero(start[:fail] < nl[:fail]), self.rows
        self._runs(steps[rows])
        n = self.sizes[0] if len(self.sizes) > 1 else None
        head = len(rows) if n is None or self.misplaced else max(n - r0, 0)
        first, later = rows[:head], rows[head:]
        if head:
            x, ok = parse_x(first)
            if not self.misplaced:
                self.first.append((_window(buf, c2[first], size[first], 3)[0],
                                   np.where(ok & (size[first] <= 24), size[first], -1),
                                   x, heights[first]))
        if n and self.heights is None and not self.misplaced:
            self._allocate(n)
        if later.size:                          # each x against its cell's
            cells = r0 + np.arange(head, len(rows))
            windows, lengths, x0 = self.x
            other = lane[later] | (size[later] != lengths.take(cells, mode="wrap")) | (
                _window(buf, c2[later], size[later], 3)[0]
                != windows.take(cells, axis=1, mode="wrap")).any(0)
            if other.any():
                cells = cells[other][parse_x(later[other])[0].view(np.int64)
                                     != x0.take(cells[other], mode="wrap").view(np.int64)]
                if cells.size and self.mismatched is None:
                    self.mismatched = int(cells[0]) // n
            flat = self.heights.reshape(-1)
            flat[r0 + head:r0 + len(rows)] = heights[later[:max(flat.size - r0 - head, 0)]]
        if fail < len(nl):
            row(fail)
        self.lines += len(nl)
        self.rows += len(rows)

    def _runs(self, steps):
        """Extend the runs of steps 0, 1, ...; note the first misplaced one."""
        if self.misplaced or not steps.size:
            return
        cut = np.concatenate(([0], np.flatnonzero(steps[1:] != steps[:-1]) + 1, [steps.size]))
        for step, size in zip(steps[cut[:-1]].tolist(), np.diff(cut).tolist()):
            if step == len(self.sizes) - 1:
                self.sizes[-1] += size
            elif step == len(self.sizes):
                self.sizes.append(size)
            else:
                self.misplaced = (step, len(self.sizes))
                return

    def _allocate(self, n):
        """Step 0 is whole: keep its x texts and values, allocate the heights."""
        *self.x, heights = (np.concatenate(p, axis=-1) for p in zip(*self.first))
        steps = self.last + 1 if 0 < (self.last + 1) * n <= self.limit else 0
        self.heights, self.first = np.empty((steps, n)), None
        self.heights[:1] = heights

    def result(self):
        path = self.path
        if not self.rows:
            raise DomainError(f"{path}: no profile rows")
        if self.misplaced:
            raise DomainError(f"{path}: step {self.misplaced[0]} where step "
                              f"{self.misplaced[1]} should begin; steps must run 0, 1, 2, "
                              "... in file order")
        if self.heights is None:
            self._allocate(self.rows)
        sizes = np.array(self.sizes)
        ragged = np.flatnonzero(sizes != sizes[0])
        if ragged.size:
            k = ragged[0]
            raise DomainError(f"{path}: step {k} has {sizes[k]} rows, step 0 has {sizes[0]}")
        if self.mismatched is not None:
            raise DomainError(f"{path}: step {self.mismatched} has other x-centres than step 0")
        return self.x[2], dict(enumerate(self.heights))


def read_profile(directory: str):
    """Read profile.csv back as ``write_trace`` writes it: steps 0, 1, ..., S in
    file order, each with step 0's x in the same order.  Returns (x_centers,
    {step: heights}), the heights being the rows of one (S + 1, N) array.

    The file is read ``_CHUNK`` bytes at a time.  A field of digits with at
    most one '.' and 17 significant digits (all that ``write_trace`` writes
    but exponent form) is read as the integer D of its digits, f of them
    after the point, and rounded once to the double nearest D / 10^f, by
    integer and float arithmetic on whole arrays.  Any other line goes
    through ``int`` and ``float`` (no '_'), which read those fields to the
    same values.  Blank lines are skipped; a line of other than three such
    fields is refused, naming its line."""
    path = os.path.join(directory, PROFILE_CSV)
    with open(path, "rb") as handle:
        line = handle.readline()
        cr = line.find(b"\r")
        if 0 <= cr < len(line) - 2:             # a lone CR ends the header
            handle.seek(cr + 1)
        header = line[:cr if cr >= 0 else None].decode(errors="replace").strip()
        if header != _PROFILE_HEADER:
            raise DomainError(f"unexpected profile header: {header!r}")
        body, size = handle.tell(), handle.seek(0, 2)
        profile = _Profile(path, _last_step(handle, body, size), (size - body) // 5 + 1)
        handle.seek(body)
        rest = b""
        while chunk := handle.read(_CHUNK):
            cut = chunk.rfind(b"\n") + 1
            if cut:
                profile.feed(b"".join((_PAD, rest, memoryview(chunk)[:cut])))
                rest = chunk[cut:]
            else:
                rest += chunk
        if rest:
            profile.feed(_PAD + rest + b"\n", tail=1)
    return profile.result()


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
