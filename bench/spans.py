"""In-memory span recording around the program's layer boundaries.

The benchmark patches each public function where its caller looks it up
(``growth`` and ``cli`` import names directly), records one span per call
and restores the originals afterwards.  Nothing inside ``src/`` changes.
Spans are kept in memory and handed back to the parent, which writes them
when the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    iteration: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.iteration, self.attrs]


class Recorder:
    """Records nested spans; the innermost open span is the parent of the
    next one."""

    def __init__(self, iteration: int = 0):
        self.iteration = iteration
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, on_exit=None):
        """``fn`` wrapped in a span named ``name``.  ``on_exit(span, args,
        result)`` may attach counts after a successful call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._open[-1] if self._open else None,
                        iteration=self.iteration)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if on_exit is not None:
                on_exit(span, args, result)
            return result

        return traced


def self_time(span: Span, children) -> float:
    """Duration of ``span`` minus the part of it covered by ``children``
    (overlaps counted once, parts outside the span ignored)."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return span.duration - covered


# ---------------------------------------------------------------------------
# Patch sites
# ---------------------------------------------------------------------------

def _density_cells(span, args, result):
    history = args[0].history   # (y_lo, y_hi, ...) with (rows, N) arrays, or None
    span.attrs["cells"] = history[0].size if history is not None else 0


def _segments_cells(span, args, result):
    span.attrs["cells"] = result[0].size


def _step_info(span, args, result):
    problem = args[0]
    span.attrs["iterations"] = int(result.iterations)
    span.attrs["equality"] = problem.mass_mode.value == "equality"


def _file_bytes(span, args, result):
    paths = result if isinstance(result, list) else [result]
    span.attrs["bytes"] = sum(os.path.getsize(p) for p in paths)


def _csv_bytes(span, args, result):
    span.attrs["bytes"] = sum(os.path.getsize(p) for p in result
                              if p.endswith(".csv"))


def patch_sites():
    """(span name, owner, attribute, on_exit) for every traced call.

    Owners are modules or classes; names imported by another module are
    patched in the importing module, where the call looks them up.
    """
    from growbeam import beam, cli, compliance, growth, solver
    density = compliance.ComplianceDensity
    stack = beam.LayerStack
    sites = [
        ("cli.main", cli, "main", None),
        ("config.parse_config", cli, "parse_config", None),
        ("growth.run_growth", cli, "run_growth", None),
        ("output.write_trace", cli, "write_trace", _csv_bytes),
        ("output.read_profile", cli, "read_profile", None),
        ("output.render_profile_svg", cli, "render_profile_svg", _file_bytes),
        ("baseline.solve_baseline_step", cli, "solve_baseline_step", None),
        ("solver.minimize_step", growth, "minimize_step", _step_info),
        ("beam.equilibrium_general", growth, "equilibrium_general", None),
        ("compliance.compliance_total", growth, "compliance_total", None),
        ("solver.projection", solver, "_project_shift", None),
        ("compliance.density_value", density, "value", _density_cells),
        ("compliance.density_derivative", density, "derivative", _density_cells),
        ("beam.segments", stack, "segments", _segments_cells),
        ("beam.layerstack_init", stack, "__post_init__", None),
        ("beam.section_integrals", beam, "prestress_section_integrals", None),
        ("beam.section_integrals", compliance, "prestress_section_integrals", None),
    ]
    for name in ("f_value", "f_second", "g_value", "g_second", "convex_envelope_1d"):
        sites.append(("compliance.diagnostics", cli, name, None))
    for name in ("baseline", "const_prestrain", "const_precurv_first", "general"):
        sites.append(("compliance.density_build", density, name, None))
    return sites


# Spans whose target may be renamed by a later change; their metrics are
# then reported absent.  Any other missing target is an error.
OPTIONAL = {"solver.projection"}


class Patched:
    """Context manager installing span wrappers at every patch site;
    ``missing`` lists the optional span names whose target was not found."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.missing: list[str] = []
        self._saved = []

    def __enter__(self):
        for name, owner, attr, on_exit in patch_sites():
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                if name not in OPTIONAL:
                    self.__exit__()
                    raise AttributeError(f"cannot trace {name}: {attr} not found "
                                         f"in {getattr(owner, '__name__', owner)}")
                self.missing.append(name)
                continue
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self.recorder.wrap(name, original.__func__, on_exit))
            else:
                wrapped = self.recorder.wrap(name, original, on_exit)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics of one iteration
# ---------------------------------------------------------------------------

# Metrics computed from an optional span, reported absent (not as zero)
# when its target could not be patched.
NEEDS_PROJECTION = ("solver.projection_calls", "solver.projection_s",
                    "solver.backtracks_per_step", "solver.accepted_per_projection")


def _children_index(spans):
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def _ancestor(spans, span, name):
    idx = span.parent
    while idx is not None:
        if spans[idx].name == name:
            return idx
        idx = spans[idx].parent
    return None


def step_late_over_early(step_starts) -> float | None:
    """Median interval between successive step starts over the last tenth
    of the intervals, over the same for the first tenth (at least one
    interval each); None with fewer than two steps."""
    starts = sorted(step_starts)
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    if not gaps:
        return None
    k = max(1, len(gaps) // 10)
    return statistics.median(gaps[-k:]) / statistics.median(gaps[:k])


def layer_metrics(spans, missing=()) -> dict:
    """Per-layer metrics of one traced iteration (values only)."""
    children = _children_index(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def of(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in of(name))

    def self_total(name):
        return sum(self_time(s, children[i]) for i, s in enumerate(spans)
                   if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in of(name))

    steps = of("solver.minimize_step")
    iterations = sum(s.attrs["iterations"] for s in steps)
    eq_index = {i for i, s in enumerate(spans)
                if s.name == "solver.minimize_step" and s.attrs["equality"]}
    eq_projections = sum(1 for s in of("solver.projection")
                         if _ancestor(spans, s, "solver.minimize_step") in eq_index)
    eq_iterations = sum(spans[i].attrs["iterations"] for i in eq_index)
    projections = len(of("solver.projection"))
    evals = len(of("compliance.density_value")) + len(of("compliance.density_derivative"))
    ratios = []
    for i, run in enumerate(spans):
        if run.name == "growth.run_growth":
            ratio = step_late_over_early(
                [c.start for c in children[i] if c.name == "solver.minimize_step"])
            if ratio is not None:
                ratios.append(ratio)

    metrics = {
        "cli.self_s": self_total("cli.main"),
        "config.parse_config_s": total("config.parse_config"),
        "growth.run_growth_s": total("growth.run_growth"),
        "growth.self_s": self_total("growth.run_growth"),
        "growth.step_late_over_early": statistics.median(ratios) if ratios else 0.0,
        "solver.minimize_step_s": total("solver.minimize_step"),
        "solver.self_s": self_total("solver.minimize_step"),
        "solver.projection_calls": projections,
        "solver.projection_s": total("solver.projection"),
        "solver.iterations_per_step": iterations / len(steps) if steps else 0.0,
        "solver.backtracks_per_step":
            (eq_projections - len(eq_index) - eq_iterations) / len(eq_index)
            if eq_index else 0.0,
        "solver.accepted_per_projection":
            (len(eq_index) + eq_iterations) / eq_projections if eq_projections else 0.0,
        "compliance.density_value_calls": len(of("compliance.density_value")),
        "compliance.density_value_s": total("compliance.density_value"),
        "compliance.density_derivative_calls": len(of("compliance.density_derivative")),
        "compliance.density_derivative_s": total("compliance.density_derivative"),
        "compliance.density_build_s": total("compliance.density_build"),
        "compliance.history_cells_per_eval":
            (attr_sum("compliance.density_value", "cells")
             + attr_sum("compliance.density_derivative", "cells")) / evals
            if evals else 0.0,
        "compliance.compliance_total_s": total("compliance.compliance_total"),
        "compliance.diagnostics_s": total("compliance.diagnostics"),
        "beam.segments_calls": len(of("beam.segments")),
        "beam.segments_s": total("beam.segments"),
        "beam.segments_cells": attr_sum("beam.segments", "cells"),
        "beam.layerstack_init_s": total("beam.layerstack_init"),
        "beam.equilibrium_general_s": total("beam.equilibrium_general"),
        "beam.section_integrals_s": total("beam.section_integrals"),
        "output.write_trace_s": total("output.write_trace"),
        "output.csv_bytes": attr_sum("output.write_trace", "bytes"),
        "output.read_profile_s": total("output.read_profile"),
        "output.render_profile_svg_s": total("output.render_profile_svg"),
        "output.svg_bytes": attr_sum("output.render_profile_svg", "bytes"),
        "baseline.solve_baseline_step_s": total("baseline.solve_baseline_step"),
    }
    if "solver.projection" in missing:
        for metric in NEEDS_PROJECTION:
            del metrics[metric]
    return metrics
