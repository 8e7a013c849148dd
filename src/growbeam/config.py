"""Flat key=value run configuration with dotted sections.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored.  Keys are dotted lowercase words; unknown or duplicate
keys are hard errors with 1-based line/column positions.  ``tau = inf``
selects the unregularized problem; every other number must be finite.
Defaults reproduce the reference geometry: length 20 dm, initial height
0.3 dm, Young's modulus 1e5 N/dm^2.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .beam import BeamConfig, HeightField, LoadCase, LoadKind, PrestrainPair
from .errors import ConfigError
from .growth import MassSchedule
from .solver import MassMode, SolverOptions

OUTPUT_DIR_ENV = "GROWBEAM_OUTPUT_DIR"
DEFAULT_OUTPUT_DIR = "growbeam_out"


@dataclass(frozen=True)
class RunConfig:
    length: float = 20.0
    height0: float = 0.3
    young_modulus: float = 1.0e5
    n_cells: int = 200
    load_kind: str = "uniform"
    load_value: float = 0.0
    steps: int = 10
    mass_increment: float | None = None      # default m0/10 when unset
    mass_targets: tuple | None = None
    mass_mode: str = "equality"
    prestrain_eps: tuple = (0.0,)
    prestrain_kappa: tuple = (0.0,)
    tau: float = math.inf
    ablation: bool = False
    tol_kkt: float = 1e-8
    tol_mass: float = 1e-10
    max_iter: int = 10_000
    output_dir: str | None = None
    plot_steps: tuple | None = None
    hbar_min: float = 1.0
    hbar_max: float = 6.0
    samples: int = 2048

    # -- views onto the domain objects ------------------------------------
    def beam_config(self) -> BeamConfig:
        return BeamConfig(self.length, self.young_modulus, self.n_cells)

    def load_case(self) -> LoadCase:
        kind = LoadKind.UNIFORM if self.load_kind == "uniform" else LoadKind.MOMENT
        return LoadCase(kind, self.load_value)

    def initial_height(self) -> HeightField:
        return HeightField.constant(self.beam_config(), self.height0)

    def schedule(self) -> MassSchedule:
        if self.mass_targets is not None:
            return MassSchedule.explicit(self.mass_targets)
        inc = self.mass_increment
        if inc is None:
            inc = self.height0 * self.length / 10.0
        return MassSchedule.affine(inc)

    def prestrains(self):
        def expand(vals):
            if len(vals) == 1:
                return [vals[0]] * self.steps
            return list(vals)
        eps = expand(self.prestrain_eps)
        kap = expand(self.prestrain_kappa)
        return [PrestrainPair(e, k) for e, k in zip(eps, kap)]

    def mode(self) -> MassMode:
        return MassMode(self.mass_mode)

    def solver_options(self) -> SolverOptions:
        return SolverOptions(tol_kkt=self.tol_kkt, tol_mass=self.tol_mass,
                             max_iter=self.max_iter)

    def resolve_output_dir(self, override: str | None = None) -> str:
        if override:
            return override
        if self.output_dir:
            return self.output_dir
        return os.environ.get(OUTPUT_DIR_ENV, DEFAULT_OUTPUT_DIR)


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_tau(text):
    if text.lower() in ("inf", "infinity", "+inf"):
        return math.inf
    return _parse_float(text)


def _parse_int(text):
    if not text.lstrip("+-").isdigit():
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_bool(text):
    low = text.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text):
    return tuple(_parse_float(part.strip()) for part in text.split(","))


def _parse_int_list(text):
    return tuple(_parse_int(part.strip()) for part in text.split(","))


def _parse_str(text):
    return text


# key -> (RunConfig field, parser, constraint description, check); the last
# two are None where every parsed value is valid
KEYS = {
    "length": ("length", _parse_float, "must be > 0", lambda v: v > 0),
    "height0": ("height0", _parse_float, "must be > 0", lambda v: v > 0),
    "young_modulus": ("young_modulus", _parse_float, "must be > 0", lambda v: v > 0),
    "n_cells": ("n_cells", _parse_int, "must be >= 1", lambda v: v >= 1),
    "load.kind": ("load_kind", _parse_str, "must be 'uniform' or 'moment'",
                  lambda v: v in ("uniform", "moment")),
    "load.value": ("load_value", _parse_float, None, None),
    "steps": ("steps", _parse_int, "must be >= 1", lambda v: v >= 1),
    "mass.increment": ("mass_increment", _parse_float, "must be >= 0", lambda v: v >= 0),
    "mass.targets": ("mass_targets", _parse_float_list, "must be nondecreasing",
                     lambda v: all(b >= a for a, b in zip(v, v[1:]))),
    "mass.mode": ("mass_mode", _parse_str, "must be 'equality' or 'inequality'",
                  lambda v: v in ("equality", "inequality")),
    "prestrain.eps": ("prestrain_eps", _parse_float_list, None, None),
    "prestrain.kappa": ("prestrain_kappa", _parse_float_list, None, None),
    "tau": ("tau", _parse_tau, "must be > 0 (or 'inf')", lambda v: v > 0),
    "ablation": ("ablation", _parse_bool, None, None),
    "solver.tol_kkt": ("tol_kkt", _parse_float, "must be > 0", lambda v: v > 0),
    "solver.tol_mass": ("tol_mass", _parse_float, "must be > 0", lambda v: v > 0),
    "solver.max_iter": ("max_iter", _parse_int, "must be >= 1", lambda v: v >= 1),
    "output.dir": ("output_dir", _parse_str, None, None),
    "plot.steps": ("plot_steps", _parse_int_list, "must be >= 0",
                   lambda v: all(s >= 0 for s in v)),
    "convexity.hbar_min": ("hbar_min", _parse_float, "must be > 0", lambda v: v > 0),
    "convexity.hbar_max": ("hbar_max", _parse_float, "must be > 0", lambda v: v > 0),
    "convexity.samples": ("samples", _parse_int, "must be >= 3", lambda v: v >= 3),
}

_FIELD_TO_KEY = {spec[0]: key for key, spec in KEYS.items()}


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text into a RunConfig."""
    assignments = {}
    positions = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        if "=" not in stripped:
            col = len(stripped) - len(stripped.lstrip()) + 1
            raise ConfigError("expected 'key = value'", lineno, col)
        key_part, _, val_part = stripped.partition("=")
        key = key_part.strip()
        key_col = stripped.index(key) + 1 if key else 1
        if not key:
            raise ConfigError("missing key before '='", lineno, 1)
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno, key_col)
        if key in assignments:
            raise ConfigError(f"duplicate key {key!r}", lineno, key_col)
        value = val_part.strip()
        val_col = len(key_part) + 2 + (len(val_part) - len(val_part.lstrip())) + 0
        if not value:
            raise ConfigError(f"missing value for {key!r}", lineno, val_col)
        assignments[key] = value
        positions[key] = (lineno, val_col)

    kwargs = {}
    for key, value in assignments.items():
        field_name, parser, constraint, check = KEYS[key]
        lineno, col = positions[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise ConfigError(f"invalid value for {key!r}: {exc}", lineno, col) from None
        if check is not None and not check(parsed):
            raise ConfigError(f"{key} {constraint} (got {value})", lineno, col)
        kwargs[field_name] = parsed

    if "mass_increment" in kwargs and "mass_targets" in kwargs:
        lineno, col = positions["mass.targets"]
        raise ConfigError("mass.increment and mass.targets are mutually exclusive",
                          lineno, col)

    rc = RunConfig(**kwargs)

    steps = rc.steps
    for key_name, vals in (("prestrain.eps", rc.prestrain_eps),
                           ("prestrain.kappa", rc.prestrain_kappa)):
        if len(vals) not in (1, steps):
            lineno, col = positions[key_name]
            raise ConfigError(
                f"{key_name} needs 1 or steps={steps} values (got {len(vals)})",
                lineno, col)
    if rc.mass_targets is not None and len(rc.mass_targets) != steps:
        lineno, col = positions["mass.targets"]
        raise ConfigError(
            f"mass.targets needs steps={steps} values (got {len(rc.mass_targets)})",
            lineno, col)
    if rc.hbar_max <= rc.hbar_min:
        lineno, col = positions.get("convexity.hbar_max", (0, 0))
        raise ConfigError("convexity.hbar_max must exceed convexity.hbar_min",
                          lineno or None, col or None)
    return rc


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else repr(value)
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def dump_config(rc: RunConfig) -> str:
    """Canonical text form; parse(dump(rc)) == rc."""
    lines = []
    for f in fields(rc):
        value = getattr(rc, f.name)
        if value is None:
            continue
        lines.append(f"{_FIELD_TO_KEY[f.name]} = {_format_value(value)}")
    return "\n".join(lines) + "\n"
