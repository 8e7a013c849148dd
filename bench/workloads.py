"""Pinned workload definitions and the seeded input generator.

Every input the benchmark feeds to the program is defined here, so the
parent commit and a change always run identical inputs even when the
shipped ``configs/`` change.  Geometry and solver tolerances are written
explicitly into each generated config for the same reason.

Seed 0 reproduces the definitions exactly.  Any other seed scales
``load.value`` and every mass increment or mass target by one factor drawn
uniformly from [0.95, 1.05].
"""

from __future__ import annotations

import random

# Written into every generated config: the reference beam and the solver
# tolerances the correctness checks compare against.
PINNED = {
    "length": 20.0,
    "height0": 0.3,
    "young_modulus": 1.0e5,
    "solver.tol_kkt": 1e-8,
    "solver.tol_mass": 1e-10,
}

SCALED_KEYS = ("load.value", "mass.increment", "mass.targets")

# The eight cases of configs/ at the commit that defined this benchmark, at
# their own N = 200.  Each entry: (case name, subcommand, config keys).
PAPER_CASES = (
    ("analytic_first_step", "analytic", {
        "load.kind": "uniform", "load.value": 0.02, "steps": 1,
        "mass.targets": (7.5,)}),
    ("baseline", "run", {
        "load.kind": "uniform", "load.value": 0.02, "steps": 10,
        "mass.increment": 0.6, "plot.steps": (0, 5, 10)}),
    ("convexity", "convexity", {
        "load.kind": "moment", "load.value": 20.0, "prestrain.eps": (0.01,),
        "prestrain.kappa": (0.05,), "convexity.hbar_max": 6.0,
        "convexity.samples": 2048}),
    ("moment_eps_minus_ineq", "run", {
        "load.kind": "moment", "load.value": 20.0, "steps": 5,
        "mass.increment": 0.6, "prestrain.eps": (-0.01,), "tau": 0.01,
        "mass.mode": "inequality"}),
    ("moment_eps_minus_reg", "run", {
        "load.kind": "moment", "load.value": 20.0, "steps": 10,
        "mass.increment": 0.6, "prestrain.eps": (-0.01,), "tau": 0.01,
        "plot.steps": (0, 5)}),
    ("moment_eps_plus", "run", {
        "load.kind": "moment", "load.value": 20.0, "steps": 10,
        "mass.increment": 0.6, "prestrain.eps": (0.01,),
        "plot.steps": (0, 5, 10)}),
    ("parabolic_eps_plus", "run", {
        "load.kind": "uniform", "load.value": 0.02, "steps": 3,
        "mass.increment": 0.8, "prestrain.eps": (0.01,),
        "plot.steps": (0, 3)}),
    ("parabolic_kappa_plus", "run", {
        "load.kind": "uniform", "load.value": 0.1, "steps": 10,
        "mass.increment": 0.6, "prestrain.kappa": (0.05,), "tau": 0.01,
        "plot.steps": (0, 5, 10)}),
)

# Workload name -> list of commands.  A command is (case name, subcommand,
# config keys) for run/analytic/convexity, or (case name, "plot", steps) to
# re-render the named case's trace into a separate directory.
#
# The grids (N = 2e4, 1e4, 500) are small enough that one run holds several
# iterations, so its median is steady on a shared 2-core host.  They keep
# the cost shape and the seed-0 solver counts of the ROADMAP's grids
# (N = 2e5, 2e4, 2000): 154, 91 and 200 projection calls, 400
# LayerStack.segments calls and 0 PG iterations on long_moment.
WORKLOADS = {
    "baseline_fine": [
        ("baseline_fine", "run", {
            "load.kind": "uniform", "load.value": 0.02, "steps": 10,
            "mass.increment": 0.6, "n_cells": 20_000}),
    ],
    "kappa_replot": [
        ("parabolic_kappa_plus", "run", {
            "load.kind": "uniform", "load.value": 0.1, "steps": 10,
            "mass.increment": 0.6, "prestrain.kappa": (0.05,), "tau": 0.01,
            "plot.steps": (0, 5, 10), "n_cells": 10_000}),
        ("parabolic_kappa_plus", "plot", (10,)),
    ],
    "long_moment": [
        ("long_moment", "run", {
            "load.kind": "moment", "load.value": 20.0, "steps": 200,
            "mass.increment": 0.6, "prestrain.eps": (0.01,),
            "n_cells": 500}),
    ],
    "paper_cases": [(name, sub, dict(keys, n_cells=200))
                    for name, sub, keys in PAPER_CASES],
}


def seed_factor(seed: int) -> float:
    """The one scale factor applied to loads and masses for ``seed``."""
    if seed == 0:
        return 1.0
    return random.Random(seed).uniform(0.95, 1.05)


def _format(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def case_params(keys: dict, factor: float) -> dict:
    """Full key map of one case: pinned keys, then the case's own keys with
    loads and masses scaled by ``factor``."""
    params = dict(PINNED)
    for key, value in keys.items():
        if key in SCALED_KEYS:
            value = (tuple(v * factor for v in value) if isinstance(value, tuple)
                     else value * factor)
        params[key] = value
    return params


def config_text(params: dict) -> str:
    return "".join(f"{key} = {_format(value)}\n" for key, value in params.items())


def generate(workload: str, seed: int) -> list:
    """The workload's commands with their generated inputs.

    Returns a list of dicts with ``case``, ``command`` and, for commands
    that read a config, ``params`` (the key map) and ``config`` (its text);
    ``plot`` commands carry ``steps`` instead.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    factor = seed_factor(seed)
    commands = []
    for case, sub, spec in WORKLOADS[workload]:
        if sub == "plot":
            commands.append({"case": case, "command": sub, "steps": list(spec)})
            continue
        params = case_params(spec, factor)
        commands.append({"case": case, "command": sub, "params": params,
                         "config": config_text(params)})
    return commands
