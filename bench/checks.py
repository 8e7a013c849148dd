"""Correctness checks on one iteration's output files.

Every check returns a list of failure messages; an empty list means the
iteration's outputs are correct.  Oracles are computed for the generated
inputs, so every seed is checked.  The checks run untimed, after the
child has recorded its timings and stopped tracing.
"""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

# Criterion 1: agreement with the closed-form no-prestrain oracle.
ORACLE_LINF_PER_H0 = 1e-3
ORACLE_LAM_REL = 1e-4
# Criterion 4: per-step max - min of a uniformly growing profile.
UNIFORM_PTP = 1e-6
# Criterion 5: mass the inequality mode may add over the whole run.
INEQ_ADDED_MASS = 1e-6


def case_dir(work_dir: str, case: str) -> str:
    return os.path.join(work_dir, "out", case)


def plot_dir(work_dir: str, case: str) -> str:
    return os.path.join(work_dir, "out", case + "_plot")


def read_profile_csv(path: str):
    """Independent reader of profile.csv: (steps, x, heights), each (S+1, N)."""
    with open(path, "r") as handle:
        header = handle.readline().strip()
    if header != "step,x_center,height":
        raise ValueError(f"{path}: unexpected header {header!r}")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] != 3:
        raise ValueError(f"{path}: rows of {rows.shape[1]} values, expected 3")
    n_steps = int(rows[-1, 0]) + 1 if rows.size else 0
    if n_steps < 1 or rows.shape[0] % n_steps:
        raise ValueError(f"{path}: {rows.shape[0]} rows for {n_steps} steps")
    shape = (n_steps, rows.shape[0] // n_steps)
    return rows[:, 0].reshape(shape), rows[:, 1].reshape(shape), rows[:, 2].reshape(shape)


def _mass_targets(params: dict) -> list:
    if "mass.targets" in params:
        return list(params["mass.targets"])
    m0 = params["length"] * params["height0"]
    return [m0 + params["mass.increment"] * i for i in range(1, params["steps"] + 1)]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _parse_svgs(paths) -> list:
    failures = []
    for path in paths:
        try:
            ET.parse(path)
        except (OSError, ET.ParseError) as exc:
            failures.append(f"{path}: not a well-formed SVG ({exc})")
    return failures


def check_trace(params: dict, out: str, subcommand: str) -> list:
    """Checks shared by every ``run`` and ``analytic`` output."""
    failures = []
    n = params["n_cells"]
    steps = params["steps"]
    delta = params["length"] / n
    equality = params.get("mass.mode", "equality") == "equality"
    with open(os.path.join(out, "summary.json")) as handle:
        summary = json.load(handle)
    step_col, x, heights = read_profile_csv(os.path.join(out, "profile.csv"))
    if heights.shape != (steps + 1, n):
        return [f"{out}: profile shape {heights.shape}, expected {(steps + 1, n)}"]
    if not np.array_equal(step_col, np.repeat(np.arange(steps + 1.0), n).reshape(heights.shape)):
        failures.append(f"{out}: step column out of order")
    centers = (np.arange(n) + 0.5) * delta
    if np.max(np.abs(x - centers)) > 1e-12 * params["length"]:
        failures.append(f"{out}: x_center column does not match the grid")
    if not (np.all(np.isfinite(heights)) and np.all(heights > 0)):
        failures.append(f"{out}: non-finite or non-positive heights")

    records = summary["steps"]
    if [r["step"] for r in records] != list(range(1, steps + 1)):
        return failures + [f"{out}: summary lists steps {[r['step'] for r in records]}"]
    tol_mass = params["solver.tol_mass"]
    targets = _mass_targets(params)
    for r, target in zip(records, targets):
        i = r["step"]
        if not r["kkt_residual"] <= params["solver.tol_kkt"]:
            failures.append(f"{out}: step {i} kkt_residual {r['kkt_residual']:.3e}")
        if equality and not _close(r["mass"], target, tol_mass):
            failures.append(f"{out}: step {i} mass {r['mass']!r} != target {target!r}")
        if not equality and r["mass"] > target * (1 + tol_mass) + tol_mass:
            failures.append(f"{out}: step {i} mass {r['mass']!r} over budget {target!r}")
        profile_mass = delta * float(np.sum(heights[i]))
        if not _close(profile_mass, r["mass"], tol_mass):
            failures.append(f"{out}: step {i} profile mass {profile_mass!r} "
                            f"!= summary mass {r['mass']!r}")

    if not equality:
        added = records[-1]["mass"] - summary["initial"]["mass"]
        if added > INEQ_ADDED_MASS:
            failures.append(f"{out}: inequality mode added mass {added:.3e}")
    if _oracle_applies(params, subcommand):
        failures += check_oracle(params, heights, [r["lambda"] for r in records], out)
    if _uniform_applies(params):
        ptp = float(np.max(np.ptp(heights[1:], axis=1)))
        if ptp > UNIFORM_PTP:
            failures.append(f"{out}: growth not uniform (max per-step ptp {ptp:.3e})")
    plotted = params.get("plot.steps", ()) if subcommand == "run" else ()
    failures += _parse_svgs(os.path.join(out, f"profile_step_{s}.svg") for s in plotted)
    return failures


def _no_prestrain(params):
    return (all(v == 0.0 for v in params.get("prestrain.eps", (0.0,)))
            and all(v == 0.0 for v in params.get("prestrain.kappa", (0.0,))))


def _oracle_applies(params, subcommand):
    """The closed-form oracle solves the uniform-load, no-prestrain,
    unregularized equality problem."""
    return (params["load.kind"] == "uniform" and _no_prestrain(params)
            and (subcommand == "analytic"
                 or (math.isinf(params.get("tau", math.inf))
                     and params.get("mass.mode", "equality") == "equality")))


def _uniform_applies(params):
    """A constant moment with constant prestrain grows uniformly (the
    unregularized, equality-constrained problem only)."""
    return (params["load.kind"] == "moment" and "prestrain.kappa" not in params
            and math.isinf(params.get("tau", math.inf))
            and params.get("mass.mode", "equality") == "equality")


def check_oracle(params, heights, lams, where) -> list:
    """Profiles and multipliers against solve_baseline_step chained from h0."""
    from growbeam.baseline import solve_baseline_step
    from growbeam.beam import BeamConfig, HeightField, LoadCase, LoadKind
    config = BeamConfig(params["length"], params["young_modulus"], params["n_cells"])
    load = LoadCase(LoadKind.UNIFORM, params["load.value"])
    h = HeightField.constant(config, params["height0"])
    failures = []
    for i, (target, lam) in enumerate(zip(_mass_targets(params), lams), start=1):
        sol = solve_baseline_step(config, load, h, target)
        linf = float(np.max(np.abs(heights[i] - sol.h.values)))
        lam_err = abs(lam - sol.lam) / sol.lam
        if linf > ORACLE_LINF_PER_H0 * params["height0"] or lam_err > ORACLE_LAM_REL:
            failures.append(f"{where}: step {i} vs oracle Linf {linf:.3e}, "
                            f"lambda rel err {lam_err:.3e}")
        h = sol.h
    return failures


def check_analytic(params: dict, out: str) -> list:
    """lambda and x_hat of the first step against solve_baseline_first."""
    from growbeam.baseline import solve_baseline_first
    from growbeam.beam import BeamConfig
    config = BeamConfig(params["length"], params["young_modulus"], params["n_cells"])
    with open(os.path.join(out, "analytic.json")) as handle:
        first = json.load(handle)["steps"][0]
    oracle = solve_baseline_first(config, params["load.value"], params["height0"],
                                  _mass_targets(params)[0])
    failures = []
    lam_err = abs(first["lambda"] - oracle.lam) / oracle.lam
    if lam_err > ORACLE_LAM_REL:
        failures.append(f"{out}: analytic lambda rel err {lam_err:.3e}")
    if first["x_hat"] is None or abs(first["x_hat"] - oracle.x_hat) > config.delta:
        failures.append(f"{out}: analytic x_hat {first['x_hat']} vs {oracle.x_hat}")
    return failures


def check_convexity(params: dict, out: str) -> list:
    failures = []
    for table, plot in (("f_table.csv", "f_plot.svg"), ("g_table.csv", "g_plot.svg")):
        with open(os.path.join(out, table)) as handle:
            rows = handle.read().splitlines()
        if len(rows) != params["convexity.samples"] + 1:
            failures.append(f"{out}/{table}: {len(rows)} lines")
        failures += _parse_svgs([os.path.join(out, plot)])
    return failures


def check_plot(source: str, out: str, steps) -> list:
    """The re-rendered SVGs parse, match the run's own rendering byte for
    byte, and read_profile returns exactly the heights written."""
    from growbeam.output import read_profile
    failures = []
    _, x, heights = read_profile_csv(os.path.join(source, "profile.csv"))
    x_read, by_step = read_profile(source)
    if not np.array_equal(x_read, x[0]):
        failures.append(f"{source}: read_profile x_centers differ from the file")
    if sorted(by_step) != list(range(heights.shape[0])) or not all(
            np.array_equal(by_step[s], heights[s]) for s in range(heights.shape[0])):
        failures.append(f"{source}: read_profile heights differ from the file")
    paths = [os.path.join(out, f"profile_step_{s}.svg") for s in steps]
    failures += _parse_svgs(paths)
    for s, path in zip(steps, paths):
        original = os.path.join(source, f"profile_step_{s}.svg")
        if os.path.exists(original) and os.path.exists(path):
            with open(original, "rb") as a, open(path, "rb") as b:
                if a.read() != b.read():
                    failures.append(f"{path}: differs from the run's own rendering")
    return failures


def check_iteration(commands, work_dir: str, return_codes) -> list:
    """All checks for one iteration of a workload."""
    failures = []
    for cmd, rc in zip(commands, return_codes):
        case, sub = cmd["case"], cmd["command"]
        if rc != 0:
            failures.append(f"{case} {sub}: exit code {rc}")
            continue
        out = case_dir(work_dir, case)
        try:
            if sub in ("run", "analytic"):
                failures += check_trace(cmd["params"], out, sub)
            if sub == "analytic":
                failures += check_analytic(cmd["params"], out)
            elif sub == "convexity":
                failures += check_convexity(cmd["params"], out)
            elif sub == "plot":
                failures += check_plot(out, plot_dir(work_dir, case), cmd["steps"])
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            failures.append(f"{case} {sub}: check could not read the output ({exc!r})")
    return failures
