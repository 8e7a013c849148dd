"""Command-line interface.

Subcommands: ``run`` (growth simulation), ``analytic`` (exact no-prestrain
profiles), ``convexity`` (dimensionless diagnostic tables), ``plot``
(re-render SVGs from a written trace).  Exit codes: 0 success, 2
configuration error, 3 solver non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .baseline import solve_baseline_first, solve_baseline_step
from .beam import LoadKind, bending_moment
from .compliance import (ComplianceDensity, convex_envelope_1d, f_second,
                         f_value, g_second, g_value)
from .config import parse_config
from .errors import ConfigError, ConvergenceError, DomainError
from .growth import GrowthTrace, StepRecord, _require_finite, run_growth
from .output import (read_profile, render_curve_svg, render_profile_svg,
                     write_csv, write_json, write_trace)
from .solver import StepProblem, StepSolution, kkt_residual


def _load_config(path: str):
    with open(path, "r") as handle:
        return parse_config(handle.read())


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _cmd_run(args) -> int:
    rc = _load_config(args.config)
    out_dir = rc.resolve_output_dir(args.output_dir)
    try:
        trace = run_growth(rc.beam_config(), rc.load_case(), rc.initial_height(),
                           rc.schedule(), rc.prestrains(), tau=rc.tau,
                           mass_mode=rc.mode(), ablation=rc.ablation,
                           options=rc.solver_options())
    except ConvergenceError as err:
        if err.partial_trace is not None:
            paths = write_trace(err.partial_trace, out_dir)
            _say(args, f"wrote the {err.partial_trace.steps} completed steps to "
                       + ", ".join(paths))
        raise
    paths = write_trace(trace, out_dir)
    if rc.plot_steps:
        paths += render_profile_svg(trace.config.x_centers, trace.heights_by_step(),
                                    list(rc.plot_steps), out_dir)
    for r in () if args.quiet else trace.records:   # no unused text per step
        _say(args, f"step {r.index}: mass {r.mass:.6f}  compliance {r.compliance:.6f}"
                   f"  lambda {r.lam:.6g}  kkt {r.kkt_residual:.2e}")
    _say(args, "wrote " + ", ".join(paths))
    return 0


def _cmd_analytic(args) -> int:
    rc = _load_config(args.config)
    if rc.tau != math.inf or rc.ablation or any(p.eps_p or p.kappa_p for p in rc.prestrains()):
        raise ConfigError("the analytic solution requires zero prestrain, tau = inf "
                          "and ablation = false")
    config = rc.beam_config()
    load = rc.load_case()
    out_dir = rc.resolve_output_dir(args.output_dir)
    h0 = rc.initial_height()
    m0 = h0.mass(config)
    targets = rc.schedule().targets(m0, rc.steps)
    with np.errstate(all="ignore"):
        density = ComplianceDensity.baseline(
            config.young_modulus, bending_moment(load, config, config.x_centers))
        c0 = config.delta * float(np.sum(density.value(h0.values)))
    _require_finite(c0, "initial compliance", load, h0)

    trace = GrowthTrace(config=config, load=load, tau=rc.tau, mass_mode=rc.mode(),
                        ablation=False, h0=h0, initial_mass=m0, initial_compliance=c0)
    analytic_rows = []
    h_prev = h0
    for i, m_i in enumerate(targets, start=1):
        problem = StepProblem(density=density, h_prev=h_prev, mass_target=float(m_i),
                              tau=rc.tau, mass_mode=rc.mode(), lower_bound=h_prev,
                              config=config)
        x_hat = None
        with np.errstate(all="ignore"):
            sol = solve_baseline_step(config, load, h_prev, problem.mass_target)
            if i == 1 and load.kind is LoadKind.UNIFORM and sol.growth_set.any():
                x_hat = solve_baseline_first(config, load.value, float(h0.values[0]),
                                             problem.mass_target).x_hat
        _require_finite(sol.lam, "multiplier", load, h0)
        # the closed form takes no iterations; with tau = inf the objective
        # is the compliance
        compliance = config.delta * float(np.sum(density.value(sol.h.values)))
        step = StepSolution(sol.h, sol.lam, compliance,
                            kkt_residual(problem, sol.h, sol.lam), 0, 0)
        trace.records.append(StepRecord.of(i, problem, step, compliance))
        analytic_rows.append({"step": i, "lambda": sol.lam, "x_hat": x_hat})
        _say(args, f"step {i}: lambda {sol.lam:.10g}"
                   + (f"  x_hat {x_hat:.6g}" if x_hat is not None else ""))
        h_prev = sol.h

    paths = write_trace(trace, out_dir)
    analytic_path = os.path.join(out_dir, "analytic.json")
    write_json(analytic_path, {"steps": analytic_rows})
    _say(args, "wrote " + ", ".join(paths + [analytic_path]))
    return 0


def _cmd_convexity(args) -> int:
    rc = _load_config(args.config)
    if rc.load_kind != "moment":
        raise ConfigError("convexity diagnostics need load.kind = moment "
                          "(a constant bending moment)")
    for key, values in (("prestrain.eps", rc.prestrain_eps),
                        ("prestrain.kappa", rc.prestrain_kappa)):
        if len(values) > 1:
            raise ConfigError(f"convexity diagnostics take one {key} value (got {len(values)})")
    (eps,), (kap,) = rc.prestrain_eps, rc.prestrain_kappa
    if eps == 0.0 and kap == 0.0:
        raise ConfigError("set prestrain.eps or prestrain.kappa nonzero to "
                          "choose a diagnostic")
    out_dir = rc.resolve_output_dir(args.output_dir)
    os.makedirs(out_dir, exist_ok=True)
    e, h0, m = rc.young_modulus, rc.height0, rc.load_value
    hbar = np.linspace(rc.hbar_min, rc.hbar_max, rc.samples)
    paths = []
    if eps != 0.0:
        eta = m / (e * h0**2 * eps)
        fv = f_value(eta, hbar)
        fs = f_second(eta, hbar)
        _, env = convex_envelope_1d(hbar, fv)
        path = os.path.join(out_dir, "f_table.csv")
        write_csv(path, "hbar,f,f_second,f_envelope", [hbar, fv, fs, env])
        paths.append(path)
        paths.append(render_curve_svg(hbar, {"f": fv, "f**": env},
                                      os.path.join(out_dir, "f_plot.svg"),
                                      "hbar", "f"))
        _say(args, f"eta = {eta:.6g}, min f'' on grid = {float(np.min(fs)):.4g}")
    if kap != 0.0:
        mu = m / (e * h0**3 * kap)
        gv = g_value(mu, hbar)
        gs = g_second(mu, hbar)
        path = os.path.join(out_dir, "g_table.csv")
        write_csv(path, "hbar,g,g_second", [hbar, gv, gs])
        paths.append(path)
        paths.append(render_curve_svg(hbar, {"g": gv},
                                      os.path.join(out_dir, "g_plot.svg"),
                                      "hbar", "g"))
        _say(args, f"mu = {mu:.6g}, min g'' on grid = {float(np.min(gs)):.4g}")
    _say(args, "wrote " + ", ".join(paths))
    return 0


def _cmd_plot(args) -> int:
    x_centers, heights = read_profile(args.trace_dir)
    steps = args.steps or []
    out_dir = args.output_dir or args.trace_dir
    paths = render_profile_svg(x_centers, heights, steps, out_dir)
    _say(args, "wrote " + (", ".join(paths) if paths else "no files (empty step list)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growbeam",
        description="Compliance-driven surface growth of a cantilever beam")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output-dir", default=None,
                       help="override the output directory")
        p.add_argument("--quiet", action="store_true", help="suppress stdout")

    p_run = sub.add_parser("run", help="run a growth simulation")
    p_run.add_argument("config", help="path to a key=value config file")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_ana = sub.add_parser("analytic", help="exact no-prestrain profiles")
    p_ana.add_argument("config")
    common(p_ana)
    p_ana.set_defaults(func=_cmd_analytic)

    p_cvx = sub.add_parser("convexity", help="dimensionless diagnostic tables")
    p_cvx.add_argument("config")
    common(p_cvx)
    p_cvx.set_defaults(func=_cmd_convexity)

    p_plot = sub.add_parser("plot", help="render SVGs from a written trace")
    p_plot.add_argument("trace_dir")
    p_plot.add_argument("--steps", type=int, nargs="*", default=[],
                        help="step indices to render")
    common(p_plot)
    p_plot.set_defaults(func=_cmd_plot)
    return parser


_parser = functools.cache(build_parser)   # built once per process; parsing leaves it as is


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
