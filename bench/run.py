"""growbeam benchmark: one workload, measured end to end or traced by layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json; why each workload was
chosen and which end-to-end metric each layer metric should move are in
bench/layer_map.json.  The inputs come from bench/workloads.py and the
seed.

Load is a closed loop with one client: each iteration is one fresh child
process (bench/child.py) that runs the workload's ``growbeam.cli.main``
calls; the next starts only after it exits.  Iterations repeat until the
next one would end after ``--seconds``, with at least one.  Every
iteration's outputs are checked; a failed command or check counts in
``failed``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of
an iteration's main calls, timed inside the child), ``setup_s`` (median
time from spawning a child to the child having imported ``growbeam.cli``
and written its configs, over extra set-up-only children and the
iterations) and ``peak_rss_mb`` (median of the children's ``ru_maxrss``).
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of the traced ones (medians) plus the tracing overhead;
the spans are written to .bench_work/ when the run ends.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without the program's sources
(src/growbeam) the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, generate, seed_factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 5        # set-up-only children per run, besides the iterations
RUN_LIMIT_S = 170.0     # a run, its children included, ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _threads() -> int:
    # One BLAS/OpenMP thread: the child then never competes with itself
    # for the host's few cores, and the 1-D dot products gain nothing more.
    return 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = str(_threads())
    return env


class Runner:
    """Spawns one child per iteration, one at a time."""

    def __init__(self, commands, started: float):
        self.commands = commands
        self.started = started
        self.env = child_env()
        self.count = 0

    def spawn(self, probe=False, trace=False) -> dict:
        """Run one child; returns its result dict, with ``error`` set when
        the child did not finish normally."""
        self.count += 1
        work_dir = os.path.join(WORK, f"it-{self.count}")
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        job = {"work_dir": work_dir, "src": SRC, "commands": self.commands,
               "probe": probe, "trace": trace, "iteration": self.count,
               "result": os.path.join(work_dir, "result.json")}
        job_path = os.path.join(work_dir, "job.json")
        with open(job_path, "w") as handle:
            json.dump(job, handle)
        budget = RUN_LIMIT_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, CHILD, job_path], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=max(budget, 1.0))
            if proc.returncode != 0:
                result = {"error": f"child exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-2000:]}"}
            else:
                with open(job["result"]) as handle:
                    result = json.load(handle)
                result["setup_s"] = result["ready"] - spawned
        except subprocess.TimeoutExpired:
            result = {"error": f"child killed after {budget:.0f} s"}
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        result["elapsed"] = time.monotonic() - spawned
        return result


def failed(result) -> bool:
    return "error" in result or bool(result["failures"])


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, by
    nearest rank: (percentile, value), or None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)             # ceil(p n / 100) <= n - 10
    return p, sorted(samples)[rank - 1]


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10).stdout.strip()
        return int(out)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def environment_lines(commands, numpy_version):
    l2, l3 = _getconf("LEVEL2_CACHE_SIZE"), _getconf("LEVEL3_CACHE_SIZE")
    threads = " ".join(f"{v}={_threads()}" for v in THREAD_VARS)
    lines = [f"environment: nproc {len(os.sched_getaffinity(0))}, child threads {threads}, "
             f"numpy {numpy_version}, python {platform.python_version()}, "
             f"L2 {l2} B, L3 {l3} B, git {_git_sha()}"]
    # Working set: one float64 per cell, and for prestrained cases the
    # density's history arrays of (steps + 1) rows.
    params = [c["params"] for c in commands if "params" in c]
    largest = max(8 * p["n_cells"] for p in params)
    history = max((8 * (p.get("steps", 1) + 1) * p["n_cells"] for p in params
                   if any(p.get(k, (0.0,)) != (0.0,) for k in ("prestrain.eps",
                                                                 "prestrain.kappa"))),
                  default=0)
    fits = l3 is not None and max(largest, history) < l3
    lines.append(f"working set: largest array {largest / 1e6:.3g} MB, largest history "
                 f"array {history / 1e6:.3g} MB; "
                 + (f"both fit in the {l3 / 2**20:.0f} MB L3, so no bandwidth figure "
                    "is reported" if fits else "L3 size unknown or exceeded; no "
                    "bandwidth figure is reported"))
    return lines


def run(workload, seed, seconds, trace):
    started = time.monotonic()
    commands = generate(workload, seed)
    runner = Runner(commands, started)
    deadline = started + seconds
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    setups, plain, traced = [], [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = runner.spawn(probe=True)
            if "error" in probe:
                print(f"error: set-up probe failed: {probe['error']}", file=sys.stderr)
                return 1
            setups.append(probe["setup_s"])
    while True:
        round_start = time.monotonic()
        plain.append(runner.spawn())
        if trace:
            traced.append(runner.spawn(trace=True))
        now = time.monotonic()
        if (now + (now - round_start) > deadline
                or any("error" in r and "killed" in r["error"] for r in plain + traced)):
            break

    results = plain + traced
    bad = [r for r in results if failed(r)]
    for r in bad:
        print("failed iteration: " + (r.get("error") or "; ".join(r["failures"][:5])),
              file=sys.stderr)
    ok = [r for r in plain if "error" not in r]
    ok_traced = [r for r in traced if "error" not in r]
    if not ok or (trace and not ok_traced):
        print("error: no iteration finished; nothing to report", file=sys.stderr)
        return 1

    print(f"workload {workload}, seed {seed} (load/mass scale {seed_factor(seed)!r}), "
          f"{seconds} s, trace {'on' if trace else 'off'}; closed loop, 1 client, "
          f"one child process per iteration")
    for line in environment_lines(commands, ok[0]["numpy"]):
        print(line)

    walls = [r["wall_s"] for r in ok]
    frac = f"failed_frac: {len(bad) / len(results)!r} 1 ({len(bad)} failed of {len(results)} attempted)"
    metrics = {}
    if not trace:
        setups += [r["setup_s"] for r in ok]
        tail = tail_percentile(walls)
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok)}
        notes = {"wall_s": f"median of {len(walls)} iterations; "
                           + (f"p{tail[0]} {tail[1]!r} s" if tail else
                              "no percentile has 10 samples beyond it"),
                 "setup_s": f"median of {len(setups)} children",
                 "peak_rss_mb": f"median of {len(ok)} iterations"}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']}: {values[m['name']]!r} {m['unit']} ({notes[m['name']]})")
        print(frac)
    else:
        untraced_wall = statistics.median(walls)
        traced_wall = statistics.median(r["wall_s"] for r in ok_traced)
        print(f"wall_s: untraced median {untraced_wall!r} s ({len(walls)} samples), "
              f"traced median {traced_wall!r} s ({len(ok_traced)} samples)")
        print(frac)
        layers = {"trace.overhead_frac": traced_wall / untraced_wall - 1.0}
        for name in ok_traced[0]["layers"]:
            values = [r["layers"][name] for r in ok_traced]
            # Counts repeat exactly; keep them whole numbers.
            exact = all(isinstance(v, int) for v in values)
            layers[name] = (statistics.median_low if exact else statistics.median)(values)
        for name in sorted(set().union(*(r["missing"] for r in ok_traced))):
            print(f"note: span {name} could not be patched; its metrics are absent")
        for m in spec["per_layer"]:
            if m["name"] in layers:
                metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
        os.makedirs(WORK, exist_ok=True)
        spans_path = os.path.join(WORK, f"spans-{workload}-seed{seed}.jsonl")
        with open(spans_path, "w") as handle:
            for r in ok_traced:
                for name, start, end, parent, iteration, attrs in r["spans"]:
                    handle.write(json.dumps({"iteration": iteration, "name": name,
                                             "start": start, "end": end,
                                             "parent": parent, "attrs": attrs}) + "\n")
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")

    print(json.dumps({"correct": not bad, "attempted": len(results),
                      "failed": len(bad), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (os.path.join(SRC, "growbeam", "cli.py"),
                           os.path.join(ROOT, "BENCHMARK.json")) if not os.path.isfile(p)]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
