"""One benchmark iteration in a fresh interpreter.

Usage: python3 bench/child.py JOB_JSON

The job file names the work directory and, unless it is a set-up probe,
the commands to run.  The child imports ``growbeam.cli``, writes the
generated configs and stamps the ready time (``CLOCK_MONOTONIC``, shared
with the parent, which stamped the spawn time).  It then times every
``growbeam.cli.main`` call, records its own peak RSS, stops tracing, runs
the correctness checks untimed and writes the result file.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from checks import case_dir, check_iteration, plot_dir


def _ready(job):
    """Import the CLI and write the configs: the set-up a CLI user pays."""
    from growbeam import cli
    cfg_dir = os.path.join(job["work_dir"], "cfg")
    os.makedirs(cfg_dir, exist_ok=True)
    for cmd in job["commands"]:
        if "config" in cmd:
            with open(os.path.join(cfg_dir, cmd["case"] + ".cfg"), "w") as handle:
                handle.write(cmd["config"])
    return cli


def _argv(cmd, work_dir):
    case, sub = cmd["case"], cmd["command"]
    if sub == "plot":
        return ["plot", case_dir(work_dir, case), "--steps",
                *map(str, cmd["steps"]), "--output-dir", plot_dir(work_dir, case),
                "--quiet"]
    return [sub, os.path.join(work_dir, "cfg", case + ".cfg"),
            "--output-dir", case_dir(work_dir, case), "--quiet"]


def _run_commands(cli, argvs):
    # Look main up on each call so a traced run goes through its span.
    return [cli.main(argv) for argv in argvs]


def main(job_path: str) -> int:
    with open(job_path) as handle:
        job = json.load(handle)
    cli = _ready(job)
    ready = time.monotonic()
    result = {"ready": ready}
    src = os.path.realpath(job["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"growbeam imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    if not job.get("probe"):
        import numpy as np
        commands, work_dir = job["commands"], job["work_dir"]
        argvs = [_argv(cmd, work_dir) for cmd in commands]
        missing = []
        if job["trace"]:
            from spans import Patched, Recorder, layer_metrics
            recorder = Recorder(job["iteration"])
            with Patched(recorder) as patched:
                t0 = time.perf_counter()
                codes = _run_commands(cli, argvs)
                wall = time.perf_counter() - t0
            missing = patched.missing
            result["layers"] = layer_metrics(recorder.spans, missing)
            result["spans"] = [s.as_list() for s in recorder.spans]
        else:
            t0 = time.perf_counter()
            codes = _run_commands(cli, argvs)
            wall = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["wall_s"] = wall
        result["codes"] = codes
        result["missing"] = missing
        result["numpy"] = np.__version__
        result["failures"] = check_iteration(commands, work_dir, codes)
    with open(job["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
