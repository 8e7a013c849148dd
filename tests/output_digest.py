"""SHA-256 of every output file the shipped configurations produce.

Runs each ``configs/*.cfg`` through the subcommand the README's loop picks
(``analytic*`` through ``analytic``, ``convexity*`` through ``convexity``,
the rest through ``run``) into ``<out>/<name>``, re-renders its
``plot.steps`` with ``plot`` into ``<out>/<name>/replot``, and prints
``{relative path: sha256}`` as sorted JSON.  To check that two commits
write the same bytes, save the digest of one and compare the other to it:

    python tests/output_digest.py > ref.json             # in one checkout
    python tests/output_digest.py --compare ref.json     # in the other

``--compare`` prints each changed, added and missing path instead of the
JSON, and exits 1 if there is any, 0 if there is none.

It imports ``growbeam`` from the ``src/`` next to it.  Not collected by
pytest; ``tests/test_cli.py`` runs ``digest`` on one config and checks
``compare``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def subcommand(name: str) -> str:
    """The README loop's choice of subcommand for config ``name``."""
    for prefix in ("analytic", "convexity"):
        if name.startswith(prefix):
            return prefix
    return "run"


def digest(configs, out_dir) -> dict:
    """Run ``configs`` into ``out_dir`` and hash every file written there."""
    from growbeam.cli import main
    from growbeam.config import parse_config

    out_dir = Path(out_dir)
    for cfg in sorted(Path(c) for c in configs):
        name = cfg.stem
        target = out_dir / name
        code = main([subcommand(name), str(cfg), "--output-dir", str(target), "--quiet"])
        if code != 0:
            raise SystemExit(f"{cfg}: exit {code}")
        steps = parse_config(cfg.read_text()).plot_steps
        if steps and subcommand(name) == "run":
            code = main(["plot", str(target), "--steps", *map(str, steps),
                         "--output-dir", str(target / "replot"), "--quiet"])
            if code != 0:
                raise SystemExit(f"{cfg}: plot exit {code}")
    return {path.relative_to(out_dir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def compare(ref: dict, new: dict) -> list:
    """One ``changed|added|missing: path`` line per path whose hash differs."""
    lines = [f"changed: {p}" for p in sorted(ref.keys() & new.keys()) if ref[p] != new[p]]
    lines += [f"added: {p}" for p in sorted(new.keys() - ref.keys())]
    lines += [f"missing: {p}" for p in sorted(ref.keys() - new.keys())]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--configs", default=str(ROOT / "configs"),
                        help="directory of *.cfg files (default: configs/)")
    parser.add_argument("--out", default=None,
                        help="keep the outputs here (default: a temporary directory)")
    parser.add_argument("--compare", metavar="REF.json", default=None,
                        help="list the paths whose hash differs from this digest; "
                             "exit 1 if any does")
    args = parser.parse_args(argv)
    configs = sorted(Path(args.configs).glob("*.cfg"))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        sums = digest(configs, args.out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            sums = digest(configs, tmp)
    if args.compare:
        lines = compare(json.loads(Path(args.compare).read_text()), sums)
        print("\n".join(lines) if lines else "no difference")
        return 1 if lines else 0
    print(json.dumps(sums, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
