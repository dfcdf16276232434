"""Command line entry point.

Each subcommand is a task name; the scenario comes from --config (JSON) with
the subcommand overriding the configured task name.  Exit codes: 0 success,
1 validation failure, 2 configuration error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import BohmlabError, ConfigurationError
from .harness import parse_config, run

TASKS = ("propagate", "trajectories", "weakvalue", "work", "dwell", "psd",
         "measure", "validate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohmlab",
        description="Intrinsic quantum dynamics from Bohmian trajectories, "
                    "weak values, and a simulated measurement chain.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", help="scenario JSON file "
                       "(defaults apply when omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory "
                       "(overrides the BOHMLAB_OUT environment variable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            with open(args.config) as fh:
                raw = json.load(fh)
        else:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigurationError("config must be a JSON object")
        task = dict(raw.get("task", {}))
        if task.get("name") not in (None, args.task):
            raise ConfigurationError(
                f"config task {task.get('name')!r} does not match "
                f"subcommand {args.task!r}")
        task["name"] = args.task
        raw["task"] = task
        if args.seed is not None:
            raw.setdefault("ensemble", {})["seed"] = args.seed
        config = parse_config(json.dumps(raw))
    except (OSError, json.JSONDecodeError, ConfigurationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        manifest = run(config, out_dir=args.out)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BohmlabError, FloatingPointError) as exc:
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    print(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
    if args.task == "validate" and not manifest.summary.get("passed", False):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
