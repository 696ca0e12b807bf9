"""Command line entry point.

    ovskale run --config cfg.json [--out DIR] [--seed N] [--verbose]
    ovskale validate --config cfg.json
    ovskale schema

Exit codes: 0 success, 1 experiment assertions failed, 2 configuration
error, 3 numerical failure (horizon violation, non-convergence, step-size
collapse, a run too large for memory).
"""

from __future__ import annotations

import argparse
import sys

from ._version import __version__
from .config import read_config, schema_json, validate_config
from .errors import ConfigError
from .experiments import run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ovskale", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("--config", required=True, help="path to the JSON configuration")
    run_p.add_argument("--out", default=None, help="output directory (default: config's)")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--verbose", action="store_true", help="print per-assertion details")

    val_p = sub.add_parser("validate", help="schema-check a config file and exit")
    val_p.add_argument("--config", required=True, help="path to the JSON configuration")

    sub.add_parser("schema", help="print the configuration JSON schema")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "schema":
        print(schema_json())
        return 0
    try:
        doc = read_config(args.config)
        if args.command == "validate":
            validate_config(doc)
            print(f"{args.config}: valid")
            return 0
        if args.seed is not None and isinstance(doc, dict):
            doc["seed"] = args.seed
        # the one schema check of a run is run_experiment's
        manifest = run_experiment(doc, args.out)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.verbose or manifest["exit_code"] != 0:
        for item in manifest["assertions"]:
            status = "PASS" if item["passed"] else "FAIL"
            print(f"[{status}] {item['name']}: {item['detail']}")
        if manifest["error"]:
            label = "error" if manifest["exit_code"] == 2 else "numerical failure"
            print(f"{label}: {manifest['error']}", file=sys.stderr)
    print(
        f"{manifest['experiment']}: exit {manifest['exit_code']}"
        f" ({len(manifest['outputs'])} files, {manifest['wall_time_s']:.2f}s)"
    )
    return manifest["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
