"""Command-line entry point: run scenarios and validate configs.

Exit codes: 0 success, 1 configuration/validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, MfgError


def _build_parser():
    p = argparse.ArgumentParser(
        prog="mfg-errsim",
        description="Batch experiments for mean-field games with erroneous "
                    "initial information.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario config")
    run.add_argument("config", help="path to a JSON scenario config")
    run.add_argument("--out", help="output directory (overrides config)")
    run.add_argument("--seed", type=int, help="seed override")
    run.add_argument("--steps", type=int, help="grid steps override")

    val = sub.add_parser("validate", help="check a scenario config")
    val.add_argument("config", help="path to a JSON scenario config")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            from .scenario import load_config

            load_config(args.config)
            print("config ok")
            return 0
        if args.command == "run":
            from .scenario import load_document, run_scenario, validate_config

            raw = load_document(args.config)
            if isinstance(raw, dict):
                for key, value in (("seed", args.seed), ("grid_steps", args.steps)):
                    if value is not None:
                        raw[key] = value
            config = validate_config(raw)
            manifest = run_scenario(config, output_dir=args.out)
            print(f"wrote {len(manifest.files)} outputs "
                  f"(config {manifest.config_hash[:12]})")
            return 0
    except ConfigError as e:
        for field, reason in e.problems:
            print(f"config error: {field}: {reason}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MfgError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
