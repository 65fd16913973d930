"""Command-line front end: run / compare / oracle.

Exit codes: 0 success, 1 configuration error, 2 runtime error. Log verbosity
comes from the LAYERQ_LOG environment variable (debug/info/warning/error).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from .experiments import (
    ComparisonError,
    ConfigError,
    compare_experiments,
    load_config,
    resolve_horizon,
    run_experiment,
    run_oracle_command,
)

logger = logging.getLogger("layerq")


def _setup_logging() -> None:
    level_name = os.environ.get("LAYERQ_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s %(levelname)s: %(message)s"))
    logger.handlers.clear()
    logger.addHandler(handler)
    logger.setLevel(level)


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"--seeds: expected comma-separated integers, got {text!r}") from None
    if not seeds:
        raise ConfigError("--seeds: need at least one seed")
    return seeds


def _parse_horizon(text: str) -> int:
    return resolve_horizon(int(text) if text.strip().isdigit() else text)


def _apply_overrides(cfg, args):
    run = cfg.run
    if args.seeds is not None:
        run = dataclasses.replace(run, seeds=_parse_seeds(args.seeds))
    if args.horizon is not None:
        run = dataclasses.replace(run, horizon=_parse_horizon(args.horizon))
    if run is not cfg.run:
        cfg = dataclasses.replace(cfg, run=run)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerq",
        description="Cross-layer encoder/DVFS simulator and learning toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="YAML experiment config")
    run_p.add_argument("--seeds", help="comma-separated seeds overriding the config")
    run_p.add_argument("--horizon", help="slot count or preset (short/medium/long)")
    run_p.add_argument("--out", help="output directory (default from the config)")

    cmp_p = sub.add_parser("compare", help="run several configs on a shared environment")
    cmp_p.add_argument("configs", nargs="+", help="YAML experiment configs")
    cmp_p.add_argument("--out", required=True, help="output directory")

    orc_p = sub.add_parser("oracle", help="solve the estimated model and emit policy/values/weights")
    orc_p.add_argument("config", help="YAML experiment config")
    orc_p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _apply_overrides(load_config(args.config), args)
            result = run_experiment(cfg, args.out)
            print(f"wrote {len(result.files)} artifact(s) to {result.out_dir}")
        elif args.command == "compare":
            results = compare_experiments([load_config(p) for p in args.configs], args.out)
            print(f"compared {len(results)} experiment(s); artifacts in {args.out}")
        elif args.command == "oracle":
            files = run_oracle_command(load_config(args.config), args.out)
            print(f"wrote {len(files)} artifact(s) to {args.out}")
    except (ConfigError, ComparisonError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 2
        logger.debug("unhandled failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
