"""CLI entry point: ``python -m repro.fuzz --seed N --iters K``."""

from __future__ import annotations

import argparse
import inspect
import sys

from ..lint.diagnostics import LintLevel
from .generator import GeneratorConfig
from .oracle import LEGS, DifferentialOracle
from .runner import run_campaign


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing of the DISC pipeline against "
                    "the reference interpreter and simulated baselines.")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--iters", type=int, default=100,
                        help="number of random graphs (default 100)")
    parser.add_argument("--max-nodes", type=int, default=None,
                        help="cap on generated graph size")
    parser.add_argument("--bindings-per-graph", type=int, default=3,
                        help="shape assignments checked per graph")
    parser.add_argument("--out", default="fuzz-artifacts",
                        help="directory for minimized failure repros")
    parser.add_argument("--no-minimize", action="store_true",
                        help="skip delta-debugging of failures")
    parser.add_argument("--lint", action="store_true",
                        help="run the repro.lint analyzer suite on every "
                             "case (generated graph + pipeline artifacts) "
                             "and treat failing diagnostics as oracle "
                             "failures; also cross-checks the interval "
                             "engine dynamically — every concrete shape "
                             "executed must lie inside its statically "
                             "derived interval")
    parser.add_argument("--lint-level", choices=["default", "strict"],
                        default="default",
                        help="lint strictness when --lint is set "
                             "(strict also fails on warnings)")
    for name, check in LEGS.items():
        parser.add_argument(
            f"--{name}", action="store_true",
            help=inspect.getdoc(check).replace("%", "%%"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = GeneratorConfig()
    if args.max_nodes is not None:
        config.max_nodes = args.max_nodes
    oracle = DifferentialOracle(
        lint_level=LintLevel(args.lint_level) if args.lint
        else LintLevel.OFF,
        legs=[name for name in LEGS if getattr(args, name)])
    report = run_campaign(
        seed=args.seed, iters=args.iters, config=config,
        out_dir=args.out, minimize_failures=not args.no_minimize,
        oracle=oracle,
        bindings_per_graph=args.bindings_per_graph,
        log=lambda msg: print(msg, file=sys.stderr))
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
