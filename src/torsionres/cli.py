"""Batch front door: scenario reports, invariant sweeps, identity checks.

    torsionres run --scenario path.json [--out report.json]
    torsionres sweep --m 2 --trials 100 --seed 1 --mode exact
    torsionres lemma --name 3.4 [--seed 1]

Exit codes: 0 all comparisons passed, 1 a verification comparison or a
symbol check inside the pipeline failed, 2 usage or input error (a float
scenario whose report would hold a value out of float range included).
Exact mode compares exactly; float mode compares within the float
field's fixed ``tolerance``, relative to the scale of each comparison.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checks import LEMMA_CHECKS, SWEEP_M, run_sweep
from .geometry import VerificationError
from .report import build_report, report_to_text, summarize_report
from .scenario_io import ScenarioError, load_scenario

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


def _cmd_run(args) -> int:
    try:
        scenario, perturb = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        print(f"error: --out: no directory for {args.out}", file=sys.stderr)
        return EXIT_USAGE
    doc = build_report(scenario, perturb=perturb)
    try:
        text = report_to_text(doc)
    except ValueError as exc:
        print(f"error: the report holds a value out of float range ({exc})", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    for line in summarize_report(doc):
        print(line, file=sys.stderr)
    return EXIT_OK if doc["pass"] else EXIT_VERIFICATION


def _cmd_sweep(args) -> int:
    if args.trials < 1:
        print("error: trials must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    outcome = run_sweep(args.m, args.trials, args.seed, args.mode)
    for line in outcome.lines:
        print(line)
    return EXIT_OK if outcome.passed else EXIT_VERIFICATION


def _cmd_lemma(args) -> int:
    runner = LEMMA_CHECKS[args.name]
    outcome = runner(args.seed)
    for line in outcome.lines:
        print(line)
    print(
        f"{'PASS' if outcome.passed else 'FAIL'} check {args.name}: "
        f"{outcome.failures} failures, max residual {outcome.max_residual:.2e}"
    )
    return EXIT_OK if outcome.passed else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionres",
        description=(
            "Exact spectral-torsion densities for one-form rescaled Dirac "
            "operators, with independent oracle verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate one scenario file and emit its report")
    p_run.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    p_run.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="random-scenario sweep over all pipeline invariants")
    p_sweep.add_argument("--m", type=int, required=True, choices=SWEEP_M)
    p_sweep.add_argument("--trials", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--mode", required=True, choices=("exact", "float"))
    p_sweep.set_defaults(func=_cmd_sweep)

    p_lemma = sub.add_parser("lemma", help="run one targeted identity check")
    p_lemma.add_argument("--name", required=True, choices=sorted(LEMMA_CHECKS))
    p_lemma.add_argument("--seed", type=int, default=0)
    p_lemma.set_defaults(func=_cmd_lemma)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        # a symbol check inside the pipeline failed; its message names the
        # check and its residual
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
