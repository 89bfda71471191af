"""Command-line entry point: banditlab dim|play|experts|linear-check|experiment."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness, linear
from .dimensions import bldim, format_witness, ldim, shatter_witness
from .harness import GameConfig, bound_holds, resolve_class, run_experiment, run_game
from .hypotheses import RealizabilityViolation
from .learners import exp4_gamma, expert_count


def _cmd_dim(args) -> int:
    fc = resolve_class(args.classfile)
    space = fc.full_space()
    for mode, name, fn, tree in (("l", "ldim", ldim, "L"), ("bl", "bldim", bldim, "BL")):
        if args.mode in (mode, "both"):
            d = fn(space)
            print(f"{name} {fc.name} = {d}")
            if args.witness and d > 0:
                print(format_witness(shatter_witness(space, d, tree, depth_cap=max(6, d))))
    return 0


def _cmd_play(args) -> int:
    fc = resolve_class(args.klass)
    cfg = GameConfig(fc, args.learner, args.adversary, args.T, args.trials, args.seed)
    transcripts = run_game(cfg)
    bound = harness.play_bound(cfg, fc)
    lines = ["trial,mistakes,bound,within_bound"]
    all_within = True
    for trial, t in enumerate(transcripts):
        if bound is None:
            lines.append(f"{trial},{t.mistakes},,")
            continue
        value, direction = bound
        within = bound_holds(t.mistakes, value, direction)
        all_within &= within
        lines.append(f"{trial},{t.mistakes},{value!r},{str(within).lower()}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0 if all_within else 1


def _cmd_experts(args) -> int:
    fc = resolve_class(args.klass)
    L = ldim(fc.full_space())
    exact = expert_count(args.T, fc.k, L)
    ceiling = (args.T * fc.k + 1) ** L
    print(f"class {fc.name}: ldim={L}, horizon T={args.T}")
    print(f"experts: {exact} (ceiling (T*k+1)^ldim = {ceiling})")
    print(f"gamma = {exp4_gamma(args.T, fc.k, L)!r}")
    return 0


def _cmd_linear_check(args) -> int:
    report = linear.embedding_norm_report(args.delta, args.k)
    print(f"blocks delta={args.delta}, labels k={args.k}, ambient d={report['d']}")
    print(f"min gap = {report['min_gap']!r}")
    print(f"raw ||W||_F^2 = {report['raw_norm_sq']!r} (= delta*k^5)")
    print(f"normalized ||W||_F^2 (min gap 1) = {report['normalized_norm_sq']!r}")
    print(f"threshold k^3*d = {report['threshold_norm_sq']!r}")
    if report["fits_threshold"]:
        print("normalized construction fits inside the threshold")
    else:
        print("flag: normalized construction exceeds the threshold")
    return 0


def _cmd_experiment(args) -> int:
    report = run_experiment(args.preset, seed=args.seed, trials=args.trials, T=args.T)
    csv_text = report.to_csv()
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        print(csv_text, end="")
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return 0 if report.all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditlab",
        description="Online multiclass learning under bandit feedback, at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="exact dimensions of a class")
    p.add_argument("classfile", help="class file path or builtin spec (e.g. full:2x3)")
    p.add_argument("--mode", choices=("l", "bl", "both"), default="both")
    p.add_argument("--witness", action="store_true", help="print a shattered tree")
    p.set_defaults(fn=_cmd_dim)

    p = sub.add_parser("play", help="run learner-vs-adversary games")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--learner", required=True)
    p.add_argument("--adversary", required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(fn=_cmd_play)

    p = sub.add_parser("experts", help="deviation-expert count and exp4 mixing rate")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--T", type=int, required=True)
    p.set_defaults(fn=_cmd_experts)

    p = sub.add_parser("linear-check", help="margin construction bookkeeping")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_linear_check)

    p = sub.add_parser("experiment", help="run a preset sweep")
    p.add_argument("preset", choices=sorted(harness.PRESETS))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.add_argument("--json", action="store_true", help="also print a JSON report")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Exit code 0 if every checked bound holds, 1 if one fails, 2 on rejected
    input or a file that cannot be read or written."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RealizabilityViolation, OSError) as err:
        print(f"banditlab: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
