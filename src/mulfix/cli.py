"""Command-line front end: mulfix fixture | run | classify."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import cache
from pathlib import Path

from .conditions import classify
from .errors import MulfixError
from .experiment import ExperimentConfig, run_experiment, write_json, write_report
from .fixtures import FIXTURE_NAMES, RemarkReport, fixture_config, run_fixture
from .maps import sample_box


@cache  # one parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mulfix",
        description="Fixed points of self-maps on multiplicative metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_fix = sub.add_parser("fixture", help="run a bundled reference scenario")
    p_fix.add_argument("name", choices=FIXTURE_NAMES)
    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_cls = sub.add_parser("classify", help="only sample and classify the map")
    for p in (p_run, p_cls):
        p.add_argument("--config", required=True, help="experiment config JSON")
    for p in (p_fix, p_run, p_cls):
        p.add_argument("--seed", type=int, help="override the sampling seed")
        p.add_argument("--out", help="directory for report and trace files")
    for p in (p_fix, p_run):  # classify runs no solver and writes no trace
        p.add_argument("--eps", type=float, help="override the stopping tolerance (> 1)")
        p.add_argument("--max-iter", type=int, help="override the iteration cap")
        p.add_argument("--format", choices=("json", "csv"),
                       help="trace file format (default json)")
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    solver = config.solver  # classify takes no solver flags
    if getattr(args, "eps", None) is not None:
        solver = dataclasses.replace(solver, eps=args.eps)
    if getattr(args, "max_iter", None) is not None:
        solver = dataclasses.replace(solver, max_iter=args.max_iter)
    updates = {"solver": solver}
    if args.seed is not None:
        updates["seed"] = args.seed
    return dataclasses.replace(config, **updates)


def _say(text: str) -> None:
    """Print text, best effort: once the reader closes stdout, the rest goes
    to os.devnull, as the Python docs advise, and the run writes its outputs."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _print_report(label: str, report) -> None:
    if isinstance(report, RemarkReport):
        count, lines = "", [(c["passed"], c["name"], c["detail"]) for c in report.checks]
    else:
        n_ok = sum(1 for e in report.expectations if e.passed)
        count = f" ({n_ok}/{len(report.expectations)} expectations)"
        lines = [(e.passed, e.kind, e.detail) for e in report.expectations]
    _say(f"{label}: {'PASS' if report.passed else 'FAIL'}{count}")
    for passed, name, detail in lines:
        _say(f"  [{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out == "":
        parser.error("--out needs a directory, got an empty path")
    try:
        if args.command == "fixture" and args.name == "remark_2_5":
            # the exact counterexamples have no config, solver or trace
            given = [flag for flag, value in (("--seed", args.seed), ("--eps", args.eps),
                                              ("--max-iter", args.max_iter),
                                              ("--format", args.format))
                     if value is not None]
            if given:
                parser.error(f"fixture remark_2_5 takes no {', '.join(given)}")
            remark = run_fixture(args.name)
            _print_report(f"fixture {args.name}", remark)
            if args.out is not None:
                write_json(Path(args.out) / "report.json", remark.to_json_dict())
                _say(f"wrote outputs to {Path(args.out)}")
            return 0 if remark.passed else 1

        if args.command == "fixture":
            label, config = f"fixture {args.name}", fixture_config(args.name)
        else:
            label = f"{args.command} {args.config}"
            config = ExperimentConfig.from_json_file(args.config)
        config = _apply_overrides(config, args)
        directory = args.out or (config.outputs or {}).get("dir")  # --out wins
        out = Path(directory) if directory else None

        if args.command != "classify":
            report = run_experiment(config)
            _print_report(label, report)
            if out is not None:
                write_report(report, out, fmt=args.format or "json")
                _say(f"wrote outputs to {out}")
            return 0 if report.passed else 1

        # classify: sampling and condition checks only
        sample = sample_box(config.domain, config.sample_size, config.seed,
                            config.sample_scheme)
        cls_report = classify(config.metric, config.map, sample,
                              constants=config.constants, phi=config.phi,
                              seed=config.seed)
        _say(f"{label}: {cls_report.overall}")
        for theorem in ("t2", "t23", "th3"):
            verdict = cls_report.verdicts[theorem]
            _say(f"  {theorem}: {json.dumps(verdict)}")
        if out is not None:
            write_json(out / "condition_report.json", cls_report.to_json_tree())
            _say(f"wrote outputs to {out}")
        return 0
    except (MulfixError, OSError) as exc:  # OSError: a config or output file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
