"""Command-line front end: mulfix fixture | run | classify."""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import logging
import os
import sys
from functools import cache
from pathlib import Path

from .conditions import classify
from .errors import MulfixError
from .experiment import (ExperimentConfig, _replacing, run_experiment, write_json,
                         write_report)
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
        p.add_argument("--pairs", action="store_true", default=None,  # None: not given
                       help="also write each pair record with its slack to pairs.csv")
    for p in (p_fix, p_run):  # classify runs no solver and writes no trace
        p.add_argument("--eps", type=float, help="override the stopping tolerance (> 1)")
        p.add_argument("--max-iter", type=int, help="override the iteration cap")
        p.add_argument("--format", choices=("json", "csv"),
                       help="trace file format (default json)")
    return parser


class _Warnings(logging.Handler):
    """Each record as a ``warning:`` line on ``sys.stderr`` as it is then."""

    def emit(self, record):
        print(f"warning: {record.getMessage()}", file=sys.stderr)


_WARNINGS = _Warnings()


def _apply_overrides(config: ExperimentConfig, given: dict) -> ExperimentConfig:
    """The config with the given --seed, --eps and --max-iter in place; the
    config itself when none is given, so that it is not validated again."""
    if given.keys().isdisjoint(("seed", "eps", "max_iter")):
        return config
    solver = dataclasses.replace(config.solver, **{name: given[name] for name in
                                                   ("eps", "max_iter") if name in given})
    return dataclasses.replace(config, seed=given.get("seed", config.seed), solver=solver)


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
    # one handler per process, as adding it again is a no-op; records still propagate
    logging.getLogger("mulfix").addHandler(_WARNINGS)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out == "":
        parser.error("--out needs a directory, got an empty path")
    given = {name: value for name, value in vars(args).items() if value is not None}
    try:
        if args.command == "fixture" and args.name == "remark_2_5":
            # the exact counterexamples have no config, solver or trace
            flags = ["--" + name.replace("_", "-") for name in given
                     if name not in ("command", "name", "out")]
            if flags:
                parser.error(f"fixture remark_2_5 takes no {', '.join(flags)}")
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
        config = _apply_overrides(config, given)
        directory = args.out or (config.outputs or {}).get("dir")  # --out wins
        out = Path(directory) if directory else None
        if args.pairs and out is None:
            parser.error("--pairs needs an output directory: give --out or outputs.dir")

        if args.command != "classify":
            report = run_experiment(config)
            _print_report(label, report)
            cls_report = report.classification
        else:  # sampling and condition checks only
            sample = sample_box(config.domain, config.sample_size, config.seed,
                                config.sample_scheme)
            cls_report = classify(config.metric, config.map, sample,
                                  constants=config.constants, phi=config.phi,
                                  seed=config.seed)
            _say(f"{label}: {cls_report.overall}")
            for theorem in ("t2", "t23", "th3"):
                _say(f"  {theorem}: {json.dumps(cls_report.verdicts[theorem])}")
        if out is not None:
            if args.command != "classify":
                write_report(report, out, fmt=args.format or "json")
            else:
                write_json(out / "condition_report.json", cls_report.to_json_tree())
            if args.pairs:
                with _replacing(out / "pairs.csv") as f, \
                        io.TextIOWrapper(f, encoding="utf-8", newline="") as text:
                    cls_report.rows.write_csv(text)
            _say(f"wrote outputs to {out}")
        return 0 if args.command == "classify" or report.passed else 1
    except (MulfixError, OSError) as exc:  # OSError: a config or output file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
