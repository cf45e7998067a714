"""Command-line front end: mulfix fixture | run | classify."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .conditions import classify
from .errors import MulfixError
from .experiment import (ExperimentConfig, dump_json, run_experiment, write_atomic,
                         write_report)
from .fixtures import FIXTURE_NAMES, RemarkReport, fixture_config, run_fixture
from .maps import sample_box


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mulfix",
        description="Fixed points of self-maps on multiplicative metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_config: bool):
        if with_config:
            p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, help="override the sampling seed")
        p.add_argument("--eps", type=float, help="override the stopping tolerance (> 1)")
        p.add_argument("--max-iter", type=int, help="override the iteration cap")
        p.add_argument("--out", help="directory for report and trace files")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="trace file format (default json)")

    p_fix = sub.add_parser("fixture", help="run a bundled reference scenario")
    p_fix.add_argument("name", choices=FIXTURE_NAMES)
    add_common(p_fix, with_config=False)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    add_common(p_run, with_config=True)

    p_cls = sub.add_parser("classify", help="only sample and classify the map")
    add_common(p_cls, with_config=True)
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    solver = config.solver
    if args.eps is not None:
        solver = dataclasses.replace(solver, eps=args.eps)
    if args.max_iter is not None:
        solver = dataclasses.replace(solver, max_iter=args.max_iter)
    updates = {"solver": solver}
    if args.seed is not None:
        updates["seed"] = args.seed
    return dataclasses.replace(config, **updates)


def _print_report(label: str, report) -> None:
    if isinstance(report, RemarkReport):
        print(f"{label}: {'PASS' if report.passed else 'FAIL'}")
        for check in report.checks:
            mark = "PASS" if check["passed"] else "FAIL"
            print(f"  [{mark}] {check['name']}: {check['detail']}")
        return
    n_ok = sum(1 for e in report.expectations if e.passed)
    total = len(report.expectations)
    print(f"{label}: {'PASS' if report.passed else 'FAIL'} "
          f"({n_ok}/{total} expectations)")
    for e in report.expectations:
        mark = "PASS" if e.passed else "FAIL"
        print(f"  [{mark}] {e.kind}: {e.detail}")


def _out_dir(args, config: ExperimentConfig | None):
    if args.out:
        return Path(args.out)
    if config is not None and config.outputs and config.outputs.get("dir"):
        return Path(config.outputs["dir"])
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fixture":
            if args.name == "remark_2_5":
                report = run_fixture(args.name)
                config = None
            else:
                config = _apply_overrides(fixture_config(args.name), args)
                report = run_experiment(config)
            _print_report(f"fixture {args.name}", report)
            out = _out_dir(args, config)
            if out is not None:
                if isinstance(report, RemarkReport):
                    write_atomic(out / "report.json", dump_json(report.to_json_dict()))
                else:
                    write_report(report, out, fmt=args.format)
                print(f"wrote outputs to {out}")
            return 0 if report.passed else 1

        config = _apply_overrides(ExperimentConfig.from_json_file(args.config), args)

        if args.command == "run":
            report = run_experiment(config)
            _print_report(f"run {args.config}", report)
            out = _out_dir(args, config)
            if out is not None:
                write_report(report, out, fmt=args.format)
                print(f"wrote outputs to {out}")
            return 0 if report.passed else 1

        # classify: sampling and condition checks only
        sample = sample_box(config.domain, config.sample_size, config.seed,
                            config.sample_scheme)
        cls_report = classify(config.metric, config.map, sample,
                              constants=config.constants, phi=config.phi,
                              seed=config.seed)
        print(f"classify {args.config}: {cls_report.overall}")
        for theorem in ("t2", "t23", "th3"):
            verdict = cls_report.verdicts[theorem]
            print(f"  {theorem}: {json.dumps(verdict)}")
        out = _out_dir(args, config)
        if out is not None:
            write_atomic(out / "condition_report.json",
                         dump_json(cls_report.to_json_dict()))
            print(f"wrote outputs to {out}")
        return 0
    except MulfixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
