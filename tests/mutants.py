"""Mutation harness: each entry breaks one piece of the source on purpose,
and the tests it names must then fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py          # every entry
    python tests/mutants.py NAME...  # the named entries

First the union of the named tests must pass on an unchanged copy, so that
a kill is the mutation's doing.  Then, for each entry, ``src/`` and
``tests/`` are copied to a temporary directory, the entry's exact old text
in its file is replaced by the new text, and ``python -m pytest -x -q`` runs
the entry's tests there with ``HYPOTHESIS_PROFILE=ci``.  An entry is killed
when pytest reports a failed test (exit status 1).  An old text that does
not occur exactly once, or any other pytest exit status, is an error, never
a kill.  The exit status is 0 when every entry is killed, else 1.

The file is not named ``test_*``, so a plain pytest run does not collect
it, and it uses the standard library only.  A change that proves a test
bites by a mutation adds the mutation here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str   # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


FLAG_PATTERNS = ("tests/test_writer.py::"
                 "test_every_flag_pattern_across_block_edges_equals_the_reference")
CLASSIFY_REFERENCE = "tests/test_kernel.py::test_classify_equals_the_scalar_reference_loop"
ROUNDED_RETURN = ("tests/test_kernel.py::"
                  "test_a_return_whose_coordinate_difference_rounds_down_is_found")
MIXED_SAMPLE = "tests/test_maps.py::test_a_mixed_sample_is_the_grid_plus_numpys_uniform_stream"
KNOWN_ANSWERS = ("tests/test_metrics.py::"
                 "test_builtin_metrics_meet_their_known_answers_at_every_box_width")
ROUNDING_ORACLE = ("tests/test_metrics.py::"
                   "test_a_builtin_tables_rounding_stays_within_the_margin")
ORBIT_SCANS = "tests/test_kernel.py::test_orbit_scans_equal_their_scalar_loops"
FORWARD_PAIRS = ("tests/test_kernel.py::"
                 "test_cauchy_indicator_reads_only_forward_pairs_in_every_row_block")
LIMIT_SHARE = "tests/test_sequences.py::test_a_limit_point_holds_a_quarter_of_the_trace"
RATIO_CONTRACTION = ("tests/test_solver.py::"
                     "test_a_ratio_contraction_converges_within_its_bound_from_any_box")
DIVERGES_ONLY = "tests/test_solver.py::test_a_run_diverges_only_when_its_orbit_leaves_the_floats"
RUNAWAY = "tests/test_solver.py::test_a_runaway_orbit_reads_distances_linear_in_max_iter"
LOOK_BACK = ("tests/test_solver.py::test_two_point_swap_is_reported_as_a_cycle",
             "tests/test_solver.py::test_a_cycle_is_detected_up_to_25_steps_back",
             "tests/test_kernel.py::"
             "test_the_prefiltered_look_back_finds_what_the_exact_scan_finds")

MUTANTS = (
    Mutant("flag bits read in reverse order", "src/mulfix/conditions.py",
           "code >> c & 1", "code >> (len(self.checks) - 1 - c) & 1", (FLAG_PATTERNS,)),
    Mutant("flag slice off by one", "src/mulfix/conditions.py",
           "flags[:, a:b]", "flags[:, a + 1:b + 1]", (FLAG_PATTERNS,)),
    Mutant("looser cycle threshold", "src/mulfix/solver.py",
           "_CYCLE_LOGD = 1e-14", "_CYCLE_LOGD = 1e-13",
           ("tests/test_solver.py::test_a_return_is_a_cycle_only_within_the_cycle_threshold",)),
    Mutant("shorter cycle look-back", "src/mulfix/solver.py",
           "_LOOKBACK = 25", "_LOOKBACK = 24",
           ("tests/test_solver.py::test_a_cycle_is_detected_up_to_25_steps_back",)),
    Mutant("shorter Cauchy window", "src/mulfix/solver.py",
           "_WINDOW = 10", "_WINDOW = 9",
           ("tests/test_solver.py::"
            "test_a_run_converges_once_its_last_10_iterates_are_pairwise_close",)),
    Mutant("a long finite step diverges", "src/mulfix/solver.py",
           "            steps.append(last)\n",
           "            steps.append(last)\n"
           "            if last > 700.0:\n"
           "                status = Status.DIVERGED\n"
           "                break\n", (DIVERGES_ONLY,)),
    Mutant("an infinite step that diverges again", "src/mulfix/solver.py",
           "            steps.append(last)\n",
           "            steps.append(last)\n"
           "            if last == math.inf:\n"
           "                look.flush(len(points) - 1)\n"
           "                status = Status.DIVERGED\n"
           "                break\n", (DIVERGES_ONLY, RATIO_CONTRACTION)),
    Mutant("a finite divergence cut restored in the map-ahead", "src/mulfix/solver.py",
           "        n = _leading(ok)\n        points.extend",
           "        n = _leading(ok & (d <= 700.0))\n        points.extend",
           (RATIO_CONTRACTION,)),
    Mutant("a monotone comparison after an infinite step", "src/mulfix/solver.py",
           "log_eps < prev < math.inf and d >= prev", "log_eps < prev and d >= prev",
           ("tests/test_solver.py::"
            "test_the_monotone_rule_compares_no_step_with_an_infinite_one[step-by-step]",)),
    Mutant("bound rows without the rounding margin", "src/mulfix/solver.py",
           "limit += _reference_margin(self.dim, self.tol, top)", "limit += 0.0",
           (RATIO_CONTRACTION,)),
    Mutant("a-priori bound expectation skips a violation", "src/mulfix/experiment.py",
           "len(b.violations) for b in report.bounds",
           "len(b.violations[1:]) for b in report.bounds",
           ("tests/test_experiment_cli.py::"
            "test_apriori_bound_expectation_counts_the_bound_violations",)),
    Mutant("limit-point share rounded down", "src/mulfix/sequences.py",
           "need, n = math.ceil(len(points) / 4), len(points)",
           "need, n = len(points) // 4, len(points)", (LIMIT_SHARE,)),
    Mutant("a limit point needing one point more", "src/mulfix/sequences.py",
           "(D < log_eps).sum(axis=1) >= need", "(D < log_eps).sum(axis=1) > need",
           (LIMIT_SHARE, ORBIT_SCANS)),
    Mutant("a limit point read at its index in the row block", "src/mulfix/sequences.py",
           "trace.points[block[int(hits[0])]]", "trace.points[int(hits[0])]", (ORBIT_SCANS,)),
    Mutant("Cauchy scan without its NaN mask", "src/mulfix/sequences.py",
           "where=lag & ~np.isnan(D)", "where=lag", (ORBIT_SCANS,)),
    Mutant("row-block lags without the lowest", "src/mulfix/sequences.py",
           "(c >= i - hi) & (c <= i - lo)", "(c >= i - hi) & (c < i - lo)", LOOK_BACK),
    Mutant("row-block lags without the highest", "src/mulfix/sequences.py",
           "(c >= i - hi) & (c <= i - lo)", "(c > i - hi) & (c <= i - lo)",
           (ORBIT_SCANS, *LOOK_BACK)),
    Mutant("row-block columns from one past the highest lag", "src/mulfix/sequences.py",
           "first, end = max(0, block[0] - hi),", "first, end = max(0, block[0] - hi + 1),",
           LOOK_BACK),
    Mutant("row-block columns to one short of the lowest lag", "src/mulfix/sequences.py",
           "min(len(points), block[-1] - lo + 1)", "min(len(points), block[-1] - lo)",
           (ORBIT_SCANS, *LOOK_BACK)),
    Mutant("row-block lags counted from the first column", "src/mulfix/sequences.py",
           "[:, None], np.arange(first, end)", "[:, None], np.arange(end - first)",
           (ORBIT_SCANS,)),
    Mutant("row-block distances read column by row", "src/mulfix/sequences.py",
           "D = metric._log_distance_matrix([points[i] for i in block], points[first:end])",
           "D = metric._log_distance_matrix(points[first:end], [points[i] for i in block]).T",
           (FORWARD_PAIRS,)),
    Mutant("the neighbour count needing one neighbour more", "src/mulfix/sequences.py",
           'np.searchsorted(s, v - t) >= need', 'np.searchsorted(s, v - t) > need',
           (ROUNDED_RETURN,)),
    Mutant("the neighbour count on the first coordinate only", "src/mulfix/sequences.py",
           "for v in metric._values(_array(points)).T:",
           "for v in metric._values(_array(points)).T[:1]:", (RUNAWAY,)),
    Mutant("map failures narrowed to two types", "src/mulfix/maps.py",
           "except (ArithmeticError, ValueError)", "except (ZeroDivisionError, OverflowError)",
           ("tests/test_maps.py::test_a_map_failure_has_one_outcome_everywhere",)),
    Mutant("a pair's error taken from its last cause", "src/mulfix/conditions.py",
           "return min(at, key=", "return max(at, key=",
           ("tests/test_conditions.py::"
            "test_the_summary_counts_every_cause_of_an_unevaluated_pair",)),
    Mutant("pattern cache filled only in the first block", "src/mulfix/conditions.py",
           "for code in set(codes) - parts.keys():",
           "for code in (set(codes) - parts.keys() if a == 0 else ()):", (FLAG_PATTERNS,)),
    Mutant("an error record ahead of its run's pairs", "src/mulfix/conditions.py",
           "yield a, pos, (i, j, message)",
           "yield a, a, (i, j, message)\n            yield a, pos, None",
           ("tests/test_writer.py::test_error_rows_at_every_position_equal_the_reference",
            "tests/test_writer.py::test_an_error_message_stays_on_its_record_line")),
    Mutant("cross sum gathered without L(y, Tx)", "src/mulfix/conditions.py",
           "self.Dxt[I, J] + self.Dxt[J, I]", "2 * self.Dxt[I, J]", (CLASSIFY_REFERENCE,)),
    Mutant("own sum gathered without L(y, Ty)", "src/mulfix/conditions.py",
           "self.step[I] + self.step[J]", "2 * self.step[I]", (CLASSIFY_REFERENCE,)),
    Mutant("collapsed pairs used by the estimates", "src/mulfix/conditions.py",
           "used = Dxx != 0", "used = np.ones(len(Dxx), dtype=bool)",
           ("tests/test_kernel.py::"
            "test_a_collapsed_pair_is_skipped_by_estimation_and_evaluated_by_classify",)),
    Mutant("equal points taken as distinct", "src/mulfix/conditions.py",
           "self.distinct = ~self.equal[self.I, self.J]",
           "self.distinct = np.ones(len(self.I), dtype=bool)",
           (CLASSIFY_REFERENCE, "tests/test_conditions.py::"
            "test_the_summary_counts_every_cause_of_an_unevaluated_pair")),
    Mutant("a sample point outside the space is not raised", "src/mulfix/metrics.py",
           'raise DomainError(f"point {k}: {why}")', "pass",
           ("tests/test_conditions.py::test_a_sample_point_outside_the_space_is_bad_input",
            "tests/test_experiment_cli.py::"
            "test_a_sample_point_outside_the_space_exits_2_and_names_it")),
    Mutant("zero admitted as a positive coordinate", "src/mulfix/metrics.py",
           '"star_product": (gt, "positive")',
           '"star_product": (lambda c, z: c >= z, "positive")',
           ("tests/test_metrics.py::"
            "test_a_point_is_in_the_space_alike_as_a_tuple_and_as_an_array_row",)),
    Mutant("a bad point named one past its index", "src/mulfix/metrics.py",
           '"point {k}: {why}"', '"point {k + 1}: {why}"',
           ("tests/test_conditions.py::"
            "test_every_check_of_a_sample_names_its_point_outside_the_space",)),
    Mutant("a run's start not checked at its first step", "src/mulfix/solver.py",
           "(prev is None and len(x) == len(y) and outside(x, len(x)))", "False",
           ("tests/test_kernel.py::"
            "test_an_escape_is_raised_at_the_iterate_a_step_by_step_scan_names",)),
    Mutant("a FunctionMetric's log_distance_matrix bound to its kernel",
           "src/mulfix/metrics.py",
           "    log_distance_matrix = MetricSpec.log_distance_matrix",
           "    log_distance_matrix = lambda self, X, Y: "
           "self._log_distance_matrix(list(X), list(Y))",
           ("tests/test_kernel.py::"
            "test_a_function_metric_rejects_points_of_mixed_dimension_everywhere",)),
    Mutant("uniqueness candidates converted but not checked", "src/mulfix/solver.py",
           "c for c in metric._checked(candidates) if",
           "c for c in map(as_point, candidates) if",
           ("tests/test_kernel.py::test_uniqueness_probe_rejects_a_candidate_outside_the_space",)),
    Mutant("a FunctionMetric's steps not checked", "src/mulfix/solver.py",
           "outside = _checked_image(T), metric._log_distance, metric._outside",
           "outside = _checked_image(T), metric._log_distance, (\n"
           "        metric._outside if isinstance(metric, MetricSpec) else lambda p, dim: None)",
           ("tests/test_kernel.py::test_an_escape_is_raised_at_the_iterate_a_step_by_step_scan_"
            "names[function-metric-widens]",)),
    Mutant("neighbour-count prefilter without its rounding margin", "src/mulfix/metrics.py",
           "return (log_radius + _reference_margin(dim, log_radius, log_radius)) / factor",
           "return log_radius / factor", (ROUNDED_RETURN,)),
    Mutant("a non-finite map parameter accepted", "src/mulfix/maps.py",
           "if v is not None and not math.isfinite(v):", "if False:",
           ("tests/test_experiment_cli.py::"
            "test_a_map_parameter_beyond_float_range_exits_2_naming_it",)),
    Mutant("a box whose width overflows accepted", "src/mulfix/maps.py",
           "if not math.isfinite(hi - lo) or lo > hi:",
           "if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:",
           ("tests/test_experiment_cli.py::"
            "test_a_box_whose_width_overflows_exits_2_naming_the_domain",)),
    Mutant("grid lattice one node wider per axis", "src/mulfix/maps.py",
           "while k ** box.dim < n:", "while (k - 1) ** box.dim < n:",
           ("tests/test_maps.py::test_grid_points_use_the_smallest_lattice_that_holds_n",)),
    Mutant("PCG64 increment without its low bit", "src/mulfix/maps.py",
           "(s2 << 64 | s3) << 1 | 1", "(s2 << 64 | s3) << 1", (MIXED_SAMPLE,)),
    Mutant("PCG64 rotation read from one bit too low", "src/mulfix/maps.py",
           "state >> 122", "state >> 121", (MIXED_SAMPLE,)),
    Mutant("SeedSequence cross-mixing skipped", "src/mulfix/maps.py",
           "for s in range(4):", "for s in range(0):", (MIXED_SAMPLE,)),
    Mutant("warning without its prefix", "src/mulfix/cli.py",
           'f"warning: {record.getMessage()}"', "record.getMessage()",
           ("tests/test_experiment_cli.py::test_a_map_that_fails_at_every_point_warns_once",)),
    Mutant("only a config error exits 2", "src/mulfix/cli.py",
           "from .errors import MulfixError", "from .errors import ConfigError as MulfixError",
           ("tests/test_experiment_cli.py::test_a_drawn_config_run_keeps_the_exit_contract",)),
    Mutant("a warning handler added at every call", "src/mulfix/cli.py",
           "@cache  # one handler per process", "# one handler per process",
           ("tests/test_experiment_cli.py::test_each_run_in_one_process_warns_once",)),
    Mutant("logging loaded with the condition checks", "src/mulfix/conditions.py",
           "import io\nimport json\nimport math\n",
           "import io\nimport json\nimport logging\nimport math\n",
           ("tests/test_experiment_cli.py::"
            "test_a_run_and_its_report_load_no_logging_csv_or_fractions",)),
    Mutant("a kept point tuple not checked for finiteness", "src/mulfix/metrics.py",
           "        coords: Point = value\n", "        return value\n",
           ("tests/test_metrics.py::test_as_point_rejects",)),
    Mutant("a non-finite point named one past its index", "src/mulfix/metrics.py",
           '"point {k}: {exc}"', '"point {k + 1}: {exc}"',
           ("tests/test_conditions.py::"
            "test_every_check_of_a_sample_names_its_point_outside_the_space",)),
    Mutant("phi-rejected pairs left in the evaluated columns", "src/mulfix/conditions.py",
           "columns = [c[evaluated[table.usable]] for c in usable]", "columns = usable",
           (CLASSIFY_REFERENCE,)),
    Mutant("looser fixed-point tolerance", "src/mulfix/experiment.py",
           "_FIXED_POINT_TOL = 1e-8", "_FIXED_POINT_TOL = 1e-7",
           ("tests/test_experiment_cli.py::"
            "test_a_fixed_point_expectation_allows_a_coordinate_error_of_1e_8",)),
    Mutant("looser constants tolerance", "src/mulfix/experiment.py",
           "_CONSTANTS_TOL = 1e-9", "_CONSTANTS_TOL = 1e-8",
           ("tests/test_experiment_cli.py::"
            "test_a_constants_expectation_allows_an_error_of_1e_9",)),
    Mutant("an error record one pair late", "src/mulfix/conditions.py",
           "errors.append((int(before[k]),", "errors.append((int(before[k]) + 1,",
           (CLASSIFY_REFERENCE,
            "tests/test_conditions.py::test_a_pole_in_the_sample_gives_error_records")),
    Mutant("the least slack searched without the last pair", "src/mulfix/conditions.py",
           "np.flatnonzero(s == np.nanmin(s))[0]",
           "np.flatnonzero(s[:-1] == np.nanmin(s[:-1]))[0]",
           ("tests/test_writer.py::test_condition_summary_equals_the_reference",)),
    Mutant("the zero rule without its tolerance", "src/mulfix/conditions.py",
           "ok = slack >= -table.tol", "ok = slack >= 0",
           ("tests/test_conditions.py::"
            "test_classify_zeroes_a_slack_within_tolerance_and_fails_a_strict_tie",
            CLASSIFY_REFERENCE)),
    Mutant("a rounding margin below the rounding it covers", "src/mulfix/metrics.py",
           "return (dim + 5) * 2.0 ** -50 * (tol + top)",
           "return (dim + 5) * 2.0 ** -56 * (tol + top)",
           (ROUNDING_ORACLE, KNOWN_ANSWERS)),
    Mutant("triple scans proved empty for any metric", "src/mulfix/metrics.py",
           "return isinstance(metric, MetricSpec) and bool(np.isfinite(D).all())",
           "return bool(np.isfinite(D).all())",
           ("tests/test_metrics.py::"
            "test_triple_scans_list_what_their_loops_listed_on_the_controls",)),
    Mutant("the finiteness test dropped from the proof", "src/mulfix/metrics.py",
           "return isinstance(metric, MetricSpec) and bool(np.isfinite(D).all())",
           "return isinstance(metric, MetricSpec)",
           ("tests/test_metrics.py::test_a_builtin_table_with_an_infinite_entry_is_scanned",)),
    Mutant("a MetricSpec table's tolerance without the margin", "src/mulfix/conditions.py",
           "DEFAULT_LOG_TOL + (_reference_margin(dim, DEFAULT_LOG_TOL, top)",
           "DEFAULT_LOG_TOL + (0.0", (KNOWN_ANSWERS,)),
    Mutant("the margin given to a FunctionMetric too", "src/mulfix/conditions.py",
           "if isinstance(metric, MetricSpec) else 0.0)", "if True else 0.0)",
           ("tests/test_conditions.py::"
            "test_a_function_metric_is_compared_at_the_tolerance_alone",)),
    Mutant("triangle scan skipped when the proof fails", "src/mulfix/metrics.py",
           "for j in range(0 if proved else n):", "for j in range(n if proved else 0):",
           ("tests/test_metrics.py::"
            "test_triple_scans_list_what_their_loops_listed_on_the_controls",)),
    Mutant("reverse scan skipped when the proof fails", "src/mulfix/metrics.py",
           "for z in range(0 if proved else n):", "for z in range(n if proved else 0):",
           ("tests/test_metrics.py::"
            "test_triple_scans_list_what_their_loops_listed_on_tables",)),
    Mutant("zero admitted by reciprocal_sqrt's coordinate kernel", "src/mulfix/maps.py",
           "    if c <= 0:\n        raise DomainError(f\"reciprocal_sqrt",
           "    if c < 0:\n        raise DomainError(f\"reciprocal_sqrt",
           ("tests/test_bound_kernels.py::"
            "test_reciprocal_sqrts_coordinate_kernel_raises_what_the_map_raises",)),
    Mutant("an infeasible constant tested as 0", "src/mulfix/conditions.py",
           "xi = est.xi_hat if est.c1_feasible else math.nan",
           "xi = est.xi_hat if est.c1_feasible else 0.0", (CLASSIFY_REFERENCE,)),
    Mutant("a box open at its upper end", "src/mulfix/maps.py",
           "all(lo <= c <= hi for c, (lo, hi) in zip(p, self.bounds))",
           "all(lo <= c < hi for c, (lo, hi) in zip(p, self.bounds))",
           ("tests/test_solver.py::test_an_iterate_on_the_domains_edge_stays_inside",)),
    Mutant("the window prefilter reading the window's second point", "src/mulfix/solver.py",
           "firsts = [points[max(0, j + 1 - w)] for j in ends]",
           "firsts = [points[max(0, j + 2 - w)] for j in ends]",
           ("tests/test_solver.py::"
            "test_the_window_prefilter_rules_a_window_out_by_its_first_to_last_pair",)),
    Mutant("one converged run taken for every run", "src/mulfix/experiment.py",
           "every = len(converged) == len(runs)", "every = len(converged) > 0",
           ("tests/test_experiment_cli.py::"
            "test_an_expectation_on_the_runs_fails_when_one_run_did_not_converge",)),
)


class HarnessError(Exception):
    """An entry or run that proves nothing either way."""


def copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=ignore)


def mutate(into: Path, mutant: Mutant) -> None:
    path = into / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise HarnessError(f"{mutant.file} holds {mutant.old!r} {count} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def python(into: Path, *args: str) -> subprocess.CompletedProcess:
    """Python run in the copy at into, which it imports mulfix from."""
    env = {**os.environ, "PYTHONPATH": str(into / "src"), "HYPOTHESIS_PROFILE": "ci",
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=into, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


def pytest(into: Path, tests) -> int:
    """The exit status of ``pytest -x -q`` on the tests in the copy at into."""
    run = python(into, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--rootdir", str(into), *tests)
    if run.returncode not in (0, 1):
        raise HarnessError(f"pytest exited {run.returncode}:\n{run.stdout}")
    return run.returncode


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown entries: {sorted(unknown)}", file=sys.stderr)
        return 2
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mulfix-mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        found = python(base, "-c", "import mulfix; print(mulfix.__file__)").stdout.strip()
        if not Path(found).is_relative_to(base):
            print(f"the copy imports mulfix from {found}", file=sys.stderr)
            return 1
        tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
        if pytest(base, tests) != 0:
            print("the named tests fail on the unchanged source", file=sys.stderr)
            return 1
        for k, mutant in enumerate(chosen):
            into = Path(tmp) / f"m{k}"
            copy_tree(into)
            start = time.perf_counter()
            try:
                mutate(into, mutant)
                killed = pytest(into, mutant.tests) == 1
            except HarnessError as exc:
                print(f"ERROR     {mutant.name}: {exc}")
                survived += 1
                continue
            finally:
                shutil.rmtree(into)
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED':9} {mutant.name} "
                  f"({time.perf_counter() - start:.1f} s)")
    print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
