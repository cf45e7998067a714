"""The strict JSON writer behind report.json and every trace file.

``dump_json`` writes the bytes ``json.dumps(tree, indent=2, allow_nan=False)``
would, with each NaN or infinity as null, except that each pair record is
``json.dumps(record)`` on its own line: the same JSON value.  It writes the
classification's pair records from their columns without building a record
per pair.  ``stream_json`` writes the same bytes to a file, block by block.
"""

import csv
import dataclasses
import enum
import hashlib
import io
import json
import math
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import mulfix as mx
from mulfix import conditions
from mulfix.cli import main
from mulfix.experiment import write_json, write_report
from mulfix.jsonconfig import dump_json, stream_json
from scalar_reference import (bits, reference_csv_text, reference_pairs_csv,
                              reference_records, reference_summary)

EPS = math.exp(1e-9)


def finite_or_none(tree):
    if isinstance(tree, float) and not math.isfinite(tree):
        return None
    if isinstance(tree, (list, tuple)):
        return [finite_or_none(v) for v in tree]
    if isinstance(tree, dict):
        return {k: finite_or_none(v) for k, v in tree.items()}
    return tree


def with_reference_records(tree):
    """``tree`` with each ``PairRows`` in it replaced by its
    ``reference_records``, a value built without the writer."""
    if isinstance(tree, conditions.PairRows):
        return reference_records(tree)
    if isinstance(tree, (list, tuple)):
        return [with_reference_records(v) for v in tree]
    if isinstance(tree, dict):
        return {k: with_reference_records(v) for k, v in tree.items()}
    return tree


RECORD_KEYS = ["pair", "condition", "satisfied"]
# a pair record's stand-in while the tree around it is laid out
MARK = "\0record %d"


def is_record(value) -> bool:
    return isinstance(value, dict) and list(value)[:3] == RECORD_KEYS


def reference(tree) -> str:
    """``json.dumps(tree, indent=2)`` with null for NaN and the infinities,
    except that each element of a list of pair records is
    ``json.dumps(record)`` on its own line."""
    records = []

    def hide(value):
        if isinstance(value, list) and value and all(map(is_record, value)):
            records.extend(json.dumps(r, allow_nan=False) for r in value)
            return [MARK % k for k in range(len(records) - len(value), len(records))]
        if isinstance(value, list):
            return [hide(v) for v in value]
        if isinstance(value, dict):
            return {k: hide(v) for k, v in value.items()}
        return value

    text = json.dumps(hide(finite_or_none(tree)), indent=2, allow_nan=False) + "\n"
    return re.sub(r'"\\u0000record (\d+)"', lambda m: records[int(m[1])], text)


def assert_same(got, want):
    """``assert got == want`` for two texts or byte strings, reporting the first
    difference.  pytest reports two unequal texts with a difflib diff from the
    first difference on, which takes seconds for a long near-equal pair, and a
    failing property reports one for every example it shrinks."""
    if got != want:
        k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        a = max(k - 40, 0)
        raise AssertionError(f"first difference at {k}: "
                             f"{got[a:k + 40]!r} != {want[a:k + 40]!r}")


# -- any plain tree ------------------------------------------------------------------

SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.5e300,
                                  math.nan, math.inf, -math.inf])
TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=8)
LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-10**300, 10**300)
          | st.floats() | SPECIAL_FLOATS | TEXT)
TREES = st.recursive(
    LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_dump_json_equals_the_reference_encoder(tree):
    assert dump_json(tree) == reference(tree)


# -- lists of numbers, written in one join or one row template --------------------

FLOATS = st.floats() | SPECIAL_FLOATS
INTS = st.integers() | st.integers(-10**30, 10**30) | st.sampled_from([2**63, -2**63 - 1])
NUMBERS = FLOATS | INTS


class Level(enum.IntEnum):
    LOW = 1


def flat_numbers(items):
    return st.lists(items, min_size=1, max_size=60) \
        | st.lists(items, min_size=1, max_size=60).map(tuple)


def equal_rows(items):
    return st.integers(1, 4).flatmap(lambda w: st.lists(
        st.lists(items, min_size=w, max_size=w) | st.tuples(*[items] * w),
        min_size=1, max_size=20))


def replaced(items, item, at):
    at %= len(items)
    return [*items[:at], item, *items[at + 1:]]


def spoiled(lists):
    """Lists with one item swapped for a bool, None, an IntEnum, a float
    subclass or a string, each of which keeps a list off the number path."""
    odd = st.sampled_from([True, False, None, Level.LOW, np.float64(0.5), "1.0"])
    return st.tuples(lists, odd, st.integers(0, 59)).map(lambda t: replaced(*t))


ROWS = equal_rows(NUMBERS)
NUMBER_LISTS = (flat_numbers(FLOATS) | flat_numbers(INTS) | flat_numbers(NUMBERS) | ROWS
                | st.lists(st.lists(NUMBERS, max_size=4), min_size=1, max_size=8)
                | spoiled(flat_numbers(NUMBERS)) | spoiled(ROWS)
                | ROWS.flatmap(lambda rows: spoiled(st.just(rows[0])).map(
                    lambda row: [row, *rows[1:]])))


@settings(max_examples=500, deadline=None)
@given(NUMBER_LISTS)
def test_number_lists_equal_the_reference_encoder(numbers):
    assert dump_json(numbers) == reference(numbers)
    assert dump_json({"rows": [numbers]}) == reference({"rows": [numbers]})


def test_dump_json_writes_non_finite_floats_as_null():
    text = dump_json({"a": [math.nan, math.inf, -math.inf], "b": -0.0})
    assert text == '{\n  "a": [\n    null,\n    null,\n    null\n  ],\n  "b": -0.0\n}\n'


def test_dump_json_writes_subclasses_as_json_does():
    class Kind(enum.IntEnum):
        A = 3

    class Name(str):
        pass

    class Real(float):
        def __repr__(self):
            return "real"

    tree = {Name("k"): [Kind.A, Name("n"), Real(0.5), Real(math.inf)]}
    expected = json.dumps({"k": [3, "n", 0.5, None]}, indent=2) + "\n"
    assert dump_json(tree) == expected


@pytest.mark.parametrize("key", [1, 2.5, math.nan, True, None], ids=repr)
def test_dump_json_takes_only_str_keys(key):
    with pytest.raises(TypeError, match=f"keys must be str, not {type(key).__name__}"):
        dump_json({"a": {key: 0}})


def test_dump_json_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        dump_json({"a": object()})
    with pytest.raises(TypeError):
        dump_json({(1, 2): 0})


# -- pair records, written column by column -----------------------------------------

SLACKS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7])


def rows_of(i, j, checks, errors) -> conditions.PairRows:
    """PairRows of the pairs (i[k], j[k]), held as integer arrays as
    ``classify`` holds them."""
    return conditions.PairRows(np.array(i, dtype=np.intp), np.array(j, dtype=np.intp),
                               checks, errors)


@st.composite
def pair_rows(draw):
    """PairRows with 1-7 conditions, up to 12 evaluated pairs and error rows
    anywhere among them, an all-NaN slack column among the columns, as a
    condition with no admissible constant has, and columns that every pair
    violates."""
    n = draw(st.integers(0, 12))
    ids = draw(st.lists(st.sampled_from(mx.CONDITION_IDS), min_size=1, max_size=7,
                        unique=True))
    pairs = draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 10**6)),
                          min_size=n, max_size=n))
    checks = {}
    for cid in ids:
        flags = draw(st.lists(st.booleans(), min_size=n, max_size=n) | st.just([False] * n))
        column = st.just([math.nan] * n) | st.lists(SLACKS, min_size=n, max_size=n) \
            | st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=n, max_size=n)
        checks[cid] = (flags, draw(column))
    positions = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    errors = tuple((pos, draw(st.integers(0, 99)), draw(st.integers(0, 99)),
                    draw(st.sampled_from(conditions.CAUSES)), draw(TEXT))
                   for pos in positions)
    return rows_of([i for i, _ in pairs], [j for _, j in pairs], checks, errors)


# The pair-record properties skip hypothesis's explain phase: after a failure
# it re-runs a table property on a thousand or more variants of the shrunk
# example, each failing with a formatted traceback, for a minute or more.
NO_EXPLAIN = [phase for phase in Phase if phase is not Phase.explain]


@settings(max_examples=400, deadline=None, phases=NO_EXPLAIN)
@given(pair_rows(), st.integers(0, 3))
def test_pair_records_equal_the_reference_encoder(rows, depth):
    nl = "\n" + "  " * depth
    expected = reference(reference_records(rows))[:-1]
    tree, opening, closing = rows, "", ""
    for k in reversed(range(depth)):  # rows at depth, in lists of one
        tree = [tree]
        opening, closing = "[\n" + "  " * (k + 1) + opening, closing + "\n" + "  " * k + "]"
    assert_same(dump_json(tree), opening + expected.replace("\n", nl) + closing + "\n")


@pytest.mark.parametrize("positions", [[0], [3], [1], [0, 3], [1, 1], [0, 0, 3, 3]],
                         ids=["first", "last", "middle", "both ends", "twice", "runs"])
def test_error_rows_at_every_position_equal_the_reference(positions):
    checks = {"C1": ([True, False, True], [0.5, math.nan, math.nan]),
              "PHI": ([False, True, True], [-0.0, 5e-324, math.inf])}
    errors = tuple((pos, 9, 9, "map", "pole") for pos in positions)
    # a table of only errors has every error at position 0, as _classify gives it
    all_errors = tuple((0, 9, 9, "map", "pole") for _ in positions)
    for rows in (rows_of([0, 0, 1], [1, 2, 2], checks, errors),
                 rows_of([], [], {"C1": ([], [])}, all_errors)):
        expected = reference(reference_records(rows))
        assert dump_json(rows) == expected


def test_no_pair_record_writes_an_empty_array():
    assert dump_json(rows_of([], [], {"C1": ([], [])}, ())) == "[]\n"


@settings(max_examples=300, deadline=None, phases=NO_EXPLAIN)
@given(pair_rows())
def test_records_equal_the_reference_records(rows):
    assert json.loads(dump_json(rows)) == reference_records(rows)


# -- the slacks: a summary per condition, and every one in pairs.csv on request ------

@settings(max_examples=300, deadline=None, phases=NO_EXPLAIN)
@given(pair_rows())
def test_pairs_csv_equals_the_reference(rows):
    text = rows.to_csv_text()
    assert_same(text, reference_pairs_csv(rows))
    # and it reads back as one row of six fields per record
    read = list(csv.reader(io.StringIO(text, newline="")))
    assert [len(row) for row in read] == [6] * (1 + len(reference_records(rows)))


@settings(max_examples=300, deadline=None, phases=NO_EXPLAIN)
@given(pair_rows())
# np.nanargmin takes a NaN for the least of [nan, inf], as it swaps NaN for inf
@example(rows_of([0, 0, 0], [1, 2, 3],
                 {"C2": ([False] * 3, [math.nan, math.nan, math.inf])}, ()))
def test_condition_summary_equals_the_reference(rows):
    got, expected = rows.summary(), reference_summary(rows)
    assert got == expected
    assert [bits(e["min_slack"]) for e in got["conditions"].values()] \
        == [bits(e["min_slack"]) for e in expected["conditions"].values()]
    # written, a least slack that is not finite is null
    assert json.loads(dump_json(got)) == finite_or_none(expected)


# -- one record a line ---------------------------------------------------------------

def parsed_lines(lines) -> list:
    """Each line parsed on its own, without the comma that joins it to the next."""
    return [json.loads(line.rstrip().rstrip(",")) for line in lines]


@settings(max_examples=200, deadline=None, phases=NO_EXPLAIN)
@given(pair_rows())
def test_every_record_line_parses_to_its_record(rows):
    records = reference_records(rows)
    lines = dump_json({"pairs": rows}).splitlines()
    if not records:
        assert lines[1] == '  "pairs": []'
        return
    body = lines[2:-2]
    assert all(line.startswith('    {"pair": [') for line in body)
    assert parsed_lines(body) == records


# a message that json.dumps escapes: a newline, a quote, a non-ASCII letter
# and U+2028, which str.splitlines (and JavaScript before ES2019) takes as a
# line break
AWKWARD = 'one\ntwo "three" \u00e9 \u2028 four'


def test_an_error_message_stays_on_its_record_line():
    rows = rows_of([0], [1], {"C1": ([True], [0.5])},
                   ((0, 2, 3, "map", AWKWARD), (1, 4, 5, "image", AWKWARD)))
    text = dump_json({"pairs": rows})
    assert text.isascii()
    body = text.splitlines()[2:-2]
    assert parsed_lines(body) == reference_records(rows)
    assert body[0] == ('    {"pair": [2, 3], "condition": "*", "satisfied": null, '
                       '"error": "one\\ntwo \\"three\\" \\u00e9 \\u2028 four"},')
    assert body[1] == '    {"pair": [0, 1], "condition": "C1", "satisfied": true},'


# -- streamed to a file, block by block ---------------------------------------------

BLOCK = conditions._PAIR_BLOCK
# the block the streamed-records property writes at, so that its tables reach
# every block edge with at most 2 * SMALL_BLOCK + 1 pairs and shrink fast
SMALL_BLOCK = 8


def streamed(tree) -> bytes:
    f = io.BytesIO()
    stream_json(tree, f)
    return f.getvalue()


@st.composite
def blocked_rows(draw):
    """PairRows of 0, 1, block - 1, block, block + 1 or 2 * block + 1 pairs
    for block = SMALL_BLOCK, whose flag and slack columns cycle short drawn
    lists, with error rows first, last, at block edges or repeated."""
    n = draw(st.sampled_from([0, 1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1,
                              2 * SMALL_BLOCK + 1]))
    ids = draw(st.lists(st.sampled_from(mx.CONDITION_IDS), min_size=1, max_size=7,
                        unique=True))
    checks = {}
    for cid in ids:
        flags = draw(st.lists(st.booleans(), min_size=1, max_size=5))
        slacks = draw(st.lists(SLACKS, min_size=1, max_size=7))
        checks[cid] = ([flags[k % len(flags)] for k in range(n)],
                       [slacks[k % len(slacks)] for k in range(n)])
    edges = [p for p in (0, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1,
                         2 * SMALL_BLOCK, n) if p <= n]
    positions = draw(st.lists(st.sampled_from(edges) | st.integers(0, n), max_size=5))
    errors = tuple((pos, 7, 8, "map", "pole") for pos in sorted(positions))
    return rows_of(list(range(n)), list(range(1, n + 1)), checks, errors)


@settings(max_examples=120, deadline=None, phases=NO_EXPLAIN)
@given(blocked_rows(), st.integers(0, 2))
def test_streamed_pair_records_equal_dump_json_and_the_reference(rows, depth):
    records = reference_records(rows)
    tree, expected = rows, records
    for _ in range(depth):  # nested, with a value after the records
        tree, expected = {"pairs": tree, "after": [-0.0]}, {"pairs": expected,
                                                            "after": [-0.0]}
    with mock.patch.object(conditions, "_PAIR_BLOCK", SMALL_BLOCK):
        text = dump_json(tree)
        assert_same(text, reference(expected))
        assert_same(streamed(tree), text.encode())


@settings(max_examples=200, deadline=None)
@given(TREES)
def test_streamed_trees_equal_dump_json(tree):
    assert streamed(tree) == dump_json(tree).encode()


def test_error_rows_at_block_edges_equal_the_reference():
    # errors at the first and second edge of the real block, and after the last pair
    n = 2 * BLOCK + 1
    errors = tuple((pos, 7, 8, "map", "pole") for pos in (BLOCK, 2 * BLOCK, 2 * BLOCK, n))
    rows = rows_of(list(range(n)), list(range(1, n + 1)),
                   {"C1": ([True] * n, [0.5, -0.0, math.nan] * (n // 3)),
                    "C2": ([False] * n, [0.5] * n)}, errors)
    expected = reference(reference_records(rows))
    assert_same(streamed(rows), dump_json(rows).encode())
    assert_same(dump_json(rows), expected)


@pytest.mark.parametrize("block", [BLOCK, SMALL_BLOCK])
def test_every_flag_pattern_across_block_edges_equals_the_reference(block):
    # all seven conditions, pair k with flag pattern k mod 128 (bit c the flag
    # of condition c), errors at the first and second block edge and after
    # the last pair: every pattern's texts are listed in a block and reused
    # in later blocks and runs, and at SMALL_BLOCK new patterns keep coming
    n = 2 * BLOCK + 1
    checks = {cid: ([bool(k % 128 >> c & 1) for k in range(n)], [0.5] * n)
              for c, cid in enumerate(mx.CONDITION_IDS)}
    errors = tuple((pos, 7, 8, "map", "pole") for pos in (block, 2 * block, n))
    rows = rows_of(list(range(n)), list(range(1, n + 1)), checks, errors)
    with mock.patch.object(conditions, "_PAIR_BLOCK", block):
        text = dump_json(rows)
        assert_same(text, reference(reference_records(rows)))
        assert_same(streamed(rows), text.encode())


def test_a_failure_mid_stream_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old", encoding="utf-8")
    n = 2 * BLOCK + 1
    rows = rows_of(list(range(n)), list(range(n)), {"C1": ([True] * n, [0.5] * n)}, ())
    with pytest.raises(TypeError):
        write_json(path, {"pairs": rows, "later": object()})
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert path.read_text(encoding="utf-8") == "old"


def test_writing_the_largest_fixture_report_holds_one_block(tmp_path):
    # example_3_17 at n = 160, not its own 100: written one record a line
    # without slacks, the n = 100 report is 2.2 MB and n = 160 gives 5.8 MB,
    # and the bound is meant for a report past 5 MB
    report = mx.run_experiment(
        dataclasses.replace(mx.fixture_config("example_3_17"), sample_size=160))
    tracemalloc.start()
    try:
        write_report(report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "report.json").stat().st_size > 5_000_000
    assert peak < 2_000_000


def test_writing_the_largest_fixture_pairs_csv_holds_one_block(tmp_path, capsys):
    # fixture example_3_17 --pairs at n = 160, with only the writing traced:
    # its pairs.csv is 3.3 MB, 24 MB of peak when built whole, and written
    # a block at a time, report included, it peaks near 0.7 MB
    report = mx.run_experiment(
        dataclasses.replace(mx.fixture_config("example_3_17"), sample_size=160))
    tracemalloc.start()
    try:
        with mock.patch("mulfix.cli.run_experiment", return_value=report):
            main(["fixture", "example_3_17", "--out", str(tmp_path), "--pairs"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "pairs.csv").stat().st_size > 3_000_000
    assert (tmp_path / "pairs.csv").read_bytes() \
        == report.classification.rows.to_csv_text().encode()
    assert peak < 2_000_000


@pytest.mark.parametrize("mask", [0o022, 0o027])
def test_output_files_take_the_mode_the_umask_gives(tmp_path, capsys, mask):
    old = os.umask(mask)
    try:
        assert main(["fixture", "example_3_15", "--out", str(tmp_path / "fix"),
                     "--format", "csv"]) == 0
        assert main(["fixture", "remark_2_5", "--out", str(tmp_path / "remark")]) == 0
        config = tmp_path / "cfg.json"
        config.write_text(dump_json(mx.fixture_config("example_3_15").to_json_dict()))
        assert main(["classify", "--config", str(config),
                     "--out", str(tmp_path / "cls"), "--pairs"]) == 0
    finally:
        os.umask(old)
    files = [p for p in tmp_path.rglob("*") if p.is_file() and p != config]
    assert len(files) == 7
    assert {p.stat().st_mode & 0o777 for p in files} == {0o666 & ~mask}


# -- reports with every kind of pair record -----------------------------------------


def _config(**changes) -> mx.ExperimentConfig:
    data = {
        "metric": {"kind": "exp_abs", "a": math.e},
        "map": {"kind": "scale", "c": 0.5},
        "domain": [[-2.0, 2.0]],
        "sample_size": 7,
        "seed": 1,
        "solver": {"eps": EPS, "max_iter": 60, "starts": [[1.0]]},
        "sample_scheme": "grid",
        "expectations": ["converged", {"kind": "conditions_hold", "conditions": ["C1"]},
                         "phi_holds"],
    }
    return mx.ExperimentConfig.from_json_dict({**data, **changes})


def _pole():  # a rational map with its pole at a sample point: "*" error rows
    return _config(map={"kind": "rational", "b": -1.0}, domain=[[0.0, 3.0]],
                   solver={"eps": EPS, "max_iter": 40, "starts": [[2.0]]})


def _no_constant():  # negation admits no C1/C2/C3 constant: all-NaN slack columns
    return _config(map={"kind": "negation"}, sample_size=9,
                   solver={"eps": EPS, "max_iter": 40, "starts": [[1.0]]})


def _phi():  # the inverse square root fixture on a small sample, with PHI
    return dataclasses.replace(mx.fixture_config("example_3_17"), sample_size=12)


def _huge():  # log distances past the float limit: infinite and NaN slacks
    return _config(metric={"kind": "exp_abs", "a": math.exp(3)},
                   domain=[[0.0, 1e308]], sample_size=3,
                   solver={"eps": EPS, "max_iter": 40, "starts": [[0.0]]})


def _has(cls, what) -> bool:
    slacks = [s for _, s in cls.rows.checks.values()]
    if what == "inf slack":  # the summary writes an infinite least slack as null
        return any(np.isinf(s).any() for s in slacks)
    if what == "NaN column":
        return any(np.isnan(s).all() for s in slacks)
    checks = {"error": lambda r: r["condition"] == "*", "phi": lambda r: r["condition"] == "PHI"}
    return any(map(checks[what], cls.records))


@pytest.mark.parametrize("build, what", [
    (_pole, "error"), (_no_constant, "NaN column"), (_phi, "phi"), (_huge, "inf slack"),
])
def test_written_report_equals_the_reference_encoding(tmp_path, build, what):
    report = mx.run_experiment(build())
    assert _has(report.classification, what)
    written = write_report(report, tmp_path)
    expected = reference(with_reference_records(report.to_json_tree()))
    assert written[0].read_text(encoding="utf-8") == expected
    for run, path in zip(report.runs, written[1:]):
        assert path.read_text(encoding="utf-8") == reference(run.trace.to_json_dict())
    cls = report.classification
    assert dump_json(cls.to_json_tree()) == reference(
        with_reference_records(cls.to_json_tree()))
    summary = reference_summary(cls.rows)
    assert {key: cls.to_json_tree()[key] for key in summary} == summary


@pytest.mark.parametrize("name", ["example_3_15", "example_3_16", "example_3_17",
                                  "scale-0.999", "_pole", "_huge"])
def test_json_dicts_equal_the_written_files(tmp_path, name):
    builds = {"scale-0.999": lambda: long_run(name), "_pole": _pole, "_huge": _huge}
    report = mx.run_experiment(builds.get(name, lambda: mx.fixture_config(name))())
    write_report(report, tmp_path)
    write_json(tmp_path / "condition_report.json", report.classification.to_json_tree())
    for x, name in ((report, "report.json"),
                    (report.classification, "condition_report.json")):
        data = x.to_json_dict()
        json.dumps(data, allow_nan=False)
        with open(tmp_path / name, encoding="utf-8") as f:
            assert data == json.load(f)
        # and the value built without the writer
        assert data == json.loads(reference(with_reference_records(x.to_json_tree())))


def test_infinite_violations_are_written_as_null():
    # the reverse triangle's violations keep infinite lhs values, which the
    # report dict, read back from the written text, holds as null
    report = mx.run_experiment(_huge())
    lhs = [v["lhs"] for v in report.reverse_triangle.violations]
    assert math.inf in lhs
    data = report.to_json_dict()["reverse_triangle"]
    json.dumps(data, allow_nan=False)
    assert [v["lhs"] for v in data["violations"]] == finite_or_none(lhs)


# -- traces, written from their own tuples -------------------------------------------

class Repr(float):  # a float subclass whose repr json.dumps does not call
    def __repr__(self):
        return "repr"


COORDS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e16, 1.5e300, -1.7976931348623157e308])
STEPS = COORDS | st.sampled_from([math.inf, -math.inf, math.nan])
# each keeps a trace's tuple off the joined number path
ODD = st.sampled_from([np.float64(0.5), np.float64(-0.0), np.float64(math.inf), True,
                       False, Repr(0.25), Repr(math.nan)])


@st.composite
def traces(draw):
    """Traces of 0, 1, 2 or up to 300 points of 1-4 coordinates, their values
    cycled from short drawn lists, with an odd value swapped in at times."""
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(0, 300))
    dim = draw(st.integers(1, 4))
    coords = draw(st.lists(COORDS, min_size=1, max_size=9))
    steps = draw(st.lists(STEPS, min_size=1, max_size=9))
    flat = [coords[k % len(coords)] for k in range(n * dim)]
    step_logd = [steps[k % len(steps)] for k in range(max(n - 1, 0))]
    for values in (flat, step_logd):
        if values and draw(st.booleans()):
            values[draw(st.integers(0, len(values) - 1))] = draw(ODD)
    points = tuple(tuple(flat[k:k + dim]) for k in range(0, n * dim, dim))
    status = draw(st.sampled_from(mx.Status))
    return mx.IterationTrace(mx.MetricSpec.exp_abs(2.0), points, tuple(step_logd), status)


@settings(max_examples=300, deadline=None)
@given(traces())
def test_trace_dicts_equal_the_reference(trace):
    assert_same(dump_json(trace.to_json_dict()), reference(trace.to_json_dict()))


@settings(max_examples=200, deadline=None)
@given(traces())
def test_csv_traces_equal_the_csv_writer_text(trace):
    assert_same(trace.to_csv_text(), reference_csv_text(trace))


# -- the bundled fixtures, byte for byte ----------------------------------------------

FIXTURE_DIGESTS = {
    "example_3_15": {
        "report.json": "820d68122f326e075e2ae207dd013ac5b7561c8465e7b669141dce6f93cbbc02",
        "trace_000.json": "6d7869822188ea0bc50bb16fa2a080c8ad2ccae7ba7a05dd0ad464c74044339f",
        "trace_001.json": "59fa5cd83ac73864ef0b61f5a7d192794bf05a8a3d57b059c5797f71527909a6",
        "trace_002.json": "3b4ca62d50a23118b5ca9e39c2c4028e1f432a88bd06a14cf43ba8e872cc9c4a",
    },
    "example_3_16": {
        "report.json": "c500b6db2d02cd836951aa69a75f26142f999b277cd0c0ed3ada62447bf05fdb",
        "trace_000.json": "cae10b2882432022465f1d9d907f86b731ed83b375a6294d1eb3587ec3e55f83",
        "trace_001.json": "fc3a7c378456f1b4b124e8b36a870c7a9bf9f4c1ea70ad1215941b0f35a0929e",
        "trace_002.json": "fe8b50de232692c2ccaad3d58c40a7f0bbe10aa887fe1e918db5c48f38c4da42",
    },
    "example_3_17": {
        "report.json": "5da4626af418a3a1ea1fb43cdb201b758b39e9244da3f3db74634ffc7eb631ae",
        "trace_000.json": "55bfed9685890ffc0978b6a8ad1cbe69b75f4041733f4366bd2f633caf7cf0c9",
        "trace_001.json": "3333f8a881041e2da73a30b8512307d7fd0b5550fc93d648f2002f1bcc31a5a4",
        "trace_002.json": "ca26cbb9c4ad167709f59c8322d549cd82f3c88acf10084a2cf7ceb3f8aee027",
    },
    "remark_2_5": {
        "report.json": "8be05c7959b1d869ebdcd83d8c7a19aa5ef17a1f6beb33958225525b4f90cd70",
    },
}


@pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
def test_fixture_outputs_keep_their_digests(tmp_path, capsys, name):
    assert main(["fixture", name, "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == FIXTURE_DIGESTS[name]


# -- long runs of built-in maps, byte for byte -----------------------------------------

# Long scalar orbits under exp_abs(2) on a 10-point sample: scale(0.99)
# converges through its tail in about 1,800 steps; scale(0.98) converges
# from two starts and checks bound rows; scale(0.999) stops at max_iter;
# and a 4-d permutation closes a 3-cycle and restarts from a limit point.
PERMUTE3 = ((0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))
LONG_RUNS = {
    "scale-0.99": (mx.SelfMapSpec.scale(0.99), ((1.0,),), 2000, None),
    "scale-0.98": (mx.SelfMapSpec.scale(0.98), ((1.0,), (-0.5,)), 2000,
                   mx.ZamfirescuConstants(xi=0.98)),
    "scale-0.999": (mx.SelfMapSpec.scale(0.999), ((1.0,),), 500,
                    mx.ZamfirescuConstants(xi=0.999)),
    "permute-restart": (mx.SelfMapSpec.affine(PERMUTE3, (0.0,) * 4),
                        ((0.5, -0.25, 0.75, 0.9), (0.1, 0.2, -0.3, -0.6)), 2000, None),
}

LONG_RUN_DIGESTS = {
    "permute-restart": {
        "report.json": "94fdc983c77d5dc9d4658bdd29d3cdafee7a4924c3e86bcc4b611e8bb7f9109f",
        "trace_000.json": "9fd7107c02d9b189756c7cd4a5fd3b12d3e9dbc788932f85b788fa5a112fd39a",
        "trace_001.json": "be78f79dc6715b0ca3c40b3464eda51feba9736f405482ba86b2db0352e8a7d4",
    },
    "scale-0.98": {
        "report.json": "b1872e2be4f6342c810bf859db508387ea72c62fb4a3ac9427900018cc8a3fac",
        "trace_000.json": "530f1f4ecf88893056d4335cc759829b05e550e119bbc970675969db6453815e",
        "trace_001.json": "8207b9081ad29ae35123556ebcb5e3030f86a366138136bd9edb133bb236e049",
    },
    "scale-0.99": {
        "report.json": "d2b6a212b46e4b4289a24f90bfd81447c1b947f97e1c9edf62eef0058f3cc8eb",
        "trace_000.json": "82c8435935ab9744c2491f624f308c5f11a9fae2ec4575300fc4050ffdb3997c",
    },
    "scale-0.999": {
        "report.json": "2c964aee868de0bcf30fba4a93901d16de2a8673901f1355121923cf0857354b",
        "trace_000.json": "cab7c68051aba3eaba27753458666a9a0882f90493ba76c64489b81d1962e694",
    },
}


def long_run(name):
    T, starts, max_iter, constants = LONG_RUNS[name]
    return mx.ExperimentConfig(
        metric=mx.MetricSpec.exp_abs(2.0), map=T,
        domain=mx.Box(((-1.0, 1.0),) * len(starts[0])),
        sample_size=10, seed=201, constants=constants,
        solver=mx.SolverConfig(eps=EPS, max_iter=max_iter, starts=starts),
        expectations=("converged", "unique_fixed_point", "axioms_pass"))


@pytest.mark.parametrize("name", sorted(LONG_RUNS))
def test_long_runs_of_built_in_maps_keep_their_digests(tmp_path, name):
    write_report(mx.run_experiment(long_run(name)), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == LONG_RUN_DIGESTS[name]


def test_long_run_and_empty_csv_traces_equal_the_csv_writer_text():
    traces = [run.trace for name in sorted(LONG_RUNS)
              for run in mx.run_experiment(long_run(name)).runs]
    for trace in [*traces, mx.IterationTrace(mx.MetricSpec.exp_abs(2.0), (), ())]:
        assert_same(trace.to_csv_text(), reference_csv_text(trace))


# -- bound rows, recomputed from the written files ----------------------------------

def bound_rows_from_files(out_dir):
    """report.json and each converged run's bound rows, recomputed from the
    written files alone: the k-th ``bounds`` entry is the k-th converged run's."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    runs = report["solver"]["runs"]
    converged = [i for i, run in enumerate(runs) if run["status"] == "converged"]
    rows = []
    for i, bound in zip(converged, report["bounds"]):
        trace = json.loads((out_dir / f"trace_{i:03d}.json").read_text(encoding="utf-8"))
        metric = mx.MetricSpec.from_json_dict(trace["metric"])
        z, d1 = runs[i]["point"], trace["step_logd"][0]
        rows.append([(n, metric.log_distance(x, z), mx.apriori_bound(d1, bound["delta"], n))
                     for n, x in enumerate(trace["points"])])
    return report, rows


@pytest.mark.parametrize("name", ["example_3_15", "scale-0.98"])
def test_written_files_give_every_bound_row(tmp_path, report_3_15, name):
    report = report_3_15 if name == "example_3_15" else mx.run_experiment(long_run(name))
    write_report(report, tmp_path)
    data, rows = bound_rows_from_files(tmp_path)
    assert not any("bound_checks" in run for run in data["solver"]["runs"])
    assert len(rows) == len(report.bounds) == len(data["bounds"]) >= 2
    assert [[tuple(map(bits, row)) for row in run_rows] for run_rows in rows] \
        == [[tuple(map(bits, row)) for row in bound.rows] for bound in report.bounds]
    for run_rows, bound in zip(rows, data["bounds"]):  # the summary follows too
        assert bound["checked"] == len(run_rows)
        assert bound["violations"] == [list(row) for row in run_rows
                                       if row[1] > row[2] + bound["tol"]]


def test_writing_a_report_builds_no_pair_record(tmp_path, monkeypatch):
    # the records are the parse of dump_json(rows), and the writer streams instead
    calls = []

    def counting_dump_json(tree):
        calls.append(tree)
        return dump_json(tree)

    monkeypatch.setattr(conditions, "dump_json", counting_dump_json)
    report = mx.run_experiment(mx.fixture_config("example_3_17"))
    write_report(report, tmp_path)
    assert calls == []
    # the counter sees the records once they are asked for, and only once
    assert len(report.classification.records) == 34650
    assert len(report.classification.records) == 34650
    assert len(calls) == 1 and calls[0] is report.classification.rows
