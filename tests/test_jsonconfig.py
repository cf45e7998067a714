"""The JSON codec shared by the six config types.

Every config value written to JSON reads back equal and writes the same
bytes again; an unknown key at any depth, or a value of the wrong JSON type
anywhere in an experiment config, raises ConfigError naming the top-level
key it sits under.
"""

import copy
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import mulfix as mx
from mulfix.conditions import PSI_KINDS
from mulfix.errors import ConfigError

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBER = FINITE | st.integers(-10**6, 10**6)  # an int must stay an int
POINT = st.lists(FINITE, min_size=1, max_size=3).map(tuple)
# a box whose width overflows is bad input (see test_experiment_cli.py)
BOXES = st.lists(st.tuples(FINITE, FINITE).map(sorted).map(tuple)
                 .filter(lambda b: math.isfinite(b[1] - b[0])),
                 min_size=1, max_size=3).map(lambda b: mx.Box(tuple(b)))

BASE = st.floats(1.0, 1e6, exclude_min=True) | st.integers(2, 100)
METRICS = st.one_of(
    st.just(mx.MetricSpec.star_product()),
    st.builds(mx.MetricSpec.lifted, st.sampled_from(["euclidean", "manhattan",
                                                     "chebyshev"]), BASE),
    st.builds(mx.MetricSpec.exp_abs, BASE),
    st.builds(mx.MetricSpec.exp_reciprocal, BASE),
    st.builds(mx.MetricSpec.discrete, BASE),
)


@st.composite
def maps(draw, dim=None):
    """Maps of every kind; a constant or affine one of dimension dim, if given."""
    kind = draw(st.sampled_from(["scale", "rational", "power", "reciprocal_sqrt",
                                 "constant", "identity", "negation", "affine"]))
    point = POINT if dim is None else st.lists(FINITE, min_size=dim, max_size=dim).map(tuple)
    params = {"scale": {"c": NUMBER}, "rational": {"b": NUMBER},
              "power": {"p": NUMBER}, "constant": {"value": point}}.get(kind, {})
    if kind == "affine":
        n, rows = (dim, dim) if dim else (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        row = st.lists(FINITE, min_size=n, max_size=n).map(tuple)
        params = {"matrix": st.lists(row, min_size=rows, max_size=rows).map(tuple),
                  "offset": st.lists(FINITE, min_size=rows, max_size=rows).map(tuple)}
    return mx.SelfMapSpec(kind, **{k: draw(v) for k, v in params.items()})


PHIS = st.one_of(
    st.builds(mx.PhiSpec, st.just("power_product"),
              q=st.floats(0.0, 1.0, exclude_max=True)),
    st.builds(mx.PhiSpec, st.just("psi_sqrt"), psi=st.sampled_from(PSI_KINDS)),
    st.just(mx.PhiSpec("example317")),
    st.builds(mx.PhiSpec, st.just("custom_table"), alpha=st.floats(1e-3, 1e3),
              beta=st.floats(1e-3, 1e3)),
)
HALF = st.floats(0.0, 0.5, exclude_max=True)
CONSTANTS = st.builds(mx.ZamfirescuConstants,
                      st.floats(0.0, 1.0, exclude_max=True), HALF, HALF)
SOLVERS = st.builds(
    mx.SolverConfig,
    eps=st.floats(1.0, 1e6, exclude_min=True), max_iter=st.integers(1, 10**6),
    starts=st.lists(POINT, max_size=3).map(tuple),
    check_monotone_residual=st.booleans(), limit_point_restart=st.booleans(),
)

CONDITIONS = st.lists(st.sampled_from(mx.CONDITION_IDS), max_size=3)
EXPECTATIONS = st.one_of(
    st.sampled_from(["converged", "unique_fixed_point", "phi_holds",
                     "map_invariant", "axioms_pass", "apriori_bound"]),
    st.fixed_dictionaries({"kind": st.just("fixed_point"), "point": POINT.map(list)}),
    st.fixed_dictionaries({"kind": st.just("residual"), "max_logd": NUMBER}),
    st.fixed_dictionaries({"kind": st.just("constants")},
                          optional={"xi": NUMBER, "eta": NUMBER, "lambda": NUMBER}).filter(
        lambda e: e.keys() & {"xi", "eta", "lambda"}),
    st.fixed_dictionaries({"kind": st.just("conditions_hold"),
                           "conditions": st.lists(st.sampled_from(mx.CONDITION_IDS),
                                                  min_size=1, max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("verdict"),
                           "theorem": st.sampled_from(["t2", "t23", "th3"])},
                          optional={"via": CONDITIONS}),
)


@st.composite
def experiments(draw):
    domain = draw(BOXES)
    start = st.tuples(*(st.sampled_from(pair) for pair in domain.bounds))
    solver = dataclasses.replace(
        draw(SOLVERS), starts=tuple(draw(st.lists(start, min_size=1, max_size=3))))
    return mx.ExperimentConfig(
        metric=draw(METRICS), map=draw(maps(domain.dim)), domain=domain,
        sample_size=draw(st.integers(2, 10**6)), seed=draw(st.integers(0, 2**63)),
        solver=solver, sample_scheme=draw(st.sampled_from(["mixed", "grid"])),
        enforce_domain=draw(st.booleans()),
        expectations=tuple(draw(st.lists(EXPECTATIONS, max_size=4))),
        phi=draw(st.none() | PHIS), constants=draw(st.none() | CONSTANTS),
        outputs=draw(st.none() | st.fixed_dictionaries({}, optional={"dir": st.text(min_size=1)})),
    )


@pytest.mark.parametrize("strategy", [METRICS, maps(), PHIS, CONSTANTS, SOLVERS,
                                      experiments()],
                         ids=["metric", "map", "phi", "constants", "solver",
                              "experiment"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_config_type_round_trips_through_json(strategy, data):
    config = data.draw(strategy)
    text = json.dumps(config.to_json_dict())
    again = type(config).from_json_dict(json.loads(text))
    assert again == config
    assert json.dumps(again.to_json_dict()) == text


def _nodes(value, path=()):
    """Every (path, value) pair of a JSON tree, the root included."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _replaced(tree, path, value):
    tree = copy.deepcopy(tree)
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return tree


# A value of another JSON type for each JSON type a config can hold.
WRONG = {bool: "true", int: "1", float: "1", str: 1, list: "x", dict: ["x"]}


@settings(max_examples=100, deadline=None)
@given(config=experiments(), data=st.data())
def test_an_unknown_key_at_any_depth_names_the_top_level_field(config, data):
    tree = config.to_json_dict()
    objects = [path for path, v in _nodes(tree) if isinstance(v, dict)]
    path = data.draw(st.sampled_from(objects))
    with pytest.raises(ConfigError) as err:
        mx.ExperimentConfig.from_json_dict(_replaced(tree, path + ("zz_extra",), 1))
    assert err.value.field == (path + ("zz_extra",))[0]


@settings(max_examples=100, deadline=None)
@given(config=experiments(), data=st.data())
def test_a_wrong_json_type_anywhere_names_the_top_level_field(config, data):
    tree = config.to_json_dict()
    path, value = data.draw(st.sampled_from(list(_nodes(tree))[1:]))
    with pytest.raises(ConfigError) as err:
        mx.ExperimentConfig.from_json_dict(_replaced(tree, path, WRONG[type(value)]))
    assert err.value.field == path[0]


def test_null_reads_as_an_omitted_optional_field():
    config = mx.fixture_config("example_3_15")
    data = config.to_json_dict()
    data.update(phi=None, outputs=None, map={**data["map"], "b": None})
    assert mx.ExperimentConfig.from_json_dict(data) == config
    with pytest.raises(ConfigError) as err:
        mx.ExperimentConfig.from_json_dict({**data, "sample_size": None})
    assert err.value.field == "sample_size"
