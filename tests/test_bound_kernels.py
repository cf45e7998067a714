"""Each metric's and map's bound scalar kernel against the kind dispatch.

``MetricSpec._log_distance`` and ``SelfMapSpec._call`` bind their kind's
kernel once per instance.  ``scalar_reference.log_distance`` and
``scalar_reference.call`` dispatch on the kind at every call, as the two
methods once did.  On points the kernels accept (one dimension, finite
coordinates) each must give the reference's value bit for bit, of the same
type, or raise the same exception with the same text.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mulfix as mx
from mulfix import maps, metrics, solver
from mulfix.errors import DomainError
import scalar_reference

# signed zeros, subnormals, values near the float range's ends, and values
# at the maps' poles and branch points
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e300, -1e300,
           1.7976931348623157e308, -1.7976931348623157e308, 1e200, 1.0, -1.0,
           0.5, -0.5, 2.0, 1e-12)

coords = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))


def points(dim):
    return st.tuples(*[coords] * dim)


def key(value):
    """An exact comparison key: type and float.hex of a number or of each
    coordinate of a point, or the type and text of what was raised."""
    if isinstance(value, tuple) and value and value[0] == "raised":
        return value
    if isinstance(value, tuple):
        return tuple((type(c).__name__, float.hex(c)) for c in value)
    return type(value).__name__, float.hex(value)


def outcome(fn, *args):
    try:
        return key(fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(exc).__name__, str(exc))


# all five metric kinds, the lifted kind over each base, and parameters read
# from JSON, where an integer stays an integer until the spec converts it
BASES = st.floats(min_value=1.0, max_value=1e300, exclude_min=True)
METRICS = st.one_of(
    st.just(mx.MetricSpec.star_product()),
    st.builds(mx.MetricSpec.lifted, st.sampled_from(metrics.BASE_METRICS), BASES),
    st.builds(mx.MetricSpec.exp_abs, BASES),
    st.builds(mx.MetricSpec.exp_reciprocal, BASES),
    st.builds(mx.MetricSpec.discrete, BASES),
    st.builds(lambda kind, a: mx.MetricSpec.from_json_dict({"kind": kind, "a": a}),
              st.sampled_from(["exp_abs", "exp_reciprocal", "discrete", "lifted"]),
              st.integers(2, 10)),
)


@settings(max_examples=400, deadline=None)
@given(metric=METRICS, data=st.data())
def test_a_metric_kernel_equals_the_kind_dispatch(metric, data):
    dim = data.draw(st.integers(1, 3))
    px, py = data.draw(points(dim)), data.draw(points(dim))
    if data.draw(st.booleans()):
        py = px  # the discrete metric's zero, every metric's diagonal
    assert (outcome(metric._log_distance, px, py)
            == outcome(scalar_reference.log_distance, metric, px, py))


PARAMS = st.one_of(coords, st.integers(-3, 3))  # an int as JSON gives it
EXPONENTS = st.one_of(st.sampled_from([0.5, 2.0, -1.0, -0.5, 0.0, 1.5, 3.0, 1e10]),
                      st.integers(-3, 3),
                      st.floats(-8.0, 8.0, allow_nan=False))


def affine(data, dim):
    rows = data.draw(st.integers(1, 3))
    cols = data.draw(st.sampled_from([dim, dim, 1, 3]))  # mostly x's dimension
    matrix = [list(data.draw(points(cols))) for _ in range(rows)]
    offset = list(data.draw(points(rows)))
    return {"kind": "affine", "matrix": matrix, "offset": offset}


@settings(max_examples=600, deadline=None)
@given(kind=st.sampled_from(list(maps.MAP_PARAMS)), data=st.data())
def test_a_map_kernel_equals_the_kind_dispatch(kind, data):
    dim = data.draw(st.integers(1, 3))
    x = data.draw(points(dim))
    if kind == "affine":
        spec = affine(data, dim)
    else:
        draw = {"c": PARAMS, "b": PARAMS, "p": EXPONENTS,
                "value": st.lists(coords, min_size=1, max_size=3)}
        spec = {"kind": kind, **{name: data.draw(draw[name])
                                 for name in maps.MAP_PARAMS[kind]}}
    T = mx.SelfMapSpec.from_json_dict(spec)
    assert outcome(T._call, x) == outcome(scalar_reference.call, T, x)


@pytest.mark.parametrize("T, x, raised", [
    (mx.SelfMapSpec.rational(0.5), (1.0, -0.5),
     ("DomainError", "rational map pole at coordinate -0.5")),
    (mx.SelfMapSpec.power(0.5), (-2.0,),
     ("DomainError", "fractional power of negative -2.0")),
    (mx.SelfMapSpec.power(-1.0), (0.0,), ("DomainError", "negative power of zero")),
    (mx.SelfMapSpec.power(-2.0), (-0.0,), ("DomainError", "negative power of zero")),
    (mx.SelfMapSpec.reciprocal_sqrt(), (1.0, 0.0),
     ("DomainError", "reciprocal_sqrt needs a positive coordinate, got 0.0")),
    (mx.SelfMapSpec.reciprocal_sqrt(), (-1.0,),
     ("DomainError", "reciprocal_sqrt needs a positive coordinate, got -1.0")),
    (mx.SelfMapSpec.affine(((1.0, 2.0),), (0.0,)), (1.0,),
     ("DomainError", "affine matrix expects dimension 2")),
    (mx.SelfMapSpec.power(2.0), (1e200,),
     ("OverflowError", "(34, 'Numerical result out of range')")),
    (mx.SelfMapSpec.affine(((1e200,),), (0.0,)), (1e200,),
     ("DomainError", "non-finite coordinate inf")),
], ids=["rational-pole", "fractional-power-of-negative", "negative-power-of-zero",
        "negative-power-of-negative-zero", "reciprocal-sqrt-of-zero",
        "reciprocal-sqrt-of-negative", "affine-dimension", "power-overflow",
        "affine-overflow"])
def test_a_map_kernel_raises_what_the_kind_dispatch_raises(T, x, raised):
    assert (outcome(T._call, x) == outcome(scalar_reference.call, T, x)
            == ("raised", *raised))


def test_a_spec_binds_its_kernel_once():
    metric, T = mx.MetricSpec.exp_abs(2.0), mx.SelfMapSpec.scale(0.5)
    assert metric._log_distance is metric._log_distance and T._call is T._call
    assert metric._log_distance((1.0,), (2.0,)) == math.log(2.0)


# -- a coordinate-wise kind, one coordinate at a time ------------------------------

COORDINATEWISE = ("scale", "rational", "power", "reciprocal_sqrt", "negation")


def test_the_coordinate_wise_kinds_and_only_they_bind_a_coordinate_kernel():
    for kind in maps.MAP_PARAMS:
        T = mx.SelfMapSpec.from_json_dict(
            {"kind": kind, **{name: {"value": [1.0], "matrix": [[1.0]], "offset": [0.0]}
                              .get(name, 0.5) for name in maps.MAP_PARAMS[kind]}})
        assert (T._coordinate is not None) == (kind in COORDINATEWISE)
        assert T._coordinate is T._coordinate


@pytest.mark.parametrize("c, x", [(0.0, (1.0, 0.0)), (-1.0, (-1.0,))],
                         ids=["zero", "negative"])
def test_reciprocal_sqrts_coordinate_kernel_raises_what_the_map_raises(c, x):
    # the map-ahead applies the coordinate kernel, a Picard step the whole map
    T = mx.SelfMapSpec.reciprocal_sqrt()
    text = f"reciprocal_sqrt needs a positive coordinate, got {c}"
    assert outcome(T._coordinate, c) == outcome(T, x) == ("raised", "DomainError", text)


def iterated(T, x, k):
    """Up to k iterates of x by ``T._call``, to the first that raises."""
    out = []
    for _ in range(k):
        try:
            x = T._call(x)
        except Exception:  # noqa: BLE001 - where the orbit ends
            break
        out.append(x)
    return out


# parameters as JSON gives them (an int or a float) and as numpy scalars
PARAMETERS = st.one_of(coords, st.integers(-3, 3),
                       coords.map(np.float64), st.integers(-3, 3).map(np.int64))


@settings(max_examples=600, deadline=None)
@given(kind=st.sampled_from(COORDINATEWISE), data=st.data())
def test_a_block_of_a_coordinate_wise_kind_equals_its_point_kernel_applied_k_times(kind,
                                                                                  data):
    draw = {"c": PARAMETERS, "b": PARAMETERS,
            "p": st.one_of(EXPONENTS, EXPONENTS.map(np.float64))}
    params = {name: data.draw(draw[name]) for name in maps.MAP_PARAMS[kind]}
    T = mx.SelfMapSpec(kind, **params)
    x = data.draw(points(data.draw(st.integers(1, 4))))
    k = data.draw(st.integers(0, 70))
    images, A = solver._images(T, x, k)
    expected = iterated(T, x, k)
    assert [key(p) for p in images] == [key(p) for p in expected]
    assert [key(tuple(row)) for row in A.tolist()] == [key(p) for p in expected]


@pytest.mark.parametrize("T, x, failed", [
    (mx.SelfMapSpec.rational(-1.0), (0.5, 2.0), 2),  # 2 -> 1 -> a pole
    (mx.SelfMapSpec.rational(-1.0), (2.0, 0.5), 2),
    (mx.SelfMapSpec.power(0.5), (4.0, -2.0), 1),  # a fractional power of -2
    (mx.SelfMapSpec.power(2.0), (1.5, 1e200), 1),  # 1e400 overflows
    (mx.SelfMapSpec.power(2.0), (1e100, 1.5), 2),
    (mx.SelfMapSpec.reciprocal_sqrt(), (4.0, -0.0), 1),
])
def test_a_block_ends_where_one_coordinate_fails_and_the_others_run_on(T, x, failed):
    images, A = solver._images(T, x, 50)
    assert [key(p) for p in images] == [key(p) for p in iterated(T, x, 50)]
    assert len(images) == len(A) == failed - 1
    with pytest.raises((ArithmeticError, DomainError)):
        T._call(images[-1] if images else x)
