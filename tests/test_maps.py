import pytest

import mulfix as mx
from mulfix.errors import DomainError
from mulfix.maps import grid_points


def test_map_catalog_evaluation():
    assert mx.SelfMapSpec.scale(0.5)((3.0, 4.0)) == (1.5, 2.0)
    assert mx.SelfMapSpec.rational(2.0)((1.0,)) == (1 / 3,)
    assert mx.SelfMapSpec.power(2.0)((3.0,)) == (9.0,)
    assert mx.SelfMapSpec.reciprocal_sqrt()((4.0,)) == (0.5,)
    assert mx.SelfMapSpec.constant((1.0, 2.0))((9.0, 9.0)) == (1.0, 2.0)
    assert mx.SelfMapSpec.identity()((5.0,)) == (5.0,)
    assert mx.SelfMapSpec.negation()((5.0, -1.0)) == (-5.0, 1.0)
    affine = mx.SelfMapSpec.affine([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0])
    assert affine((2.0, 3.0)) == (4.0, 2.0)


def test_map_domain_guards():
    with pytest.raises(DomainError):
        mx.SelfMapSpec.rational(2.0)((-2.0,))
    with pytest.raises(DomainError):
        mx.SelfMapSpec.reciprocal_sqrt()((0.0,))
    with pytest.raises(DomainError):
        mx.SelfMapSpec.power(0.5)((-1.0,))
    with pytest.raises(DomainError):
        mx.SelfMapSpec.power(-1.0)((0.0,))
    with pytest.raises(DomainError):
        mx.SelfMapSpec.affine([[1.0, 0.0]], [0.0])((1.0,))


def test_map_spec_validation():
    with pytest.raises(DomainError):
        mx.SelfMapSpec("scale")  # missing factor
    with pytest.raises(DomainError):
        mx.SelfMapSpec("warp")
    with pytest.raises(DomainError):
        mx.SelfMapSpec("affine", matrix=((1.0,), (1.0, 2.0)), offset=(0.0,))


def test_map_json_round_trip():
    specs = [
        mx.SelfMapSpec.scale(0.5),
        mx.SelfMapSpec.rational(2.0),
        mx.SelfMapSpec.power(-0.5),
        mx.SelfMapSpec.reciprocal_sqrt(),
        mx.SelfMapSpec.constant((1.0, 2.0)),
        mx.SelfMapSpec.identity(),
        mx.SelfMapSpec.negation(),
        mx.SelfMapSpec.affine([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
    ]
    for spec in specs:
        assert mx.SelfMapSpec.from_json_dict(spec.to_json_dict()) == spec


def test_box_validation_and_membership():
    box = mx.Box(((0.0, 1.0), (-1.0, 1.0)))
    assert box.dim == 2
    assert box.contains((0.5, 0.0))
    assert not box.contains((1.5, 0.0))
    assert not box.contains((0.5,))  # wrong dimension
    with pytest.raises(DomainError):
        mx.Box(())
    with pytest.raises(DomainError):
        mx.Box(((1.0, 0.0),))
    assert mx.Box.from_json(box.to_json()) == box


def test_grid_points_one_dimensional_endpoints():
    box = mx.Box(((0.1, 1.0),))
    pts = grid_points(box, 50)
    assert len(pts) == 50
    assert pts[0] == (0.1,) and pts[-1] == (1.0,)
    assert all(box.contains(p) for p in pts)


def test_grid_points_lattice_in_two_dimensions():
    box = mx.Box(((0.0, 1.0), (0.0, 2.0)))
    pts = grid_points(box, 25)
    assert len(pts) == 25
    assert len(set(pts)) == 25
    assert all(box.contains(p) for p in pts)


def test_sample_box_is_deterministic_and_in_bounds():
    box = mx.Box(((-6.0, 6.0), (-6.0, 6.0)))
    a = mx.sample_box(box, 40, seed=2016)
    b = mx.sample_box(box, 40, seed=2016)
    assert a == b
    assert len(a) == 40
    assert all(box.contains(p) for p in a)
    c = mx.sample_box(box, 40, seed=2017)
    assert a != c
    with pytest.raises(DomainError):
        mx.sample_box(box, 0, seed=1)
    with pytest.raises(DomainError):
        mx.sample_box(box, 10, seed=1, scheme="sobol")
    for scheme in ("mixed", "grid"):
        with pytest.raises(DomainError, match="seed"):
            mx.sample_box(box, 10, seed=-1, scheme=scheme)


def test_grid_scheme_returns_pure_grid():
    box = mx.Box(((1.0, 2.0),))
    assert mx.sample_box(box, 100, seed=0, scheme="grid") == grid_points(box, 100)
