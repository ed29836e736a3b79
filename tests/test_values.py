"""The immutable value classes: frozen fields, equality, hashing, repr."""

import copy
import pickle
from fractions import Fraction

import pytest

from cantorsq import (
    ALL_LEFT,
    CantorParams,
    CantorPoint,
    Interval,
    IntervalUnion,
    TripleBox,
    base_boxes,
    decompose_four,
    make_params,
    refine_step,
)

F = Fraction


def instances():
    """Two equal but distinct instances of each value class."""
    return {
        "Interval": lambda: Interval(F(1, 3), F(2, 3)),
        "CantorPoint": lambda: CantorPoint("1221", ALL_LEFT),
        "CantorParams": lambda: make_params(F(7, 2)),
        "TripleBox": lambda: TripleBox((F(0), F(2, 3), F(2, 3)), 1),
        "Certificate": lambda: decompose_four(make_params(3), F(7, 13), 6),
        "IntervalUnion": lambda: IntervalUnion([Interval(0, 1), Interval(2, 3)]),
    }


CLASSES = sorted(instances())


@pytest.fixture(params=CLASSES)
def pair(request):
    build = instances()[request.param]
    return build(), build()


def test_fields_are_frozen(pair):
    value, _ = pair
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_no_instance_dict(pair):
    value, _ = pair
    assert not hasattr(value, "__dict__")


def test_equal_instances_hash_equal(pair):
    first, second = pair
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_equal_only_within_one_class():
    point = CantorPoint("12", ALL_LEFT)
    assert point != ("12", ALL_LEFT)
    assert Interval(0, 1) != IntervalUnion([Interval(0, 1)])
    assert CantorParams(3, F(1, 3)) == make_params(3)
    assert CantorParams(3, F(1, 3)) != make_params(4)


def test_copy_and_pickle_round_trip(pair):
    value, _ = pair
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_params_hit_the_seed_box_cache():
    base_boxes(make_params(3))
    hits = base_boxes.cache_info().hits
    base_boxes(CantorParams(3, F(1, 3)))
    assert base_boxes.cache_info().hits == hits + 1


def test_repr_format():
    box = TripleBox((F(0), F(2, 3), F(2, 3)), 1)
    text = "TripleBox(lefts=(Fraction(0, 1), Fraction(2, 3), Fraction(2, 3)), level=1)"
    assert repr(box) == text
    with pytest.raises(ValueError) as info:
        refine_step(make_params(3), box, F(100))
    assert text in str(info.value)
    assert repr(CantorPoint("12", ALL_LEFT)) == "CantorPoint(prefix='12', tail='L')"
    assert repr(make_params(3)) == (
        "CantorParams(alpha=Fraction(3, 1), ratio=Fraction(1, 3))")
    assert repr(Interval(0, F(1, 2))) == "Interval(0, 1/2)"

