"""Value semantics of the immutable classes: equality, hash, immutability,
repr and input checks, as a frozen dataclass gives them."""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest

from folnerdom.actions import Observable
from folnerdom.chains import build_chain
from folnerdom.dominance import dominance_report
from folnerdom.groups import Zd
from folnerdom.measures import FinSupMeasure
from folnerdom.schedules import Schedule
from folnerdom.sets import FiniteSubset

from conftest import z_interval

Z = Zd(1)


def _chain(cap=None):
    return build_chain([z_interval(1), z_interval(2)], Schedule(depth=2), cap=cap)


# class name -> a function that builds the same value afresh on each call
MAKERS = {
    "FiniteSubset": lambda: FiniteSubset.of(Z, [(0,), (1,)]),
    "Schedule": lambda: Schedule(tail_base=3),
    "FinSupMeasure": lambda: FinSupMeasure(Z, {(0,): 1, (1,): 2}, 3),
    "Chain": _chain,
    "DominanceReport": lambda: dominance_report(_chain(), 2),
    "Observable": lambda: Observable.function([Fraction(1, 2), 1]),
}
# fields holding a dict or a list leave the value unhashable, as in a dataclass
UNHASHABLE = {"FinSupMeasure", "Chain"}


def _fields(value) -> dict:
    return {name: getattr(value, name) for name in value._fields}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_value_semantics(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert a is not b and a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    # a different class with the same fields is a different value
    assert a != SimpleNamespace(**_fields(a))
    field = next(iter(_fields(a)))
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b
    assert repr(a).startswith(f"{name}(") and f"{field}=" in repr(a)


def test_equal_fields_are_the_compared_values():
    assert Observable("function", 4, (2, 4)) == Observable.function([Fraction(1, 2), 1])
    assert Observable("function", 4, (2, 4)).den == 2
    assert FinSupMeasure(Z, {(0,): 2, (1,): 4}, 6) == FinSupMeasure(Z, {(0,): 1, (1,): 2}, 3)
    assert FinSupMeasure(Z, {(0,): 2, (1,): 4}, 6).denominator == 3
    assert FiniteSubset.of(Z, [(0,)]) != FiniteSubset.of(Z, [(1,)])
    assert FiniteSubset(Z) == FiniteSubset(Z, frozenset())
    assert Schedule() != Schedule(depth=3)
    assert FinSupMeasure(Z, {(0,): 1}, 1) != FinSupMeasure(Z, {(0,): 1}, 1, truncated=True)
    assert repr(Schedule()) == "Schedule(tail_base=2, length_base=2, depth=2)"


def test_chain_equality_ignores_its_walk():
    a, b = _chain(), _chain()
    a.powers(3)
    assert a == b and "_walk" not in repr(a)
    # the cap is compared: it decides the walk
    assert a != _chain(cap=20) and "cap=None" in repr(a)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Schedule(tail_base=1),
        lambda: Schedule(length_base=1),
        lambda: Schedule(depth=0),
        lambda: FinSupMeasure(Z, {(0,): 1}, 0),
        lambda: Observable("function", 0, (1,)),
        lambda: Observable("matrix", -2, ((1,),)),
    ],
    ids=["tail_base", "length_base", "depth", "measure_den", "function_den", "matrix_den"],
)
def test_bad_input_raises_value_error(build):
    with pytest.raises(ValueError):
        build()
