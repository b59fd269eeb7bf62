import copy
import pickle

import pytest

from intervalzeta._value import Value
from intervalzeta.combinatorics import Combinatorics
from intervalzeta.series import RationalFn


def test_equal_values_hash_equally():
    # two constructions of 1/(1 - t) reduce to the same fields
    a, b = RationalFn((2,), (2, -2)), RationalFn((1,), (1, -1))
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert RationalFn((1,), (1, -2)) != b


def test_repr_is_built_from_the_slots():
    assert repr(Combinatorics((0, 2, 0))) == "Combinatorics(entries=(0, 2, 0))"
    assert repr(RationalFn((1,), (1, -1))) == "RationalFn(num=(Fraction(1, 1),), den=(Fraction(1, 1), Fraction(-1, 1)))"


def test_copy_and_pickle_go_through_reduce(monkeypatch):
    calls = []
    reduce = Value.__reduce__
    monkeypatch.setattr(Value, "__reduce__", lambda self: calls.append(self) or reduce(self))
    rho = Combinatorics((0, 2, 3, 1, 0))
    for clone in (copy.copy(rho), pickle.loads(pickle.dumps(rho))):
        assert type(clone) is Combinatorics and clone == rho
    assert calls == [rho, rho]


def test_fields_cannot_be_assigned_or_deleted():
    rho = Combinatorics((0, 2, 0))
    with pytest.raises(AttributeError, match="^cannot assign to field 'entries' of Combinatorics$"):
        rho.entries = (0, 1)
    with pytest.raises(AttributeError, match="^cannot delete field 'entries' of Combinatorics$"):
        del rho.entries
    assert rho.entries == (0, 2, 0)


def test_other_classes_are_unequal():
    rho = Combinatorics((0, 1))
    assert rho != (0, 1) and not rho == (0, 1)
    assert rho.__eq__((0, 1)) is NotImplemented
    assert RationalFn((1,), (1,)) != 1
