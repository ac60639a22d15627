"""The one unchecked constructor: the values it builds are the public ones."""

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from soritica._trusted import trusted
from soritica.formulas import And, Atom, Exists, Forall, Iff, Implies, Index, Not, Or, PropVar
from soritica.laws import rand_external
from soritica.neutrix import ExternalNumber, Neutrix
from soritica.series import EpsSeries

from test_formulas import formulas


def _values():
    """Publicly built values of every class, from drawn seeds and formulas."""
    externals = st.integers(0, 2**32).map(lambda seed: rand_external(random.Random(seed)))
    return st.one_of(
        externals,
        externals.map(lambda alpha: alpha.rep),
        externals.map(lambda alpha: alpha.neutrix),
        formulas,
        st.builds(Index, st.sampled_from([None, "n"]), st.integers(0, 9)),
    )


def _fields(value):
    return [getattr(value, field.name) for field in dataclasses.fields(value)]


CLASSES = [
    EpsSeries, Neutrix, ExternalNumber, Index,
    Atom, PropVar, Not, And, Or, Implies, Iff, Forall, Exists,
]


class TestTrusted:
    @given(_values())
    def test_builds_the_public_value(self, value):
        built = trusted(type(value))(*_fields(value))
        assert type(built) is type(value)
        assert (built, hash(built), repr(built)) == (value, hash(value), repr(value))

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_every_class_slotted_and_frozen(self, cls):
        field = dataclasses.fields(cls)[0].name
        built = trusted(cls)(*[None] * len(dataclasses.fields(cls)))
        assert not hasattr(built, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, field, None)

    def test_skips_the_check(self):
        rep, group = EpsSeries(((0, 1), (1, 2))), Neutrix.lim(0)
        with pytest.raises(ValueError, match="non-canonical"):
            ExternalNumber(rep, group)
        pair = trusted(ExternalNumber)(rep, group)
        assert (pair.rep, pair.neutrix) == (rep, group)
        with pytest.raises(ValueError, match="negative offset"):
            Index("n", -1)
        assert trusted(Index)("n", -1).offset == -1

