"""The number core keeps every rational as an ``int`` when it is integral.

No float ever enters a series or a neutrix, and every integral exponent
or coefficient is an ``int``; a non-integral one is a ``Fraction``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from soritica.laws import rand_external
from soritica.neutrix import (
    ExternalNumber,
    Neutrix,
    n_mul,
    n_scale,
    parse_external,
    regular_inverse,
)
from soritica.sampling import neutrix_samples
from soritica.series import EPS, EpsSeries, rational


def normal(r):
    return type(r) is int or (type(r) is Fraction and r.denominator != 1)


def assert_normal(x):
    if isinstance(x, ExternalNumber):
        assert x.neutrix.is_zero or normal(x.neutrix.exponent), x
        x = x.rep
    for exp, coeff in x.terms:
        assert normal(exp) and normal(coeff), x.terms


# Integral Fractions such as Fraction(2) are common here, so each
# constructor has to normalise them.
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
series_values = st.lists(st.tuples(rationals, rationals), max_size=3).map(
    EpsSeries.from_terms
)
neutrices = st.one_of(
    st.just(Neutrix.zero()),
    st.builds(Neutrix.lim, rationals),
    st.builds(Neutrix.osl, rationals),
)
externals = st.one_of(
    st.builds(ExternalNumber.make, series_values, neutrices),
    st.integers(0, 2**32).map(lambda seed: rand_external(random.Random(seed))),
)


class TestIntegralRationalsAreInts:
    def test_rational(self):
        assert type(rational(Fraction(4, 2))) is int
        assert rational(Fraction(1, 2)) == Fraction(1, 2)
        for bad in (0.5, "1/2", True, False):
            with pytest.raises(TypeError):
                rational(bad)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EpsSeries.monomial(True),
            lambda: EpsSeries.monomial(1, True),
            lambda: ExternalNumber.make(True),
            lambda: Neutrix.lim(True),
            lambda: EPS + True,
        ],
        ids=["monomial exponent", "monomial coefficient", "make", "lim", "add"],
    )
    def test_bool_refused_by_builders(self, build):
        with pytest.raises(TypeError, match="expected a rational, got bool"):
            build()

    @given(externals, externals)
    def test_arithmetic(self, a, b):
        for x in (a + b, a - b, a * b, -a):
            assert_normal(x)
        for x in (a.rep + b.rep, a.rep - b.rep, a.rep * b.rep):
            assert_normal(x)

    @given(neutrices, neutrices, series_values)
    @example(
        Neutrix.lim(Fraction(1, 2)),
        Neutrix.osl(Fraction(1, 2)),
        EpsSeries.monomial(Fraction(1, 2)),
    )
    def test_neutrix_exponents(self, a, b, x):
        for neutrix in (n_mul(a, b), n_scale(x, a)):
            assert neutrix.is_zero or normal(neutrix.exponent)

    @given(series_values, neutrices)
    def test_make(self, rep, neutrix):
        assert_normal(rep)
        assert_normal(ExternalNumber.make(rep, neutrix))

    @given(externals)
    def test_parse_round_trip(self, a):
        assert_normal(parse_external(str(a)))

    @given(
        st.integers(-9, 9),
        st.integers(1, 4),
        st.integers(-6, 6),
        st.integers(1, 3),
        st.sampled_from("Lo"),
    )
    def test_parse_literals(self, p, q, r, s, kind):
        # e.g. "4/2*e^(-6/3) + L(-6/3)": every literal is parsed as n/d.
        text = f"{p}/{q}*e^({r}/{s}) + {kind}({r}/{s}) + {p}/{q}"
        assert_normal(parse_external(text))

    @given(externals)
    @settings(max_examples=60)
    def test_regular_inverse(self, a):
        beta = regular_inverse(a)
        if beta is not None:
            assert_normal(beta)
            assert_normal(a * beta * a)

    @given(neutrices, st.integers(0, 2**32))
    def test_neutrix_samples(self, neutrix, seed):
        for sample in neutrix_samples(neutrix, 20, random.Random(seed)):
            assert_normal(sample)
