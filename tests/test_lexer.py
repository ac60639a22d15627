"""The shared front end: fuzzed texts and round trips through ``str``."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from soritica.formulas import FormulaSyntaxError, parse_formula
from soritica.neutrix import ExternalNumber, Kind, Neutrix, parse_external
from soritica.series import EpsSeries, ParseError, parse_series

#: Stray characters neither grammar has, and whitespace of several kinds.
STRAY = ["@", "$", "é", "٣", "\t", "\n", " ", "/", "-", "<", ">", "=", "."]

NUMBER_PIECES = [
    "0", "1", "7", "12", "007", "3/4", "6/3", "1/0",
    "e", "L", "o", "osl", "lim", "£", "⊘", "x",
    "^", "*", "+", "-", "(", ")", " ",
]
FORMULA_PIECES = [
    "p", "q", "S", "n", "D", "forall", "exists", "in",
    "~", "&", "|", "->", "<->", "(", ")", ".", "..", "+", ",",
    "0", "1", "9", " ",
]


def texts(pieces):
    return st.lists(st.sampled_from(pieces + STRAY), max_size=30).map("".join)


class TestFuzz:
    """Any text gives a value or the parser's own error, nothing else."""

    @settings(max_examples=300)
    @given(texts(NUMBER_PIECES))
    def test_series(self, text):
        try:
            parse_series(text)
        except ParseError:
            pass

    @settings(max_examples=300)
    @given(texts(NUMBER_PIECES))
    def test_external(self, text):
        try:
            parse_external(text)
        except ParseError:
            pass

    @settings(max_examples=300)
    @given(texts(FORMULA_PIECES))
    def test_formula(self, text):
        try:
            parse_formula(text)
        except FormulaSyntaxError:
            pass


exponents = st.fractions(min_value=-5, max_value=5, max_denominator=7)
coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=9)
series_values = st.lists(
    st.tuples(exponents, coefficients), max_size=6
).map(EpsSeries.from_terms)
neutrices = st.one_of(
    st.just(Neutrix.zero()),
    st.builds(Neutrix, exponents, st.sampled_from((Kind.LIM, Kind.OSL))),
)


class TestRoundTrip:
    @given(series_values)
    def test_series(self, x):
        assert parse_series(str(x)) == x

    @given(series_values, neutrices)
    def test_external(self, rep, neutrix):
        alpha = ExternalNumber.make(rep, neutrix)
        assert parse_external(str(alpha)) == alpha

    @given(st.integers(min_value=-(10**50), max_value=10**50), st.integers(1, 10**20))
    def test_large_rationals(self, numerator, denominator):
        x = EpsSeries.from_rational(Fraction(numerator, denominator))
        assert parse_series(str(x)) == x
