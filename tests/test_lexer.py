"""The shared front end: fuzzed texts and round trips through ``str``."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from soritica.bounds import MAX_HEIGHT
from soritica.formulas import FormulaSyntaxError, parse_formula
from soritica.lexer import TextError
from soritica.neutrix import ExternalNumber, Kind, Neutrix, parse_external
from soritica.series import EpsSeries, ParseError, parse_series

from reference_parsers import (
    ReferenceExternalParser,
    old_parse_external,
    old_parse_formula,
    old_parse_series,
    ref_parse_external,
    ref_parse_formula,
    ref_parse_series,
)

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


def outcome(parse, text):
    """The parsed value, or the error's type, message and offset."""
    try:
        return parse(text)
    except TextError as exc:
        return type(exc), exc.message, exc.position
    except Exception as exc:
        return type(exc), str(exc)


PARSERS = {
    "formula": (parse_formula, ref_parse_formula),
    "series": (parse_series, ref_parse_series),
    "external": (parse_external, ref_parse_external),
}


class TestAgainstReference:
    """The precedence loop folds as the one-rule-per-level descent did."""

    @settings(max_examples=500)
    @given(texts(FORMULA_PIECES))
    def test_formula(self, text):
        assert outcome(parse_formula, text) == outcome(ref_parse_formula, text)

    @settings(max_examples=500)
    @given(texts(NUMBER_PIECES), st.sampled_from(["series", "external"]))
    def test_numbers(self, text, grammar):
        parse, reference = PARSERS[grammar]
        assert outcome(parse, text) == outcome(reference, text)

    @pytest.mark.parametrize(
        "ops", list(itertools.permutations(["<->", "->", "|", "&"], 2))
    )
    @pytest.mark.parametrize("operand", ["p", "~p", "(p)"])
    def test_mixed_chains_at_the_height_bound(self, ops, operand):
        def text(operands):
            cycle = itertools.cycle(ops)
            parts = [operand]
            for _ in range(operands - 1):
                parts += [next(cycle), operand]
            return " ".join(parts)

        def fits(operands):
            return not isinstance(outcome(ref_parse_formula, text(operands)), tuple)

        lo, hi = 1, 2 * MAX_HEIGHT + 2  # fits(lo), not fits(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        at, past = text(lo), text(hi)
        assert parse_formula(at) == ref_parse_formula(at)
        expected = outcome(ref_parse_formula, past)
        assert expected[1] == f"formula taller than {MAX_HEIGHT} levels"
        assert outcome(parse_formula, past) == expected


#: Pieces where a ``findall`` lexer could part from a character-by-character
#: scan: a decimal digit beyond ASCII (``\d`` and ``isdecimal`` take it),
#: a digit that is not decimal (``isdigit`` takes it), a letter no name has,
#: whitespace beyond ASCII, zero denominators, numerals past the digit
#: limit, and nesting past the bound.
EDGE_PIECES = [
    "٣", "²", "é", " ", "\x1c", "1/0", "(1/00",
    "9" * 4301, "0" * 4301, "~" * 5000 + "p",
]
EDGE_TEXTS = ["", " ", " \x1c\t\n"] + EDGE_PIECES + ["S(٣)", "e^(٣/2)", "1/٠"]

OLD_PARSERS = {
    "formula": (parse_formula, old_parse_formula),
    "series": (parse_series, old_parse_series),
    "external": (parse_external, old_parse_external),
}


class TestAgainstOldFrontEnd:
    """The ``findall`` lexer and string tokens parse as the sequential scan
    and ``Token`` cursor did: the same tree or value, or the same error."""

    @settings(max_examples=500)
    @given(texts(FORMULA_PIECES + EDGE_PIECES))
    def test_formula(self, text):
        assert outcome(parse_formula, text) == outcome(old_parse_formula, text)

    @settings(max_examples=500)
    @given(texts(NUMBER_PIECES + EDGE_PIECES), st.sampled_from(["series", "external"]))
    def test_numbers(self, text, grammar):
        parse, old = OLD_PARSERS[grammar]
        assert outcome(parse, text) == outcome(old, text)

    @pytest.mark.parametrize("text", EDGE_TEXTS)
    @pytest.mark.parametrize("grammar", sorted(OLD_PARSERS))
    def test_edge_texts(self, grammar, text):
        parse, old = OLD_PARSERS[grammar]
        assert outcome(parse, text) == outcome(old, text)


class TestLongChains:
    @pytest.mark.parametrize("op", ["+", "-", "*"])
    @pytest.mark.parametrize("grammar", ["series", "external"])
    def test_number_chain(self, op, grammar):
        parse, reference = PARSERS[grammar]
        text = f" {op} ".join(["e"] * 10**4)
        assert parse(text) == reference(text)


class TestExternalFromSeries:
    """Numerals and powers of ``e`` are series until they meet a neutrix."""

    def test_no_neutrix_is_wrapped_once(self, monkeypatch):
        make, calls = ExternalNumber.make, []

        def counting(*args):
            calls.append(args)
            return make(*args)

        monkeypatch.setattr(ExternalNumber, "make", staticmethod(counting))
        value = parse_external("1 + 2*e - e^(1/2)")
        assert type(value) is ExternalNumber and len(calls) == 1
        assert str(value) == "1 - e^(1/2) + 2*e"

    @pytest.mark.parametrize(
        "text, printed",
        [("0*osl", "0"), ("1 - osl", "1 + o(0)"), ("2*e^(-1)*lim", "L(-1)")],
    )
    def test_mixed_operands(self, text, printed):
        value = parse_external(text)
        assert value == ReferenceExternalParser(text).parse()
        assert str(value) == printed
