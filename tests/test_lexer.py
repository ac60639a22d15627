"""The shared front end: fuzzed texts and round trips through ``str``."""

import inspect
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import soritica
from soritica.bounds import MAX_HEIGHT, MAX_NESTING
from soritica.formulas import FormulaSyntaxError, Index, parse_formula
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


# -- reading nested texts with one loop ------------------------------------

#: Parses texts from stdin with the recursion limit set low after the
#: imports, and prints each outcome once the limit is back.
_LOW_LIMIT_SCRIPT = """
import json, sys
from soritica.formulas import parse_formula
from soritica.lexer import TextError
from soritica.neutrix import parse_external

cases = json.load(sys.stdin)
parsers = {"formula": parse_formula, "number": parse_external}
results = []
sys.setrecursionlimit(LIMIT)
for grammar, text in cases:
    try:
        results.append(parsers[grammar](text))
    except TextError as exc:
        results.append([exc.message, exc.position])
sys.setrecursionlimit(1000)
print(json.dumps([r if isinstance(r, list) else repr(r) for r in results]))
"""

#: Far below the frames a descent with a rule per level would spend on
#: ``MAX_NESTING`` levels (three or four a level), and above the few the
#: loop needs whatever the nesting.
LOW_LIMIT = 40

FORMULA_OPENERS = ["(", "~", "forall n in 1..2. ", "exists m in D. "]
NUMBER_OPENERS = ["(", "-"]


def nest(openers, core, tails=()):
    """``core`` inside ``openers``, each ``(`` closed and then followed by
    the next of ``tails`` (or nothing)."""
    tails = iter(tails)
    closing = ""
    for opener in reversed(openers):
        if opener == "(":
            closing += ")" + next(tails, "")
    return "".join(openers) + core + closing


def formula_openers(rng_choice, levels):
    """``levels`` formula openers, a quantifier only where one may stand:
    first, after ``(`` or after another quantifier."""
    openers = []
    for _ in range(levels):
        allowed = FORMULA_OPENERS if not openers or openers[-1] != "~" else ["(", "~"]
        openers.append(rng_choice(allowed))
    return openers


def shape(value):
    """A formula tree as a flat tuple, walked with an explicit stack (a
    tree near ``MAX_HEIGHT`` is too tall for a recursive ``==`` inside a
    drawn test); any other value as it is."""
    if not is_dataclass(value):
        return value
    flat, stack = [], [value]
    while stack:
        node = stack.pop()
        flat.append(type(node))
        for field in fields(node):
            part = getattr(node, field.name)
            if is_dataclass(part) and not isinstance(part, Index):
                stack.append(part)
            else:
                flat.append(part)
    return tuple(flat)


class TestNoRecursion:
    """Parsing spends no Python frame per nesting level."""

    def test_deep_mixes_at_a_low_recursion_limit(self):
        rng = random.Random(27)
        cases = []
        for levels in (MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1):
            for _ in range(4):
                openers = formula_openers(rng.choice, levels)
                cases.append(("formula", nest(openers, "S(n) & p", [" | q"] * levels)))
                openers = [rng.choice(NUMBER_OPENERS) for _ in range(levels)]
                cases.append(("number", nest(openers, "1 + e*osl", [" - 2"] * levels)))
        cases.append(("formula", "(" * MAX_NESTING + "~" * 5000 + "p"))
        cases.append(("number", "-" * 5000 + "1"))
        src = Path(soritica.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", _LOW_LIMIT_SCRIPT.replace("LIMIT", str(LOW_LIMIT))],
            input=json.dumps(cases),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        got = json.loads(done.stdout)
        parsers = {"formula": parse_formula, "number": parse_external}
        parsed = 0
        for (grammar, text), result in zip(cases, got, strict=True):
            want = outcome(parsers[grammar], text)
            if isinstance(want, tuple):
                assert result == [want[1], want[2]]
            else:
                parsed += 1
                assert result == repr(want)
        assert parsed >= 8

    def test_the_descent_does_recurse(self):
        """The same check would catch a parser that spends a frame a level."""
        text = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
        limit = sys.getrecursionlimit()
        depth = len(inspect.stack(0))
        sys.setrecursionlimit(depth + LOW_LIMIT)
        try:
            with pytest.raises(RecursionError):
                old_parse_series(text)
            assert parse_series(text) == EpsSeries.from_rational(1)
        finally:
            sys.setrecursionlimit(limit)


LEAVES = ["p", "q", "S(1)", "S(n+1)", "S (2)"]


@st.composite
def formulas_at_the_bounds(draw):
    """A formula text nested about ``MAX_NESTING`` deep around a chain that
    makes it about ``MAX_HEIGHT`` tall, with up to two pieces inserted."""
    levels = draw(st.integers(MAX_NESTING - 2, MAX_NESTING + 2))
    openers = formula_openers(lambda options: draw(st.sampled_from(options)), levels)
    prefixes = sum(opener != "(" for opener in openers)
    operands = max(1, MAX_HEIGHT - prefixes + draw(st.integers(-2, 2)))
    op = draw(st.sampled_from(["&", "|", "->", "<->"]))
    core = f" {op} ".join(draw(st.lists(st.sampled_from(LEAVES), min_size=operands, max_size=operands)))
    tails = draw(st.lists(st.sampled_from(["", "", " & p", " -> q"]), max_size=levels))
    return insert(draw, nest(openers, core, tails), FORMULA_PIECES)


@st.composite
def numbers_at_the_bounds(draw):
    levels = draw(st.integers(MAX_NESTING - 2, MAX_NESTING + 2))
    openers = draw(st.lists(st.sampled_from(NUMBER_OPENERS), min_size=levels, max_size=levels))
    core = draw(st.sampled_from(["1 + e*2 - osl", "L(-1) * 3/4", "e^(1/2) - lim", "x"]))
    tails = draw(st.lists(st.sampled_from(["", "", " * 2", " - e"]), max_size=levels))
    return insert(draw, nest(openers, core, tails), NUMBER_PIECES)


def insert(draw, text, pieces):
    """``text`` with up to two of ``pieces`` inserted at drawn offsets."""
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(pieces + STRAY)) + text[at:]
    return text


class TestAtTheBounds:
    """Texts whose nesting straddles ``MAX_NESTING`` and whose height
    straddles ``MAX_HEIGHT`` parse as the reference parsers do."""

    @settings(max_examples=150, deadline=None)
    @given(formulas_at_the_bounds())
    def test_formula(self, text):
        got = shape(outcome(parse_formula, text))
        assert got == shape(outcome(ref_parse_formula, text))
        assert got == shape(outcome(old_parse_formula, text))

    @settings(max_examples=150, deadline=None)
    @given(numbers_at_the_bounds(), st.sampled_from(["series", "external"]))
    def test_numbers(self, text, grammar):
        parse, reference = PARSERS[grammar]
        got = outcome(parse, text)
        assert got == outcome(reference, text)
        assert got == outcome(OLD_PARSERS[grammar][1], text)
