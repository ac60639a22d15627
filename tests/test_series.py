import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from soritica.bounds import MAX_NESTING, MAX_POWER, BoundExceeded
from soritica.neutrix import ExternalNumber, Kind, Neutrix, parse_external
from soritica.series import (
    EPS,
    INFINITE_VALUATION,
    OMEGA,
    ONE,
    ZERO,
    EpsSeries,
    ParseError,
    _compare,
    parse_series,
)

from reference_arithmetic import (
    ref_add,
    ref_compare,
    ref_external_mul,
    ref_from_terms,
    ref_make,
    ref_mul,
    ref_n_max,
    ref_sub,
)

F = Fraction


def series(*pairs):
    return EpsSeries.from_terms([(F(e), F(c)) for e, c in pairs])


# strategies: small rational exponents/coefficients keep valuations readable
exponents = st.fractions(
    min_value=-3, max_value=3, max_denominator=2
)
coefficients = st.fractions(
    min_value=-9, max_value=9, max_denominator=3
)
series_values = st.lists(
    st.tuples(exponents, coefficients), max_size=4
).map(EpsSeries.from_terms)
neutrices = st.one_of(
    st.just(Neutrix.zero()),
    st.builds(Neutrix, exponents, st.sampled_from((Kind.LIM, Kind.OSL))),
)
externals = st.builds(ExternalNumber.make, series_values, neutrices)
rationals = st.one_of(st.integers(-9, 9), coefficients)


def evaluate(x: EpsSeries, eps_value: float) -> float:
    """Float oracle: substitute a concrete small positive value for ``e``."""
    return sum(float(c) * eps_value ** float(q) for q, c in x.terms)


def sampled_equal(x: EpsSeries, y: EpsSeries, k: int = 6) -> bool:
    """Numeric oracle: substitute a tiny epsilon into both sides."""
    eps = 10.0**-k
    lhs, rhs = evaluate(x, eps), evaluate(y, eps)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) / scale < 1e-6


class TestFields:
    """The constructor refuses terms that break the canonical form."""

    @pytest.mark.parametrize(
        "terms",
        [
            ((0.5, 1.0),),
            ((0, 1.0),),
            ((True, 1),),
            ((0, True),),
            ((0, "1"),),
            [(0, 1)],
            ((0, 1, 2),),
            (0, 1),
            ([0, 1],),
            "01",
        ],
    )
    def test_type_refused(self, terms):
        with pytest.raises(TypeError):
            EpsSeries(terms)

    @pytest.mark.parametrize(
        "terms",
        [
            ((1, 0), (0, 2)),
            ((0, F(0)),),
            ((1, 1), (0, 2)),
            ((0, 1), (0, 2)),
            ((0, 1), (F(1, 2), 1), (F(1, 2), 3)),
        ],
    )
    def test_value_refused(self, terms):
        with pytest.raises(ValueError, match="EpsSeries.from_terms"):
            EpsSeries(terms)

    def test_canonical_accepted(self):
        assert EpsSeries() == ZERO
        assert EpsSeries(()).is_zero
        x = EpsSeries(((-1, F(1, 2)), (0, 3), (F(1, 2), -1)))
        assert x == EpsSeries.from_terms([(F(1, 2), -1), (0, 3), (-1, F(1, 2))])
        assert str(x) == "1/2*e^(-1) + 3 - e^(1/2)"


class TestArithmetic:
    def test_add_cancellation(self):
        assert (series((0, 1), (1, 1)) + series((0, 2), (1, -1))) == series(
            (0, 3)
        )

    def test_add_identity(self):
        x = series((-1, 2), (F(1, 2), 3))
        assert x + ZERO == x

    def test_add_merges_distinct_exponents(self):
        got = OMEGA + EPS
        assert got == series((-1, 1), (1, 1))
        assert sampled_equal(got, OMEGA + EPS)

    def test_mul_exponent_cancellation(self):
        assert OMEGA * EPS == ONE

    def test_mul_convolution(self):
        left = series((0, 1), (1, 1)) * series((0, 1), (1, -1))
        assert left == series((0, 1), (2, -1))
        assert sampled_equal(left, series((0, 1), (2, -1)))

    def test_mul_annihilator(self):
        assert series((2, 5), (-1, 3)) * ZERO == ZERO

    def test_pow(self):
        x = series((0, 1), (1, 1))
        assert x**3 == x * x * x
        assert x**0 == ONE

    def test_pow_bound(self):
        assert EPS**MAX_POWER == EpsSeries.monomial(MAX_POWER)
        with pytest.raises(BoundExceeded):
            series((0, 1), (1, 1)) ** (MAX_POWER + 1)


class TestOrder:
    def test_omega_dominates_big_constants(self):
        assert OMEGA > EpsSeries.from_rational(1000000)
        # numeric oracle at a smaller epsilon
        assert evaluate(OMEGA, 1e-9) > 1000000

    def test_reflexive_equal(self):
        x = series((1, 2), (2, -1))
        assert x.compare(x) == 0

    def test_eps_positive(self):
        assert EPS > ZERO

    def test_sign_of_leading_term(self):
        assert series((-2, -1), (0, 100)).sign() == -1


class TestValuation:
    def test_min_exponent(self):
        assert (OMEGA + EpsSeries.from_rational(3)).valuation == F(-1)

    def test_zero_sentinel(self):
        assert ZERO.valuation == INFINITE_VALUATION

    def test_single_term(self):
        assert EpsSeries.monomial(F(1, 2)).valuation == F(1, 2)


class TestParsePrint:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "1",
            "e",
            "e^(-1)",
            "3 - 2*e^(1/2) + e^(-1)",
            "1/2*e^(3/2)",
            "-7 + e^2",
        ],
    )
    def test_round_trip(self, text):
        value = parse_series(text)
        assert parse_series(str(value)) == value

    def test_parse_matches_construction(self):
        assert parse_series("3 - 2*e^(1/2) + e^(-1)") == series(
            (-1, 1), (0, 3), (F(1, 2), -2)
        )

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_series("3 + @")
        assert info.value.position == 4

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_series("(1 + e")

    @pytest.mark.parametrize(
        "text,position", [("1/0", 0), ("e^(1/0)", 3), ("2 + 3/00", 4)]
    )
    def test_zero_denominator(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_series(text)
        assert info.value.position == position


class TestRingLaws:
    @given(series_values, series_values)
    def test_add_commutative(self, x, y):
        assert x + y == y + x

    @given(series_values, series_values, series_values)
    def test_add_associative(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(series_values, series_values)
    def test_mul_commutative(self, x, y):
        assert x * y == y * x

    @given(series_values, series_values, series_values)
    def test_mul_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(series_values, series_values, series_values)
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(series_values, series_values)
    def test_valuation_additive(self, x, y):
        if not x.is_zero and not y.is_zero:
            assert (x * y).valuation == x.valuation + y.valuation


class TestOrderCompatibility:
    @given(series_values, series_values, series_values)
    def test_translation(self, x, y, z):
        if x < y:
            assert x + z < y + z

    @given(series_values, series_values, series_values)
    def test_positive_scaling(self, x, y, z):
        if x < y and z > ZERO:
            assert x * z < y * z

    @given(series_values, series_values)
    def test_total(self, x, y):
        assert (x < y) + (x == y) + (y < x) == 1


class TestAgainstReference:
    """The merge-based core equals the dict-based reference arithmetic."""

    @given(series_values, series_values)
    def test_add_sub_mul(self, x, y):
        assert x + y == ref_add(x, y)
        assert x - y == ref_sub(x, y)
        assert x * y == ref_mul(x, y)

    @given(
        st.lists(
            st.tuples(st.integers(-2, 2).map(F), coefficients), max_size=8
        )
    )
    def test_from_terms_unsorted_repeated(self, pairs):
        assert EpsSeries.from_terms(pairs) == ref_from_terms(pairs)

    @given(series_values, series_values)
    def test_compare(self, x, y):
        assert x.compare(y) == ref_compare(x, y)
        assert (x < y) == (ref_compare(x, y) < 0)


class TestCompareWalk:
    """``_compare`` reads the sign of ``x - y`` off the first differing term."""

    @given(series_values, series_values)
    def test_drawn(self, x, y):
        assert _compare(x.terms, y.terms) == (x - y).sign()
        assert x.compare(y) == (x - y).sign()

    @given(series_values)
    def test_equal(self, x):
        twin = EpsSeries(tuple(x.terms))
        assert _compare(x.terms, twin.terms) == 0
        assert not x < twin and not twin < x and x <= twin

    @given(series_values, series_values)
    def test_prefixes(self, x, y):
        # A prefix of x, and x with y's terms past its own appended.
        longer = x + EpsSeries(
            tuple(t for t in y.terms if not x.terms or t[0] > x.terms[-1][0])
        )
        for k in range(len(longer.terms) + 1):
            prefix = EpsSeries(longer.terms[:k])
            assert _compare(longer.terms, prefix.terms) == (longer - prefix).sign()
            assert _compare(prefix.terms, longer.terms) == (prefix - longer).sign()

    @given(series_values)
    def test_zero(self, x):
        assert x.compare(ZERO) == x.sign() == -ZERO.compare(x)
        assert (x < ZERO) == (x.sign() < 0) and (ZERO < x) == (x.sign() > 0)

    def test_rationals(self):
        assert ONE.compare(1) == 0 and EPS.compare(0) == 1
        assert OMEGA.compare(F(10**9)) == 1 and (-EPS).compare(F(-1, 10**9)) == 1
        assert EPS < F(1, 10**9) and not ONE < 1

    @pytest.mark.parametrize("other", ["1", None, 1.0, [ONE]])
    def test_non_series(self, other):
        with pytest.raises(TypeError):
            ONE.compare(other)
        with pytest.raises(TypeError):
            ONE < other


ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


def constant_term(x: EpsSeries):
    """The coefficient of ``e^0`` in ``x``, an ``int`` or a ``Fraction``."""
    return dict(x.terms).get(0, 0)


class TestOrderOperators:
    """All four operators read the sign of ``compare``, on either side."""

    @given(
        st.one_of(series_values, rationals.map(EpsSeries.from_rational)),
        series_values,
        st.integers(-9, 9),
        coefficients,
    )
    def test_drawn(self, x, y, k, q):
        for other in (y, k, q, constant_term(x)):
            sign = x.compare(other)
            for op in ORDER:
                assert op(x, other) is op(sign, 0)
                assert op(other, x) is op(-sign, 0)

    def test_equal_rationals(self):
        assert not ONE > 1 and not 1 < ONE and not ZERO > 0 and not ZERO < 0
        assert ONE <= 1 and ONE >= 1 and 1 >= ONE and 1 <= ONE
        assert ZERO >= F(0) and EpsSeries.from_rational(F(1, 2)) <= F(1, 2)

    def test_equality_stays_structural(self):
        assert ONE.compare(1) == 0 and ONE != 1 and not ONE == 1
        assert not ZERO == 0 and not EpsSeries.from_rational(F(1, 2)) == F(1, 2)

    @pytest.mark.parametrize("other", ["1", 1.0])
    @pytest.mark.parametrize("op", ORDER)
    def test_foreign_operand(self, op, other):
        with pytest.raises(TypeError):
            op(ONE, other)
        with pytest.raises(TypeError):
            op(other, ONE)


def as_external(value):
    return value if isinstance(value, ExternalNumber) else ExternalNumber.make(value)


def ref_difference(a, b):
    """``a - b`` from the reference: the dict merge, then the reference cut."""
    if isinstance(b, (int, Fraction)):
        b = a._coerce(b)
    if isinstance(a, EpsSeries) and isinstance(b, EpsSeries):
        return ref_sub(a, b)
    a, b = as_external(a), as_external(b)
    return ref_make(ref_sub(a.rep, b.rep), ref_n_max(a.neutrix, b.neutrix))


def ref_product(a, b):
    if isinstance(a, EpsSeries):
        return ref_mul(a, b)
    return ref_external_mul(a, b)


class TestSharedArithmetic:
    """Subtraction, powers and ``repr``, shared by series and external numbers."""

    values = st.one_of(series_values, externals)

    @given(values, st.one_of(values, rationals))
    def test_subtraction(self, a, b):
        assert a - b == a + (-b) == ref_difference(a, b)

    @given(values, rationals)
    def test_reflected_subtraction(self, a, k):
        assert k - a == k + (-a) == ref_difference(a._coerce(k), a)

    @given(values)
    def test_powers(self, a):
        unit = a._coerce(1)
        assert type(unit) is type(a)
        product = reference = unit
        for n in range(6):
            assert a**n == product == reference
            product = product * a
            reference = ref_product(reference, a)

    @given(values)
    def test_power_refused(self, a):
        with pytest.raises(ValueError):
            a ** -1
        with pytest.raises(BoundExceeded):
            a ** (MAX_POWER + 1)

    @given(values)
    def test_repr(self, a):
        assert repr(a) == f"{type(a).__name__}({a})"
        assert repr(a).startswith(("EpsSeries(", "ExternalNumber("))

    @given(values)
    def test_foreign_operand(self, a):
        with pytest.raises(TypeError):
            a - "x"
        with pytest.raises(TypeError):
            "x" - a


class TestNestingLimit:
    @pytest.mark.parametrize("parse", [parse_series, parse_external])
    @pytest.mark.parametrize("open_, close", [("(", ")"), ("-", ""), ("-(", ")")])
    def test_at_and_past_the_limit(self, parse, open_, close):
        # Every character of ``open_`` opens one level; an even number of
        # minus signs leaves the value 1.
        repeats = MAX_NESTING // len(open_)
        assert parse(open_ * repeats + "1" + close * repeats) == parse("1")
        with pytest.raises(ParseError) as info:
            parse(open_ * repeats + "-(1)" + close * repeats)
        assert info.value.position == MAX_NESTING
        assert info.value.message.startswith("nesting deeper than")

    def test_thousands_of_parentheses(self):
        with pytest.raises(ParseError) as info:
            parse_external("(" * 3000 + "1" + ")" * 3000)
        assert info.value.position == MAX_NESTING

    def test_exponent_parentheses_do_not_nest(self):
        text = "(" * MAX_NESTING + "e^(-1)" + ")" * MAX_NESTING
        assert parse_series(text) == EpsSeries.monomial(-1)

    def test_siblings_do_not_add_up(self):
        text = " + ".join(["(-1)"] * (2 * MAX_NESTING))
        assert parse_series(text) == EpsSeries.from_rational(-2 * MAX_NESTING)


LONG = "7" * 5000


class TestLongNumerals:
    @pytest.mark.parametrize("parse", [parse_series, parse_external])
    @pytest.mark.parametrize(
        "text, position",
        [(LONG, 0), ("2 + 1/" + LONG, 4), ("e^(-" + LONG + ")", 4), ("1/" + "0" * 5000, 0)],
    )
    def test_typed_error_at_the_literal(self, parse, text, position):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == position
        assert info.value.message.startswith("numeral longer than")

    def test_neutrix_exponent(self):
        with pytest.raises(ParseError) as info:
            parse_external("osl + L(" + LONG + ")")
        assert info.value.position == 8

    @pytest.mark.parametrize(
        "text, message",
        [("x + " + LONG, "unknown symbol 'x'"), (LONG + " @", "unexpected character '@'")],
    )
    def test_earlier_errors_come_first(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_series(text)
        assert info.value.message == message

    def test_zero_denominator_checked_first(self):
        with pytest.raises(ParseError) as info:
            parse_series(LONG + "/0")
        assert info.value.message.startswith("zero denominator")

    def test_long_literal_within_the_limit(self):
        assert parse_series("9" * 4000) == EpsSeries.from_rational(10**4000 - 1)
