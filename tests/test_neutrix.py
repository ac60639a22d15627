import ast
import functools
import importlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from soritica.neutrix import (
    BoundExceeded,
    Classification,
    ExternalNumber,
    Kind,
    Neutrix,
    OSLASH,
    POUND,
    SetRelation,
    binomial_check,
    classify,
    distributivity_holds,
    n_max,
    n_mul,
    n_scale,
    parse_external,
    regular_inverse,
    relate,
)
from soritica.sampling import (
    en_member,
    en_samples,
    mutual_membership_check,
    neutrix_samples,
    strict_subset_witness,
)
from soritica.series import (
    EPS,
    OMEGA,
    ONE,
    ZERO,
    EpsSeries,
    ParseError,
    parse_series,
)

import soritica
from soritica.bounds import MAX_POWER
from soritica.cli import main
from soritica.laws import rand_external, rand_invertible_external, run_law_suite

from reference_arithmetic import (
    ref_external_mul,
    ref_includes,
    ref_make,
    ref_mul,
    ref_n_max,
    ref_regular_inverse,
)

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def en(text):
    return parse_external(text)


exponents = st.fractions(min_value=-3, max_value=3, max_denominator=2)
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=3)
series_values = st.lists(
    st.tuples(exponents, coefficients), max_size=3
).map(EpsSeries.from_terms)
neutrices = st.one_of(
    st.just(Neutrix.zero()),
    st.builds(Neutrix, exponents, st.sampled_from((Kind.LIM, Kind.OSL))),
)
externals = st.builds(ExternalNumber.make, series_values, neutrices)


class TestNeutrixFields:
    @pytest.mark.parametrize("exponent", [2.25, True, False, "1"])
    def test_exponent_must_be_int_or_fraction(self, exponent):
        with pytest.raises(TypeError, match="exponent must be an int or Fraction"):
            Neutrix(exponent, Kind.LIM)

    @pytest.mark.parametrize("kind", ["L", "o", 0])
    def test_kind_must_be_a_kind(self, kind):
        with pytest.raises(TypeError, match="kind must be a Kind"):
            Neutrix(0, kind)

    def test_rationals_accepted(self):
        assert str(Neutrix(F(1, 2), Kind.OSL)) == str(Neutrix.osl(F(1, 2)))
        assert Neutrix(-3, Kind.LIM) == Neutrix.lim(-3)
        assert Neutrix().is_zero


class TestNeutrixLattice:
    def test_max_infinitesimals_vs_limited(self):
        assert n_max(OSLASH, POUND) == POUND

    def test_zero_is_least(self):
        assert n_max(Neutrix.zero(), OSLASH) == OSLASH

    def test_scaled_lim_inside_osl(self):
        # val >= 1 is a subset of val > 0
        got = n_max(Neutrix.lim(1), Neutrix.osl(0))
        assert got == Neutrix.osl(0)
        rng = random.Random(7)
        for sample in neutrix_samples(Neutrix.lim(1), 50, rng):
            assert Neutrix.osl(0).contains(sample)

    def test_inclusion_total(self):
        groups = [
            Neutrix.zero(),
            Neutrix.osl(1),
            Neutrix.lim(1),
            OSLASH,
            POUND,
            Neutrix.lim(-1),
        ]
        for a in groups:
            for b in groups:
                assert a.includes(b) or b.includes(a)

    @given(neutrices, neutrices)
    def test_includes_matches_reference_order(self, a, b):
        assert a.includes(b) == ref_includes(a, b)
        assert a.strictly_includes(b) == (a != b and ref_includes(a, b))

    @given(st.lists(neutrices, min_size=1, max_size=4))
    def test_n_max_matches_reference(self, groups):
        got = functools.reduce(n_max, groups)
        assert got == ref_n_max(*groups)
        # Among equal groups the first one given wins, as with max().
        assert got is next(n for n in groups if n == got)

    def test_one_bound_exceeded(self):
        from soritica import semantics

        assert semantics.BoundExceeded is BoundExceeded
        with pytest.raises(semantics.BoundExceeded):
            binomial_check(en("1"), en("1"), 9)


class TestScale:
    def test_appreciable_scale_identity(self):
        assert n_scale(EpsSeries.from_rational(3), OSLASH) == OSLASH

    def test_omega_scale_strict_superset(self):
        scaled = n_scale(OMEGA, OSLASH)
        assert scaled == Neutrix.osl(-1)
        assert scaled.strictly_includes(OSLASH)
        witness = strict_subset_witness(OSLASH, scaled)
        assert witness is not None
        assert scaled.contains(witness) and not OSLASH.contains(witness)

    def test_zero_annihilates(self):
        assert n_scale(ZERO, POUND) == Neutrix.zero()


class TestMul:
    def test_osl_osl(self):
        assert n_mul(OSLASH, OSLASH) == OSLASH
        # element-times-group convention: eps * osl sits strictly inside
        assert n_scale(EPS, OSLASH).strictly_includes(Neutrix.zero())
        assert OSLASH.strictly_includes(n_scale(EPS, OSLASH))

    def test_lim_lim(self):
        assert n_mul(POUND, POUND) == POUND
        rng = random.Random(11)
        for a in neutrix_samples(POUND, 20, rng):
            for b in neutrix_samples(POUND, 2, rng):
                assert POUND.contains(a * b)

    def test_exponent_addition(self):
        assert n_mul(Neutrix.lim(1), Neutrix.lim(1)) == Neutrix.lim(2)


class TestAddition:
    def test_dominant_neutrix_wins(self):
        got = en("3 + osl") + en("2 + L(1)")
        assert got == en("5 + osl")
        rng = random.Random(3)
        assert mutual_membership_check(got, en("5 + osl"), rng)

    def test_oslash_idempotent(self):
        assert en("osl") + en("osl") == en("osl")

    def test_eps_absorbed(self):
        assert en("e") + en("osl") == en("osl")

    def test_negation_keeps_neutrix(self):
        assert -en("3 + osl") == en("-3 + osl")
        assert en("3 + osl") + (-en("3 + osl")) == en("osl")
        assert -en("osl") == en("osl")


class TestMultiplication:
    def test_appreciable_product(self):
        got = en("(2 + osl) * (3 + osl)")
        assert got == en("6 + osl")
        rng = random.Random(5)
        assert mutual_membership_check(got, en("6 + osl"), rng)

    def test_unlimited_times_infinitesimal(self):
        got = en("(e^(-1) + lim) * (e + osl)")
        assert got == ExternalNumber.make(ZERO, Neutrix.osl(-1))
        assert got.rep.is_zero  # the representative 1 is absorbed

    def test_identity(self):
        alpha = en("2 + e + L(2)")
        assert alpha * en("1") == alpha


class TestCanonicalize:
    def test_absorbs_high_terms(self):
        got = ExternalNumber.make(parse_series("1 + e + e^2"), Neutrix.lim(1))
        assert got.rep == ONE
        assert got == ExternalNumber.make(got.rep, got.neutrix)  # idempotent

    def test_zero_neutrix_keeps_everything(self):
        x = parse_series("1 + e + e^2")
        assert ExternalNumber.make(x, Neutrix.zero()).rep == x

    def test_boundary_not_absorbed(self):
        got = ExternalNumber.make(EpsSeries.from_rational(5), OSLASH)
        assert got.rep == EpsSeries.from_rational(5)

    def test_constructor_refuses_absorbed_terms(self):
        with pytest.raises(ValueError):
            ExternalNumber(EPS, OSLASH)
        with pytest.raises(ValueError):
            ExternalNumber(parse_series("2 + e^(-1)"), POUND)
        assert ExternalNumber(ONE, OSLASH) == en("1 + osl")
        got = ExternalNumber.make(EPS, OSLASH)
        assert got == en("osl")
        assert relate(got, en("osl")) is SetRelation.EQUAL


class TestExternalFields:
    @pytest.mark.parametrize(
        "rep, neutrix",
        [
            (EpsSeries(), 5),
            (ONE, None),
            (ONE, Kind.LIM),
            (5, Neutrix.zero()),
            (((0, 1),), OSLASH),
        ],
    )
    def test_constructor_refuses_types(self, rep, neutrix):
        with pytest.raises(TypeError):
            ExternalNumber(rep, neutrix)

    @pytest.mark.parametrize("neutrix", [5, None, Kind.OSL, "osl"])
    def test_make_refuses_a_non_neutrix(self, neutrix):
        with pytest.raises(TypeError, match="is not a Neutrix"):
            ExternalNumber.make(1, neutrix)

    def test_float_series_refused_before_make(self):
        with pytest.raises(TypeError):
            ExternalNumber.make(EpsSeries(((0.5, 1.0),)), Neutrix.lim(2))

    def test_zero_group_is_shared(self):
        assert Neutrix.zero() is Neutrix.zero()
        assert ExternalNumber.make(ONE).neutrix is Neutrix.zero()
        assert n_scale(ZERO, POUND) is Neutrix.zero()
        assert n_mul(POUND, Neutrix.zero()) is Neutrix.zero()
        assert parse_external("osl").neutrix is OSLASH
        assert parse_external("lim").neutrix is POUND


class TestAgainstReference:
    """The cut and the truncated product equal the term-by-term reference."""

    @pytest.mark.parametrize("kind", [None, Kind.LIM, Kind.OSL])
    @given(series_values, exponents)
    def test_make(self, kind, rep, q):
        neutrix = Neutrix.zero() if kind is None else Neutrix(q, kind)
        assert ExternalNumber.make(rep, neutrix) == ref_make(rep, neutrix)

    @given(series_values, series_values, neutrices)
    def test_truncated_series_product(self, x, y, neutrix):
        expected = ref_make(ref_mul(x, y), neutrix).rep
        assert x.__mul__(y, neutrix.cut) == expected

    @given(externals, externals)
    def test_mul(self, a, b):
        assert a * b == ref_external_mul(a, b)


#: ``(a, b, a * b)``: products whose candidates ``a·B``, ``b·A`` and
#: ``A·B`` share an exponent with different kinds, where ``L`` wins, and
#: products where a zero representative or a zero neutrix on either side
#: drops its candidates.
PRODUCT_NEUTRICES = [
    # b·A = L(0) ties A·B = o(0); the zero representative of L(0) drops a·B
    ("1 + L(0)", "1 + o(0)", "L(0)"),
    ("L(0)", "1 + osl", "L(0)"),
    ("1 + osl", "L(0)", "L(0)"),
    # all three at exponent 1: a·B = L(1), b·A = o(1), A·B = o(1)
    ("1 + osl", "e + L(1)", "L(1)"),
    ("e + L(1)", "1 + osl", "L(1)"),
    # all three at exponent 0, all o
    ("1 + osl", "1 + osl", "1 + o(0)"),
    # a·B = L(0) ties b·A = o(0); A·B = o(1) is smaller
    ("e^(-1) + osl", "1 + L(1)", "e^(-1) + L(0)"),
    ("1 + L(1)", "e^(-1) + osl", "e^(-1) + L(0)"),
    # a zero representative: b·A = L(1) and A·B = o(1) only
    ("L(1)", "2 + osl", "L(1)"),
    ("2 + osl", "L(1)", "L(1)"),
    # both representatives zero: A·B alone
    ("osl", "L(1)", "o(1)"),
    # a zero neutrix: a·B alone
    ("2", "1 + osl", "2 + o(0)"),
    ("1 + osl", "2", "2 + o(0)"),
    ("e^(-1)", "2 + e + L(2)", "2*e^(-1) + 1 + L(1)"),
    # zero neutrices on both sides: no candidate
    ("1 + e", "2 - e", "2 + e - e^(2)"),
    ("0", "1 + osl", "0"),
    ("1 + osl", "0", "0"),
]


class TestProductNeutrix:
    """``a * b`` builds only the largest of ``a·B``, ``b·A`` and ``A·B``."""

    @pytest.mark.parametrize("a, b, want", PRODUCT_NEUTRICES)
    def test_winner(self, a, b, want):
        a, b = en(a), en(b)
        got = a * b
        assert str(got) == want
        assert got == ref_external_mul(a, b)
        assert got.neutrix == functools.reduce(
            n_max,
            (
                n_scale(a.rep, b.neutrix),
                n_scale(b.rep, a.neutrix),
                n_mul(a.neutrix, b.neutrix),
            ),
        )


class TestClassify:
    def test_appreciable(self):
        assert classify(en("2 + e + osl")) is Classification.APPRECIABLE

    def test_unlimited(self):
        assert classify(en("e^(-1) + lim")) is Classification.UNLIMITED

    def test_neutrix_only(self):
        alpha = en("osl")
        assert classify(alpha) is Classification.NEUTRIX_ONLY
        assert alpha.neutrix.kind is Kind.OSL
        assert OSLASH.includes(alpha.neutrix) and OSLASH.contains(alpha.rep)
        assert POUND.includes(alpha.neutrix) and POUND.contains(alpha.rep)

    def test_pound_mixes_classes(self):
        alpha = en("lim")
        assert classify(alpha) is Classification.NEUTRIX_ONLY
        assert not OSLASH.includes(alpha.neutrix)
        assert POUND.includes(alpha.neutrix) and POUND.contains(alpha.rep)

    def test_classification_matches_members(self):
        rng = random.Random(13)
        alpha = en("2 + osl")
        for member in en_samples(alpha, 50, rng):
            assert member.valuation == 0  # every member appreciable


class TestMembershipRule:
    """``Neutrix.includes`` and ``contains`` against ``POUND`` and ``OSLASH``
    decide whether every member of a set is limited or infinitesimal, as
    the valuation rule does."""

    @staticmethod
    def limited(alpha):
        return POUND.includes(alpha.neutrix) and POUND.contains(alpha.rep)

    @staticmethod
    def infinitesimal(alpha):
        return OSLASH.includes(alpha.neutrix) and OSLASH.contains(alpha.rep)

    @staticmethod
    def old_is_limited(alpha):
        if not POUND.includes(alpha.neutrix):
            return False
        return alpha.rep.is_zero or alpha.rep.valuation >= 0

    @staticmethod
    def old_is_infinitesimal(alpha):
        if not OSLASH.includes(alpha.neutrix):
            return False
        return alpha.rep.is_zero or alpha.rep.valuation > 0

    @given(externals)
    def test_drawn(self, alpha):
        assert self.limited(alpha) is self.old_is_limited(alpha)
        assert self.infinitesimal(alpha) is self.old_is_infinitesimal(alpha)

    @pytest.mark.parametrize(
        "text", ["0", "e", "1", "e^(-1)", "osl", "lim", "e + o(1)", "1 + L(1/2)", "L(-1)"]
    )
    def test_boundaries(self, text):
        alpha = en(text)
        assert self.limited(alpha) is self.old_is_limited(alpha)
        assert self.infinitesimal(alpha) is self.old_is_infinitesimal(alpha)


class TestRelate:
    def test_disjoint_less(self):
        assert relate(en("3 + osl"), en("4 + osl")) is SetRelation.DISJOINT_LESS

    def test_absorption_gives_equal(self):
        assert relate(en("e + osl"), en("osl")) is SetRelation.EQUAL

    def test_proper_subset(self):
        assert relate(en("osl"), en("lim")) is SetRelation.PROPER_SUB
        assert relate(en("lim"), en("osl")) is SetRelation.PROPER_SUP

    @given(externals, externals)
    def test_exactly_one_relation(self, a, b):
        rel = relate(a, b)
        flipped = relate(b, a)
        mirror = {
            SetRelation.EQUAL: SetRelation.EQUAL,
            SetRelation.PROPER_SUB: SetRelation.PROPER_SUP,
            SetRelation.PROPER_SUP: SetRelation.PROPER_SUB,
            SetRelation.DISJOINT_LESS: SetRelation.DISJOINT_GREATER,
            SetRelation.DISJOINT_GREATER: SetRelation.DISJOINT_LESS,
        }
        assert flipped is mirror[rel]


class TestDistributivity:
    def test_known_failure(self):
        ok, left, right = distributivity_holds(en("1 + osl"), en("1"), en("-1"))
        assert not ok
        assert left == en("0")
        assert right == en("osl")

    def test_field_case(self):
        ok, _, _ = distributivity_holds(en("2"), en("3 + e"), en("-1"))
        assert ok

    def test_eps_times_pound(self):
        ok, left, right = distributivity_holds(en("e"), en("lim"), en("lim"))
        assert ok
        assert left == ExternalNumber.make(ZERO, Neutrix.lim(1))

    @given(externals, externals, externals)
    @settings(max_examples=60)
    def test_subdistributive_inclusion(self, a, b, c):
        left = a * (b + c)
        right = a * b + a * c
        rng = random.Random(17)
        assert all(en_member(x, right) for x in en_samples(left, 10, rng))


class TestBinomial:
    def test_square(self):
        ok, left, right = binomial_check(en("1 + osl"), en("1 + osl"), 2)
        assert ok
        assert left == en("4 + osl")

    def test_annihilation(self):
        ok, _, _ = binomial_check(en("2 + e + L(1)"), en("0"), 5)
        assert ok

    def test_field_cross_check(self):
        ok, left, _ = binomial_check(en("e"), en("1"), 3)
        assert ok
        assert left == en("1 + 3*e + 3*e^2 + e^3")

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            binomial_check(en("1"), en("1"), 9)


class TestRegularity:
    @given(externals)
    def test_additive_regularity(self, alpha):
        assert alpha + (-alpha) + alpha == alpha

    def test_multiplicative_witness(self):
        for text in ("2 + osl", "e^(-1) + lim", "1 + e + L(3)", "5"):
            alpha = en(text)
            beta = regular_inverse(alpha)
            assert beta is not None
            assert alpha * beta * alpha == alpha

    def test_no_witness_is_reported_not_fabricated(self):
        # 1 + e has no finite-series inverse and a zero neutrix
        assert regular_inverse(en("1 + e")) is None

    @given(externals, externals)
    def test_no_zero_divisors(self, a, b):
        if (a * b).is_zero:
            assert a.is_zero or b.is_zero


class TestRegularInverseAgainstLoop:
    """Long division gives the geometric-series loop's result, None included."""

    @given(externals)
    @settings(max_examples=200)
    def test_hypothesis_inputs(self, alpha):
        assert regular_inverse(alpha) == ref_regular_inverse(alpha)

    @given(st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_drawn_inputs(self, seed):
        rng = random.Random(seed)
        for alpha in (rand_invertible_external(rng), rand_external(rng)):
            assert regular_inverse(alpha) == ref_regular_inverse(alpha)

    @pytest.mark.parametrize("w", [F(1, 2), F(1, 3), F(2, 5)])
    @pytest.mark.parametrize("steps", [47, 48, 49])
    @pytest.mark.parametrize("kind", [Kind.LIM, Kind.OSL])
    @pytest.mark.parametrize("v", [-1, F(1, 2)])
    def test_near_the_term_cap(self, w, steps, kind, v):
        # The loop's k-th partial sum misses 1/a by valuation -v + (k+1)*w,
        # so its last check (k = 47) passes iff the inverse neutrix, at
        # exponent v - 2v + steps*w, absorbs -v + 48*w: for L(.) up to 48
        # steps, for o(.) up to 47.  Past that both give None.
        rep = EpsSeries.from_terms([(v, 3), (v + w, F(-1, 2))])
        alpha = ExternalNumber.make(rep, Neutrix(v + steps * w, kind))
        got = regular_inverse(alpha)
        assert got == ref_regular_inverse(alpha)
        assert (got is None) == (steps > 48 or (steps == 48 and kind is Kind.OSL))

    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "L(1)",
            "1 + e",
            "e^(-1) + 2*e^(1/2)",
            "1 + e^(1/100) + L(1)",
            "1 + e^(1/100) + o(12/25)",
            "2 + e + e^(3/2) + o(3)",
        ],
    )
    def test_fixed_inputs(self, text):
        alpha = en(text)
        assert regular_inverse(alpha) == ref_regular_inverse(alpha)


class TestPowerBound:
    def test_at_the_bound(self):
        assert en("e") ** MAX_POWER == ExternalNumber.make(EpsSeries.monomial(MAX_POWER))

    def test_past_the_bound(self):
        with pytest.raises(BoundExceeded):
            en("1 + osl") ** (MAX_POWER + 1)


class TestNeutrixScaleProperties:
    @given(neutrices, st.integers(min_value=1, max_value=10**6))
    def test_integer_scale_identity(self, neutrix, n):
        scaled = n_scale(EpsSeries.from_rational(n), neutrix)
        assert scaled == neutrix or neutrix.is_zero

    @given(neutrices)
    def test_omega_scale_strict(self, neutrix):
        scaled = n_scale(OMEGA, neutrix)
        assert scaled.includes(neutrix)
        if not neutrix.is_zero:
            assert scaled != neutrix


class TestParsePrint:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("(2 + osl) * (3 + osl)", "6 + o(0)"),
            ("osl + osl", "o(0)"),
            ("3 * L(0)", "L(0)"),
            ("e + osl", "o(0)"),
            ("2 + L(1/2)", "2 + L(1/2)"),
            ("£", "L(0)"),
        ],
    )
    def test_str(self, text, expected):
        assert str(parse_external(text)) == expected

    @given(externals)
    def test_round_trip(self, alpha):
        assert parse_external(str(alpha)) == alpha

    @pytest.mark.parametrize(
        "text, position", [("1/0", 0), ("L(1/0)", 2), ("osl + e^(1/0)", 9)]
    )
    def test_zero_denominator(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_external(text)
        assert info.value.position == position


#: The private constructors that build values without the check, and the
#: checking public constructor each one stands in for.
TRUSTED = {"_series": EpsSeries, "_neutrix": Neutrix, "_external": ExternalNumber}
#: The modules allowed to build values through the trusted constructors.
TRUSTED_MODULES = ("series", "neutrix", "laws", "sampling")

EXPRESSIONS = [
    "(2 + osl) * (3 + osl)",
    "(1 + e^(1/2) + L(2)) * (e^(-1) - 3*e + o(1)) - 2",
    "-(e^(-2) + 5*e^(1/3) + o(1/2)) * (e + £)",
    "(1 + osl) * (1 + -1) - (1 + osl) * 1",
    "(e^(-1) + 7/3 + e^3) * (e^(-1) + 7/3 + e^3) * L(5)",
]


def _law_outcomes():
    return [run_law_suite(seed, 20) for seed in range(40)]


def _parsed_values():
    values = [parse_external(text) for text in EXPRESSIONS]
    values.append(regular_inverse(parse_external("2 - e + e^2 + o(3)")))
    return [repr(value) for value in values]


def _check_trusted(monkeypatch):
    """Make every trusted constructor check; returns its call counts."""
    calls = dict.fromkeys(TRUSTED, 0)

    def counting(name):
        build = TRUSTED[name]

        def checked_build(*args):
            calls[name] += 1
            return build(*args)

        return checked_build

    for module_name in TRUSTED_MODULES:
        module = importlib.import_module(f"soritica.{module_name}")
        for name in TRUSTED:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name))
    return calls


class TestTrustedConstructors:
    """With every trusted constructor checking, nothing changes or fails.

    The arithmetic builds its results through ``_series``, ``_neutrix``
    and ``_external``, which skip the checks of the public constructors.
    Here each is replaced by the public constructor in every module that
    uses it, so a non-canonical value anywhere on those paths raises.
    """

    def test_law_suites(self, monkeypatch):
        want = _law_outcomes()
        calls = _check_trusted(monkeypatch)
        assert _law_outcomes() == want
        assert all(calls.values()), calls

    def test_laws_golden(self, monkeypatch, capsys):
        calls = _check_trusted(monkeypatch)
        assert main(["laws", "--seed", "42", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (GOLDEN / "laws_seed42_n1000.txt").read_bytes()
        assert all(calls.values()), calls

    def test_parsed_expressions(self, monkeypatch):
        want = _parsed_values()
        calls = _check_trusted(monkeypatch)
        assert _parsed_values() == want
        assert all(calls.values()), calls

    def test_used_only_by_the_number_core(self):
        fields = ("id", "attr", "name", "asname")
        users = set()
        for path in Path(soritica.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if TRUSTED.keys() & {getattr(node, field, None) for field in fields}:
                    users.add(path.stem)
        assert users <= set(TRUSTED_MODULES)
        assert {"series", "neutrix", "laws"} <= users
