"""The law suite: table-drawn generators, laws as data, shrinking."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from soritica import laws
from soritica.neutrix import ExternalNumber, Neutrix, parse_external
from soritica.series import rational

from reference_laws import (
    ref_law_draws,
    ref_rand_external,
    ref_rand_invertible_external,
    ref_rand_neutrix,
    ref_rand_series,
    ref_rand_terms,
)

seeds = st.integers(min_value=0, max_value=2**32)


class TestGeneratorsAgainstReference:
    """Same values and the same ``rng`` state as the Fraction-built draws.

    Series and external numbers compare term by term (their term tuples),
    and ``int`` terms equal the reference's integral ``Fraction`` terms.
    """

    @given(seeds)
    @settings(max_examples=300)
    def test_generators(self, seed):
        for draw, ref_draw in (
            (laws.rand_series, ref_rand_series),
            (laws.rand_neutrix, ref_rand_neutrix),
            (laws.rand_external, ref_rand_external),
            (laws.rand_invertible_external, ref_rand_invertible_external),
        ):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(4):
                got, want = draw(rng), ref_draw(ref_rng)
                assert got == want
                assert str(got) == str(want)
            assert rng.getstate() == ref_rng.getstate()

    @given(seeds)
    @settings(max_examples=100)
    def test_law_draws(self, seed):
        for law in laws.LAWS:
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert law.draw(rng) == ref_law_draws[law.name](ref_rng)
            assert rng.getstate() == ref_rng.getstate()

    def test_every_law_has_a_reference_draw(self):
        assert laws.LAW_NAMES == list(ref_law_draws)


def _shared(terms):
    """The drawn coefficients of each exponent drawn more than once."""
    by_exponent = {}
    for exponent, coeff in terms:
        by_exponent.setdefault(exponent, []).append(coeff)
    return [coeffs for coeffs in by_exponent.values() if len(coeffs) > 1]


#: The merge edge cases of ``rand_series``, as predicates on the terms one
#: series draws, in the order drawn.
MERGE_CASES = {
    "shared_exponent_cancels": lambda terms: any(
        all(coeffs) and sum(coeffs) == 0 for coeffs in _shared(terms)
    ),
    "shared_exponent_sums": lambda terms: any(
        all(coeffs) and sum(coeffs) != 0 for coeffs in _shared(terms)
    ),
    "shared_fractions_sum_to_an_integer": lambda terms: any(
        sum(coeffs).denominator == 1 and any(c.denominator > 1 for c in coeffs)
        for coeffs in _shared(terms)
    ),
    "zero_coefficient": lambda terms: any(coeff == 0 for _, coeff in terms),
    "empty": lambda terms: not terms,
}


def _term_types(series):
    return [(type(exponent), type(coeff)) for exponent, coeff in series.terms]


def _first_seed(case):
    """The least seed in 0..999 whose first series draws ``case``."""
    for seed in range(1000):
        if MERGE_CASES[case](ref_rand_terms(random.Random(seed))):
            return seed
    raise AssertionError(f"no seed in 0..999 draws {case}")


class TestSeriesMerge:
    """``rand_series`` sorts, sums and drops terms as ``from_terms`` does."""

    @pytest.mark.parametrize("case", MERGE_CASES)
    def test_edge_case_matches_reference(self, case):
        seed = _first_seed(case)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got, want = laws.rand_series(rng), ref_rand_series(ref_rng)
        assert got.terms == want.terms
        assert str(got) == str(want)
        assert rng.getstate() == ref_rng.getstate()
        # Each value is in the form ``rational`` gives, as in ``from_terms``.
        assert _term_types(got) == _term_types(want)


def _zero_product(a, b):
    return ExternalNumber.make(0)


#: Law name to ``(owner, attribute, mutant)``: ``mutant(original)`` replaces
#: ``owner.attribute`` with an operation that breaks that law.
MUTANTS = {
    # a + b keeps only the left operand's neutrix
    "add_commutative": (
        ExternalNumber,
        "__add__",
        lambda add: lambda a, b: ExternalNumber.make(add(a, b).rep, a.neutrix),
    ),
    # a + b gains 1 when a's representative is zero
    "add_associative": (
        ExternalNumber,
        "__add__",
        lambda add: lambda a, b: (
            add(add(a, b), ExternalNumber.make(1)) if a.rep.is_zero else add(a, b)
        ),
    ),
    # -a is a
    "add_regular": (ExternalNumber, "__neg__", lambda neg: lambda a: a),
    # a * b is a * a
    "mul_commutative": (ExternalNumber, "__mul__", lambda mul: lambda a, b: mul(a, a)),
    "mul_associative": (ExternalNumber, "__mul__", lambda mul: lambda a, b: mul(a, a)),
    # no inverse is ever found
    "mul_regular": (laws, "regular_inverse", lambda inverse: lambda a: None),
    # every product is zero
    "no_zero_divisors": (ExternalNumber, "__mul__", lambda mul: _zero_product),
    # scaling collapses every group
    "appreciable_scale_identity": (
        laws,
        "n_scale",
        lambda scale: lambda a, n: Neutrix.zero(),
    ),
    "integer_scale_identity": (
        laws,
        "n_scale",
        lambda scale: lambda a, n: Neutrix.zero(),
    ),
    # no witness of strict inclusion is found
    "omega_scale_strict": (
        laws,
        "strict_subset_witness",
        lambda witness: lambda small, large: None,
    ),
    # samples of the left side are tested against the negated right side
    "subdistributive_sampling": (
        laws,
        "samples_within",
        lambda within: lambda left, right, rng, count: within(
            left, -right, rng, count
        ),
    ),
}


def _parse_instance(name, text):
    """The instance a counterexample text prints."""
    parts = text.split(", ")
    if name in ("appreciable_scale_identity", "integer_scale_identity"):
        return rational(Fraction(parts[0])), parse_external(parts[1]).neutrix
    if name == "omega_scale_strict":
        return (parse_external(parts[0]).neutrix,)
    return tuple(parse_external(part) for part in parts)


class TestShrinking:
    def test_every_law_has_a_mutant(self):
        assert sorted(MUTANTS) == sorted(laws.LAW_NAMES)

    @pytest.mark.parametrize("name", laws.LAW_NAMES)
    def test_mutant_gives_shrunk_counterexample(self, name, monkeypatch):
        owner, attribute, mutant = MUTANTS[name]
        monkeypatch.setattr(owner, attribute, mutant(getattr(owner, attribute)))
        seed = 3
        (result,) = [r for r in laws.run_law_suite(seed, 50) if r.name == name]
        assert not result.passed
        law = laws.LAWS[laws.LAW_NAMES.index(name)]
        fresh = lambda: random.Random(f"{seed}:{name}")
        instance = _parse_instance(name, result.counterexample)
        assert ", ".join(str(x) for x in instance) == result.counterexample
        assert not law.check(instance, fresh())
        # Shrunk: no one-step smaller instance still fails.
        for i, value in enumerate(instance):
            for smaller in laws._shrink_value(value):
                candidate = instance[:i] + (smaller,) + instance[i + 1 :]
                assert law.check(candidate, fresh()), candidate

    def test_mul_regular_shrinks_inside_the_law(self, monkeypatch):
        # Every drawn element fails when no inverse is found; shrinking
        # stops at a monomial with a zero neutrix, the smallest element the
        # law covers, not at a neutrix-only element outside it.
        monkeypatch.setattr(laws, "regular_inverse", lambda a: None)
        (result,) = [r for r in laws.run_law_suite(3, 50) if r.name == "mul_regular"]
        (alpha,) = _parse_instance("mul_regular", result.counterexample)
        assert alpha.neutrix.is_zero and len(alpha.rep.terms) == 1
