import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from soritica import sampling
from soritica.neutrix import ExternalNumber, Kind, Neutrix, n_max
from soritica.sampling import (
    en_samples,
    mutual_membership_check,
    neutrix_samples,
    samples_within,
)
from soritica.series import EpsSeries

from reference_sampling import (
    _below,
    _entry,
    old_absorbed,
    ref_en_samples,
    ref_mutual_membership_check,
    ref_neutrix_samples,
    ref_samples_within,
)

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


def _shifted(alpha, shift):
    """alpha with its representative moved by ``shift``: a nonzero gap."""
    return ExternalNumber.make(alpha.rep + shift, alpha.neutrix)


#: Pairs of external numbers: arbitrary, equal, the two orders of a
#: product, the two sides of subdistributivity, and a shifted copy.
pairs = st.one_of(
    st.tuples(externals, externals),
    externals.map(lambda a: (a, a)),
    st.tuples(externals, externals).map(lambda ab: (ab[0] * ab[1], ab[1] * ab[0])),
    st.tuples(externals, externals, externals).map(
        lambda abc: (abc[0] * (abc[1] + abc[2]), abc[0] * abc[1] + abc[0] * abc[2])
    ),
    st.tuples(externals, series_values).map(lambda p: (p[0], _shifted(*p))),
)
seeds = st.integers(min_value=0, max_value=2**32)


def _absorbed(left, right):
    """Whether ``samples_within`` skips sampling.

    It does when ``right``'s neutrix includes ``left``'s, so that each
    member of ``left`` is in ``right`` iff ``left.rep`` is.
    """
    return right.neutrix.includes(left.neutrix)


def _reference_within(left, right, ref_rng, count=50):
    """The reference verdict, advancing ``ref_rng`` as ``samples_within`` does.

    An absorbed call draws nothing, so its verdict is taken on a copy of
    ``ref_rng``; any other call draws what the reference draws.
    """
    if _absorbed(left, right):
        ref_rng = copy.copy(ref_rng)
    return ref_samples_within(left, right, ref_rng, count)


class TestDrawHelper:
    def test_below_matches_choice_and_randint(self):
        # Every table length the samplers and the law suite draw from, and
        # the two ``randint`` ranges they replace; a change to how
        # ``random`` turns ``getrandbits`` into an index fails here first.
        for seed in range(500):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(5):
                for n in (3, 4, 7, 9, 19):
                    assert _below(rng.getrandbits, n) == ref_rng.choice(range(n))
                assert _below(rng.getrandbits, 4) == ref_rng.randint(0, 3)
                assert 1 + _below(rng.getrandbits, 3) == ref_rng.randint(1, 3)
            assert rng.getstate() == ref_rng.getstate()

    def test_entry_is_a_row_then_an_entry(self):
        table = tuple(tuple(range(10 * row, 10 * row + 3)) for row in range(7))
        for seed in range(200):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(5):
                got = _entry(rng.getrandbits, table)
                assert got == ref_rng.choice(ref_rng.choice(table))
            assert rng.getstate() == ref_rng.getstate()


class TestSamples:
    @given(neutrices, st.integers(min_value=0, max_value=60), seeds)
    def test_neutrix_samples_match_reference_draw(self, neutrix, count, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = neutrix_samples(neutrix, count, rng)
        assert got == ref_neutrix_samples(neutrix, count, ref_rng)
        assert rng.getstate() == ref_rng.getstate()

    @given(externals, seeds)
    def test_en_samples_match_reference_draw(self, alpha, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert en_samples(alpha, 20, rng) == ref_en_samples(alpha, 20, ref_rng)
        assert rng.getstate() == ref_rng.getstate()


class TestOneDifferencePerSide:
    @given(pairs, seeds, st.sampled_from((0, 1, 10, 50)))
    @settings(max_examples=200)
    def test_samples_within_matches_oracle(self, pair, seed, count):
        left, right = pair
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = samples_within(left, right, rng, count)
        assert got == _reference_within(left, right, ref_rng, count)
        assert rng.getstate() == ref_rng.getstate()

    @given(pairs, seeds)
    @settings(max_examples=200)
    def test_mutual_check_matches_oracle(self, pair, seed):
        # The reference generator advances for the sides that are not
        # absorbed, in order, and not at all for the second side once the
        # first has failed.
        left, right = pair
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = mutual_membership_check(left, right, rng)
        want = _reference_within(left, right, ref_rng) and _reference_within(
            right, left, ref_rng
        )
        assert got == want
        if not (_absorbed(left, right) or _absorbed(right, left)):
            assert got == ref_mutual_membership_check(left, right, random.Random(seed))
        assert rng.getstate() == ref_rng.getstate()

    def test_one_way_inclusion(self):
        smaller = ExternalNumber.make(EpsSeries(), Neutrix.osl(1))
        larger = ExternalNumber.make(EpsSeries(), Neutrix.osl(0))
        rng = random.Random(11)
        assert samples_within(smaller, larger, rng)
        assert not samples_within(larger, smaller, rng)
        assert not mutual_membership_check(smaller, larger, rng)

    def test_samples_that_cancel_the_gap(self):
        # 1 + o(0) holds exactly the samples of L(0) whose constant term
        # is 1: there the sample cancels the difference of the
        # representatives, and its sign decides the verdict.
        left = ExternalNumber.make(EpsSeries(), Neutrix.lim(0))
        right = ExternalNumber.make(EpsSeries.from_rational(1), Neutrix.osl(0))
        verdicts = set()
        for seed in range(300):
            got = samples_within(left, right, random.Random(seed), 1)
            assert got == ref_samples_within(left, right, random.Random(seed), 1)
            verdicts.add(got)
        assert verdicts == {True, False}

    @given(series_values, externals, seeds, st.sampled_from((0, 1, 50)))
    def test_zero_neutrix_left_draws_nothing(self, rep, right, seed, count):
        # The zero group's one sample is 0: left is a single series, in
        # right or not, and no sample draws from ``rng``.
        left = ExternalNumber.make(rep)
        for target in (right, ExternalNumber.make(rep + right.rep, right.neutrix)):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = samples_within(left, target, rng, count)
            assert got == ref_samples_within(left, target, ref_rng, count)
            assert rng.getstate() == ref_rng.getstate() == random.Random(seed).getstate()

    def test_two_term_target(self):
        # Right is built around the first sample a seed draws from o(0).
        # With the open cut o(e2) at the sample's second exponent, want,
        # the gap truncated at that cut, has both of the sample's terms,
        # so only a sample matching both is a member: a right side whose
        # first or second coefficient differs by 1 holds no sample of that
        # seed.  The closed cut L(e2) absorbs the second term instead.
        left = ExternalNumber.make(EpsSeries.from_terms([(0, 3), (-1, 2)]), Neutrix.osl(0))
        verdicts = []
        for seed in range(100):
            (sample,) = ref_neutrix_samples(left.neutrix, 1, random.Random(seed))
            if len(sample.terms) != 2:
                continue
            (e1, c1), (e2, c2) = sample.terms
            for neutrix in (Neutrix.osl(e2), Neutrix.lim(e2)):
                for d1, d2 in ((0, 0), (1, 0), (0, 1)):
                    shifted = EpsSeries.from_terms([(e1, c1 + d1), (e2, c2 + d2)])
                    right = ExternalNumber.make(left.rep + shifted, neutrix)
                    rng, ref_rng = random.Random(seed), random.Random(seed)
                    got = samples_within(left, right, rng, 1)
                    assert got == ref_samples_within(left, right, ref_rng, 1)
                    assert rng.getstate() == ref_rng.getstate()
                    assert got == (d1 == 0 and (d2 == 0 or neutrix.kind is Kind.LIM))
                    verdicts.append(got)
        assert verdicts.count(True) >= 10


def _same_as_reference(left, right, seed, count):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = samples_within(left, right, rng, count)
    assert got == _reference_within(left, right, ref_rng, count)
    assert rng.getstate() == ref_rng.getstate()
    return got


class TestAbsorbedSamples:
    """Cases where the cut absorbs every sample, and cases next to them.

    Where ``right``'s neutrix includes ``left``'s, ``samples_within``
    builds no sample and draws nothing; each case is checked against the
    rebuilt members of the reference.
    """

    Q = Fraction(1, 2)

    def test_zero_count_is_vacuous_with_a_nonzero_target(self):
        left = ExternalNumber.make(EpsSeries(), Neutrix.lim(2))
        right = ExternalNumber.make(EpsSeries.from_rational(1), Neutrix.lim(1))
        for seed in range(5):
            assert _same_as_reference(left, right, seed, 0) is True
            assert not _same_as_reference(left, right, seed, 3)
        zero_left = ExternalNumber.make(EpsSeries.from_rational(2))
        assert _same_as_reference(zero_left, right, 0, 0) is True

    def test_zero_left_neutrix(self):
        right = ExternalNumber.make(EpsSeries(), Neutrix.osl(0))
        inside = ExternalNumber.make(EpsSeries.monomial(1, 5))
        outside = ExternalNumber.make(EpsSeries.from_rational(5))
        for seed in range(5):
            assert _same_as_reference(inside, right, seed, 50)
            assert not _same_as_reference(outside, right, seed, 50)

    def test_zero_right_neutrix_has_no_cut(self):
        # Without a cut nothing is absorbed: a sample lies in the single
        # series only when it matches the gap term for term.
        left = ExternalNumber.make(EpsSeries(), Neutrix.lim(self.Q))
        for rep in (EpsSeries(), EpsSeries.monomial(self.Q, 1)):
            right = ExternalNumber.make(rep)
            verdicts = {_same_as_reference(left, right, seed, 1) for seed in range(200)}
            assert verdicts == {True, False}
            assert not _same_as_reference(left, right, 0, 50)

    def test_osl_least_exponent_on_a_closed_cut(self):
        # o(q) samples start at q + 1/3, which L(q + 1/3) absorbs, but
        # L(q + 1/3) does not include o(q): the call draws, and since every
        # sample is absorbed the verdict is that of the representatives.
        left = ExternalNumber.make(EpsSeries(), Neutrix.osl(self.Q))
        right = ExternalNumber.make(EpsSeries(), Neutrix.lim(self.Q + Fraction(1, 3)))
        assert old_absorbed(left, right) and not _absorbed(left, right)
        for seed in range(20):
            assert _same_as_reference(left, right, seed, 50)
            rng = random.Random(seed)
            samples_within(left, right, rng, 50)
            assert rng.getstate() != random.Random(seed).getstate()
        shifted = ExternalNumber.make(EpsSeries.monomial(0, 1), right.neutrix)
        assert not _same_as_reference(left, shifted, 0, 50)

    def test_osl_least_exponent_on_an_open_cut(self):
        # o(q + 1/3) keeps q + 1/3, so a sample there is not absorbed.
        left = ExternalNumber.make(EpsSeries(), Neutrix.osl(self.Q))
        right = ExternalNumber.make(EpsSeries(), Neutrix.osl(self.Q + Fraction(1, 3)))
        verdicts = {_same_as_reference(left, right, seed, 1) for seed in range(300)}
        assert verdicts == {True, False}
        assert not _same_as_reference(left, right, 0, 50)

    def test_absorbed_cases_build_no_sample(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a sample was built")

        monkeypatch.setattr(sampling, "neutrix_samples", refuse)
        q = self.Q
        for a, b in (
            (Neutrix.zero(), Neutrix.osl(q)),
            (Neutrix.lim(q), Neutrix.lim(q)),
            (Neutrix.osl(q), Neutrix.osl(q)),
            (Neutrix.lim(q + 1), Neutrix.osl(q)),
        ):
            left = ExternalNumber.make(EpsSeries(), a)
            right = ExternalNumber.make(EpsSeries(), b)
            assert _same_as_reference(left, right, 1, 50)
        # L(q + 1/3) absorbs every o(q) sample but does not include o(q),
        # so that call builds its samples.
        left = ExternalNumber.make(EpsSeries(), Neutrix.osl(q))
        right = ExternalNumber.make(EpsSeries(), Neutrix.lim(q + Fraction(1, 3)))
        with pytest.raises(AssertionError, match="a sample was built"):
            samples_within(left, right, random.Random(1), 50)

    def test_lim_against_osl_at_the_same_exponent(self):
        # o(q) keeps the exponent q of every L(q) sample's first term.
        left = ExternalNumber.make(EpsSeries(), Neutrix.lim(self.Q))
        right = ExternalNumber.make(EpsSeries(), Neutrix.osl(self.Q))
        verdicts = {_same_as_reference(left, right, seed, 1) for seed in range(300)}
        assert verdicts == {True, False}
        assert _same_as_reference(right, left, 0, 50)

    @given(pairs, seeds, st.sampled_from((0, 1, 50)))
    def test_absorbed_verdict_and_rng(self, pair, seed, count):
        # Widening right's neutrix to include left's makes every call
        # absorbed: the verdict is the representatives' and nothing is drawn.
        left, right = pair
        right = ExternalNumber.make(right.rep, n_max(left.neutrix, right.neutrix))
        rng = random.Random(seed)
        got = samples_within(left, right, rng, count)
        assert got is (count == 0 or right.neutrix.contains(left.rep - right.rep))
        assert rng.getstate() == random.Random(seed).getstate()


def _old_verdict(left, right, seed, count):
    """The verdict ``samples_within`` gave under :func:`old_absorbed`."""
    if old_absorbed(left, right):
        return count == 0 or right.neutrix.contains(left.rep - right.rep)
    return ref_samples_within(left, right, random.Random(seed), count)


@st.composite
def near_pairs(draw):
    """A left side and a right side whose cut is within one power of its own."""
    left = draw(externals)
    q = draw(exponents) if left.neutrix.is_zero else left.neutrix.exponent
    offset = draw(st.fractions(min_value=-1, max_value=1, max_denominator=12))
    cut = Neutrix(q + offset, draw(st.sampled_from((Kind.LIM, Kind.OSL))))
    rep = draw(st.one_of(st.just(left.rep), series_values.map(left.rep.__add__)))
    return left, ExternalNumber.make(rep, cut)


class TestOldAbsorbedRule:
    """Inclusion skips fewer calls than the old rule, with the same verdicts.

    A call the old rule skipped and inclusion does not, such as ``o(q)``
    against ``L(q + 1/3)``, now draws; every sample it draws is absorbed.
    """

    @given(st.one_of(pairs, near_pairs()), seeds, st.sampled_from((0, 1, 50)))
    @settings(max_examples=300)
    def test_drawn_pairs(self, pair, seed, count):
        left, right = pair
        assert old_absorbed(left, right) or not _absorbed(left, right)
        got = samples_within(left, right, random.Random(seed), count)
        assert got == _old_verdict(left, right, seed, count)

    def test_offsets_within_a_third(self):
        # Cuts from q - 1/3 to q + 1/2 in twelfths, each with the gap 0, a
        # term at q and a term at the cut.
        q = Fraction(1, 2)
        for left_kind in (Kind.LIM, Kind.OSL):
            left = ExternalNumber.make(EpsSeries.monomial(-1, 2), Neutrix(q, left_kind))
            for offset in (Fraction(k, 12) for k in range(-4, 7)):
                gaps = (EpsSeries(), EpsSeries.monomial(q), EpsSeries.monomial(q + offset))
                for kind in (Kind.LIM, Kind.OSL):
                    cut = Neutrix(q + offset, kind)
                    for gap in gaps:
                        right = ExternalNumber.make(left.rep + gap, cut)
                        for seed in range(5):
                            got = samples_within(left, right, random.Random(seed), 20)
                            assert got == _old_verdict(left, right, seed, 20)


_OSL = ExternalNumber.make(EpsSeries(), Neutrix.osl(0))
_LIM = ExternalNumber.make(EpsSeries(), Neutrix.lim(0))


class TestNegativeCount:
    @pytest.mark.parametrize(
        "call",
        [
            lambda rng: samples_within(_OSL, _LIM, rng, -1),
            lambda rng: samples_within(_LIM, _OSL, rng, -1),
            lambda rng: neutrix_samples(Neutrix.lim(0), -1, rng),
            lambda rng: neutrix_samples(Neutrix.zero(), -1, rng),
            lambda rng: en_samples(_OSL, -1, rng),
            lambda rng: mutual_membership_check(_OSL, _LIM, rng, -1),
        ],
    )
    def test_refused_before_any_draw(self, call):
        rng = random.Random(3)
        with pytest.raises(ValueError, match="sample count must be >= 0, got -1"):
            call(rng)
        assert rng.getstate() == random.Random(3).getstate()
