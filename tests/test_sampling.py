import random

from hypothesis import given, settings, strategies as st

from soritica.neutrix import ExternalNumber, Kind, Neutrix
from soritica.sampling import (
    en_samples,
    mutual_membership_check,
    neutrix_samples,
    samples_within,
)
from soritica.series import EpsSeries

from reference_sampling import (
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
    @given(pairs, seeds, st.sampled_from((1, 10, 50)))
    @settings(max_examples=200)
    def test_samples_within_matches_oracle(self, pair, seed, count):
        left, right = pair
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = samples_within(left, right, rng, count)
        assert got == ref_samples_within(left, right, ref_rng, count)
        assert rng.getstate() == ref_rng.getstate()

    @given(pairs, seeds)
    @settings(max_examples=200)
    def test_mutual_check_matches_oracle(self, pair, seed):
        left, right = pair
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = mutual_membership_check(left, right, rng)
        assert got == ref_mutual_membership_check(left, right, ref_rng)
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
