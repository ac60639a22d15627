"""Membership-sampling oracle for external-number identities.

External sets are not finitely enumerable, so set-level claims are
checked by drawing concrete series members of each side and testing
membership in the other.  The oracle is independent of the canonical
arithmetic: membership only uses valuations of differences.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional

from .neutrix import ExternalNumber, Kind, Neutrix
from .series import EpsSeries

__all__ = [
    "neutrix_samples",
    "en_member",
    "en_samples",
    "mutual_membership_check",
    "strict_subset_witness",
]


def _rand_coeff(rng: random.Random, allow_zero: bool = True) -> Fraction:
    num = rng.randint(-9, 9)
    if not allow_zero and num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 9))


def neutrix_samples(
    neutrix: Neutrix, count: int, rng: random.Random
) -> List[EpsSeries]:
    """Concrete members of the group, biased toward boundary exponents."""
    if neutrix.is_zero:
        return [EpsSeries()] * count
    q = neutrix.exponent
    samples = []
    for _ in range(count):
        if neutrix.kind is Kind.LIM:
            exp = q
        else:
            exp = q + Fraction(rng.randint(1, 4), rng.randint(1, 3))
        sample = EpsSeries.monomial(exp, _rand_coeff(rng))
        if rng.random() < 0.4:
            sample = sample + EpsSeries.monomial(
                exp + Fraction(rng.randint(1, 3)), _rand_coeff(rng)
            )
        samples.append(sample)
    return samples


def en_member(x: EpsSeries, alpha: ExternalNumber) -> bool:
    """Membership of a concrete series in the external set a + A."""
    return alpha.neutrix.contains(x - alpha.rep)


def en_samples(
    alpha: ExternalNumber, count: int, rng: random.Random
) -> List[EpsSeries]:
    return [alpha.rep + s for s in neutrix_samples(alpha.neutrix, count, rng)]


def mutual_membership_check(
    left: ExternalNumber,
    right: ExternalNumber,
    rng: random.Random,
    count: int = 50,
) -> bool:
    """Samples of each side must be members of the other."""
    return all(
        en_member(x, right) for x in en_samples(left, count, rng)
    ) and all(en_member(x, left) for x in en_samples(right, count, rng))


def strict_subset_witness(
    small: Neutrix, large: Neutrix
) -> Optional[EpsSeries]:
    """A member of the large group outside the small one, if representable."""
    if not large.strictly_includes(small):
        return None
    if large.kind is Kind.LIM:
        witness = EpsSeries.monomial(large.exponent)
        if not small.contains(witness):
            return witness
    if small.is_zero:
        return EpsSeries.monomial(large.exponent + 1)
    # large is o(qL) with small at a strictly bigger exponent qS: pick the
    # midpoint exponent, inside o(qL) but below the small group.
    mid = (large.exponent + small.exponent) / 2
    witness = EpsSeries.monomial(mid)
    if large.contains(witness) and not small.contains(witness):
        return witness
    return None

