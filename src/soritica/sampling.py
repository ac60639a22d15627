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
from .series import EpsSeries, Rational, rational

__all__ = [
    "neutrix_samples",
    "en_member",
    "en_samples",
    "samples_within",
    "mutual_membership_check",
    "strict_subset_witness",
]


#: ``_COEFFICIENTS[n + 9][d - 1] == n/d``: the sample coefficients, drawn
#: as ``rng.choice(rng.choice(_COEFFICIENTS))``, which makes the same
#: ``rng`` calls as ``n = randint(-9, 9)`` then ``d = randint(1, 9)``.
_COEFFICIENTS = tuple(
    tuple(rational(Fraction(n, d)) for d in range(1, 10))
    for n in range(-9, 10)
)
#: ``_OFFSETS[a - 1][b - 1] == a/b``: how far above ``q`` an ``o(q)``
#: sample starts, drawn as ``a = randint(1, 4)`` then ``b = randint(1, 3)``.
_OFFSETS = tuple(
    tuple(rational(Fraction(a, b)) for b in range(1, 4)) for a in range(1, 5)
)


def _rand_coeff(rng: random.Random) -> Rational:
    return rng.choice(rng.choice(_COEFFICIENTS))


def neutrix_samples(
    neutrix: Neutrix, count: int, rng: random.Random
) -> List[EpsSeries]:
    """Concrete members of the group, biased toward boundary exponents.

    Each sample is one term at the group's exponent (``L(q)``) or just
    above it (``o(q)``), plus, four times in ten, a second term one to
    three powers of ``e`` higher; zero coefficients are dropped.
    """
    if neutrix.is_zero:
        return [EpsSeries()] * count
    q = neutrix.exponent
    samples = []
    for _ in range(count):
        if neutrix.kind is Kind.LIM:
            exp = q
        else:
            exp = rational(q + rng.choice(rng.choice(_OFFSETS)))
        first = (exp, _rand_coeff(rng))
        terms = (first,) if first[1] else ()
        if rng.random() < 0.4:
            second = (exp + rng.randint(1, 3), _rand_coeff(rng))
            if second[1]:
                terms += (second,)
        samples.append(EpsSeries(terms))
    return samples


def en_member(x: EpsSeries, alpha: ExternalNumber) -> bool:
    """Membership of a concrete series in the external set a + A."""
    return alpha.neutrix.contains(x - alpha.rep)


def en_samples(
    alpha: ExternalNumber, count: int, rng: random.Random
) -> List[EpsSeries]:
    return [alpha.rep + s for s in neutrix_samples(alpha.neutrix, count, rng)]


def samples_within(
    left: ExternalNumber,
    right: ExternalNumber,
    rng: random.Random,
    count: int = 50,
) -> bool:
    """Whether ``count`` sampled members of ``left`` all lie in ``right``.

    A member ``left.rep + s`` lies in ``right`` iff ``right.neutrix``
    contains ``(left.rep + s) - right.rep``, which is exactly
    ``s + gap`` for the one difference ``gap = left.rep - right.rep``.
    The verdict and the draws from ``rng`` are those of testing
    :func:`en_member` on each of :func:`en_samples`.
    """
    gap = left.rep - right.rep
    return all(
        right.neutrix.contains(s + gap)
        for s in neutrix_samples(left.neutrix, count, rng)
    )


def mutual_membership_check(
    left: ExternalNumber,
    right: ExternalNumber,
    rng: random.Random,
    count: int = 50,
) -> bool:
    """Samples of each side must be members of the other."""
    return samples_within(left, right, rng, count) and samples_within(
        right, left, rng, count
    )


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
    mid = Fraction(large.exponent + small.exponent, 2)
    witness = EpsSeries.monomial(mid)
    if large.contains(witness) and not small.contains(witness):
        return witness
    return None

