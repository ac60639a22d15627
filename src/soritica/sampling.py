"""Membership-sampling oracle for external-number identities.

External sets are not finitely enumerable, so set-level claims are
checked by drawing concrete series members of each side and testing
membership in the other.  The oracle is independent of the canonical
arithmetic: membership only uses truncations of differences at a cut.
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
    "samples_within",
    "mutual_membership_check",
    "strict_subset_witness",
]


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")


def neutrix_samples(
    neutrix: Neutrix, count: int, rng: random.Random
) -> List[EpsSeries]:
    """Concrete members of the group, biased toward boundary exponents.

    Each sample is one term at the group's exponent (``L(q)``) or just
    above it (``o(q)``), plus, four times in ten, a second term one to
    three powers of ``e`` higher; zero coefficients are dropped.  The
    draws per sample, in order: the ``o(q)`` offset, the first
    coefficient, the four-in-ten roll, then the step and coefficient of
    the second term.  The zero group has one sample, 0, and draws
    nothing.  A negative ``count`` is a ``ValueError``.
    """
    _check_count(count)
    if neutrix.is_zero:
        return [EpsSeries()] * count
    q, osl = neutrix.exponent, neutrix.kind is Kind.OSL
    samples = []
    for _ in range(count):
        exponent = q + Fraction(rng.randint(1, 4), rng.randint(1, 3)) if osl else q
        terms = [(exponent, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))]
        if rng.random() < 0.4:
            step = rng.randint(1, 3)
            coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            terms.append((exponent + step, coeff))
        samples.append(EpsSeries.from_terms(terms))
    return samples


def en_member(x: EpsSeries, alpha: ExternalNumber) -> bool:
    """Membership of a concrete series in the external set a + A."""
    return alpha.neutrix.contains(x - alpha.rep)


def en_samples(
    alpha: ExternalNumber, count: int, rng: random.Random
) -> List[EpsSeries]:
    """``count`` sampled members ``alpha.rep + s`` of ``alpha``.

    A negative ``count`` is a ``ValueError``.
    """
    return [alpha.rep + s for s in neutrix_samples(alpha.neutrix, count, rng)]


def samples_within(
    left: ExternalNumber,
    right: ExternalNumber,
    rng: random.Random,
    count: int = 50,
) -> bool:
    """Whether ``count`` sampled members of ``left`` all lie in ``right``.

    No sample is built or drawn when ``right.neutrix`` includes
    ``left.neutrix``: a neutrix is an additive group, so each member
    ``left.rep + s`` then lies in ``right`` iff ``left.rep`` does, and that
    is the verdict, with ``rng`` left as it was.  Otherwise each of
    :func:`neutrix_samples` is tested with :func:`en_member`, all ``count``
    drawn even once one has failed.  Either way the verdict is that of
    testing :func:`en_member` on each of :func:`en_samples`.  A negative
    ``count`` is a ``ValueError``.
    """
    _check_count(count)
    if right.neutrix.includes(left.neutrix):
        return count == 0 or en_member(left.rep, right)
    samples = neutrix_samples(left.neutrix, count, rng)
    return all([en_member(left.rep + s, right) for s in samples])


def mutual_membership_check(
    left: ExternalNumber,
    right: ExternalNumber,
    rng: random.Random,
    count: int = 50,
) -> bool:
    """Samples of each side must be members of the other.

    A negative ``count`` is a ``ValueError``.
    """
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

