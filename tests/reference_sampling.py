"""Reference membership sampling that soritica.sampling is tested against.

These are the plain versions the sampler replaced: each sample is built
as a sum of monomials with fresh ``Fraction`` coefficients and exponents,
and each sampled member ``left.rep + s`` of the left side is rebuilt and
tested against the right side on its own, by subtracting ``right.rep``.
They share no code with the coefficient tables or the one-difference
check.  ``_below`` and ``_entry`` are the index draw that only the
law-suite generators still write out inline: the ``getrandbits`` calls
of ``choice`` and ``randint``, pinned against ``random`` itself.
``old_cli_oracle`` is the check ``numbers eval --oracle`` made before it
kept only the printed-text round trip, and ``old_absorbed`` the rule by
which ``samples_within`` skipped sampling before it asked for inclusion.
"""

import random
from fractions import Fraction
from typing import NamedTuple

from soritica.neutrix import Kind, parse_external, regular_inverse
from soritica.sampling import en_member, mutual_membership_check
from soritica.series import EpsSeries


def _below(getrandbits, n):
    """A uniform index in ``range(n)``, ``n > 0``, drawn as ``random`` does.

    This is ``Random._randbelow(n)``, the draw behind ``rng.choice`` of a
    length-``n`` sequence and behind ``rng.randint(a, a + n - 1)``, given
    the bound method ``rng.getrandbits``: the same calls, the same index.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _entry(getrandbits, table):
    """``rng.choice(rng.choice(table))``: a row, then an entry of that row."""
    row = table[_below(getrandbits, len(table))]
    return row[_below(getrandbits, len(row))]


def _ref_coeff(rng):
    num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 9))


def ref_neutrix_samples(neutrix, count, rng):
    if neutrix.is_zero:
        return [EpsSeries()] * count
    q = neutrix.exponent
    samples = []
    for _ in range(count):
        if neutrix.kind is Kind.LIM:
            exp = q
        else:
            exp = q + Fraction(rng.randint(1, 4), rng.randint(1, 3))
        sample = EpsSeries.monomial(exp, _ref_coeff(rng))
        if rng.random() < 0.4:
            sample = sample + EpsSeries.monomial(
                exp + Fraction(rng.randint(1, 3)), _ref_coeff(rng)
            )
        samples.append(sample)
    return samples


def ref_en_samples(alpha, count, rng):
    return [alpha.rep + s for s in ref_neutrix_samples(alpha.neutrix, count, rng)]


def ref_samples_within(left, right, rng, count=50):
    """Every sampled member of ``left``, rebuilt, is a member of ``right``."""
    return all(en_member(x, right) for x in ref_en_samples(left, count, rng))


def old_absorbed(left, right):
    """The rule by which ``samples_within`` once skipped sampling.

    It skipped when ``right``'s cut absorbs the least exponent a sample of
    ``left`` can have: ``q`` for ``L(q)``, and ``q + 1/3`` for ``o(q)``,
    the least ``randint(1, 4) / randint(1, 3)`` above ``q``.  The verdict
    was then ``count == 0`` or ``right`` holding ``left.rep``.
    """
    sampled = left.neutrix
    if sampled.is_zero:
        return True
    least = sampled.exponent
    if sampled.kind is Kind.OSL:
        least += Fraction(1, 3)
    return right.neutrix.absorbs(least)


def ref_mutual_membership_check(left, right, rng, count=50):
    return ref_samples_within(left, right, rng, count) and ref_samples_within(
        right, left, rng, count
    )


class OldOracle(NamedTuple):
    round_trip: bool
    verdict: bool
    inverted: bool
    drew: bool


def old_cli_oracle(value, seed):
    """The old ``--oracle`` check of ``value``, as ``numbers eval`` ran it.

    ``round_trip`` is ``value == parse_external(str(value))``, and
    ``verdict`` adds both ``mutual_membership_check`` calls: ``value``
    against its re-parse, and ``value * inverse * value`` against ``value``
    when ``regular_inverse`` finds an ``inverse`` (``inverted``).  ``drew``
    is whether those calls moved the ``Random(seed)`` they shared.
    """
    rng = random.Random(seed)
    start = rng.getstate()
    reparsed = parse_external(str(value))
    round_trip = value == reparsed
    ok = round_trip and mutual_membership_check(value, reparsed, rng)
    inverse = regular_inverse(value)
    if inverse is not None:
        ok = ok and mutual_membership_check(value * inverse * value, value, rng)
    return OldOracle(round_trip, ok, inverse is not None, rng.getstate() != start)
