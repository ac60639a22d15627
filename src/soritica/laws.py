"""Randomized law suites for the external-number algebra.

Each suite draws seeded random instances and checks one algebraic law:
commutativity, associativity, additive and multiplicative regularity,
absence of zero divisors, neutrix scaling identities, and the sampled
subdistributivity inclusion.  A law is data: a ``draw`` that makes one
instance from the suite's ``rng`` and a ``check`` of that instance.  The
suite shrinks a failing instance with the same ``check``, so every
failure carries a shrunken counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Any, Callable, List, Optional, Tuple

from .neutrix import (
    _LIM,
    _OSL,
    _ZERO_GROUP,
    Classification,
    ExternalNumber,
    Neutrix,
    _neutrix,
    classify,
    n_scale,
    regular_inverse,
)
from .sampling import samples_within, strict_subset_witness
from .series import OMEGA, EpsSeries, Rational, _series, rational

__all__ = ["Law", "LawResult", "LAWS", "LAW_NAMES", "run_law_suite"]


@dataclass(frozen=True)
class LawResult:
    name: str
    cases: int
    passed: bool
    counterexample: Optional[str] = None


# -- generators ------------------------------------------------------------
#
# Each table holds normalised rationals (see ``series.rational``), and a
# draw from it is ``rng.choice(rng.choice(TABLE))``: a row, then an entry.
# That makes the same ``rng`` calls, in the same order, as drawing a
# numerator and then a denominator with ``randint`` over the table's
# ranges, so the draws and the generator state afterwards are those of
# building each ``Fraction`` from two ``randint`` calls.  ``choice`` and
# ``randint`` both draw an index below ``n`` as ``Random._randbelow(n)``
# does: ``n.bit_length()`` bits from ``getrandbits``, drawn again while the
# value is ``>= n``.  The hot generators, ``_rand_exponent`` and
# ``rand_series``, make those ``getrandbits`` calls in loops written out
# inline, with the widths taken from the tables at import; the two draws
# made once per law instance call ``choice`` itself.


def _table(numerators, denominators):
    return tuple(
        tuple(rational(Fraction(n, d)) for d in denominators)
        for n in numerators
    )


def _widths(table):
    """``(rows, row bits, columns, column bits)`` of a rectangular table."""
    rows, columns = len(table), len(table[0])
    return rows, rows.bit_length(), columns, columns.bit_length()


#: A random series has ``randint(0, _MAX_TERMS)`` terms.
_MAX_TERMS = 3
_TERM_COUNTS = _MAX_TERMS + 1
_TERM_BITS = _TERM_COUNTS.bit_length()
#: Exponents ``n/d``: ``n = randint(-4, 4)``, ``d = choice((1, 1, 2))``.
_EXPONENTS = _table(range(-4, 5), (1, 1, 2))
_EXP_ROWS, _EXP_ROW_BITS, _EXP_COLS, _EXP_COL_BITS = _widths(_EXPONENTS)
#: ``_EXPONENT_ORDER`` lists the distinct exponents in increasing order,
#: and ``_EXPONENT_RANKS[row][col]`` is the index there of
#: ``_EXPONENTS[row][col]``: a series' terms sort by these ints.
_EXPONENT_ORDER = tuple(sorted(set(chain.from_iterable(_EXPONENTS))))
_EXPONENT_RANKS = tuple(
    tuple(_EXPONENT_ORDER.index(exponent) for exponent in row) for row in _EXPONENTS
)
#: Series coefficients: ``randint(-9, 9)`` over ``randint(1, 3)``.
_COEFFICIENTS = _table(range(-9, 10), range(1, 4))
_COEFF_ROWS, _COEFF_ROW_BITS, _COEFF_COLS, _COEFF_COL_BITS = _widths(_COEFFICIENTS)
#: Invertible monomials' coefficients: ``randint(1, 9)`` over ``randint(1, 3)``.
_UNIT_COEFFICIENTS = _table(range(1, 10), range(1, 4))
#: Appreciable scalars: ``choice((-9, -5, -1, 1, 2, 5, 9))`` over
#: ``randint(1, 4)``.
_SCALARS = _table((-9, -5, -1, 1, 2, 5, 9), range(1, 5))


def _rand_exponent(rng: random.Random) -> Rational:
    getrandbits = rng.getrandbits
    while (row := getrandbits(_EXP_ROW_BITS)) >= _EXP_ROWS:
        pass
    while (col := getrandbits(_EXP_COL_BITS)) >= _EXP_COLS:
        pass
    return _EXPONENTS[row][col]


def rand_series(rng: random.Random) -> EpsSeries:
    """``randint(0, _MAX_TERMS)`` terms, each a coefficient, then an exponent.

    The series is built in canonical form directly: the drawn terms are
    sorted by exponent rank, equal exponents are summed, and zero
    coefficients are dropped, as :meth:`EpsSeries.from_terms` would, so it
    goes through the unchecked :func:`~soritica.series._series`.
    """
    getrandbits = rng.getrandbits
    while (count := getrandbits(_TERM_BITS)) >= _TERM_COUNTS:
        pass
    drawn = []
    for _ in repeat(None, count):
        while (row := getrandbits(_COEFF_ROW_BITS)) >= _COEFF_ROWS:
            pass
        while (col := getrandbits(_COEFF_COL_BITS)) >= _COEFF_COLS:
            pass
        coeff = _COEFFICIENTS[row][col]
        while (row := getrandbits(_EXP_ROW_BITS)) >= _EXP_ROWS:
            pass
        while (col := getrandbits(_EXP_COL_BITS)) >= _EXP_COLS:
            pass
        drawn.append((_EXPONENT_RANKS[row][col], coeff))
    drawn.sort()
    summed = []
    for rank, coeff in drawn:
        if summed and summed[-1][0] == rank:
            coeff = rational(summed.pop()[1] + coeff)
        summed.append((rank, coeff))
    return _series(
        tuple([(_EXPONENT_ORDER[rank], coeff) for rank, coeff in summed if coeff])
    )


def rand_neutrix(rng: random.Random) -> Neutrix:
    roll = rng.random()
    if roll < 0.25:
        return _ZERO_GROUP
    kind = _LIM if rng.random() < 0.5 else _OSL
    return _neutrix(_rand_exponent(rng), kind)


def rand_external(rng: random.Random) -> ExternalNumber:
    return ExternalNumber.make(rand_series(rng), rand_neutrix(rng))


def rand_invertible_external(rng: random.Random) -> ExternalNumber:
    """Non-neutrix element with a representable multiplicative inverse.

    Finite series do not form a field, so zero-neutrix elements are drawn
    with monomial representatives; with a nonzero neutrix the truncated
    inverse always exists.
    """
    while True:
        neutrix = rand_neutrix(rng)
        if neutrix.is_zero:
            coeff = rng.choice(rng.choice(_UNIT_COEFFICIENTS))
            if rng.random() < 0.5:
                coeff = -coeff
            rep = EpsSeries.monomial(_rand_exponent(rng), coeff)
        else:
            rep = rand_series(rng)
        alpha = ExternalNumber.make(rep, neutrix)
        if classify(alpha) is not Classification.NEUTRIX_ONLY:
            return alpha


# -- shrinking -------------------------------------------------------------


def _shrink_series(x: EpsSeries) -> List[EpsSeries]:
    return [
        _series(x.terms[:i] + x.terms[i + 1 :]) for i in range(len(x.terms))
    ]


def _shrink_value(value) -> list:
    """Smaller candidates for one component of a law instance.

    An external number drops one representative term or its neutrix, and
    a neutrix becomes zero; a scalar stays.
    """
    if isinstance(value, ExternalNumber):
        candidates = [
            ExternalNumber.make(rep, value.neutrix)
            for rep in _shrink_series(value.rep)
        ]
        if not value.neutrix.is_zero:
            candidates.append(ExternalNumber.make(value.rep, Neutrix.zero()))
        return candidates
    if isinstance(value, Neutrix) and not value.is_zero:
        return [Neutrix.zero()]
    return []


Instance = Tuple[Any, ...]


def _shrink(instance: Instance, fails: Callable[[Instance], bool]) -> Instance:
    current = instance
    changed = True
    while changed:
        changed = False
        for i, value in enumerate(current):
            for smaller in _shrink_value(value):
                candidate = current[:i] + (smaller,) + current[i + 1 :]
                if fails(candidate):
                    current = candidate
                    changed = True
                    break
            if changed:
                break
    return current


# -- the laws --------------------------------------------------------------
#
# A check takes the instance and a ``random.Random``; only the sampled
# subdistributivity law draws from it.


@dataclass(frozen=True)
class Law:
    name: str
    draw: Callable[[random.Random], Instance]
    check: Callable[[Instance, random.Random], bool]


def _externals(count: int) -> Callable[[random.Random], Instance]:
    def draw(rng: random.Random) -> Instance:
        return tuple(rand_external(rng) for _ in range(count))

    return draw


def _check_add_commutative(instance, rng):
    a, b = instance
    return a + b == b + a


def _check_add_associative(instance, rng):
    a, b, c = instance
    return (a + b) + c == a + (b + c)


def _check_add_regular(instance, rng):
    (a,) = instance
    return a + (-a) + a == a


def _check_mul_commutative(instance, rng):
    a, b = instance
    return a * b == b * a


def _check_mul_associative(instance, rng):
    a, b, c = instance
    return (a * b) * c == a * (b * c)


def _check_mul_regular(instance, rng):
    (a,) = instance
    if a.rep.is_zero or (a.neutrix.is_zero and len(a.rep.terms) > 1):
        return True  # outside the law: the model has no inverse for a
    # regular_inverse returns a beta only once a * beta * a == a holds.
    return regular_inverse(a) is not None


def _check_no_zero_divisors(instance, rng):
    a, b = instance
    return not ((a * b).is_zero and not (a.is_zero or b.is_zero))


def _draw_appreciable_scale(rng):
    neutrix = rand_neutrix(rng)
    return rng.choice(rng.choice(_SCALARS)), neutrix


def _draw_integer_scale(rng):
    neutrix = rand_neutrix(rng)
    return rng.randint(1, 1000), neutrix


def _check_scale_identity(instance, rng):
    scalar, neutrix = instance
    return neutrix.is_zero or n_scale(scalar, neutrix) == neutrix


def _check_omega_scale_strict(instance, rng):
    (neutrix,) = instance
    scaled = n_scale(OMEGA, neutrix)
    if neutrix.is_zero:
        return scaled.is_zero
    return (
        scaled.strictly_includes(neutrix)
        and strict_subset_witness(neutrix, scaled) is not None
    )


def _check_subdistributive(instance, rng):
    a, b, c = instance
    return samples_within(a * (b + c), a * b + a * c, rng, 10)


LAWS: Tuple[Law, ...] = (
    Law("add_commutative", _externals(2), _check_add_commutative),
    Law("add_associative", _externals(3), _check_add_associative),
    Law("add_regular", _externals(1), _check_add_regular),
    Law("mul_commutative", _externals(2), _check_mul_commutative),
    Law("mul_associative", _externals(3), _check_mul_associative),
    Law(
        "mul_regular",
        lambda rng: (rand_invertible_external(rng),),
        _check_mul_regular,
    ),
    Law("no_zero_divisors", _externals(2), _check_no_zero_divisors),
    Law(
        "appreciable_scale_identity",
        _draw_appreciable_scale,
        _check_scale_identity,
    ),
    Law("integer_scale_identity", _draw_integer_scale, _check_scale_identity),
    Law(
        "omega_scale_strict",
        lambda rng: (rand_neutrix(rng),),
        _check_omega_scale_strict,
    ),
    Law("subdistributive_sampling", _externals(3), _check_subdistributive),
)

LAW_NAMES = [law.name for law in LAWS]


def run_law_suite(seed: int, cases: int) -> List[LawResult]:
    """Run every law on ``cases`` seeded random instances.

    A failing instance is shrunk with the law's own check; a check that
    samples runs on a fresh ``Random`` of the law's seed for each
    candidate, so every candidate gets the same draws.
    """
    if cases < 1:
        raise ValueError("cases must be >= 1")
    results = []
    for law in LAWS:
        law_seed = f"{seed}:{law.name}"
        rng = random.Random(law_seed)
        failure = None
        for _ in range(cases):
            instance = law.draw(rng)
            if not law.check(instance, rng):
                failure = _shrink(
                    instance,
                    lambda cand: not law.check(cand, random.Random(law_seed)),
                )
                break
        results.append(
            LawResult(
                name=law.name,
                cases=cases,
                passed=failure is None,
                counterexample=(
                    ", ".join(str(x) for x in failure)
                    if failure is not None
                    else None
                ),
            )
        )
    return results
