"""Randomized law suites for the external-number algebra.

Each suite draws seeded random instances and checks one algebraic law:
commutativity, associativity, additive and multiplicative regularity,
absence of zero divisors, neutrix scaling identities, and the sampled
subdistributivity inclusion.  Failures carry a shrunken counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .neutrix import (
    Classification,
    ExternalNumber,
    Kind,
    Neutrix,
    classify,
    n_scale,
    regular_inverse,
)
from .sampling import samples_within, strict_subset_witness
from .series import OMEGA, EpsSeries

__all__ = ["LawResult", "run_law_suite", "LAW_NAMES"]


@dataclass(frozen=True)
class LawResult:
    name: str
    cases: int
    passed: bool
    counterexample: Optional[str] = None


# -- generators ------------------------------------------------------------


def _rand_exponent(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))


def rand_series(rng: random.Random, max_terms: int = 3) -> EpsSeries:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        terms.append((_rand_exponent(rng), coeff))
    return EpsSeries.from_terms(terms)


def rand_neutrix(rng: random.Random) -> Neutrix:
    roll = rng.random()
    if roll < 0.25:
        return Neutrix.zero()
    kind = Kind.LIM if rng.random() < 0.5 else Kind.OSL
    return Neutrix(_rand_exponent(rng), kind)


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
            coeff = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            if rng.random() < 0.5:
                coeff = -coeff
            rep = EpsSeries.monomial(_rand_exponent(rng), coeff)
        else:
            rep = rand_series(rng)
        alpha = ExternalNumber.make(rep, neutrix)
        if classify(alpha) is not Classification.NEUTRIX_ONLY:
            return alpha


def _shrink_series(x: EpsSeries) -> List[EpsSeries]:
    return [
        EpsSeries(x.terms[:i] + x.terms[i + 1 :]) for i in range(len(x.terms))
    ]


def _shrink_external(alpha: ExternalNumber) -> List[ExternalNumber]:
    candidates = [
        ExternalNumber.make(rep, alpha.neutrix)
        for rep in _shrink_series(alpha.rep)
    ]
    if not alpha.neutrix.is_zero:
        candidates.append(ExternalNumber.make(alpha.rep, Neutrix.zero()))
    return candidates


def _shrink(
    instance: Tuple[ExternalNumber, ...],
    fails: Callable[[Tuple[ExternalNumber, ...]], bool],
) -> Tuple[ExternalNumber, ...]:
    current = instance
    changed = True
    while changed:
        changed = False
        for i, alpha in enumerate(current):
            for smaller in _shrink_external(alpha):
                candidate = current[:i] + (smaller,) + current[i + 1 :]
                if fails(candidate):
                    current = candidate
                    changed = True
                    break
            if changed:
                break
    return current


# -- individual laws -------------------------------------------------------


def _law_add_commutative(rng):
    a, b = rand_external(rng), rand_external(rng)
    return a + b == b + a, (a, b)


def _law_add_associative(rng):
    a, b, c = (rand_external(rng) for _ in range(3))
    return (a + b) + c == a + (b + c), (a, b, c)


def _law_add_regular(rng):
    a = rand_external(rng)
    return a + (-a) + a == a, (a,)


def _law_mul_commutative(rng):
    a, b = rand_external(rng), rand_external(rng)
    return a * b == b * a, (a, b)


def _law_mul_associative(rng):
    a, b, c = (rand_external(rng) for _ in range(3))
    return (a * b) * c == a * (b * c), (a, b, c)


def _law_mul_regular(rng):
    a = rand_invertible_external(rng)
    beta = regular_inverse(a)
    if beta is None:
        return False, (a,)
    return a * beta * a == a, (a,)


def _law_no_zero_divisors(rng):
    a, b = rand_external(rng), rand_external(rng)
    product = a * b
    if product.is_zero and not (a.is_zero or b.is_zero):
        return False, (a, b)
    return True, (a, b)


def _law_appreciable_scale(rng):
    neutrix = rand_neutrix(rng)
    c = EpsSeries.from_rational(
        Fraction(rng.choice((-9, -5, -1, 1, 2, 5, 9)), rng.randint(1, 4))
    )
    ok = n_scale(c, neutrix) == neutrix or neutrix.is_zero
    return ok, (ExternalNumber.make(c, neutrix),)


def _law_integer_scale(rng):
    neutrix = rand_neutrix(rng)
    n = rng.randint(1, 1000)
    ok = n_scale(EpsSeries.from_rational(n), neutrix) == neutrix or (
        neutrix.is_zero
    )
    return ok, (ExternalNumber.make(n, neutrix),)


def _law_omega_scale_strict(rng):
    neutrix = rand_neutrix(rng)
    scaled = n_scale(OMEGA, neutrix)
    if neutrix.is_zero:
        return scaled.is_zero, (ExternalNumber.make(0, neutrix),)
    ok = scaled.strictly_includes(neutrix)
    ok = ok and strict_subset_witness(neutrix, scaled) is not None
    return ok, (ExternalNumber.make(0, neutrix),)


def _law_subdistributive(rng):
    a, b, c = (rand_external(rng) for _ in range(3))
    left = a * (b + c)
    right = a * b + a * c
    return samples_within(left, right, rng, 10), (a, b, c)


_LAWS: List[Tuple[str, Callable]] = [
    ("add_commutative", _law_add_commutative),
    ("add_associative", _law_add_associative),
    ("add_regular", _law_add_regular),
    ("mul_commutative", _law_mul_commutative),
    ("mul_associative", _law_mul_associative),
    ("mul_regular", _law_mul_regular),
    ("no_zero_divisors", _law_no_zero_divisors),
    ("appreciable_scale_identity", _law_appreciable_scale),
    ("integer_scale_identity", _law_integer_scale),
    ("omega_scale_strict", _law_omega_scale_strict),
    ("subdistributive_sampling", _law_subdistributive),
]

LAW_NAMES = [name for name, _ in _LAWS]


def run_law_suite(seed: int, cases: int) -> List[LawResult]:
    """Run every law on ``cases`` seeded random instances."""
    if cases < 1:
        raise ValueError("cases must be >= 1")
    results = []
    for name, law in _LAWS:
        rng = random.Random(f"{seed}:{name}")
        failure = None
        for _ in range(cases):
            ok, instance = law(rng)
            if not ok:
                failure = instance
                break
        if failure is not None and name in (
            "add_commutative",
            "add_associative",
            "add_regular",
            "mul_commutative",
            "mul_associative",
            "no_zero_divisors",
        ):
            failure = _shrink(failure, lambda cand: not _recheck(name, cand))
        results.append(
            LawResult(
                name=name,
                cases=cases,
                passed=failure is None,
                counterexample=(
                    ", ".join(str(a) for a in failure)
                    if failure is not None
                    else None
                ),
            )
        )
    return results


def _recheck(name: str, instance: Tuple[ExternalNumber, ...]) -> bool:
    if name == "add_commutative":
        a, b = instance
        return a + b == b + a
    if name == "add_associative":
        a, b, c = instance
        return (a + b) + c == a + (b + c)
    if name == "add_regular":
        (a,) = instance
        return a + (-a) + a == a
    if name == "mul_commutative":
        a, b = instance
        return a * b == b * a
    if name == "mul_associative":
        a, b, c = instance
        return (a * b) * c == a * (b * c)
    if name == "no_zero_divisors":
        a, b = instance
        return not ((a * b).is_zero and not (a.is_zero or b.is_zero))
    raise ValueError(name)
