"""Reference law-suite generators that soritica.laws is tested against.

These are the plain versions the table-drawn generators replaced: every
exponent and coefficient is a fresh ``Fraction`` built from two
``randint``/``choice`` draws.  ``ref_law_draws`` draws each law's
instance the way the law functions did before laws became data.
"""

from fractions import Fraction

from soritica.neutrix import Classification, ExternalNumber, Kind, Neutrix, classify
from soritica.series import EpsSeries


def ref_rand_exponent(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))


def ref_rand_terms(rng, max_terms=3):
    """The drawn ``(exponent, coefficient)`` pairs of one series, as drawn."""
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        terms.append((ref_rand_exponent(rng), coeff))
    return terms


def ref_rand_series(rng, max_terms=3):
    return EpsSeries.from_terms(ref_rand_terms(rng, max_terms))


def ref_rand_neutrix(rng):
    roll = rng.random()
    if roll < 0.25:
        return Neutrix.zero()
    kind = Kind.LIM if rng.random() < 0.5 else Kind.OSL
    return Neutrix(ref_rand_exponent(rng), kind)


def ref_rand_external(rng):
    return ExternalNumber.make(ref_rand_series(rng), ref_rand_neutrix(rng))


def ref_rand_invertible_external(rng):
    while True:
        neutrix = ref_rand_neutrix(rng)
        if neutrix.is_zero:
            coeff = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            if rng.random() < 0.5:
                coeff = -coeff
            rep = EpsSeries.monomial(ref_rand_exponent(rng), coeff)
        else:
            rep = ref_rand_series(rng)
        alpha = ExternalNumber.make(rep, neutrix)
        if classify(alpha) is not Classification.NEUTRIX_ONLY:
            return alpha


def _ref_appreciable_scale(rng):
    neutrix = ref_rand_neutrix(rng)
    c = Fraction(rng.choice((-9, -5, -1, 1, 2, 5, 9)), rng.randint(1, 4))
    return c, neutrix


def _ref_integer_scale(rng):
    neutrix = ref_rand_neutrix(rng)
    return rng.randint(1, 1000), neutrix


def _ref_externals(count):
    return lambda rng: tuple(ref_rand_external(rng) for _ in range(count))


#: Law name to the reference draw of one instance.
ref_law_draws = {
    "add_commutative": _ref_externals(2),
    "add_associative": _ref_externals(3),
    "add_regular": _ref_externals(1),
    "mul_commutative": _ref_externals(2),
    "mul_associative": _ref_externals(3),
    "mul_regular": lambda rng: (ref_rand_invertible_external(rng),),
    "no_zero_divisors": _ref_externals(2),
    "appreciable_scale_identity": _ref_appreciable_scale,
    "integer_scale_identity": _ref_integer_scale,
    "omega_scale_strict": lambda rng: (ref_rand_neutrix(rng),),
    "subdistributive_sampling": _ref_externals(3),
}
