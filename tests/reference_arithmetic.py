"""Reference arithmetic that the number core is tested against.

These are the plain versions the sorted-merge core replaced: every sum
and product collects its terms in a dict keyed by exponent, and
canonicalization asks the neutrix about each representative term, one
monomial at a time.  Neutrix inclusion compares key tuples.  The regular
inverse is searched by a geometric series.  They share no code with the
merge, the cut, the truncated product, ``Neutrix.includes`` or the long
division.
"""

from fractions import Fraction

from soritica.neutrix import ExternalNumber, Kind, Neutrix, n_mul, n_scale
from soritica.series import EpsSeries


def ref_from_terms(pairs):
    merged = {}
    for exp, coeff in pairs:
        exp, coeff = Fraction(exp), Fraction(coeff)
        merged[exp] = merged.get(exp, Fraction(0)) + coeff
    return EpsSeries(
        tuple((exp, merged[exp]) for exp in sorted(merged) if merged[exp] != 0)
    )


def ref_add(x, y):
    return ref_from_terms(x.terms + y.terms)


def ref_sub(x, y):
    return ref_from_terms(x.terms + tuple((exp, -coeff) for exp, coeff in y.terms))


def ref_mul(x, y):
    return ref_from_terms(
        (ea + eb, ca * cb) for ea, ca in x.terms for eb, cb in y.terms
    )


def ref_compare(x, y):
    return ref_sub(x, y).sign()


def ref_make(rep, neutrix):
    kept = tuple(
        (exp, coeff)
        for exp, coeff in rep.terms
        if not neutrix.contains(EpsSeries.monomial(exp, coeff))
    )
    return ExternalNumber(EpsSeries(kept), neutrix)


def ref_external_mul(alpha, beta):
    neutrix = ref_n_max(
        n_scale(alpha.rep, beta.neutrix),
        n_scale(beta.rep, alpha.neutrix),
        n_mul(alpha.neutrix, beta.neutrix),
    )
    return ref_make(ref_mul(alpha.rep, beta.rep), neutrix)


def _ref_size_key(neutrix):
    # Total inclusion order: zero is least; smaller exponents are larger
    # groups; at equal exponent, L(q) strictly contains o(q).
    if neutrix.is_zero:
        return (0,)
    return (1, -neutrix.exponent, 1 if neutrix.kind is Kind.LIM else 0)


def ref_includes(a, b):
    return a == b or _ref_size_key(a) > _ref_size_key(b)


def ref_n_max(*neutrices):
    return max(neutrices, key=_ref_size_key)


_REF_INVERSE_MAX_TERMS = 48


def ref_regular_inverse(alpha):
    """The geometric-series search ``regular_inverse`` replaced.

    Grows ``base * (1 + r + r^2 + ...)``, ``r = 1 - a*base``, one power at
    a time and runs the full check ``alpha*beta*alpha == alpha`` after
    each, for at most 48 partial sums.
    """
    a = alpha.rep
    if a.is_zero:
        return None
    v = a.valuation
    base = EpsSeries.monomial(-v, Fraction(1) / a.leading_coefficient)
    correction = EpsSeries.from_rational(1) - a * base
    if alpha.neutrix.is_zero:
        beta = ExternalNumber.make(base)
        return beta if alpha * beta * alpha == alpha else None
    inv_neutrix = Neutrix(alpha.neutrix.exponent - 2 * v, alpha.neutrix.kind)
    inv = base
    power = EpsSeries.from_rational(1)
    for _ in range(_REF_INVERSE_MAX_TERMS):
        beta = ExternalNumber.make(inv, inv_neutrix)
        if alpha * beta * alpha == alpha:
            return beta
        power = power * correction
        if power.is_zero:
            return None
        inv = inv + base * power
    return None
