"""Reference arithmetic that the number core is tested against.

These are the plain versions the sorted-merge core replaced: every sum
and product collects its terms in a dict keyed by exponent, and
canonicalization asks the neutrix about each representative term, one
monomial at a time.  Neutrix inclusion compares key tuples.  They share
no code with the merge, the cut, the truncated product or
``Neutrix.includes``.
"""

from fractions import Fraction

from soritica.neutrix import ExternalNumber, Kind, n_mul, n_scale
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
