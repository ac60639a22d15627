"""Neutrices and external numbers over the finite-series model.

A neutrix is a convex additive subgroup of the model, used as an exact
order-of-magnitude error term.  The representable neutrices are the zero
group and the two valuation-definable families

* ``L(q)``: all series of valuation >= q (a scaled copy of the limited
  numbers; ``L(0)`` is written ``£``), and
* ``o(q)``: all series of valuation > q (a scaled copy of the
  infinitesimals; ``o(0)`` is written ``osl``).

An external number is a canonical pair (series representative, neutrix);
the calculus of sums and products propagates the dominant error group.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from ._trusted import trusted
from .bounds import BoundExceeded
from .series import (
    ONE,
    ZERO,
    Cut,
    EpsSeries,
    ExprParser,
    Rational,
    _Arithmetic,
    _series,
    rational,
)

__all__ = [
    "Kind",
    "Neutrix",
    "ExternalNumber",
    "Classification",
    "SetRelation",
    "BoundExceeded",
    "n_max",
    "n_scale",
    "n_mul",
    "classify",
    "relate",
    "distributivity_holds",
    "binomial_check",
    "regular_inverse",
    "parse_external",
]


class Kind(enum.Enum):
    LIM = "L"
    OSL = "o"


#: The kinds, read by the hot paths as module constants rather than as
#: class attributes.
_LIM, _OSL = Kind.LIM, Kind.OSL


@dataclass(frozen=True, slots=True)
class Neutrix:
    """Zero, or a scaled limited/infinitesimal group at a rational exponent.

    The constructor checks its fields; the arithmetic builds its results
    through :func:`_neutrix`, which skips the check.
    """

    exponent: Optional[Rational] = None
    kind: Optional[Kind] = None

    def __post_init__(self):
        exponent, kind = self.exponent, self.kind
        if (exponent is None) != (kind is None):
            raise ValueError("exponent and kind must be given together")
        if exponent is not None:
            if type(exponent) is not int and type(exponent) is not Fraction:
                raise TypeError(
                    f"neutrix exponent must be an int or Fraction, got {exponent!r}"
                )
            if type(kind) is not Kind:
                raise TypeError(f"neutrix kind must be a Kind, got {kind!r}")

    @staticmethod
    def zero() -> "Neutrix":
        return _ZERO_GROUP

    @staticmethod
    def lim(exponent=0) -> "Neutrix":
        return _neutrix(rational(exponent), _LIM)

    @staticmethod
    def osl(exponent=0) -> "Neutrix":
        return _neutrix(rational(exponent), _OSL)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    @property
    def cut(self) -> Optional[Cut]:
        """The exponents this group absorbs, or None for the zero group.

        ``L(q)`` absorbs the terms of exponent ``>= q``, ``o(q)`` those of
        exponent ``> q``; see :meth:`EpsSeries.truncate`.
        """
        q = self.exponent
        if q is None:
            return None
        return (q, self.kind is _LIM)

    def absorbs(self, exponent: Rational) -> bool:
        """True when the group contains the monomials ``c*e^exponent``."""
        q = self.exponent
        if q is None:
            return False
        if self.kind is _LIM:
            return exponent >= q
        return exponent > q

    def contains(self, x: EpsSeries) -> bool:
        return x.is_zero or self.absorbs(x.valuation)

    def includes(self, other: "Neutrix") -> bool:
        """True when this group contains the other (possibly equal).

        Inclusion is a total order: zero is least, a smaller exponent is a
        larger group, and at equal exponents ``L(q)`` contains ``o(q)``.
        """
        q, other_q = self.exponent, other.exponent
        if other_q is None:
            return True
        if q is None:
            return False
        if q != other_q:
            return q < other_q
        return self.kind is other.kind or self.kind is _LIM

    def strictly_includes(self, other: "Neutrix") -> bool:
        return self != other and self.includes(other)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return f"{self.kind.value}({self.exponent})"


# Its exponent must be an ``int`` or a ``Fraction`` and its kind a ``Kind``.
_neutrix = trusted(Neutrix)


_ZERO_GROUP = Neutrix()
#: The two classical neutrices: all infinitesimals (``osl``) and all
#: limited numbers (``lim``).
OSLASH = Neutrix.osl(0)
POUND = Neutrix.lim(0)


def n_max(a: Neutrix, b: Neutrix) -> Neutrix:
    """The larger of two neutrices under inclusion; ``a`` when they are equal."""
    return a if a.includes(b) else b


def n_scale(a: EpsSeries, neutrix: Neutrix) -> Neutrix:
    """Group generated by multiplying every member by the series ``a``."""
    if not isinstance(a, EpsSeries):
        a = EpsSeries.from_rational(a)
    if a.is_zero or neutrix.exponent is None:
        return _ZERO_GROUP
    return _neutrix(rational(neutrix.exponent + a.valuation), neutrix.kind)


def n_mul(a: Neutrix, b: Neutrix) -> Neutrix:
    """Group generated by pairwise products of members."""
    if a.exponent is None or b.exponent is None:
        return _ZERO_GROUP
    kind = _LIM if (a.kind is _LIM and b.kind is _LIM) else _OSL
    return _neutrix(rational(a.exponent + b.exponent), kind)


class Classification(enum.Enum):
    ZEROISH = "Zeroish"
    INFINITESIMAL = "Infinitesimal"
    APPRECIABLE = "Appreciable"
    UNLIMITED = "Unlimited"
    NEUTRIX_ONLY = "NeutrixOnly"


class SetRelation(enum.Enum):
    EQUAL = "Equal"
    PROPER_SUB = "ProperSub"
    PROPER_SUP = "ProperSup"
    DISJOINT_LESS = "DisjointLess"
    DISJOINT_GREATER = "DisjointGreater"


@dataclass(frozen=True, slots=True, repr=False)
class ExternalNumber(_Arithmetic):
    """Canonical representative-plus-neutrix pair.

    Canonical means that the neutrix absorbs no term of the
    representative.  The terms of a series are sorted by exponent, so the
    absorbed ones are a suffix: :meth:`make` cuts it off (``exp >= q``
    for ``L(q)``, ``exp > q`` for ``o(q)``), and the constructor refuses a
    pair whose last term is absorbed, or a field of the wrong type.  The
    arithmetic builds its results, canonical by construction, through
    :func:`_external`, which skips the check.  Two external numbers denote
    the same external set iff they are equal.

    A product computes its neutrix first, the largest of ``a*B``, ``b*A``
    and ``A*B``, picked from their exponents and kinds so that only that
    one ``Neutrix`` is built, and then only the cross terms of ``a*b``
    below its cut.
    """

    rep: EpsSeries
    neutrix: Neutrix

    def __post_init__(self):
        if not isinstance(self.rep, EpsSeries):
            raise TypeError(f"representative {self.rep!r} is not an EpsSeries")
        if not isinstance(self.neutrix, Neutrix):
            raise TypeError(f"neutrix {self.neutrix!r} is not a Neutrix")
        terms = self.rep.terms
        if terms and self.neutrix.absorbs(terms[-1][0]):
            raise ValueError(
                f"non-canonical external number: {self.neutrix} absorbs "
                f"terms of {self.rep}; build it with ExternalNumber.make"
            )

    @staticmethod
    def make(rep, neutrix: Neutrix = _ZERO_GROUP) -> "ExternalNumber":
        """The canonical pair: ``rep`` less the terms ``neutrix`` absorbs.

        ``rep`` may also be an ``int`` or a ``Fraction``; anything else, or
        a ``neutrix`` that is not a :class:`Neutrix`, is a ``TypeError``.
        """
        if not isinstance(rep, EpsSeries):
            rep = EpsSeries.from_rational(rep)
        if not isinstance(neutrix, Neutrix):
            raise TypeError(f"neutrix {neutrix!r} is not a Neutrix")
        cut = neutrix.cut
        if cut is not None:
            rep = rep.truncate(cut)
        return _external(rep, neutrix)

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero and self.neutrix.is_zero

    def _coerce(self, other):
        if isinstance(other, ExternalNumber):
            return other
        if isinstance(other, (EpsSeries, int, Fraction)):
            return ExternalNumber.make(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ExternalNumber.make(
            self.rep + other.rep, n_max(self.neutrix, other.neutrix)
        )

    __radd__ = __add__

    def __neg__(self):
        return _external(-self.rep, self.neutrix)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, neutrix_a = self.rep, self.neutrix
        b, neutrix_b = other.rep, other.neutrix
        # The candidates a*B, b*A and A*B as (exponent, open): a zero
        # factor drops its candidate, and the least pair is the largest
        # group, since at one exponent L (open False) contains o.
        q_a, q_b = neutrix_a.exponent, neutrix_b.exponent
        candidates = []
        if q_b is not None:
            open_b = neutrix_b.kind is _OSL
            if a.terms:
                candidates.append((a.terms[0][0] + q_b, open_b))
        if q_a is not None:
            open_a = neutrix_a.kind is _OSL
            if b.terms:
                candidates.append((b.terms[0][0] + q_a, open_a))
            if q_b is not None:
                candidates.append((q_a + q_b, open_a or open_b))
        if not candidates:
            return _external(a.__mul__(b), _ZERO_GROUP)
        exponent, is_open = min(candidates)
        exponent = rational(exponent)
        product_neutrix = _neutrix(exponent, _OSL if is_open else _LIM)
        return _external(a.__mul__(b, (exponent, not is_open)), product_neutrix)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.neutrix.is_zero:
            return str(self.rep)
        if self.rep.is_zero:
            return str(self.neutrix)
        return f"{self.rep} + {self.neutrix}"


# Its pair must be canonical: the neutrix absorbs no term of the rep.
_external = trusted(ExternalNumber)


def classify(alpha: ExternalNumber) -> Classification:
    """Order-of-magnitude class shared by every member of the external set.

    Neutrix-only values (zero representative, nonzero neutrix) get
    NEUTRIX_ONLY rather than a point class, since groups like £ mix
    infinitesimal and appreciable members.
    """
    if alpha.rep.is_zero:
        if alpha.neutrix.is_zero:
            return Classification.ZEROISH
        return Classification.NEUTRIX_ONLY
    v = alpha.rep.valuation
    if v < 0:
        return Classification.UNLIMITED
    if v == 0:
        return Classification.APPRECIABLE
    return Classification.INFINITESIMAL


def relate(alpha: ExternalNumber, beta: ExternalNumber) -> SetRelation:
    """Exactly one of equality, proper inclusion, or signed disjointness."""
    if alpha == beta:
        return SetRelation.EQUAL
    diff = beta.rep - alpha.rep
    joint = n_max(alpha.neutrix, beta.neutrix)
    if not joint.contains(diff):
        return (
            SetRelation.DISJOINT_LESS
            if diff.sign() > 0
            else SetRelation.DISJOINT_GREATER
        )
    if beta.neutrix.strictly_includes(alpha.neutrix):
        return SetRelation.PROPER_SUB
    if alpha.neutrix.strictly_includes(beta.neutrix):
        return SetRelation.PROPER_SUP
    raise AssertionError(
        "unreachable for canonical inputs: equal neutrices with an "
        "absorbed representative difference"
    )


def distributivity_holds(
    alpha: ExternalNumber, beta: ExternalNumber, gamma: ExternalNumber
) -> Tuple[bool, ExternalNumber, ExternalNumber]:
    """Compare a*(b+c) against a*b + a*c; returns verdict and both sides."""
    left = alpha * (beta + gamma)
    right = alpha * beta + alpha * gamma
    return left == right, left, right


#: The largest exponent ``binomial_check`` expands.
_BINOMIAL_MAX_EXPONENT = 8


def binomial_check(
    alpha: ExternalNumber, beta: ExternalNumber, n: int
) -> Tuple[bool, ExternalNumber, ExternalNumber]:
    """Compare (a+b)^n against the binomial expansion."""
    if n < 0 or n > _BINOMIAL_MAX_EXPONENT:
        raise BoundExceeded(f"exponent {n} outside 0..{_BINOMIAL_MAX_EXPONENT}")
    left = (alpha + beta) ** n
    right = sum(
        math.comb(n, k) * alpha**k * beta ** (n - k) for k in range(n + 1)
    )
    return left == right, left, right


_INVERSE_MAX_TERMS = 48


def regular_inverse(alpha: ExternalNumber) -> Optional[ExternalNumber]:
    """A beta with alpha*beta*alpha == alpha, or None if none is found.

    For ``alpha = a + A`` with ``a`` of valuation ``v``, beta's neutrix is
    ``B = e^(-2v)*A`` and its representative is the series ``1/a`` less
    the terms ``B`` absorbs: long division of 1 by ``a``, one quotient
    term at a time, up to the first term ``B`` absorbs.  The product
    check then runs once.

    The search reaches as far as the geometric series
    ``base * (1 + r + ... + r^k)``, ``k < 48``, with ``base`` the inverse
    of ``a``'s leading term and ``r = 1 - a*base``: that partial sum
    differs from ``1/a`` by a series of valuation ``-v + (k+1)*val(r)``,
    so when ``B`` does not absorb ``-v + 48*val(r)`` there is no answer
    within reach.  With a zero neutrix only monomial representatives are
    invertible in the finite-series model.
    """
    a = alpha.rep
    if a.is_zero:
        return None
    v = a.valuation
    inverse_lead = rational(Fraction(1, a.leading_coefficient))
    base = EpsSeries.monomial(-v, inverse_lead)
    if alpha.neutrix.is_zero:
        beta = ExternalNumber.make(base)
        return beta if alpha * beta * alpha == alpha else None
    q, kind = alpha.neutrix.exponent, alpha.neutrix.kind
    inv_neutrix = _neutrix(rational(q - 2 * v), kind)
    # A remainder term at exponent x gives the quotient term at x - v,
    # which B absorbs exactly when x lies past this cut.
    cut = (rational(q - v), kind is _LIM)
    remainder = (ONE - a * base).truncate(cut)
    if not remainder.is_zero and not inv_neutrix.absorbs(
        -v + _INVERSE_MAX_TERMS * remainder.valuation
    ):
        return None
    terms = [base.terms[0]]
    while not remainder.is_zero:
        term = EpsSeries.monomial(
            remainder.valuation - v,
            remainder.leading_coefficient * inverse_lead,
        )
        terms.append(term.terms[0])
        remainder = remainder - a.__mul__(term, cut)
    beta = _external(_series(tuple(terms)), inv_neutrix)
    return beta if alpha * beta * alpha == alpha else None


class _ExternalExprParser(ExprParser):
    """Extends the series grammar with neutrix symbols L(q), o(q), osl, lim.

    Only these give external numbers; the operators promote the series they meet.
    """

    def parse_name(self, name: str):
        # A zero representative is canonical under any neutrix.
        if name in ("L", "o"):
            self.expect("(")
            exponent = self.parse_signed_rational("a rational")
            self.expect(")")
            build = Neutrix.lim if name == "L" else Neutrix.osl
            return _external(ZERO, build(exponent))
        if name in ("osl", "⊘"):
            return _external(ZERO, OSLASH)
        if name in ("lim", "£"):
            return _external(ZERO, POUND)
        return super().parse_name(name)


def parse_external(text: str) -> ExternalNumber:
    """Parse an external-number expression, e.g. ``(2 + osl) * (3 + osl)``."""
    value = _ExternalExprParser(text).parse()
    return value if isinstance(value, ExternalNumber) else ExternalNumber.make(value)
