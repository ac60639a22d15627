"""Exact arithmetic over finite formal series in a positive infinitesimal.

The symbol ``e`` denotes a fixed positive infinitesimal.  A series is a
finite sum of terms ``c * e^q`` with rational coefficient ``c`` and
rational exponent ``q``.  Because ``e`` is infinitesimal, terms with
*smaller* exponents dominate: a series with negative leading exponent is
infinitely large, one with positive leading exponent is infinitely small.
All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Optional, Tuple

from ._trusted import trusted
from .bounds import MAX_POWER, BoundExceeded
from .lexer import Descent, Infix, Prefix, TextError

__all__ = [
    "EpsSeries",
    "ParseError",
    "ZERO",
    "ONE",
    "EPS",
    "OMEGA",
    "INFINITE_VALUATION",
    "Rational",
    "rational",
    "parse_series",
]

#: Sentinel valuation of the zero series (larger than every rational).
INFINITE_VALUATION = math.inf


class ParseError(TextError):
    """Raised on malformed number expressions; carries the failing offset."""


#: An exact rational in the number core's one form: an ``int`` when it is
#: integral, a ``Fraction`` otherwise.
Rational = int | Fraction


def rational(value) -> Rational:
    """``value`` in the number core's form: an ``int`` or a ``Fraction``.

    Every exponent and coefficient is built through here.  ``int``
    arithmetic is about a hundred times cheaper than ``Fraction``
    arithmetic, and the two forms are interchangeable: ``1 == Fraction(1)``,
    their hashes agree and they print the same text.  A value that skips
    this only costs time, never exactness.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected a rational, got {type(value).__name__}")


Terms = Tuple[Tuple[Rational, Rational], ...]

#: ``(q, closed)`` absorbs every exponent above ``q``, and ``q`` itself
#: when ``closed``: the exponents of the neutrix ``L(q)`` (closed) or
#: ``o(q)`` (open).
Cut = Tuple[Rational, bool]

_exponent = itemgetter(0)


def _kept(terms: Terms, cut: Cut) -> int:
    """Length of the prefix of sorted ``terms`` that ``cut`` does not absorb."""
    q, closed = cut
    return (bisect_left if closed else bisect_right)(terms, q, key=_exponent)


def _merge(xs: Terms, ys: Terms) -> Terms:
    """Sum of two sorted, zero-free term tuples; sorted and zero-free."""
    if not xs:
        return ys
    if not ys:
        return xs
    out = []
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        ex, cx = xs[i]
        ey, cy = ys[j]
        if ex < ey:
            out.append(xs[i])
            i += 1
        elif ey < ex:
            out.append(ys[j])
            j += 1
        else:
            coeff = cx + cy
            if coeff:
                out.append((ex, rational(coeff)))
            i += 1
            j += 1
    return (*out, *xs[i:], *ys[j:])


def _compare(xs: Terms, ys: Terms) -> int:
    """Sign of ``xs - ys`` for two sorted, zero-free term tuples.

    The difference is decided by the first term at which the two differ, so
    the walk stops there without building it.  A term whose exponent only
    one side has dominates with that side's coefficient, and a shared
    exponent with unequal coefficients with their difference.
    """
    for (ex, cx), (ey, cy) in zip(xs, ys):
        if ex != ey:
            if ex < ey:
                return 1 if cx > 0 else -1
            return -1 if cy > 0 else 1
        if cx != cy:
            return 1 if cx > cy else -1
    # One is a prefix of the other: the longer one's next term decides.
    nx, ny = len(xs), len(ys)
    if nx > ny:
        return 1 if xs[ny][1] > 0 else -1
    if ny > nx:
        return -1 if ys[nx][1] > 0 else 1
    return 0


def _product(xs: Terms, ys: Terms, cut: Optional[Cut]) -> Terms:
    """Product of two sorted, zero-free term tuples, less what ``cut`` absorbs.

    Row ``ex`` is ``ys`` shifted by ``ex``; it is sorted, so the cut keeps
    a prefix of it, and rows further down keep no more than it does.
    """
    if len(xs) > len(ys):
        xs, ys = ys, xs
    total: Terms = ()
    for ex, cx in xs:
        row = ys if cut is None else ys[: _kept(ys, (cut[0] - ex, cut[1]))]
        if not row:
            break
        total = _merge(
            total,
            tuple([(rational(ex + ey), rational(cx * cy)) for ey, cy in row]),
        )
    return total


class _Arithmetic:
    """Subtraction, powers and ``repr``, defined once for ``EpsSeries`` and
    ``ExternalNumber`` from their ``_coerce``, ``+``, unary ``-``, ``*``
    and ``str``; the unit of ``a ** n`` is ``_coerce(1)``.
    """

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __pow__(self, power: int):
        if type(power) is not int or power < 0:  # a bool is not a power
            raise ValueError("powers must be non-negative integers")
        if power > MAX_POWER:
            raise BoundExceeded(f"power {power} above {MAX_POWER}")
        result = self._coerce(1)
        for _ in range(power):
            result = result * self
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def _order(test):
    """The series operator ``test(sign of self - other, 0)``, via :func:`_compare`."""

    def method(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return test(_compare(self.terms, other.terms), 0)

    return method


@dataclass(frozen=True, slots=True, repr=False)
class EpsSeries(_Arithmetic):
    """A finite formal series in ``e``, kept in canonical form.

    ``terms`` is a tuple of ``(exponent, coefficient)`` pairs with strictly
    increasing exponents and no zero coefficients; the empty tuple is 0.
    Each exponent and coefficient is an ``int`` or a ``Fraction``, in the
    form :func:`rational` gives.  Every operation relies on this invariant
    and keeps it: a sum merges two sorted tuples, a product merges its
    shifted rows, and the terms a neutrix absorbs are always a suffix (see
    :meth:`truncate`).  The constructor checks it, refusing a value that
    is not an ``int`` or a ``Fraction`` (a ``bool`` included) with
    ``TypeError`` and a zero coefficient or an unsorted exponent with
    ``ValueError``; build from unsorted pairs with :meth:`from_terms`.
    The arithmetic builds its results, canonical by construction, through
    :func:`_series`, which skips the check.

    ``<``, ``<=``, ``>``, ``>=`` and :meth:`compare` agree and never build
    the difference; ``==`` is structural, so ``ONE == 1`` is False.
    """

    terms: Terms = ()

    def __post_init__(self):
        terms = self.terms
        if type(terms) is not tuple:
            raise TypeError(f"series terms must be a tuple of pairs, got {terms!r}")
        previous = None
        for term in terms:
            if type(term) is not tuple or len(term) != 2:
                raise TypeError(
                    f"series term must be an (exponent, coefficient) pair, got {term!r}"
                )
            for value in term:
                if type(value) is not int and type(value) is not Fraction:
                    raise TypeError(
                        f"series exponent and coefficient must be an int or "
                        f"Fraction, got {value!r}"
                    )
            exponent, coefficient = term
            if not coefficient:
                raise ValueError(
                    f"zero coefficient at exponent {exponent}; "
                    "build it with EpsSeries.from_terms"
                )
            if previous is not None and exponent <= previous:
                raise ValueError(
                    f"exponents must strictly increase, got {exponent} after "
                    f"{previous}; build it with EpsSeries.from_terms"
                )
            previous = exponent

    @staticmethod
    def from_terms(pairs: Iterable[Tuple[Rational, Rational]]) -> "EpsSeries":
        """Canonical series of any pairs: sorted, with equal exponents summed."""
        ordered = sorted(
            ((rational(exp), rational(coeff)) for exp, coeff in pairs),
            key=_exponent,
        )
        summed = []
        for exp, coeff in ordered:
            if summed and summed[-1][0] == exp:
                summed[-1] = (exp, rational(summed[-1][1] + coeff))
            else:
                summed.append((exp, coeff))
        return _series(tuple([term for term in summed if term[1]]))

    @staticmethod
    def from_rational(value) -> "EpsSeries":
        value = rational(value)
        if value == 0:
            return ZERO
        return _series(((0, value),))

    @staticmethod
    def monomial(exponent, coefficient=1) -> "EpsSeries":
        coefficient = rational(coefficient)
        if coefficient == 0:
            return ZERO
        return _series(((rational(exponent), coefficient),))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def valuation(self):
        """Least exponent, or the +inf sentinel for the zero series."""
        if not self.terms:
            return INFINITE_VALUATION
        return self.terms[0][0]

    @property
    def leading_coefficient(self) -> Rational:
        if not self.terms:
            return 0
        return self.terms[0][1]

    def sign(self) -> int:
        """Sign of the series: the sign of its dominant coefficient."""
        c = self.leading_coefficient
        return (c > 0) - (c < 0)

    def truncate(self, cut: Cut) -> "EpsSeries":
        """The terms below ``cut``; ``self`` itself when it absorbs none."""
        kept = _kept(self.terms, cut)
        if kept == len(self.terms):
            return self
        return _series(self.terms[:kept])

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, EpsSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return EpsSeries.from_rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _series(_merge(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return _series(tuple([(exp, -coeff) for exp, coeff in self.terms]))

    def __mul__(self, other, cut: Optional[Cut] = None):
        """The product; given ``cut``, only its terms below the cut.

        ``x.__mul__(y, cut)`` equals ``(x * y).truncate(cut)`` but never
        computes a cross term the cut would absorb.
        """
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _series(_product(self.terms, other.terms, cut))

    __rmul__ = __mul__

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)

    def compare(self, other) -> int:
        """Three-way comparison: -1, 0, or 1."""
        coerced = self._coerce(other)
        if coerced is None:
            raise TypeError(
                f"cannot compare EpsSeries with {type(other).__name__}"
            )
        return _compare(self.terms, coerced.terms)

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (exp, coeff) in enumerate(self.terms):
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                base = "e" if exp == 1 else f"e^({exp})"
                body = base if mag == 1 else f"{mag}*{base}"
            if i == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)


# Its terms must be sorted, zero-free and in ``rational`` form.
_series = trusted(EpsSeries)


ZERO = EpsSeries()
ONE = EpsSeries.from_rational(1)
#: The positive infinitesimal witness.
EPS = EpsSeries.monomial(1)
#: The infinitely large witness 1/e.
OMEGA = EpsSeries.monomial(-1)


# -- expression parsing ----------------------------------------------------

_TOKEN_RE = re.compile(
    r"\d+(?:/\d+)?"  # numeral
    r"|[A-Za-z_£⊘][A-Za-z_0-9]*"  # name
    r"|[-^*+()]"  # operator
)

#: ``+`` and ``-`` bind alike, ``*`` tighter; all three group left.
_INFIX = {
    "+": Infix(1, False, operator.add),
    "-": Infix(1, False, operator.sub),
    "*": Infix(2, False, operator.mul),
}

#: The one prefix operator: unary minus, which binds tighter than ``*``.
_PREFIX = {"-": Prefix(False, operator.neg)}

#: The tokens that are not names: the operators and the end marker.
_NOT_NAMES = frozenset(["^", "*", "+", "-", "(", ")", ""])


class ExprParser(Descent):
    """Parser for ``+ - *`` expressions over series.

    Numerals and powers of ``e`` are series.  Subclasses may extend
    :meth:`parse_name` to add further primaries (the external-number
    parser adds neutrix symbols this way).
    Parentheses and unary minus nest at most ``MAX_NESTING`` deep.
    """

    pattern = _TOKEN_RE
    error = ParseError
    infixes = _INFIX
    prefixes = _PREFIX

    def parse_name(self, name: str):
        """The value of ``name``, the token just taken."""
        if name == "e":
            if self.tokens[self.index] == "^":
                self.index += 1
                return EpsSeries.monomial(self.parse_exponent())
            return EPS
        raise self.fail(f"unknown symbol {name!r}", self.index - 1)

    # grammar -------------------------------------------------------------

    def primary(self):
        token = self.tokens[self.index]
        if token[:1].isdecimal():
            return EpsSeries.from_rational(self.numeral())
        if token not in _NOT_NAMES:
            self.index += 1
            return self.parse_name(token)
        raise self.fail("expected a value")

    def parse_exponent(self) -> Rational:
        """A signed rational, optionally in parentheses: ``2``, ``(-1/2)``."""
        parenthesized = self.tokens[self.index] == "("
        if parenthesized:
            self.index += 1
        value = self.parse_signed_rational("an exponent")
        if parenthesized:
            self.expect(")")
        return value


def parse_series(text: str) -> EpsSeries:
    """Parse the canonical textual form, e.g. ``3 - 2*e^(1/2) + e^(-1)``."""
    return ExprParser(text).parse()
