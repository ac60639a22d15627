"""The front end as it was before the ``findall`` lexer, kept as an oracle.

``tokenize``, ``Descent`` and the three grammars below are the sequential
scan and the ``Token`` cursor that ``soritica.lexer`` and the parsers
replaced, unchanged but for their names.  The new parsers must give the
same tree or value, or the same error type, message and offset.

The ``Reference*`` parsers go one step further back, to before
``Descent.parse_infix``: one descent method per precedence level, each a
loop over its own ops.  Each is the old parser with ``parse_infix``
replaced by that descent, so the tokens, operands, heights and errors are
the old parser's and only the folding of infix chains differs.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Mapping, NamedTuple, Optional, Tuple, Type, Union

from soritica.bounds import MAX_HEIGHT, MAX_NESTING
from soritica.formulas import (
    _BINARY,
    And,
    Atom,
    Domain,
    Exists,
    Forall,
    Formula,
    FormulaSyntaxError,
    Iff,
    Implies,
    Index,
    Not,
    Or,
    PropVar,
)
from soritica.lexer import Infix, TextError
from soritica.neutrix import ExternalNumber, Kind, Neutrix
from soritica.series import ZERO, EpsSeries, ParseError, Rational


# -- the lexer ----------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int
    #: A ``num`` token's exact value: an ``int`` when integral, else a
    #: ``Fraction``; ``None`` for a numeral past Python's digit limit.
    value: Optional[Union[int, Fraction]] = None


def _numeral(text: str, pos: int, error: Type[TextError]):
    """Exact value of ``digits`` or ``digits/digits``, or ``None``."""
    numerator, slash, denominator = text.partition("/")
    try:
        if not slash:
            return int(text)
        d = int(denominator)
        n = int(numerator) if d else 0
    except ValueError:  # past the digit limit of int(str)
        return None
    if not d:
        raise error(f"zero denominator in {text!r}", pos)
    return n // d if n % d == 0 else Fraction(n, d)


def tokenize(
    text: str, pattern: re.Pattern, error: Type[TextError]
) -> list[Token]:
    """Tokens of ``pattern``'s named groups, whitespace between, then ``end``.

    An unmatched character or a zero denominator raises ``error`` at its
    offset.
    """
    tokens = []
    pos = 0
    end = len(text)
    while pos < end:
        if text[pos].isspace():
            pos += 1
            continue
        m = pattern.match(text, pos)
        if m is None:
            raise error(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        word = m.group()
        value = _numeral(word, pos, error) if kind == "num" else None
        tokens.append(Token(kind, word, pos, value))
        pos = m.end()
    tokens.append(Token("end", "", end))
    return tokens


class Descent:
    """Recursive-descent base: a token cursor and the nesting guard.

    A subclass sets ``pattern`` and ``error`` and defines ``parse_root``;
    :meth:`parse` runs it and refuses leftover tokens.  Parentheses and
    prefix operators go through :meth:`descend`, at most ``MAX_NESTING``
    deep; chains of infix operators go through :meth:`parse_infix`.
    """

    pattern: re.Pattern
    error: Type[TextError]

    def __init__(self, text: str):
        self.tokens = tokenize(text, self.pattern, self.error)
        self.index = 0
        self.depth = 0

    def parse(self):
        value = self.parse_root()
        token = self.peek()
        if token.kind != "end":
            raise self.error(f"unexpected token {token.text!r}", token.pos)
        return value

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "end":
            self.index += 1
        return token

    def at_op(self, text: str) -> bool:
        token = self.tokens[self.index]
        return token.kind == "op" and token.text == text

    def expect_op(self, text: str) -> Token:
        if not self.at_op(text):
            raise self.error(f"expected {text!r}", self.peek().pos)
        return self.advance()

    def descend(self, token: Token) -> None:
        """Enter one more nesting level, opened by ``token``."""
        if self.depth == MAX_NESTING:
            raise self.error(
                f"nesting deeper than {MAX_NESTING} levels", token.pos
            )
        self.depth += 1

    def parse_infix(
        self,
        operand: Callable[[], Any],
        table: Mapping[str, Infix],
        join: Callable[[Token, Any, Any, Any], Any],
    ):
        """Operands read by ``operand``, between ops of ``table``, folded.

        ``join(token, meaning, left, right)`` builds the node of one op.
        The ops wait on an explicit stack, so a chain never recurses, and
        each node is joined as soon as its right operand is complete: in
        the order a descent with one rule per level would join them.
        """
        values = [operand()]
        pending: list[tuple[Token, Infix]] = []
        while True:
            token = self.tokens[self.index]
            infix = table.get(token.text) if token.kind == "op" else None
            # Join the waiting ops that bind at least as tight as this one;
            # an op that groups right leaves those of its own level waiting.
            level = 0 if infix is None else infix.level + infix.right
            while pending and pending[-1][1].level >= level:
                op, waiting = pending.pop()
                right = values.pop()
                values[-1] = join(op, waiting.meaning, values[-1], right)
            if infix is None:
                return values[0]
            self.index += 1
            pending.append((token, infix))
            values.append(operand())

    def value(self, token: Token):
        """The value of a read ``num`` token.

        A numeral too long to convert is refused here, when the grammar
        reads it, so that errors earlier in the text come first.
        """
        if token.value is None:
            raise self.error(
                f"numeral longer than {sys.get_int_max_str_digits()} digits",
                token.pos,
            )
        return token.value

    def parse_signed_rational(self, what: str):
        """An optional ``-`` and a ``num``; else ``expected <what>``."""
        negative = self.at_op("-")
        if negative:
            self.advance()
        token = self.advance()
        if token.kind != "num":
            raise self.error(f"expected {what}", token.pos)
        value = self.value(token)
        return -value if negative else value


# -- the formula grammar ----------------------------------------------------

_FORMULA_TOKEN_RE = re.compile(
    r"(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><->|->|\.\.|[~&|().+,-])"
)

_KEYWORDS = {"forall", "exists", "in"}


class FormulaParser(Descent):
    """Recursive-descent formula parser.

    Parentheses, ``~`` and quantifiers nest at most ``MAX_NESTING`` deep,
    and chains of connectives are read by one loop, so the parser's own
    recursion is bounded.  Each rule returns a formula and its height (a
    leaf is 1); once the whole text has parsed, a formula taller than
    ``MAX_HEIGHT`` is refused at the first node that crossed the bound.
    """

    pattern = _FORMULA_TOKEN_RE
    error = FormulaSyntaxError

    def __init__(self, text: str):
        super().__init__(text)
        self.too_tall: Optional[Token] = None

    def parse(self) -> Formula:
        formula, _ = super().parse()
        if self.too_tall is not None:
            raise FormulaSyntaxError(
                f"formula taller than {MAX_HEIGHT} levels", self.too_tall.pos
            )
        return formula

    def parse_root(self) -> Tuple[Formula, int]:
        return self.parse_formula()

    def node(self, token: Token, formula: Formula, height: int, other=0):
        """``formula``, built at ``token`` on parts ``height`` and ``other``
        tall, and its own height."""
        height = (height if height > other else other) + 1
        if height > MAX_HEIGHT and self.too_tall is None:
            self.too_tall = token
        return formula, height

    def parse_formula(self) -> Tuple[Formula, int]:
        token = self.peek()
        if token.kind == "name" and token.text in ("forall", "exists"):
            self.advance()
            self.descend(token)
            var_token = self.peek()
            if var_token.kind != "name" or var_token.text in _KEYWORDS:
                raise FormulaSyntaxError(
                    "expected a quantifier variable", var_token.pos
                )
            self.advance()
            in_token = self.peek()
            if in_token.kind != "name" or in_token.text != "in":
                raise FormulaSyntaxError("expected 'in'", in_token.pos)
            self.advance()
            domain = self.parse_domain()
            self.expect_op(".")
            body, height = self.parse_formula()
            self.depth -= 1
            cls = Forall if token.text == "forall" else Exists
            return self.node(token, cls(var_token.text, domain, body), height)
        return self.parse_infix(self.parse_unary, _BINARY, self.join)

    def join(self, token: Token, cls, left, right) -> Tuple[Formula, int]:
        return self.node(token, cls(left[0], right[0]), left[1], right[1])

    def parse_domain(self) -> Domain:
        token = self.peek()
        if token.kind == "num" or self.at_op("-"):
            lo = self.parse_signed_rational("a finite domain")
            self.expect_op("..")
            hi = self.parse_signed_rational("the domain upper bound")
            return (lo, hi)
        if token.kind == "name" and token.text not in _KEYWORDS:
            return self.advance().text
        raise FormulaSyntaxError("expected a finite domain", token.pos)

    def parse_unary(self) -> Tuple[Formula, int]:
        token = self.peek()
        if self.at_op("~"):
            self.advance()
            self.descend(token)
            body, height = self.parse_unary()
            self.depth -= 1
            return self.node(token, Not(body), height)
        if self.at_op("("):
            self.advance()
            self.descend(token)
            formula = self.parse_formula()
            self.expect_op(")")
            self.depth -= 1
            return formula
        if token.kind == "name" and token.text not in _KEYWORDS:
            self.advance()
            if self.at_op("("):
                self.advance()
                index = self.parse_index()
                self.expect_op(")")
                return Atom(token.text, index), 1
            return PropVar(token.text), 1
        raise FormulaSyntaxError("expected a formula", token.pos)

    def parse_index(self) -> Index:
        token = self.peek()
        if token.kind == "num" or self.at_op("-"):
            return Index(None, self.parse_signed_rational("an index term"))
        if token.kind == "name" and token.text not in _KEYWORDS:
            var = self.advance().text
            offset = 0
            if self.at_op("+"):
                self.advance()
                num_token = self.peek()
                if num_token.kind != "num":
                    raise FormulaSyntaxError(
                        "expected an offset", num_token.pos
                    )
                offset = self.value(self.advance())
            return Index(var, offset)
        raise FormulaSyntaxError("expected an index term", token.pos)


def old_parse_formula(text: str) -> Formula:
    return FormulaParser(text).parse()


# -- the number grammars ----------------------------------------------------

_SERIES_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_£⊘][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\*|\+|-|\(|\))"
)

#: ``+`` and ``-`` bind alike, ``*`` tighter; all three group left.
_INFIX = {
    "+": Infix(1, False, operator.add),
    "-": Infix(1, False, operator.sub),
    "*": Infix(2, False, operator.mul),
}


def _apply(token: Token, meaning, left, right):
    return meaning(left, right)


class ExprParser(Descent):
    """Recursive-descent parser for ``+ - *`` expressions over series.

    Subclasses may extend :meth:`parse_name` to add further primaries
    (the external-number parser adds neutrix symbols this way).
    Parentheses and unary minus nest at most ``MAX_NESTING`` deep.
    """

    pattern = _SERIES_TOKEN_RE
    error = ParseError

    # hooks ---------------------------------------------------------------

    def from_rational(self, value: Rational):
        return EpsSeries.from_rational(value)

    def make_eps_power(self, exponent: Rational):
        return EpsSeries.monomial(exponent)

    def parse_name(self, token: Token):
        if token.text == "e":
            if self.at_op("^"):
                self.advance()
                return self.make_eps_power(self.parse_exponent())
            return self.make_eps_power(1)
        raise ParseError(f"unknown symbol {token.text!r}", token.pos)

    # grammar -------------------------------------------------------------

    def parse_root(self):
        return self.parse_infix(self.parse_factor, _INFIX, _apply)

    def parse_factor(self):
        token = self.peek()
        if self.at_op("-"):
            self.advance()
            self.descend(token)
            value = -self.parse_factor()
            self.depth -= 1
            return value
        return self.parse_primary()

    def parse_primary(self):
        token = self.advance()
        if token.kind == "num":
            return self.from_rational(self.value(token))
        if token.kind == "name":
            return self.parse_name(token)
        if token.kind == "op" and token.text == "(":
            self.descend(token)
            value = self.parse_root()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ParseError("expected a value", token.pos)

    def parse_exponent(self) -> Rational:
        """A signed rational, optionally in parentheses: ``2``, ``(-1/2)``."""
        parenthesized = self.at_op("(")
        if parenthesized:
            self.advance()
        value = self.parse_signed_rational("an exponent")
        if parenthesized:
            self.expect_op(")")
        return value


def old_parse_series(text: str) -> EpsSeries:
    """Parse the canonical textual form, e.g. ``3 - 2*e^(1/2) + e^(-1)``."""
    return ExprParser(text).parse()


class ExternalExprParser(ExprParser):
    """Extends the series grammar with neutrix symbols L(q), o(q), osl, lim."""

    def from_rational(self, value: Rational):
        return ExternalNumber.make(EpsSeries.from_rational(value))

    def make_eps_power(self, exponent: Rational):
        return ExternalNumber.make(EpsSeries.monomial(exponent))

    def parse_name(self, token: Token):
        name = token.text
        if name in ("L", "o"):
            self.expect_op("(")
            exponent = self.parse_signed_rational("a rational")
            self.expect_op(")")
            kind = Kind.LIM if name == "L" else Kind.OSL
            return ExternalNumber.make(ZERO, Neutrix(exponent, kind))
        if name in ("osl", "⊘"):
            return ExternalNumber.make(ZERO, Neutrix.osl(0))
        if name in ("lim", "£"):
            return ExternalNumber.make(ZERO, Neutrix.lim(0))
        return super().parse_name(token)


def old_parse_external(text: str) -> ExternalNumber:
    """Parse an external-number expression, e.g. ``(2 + osl) * (3 + osl)``."""
    return ExternalExprParser(text).parse()


# -- one descent method per precedence level ---------------------------------


class ReferenceFormulaParser(FormulaParser):
    def parse_infix(self, operand, table, join):
        return self.parse_iff()

    def parse_iff(self):
        first = self.parse_implies()
        if not self.at_op("<->"):
            return first
        formula, height = first
        while self.at_op("<->"):
            token = self.advance()
            right, right_height = self.parse_implies()
            formula, height = self.node(
                token, Iff(formula, right), height, right_height
            )
        return formula, height

    def parse_implies(self):
        """``p -> q -> r`` is ``p -> (q -> r)``: read by a loop, folded right."""
        last = self.parse_or()
        if not self.at_op("->"):
            return last
        parts, ops = [last], []
        while self.at_op("->"):
            ops.append(self.advance())
            parts.append(self.parse_or())
        formula, height = parts.pop()
        while ops:
            left, left_height = parts.pop()
            formula, height = self.node(
                ops.pop(), Implies(left, formula), left_height, height
            )
        return formula, height

    def parse_or(self):
        first = self.parse_and()
        if not self.at_op("|"):
            return first
        formula, height = first
        while self.at_op("|"):
            token = self.advance()
            right, right_height = self.parse_and()
            formula, height = self.node(
                token, Or(formula, right), height, right_height
            )
        return formula, height

    def parse_and(self):
        first = self.parse_unary()
        if not self.at_op("&"):
            return first
        formula, height = first
        while self.at_op("&"):
            token = self.advance()
            right, right_height = self.parse_unary()
            formula, height = self.node(
                token, And(formula, right), height, right_height
            )
        return formula, height


class ReferenceSeriesParser(ExprParser):
    def parse_infix(self, operand, table, join):
        return self.parse_sum()

    def parse_sum(self):
        value = self.parse_product()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.parse_product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_product(self):
        value = self.parse_factor()
        while self.at_op("*"):
            self.advance()
            value = value * self.parse_factor()
        return value


class ReferenceExternalParser(ReferenceSeriesParser, ExternalExprParser):
    """The external-number grammar's symbols over the reference descent."""


def ref_parse_formula(text):
    return ReferenceFormulaParser(text).parse()


def ref_parse_series(text):
    return ReferenceSeriesParser(text).parse()


def ref_parse_external(text):
    return ReferenceExternalParser(text).parse()
