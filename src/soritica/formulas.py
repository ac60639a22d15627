"""Formula AST and parser for the soritical argument language.

Surface syntax (ASCII): ``~ & | -> <->``, bounded quantifiers
``forall n in 1..9. ...`` / ``exists n in D. ...``, soritical atoms
``S(n)``, ``S(n+1)``, ``S(3)``, and bare propositional variables.
Precedence: ``~`` binds tightest, then ``& | -> <->``; quantifiers bind
loosest.  Quantifier domains are finite and explicit, with signed bounds
(``-3..3``); named domains are resolved at evaluation time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .bounds import MAX_HEIGHT
from .lexer import Descent, Infix, TextError, Token

__all__ = [
    "Index",
    "Atom",
    "PropVar",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Forall",
    "Exists",
    "Formula",
    "FormulaSyntaxError",
    "parse_formula",
    "formula_to_str",
]


class FormulaSyntaxError(TextError):
    """Raised on malformed formula text; carries the failing offset."""


@dataclass(frozen=True)
class Index:
    """Index term: a literal, or a bound variable plus an offset.

    The grammar writes a variable's offset as ``n+k``, so it is refused
    below 0.  A literal (``var`` of ``None``) may be any integer, written
    with an optional ``-``: ``S(-2)``.
    """

    var: Optional[str]
    offset: int

    def __post_init__(self):
        if self.var is not None and self.offset < 0:
            raise ValueError(f"negative offset {self.offset} of {self.var!r}")

    def __str__(self) -> str:
        if self.var is None:
            return str(self.offset)
        if self.offset == 0:
            return self.var
        return f"{self.var}+{self.offset}"


Domain = Union[str, Tuple[int, int]]


@dataclass(frozen=True)
class Atom:
    predicate: str
    index: Index


@dataclass(frozen=True)
class PropVar:
    name: str


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    domain: Domain
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    domain: Domain
    body: "Formula"


Formula = Union[Atom, PropVar, Not, And, Or, Implies, Iff, Forall, Exists]


_TOKEN_RE = re.compile(
    r"(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><->|->|\.\.|[~&|().+,-])"
)

_KEYWORDS = {"forall", "exists", "in"}

#: The binary connectives, read by the parser and the printer alike.
#: ``~`` binds tighter than all of them, and quantifiers looser.
_BINARY = {
    "<->": Infix(1, False, Iff),
    "->": Infix(2, True, Implies),
    "|": Infix(3, False, Or),
    "&": Infix(4, False, And),
}
_SYMBOLS = {infix.meaning: (symbol, infix) for symbol, infix in _BINARY.items()}
_NOT_LEVEL = 5


class _Parser(Descent):
    """Recursive-descent formula parser.

    Parentheses, ``~`` and quantifiers nest at most ``MAX_NESTING`` deep,
    and chains of connectives are read by one loop, so the parser's own
    recursion is bounded.  Each rule returns a formula and its height (a
    leaf is 1); once the whole text has parsed, a formula taller than
    ``MAX_HEIGHT`` is refused at the first node that crossed the bound.
    """

    pattern = _TOKEN_RE
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


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()


def _domain_to_str(domain: Domain) -> str:
    if isinstance(domain, str):
        return domain
    return f"{domain[0]}..{domain[1]}"


def formula_to_str(formula: Formula, _level: int = 0) -> str:
    """``formula`` in the parser's syntax, with the fewest parentheses."""
    binary = _SYMBOLS.get(type(formula))
    if binary is not None:
        symbol, (level, right, _) = binary
        # An operand of the same level needs parentheses on the side the
        # connective does not group to.
        text = (
            f"{formula_to_str(formula.left, level + right)} {symbol} "
            f"{formula_to_str(formula.right, level + (not right))}"
        )
        return f"({text})" if _level > level else text
    if isinstance(formula, Atom):
        return f"{formula.predicate}({formula.index})"
    if isinstance(formula, PropVar):
        return formula.name
    if isinstance(formula, Not):
        return f"~{formula_to_str(formula.body, _NOT_LEVEL)}"
    if isinstance(formula, (Forall, Exists)):
        word = "forall" if isinstance(formula, Forall) else "exists"
        inner = formula_to_str(formula.body, 0)
        text = f"{word} {formula.var} in {_domain_to_str(formula.domain)}. {inner}"
        return f"({text})" if _level > 0 else text
    raise TypeError(f"not a formula: {formula!r}")
