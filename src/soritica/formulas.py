"""Formula AST and parser for the soritical argument language.

Surface syntax (ASCII): ``~ & | -> <->``, bounded quantifiers
``forall n in 1..9. ...`` / ``exists n in D. ...``, soritical atoms
``S(n)``, ``S(n+1)``, ``S(3)``, and bare propositional variables.
Precedence: ``~`` binds tightest, then ``& | -> <->``; quantifiers bind
loosest.  Quantifier domains are finite and explicit; named domains are
resolved at evaluation time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .bounds import MAX_NESTING

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


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


@dataclass(frozen=True)
class Index:
    """Index term: a literal, or a bound variable plus an offset."""

    var: Optional[str]
    offset: int

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
    r"|(?P<op><->|->|\.\.|[~&|().+,])"
)

_KEYWORDS = {"forall", "exists", "in"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(
                f"unexpected character {text[pos]!r}", pos
            )
        tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent formula parser.

    Parentheses, ``~`` and quantifiers nest at most ``MAX_NESTING`` deep.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "end":
            self.index += 1
        return token

    def at_op(self, text: str) -> bool:
        token = self.peek()
        return token.kind == "op" and token.text == text

    def expect_op(self, text: str) -> _Token:
        if not self.at_op(text):
            token = self.peek()
            raise FormulaSyntaxError(f"expected {text!r}", token.pos)
        return self.advance()

    def descend(self, token: _Token) -> None:
        """Enter one more nesting level, opened by ``token``."""
        if self.depth == MAX_NESTING:
            raise FormulaSyntaxError(
                f"nesting deeper than {MAX_NESTING} levels", token.pos
            )
        self.depth += 1

    def parse(self) -> Formula:
        formula = self.parse_formula()
        token = self.peek()
        if token.kind != "end":
            raise FormulaSyntaxError(
                f"unexpected token {token.text!r}", token.pos
            )
        return formula

    def parse_formula(self) -> Formula:
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
            body = self.parse_formula()
            self.depth -= 1
            cls = Forall if token.text == "forall" else Exists
            return cls(var_token.text, domain, body)
        return self.parse_iff()

    def parse_domain(self) -> Domain:
        token = self.peek()
        if token.kind == "num":
            lo = int(self.advance().text)
            self.expect_op("..")
            hi_token = self.peek()
            if hi_token.kind != "num":
                raise FormulaSyntaxError(
                    "expected the domain upper bound", hi_token.pos
                )
            hi = int(self.advance().text)
            return (lo, hi)
        if token.kind == "name" and token.text not in _KEYWORDS:
            return self.advance().text
        raise FormulaSyntaxError("expected a finite domain", token.pos)

    def parse_iff(self) -> Formula:
        formula = self.parse_implies()
        while self.at_op("<->"):
            self.advance()
            formula = Iff(formula, self.parse_implies())
        return formula

    def parse_implies(self) -> Formula:
        formula = self.parse_or()
        if self.at_op("->"):
            self.advance()
            return Implies(formula, self.parse_implies())
        return formula

    def parse_or(self) -> Formula:
        formula = self.parse_and()
        while self.at_op("|"):
            self.advance()
            formula = Or(formula, self.parse_and())
        return formula

    def parse_and(self) -> Formula:
        formula = self.parse_unary()
        while self.at_op("&"):
            self.advance()
            formula = And(formula, self.parse_unary())
        return formula

    def parse_unary(self) -> Formula:
        token = self.peek()
        if self.at_op("~"):
            self.advance()
            self.descend(token)
            formula = Not(self.parse_unary())
            self.depth -= 1
            return formula
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
                return Atom(token.text, index)
            return PropVar(token.text)
        raise FormulaSyntaxError("expected a formula", token.pos)

    def parse_index(self) -> Index:
        token = self.peek()
        if token.kind == "num":
            return Index(None, int(self.advance().text))
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
                offset = int(self.advance().text)
            return Index(var, offset)
        raise FormulaSyntaxError("expected an index term", token.pos)


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()


def _domain_to_str(domain: Domain) -> str:
    if isinstance(domain, str):
        return domain
    return f"{domain[0]}..{domain[1]}"


# precedence levels for minimal-paren printing
_LEVELS = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}


def formula_to_str(formula: Formula, _level: int = 0) -> str:
    if isinstance(formula, Atom):
        return f"{formula.predicate}({formula.index})"
    if isinstance(formula, PropVar):
        return formula.name
    if isinstance(formula, (Forall, Exists)):
        word = "forall" if isinstance(formula, Forall) else "exists"
        inner = formula_to_str(formula.body, 0)
        text = f"{word} {formula.var} in {_domain_to_str(formula.domain)}. {inner}"
        return f"({text})" if _level > 0 else text
    if isinstance(formula, Not):
        return f"~{formula_to_str(formula.body, _LEVELS[Not])}"
    for cls, symbol in ((Iff, "<->"), (Implies, "->"), (Or, "|"), (And, "&")):
        if isinstance(formula, cls):
            level = _LEVELS[cls]
            # -> is right associative; the other binaries left associative
            if cls is Implies:
                left = formula_to_str(formula.left, level + 1)
                right = formula_to_str(formula.right, level)
            else:
                left = formula_to_str(formula.left, level)
                right = formula_to_str(formula.right, level + 1)
            text = f"{left} {symbol} {right}"
            return f"({text})" if _level >= level + 1 else text
    raise TypeError(f"not a formula: {formula!r}")
