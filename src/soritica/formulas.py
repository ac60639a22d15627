"""Formula AST and parser for the soritical argument language.

Surface syntax (ASCII): ``~ & | -> <->``, bounded quantifiers
``forall n in 1..9. ...`` / ``exists n in D. ...``, soritical atoms
``S(n)``, ``S(n+1)``, ``S(3)``, and bare propositional variables.
Precedence: ``~`` binds tightest, then ``& | -> <->``; quantifiers bind
loosest.  Quantifier domains are finite and explicit, with signed bounds
(``-3..3``); named domains are resolved at evaluation time.  An atom
written without spaces, as the printer writes it, is read as one token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple, Union

from ._trusted import trusted
from .bounds import MAX_HEIGHT
from .lexer import Descent, Infix, Prefix, TextError

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


def _name(what: str, value) -> None:
    if type(value) is not str or not _is_name(value):
        raise TypeError(f"{what} must be a name, got {value!r}")


def _quantifier(node) -> None:
    # A domain is a name or a tuple of two ints, and a bool is not an int.
    _name("quantifier variable", node.var)
    domain = node.domain
    if type(domain) is tuple:
        if len(domain) == 2 and type(domain[0]) is int and type(domain[1]) is int:
            return
    elif type(domain) is str and _is_name(domain):
        return
    raise TypeError(f"quantifier domain must be a name or two ints, got {domain!r}")


@dataclass(frozen=True, slots=True)
class Index:
    """Index term: a literal, or a bound variable plus an offset.

    The grammar writes a variable's offset as ``n+k``, so it is refused
    below 0.  A literal (``var`` of ``None``) may be any integer, written
    with an optional ``-``: ``S(-2)``.  A non-``int`` offset (a ``bool``
    too) and a variable that is not a name are refused: both would print
    as text that does not parse back as this index.
    """

    var: Optional[str]
    offset: int

    def __post_init__(self):
        var, offset = self.var, self.offset
        if type(offset) is not int:
            raise TypeError(f"index offset must be an int, got {offset!r}")
        if var is not None:
            _name("index variable", var)
            if offset < 0:
                raise ValueError(f"negative offset {offset} of {var!r}")

    def __str__(self) -> str:
        if self.var is None:
            return str(self.offset)
        if self.offset == 0:
            return self.var
        return f"{self.var}+{self.offset}"


Domain = Union[str, Tuple[int, int]]


@dataclass(frozen=True, slots=True)
class Atom:
    predicate: str
    index: Index

    def __post_init__(self):
        _name("atom predicate", self.predicate)
        if type(self.index) is not Index:
            raise TypeError(f"atom index must be an Index, got {self.index!r}")


@dataclass(frozen=True, slots=True)
class PropVar:
    name: str

    def __post_init__(self):
        _name("propositional variable", self.name)


@dataclass(frozen=True, slots=True)
class Not:
    body: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Forall:
    var: str
    domain: Domain
    body: "Formula"

    __post_init__ = _quantifier


@dataclass(frozen=True, slots=True)
class Exists:
    var: str
    domain: Domain
    body: "Formula"

    __post_init__ = _quantifier


#: Nodes of exactly these classes: to every walker a subclass is not a formula.
Formula = Union[Atom, PropVar, Not, And, Or, Implies, Iff, Forall, Exists]


_NAME = r"[A-Za-z_][A-Za-z_0-9]*"

#: The operators.  None starts with a letter or a digit, so trying them
#: first changes no token and spares the other alternatives at each one.
_OPERATOR = r"<->|->|\.\.|[~&|().+,-]"

#: The tokens of the grammar: operators, numerals and names.  A token holds
#: no whitespace.
_PLAIN_TOKEN_RE = re.compile(rf"{_OPERATOR}|\d+|{_NAME}")

#: An atom written without spaces, ``S(3)``, ``S(n)`` or ``S(n+1)``: the
#: form ``formula_to_str`` prints, read as a single token.
_ATOM_RE = re.compile(rf"({_NAME})\((?:(\d+)|({_NAME})(?:\+(\d+))?)\)")

_TOKEN_RE = re.compile(rf"{_OPERATOR}|{_NAME}\((?:\d+|{_NAME}(?:\+\d+)?)\)|\d+|{_NAME}")

_KEYWORDS = {"forall", "exists", "in"}


def _is_name(token: str) -> bool:
    # Of the formula tokens, only a name is an identifier; names are ASCII.
    return token.isidentifier() and token.isascii() and token not in _KEYWORDS


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

# The checks of the node classes hold for every node the grammar can write.
_index, _atom, _propvar = trusted(Index), trusted(Atom), trusted(PropVar)

#: The parser's tables: ``_BINARY`` and the prefix operators, each with the
#: trusted constructor of its node class.
_JOINS = {
    symbol: infix._replace(meaning=trusted(infix.meaning))
    for symbol, infix in _BINARY.items()
}
_PREFIXES = {
    "~": Prefix(False, trusted(Not)),
    "forall": Prefix(True, trusted(Forall)),
    "exists": Prefix(True, trusted(Exists)),
}


class _Parser(Descent):
    """The formula parser: ``Descent``'s loop over the formula tables.

    ``~`` is a tight prefix op and a quantifier a loose one, whose head
    (``forall n in 1..9.``) :meth:`head` reads.  Parentheses, ``~`` and
    quantifiers nest at most ``MAX_NESTING`` deep.  Each operand and node
    is a formula with its height (a leaf is 1); once the whole text has
    parsed, a formula taller than ``MAX_HEIGHT`` is refused at the first
    node that crossed the bound.  It builds each node with the constructor
    :func:`~soritica._trusted.trusted` makes of its class, as the number
    core builds its values: the grammar writes only nodes the public
    constructors would accept, so their checks are skipped.

    An atom written without spaces is one token, and each such token is
    turned into an ``Atom`` once per parse and kept in ``leaves``: where
    it recurs, the parse reuses that node.  Such a token is only ever read
    as an atom: anywhere else, or with a keyword in it, or with a numeral
    too long to convert, it is an error, and :func:`parse_formula` then
    reads the whole text again with ``_PlainParser``, which lexes every
    atom as its parts; that parse gives the error and its offset.
    """

    pattern = _TOKEN_RE
    error = FormulaSyntaxError
    infixes = _JOINS
    prefixes = _PREFIXES

    def __init__(self, text: str):
        super().__init__(text)
        self.too_tall: Optional[int] = None

    def parse(self) -> Formula:
        formula, _ = super().parse()
        if self.too_tall is not None:
            raise self.fail(f"formula taller than {MAX_HEIGHT} levels", self.too_tall)
        return formula

    def join(self, index: int, build, left, right) -> Tuple[Formula, int]:
        (a, a_height), (b, b_height) = left, right
        height = (a_height if a_height > b_height else b_height) + 1
        if height > MAX_HEIGHT and self.too_tall is None:
            self.too_tall = index
        return build(a, b), height

    def apply(self, index: int, build, operand) -> Tuple[Formula, int]:
        body, height = operand
        height += 1
        if height > MAX_HEIGHT and self.too_tall is None:
            self.too_tall = index
        return build(body), height

    def head(self, build):
        """A quantifier's variable and domain, up to its ``.``."""
        var = self.tokens[self.index]
        if not _is_name(var):
            raise self.fail("expected a quantifier variable")
        self.index += 1
        self.expect("in")
        domain = self.parse_domain()
        self.expect(".")
        return partial(build, var, domain)

    def parse_domain(self) -> Domain:
        token = self.tokens[self.index]
        if token[:1].isdecimal() or token == "-":
            lo = self.parse_signed_rational("a finite domain")
            self.expect("..")
            hi = self.parse_signed_rational("the domain upper bound")
            return (lo, hi)
        if _is_name(token):
            self.index += 1
            return token
        raise self.fail("expected a finite domain")

    def primary(self) -> Tuple[Formula, int]:
        tokens = self.tokens
        start = self.index
        token = tokens[start]
        if _is_name(token):
            self.index = start + 1
            if tokens[start + 1] == "(":
                self.index = start + 2
                index = self.parse_index()
                self.expect(")")
                return _atom(token, index), 1
            return _propvar(token), 1
        match = _ATOM_RE.fullmatch(token)
        if match is None:
            raise self.fail("expected a formula")
        predicate, literal, var, offset = match.groups()
        if predicate in _KEYWORDS or var in _KEYWORDS:
            raise self.fail("a keyword in an atom")
        try:
            if var is None:
                index = _index(None, int(literal))
            else:
                index = _index(var, int(offset) if offset else 0)
        except ValueError:  # past the digit limit of int(str)
            raise self.fail("a numeral too long") from None
        leaf = self.leaves[token] = _atom(predicate, index), 1
        self.index = start + 1
        return leaf

    def parse_index(self) -> Index:
        token = self.tokens[self.index]
        if token[:1].isdecimal() or token == "-":
            return _index(None, self.parse_signed_rational("an index term"))
        if _is_name(token):
            self.index += 1
            offset = 0
            if self.tokens[self.index] == "+":
                self.index += 1
                if not self.tokens[self.index][:1].isdecimal():
                    raise self.fail("expected an offset")
                offset = self.numeral()
            return _index(token, offset)
        raise self.fail("expected an index term")


class _PlainParser(_Parser):
    """The formula parser with every atom lexed as its parts."""

    pattern = _PLAIN_TOKEN_RE


def parse_formula(text: str) -> Formula:
    try:
        return _Parser(text).parse()
    except FormulaSyntaxError:
        return _PlainParser(text).parse()


def _domain_to_str(domain: Domain) -> str:
    if isinstance(domain, str):
        return domain
    return f"{domain[0]}..{domain[1]}"


def formula_to_str(formula: Formula, _level: int = 0) -> str:
    """``formula`` in the parser's syntax, with the fewest parentheses."""
    kind = type(formula)
    binary = _SYMBOLS.get(kind)
    if binary is not None:
        symbol, (level, right, _) = binary
        # An operand of the same level needs parentheses on the side the
        # connective does not group to.
        text = (
            f"{formula_to_str(formula.left, level + right)} {symbol} "
            f"{formula_to_str(formula.right, level + (not right))}"
        )
        return f"({text})" if _level > level else text
    if kind is Atom:
        return f"{formula.predicate}({formula.index})"
    if kind is PropVar:
        return formula.name
    if kind is Not:
        return f"~{formula_to_str(formula.body, _NOT_LEVEL)}"
    if kind is Forall or kind is Exists:
        word = "forall" if kind is Forall else "exists"
        inner = formula_to_str(formula.body, 0)
        text = f"{word} {formula.var} in {_domain_to_str(formula.domain)}. {inner}"
        return f"({text})" if _level > 0 else text
    raise TypeError(f"not a formula: {formula!r}")
