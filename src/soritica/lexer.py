"""The front end both text languages share: tokens, offsets, a descent base.

The number language (``3 - 2*e^(1/2) + L(0)``) and the formula language
(``forall n in 1..9. S(n) -> S(n+1)``) differ only in their token
patterns and grammars; each parser raises its own error type.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Any, Callable, Mapping, NamedTuple, Optional, Type, Union

from .bounds import MAX_NESTING


class TextError(ValueError):
    """Raised on malformed textual input; carries the failing offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


class Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int
    #: A ``num`` token's exact value: an ``int`` when integral, else a
    #: ``Fraction``; ``None`` for a numeral past Python's digit limit.
    value: Optional[Union[int, Fraction]] = None


class Infix(NamedTuple):
    """How an infix operator binds, and what it builds."""

    level: int  # 1 or more; a higher level binds tighter
    right: bool  # a chain of it groups to the right
    meaning: Any  # what ``join`` builds from the two operands


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
