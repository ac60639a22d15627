"""The front end both text languages share: tokens, offsets, a descent base.

The number language (``3 - 2*e^(1/2) + L(0)``) and the formula language
(``forall n in 1..9. S(n) -> S(n+1)``) differ only in their token
patterns and grammars; each parser raises its own error type.

A token is its text.  One ``findall`` reads a whole text into a list of
strings, ended by ``""``.  A name, a numeral and an operator never share a
text, so the text also tells the kind: a numeral is the one kind that
starts with a decimal digit, ``token[:1].isdecimal()`` (what ``\\d``
matches; ``isdigit`` also takes ``²``).  A token's offset is found again
only when an error needs it.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice
from typing import Any, Callable, Mapping, NamedTuple, Type

from .bounds import MAX_NESTING


class TextError(ValueError):
    """Raised on malformed textual input; carries the failing offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


class Infix(NamedTuple):
    """How an infix operator binds, and what it builds."""

    level: int  # 1 or more; a higher level binds tighter
    right: bool  # a chain of it groups to the right
    meaning: Any  # what ``join`` builds from the two operands


def _zero_denominator(token: str) -> bool:
    """Whether ``token`` is ``digits/digits`` over a zero denominator.

    A denominator past the digit limit of ``int(str)`` is left to the
    grammar, which refuses the numeral when it reads it.
    """
    _, slash, denominator = token.partition("/")
    try:
        return bool(slash) and int(denominator) == 0
    except ValueError:
        return False


def tokenize(text: str, pattern: re.Pattern, error: Type[TextError]) -> list[str]:
    """The texts of ``pattern``'s matches in ``text``, then ``""``.

    Only whitespace may lie between them.  The first unmatched character or
    zero denominator in the text raises ``error`` at its offset.
    """
    tokens = pattern.findall(text)
    # Tokens never overlap and hold no whitespace, so they cover every other
    # character exactly when their lengths add up to the count of those.
    if len("".join(tokens)) != len("".join(text.split())) or (
        "/" in text and any(map(_zero_denominator, tokens))
    ):
        pos = 0  # read token by token up to the fault, for its offset
        while True:
            if text[pos].isspace():
                pos += 1
                continue
            m = pattern.match(text, pos)
            if m is None:
                raise error(f"unexpected character {text[pos]!r}", pos)
            if _zero_denominator(m.group()):
                raise error(f"zero denominator in {m.group()!r}", pos)
            pos = m.end()
    tokens.append("")
    return tokens


class Descent:
    """Recursive-descent base: a token cursor and the nesting guard.

    A subclass sets ``pattern`` (with no groups) and ``error`` and defines
    ``parse_root``; :meth:`parse` runs it and refuses leftover tokens.  The
    grammar reads ``tokens[index]`` and moves ``index`` past what it takes,
    never past the end marker.  Parentheses and prefix operators go through
    :meth:`enter`, at most ``MAX_NESTING`` deep; chains of infix operators
    go through :meth:`parse_infix`.
    """

    pattern: re.Pattern
    error: Type[TextError]

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text, self.pattern, self.error)
        self.index = 0
        self.depth = 0

    def parse(self):
        value = self.parse_root()
        token = self.tokens[self.index]
        if token:
            raise self.fail(f"unexpected token {token!r}")
        return value

    def fail(self, message: str, index: int | None = None) -> TextError:
        """The error at token ``index`` (the next one by default), whose
        offset is found here by matching the text anew."""
        if index is None:
            index = self.index
        match = next(islice(self.pattern.finditer(self.text), index, None), None)
        return self.error(message, len(self.text) if match is None else match.start())

    def expect(self, token: str) -> None:
        """Take ``token``; else ``expected <token>``."""
        if self.tokens[self.index] != token:
            raise self.fail(f"expected {token!r}")
        self.index += 1

    def enter(self) -> None:
        """Take the token that opens one more nesting level."""
        if self.depth == MAX_NESTING:
            raise self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        self.index += 1

    def parse_infix(
        self,
        operand: Callable[[], Any],
        table: Mapping[str, Infix],
        join: Callable[[int, Any, Any, Any], Any],
    ):
        """Operands read by ``operand``, between ops of ``table``, folded.

        ``join(index, meaning, left, right)`` builds the node of the op at
        token ``index``.  The ops wait on an explicit stack, so a chain never
        recurses, and each node is joined as soon as its right operand is
        complete: in the order a descent with one rule per level would join
        them.
        """
        tokens = self.tokens
        values = [operand()]
        pending: list[tuple[int, Infix]] = []
        while True:
            infix = table.get(tokens[self.index])
            # Join the waiting ops that bind at least as tight as this one;
            # an op that groups right leaves those of its own level waiting.
            level = 0 if infix is None else infix.level + infix.right
            while pending and pending[-1][1].level >= level:
                at, waiting = pending.pop()
                right = values.pop()
                values[-1] = join(at, waiting.meaning, values[-1], right)
            if infix is None:
                return values[0]
            pending.append((self.index, infix))
            self.index += 1
            values.append(operand())

    def numeral(self):
        """Take the next token, a numeral, and give its exact value.

        A numeral too long to convert is refused here, when the grammar
        reads it, so that errors earlier in the text come first.
        """
        numerator, slash, denominator = self.tokens[self.index].partition("/")
        try:
            n = int(numerator)
            d = int(denominator) if slash else 1
        except ValueError:  # past the digit limit of int(str)
            raise self.fail(
                f"numeral longer than {sys.get_int_max_str_digits()} digits"
            ) from None
        self.index += 1
        return n // d if n % d == 0 else Fraction(n, d)

    def parse_signed_rational(self, what: str):
        """An optional ``-`` and a numeral; else ``expected <what>``."""
        negative = self.tokens[self.index] == "-"
        if negative:
            self.index += 1
        if not self.tokens[self.index][:1].isdecimal():
            raise self.fail(f"expected {what}")
        value = self.numeral()
        return -value if negative else value
