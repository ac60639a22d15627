"""The front end both text languages share: tokens, offsets, one parse loop.

The number language (``3 - 2*e^(1/2) + L(0)``) and the formula language
(``forall n in 1..9. S(n) -> S(n+1)``) differ only in their token
patterns, their operands and their tables of prefix and infix operators;
each parser raises its own error type.

A token is its text.  One ``findall`` reads a whole text into a list of
strings, ended by ``""``.  A name, a numeral and an operator never share a
text, so the text also tells the kind: a numeral is the one kind that
starts with a decimal digit, ``token[:1].isdecimal()`` (what ``\\d``
matches; ``isdigit`` also takes ``²``).  A token's offset is found again
only when an error needs it.

One loop, :meth:`Descent.parse`, reads the tokens of either language:
parentheses, prefix and infix operators wait on an explicit stack, so no
parse recurses: the Python stack it uses does not grow with how deep the
text nests or how long its chains are.  It checks both bounds on a text:
how deep it nests and how tall a tree it builds.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice
from typing import Any, Mapping, NamedTuple, Type

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
    meaning: Any  # builds the node from the two operands


class Prefix(NamedTuple):
    """How a prefix operator binds, and what it builds."""

    # A loose op binds loosest: it stands only where the text, a group or
    # another loose op's operand starts, and takes the rest of that group.
    # Any other binds tighter than every infix op and takes the next operand.
    loose: bool
    meaning: Any  # builds the node from the operand


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
    # Only a token with a slash can have a zero denominator.  The scan below
    # must find a fault wherever this check flags one, or it runs off the end.
    if len("".join(tokens)) != len("".join(text.split())) or (
        "/" in text
        and any(map(_zero_denominator, [token for token in tokens if "/" in token]))
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


#: Levels on the stack of :meth:`Descent.parse`, below and above those of
#: the infix ops (1 or more): what nothing joins, an open group, a loose
#: prefix op (joined where its group ends) and a tight one (joined before
#: any infix op).
_BOTTOM, _GROUP, _LOOSE, _TIGHT = -2, -1, 0, sys.maxsize


class Descent:
    """The parser base: a token cursor and one loop that reads a whole text.

    A subclass sets ``pattern`` (with no groups), ``error``, ``infixes``
    and ``prefixes``, may set ``max_height``, and defines ``primary``,
    which reads one operand from ``tokens[index]`` and moves ``index`` past
    it, never past the end marker.  :meth:`parse` reads everything else:
    parentheses, prefix ops and infix ops all wait on one explicit stack,
    so neither a chain nor a nesting recurses, and it builds each op's node
    with the ``meaning`` of its table entry.  A grammar with a loose prefix
    op also defines ``head``, which reads what stands between that op and
    its operand from ``index`` on and gives the meaning to build that node
    with.  Parentheses and prefix ops nest at most ``MAX_NESTING`` deep,
    and no tree is taller than ``max_height`` (a leaf counts 1, a group
    adds no level).  No operand is ``None``.
    """

    pattern: re.Pattern
    error: Type[TextError]
    infixes: Mapping[str, Infix]
    prefixes: Mapping[str, Prefix]
    #: No bound by default: the number grammar computes each value as it
    #: reads it, so it leaves no tree for a recursive walk to overflow on.
    max_height = sys.maxsize

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text, self.pattern, self.error)
        self.index = 0
        #: Operands by their token, for ``primary`` to keep one in that is
        #: read the same wherever its token recurs; the loop reuses it.
        self.leaves: dict[str, Any] = {}

    def parse(self):
        """The value of the whole text, or the error at its first fault.

        Each node is built as soon as its last operand is complete: in the
        order a descent with one rule per level would build them.  A tree
        taller than ``max_height`` is refused at the first node past it,
        once the whole text has parsed with no other fault.
        """
        tokens, leaves = self.tokens, self.leaves
        prefixes, infixes, max_height = self.prefixes, self.infixes, self.max_height
        primary = self.primary
        # What waits for an operand, as ``(level, token index, meaning,
        # left operand, its height)``; a group or a prefix op has none.
        pending: list[tuple] = [(_BOTTOM, 0, None, None, 0)]
        depth = 0  # the groups and prefix ops on ``pending``
        too_tall = None  # the token index of the first node past max_height
        index = 0
        start = True  # where a group starts, so a loose prefix may stand
        while True:
            # Take prefix ops and open groups up to an operand, and read it.
            token = tokens[index]
            value = leaves.get(token)
            if value is not None:
                index += 1
            else:
                prefix = prefixes.get(token)
                if token == "(" or prefix is not None and (start or not prefix.loose):
                    if depth == MAX_NESTING:
                        raise self.fail(f"nesting deeper than {MAX_NESTING} levels", index)
                    depth += 1
                    at = index
                    index += 1
                    if prefix is None:
                        pending.append((_GROUP, at, None, None, 0))
                        start = True
                    elif prefix.loose:
                        self.index = index
                        pending.append((_LOOSE, at, self.head(prefix.meaning), None, 0))
                        index = self.index
                    else:
                        pending.append((_TIGHT, at, prefix.meaning, None, 0))
                        start = False
                    continue
                self.index = index
                value = primary()
                index = self.index
            height = 1
            # The operand is complete: join what binds at least as tight as
            # the op after it (an op that groups right leaves those of its
            # own level waiting), and close each group that ends there.
            while True:
                token = tokens[index]
                infix = infixes.get(token)
                level = 0 if infix is None else infix.level + infix.right
                while pending[-1][0] >= level:
                    _, at, meaning, left, left_height = pending.pop()
                    if left is None:
                        depth -= 1
                        value = meaning(value)
                    else:
                        value = meaning(left, value)
                        if left_height > height:
                            height = left_height
                    height += 1
                    if height > max_height and too_tall is None:
                        too_tall = at
                if infix is not None:
                    break
                if pending[-1][0] == _BOTTOM:
                    if token:
                        raise self.fail(f"unexpected token {token!r}", index)
                    if too_tall is not None:
                        raise self.fail(f"formula taller than {max_height} levels", too_tall)
                    return value
                if token != ")":
                    raise self.fail("expected ')'", index)
                pending.pop()
                depth -= 1
                index += 1
            pending.append((infix.level, index, infix.meaning, value, height))
            index += 1
            start = False

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
