"""Fixed bounds on the work one input may ask for, shared across modules."""

from __future__ import annotations

__all__ = [
    "BoundExceeded",
    "MAX_DOMAIN",
    "MAX_HEIGHT",
    "MAX_NESTING",
    "MAX_POWER",
]


class BoundExceeded(ValueError):
    """An input asks for more work than a fixed bound allows."""


#: Deepest nesting of parentheses, prefix operators (unary ``-`` in number
#: expressions, ``~`` in formulas) and quantifiers that either parser
#: accepts, checked at the token that opens the level past it.  Both
#: parsers read a text with one loop and keep open levels on an explicit
#: stack, so a level costs them no Python frame: the bound is part of the
#: two languages, not a guard of the parsers' own stack.  It keeps every
#: accepted text within reach of a recursive descent over the same grammar
#: (the reference parsers the tests compare with take up to seven frames a
#: level, about 730 of Python's default recursion limit of 1000 at 100
#: levels), and it bounds how deep quantifiers nest in a formula tree.
MAX_NESTING = 100

#: Tallest formula tree the formula parser builds, a leaf counting 1 and a
#: group adding no level.  The parse loop both parsers share checks it next
#: to ``MAX_NESTING``, at the first node past it; number texts have no height
#: bound, as their values are computed as they are read.  That loop reads
#: chains of connectives and nested levels alike without recursing, so only
#: this bound keeps a tree within what recursive walks over it can reach.
#: The printer, ``eval_classical`` and ``eval_super`` spend one stack frame
#: per level; the generated ``==`` and ``repr`` of the frozen dataclass
#: nodes spend three and ``hash`` two, so 250 levels take about 750 of
#: Python's default 1000 frames.  ``eval_k3``, ``eval_fuzzy`` and both
#: tautology searches spend a frame per quantifier level only: they read
#: the tree with explicit stacks and run the plan in a loop.
MAX_HEIGHT = 250

#: Largest integer power ``x ** n`` of a series or an external number.
#: Each power is a chain of ``n`` products, and the terms of a power can
#: grow with ``n``, so the work is bounded here rather than by the caller.
MAX_POWER = 64

#: Most values a quantifier domain may hold, literal (``1..9``) or named.
#: The evaluators visit every value of a domain, so its size, not the
#: length of its text, would otherwise set the work.
MAX_DOMAIN = 10_000
