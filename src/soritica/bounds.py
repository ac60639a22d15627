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
#: accepts.  A level of parentheses costs the formula parser three stack
#: frames and the number parser four (measured at 100 levels); a prefix
#: operator or a quantifier costs one.  So 100 levels take at most about
#: 400 of Python's default recursion limit of 1000.
MAX_NESTING = 100

#: Tallest formula tree the formula parser builds, a leaf counting 1.  A
#: chain of connectives is read by a loop, so only this bound keeps a tree
#: within what recursive walks over it can reach.  The printer,
#: ``eval_classical`` and ``eval_super`` spend one stack frame per level;
#: the generated ``==`` and ``repr`` of the frozen dataclass nodes spend
#: three, so 250 levels take about 750 of Python's default 1000 frames.
#: ``eval_k3``, ``eval_fuzzy`` and both tautology searches spend a frame
#: per quantifier level only: they read the tree with explicit stacks and
#: run the plan in a loop.
MAX_HEIGHT = 250

#: Largest integer power ``x ** n`` of a series or an external number.
#: Each power is a chain of ``n`` products, and the terms of a power can
#: grow with ``n``, so the work is bounded here rather than by the caller.
MAX_POWER = 64

#: Most values a quantifier domain may hold, literal (``1..9``) or named.
#: The evaluators visit every value of a domain, so its size, not the
#: length of its text, would otherwise set the work.
MAX_DOMAIN = 10_000
