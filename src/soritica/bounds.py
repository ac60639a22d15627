"""Fixed bounds on the work one input may ask for, shared across modules."""

from __future__ import annotations

__all__ = ["BoundExceeded", "MAX_NESTING", "MAX_POWER"]


class BoundExceeded(ValueError):
    """An input asks for more work than a fixed bound allows."""


#: Deepest nesting of parentheses and prefix operators (unary ``-`` in
#: number expressions, ``~`` in formulas) that either parser accepts.  The
#: formula parser spends about six stack frames per level, so this stays
#: well inside Python's default recursion limit of 1000.
MAX_NESTING = 100

#: Largest integer power ``x ** n`` of a series or an external number.
#: Each power is a chain of ``n`` products, and the terms of a power can
#: grow with ``n``, so the work is bounded here rather than by the caller.
MAX_POWER = 64
