"""The truth values that the logic and the Sorites workbench share.

``TRUE``, ``HALF`` and ``FALSE`` are the strong Kleene values as exact
fractions, and ``SuperVerdict`` is a supervaluation verdict.  They live here
so that ``soritica.sorites`` uses them without loading the formula language;
``soritica.semantics`` re-exports the same objects.
"""

from __future__ import annotations

import enum
from fractions import Fraction

__all__ = ["TRUE", "FALSE", "HALF", "SuperVerdict"]

TRUE = Fraction(1)
FALSE = Fraction(0)
HALF = Fraction(1, 2)


class SuperVerdict(enum.Enum):
    SUPERTRUE = "Supertrue"
    SUPERFALSE = "Superfalse"
    INDETERMINATE = "Indeterminate"
