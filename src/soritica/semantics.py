"""Evaluation semantics: classical, Kleene three-valued, fuzzy, supervaluation.

The three-valued and fuzzy evaluators share one graded core: the strong
Kleene connectives of ``GRADED`` on degrees over a top value ``top``
(``& = min``, ``| = max``, ``x -> y = max(top-x, y)``), ``~x = top-x``,
and quantifiers folded by min/max over their finite domains.  Fuzzy
degrees are ``Fraction``s over ``top = 1``; K3 values are integer halves,
0, 1 and 2 over ``top = 2``, so a K3 walk does no ``Fraction``
arithmetic.  Each evaluation asks for every distinct atom ``(pred, n)``
once and checks it once.  The classical evaluator is a separate boolean
walk that does not read ``GRADED``, so the conservativity checks compare
genuinely independent code paths.

The K3 tautology tests do not enumerate all 3^v assignments.  Strong
Kleene is regular (Kleene 1952): refining a 1/2 to 0 or 1 never changes
a defined value.  So a formula is 1 under every assignment iff it is 1
under the all-1/2 one, and it is 0 under some assignment iff it is 0
under some classical one; one and 2^v evaluations decide the two tests.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from numbers import Rational
from typing import Callable, Dict, Mapping, Optional, Tuple

from .bounds import MAX_DOMAIN, BoundExceeded
from .formulas import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Index,
    Not,
    Or,
    PropVar,
)

__all__ = [
    "TRUE",
    "FALSE",
    "HALF",
    "K3_VALUES",
    "SuperVerdict",
    "UnboundAtom",
    "BoundExceeded",
    "EmptyFamily",
    "eval_k3",
    "eval_fuzzy",
    "eval_classical",
    "eval_super",
    "is_tautology_k3",
    "quasi_tautology_k3",
    "collect_variables",
    "kleene_tables",
    "GRADED",
]

TRUE = Fraction(1)
FALSE = Fraction(0)
HALF = Fraction(1, 2)
K3_VALUES = (TRUE, FALSE, HALF)


class UnboundAtom(KeyError):
    pass


class EmptyFamily(ValueError):
    pass


class SuperVerdict(enum.Enum):
    SUPERTRUE = "Supertrue"
    SUPERFALSE = "Superfalse"
    INDETERMINATE = "Indeterminate"


Domains = Mapping[str, Tuple[int, int]]
AtomFn = Callable[[str, int], Rational]


def _resolve_index(index: Index, env: Dict[str, int]) -> int:
    if index.var is None:
        return index.offset
    if index.var not in env:
        raise UnboundAtom(f"unbound index variable {index.var!r}")
    return env[index.var] + index.offset


def _domain_range(domain, domains: Optional[Domains], scale: int) -> range:
    """The values of a literal or named domain.

    ``scale`` is the product of the sizes of the enclosing quantifiers'
    domains, so the body is evaluated ``scale`` times the size of this one
    in all; that product may be at most ``MAX_DOMAIN``.
    """
    if isinstance(domain, tuple):
        lo, hi = domain
    else:
        if not domains or domain not in domains:
            raise UnboundAtom(f"unknown quantifier domain {domain!r}")
        lo, hi = domains[domain]
    if (hi - lo + 1) * scale > MAX_DOMAIN:
        nested = f" times {scale} enclosing" if scale > 1 else ""
        raise BoundExceeded(
            f"quantifier domain of {hi - lo + 1} values{nested} above {MAX_DOMAIN}"
        )
    return range(lo, hi + 1)


def _restore(env: Dict[str, int], var: str, outer: Optional[int]) -> None:
    """Give ``var`` back the binding ``outer`` it had before a quantifier.

    A quantifier that rebinds a variable of an enclosing one must leave the
    outer binding in place for the rest of the enclosing body.
    """
    if outer is None:
        env.pop(var, None)
    else:
        env[var] = outer


def _and(x, y, top=1):
    return y if y < x else x


def _or(x, y, top=1):
    return y if y > x else x


def _implies(x, y, top=1):
    return _or(top - x, y)


#: The strong-Kleene binary connectives on degrees over ``top`` (Kleene
#: 1952), read by the graded evaluator and by :func:`kleene_tables`;
#: ``~x`` is ``top - x``.  ``&`` and ``|`` are ``min`` and ``max``.
GRADED: Dict[type, Callable[..., Rational]] = {
    And: _and,
    Or: _or,
    Implies: _implies,
    Iff: lambda x, y, top=1: _and(_implies(x, y, top), _implies(y, x, top)),
}


def _eval_graded(
    formula: Formula,
    atom: AtomFn,
    propvars: Mapping[str, Rational],
    domains: Optional[Domains],
    env: Dict[str, int],
    top: Rational,
    scale: int = 1,
) -> Rational:
    connective = GRADED.get(type(formula))
    if connective is not None:
        return connective(
            _eval_graded(formula.left, atom, propvars, domains, env, top, scale),
            _eval_graded(formula.right, atom, propvars, domains, env, top, scale),
            top,
        )
    if isinstance(formula, Atom):
        return atom(formula.predicate, _resolve_index(formula.index, env))
    if isinstance(formula, PropVar):
        if formula.name not in propvars:
            raise UnboundAtom(f"unbound variable {formula.name!r}")
        return propvars[formula.name]
    if isinstance(formula, Not):
        return top - _eval_graded(formula.body, atom, propvars, domains, env, top, scale)
    if isinstance(formula, (Forall, Exists)):
        fold = _and if isinstance(formula, Forall) else _or
        value = None
        outer = env.get(formula.var)
        values = _domain_range(formula.domain, domains, scale)
        for n in values:
            env[formula.var] = n
            degree = _eval_graded(
                formula.body, atom, propvars, domains, env, top, scale * len(values)
            )
            value = degree if value is None else fold(value, degree)
        _restore(env, formula.var, outer)
        if value is None:
            raise UnboundAtom("empty quantifier domain")
        return value
    raise TypeError(f"not a formula: {formula!r}")


def _eval_degrees(
    formula: Formula,
    atoms,
    convert: Callable[[object], Rational],
    propvars: Mapping[str, object],
    domains: Optional[Domains],
    top: Rational,
) -> Rational:
    """The graded value of ``formula`` over ``top``.

    ``atoms`` gives the value of ``pred(n)``: a function of ``pred`` and
    ``n``, or a mapping keyed by ``(pred, n)``.  ``convert`` checks a given
    value and returns the degree the walk uses.  Every variable is
    converted before the walk; an atom is asked for, converted and stored
    the first time the walk meets it, so a value that fails stops the walk
    at that first meeting, and no value outlives the call.
    """
    if callable(atoms):
        source = atoms
    else:
        mapping = atoms if atoms is not None else {}

        def source(pred, n):
            if (pred, n) not in mapping:
                raise UnboundAtom(f"unbound atom {pred}({n})")
            return mapping[(pred, n)]

    memo: Dict[Tuple[str, int], Rational] = {}

    def atom(pred, n):
        value = memo.get((pred, n))
        if value is None:
            value = memo[pred, n] = convert(source(pred, n))
        return value

    propvars = {name: convert(v) for name, v in propvars.items()}
    return _eval_graded(formula, atom, propvars, domains, {}, top)


def _rational(value) -> Rational:
    """``value`` if it is exact; a float or a string is refused."""
    if not isinstance(value, Rational):
        raise ValueError(f"value {value!r} is not an exact rational")
    return value


#: The K3 values by their integer halves over ``top = 2``, and back.
_FROM_HALVES = (FALSE, HALF, TRUE)
_HALVES = {value: halves for halves, value in enumerate(_FROM_HALVES)}


def _k3_halves(value) -> int:
    halves = _HALVES.get(_rational(value))
    if halves is None:
        raise ValueError(f"K3 value {value} not in {{0, 1/2, 1}}")
    return halves


def _degree(value) -> Fraction:
    value = Fraction(_rational(value))
    if not 0 <= value <= 1:
        raise ValueError(f"degree {value} outside [0, 1]")
    return value


def eval_k3(
    formula: Formula,
    atoms=None,
    propvars: Mapping[str, Fraction] = {},
    domains: Optional[Domains] = None,
) -> Fraction:
    """Strong-Kleene evaluation; all values must lie in {0, 1/2, 1}.

    The value is one of ``FALSE``, ``HALF`` and ``TRUE``.
    """
    halves = _eval_degrees(formula, atoms, _k3_halves, propvars, domains, 2)
    return _FROM_HALVES[halves]


def eval_fuzzy(
    formula: Formula,
    membership=None,
    propvars: Mapping[str, Fraction] = {},
    domains: Optional[Domains] = None,
) -> Fraction:
    """Degree-valued evaluation with the Kleene-Zadeh connectives.

    Every degree, of an atom or a variable, must be a rational in [0, 1].
    """
    return _eval_degrees(formula, membership, _degree, propvars, domains, 1)


def _classical_inputs(cutoffs, propvars: Mapping[str, bool]) -> None:
    """Refuse a cutoff that is not an ``int`` or a variable that is not a ``bool``."""
    for cutoff in cutoffs:
        if not isinstance(cutoff, int) or isinstance(cutoff, bool):
            raise ValueError(f"cutoff {cutoff!r} is not an integer")
    for name, value in propvars.items():
        if not isinstance(value, bool):
            raise ValueError(f"variable {name!r} is {value!r}, not a bool")


def eval_classical(
    formula: Formula,
    cutoff: Optional[int] = None,
    propvars: Mapping[str, bool] = {},
    domains: Optional[Domains] = None,
) -> bool:
    """Two-valued evaluation; soritical atoms hold below the cutoff.

    The cutoff must be an ``int`` and every variable a ``bool``.
    """
    _classical_inputs(() if cutoff is None else (cutoff,), propvars)
    return _classical(formula, cutoff, propvars, domains, {}, 1)


def _classical(
    formula: Formula,
    cutoff: Optional[int],
    propvars: Mapping[str, bool],
    domains: Optional[Domains],
    env: Dict[str, int],
    scale: int,
) -> bool:
    if isinstance(formula, Atom):
        if cutoff is None:
            raise UnboundAtom("no cutoff supplied for soritical atoms")
        return _resolve_index(formula.index, env) < cutoff
    if isinstance(formula, PropVar):
        if formula.name not in propvars:
            raise UnboundAtom(f"unbound variable {formula.name!r}")
        return propvars[formula.name]
    if isinstance(formula, Not):
        return not _classical(formula.body, cutoff, propvars, domains, env, scale)
    if isinstance(formula, And):
        return _classical(
            formula.left, cutoff, propvars, domains, env, scale
        ) and _classical(formula.right, cutoff, propvars, domains, env, scale)
    if isinstance(formula, Or):
        return _classical(
            formula.left, cutoff, propvars, domains, env, scale
        ) or _classical(formula.right, cutoff, propvars, domains, env, scale)
    if isinstance(formula, Implies):
        return (
            not _classical(formula.left, cutoff, propvars, domains, env, scale)
        ) or _classical(formula.right, cutoff, propvars, domains, env, scale)
    if isinstance(formula, Iff):
        return _classical(
            formula.left, cutoff, propvars, domains, env, scale
        ) == _classical(formula.right, cutoff, propvars, domains, env, scale)
    if isinstance(formula, (Forall, Exists)):
        # No early exit: a short circuit in the body can leave an error
        # to a later value, and stopping at the verdict would hide it.
        forall = isinstance(formula, Forall)
        verdict = forall
        outer = env.get(formula.var)
        values = _domain_range(formula.domain, domains, scale)
        for n in values:
            env[formula.var] = n
            body = _classical(
                formula.body, cutoff, propvars, domains, env, scale * len(values)
            )
            if body is not forall:
                verdict = not forall
        _restore(env, formula.var, outer)
        return verdict
    raise TypeError(f"not a formula: {formula!r}")


def eval_super(
    formula: Formula,
    cutoffs,
    propvars: Mapping[str, bool] = {},
    domains: Optional[Domains] = None,
) -> SuperVerdict:
    """Supervaluation over a family of classical cutoff precisifications.

    Every cutoff must be an ``int`` and every variable a ``bool``.
    """
    cutoffs = list(cutoffs)
    if not cutoffs:
        raise EmptyFamily("a precisification family must be nonempty")
    _classical_inputs(cutoffs, propvars)
    verdicts = [
        _classical(formula, cutoff, propvars, domains, {}, 1) for cutoff in cutoffs
    ]
    if all(verdicts):
        return SuperVerdict.SUPERTRUE
    if not any(verdicts):
        return SuperVerdict.SUPERFALSE
    return SuperVerdict.INDETERMINATE


def collect_variables(formula: Formula) -> Tuple:
    """Ordered propositional variables and literal-index atoms.

    Quantified formulas are rejected here: the tautology searches are
    defined for the propositional fragment.
    """
    seen = []

    def walk(node):
        if isinstance(node, PropVar):
            key = node.name
            if key not in seen:
                seen.append(key)
        elif isinstance(node, Atom):
            if node.index.var is not None:
                raise ValueError(
                    "assignment search needs ground atoms; "
                    f"found open index {node.index}"
                )
            key = (node.predicate, node.index.offset)
            if key not in seen:
                seen.append(key)
        elif isinstance(node, Not):
            walk(node.body)
        elif isinstance(node, (And, Or, Implies, Iff)):
            walk(node.left)
            walk(node.right)
        else:
            raise ValueError("quantifier-free formula required")

    walk(formula)
    return tuple(seen)


_VAR_BOUND = 12


def _assignment_values(formula: Formula, values: Tuple):
    """Value of ``formula`` under each assignment drawn from ``values``."""
    variables = collect_variables(formula)
    if len(variables) > _VAR_BOUND:
        raise BoundExceeded(
            f"{len(variables)} variables exceed the bound {_VAR_BOUND}"
        )
    for combo in itertools.product(values, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        propvars = {k: v for k, v in assignment.items() if isinstance(k, str)}
        atoms = {k: v for k, v in assignment.items() if isinstance(k, tuple)}
        yield eval_k3(formula, atoms, propvars)


def is_tautology_k3(formula: Formula) -> bool:
    """True when every three-valued assignment yields 1.

    By regularity the least-defined assignment, all 1/2, decides it.
    """
    return all(v == TRUE for v in _assignment_values(formula, (HALF,)))


def quasi_tautology_k3(formula: Formula) -> bool:
    """True when no three-valued assignment yields 0.

    A 0 survives every classical refinement of its assignment, so the
    classical assignments decide it.
    """
    classical = _assignment_values(formula, (TRUE, FALSE))
    return all(v != FALSE for v in classical)


#: The columns of the binary table: header and connective.
_TABLE_COLUMNS = (("p|q", Or), ("p&q", And), ("p->q", Implies), ("p<->q", Iff))


def kleene_tables() -> str:
    """Fixed-width text rendering of the strong three-valued tables."""
    width = 6

    def line(cells) -> str:
        return "".join(str(cell).ljust(width) for cell in cells).rstrip()

    lines = [line(("p", "~p"))]
    lines += [line((p, 1 - p)) for p in K3_VALUES]
    lines.append("")
    lines.append(line(("p", "q", *(header for header, _ in _TABLE_COLUMNS))))
    for p in K3_VALUES:
        for q in K3_VALUES:
            values = (GRADED[cls](p, q) for _, cls in _TABLE_COLUMNS)
            lines.append(line((p, q, *values)))
    return "\n".join(lines) + "\n"
