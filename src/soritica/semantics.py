"""Evaluation semantics: classical, Kleene three-valued, fuzzy, supervaluation.

The three-valued and fuzzy evaluators share one graded core.  Each call
lowers its formula once into a plan: a flat postfix tuple of ``(opcode,
argument)`` pairs, read off the tree with an explicit stack.  One loop runs
the plan on degrees held as reduced ``(numerator, denominator)`` pairs of
ints: ``~x`` is ``(d - n, d)``, and ``&``, ``|``, ``->`` and ``<->`` are
the strong Kleene connectives (``& = min``, ``| = max``, ``x -> y =
max(~x, y)``), which compare pairs by cross-multiplication, so the run does
no ``Fraction`` arithmetic.  Quantifiers fold min/max over their finite
domains; the run recurses once per quantifier level and never per
connective.  K3 and fuzzy differ only in how a given value is checked and
turned into a pair, and in what is returned: ``FALSE``, ``HALF`` or
``TRUE``, or ``Fraction(n, d)``.  Each evaluation asks for every distinct
atom ``(pred, n)`` once and checks it once, and neither the plan nor a
value outlives the call.  ``kleene_tables`` renders the plan's own steps.

The classical and supervaluation evaluators share a separate boolean walk
that reads neither the plan nor its steps, so the conservativity checks
compare genuinely independent code paths.  It evaluates every cutoff at
once on int bit masks, one bit per cutoff: each node is walked under the
mask of the cutoffs whose serial walk reaches it, so ``&``, ``|`` and
``->`` short-circuit per cutoff, and an atom ``S(n)`` holds for the cutoffs
above ``n``, a range of bits read off the sorted cutoffs by one bisection.
``eval_classical`` is the one-bit case, and ``eval_super`` reads its verdict
off the final mask.  When the walk raises, it is run again one cutoff at a
time in the caller's order, and the first cutoff whose walk fails gives
the error, exactly as walking the cutoffs one after another would.

The K3 tautology tests do not enumerate all 3^v assignments.  Strong
Kleene is regular (Kleene 1952): refining a 1/2 to 0 or 1 never changes
a defined value.  So a formula is 1 under every assignment iff it is 1
under the all-1/2 one, and it is 0 under some assignment iff it is 0
under some classical one; one and 2^v evaluations decide the two tests.

``TRUE``, ``HALF``, ``FALSE`` and ``SuperVerdict`` are defined in
``soritica.truth`` and exported here as the same objects.  The Sorites
workbench imports them from there, so ``soritica.sorites`` loads no logic
module.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from fractions import Fraction
from numbers import Rational
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

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
from .truth import FALSE, HALF, TRUE, SuperVerdict

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
]

K3_VALUES = (TRUE, FALSE, HALF)


class UnboundAtom(KeyError):
    pass


class EmptyFamily(ValueError):
    pass


Domains = Mapping[str, Tuple[int, int]]


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


# -- the graded plan ---------------------------------------------------------

# Opcodes of a lowered plan, each with the argument it takes.
_AND, _OR, _IMPLIES, _IFF = 0, 1, 2, 3  # None
_NOT = 4  # None
_ATOM = 5  # the key (pred, n) of a ground atom
_OPEN = 6  # (pred, var, offset) of an atom on a bound variable
_VAR = 7  # the variable's name
_FORALL, _EXISTS = 8, 9  # (var, domain, the body's plan)

#: The step of each binary connective, and of ``~``: they take no argument.
_BINARY_STEPS = {
    And: (_AND, None),
    Or: (_OR, None),
    Implies: (_IMPLIES, None),
    Iff: (_IFF, None),
}
_NOT_STEP = (_NOT, None)

Pair = Tuple[int, int]


def _lower(formula: Formula, _bodies: bool = True) -> Tuple:
    """The plan of ``formula``: its nodes in postfix order, left before right.

    That is the order of a left-to-right walk of the tree, so running the
    plan meets atoms, variables and their errors where such a walk would.
    The tree is read with an explicit stack; only a quantifier's body is
    lowered by a recursive call, into a plan of its own.  A node whose
    class is not exactly one of the formula classes raises ``TypeError``
    here, before any of the plan runs.  With ``_bodies`` false a quantifier
    step carries ``None`` for its body, which is not read: the assignment
    searches refuse the first quantifier step, so a deep nest of them costs
    no stack frames there.
    """
    plan = []
    emit = plan.append
    todo = [formula]
    visit = todo.append
    while todo:
        # Pre-order with the right child first, reversed at the end.
        node = todo.pop()
        kind = type(node)
        step = _BINARY_STEPS.get(kind)
        if step is not None:
            emit(step)
            visit(node.left)
            visit(node.right)
        elif kind is Atom:
            index = node.index
            if index.var is None:
                emit((_ATOM, (node.predicate, index.offset)))
            else:
                emit((_OPEN, (node.predicate, index.var, index.offset)))
        elif kind is PropVar:
            emit((_VAR, node.name))
        elif kind is Not:
            emit(_NOT_STEP)
            visit(node.body)
        elif kind is Forall or kind is Exists:
            op = _FORALL if kind is Forall else _EXISTS
            body = _lower(node.body) if _bodies else None
            emit((op, (node.var, node.domain, body)))
        else:
            raise TypeError(f"not a formula: {node!r}")
    plan.reverse()
    return tuple(plan)


def _run(
    plan: Tuple,
    memo: Dict,
    propvars: Mapping[str, Pair],
    ask: Optional[Callable[[Tuple[str, int]], Pair]],
    domains: Optional[Domains],
    env: Dict[str, int],
    scale: int,
) -> Pair:
    """The value of a lowered plan, as a reduced ``(n, d)`` pair.

    ``memo`` holds the pairs of the atoms met so far, keyed ``(pred, n)``,
    and ``ask`` gives, and the run stores, the pair of an atom not yet met.
    ``env`` binds the enclosing quantifiers' variables, and ``scale`` is the
    product of their domains' sizes.  A degree ``n/d`` has ``d > 0``, and
    equal degrees are equal pairs, so ``x < y`` is ``a * d < c * b`` for
    ``x = (a, b)`` and ``y = (c, d)``, and a tie may pick either side.
    """
    stack = []
    push = stack.append
    pop = stack.pop
    for op, arg in plan:
        if op == _ATOM:
            value = memo.get(arg)
            if value is None:
                value = memo[arg] = ask(arg)
            push(value)
        elif op <= _IFF:
            c, d = y = pop()
            a, b = x = stack[-1]
            if op == _AND:
                if c * b < a * d:
                    stack[-1] = y
            elif op == _OR:
                if c * b > a * d:
                    stack[-1] = y
            else:
                # x -> y is max(~x, y), with ~x = (b - a, b).
                u = y if c * b > (b - a) * d else (b - a, b)
                if op == _IFF:
                    # min(x -> y, y -> x)
                    v = x if a * d > (d - c) * b else (d - c, d)
                    if v[0] * u[1] < u[0] * v[1]:
                        u = v
                stack[-1] = u
        elif op == _NOT:
            a, b = stack[-1]
            stack[-1] = (b - a, b)
        elif op == _OPEN:
            pred, var, offset = arg
            n = env.get(var)
            if n is None:
                raise UnboundAtom(f"unbound index variable {var!r}")
            key = (pred, n + offset)
            value = memo.get(key)
            if value is None:
                value = memo[key] = ask(key)
            push(value)
        elif op == _VAR:
            value = propvars.get(arg)
            if value is None:
                raise UnboundAtom(f"unbound variable {arg!r}")
            push(value)
        elif op == _FORALL or op == _EXISTS:
            var, domain, body = arg
            outer = env.get(var)
            values = _domain_range(domain, domains, scale)
            inner = scale * len(values)
            forall = op == _FORALL
            best = None
            for n in values:
                env[var] = n
                value = _run(body, memo, propvars, ask, domains, env, inner)
                if best is None:
                    best = value
                elif forall:
                    if value[0] * best[1] < best[0] * value[1]:
                        best = value
                elif value[0] * best[1] > best[0] * value[1]:
                    best = value
            _restore(env, var, outer)
            if best is None:
                raise UnboundAtom("empty quantifier domain")
            push(best)
    return stack[0]


def _pair(value) -> Pair:
    """``value`` as a reduced ``(n, d)`` pair; a float or a string is refused."""
    kind = type(value)
    if kind is Fraction:
        return value.numerator, value.denominator
    if kind is int or kind is bool:
        return int(value), 1
    if not isinstance(value, Rational):
        raise ValueError(f"value {value!r} is not an exact rational")
    value = Fraction(value)
    return value.numerator, value.denominator


#: The K3 values by their pairs.
_K3 = {(0, 1): FALSE, (1, 2): HALF, (1, 1): TRUE}


def _k3_pair(value) -> Pair:
    pair = _pair(value)
    if pair not in _K3:
        raise ValueError(f"K3 value {value} not in {{0, 1/2, 1}}")
    return pair


def _degree_pair(value) -> Pair:
    pair = n, d = _pair(value)
    if not 0 <= n <= d:
        raise ValueError(f"degree {Fraction(n, d)} outside [0, 1]")
    return pair


def _evaluate(
    formula: Formula,
    atoms,
    convert: Callable[[object], Pair],
    propvars: Mapping[str, object],
    domains: Optional[Domains],
) -> Pair:
    """The graded value of ``formula``, as a pair.

    ``atoms`` gives the value of ``pred(n)``: a function of ``pred`` and
    ``n``, or a mapping keyed by ``(pred, n)``.  ``convert`` checks a given
    value and returns its pair.  Every variable is converted before the
    run; an atom is asked for, converted and stored the first time the run
    meets it, so a value that fails stops the run at that first meeting,
    and no value outlives the call.
    """
    if callable(atoms):

        def ask(key):
            return convert(atoms(*key))

    else:
        mapping = atoms if atoms is not None else {}

        def ask(key):
            if key not in mapping:
                raise UnboundAtom(f"unbound atom {key[0]}({key[1]})")
            return convert(mapping[key])

    propvars = {name: convert(v) for name, v in propvars.items()}
    return _run(_lower(formula), {}, propvars, ask, domains, {}, 1)


def eval_k3(
    formula: Formula,
    atoms=None,
    propvars: Mapping[str, Fraction] = {},
    domains: Optional[Domains] = None,
) -> Fraction:
    """Strong-Kleene evaluation; all values must lie in {0, 1/2, 1}.

    The value is one of ``FALSE``, ``HALF`` and ``TRUE``.
    """
    return _K3[_evaluate(formula, atoms, _k3_pair, propvars, domains)]


def eval_fuzzy(
    formula: Formula,
    membership=None,
    propvars: Mapping[str, Fraction] = {},
    domains: Optional[Domains] = None,
) -> Fraction:
    """Degree-valued evaluation with the Kleene-Zadeh connectives.

    Every degree, of an atom or a variable, must be a rational in [0, 1].
    """
    n, d = _evaluate(formula, membership, _degree_pair, propvars, domains)
    return Fraction(n, d)


def _classical_inputs(cutoffs, propvars: Mapping[str, bool]) -> None:
    """Refuse a cutoff that is not an ``int`` or a variable that is not a ``bool``."""
    for cutoff in cutoffs:
        if not isinstance(cutoff, int) or isinstance(cutoff, bool):
            raise ValueError(f"cutoff {cutoff!r} is not an integer")
    for name, value in propvars.items():
        if not isinstance(value, bool):
            raise ValueError(f"variable {name!r} is {value!r}, not a bool")


# -- the boolean walk ---------------------------------------------------------

def _truths(
    formula: Formula,
    cutoffs: Optional[Sequence[int]],
    propvars: Mapping[str, bool],
    domains: Optional[Domains],
) -> int:
    """The classical truth of ``formula`` under every cutoff at once.

    The result is a bit mask over the cutoffs in sorted order: bit ``j`` is
    set when ``formula`` holds with soritical atoms true below the ``j``-th
    least cutoff.  With ``cutoffs`` of ``None`` there is one
    precisification, and every atom raises.

    Each node is walked once under a *reach* mask, the cutoffs whose own
    serial walk gets that far: the right side of ``a & b`` and ``a -> b``
    is reached where ``a`` holds, that of ``a | b`` where it fails, and it
    is skipped when that mask is 0.  An atom ``S(n)`` holds for the cutoffs
    above ``n``, the bits from ``bisect_right(cuts, n)`` up.  A node raises
    the same error under every cutoff that reaches it, but the first error
    of the joint walk need not be the first that the caller's first cutoff
    meets.  So when the walk raises, it is run again on one bit per cutoff,
    in the caller's order, each run exactly that cutoff's serial walk, and
    the first run that fails raises.
    """
    cuts = None if cutoffs is None else sorted(cutoffs)
    env: Dict[str, int] = {}

    def walk(node, reach: int, scale: int) -> int:
        kind = type(node)
        if kind is Atom:
            if cuts is None:
                raise UnboundAtom("no cutoff supplied for soritical atoms")
            above = bisect_right(cuts, _resolve_index(node.index, env))
            return reach >> above << above
        if kind is And:
            a = walk(node.left, reach, scale)
            return walk(node.right, a, scale) if a else 0
        if kind is Or:
            a = walk(node.left, reach, scale)
            rest = reach ^ a
            return a | walk(node.right, rest, scale) if rest else a
        if kind is Not:
            return reach ^ walk(node.body, reach, scale)
        if kind is Implies:
            a = walk(node.left, reach, scale)
            return reach ^ a | walk(node.right, a, scale) if a else reach
        if kind is PropVar:
            name = node.name
            if name not in propvars:
                raise UnboundAtom(f"unbound variable {name!r}")
            return reach if propvars[name] else 0
        if kind is Iff:
            a = walk(node.left, reach, scale)
            return reach ^ a ^ walk(node.right, reach, scale)
        if kind is Forall or kind is Exists:
            # No early exit: a short circuit in the body can leave an error
            # to a later value, and stopping at the verdict would hide it.
            var = node.var
            outer = env.get(var)
            values = _domain_range(node.domain, domains, scale)
            inner = scale * len(values)
            if kind is Forall:
                verdict = reach
                for n in values:
                    env[var] = n
                    verdict &= walk(node.body, reach, inner)
            else:
                verdict = 0
                for n in values:
                    env[var] = n
                    verdict |= walk(node.body, reach, inner)
            _restore(env, var, outer)
            return verdict
        raise TypeError(f"not a formula: {node!r}")

    if cuts is None or len(cuts) == 1:
        return walk(formula, 1, 1)
    try:
        return walk(formula, (1 << len(cuts)) - 1, 1)
    except Exception as error:
        failure = error
    for cutoff in cutoffs:
        env.clear()
        # Equal cutoffs walk alike, so any bit of this value will do.
        walk(formula, 1 << bisect_left(cuts, cutoff), 1)
    raise failure


def eval_classical(
    formula: Formula,
    cutoff: Optional[int] = None,
    propvars: Mapping[str, bool] = {},
    domains: Optional[Domains] = None,
) -> bool:
    """Two-valued evaluation; soritical atoms hold below the cutoff.

    The cutoff must be an ``int`` and every variable a ``bool``.
    """
    cutoffs = None if cutoff is None else (cutoff,)
    _classical_inputs(cutoffs or (), propvars)
    return _truths(formula, cutoffs, propvars, domains) == 1


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
    truths = _truths(formula, cutoffs, propvars, domains)
    if truths == (1 << len(cutoffs)) - 1:
        return SuperVerdict.SUPERTRUE
    if not truths:
        return SuperVerdict.SUPERFALSE
    return SuperVerdict.INDETERMINATE


def _plan_variables(plan: Tuple) -> Tuple:
    """The ``_VAR`` and ``_ATOM`` arguments of ``plan``, each once, in order."""
    seen = {}
    for op, arg in plan:
        if op == _VAR or op == _ATOM:
            seen[arg] = None
        elif op == _OPEN:
            _, var, offset = arg
            raise ValueError(
                "assignment search needs ground atoms; "
                f"found open index {Index(var, offset)}"
            )
        elif op == _FORALL or op == _EXISTS:
            raise ValueError("quantifier-free formula required")
    return tuple(seen)


def collect_variables(formula: Formula) -> Tuple:
    """Ordered propositional variables and literal-index atoms.

    They are read off the plan, which keeps the leaves left to right, so
    the tree's height costs no stack frames.  An open atom or a quantifier
    raises ``ValueError``: the searches take only propositional formulas.
    """
    return _plan_variables(_lower(formula, _bodies=False))


_VAR_BOUND = 12


def _assignment_values(formula: Formula, values: Tuple):
    """The pair of ``formula``'s value under each assignment drawn from ``values``.

    The formula is lowered once, its variables are read off that plan, and
    ``values`` is converted once; each assignment gives those variables the
    values of its combination, position by position.  Variables are keyed
    by name and ground atoms by ``(pred, n)``, so one dict serves the run
    as both its variables and its atom memo, and no atom is left to ask for.
    """
    plan = _lower(formula, _bodies=False)
    variables = _plan_variables(plan)
    if len(variables) > _VAR_BOUND:
        raise BoundExceeded(
            f"{len(variables)} variables exceed the bound {_VAR_BOUND}"
        )
    pairs = [_k3_pair(value) for value in values]
    for combo in itertools.product(pairs, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        yield _run(plan, assignment, assignment, None, None, {}, 1)


def is_tautology_k3(formula: Formula) -> bool:
    """True when every three-valued assignment yields 1.

    By regularity the least-defined assignment, all 1/2, decides it.
    """
    return all(_K3[v] == TRUE for v in _assignment_values(formula, (HALF,)))


def quasi_tautology_k3(formula: Formula) -> bool:
    """True when no three-valued assignment yields 0.

    A 0 survives every classical refinement of its assignment, so the
    classical assignments decide it.
    """
    classical = _assignment_values(formula, (TRUE, FALSE))
    return all(_K3[v] != FALSE for v in classical)


#: The columns of the binary table: header and connective.
_TABLE_COLUMNS = (("p|q", Or), ("p&q", And), ("p->q", Implies), ("p<->q", Iff))


def kleene_tables() -> str:
    """Fixed-width text rendering of the strong three-valued tables.

    Every cell is computed by the steps of the graded plan, so the tables
    show exactly what ``eval_k3`` does.
    """
    width = 6
    p, q = PropVar("p"), PropVar("q")

    def line(cells) -> str:
        return "".join(str(cell).ljust(width) for cell in cells).rstrip()

    lines = [line(("p", "~p"))]
    lines += [line((x, eval_k3(Not(p), propvars={"p": x}))) for x in K3_VALUES]
    lines.append("")
    lines.append(line(("p", "q", *(header for header, _ in _TABLE_COLUMNS))))
    for x in K3_VALUES:
        for y in K3_VALUES:
            given = {"p": x, "q": y}
            values = (eval_k3(cls(p, q), propvars=given) for _, cls in _TABLE_COLUMNS)
            lines.append(line((x, y, *values)))
    return "\n".join(lines) + "\n"
