"""Reference evaluators that the fast ones in ``soritica.semantics`` are
tested against.

``ref_eval_k3`` and ``ref_eval_fuzzy`` are the plain graded walker: every
node is a ``Fraction``, each connective is computed as written in the
strong-Kleene tables, and the atom source is asked again, converted again
and checked again at every occurrence of an atom.  They check the same
contract as the fast evaluators: values are exact rationals, K3 values lie
in {0, 1/2, 1} and degrees in [0, 1], variables are checked before the
walk and atoms when the walk first meets them.

``ref_eval_classical`` and ``ref_eval_super`` are the serial boolean
walk: one recursive pass per cutoff, with Python's short-circuit ``and``
and ``or``, raising the first error that cutoff's pass meets; a family
raises the error of its first cutoff that fails.  The fast evaluators run
every cutoff in one bit-mask walk.

The tautology searches are the plain versions the regularity argument
replaced: each walks all 3^v assignments of the formula's propositional
variables and ground atoms and asks the strong-Kleene evaluator for every
one.

``ref_collect_variables`` reads those variables off the tree with an
explicit stack; ``collect_variables`` reads them off the lowered plan.
"""

import itertools
from fractions import Fraction
from numbers import Rational

from soritica.formulas import And, Atom, Exists, Forall, Iff, Implies, Not, Or, PropVar
from soritica.semantics import (
    FALSE,
    K3_VALUES,
    TRUE,
    EmptyFamily,
    SuperVerdict,
    UnboundAtom,
    _classical_inputs,
    _domain_range,
    _resolve_index,
    _restore,
    collect_variables,
    eval_k3,
)


def _implies(x, y):
    return max(1 - x, y)


REF_GRADED = {
    And: min,
    Or: max,
    Implies: _implies,
    Iff: lambda x, y: min(_implies(x, y), _implies(y, x)),
}


def _eval_graded(formula, atoms, propvars, domains, env, scale=1):
    connective = REF_GRADED.get(type(formula))
    if connective is not None:
        return connective(
            _eval_graded(formula.left, atoms, propvars, domains, env, scale),
            _eval_graded(formula.right, atoms, propvars, domains, env, scale),
        )
    if isinstance(formula, Atom):
        return atoms(formula.predicate, _resolve_index(formula.index, env))
    if isinstance(formula, PropVar):
        if formula.name not in propvars:
            raise UnboundAtom(f"unbound variable {formula.name!r}")
        return propvars[formula.name]
    if isinstance(formula, Not):
        return 1 - _eval_graded(formula.body, atoms, propvars, domains, env, scale)
    if isinstance(formula, (Forall, Exists)):
        fold = min if isinstance(formula, Forall) else max
        value = None
        outer = env.get(formula.var)
        values = _domain_range(formula.domain, domains, scale)
        for n in values:
            env[formula.var] = n
            degree = _eval_graded(
                formula.body, atoms, propvars, domains, env, scale * len(values)
            )
            value = degree if value is None else fold(value, degree)
        _restore(env, formula.var, outer)
        if value is None:
            raise UnboundAtom("empty quantifier domain")
        return value
    raise TypeError(f"not a formula: {formula!r}")


def _exact(value):
    if not isinstance(value, Rational):
        raise ValueError(f"value {value!r} is not an exact rational")
    return Fraction(value)


def _check_k3(value, shown):
    if value not in K3_VALUES:
        raise ValueError(f"K3 value {shown} not in {{0, 1/2, 1}}")


def _check_degree(value, shown):
    if not 0 <= value <= 1:
        raise ValueError(f"degree {value} outside [0, 1]")


def _eval_degrees(formula, atoms, check, propvars, domains):
    if callable(atoms):
        source = atoms
    else:
        mapping = atoms if atoms is not None else {}

        def source(pred, n):
            if (pred, n) not in mapping:
                raise UnboundAtom(f"unbound atom {pred}({n})")
            return mapping[(pred, n)]

    def convert(given):
        value = _exact(given)
        check(value, given)
        return value

    converted = {name: convert(v) for name, v in propvars.items()}
    return _eval_graded(
        formula, lambda pred, n: convert(source(pred, n)), converted, domains, {}
    )


def ref_eval_k3(formula, atoms=None, propvars={}, domains=None):
    return _eval_degrees(formula, atoms, _check_k3, propvars, domains)


def ref_eval_fuzzy(formula, membership=None, propvars={}, domains=None):
    return _eval_degrees(formula, membership, _check_degree, propvars, domains)


def _classical(formula, cutoff, propvars, domains, env, scale):
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


def ref_eval_classical(formula, cutoff=None, propvars={}, domains=None):
    _classical_inputs(() if cutoff is None else (cutoff,), propvars)
    return _classical(formula, cutoff, propvars, domains, {}, 1)


def ref_eval_super(formula, cutoffs, propvars={}, domains=None):
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


def ref_values(formula):
    variables = collect_variables(formula)
    for combo in itertools.product(K3_VALUES, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        propvars = {k: v for k, v in assignment.items() if isinstance(k, str)}
        atoms = {k: v for k, v in assignment.items() if isinstance(k, tuple)}
        yield eval_k3(formula, atoms, propvars)


def ref_is_tautology_k3(formula):
    return all(v == TRUE for v in ref_values(formula))


def ref_quasi_tautology_k3(formula):
    return all(v != FALSE for v in ref_values(formula))


def ref_collect_variables(formula):
    seen = []
    todo = [formula]
    while todo:
        node = todo.pop()
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
            todo.append(node.body)
        elif isinstance(node, (And, Or, Implies, Iff)):
            todo.append(node.right)
            todo.append(node.left)
        else:
            raise ValueError("quantifier-free formula required")
    return tuple(seen)
