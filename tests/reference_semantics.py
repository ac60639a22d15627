"""Reference K3 tautology searches that the regular ones are tested against.

These are the plain versions the regularity argument replaced: each
walks all 3^v assignments of the formula's propositional variables and
ground atoms and asks the strong-Kleene evaluator for every one.
"""

import itertools

from soritica.semantics import FALSE, K3_VALUES, TRUE, collect_variables, eval_k3


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
