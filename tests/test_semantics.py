import dataclasses
import functools
import itertools
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from soritica import semantics, sorites
from soritica.formulas import (
    And,
    Atom,
    Exists,
    Forall,
    Iff,
    Implies,
    Index,
    Not,
    Or,
    PropVar,
    formula_to_str,
    parse_formula,
)
from soritica.semantics import (
    FALSE,
    HALF,
    K3_VALUES,
    TRUE,
    BoundExceeded,
    EmptyFamily,
    SuperVerdict,
    UnboundAtom,
    collect_variables,
    eval_classical,
    eval_fuzzy,
    eval_k3,
    eval_super,
    is_tautology_k3,
    kleene_tables,
    quasi_tautology_k3,
)

from soritica.bounds import MAX_DOMAIN

from reference_semantics import (
    REF_GRADED,
    ref_collect_variables,
    ref_eval_classical,
    ref_eval_fuzzy,
    ref_eval_k3,
    ref_eval_super,
    ref_is_tautology_k3,
    ref_quasi_tautology_k3,
)

F = Fraction

P, Q = PropVar("p"), PropVar("q")


class TestKleene:
    # rows straight from the strong-connective tables
    TABLE = [
        # (p, q, or, and, implies, iff)
        (TRUE, TRUE, TRUE, TRUE, TRUE, TRUE),
        (TRUE, FALSE, TRUE, FALSE, FALSE, FALSE),
        (TRUE, HALF, TRUE, HALF, HALF, HALF),
        (FALSE, TRUE, TRUE, FALSE, TRUE, FALSE),
        (FALSE, FALSE, FALSE, FALSE, TRUE, TRUE),
        (FALSE, HALF, HALF, FALSE, TRUE, HALF),
        (HALF, TRUE, TRUE, HALF, TRUE, HALF),
        (HALF, FALSE, HALF, FALSE, HALF, HALF),
        (HALF, HALF, HALF, HALF, HALF, HALF),
    ]

    @pytest.mark.parametrize("p,q,v_or,v_and,v_imp,v_iff", TABLE)
    def test_binary_tables(self, p, q, v_or, v_and, v_imp, v_iff):
        env = {"p": p, "q": q}
        assert eval_k3(Or(P, Q), propvars=env) == v_or
        assert eval_k3(And(P, Q), propvars=env) == v_and
        assert eval_k3(Implies(P, Q), propvars=env) == v_imp
        assert eval_k3(Iff(P, Q), propvars=env) == v_iff

    @pytest.mark.parametrize("p,expected", [(TRUE, FALSE), (FALSE, TRUE), (HALF, HALF)])
    def test_negation_table(self, p, expected):
        assert eval_k3(Not(P), propvars={"p": p}) == expected

    def test_excluded_middle_indefinite(self):
        assert eval_k3(Or(P, Not(P)), propvars={"p": HALF}) == HALF

    def test_quantifiers(self):
        formula = parse_formula("forall n in 1..3. S(n)")
        assert eval_k3(formula, {("S", 1): TRUE, ("S", 2): TRUE, ("S", 3): TRUE}) == TRUE
        assert eval_k3(formula, {("S", 1): TRUE, ("S", 2): HALF, ("S", 3): TRUE}) == HALF
        assert eval_k3(formula, {("S", 1): TRUE, ("S", 2): HALF, ("S", 3): FALSE}) == FALSE
        exists = parse_formula("exists n in 1..3. S(n)")
        assert eval_k3(exists, {("S", 1): FALSE, ("S", 2): HALF, ("S", 3): FALSE}) == HALF

    def test_empty_quantifier_domain(self):
        for text in ("forall n in 5..4. S(n)", "exists n in 5..4. S(n)"):
            with pytest.raises(UnboundAtom, match="empty quantifier domain"):
                eval_k3(parse_formula(text), {})

    def test_unbound(self):
        with pytest.raises(UnboundAtom):
            eval_k3(P)

    def test_rejects_degrees(self):
        with pytest.raises(ValueError):
            eval_k3(P, propvars={"p": F(1, 3)})


class TestTautology:
    def test_excluded_middle(self):
        formula = Or(P, Not(P))
        assert not is_tautology_k3(formula)
        assert quasi_tautology_k3(formula)

    def test_identity_implication(self):
        # oracle: enumerate the 3 assignments directly
        values = [max(1 - v, v) for v in (TRUE, FALSE, HALF)]
        assert all(v != FALSE for v in values)
        assert quasi_tautology_k3(Implies(P, P))
        assert not is_tautology_k3(Implies(P, P))

    def test_contradiction_not_quasi(self):
        assert not quasi_tautology_k3(And(P, Not(P)))

    def test_bound(self):
        formula = PropVar("x0")
        for i in range(1, 13):
            formula = And(formula, PropVar(f"x{i}"))
        with pytest.raises(BoundExceeded):
            is_tautology_k3(formula)
        with pytest.raises(BoundExceeded):
            quasi_tautology_k3(formula)

    def test_twelve_variable_classical_tautology(self):
        # 3^12 = 531441 assignments; the searches evaluate 1 and 2^12.
        body = PropVar("x0")
        for i in range(1, 6):
            body = And(body, PropVar(f"x{i}"))
        other = Atom("S", Index(None, 1))
        for i in range(2, 7):
            other = Or(other, Atom("S", Index(None, i)))
        formula = Or(Implies(body, other), Not(Implies(body, other)))
        start = time.perf_counter()
        assert quasi_tautology_k3(formula)
        assert not is_tautology_k3(formula)
        assert time.perf_counter() - start < 10.0


# At most four variables: two propositional, two ground atoms.
k3_leaves = [
    PropVar("p"),
    PropVar("q"),
    Atom("S", Index(None, 1)),
    Atom("T", Index(None, 2)),
]
k3_formulas = st.recursive(
    st.sampled_from(k3_leaves),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Implies, children, children),
        st.builds(Iff, children, children),
    ),
    max_leaves=12,
)


class TestTautologyAgainstReference:
    @given(k3_formulas)
    @settings(max_examples=300, deadline=None)
    def test_tautology(self, formula):
        assert is_tautology_k3(formula) == ref_is_tautology_k3(formula)

    @given(k3_formulas)
    @settings(max_examples=300, deadline=None)
    def test_quasi_tautology(self, formula):
        assert quasi_tautology_k3(formula) == ref_quasi_tautology_k3(formula)


def linear_membership(pred: str, n: int) -> Fraction:
    return F(100 - n, 99)


class TestFuzzy:
    def test_boundary(self):
        assert eval_fuzzy(Atom("S", Index(None, 1)), linear_membership) == 1

    def test_midpoint(self):
        assert eval_fuzzy(Atom("S", Index(None, 50)), linear_membership) == F(50, 99)

    def test_step_implication_near_maximal(self):
        formula = parse_formula("S(1) -> S(2)")
        assert eval_fuzzy(formula, linear_membership) == F(98, 99)

    def test_quantifier_is_min(self):
        # min over n of max((n-1)/99, (99-n)/99); tightest at the midpoint
        formula = parse_formula("forall n in 1..99. S(n) -> S(n+1)")
        assert eval_fuzzy(formula, linear_membership) == F(49, 99)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            eval_fuzzy(Atom("S", Index(None, 1)), lambda p, n: F(3, 2))

    @pytest.mark.parametrize("formula", [P, Not(P)])
    @pytest.mark.parametrize("value", [5, -3, F(3, 2)])
    def test_variable_out_of_range(self, formula, value):
        with pytest.raises(ValueError, match=rf"^degree {value} outside \[0, 1\]$"):
            eval_fuzzy(formula, propvars={"p": value})

    def test_variable_checked_before_the_walk(self):
        # The unused q is refused although the walk would never read it.
        with pytest.raises(ValueError, match="degree 2 outside"):
            eval_fuzzy(P, propvars={"p": HALF, "q": 2})


class TestExactValues:
    """Degrees and K3 values are exact: a float or a string is refused."""

    EVALUATORS = {"k3": eval_k3, "fuzzy": eval_fuzzy}
    INEXACT = [0.1, 0.5, 1.0, "1/2", "1", None]

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    @pytest.mark.parametrize("value", INEXACT)
    def test_atom_refused(self, evaluator, value):
        with pytest.raises(ValueError, match=rf"^value {value!r} is not an exact rational$"):
            self.EVALUATORS[evaluator](Atom("S", Index(None, 1)), lambda p, n: value)

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    @pytest.mark.parametrize("value", INEXACT)
    def test_variable_refused(self, evaluator, value):
        with pytest.raises(ValueError, match=rf"^value {value!r} is not an exact rational$"):
            self.EVALUATORS[evaluator](P, propvars={"p": value})

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    @pytest.mark.parametrize(
        "value, expected", [(True, TRUE), (False, FALSE), (1, TRUE), (0, FALSE), (HALF, HALF)]
    )
    def test_bool_int_and_fraction_accepted(self, evaluator, value, expected):
        evaluate = self.EVALUATORS[evaluator]
        got = evaluate(Atom("S", Index(None, 1)), lambda p, n: value)
        assert got == expected and type(got) is Fraction
        got = evaluate(P, propvars={"p": value})
        assert got == expected and type(got) is Fraction


class TestClassical:
    def test_cutoff(self):
        atom = Atom("S", Index(None, 4))
        assert eval_classical(atom, cutoff=5)
        assert not eval_classical(Atom("S", Index(None, 5)), cutoff=5)

    def test_sharp_boundary_conjunction(self):
        formula = parse_formula("S(4) & ~S(5)")
        assert eval_classical(formula, cutoff=5)

    def test_empty_quantifier_domain_is_vacuous(self):
        assert eval_classical(parse_formula("forall n in 5..4. S(n)"), cutoff=5)
        assert not eval_classical(parse_formula("exists n in 5..4. S(n)"), cutoff=5)

    def test_induction_step_fails(self):
        formula = parse_formula("forall n in 1..9. S(n) -> S(n+1)")
        assert not eval_classical(formula, cutoff=5)
        # counterexample at n=4
        assert not eval_classical(parse_formula("S(4) -> S(5)"), cutoff=5)


class TestSuper:
    FAMILY = (2, 3)

    def test_supertrue(self):
        assert (
            eval_super(Atom("S", Index(None, 1)), self.FAMILY)
            is SuperVerdict.SUPERTRUE
        )

    def test_indeterminate(self):
        assert (
            eval_super(Atom("S", Index(None, 2)), self.FAMILY)
            is SuperVerdict.INDETERMINATE
        )

    def test_tautology_instance_supertrue(self):
        formula = parse_formula("S(2) | ~S(2)")
        assert eval_super(formula, self.FAMILY) is SuperVerdict.SUPERTRUE

    def test_not_truth_functional(self):
        # same component verdict patterns, different compound verdicts
        a = parse_formula("S(2) | ~S(2)")
        b = parse_formula("S(2) | S(2)")
        parts = Atom("S", Index(None, 2)), Not(Atom("S", Index(None, 2)))
        assert all(
            eval_super(p, self.FAMILY) is SuperVerdict.INDETERMINATE
            for p in parts
        )
        assert eval_super(a, self.FAMILY) is SuperVerdict.SUPERTRUE
        assert eval_super(b, self.FAMILY) is SuperVerdict.INDETERMINATE

    def test_sharp_boundary_formula(self):
        family = range(2, 7)
        exists = parse_formula("exists n in 1..9. S(n) & ~S(n+1)")
        assert eval_super(exists, family) is SuperVerdict.SUPERTRUE
        for n in range(1, 10):
            instance = parse_formula(f"S({n}) & ~S({n + 1})")
            assert eval_super(instance, family) is not SuperVerdict.SUPERTRUE

    def test_empty_family(self):
        with pytest.raises(EmptyFamily):
            eval_super(P, [], propvars={"p": True})


class TestClassicalInputs:
    """A classical variable is a bool and a cutoff an int; else ValueError."""

    S1 = Atom("S", Index(None, 1))

    @pytest.mark.parametrize("value", ["False", "no", 0.5, 1, 0, None, HALF])
    def test_variable_refused(self, value):
        message = rf"^variable 'p' is {re.escape(repr(value))}, not a bool$"
        with pytest.raises(ValueError, match=message):
            eval_classical(P, propvars={"p": value})
        with pytest.raises(ValueError, match=message):
            eval_super(P, [1], propvars={"p": value})

    @pytest.mark.parametrize("cutoff", [1.5, True, False, "1", F(1)])
    def test_cutoff_refused(self, cutoff):
        message = rf"^cutoff {re.escape(repr(cutoff))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            eval_classical(self.S1, cutoff=cutoff)
        with pytest.raises(ValueError, match=message):
            eval_super(self.S1, [cutoff])
        with pytest.raises(ValueError, match=message):
            eval_super(self.S1, [2, cutoff])

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda: eval_classical(Q, propvars={"p": "x", "q": True}),
            lambda: eval_classical(Q, cutoff=0.5, propvars={"q": True}),
            lambda: eval_super(Q, [1, 0.5], propvars={"q": True}),
        ],
        ids=["unused variable", "unused cutoff", "unused family member"],
    )
    def test_checked_before_the_walk(self, evaluate):
        with pytest.raises(ValueError):
            evaluate()

    def test_bools_and_ints_accepted(self):
        assert eval_classical(And(P, self.S1), cutoff=2, propvars={"p": True})
        assert not eval_classical(P, propvars={"p": False})
        assert eval_super(Or(P, self.S1), [1, 2], {"p": False}) is SuperVerdict.INDETERMINATE


formulas = st.recursive(
    st.sampled_from([PropVar(f"p{i}") for i in range(6)]),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Implies, children, children),
        st.builds(Iff, children, children),
    ),
    max_leaves=10,
)

VARS = [f"p{i}" for i in range(6)]


class TestConservativity:
    @given(formulas, st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_k3_extends_classical(self, formula, rng):
        bools = {v: rng.choice((True, False)) for v in VARS}
        graded = {v: TRUE if b else FALSE for v, b in bools.items()}
        assert (eval_k3(formula, propvars=graded) == TRUE) == eval_classical(
            formula, propvars=bools
        )

    @given(formulas, st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_fuzzy_extends_k3(self, formula, rng):
        values = {v: rng.choice((TRUE, FALSE, HALF)) for v in VARS}
        assert eval_fuzzy(formula, propvars=values) == eval_k3(
            formula, propvars=values
        )

    def test_classical_tautology_supertrue(self):
        taut = parse_formula("(S(3) -> S(4)) | (S(4) -> S(3))")
        for family in ([2], [2, 5], range(2, 9)):
            assert eval_super(taut, family) is SuperVerdict.SUPERTRUE


class TestTables:
    def test_twelve_value_rows(self):
        lines = kleene_tables().splitlines()
        value_rows = [
            l for l in lines if l and not l.startswith("p")
        ]
        assert len(value_rows) == 12

    def test_spec_rows(self):
        text = kleene_tables()
        assert "1     1/2   1     1/2   1/2   1/2" in text
        assert "1/2   1/2   1/2   1/2   1/2   1/2" in text


class TestSharedTruthValues:
    @pytest.mark.parametrize("name", ["TRUE", "HALF", "FALSE", "SuperVerdict"])
    def test_sorites_uses_the_same_objects(self, name):
        assert getattr(sorites, name) is getattr(semantics, name)


class TestReboundVariable:
    """An inner quantifier over the outer one's variable leaves it bound.

    Each evaluator gives the formula the values of its alpha-renamed form.
    """

    TEXT = "forall n in 1..3. (forall n in 1..2. S(n)) | S(n)"
    RENAMED = "forall n in 1..3. (forall m in 1..2. S(m)) | S(n)"

    def test_classical(self):
        f, g = parse_formula(self.TEXT), parse_formula(self.RENAMED)
        # S(n) iff n < cutoff: the inner forall holds from cutoff 3 on, and
        # then every disjunct does.
        expected = [False, False, False, True, True]
        for cutoff, want in enumerate(expected):
            assert eval_classical(f, cutoff) is want
            assert eval_classical(g, cutoff) is want

    def test_k3(self):
        f, g = parse_formula(self.TEXT), parse_formula(self.RENAMED)
        for values, want in (
            ((TRUE, FALSE, FALSE), FALSE),
            ((TRUE, HALF, FALSE), HALF),
            ((TRUE, TRUE, FALSE), TRUE),
        ):
            atoms = {("S", n): value for n, value in zip((1, 2, 3), values)}
            assert eval_k3(f, atoms) == eval_k3(g, atoms) == want

    def test_fuzzy(self):
        f, g = parse_formula(self.TEXT), parse_formula(self.RENAMED)
        degrees = {("S", 1): F(9, 10), ("S", 2): F(3, 5), ("S", 3): F(1, 5)}
        # n = 3: max(min(9/10, 3/5), 1/5) = 3/5 is the least disjunct.
        assert eval_fuzzy(f, degrees) == eval_fuzzy(g, degrees) == F(3, 5)


class TestDomainBound:
    EVALUATORS = {
        "classical": lambda f, domains: eval_classical(f, 5, domains=domains),
        "k3": lambda f, domains: eval_k3(f, lambda p, n: HALF, domains=domains),
        "fuzzy": lambda f, domains: eval_fuzzy(
            f, lambda p, n: F(1, 3), domains=domains
        ),
    }

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    @pytest.mark.parametrize("named", [False, True])
    def test_at_and_past_the_bound(self, evaluator, named):
        evaluate = self.EVALUATORS[evaluator]
        for size, fits in ((MAX_DOMAIN, True), (MAX_DOMAIN + 1, False)):
            domain = (7, 7 + size - 1)
            if named:
                formula, domains = parse_formula("exists n in D. S(n)"), {"D": domain}
            else:
                formula, domains = Exists("n", domain, Atom("S", Index("n", 0))), None
            if fits:
                evaluate(formula, domains)
            else:
                with pytest.raises(BoundExceeded, match=str(MAX_DOMAIN)):
                    evaluate(formula, domains)

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_nested_product_at_and_past_the_bound(self, evaluator):
        # 100 * 100 == MAX_DOMAIN; 73 * 137 == MAX_DOMAIN + 1.
        evaluate = self.EVALUATORS[evaluator]
        text = "exists a in 1..{}. exists b in D. S(a) | S(b)"
        evaluate(parse_formula(text.format(100)), {"D": (1, 100)})
        message = f"137 values times 73 enclosing above {MAX_DOMAIN}"
        with pytest.raises(BoundExceeded, match=message):
            evaluate(parse_formula(text.format(73)), {"D": (1, 137)})

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_nested_domains_refused_on_entry(self, evaluator):
        # Each domain fits; the product of 10**6 is refused before any of
        # the inner values is visited.
        formula = parse_formula("forall a in 1..1000. forall b in 1..1000. S(a) | S(b)")
        with pytest.raises(BoundExceeded):
            self.EVALUATORS[evaluator](formula, None)

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_nested_bound_keeps_the_error_order(self, evaluator):
        # The walk meets the unbound x before it enters the inner quantifier,
        # so a bound checked up front would report the wrong error.
        formula = parse_formula(
            "forall a in 1..1000. (S(x) & (forall b in 1..1000. S(b)))"
        )
        with pytest.raises(UnboundAtom, match="unbound index variable 'x'"):
            self.EVALUATORS[evaluator](formula, None)

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_huge_literal_domain(self, evaluator):
        formula = parse_formula("exists n in 1..99999999999999999999. S(n)")
        with pytest.raises(BoundExceeded):
            self.EVALUATORS[evaluator](formula, None)

    def test_k3_atom_missing_late_in_the_domain(self):
        # The minimum is 0 from the first value on; S(3) is still asked for.
        formula = parse_formula("forall n in 1..3. S(n)")
        with pytest.raises(UnboundAtom, match=r"S\(3\)"):
            eval_k3(formula, {("S", 1): FALSE, ("S", 2): FALSE})

    def test_classical_error_after_the_verdict(self):
        # S(1) makes the exists true at n = 1, but at n = 2 the body reaches
        # the unknown domain D.
        formula = parse_formula(
            "exists n in 1..3. S(n) | (~S(n) & (exists m in D. p))"
        )
        with pytest.raises(UnboundAtom, match="unknown quantifier domain"):
            eval_classical(formula, 2, {"p": True})


# -- the graded evaluators against the plain per-node walker ----------------

#: Named domains: ``E`` is unknown, ``W`` nests twice within the bound and
#: three times past it, ``BIG`` alone is past it.
ORACLE_DOMAINS = {"D": (0, 2), "W": (1, 30), "BIG": (1, MAX_DOMAIN + 1)}
oracle_vars = st.sampled_from(["n", "m", "k"])
oracle_domains = st.one_of(
    st.builds(
        lambda lo, size: (lo, lo + size - 1),
        st.integers(-3, 3),
        st.integers(0, 4),
    ),
    st.sampled_from(["D", "D", "W", "E", "BIG"]),
)
oracle_formulas = st.recursive(
    st.one_of(
        st.sampled_from([P, Q, PropVar("r")]),
        st.builds(
            Atom,
            st.sampled_from(["S", "T"]),
            st.builds(Index, st.none(), st.integers(-3, 6)),
        ),
        st.builds(
            Atom,
            st.sampled_from(["S", "T"]),
            st.builds(Index, oracle_vars, st.integers(0, 2)),
        ),
    ),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Implies, children, children),
        st.builds(Iff, children, children),
        st.builds(Forall, oracle_vars, oracle_domains, children),
        st.builds(Exists, oracle_vars, oracle_domains, children),
    ),
    max_leaves=10,
)


def mostly(good, bad):
    """``good`` nine times in ten, else ``bad``."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 5 else good)


# Values in range, now and then one out of range or inexact.
k3_values = mostly(
    st.sampled_from([TRUE, FALSE, HALF, True, False, 1, 0]),
    st.sampled_from([F(1, 3), 2, -1, 0.5, "1/2"]),
)
fuzzy_values = mostly(
    st.one_of(
        st.fractions(min_value=0, max_value=1, max_denominator=12),
        st.sampled_from([True, 0, 1]),
    ),
    st.sampled_from([F(3, 2), -1, 0.25, "1/2"]),
)


def valuations(values):
    """``p`` and ``q`` always, ``r`` sometimes: an unbound variable now and then."""
    return st.fixed_dictionaries({"p": values, "q": values}, optional={"r": values})


def outcome(evaluate, *args):
    """The value of ``evaluate(*args)``, or its error's type and message."""
    try:
        return evaluate(*args)
    except (ValueError, KeyError, TypeError) as error:
        return type(error), str(error)


class TestGradedAgainstReference:
    """``eval_k3`` and ``eval_fuzzy`` give the per-node walker's value or
    its first error, and ask each distinct atom once."""

    CASES = {
        "k3": (eval_k3, ref_eval_k3, k3_values),
        "fuzzy": (eval_fuzzy, ref_eval_fuzzy, fuzzy_values),
    }

    @pytest.mark.parametrize("evaluator", sorted(CASES))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_function_atoms(self, evaluator, data):
        fast, reference, values = self.CASES[evaluator]
        formula = data.draw(oracle_formulas)
        table = data.draw(st.lists(values, min_size=1, max_size=5))
        propvars = data.draw(valuations(values))
        asked = Counter()

        def atoms(pred, n):
            return table[(ord(pred) + 3 * n) % len(table)]

        def counted(pred, n):
            asked[pred, n] += 1
            return atoms(pred, n)

        got = outcome(fast, formula, counted, propvars, ORACLE_DOMAINS)
        want = outcome(reference, formula, atoms, propvars, ORACLE_DOMAINS)
        assert got == want
        assert type(got) is type(want)
        assert max(asked.values(), default=1) == 1

    @pytest.mark.parametrize("evaluator", sorted(CASES))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mapping_atoms(self, evaluator, data):
        fast, reference, values = self.CASES[evaluator]
        formula = data.draw(oracle_formulas)
        keys = st.tuples(st.sampled_from(["S", "T"]), st.integers(-3, 38))
        atoms = data.draw(st.dictionaries(keys, values, max_size=60))
        propvars = data.draw(valuations(values))
        got = outcome(fast, formula, atoms, propvars, ORACLE_DOMAINS)
        assert got == outcome(reference, formula, atoms, propvars, ORACLE_DOMAINS)


class TestAtomAskedOnce:
    @pytest.mark.parametrize("evaluate", [eval_k3, eval_fuzzy])
    def test_induction_step(self, evaluate):
        asked = Counter()

        def atoms(pred, n):
            asked[pred, n] += 1
            return HALF

        formula = parse_formula("forall n in 1..9. forall m in 1..3. S(n) -> S(n+1)")
        assert evaluate(formula, atoms) == HALF
        assert asked == Counter({("S", n): 1 for n in range(1, 11)})

    def test_fresh_memo_per_call(self):
        asked = Counter()

        def atoms(pred, n):
            asked[pred, n] += 1
            return TRUE

        formula = parse_formula("S(1) & S(1)")
        eval_k3(formula, atoms)
        eval_k3(formula, atoms)
        assert asked == Counter({("S", 1): 2})

    def test_failing_value_is_not_stored(self):
        # The first S(2) fails; a second call asks for it again.
        replies = iter([TRUE, F(1, 3), TRUE, TRUE])
        formula = parse_formula("S(1) & S(2)")
        with pytest.raises(ValueError, match="K3 value 1/3"):
            eval_k3(formula, lambda p, n: next(replies))
        assert eval_k3(formula, lambda p, n: next(replies)) == TRUE


# -- the graded plan against REF_GRADED, deep trees, the order of errors ---

BINARY = [And, Or, Implies, Iff]
unit_degrees = st.fractions(min_value=0, max_value=1, max_denominator=12)


class TestPlanAgainstGraded:
    """Each step of the graded plan computes what ``REF_GRADED`` does, the
    connectives as the strong-Kleene tables write them.  ``kleene_tables``
    renders the same steps, so the tables and the evaluators cannot drift
    apart."""

    @pytest.mark.parametrize("connective", BINARY, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("p, q", list(itertools.product(K3_VALUES, repeat=2)))
    def test_k3_pairs(self, connective, p, q):
        got = eval_k3(connective(P, Q), propvars={"p": p, "q": q})
        assert got == REF_GRADED[connective](p, q)

    @pytest.mark.parametrize("p", K3_VALUES)
    def test_k3_negation(self, p):
        assert eval_k3(Not(P), propvars={"p": p}) == 1 - p

    @given(st.sampled_from(BINARY), unit_degrees, unit_degrees)
    @settings(max_examples=300)
    def test_fuzzy(self, connective, p, q):
        # p is read as an atom, q as a variable: both reach the same steps.
        atoms = {("S", 1): p}
        formula = connective(Atom("S", Index(None, 1)), Q)
        assert eval_fuzzy(formula, atoms, {"q": q}) == REF_GRADED[connective](p, q)
        assert eval_fuzzy(Not(Q), propvars={"q": q}) == 1 - q

    @given(st.lists(unit_degrees, min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_fuzzy_quantifiers(self, degrees):
        atoms = {("S", n): d for n, d in enumerate(degrees)}
        domain = (0, len(degrees) - 1)
        body = Atom("S", Index("n", 0))
        want_all = functools.reduce(REF_GRADED[And], degrees)
        want_any = functools.reduce(REF_GRADED[Or], degrees)
        assert eval_fuzzy(Forall("n", domain, body), atoms) == want_all
        assert eval_fuzzy(Exists("n", domain, body), atoms) == want_any


def atom(n):
    return Atom("S", Index(None, n))


class TestDeepTrees:
    """Trees built in Python past ``MAX_HEIGHT`` evaluate: the graded run
    spends no stack frame per level."""

    DEPTH = 3000

    @pytest.mark.parametrize("depth", [DEPTH, DEPTH + 1])
    @pytest.mark.parametrize(
        "evaluate, value", [(eval_k3, TRUE), (eval_k3, HALF), (eval_fuzzy, F(1, 3))]
    )
    def test_negation_chain(self, evaluate, value, depth):
        formula = atom(1)
        for _ in range(depth):
            formula = Not(formula)
        expected = value if depth % 2 == 0 else 1 - value
        assert evaluate(formula, lambda p, n: value) == expected

    @pytest.mark.parametrize("nest", ["left", "right"])
    def test_conjunction_chain(self, nest):
        formula = atom(0)
        for n in range(1, self.DEPTH + 1):
            formula = And(formula, atom(n)) if nest == "left" else And(atom(n), formula)
        # Every degree but S(1234)'s is at least 4/9.
        degrees = lambda p, n: F(1, 3) if n == 1234 else F(n % 5 + 4, 9)
        assert eval_fuzzy(formula, degrees) == F(1, 3)
        assert eval_k3(formula, lambda p, n: HALF if n == 1234 else TRUE) == HALF
        assert eval_k3(formula, lambda p, n: TRUE) == TRUE


class TestErrorOrder:
    """The plan raises the first error the per-node walker meets; a node
    that is not a formula is refused before the plan runs."""

    CASES = {
        "k3": (eval_k3, ref_eval_k3, F(1, 3), HALF),
        "fuzzy": (eval_fuzzy, ref_eval_fuzzy, F(3, 2), F(2, 5)),
    }

    @staticmethod
    def error(evaluate, *args):
        with pytest.raises((ValueError, KeyError, TypeError, AttributeError)) as caught:
            evaluate(*args)
        return type(caught.value), str(caught.value)

    @pytest.mark.parametrize("evaluator", sorted(CASES))
    def test_bad_value_before_a_bad_node(self, evaluator):
        # Lowering the tree refuses the node before any atom is asked for.
        fast, _, bad, _ = self.CASES[evaluator]
        node = object()
        asked = []

        def source(p, n):
            asked.append((p, n))
            return bad

        got = self.error(fast, And(atom(1), node), source)
        assert got == (TypeError, f"not a formula: {node!r}")
        assert asked == []

    @pytest.mark.parametrize("evaluator", sorted(CASES))
    def test_bad_node_after_a_good_value(self, evaluator):
        fast, reference, _, good = self.CASES[evaluator]
        node = object()
        formula = And(atom(1), node)
        got = self.error(fast, formula, lambda p, n: good)
        assert got == self.error(reference, formula, lambda p, n: good)
        assert got == (TypeError, f"not a formula: {node!r}")

    @pytest.mark.parametrize("evaluator", sorted(CASES))
    def test_bad_node_before_a_bad_value(self, evaluator):
        fast, reference, bad, _ = self.CASES[evaluator]
        formula = Or(Not(object()), atom(1))
        got = self.error(fast, formula, lambda p, n: bad)
        assert got == self.error(reference, formula, lambda p, n: bad)
        assert got[0] is TypeError

    @pytest.mark.parametrize("evaluator", sorted(CASES))
    @pytest.mark.parametrize("good", [False, True])
    def test_atom_with_a_bad_index(self, evaluator, good):
        # An atom whose index is not an Index is refused where it is built,
        # so no evaluator meets one; with an Index, the same atom evaluates.
        fast, reference, bad, fine = self.CASES[evaluator]
        with pytest.raises(TypeError, match="atom index must be an Index, got 3"):
            Implies(atom(1), Atom("S", 3))
        formula = Implies(atom(1), atom(3))
        value = fine if good else bad
        got = outcome(fast, formula, lambda p, n: value)
        assert got == outcome(reference, formula, lambda p, n: value)
        assert isinstance(got, Fraction) if good else got[0] is ValueError

    @pytest.mark.parametrize(
        "text",
        [
            "S(1) -> p",
            "S(1) & ~p",
            "~(S(2) & ~p) & (q | ~S(3))",
            "(S(2) & p) -> (S(2) | q)",
            "(S(1) <-> p) | (S(1) <-> ~p)",
        ],
    )
    def test_ground_atom_before_a_variable(self, text):
        formula = parse_formula(text)
        variables = collect_variables(formula)
        assert isinstance(variables[0], tuple) and "p" in variables
        assert quasi_tautology_k3(formula) == ref_quasi_tautology_k3(formula)
        assert is_tautology_k3(formula) == ref_is_tautology_k3(formula)

    def test_atom_and_variable_kept_apart(self):
        # Were p given S(1)'s value, S(1) -> p could never be 0.
        assert not quasi_tautology_k3(parse_formula("S(1) -> p"))
        assert quasi_tautology_k3(parse_formula("(S(1) <-> p) | (S(1) <-> ~p)"))


# -- the bit-mask walk against the serial one ---------------------------------

bool_values = mostly(st.booleans(), st.sampled_from([0, 1, "no"]))
#: Cutoffs from a narrow range, so that a family often repeats one.
cutoff_values = mostly(st.integers(-4, 8), st.sampled_from([None, 0.5, True]))


class TestBooleanWalkAgainstReference:
    """``eval_classical`` and ``eval_super`` give the serial walk's value,
    or the first error of its first failing cutoff."""

    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_classical(self, data):
        formula = data.draw(oracle_formulas)
        cutoff = data.draw(cutoff_values)
        propvars = data.draw(valuations(bool_values))
        got = outcome(eval_classical, formula, cutoff, propvars, ORACLE_DOMAINS)
        want = outcome(ref_eval_classical, formula, cutoff, propvars, ORACLE_DOMAINS)
        assert got == want
        assert type(got) is type(want)

    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_super(self, data):
        formula = data.draw(oracle_formulas)
        cutoffs = data.draw(st.lists(cutoff_values, max_size=5))
        propvars = data.draw(valuations(bool_values))
        got = outcome(eval_super, formula, cutoffs, propvars, ORACLE_DOMAINS)
        want = outcome(ref_eval_super, formula, cutoffs, propvars, ORACLE_DOMAINS)
        assert got == want

    FAMILIES = ([1, 5], [5, 1], [4, 0, 2])

    def agree(self, formula):
        for cutoffs in self.FAMILIES:
            got = outcome(eval_super, formula, cutoffs)
            assert got == outcome(ref_eval_super, formula, cutoffs)

    def test_every_two_connective_formula(self):
        # Every shape a op (b op c) and (a op b) op c over atoms that split
        # the families, their negations and two unbound variables: a node
        # reached under too wide a mask shows as an error the serial walk
        # never meets.
        atoms = [atom(n) for n in (1, 2, 3)]
        leaves = atoms + [Not(a) for a in atoms] + [PropVar("r"), PropVar("s")]
        for op, inner in itertools.product(BINARY, repeat=2):
            for a, b, c in itertools.product(leaves, repeat=3):
                self.agree(op(a, inner(b, c)))
                self.agree(op(inner(a, b), c))

    def test_every_quantified_connective(self):
        # A fold that skips the cutoffs already decided would miss an
        # error that a later value of n meets.
        atoms = [atom(1), atom(3), Atom("S", Index("n", 0))]
        leaves = atoms + [Not(a) for a in atoms] + [PropVar("r"), PropVar("s")]
        for quantifier, op in itertools.product((Forall, Exists), BINARY):
            for a, b in itertools.product(leaves, repeat=2):
                self.agree(quantifier("n", (0, 2), op(a, b)))

    def test_mixed_reach_raises_the_first_cutoffs_error(self):
        # Under cutoff 3, S(5) fails and S(1) holds, so the serial walk
        # passes q by and reaches r; under 10 it would reach q.
        formula = parse_formula("(S(5) & q) | (S(1) & r)")
        want = (UnboundAtom, str(UnboundAtom("unbound variable 'r'")))
        assert outcome(eval_super, formula, [3, 10, 2]) == want
        assert outcome(ref_eval_super, formula, [3, 10, 2]) == want
        want_q = (UnboundAtom, str(UnboundAtom("unbound variable 'q'")))
        assert outcome(eval_super, formula, [10, 3]) == want_q

    def test_rerun_starts_with_no_bindings(self):
        # The joint walk fails inside the quantifier with n still bound;
        # cutoff 1's own walk never binds it, and fails at S(n).
        formula = parse_formula("(S(1) & (forall n in 0..2. r)) | S(n)")
        want = (UnboundAtom, str(UnboundAtom("unbound index variable 'n'")))
        assert outcome(eval_super, formula, [1, 5]) == want
        assert outcome(ref_eval_super, formula, [1, 5]) == want

    @pytest.mark.parametrize("cutoffs", [[4], [4, 4], [9, 4, 9], [0, 2, 1]])
    def test_duplicate_cutoffs(self, cutoffs):
        formula = parse_formula("exists n in 0..9. S(n) & ~S(n+1)")
        assert eval_super(formula, cutoffs) is ref_eval_super(formula, cutoffs)
        for cutoff in cutoffs:
            want = ref_eval_classical(formula, cutoff)
            assert eval_classical(formula, cutoff) is want

    def test_subclass_walked_as_its_base(self):
        # The walk dispatches on a node's own class, so an instance of a
        # subclass is not a formula, at the root or where the walk reaches it.
        class Both(And):
            pass

        node = Both(Atom("S", Index(None, 1)), Not(P))
        refused = (TypeError, f"not a formula: {node!r}")
        for formula in (node, Or(Atom("S", Index(None, 5)), node)):
            for cutoff in (1, 2):
                assert outcome(eval_classical, formula, cutoff, {"p": False}) == refused
            assert outcome(eval_super, formula, [1, 2], {"p": False}) == refused

    def test_not_a_formula(self):
        node = object()
        for evaluate, cutoff in ((eval_classical, 3), (eval_super, [1, 5])):
            got = outcome(evaluate, Or(Atom("S", Index(None, 5)), node), cutoff)
            assert got == (TypeError, f"not a formula: {node!r}")


_S2 = Atom("S", Index(None, 2))
_SN = Atom("S", Index("n", 0))


class TestFormulaSubclasses:
    """A formula is a tree of the nine node classes exactly: to every walker
    an instance of a trivial subclass of one is not a formula."""

    BASES = [
        _S2,
        P,
        Not(_S2),
        And(_S2, P),
        Or(_S2, P),
        Implies(_S2, P),
        Iff(_S2, P),
        Forall("n", (1, 3), Or(_SN, P)),
        Exists("n", (1, 3), And(_SN, P)),
    ]

    @staticmethod
    def _results(formula):
        k3 = {("S", n): value for n, value in zip((1, 2, 3), (TRUE, HALF, FALSE))}
        return [
            outcome(formula_to_str, formula),
            *(
                outcome(eval_classical, formula, cutoff, {"p": p})
                for cutoff in range(1, 5)
                for p in (False, True)
            ),
            *(
                outcome(eval_super, formula, cutoffs, {"p": p})
                for cutoffs in ([1, 3], [2, 4])
                for p in (False, True)
            ),
            outcome(eval_k3, formula, k3, {"p": HALF}),
            outcome(eval_fuzzy, formula, lambda pred, n: F(n, 4), {"p": F(1, 3)}),
            outcome(collect_variables, formula),
            outcome(is_tautology_k3, formula),
            outcome(quasi_tautology_k3, formula),
        ]

    @pytest.mark.parametrize("base", BASES, ids=lambda base: type(base).__name__)
    def test_printed_and_evaluated_as_the_base(self, base):
        # The base is printed and evaluated; its subclass is refused by every
        # walker, at the root and as a child.  Iff is the parent because the
        # boolean walk reaches both its sides under every cutoff.
        kind = type(base)
        subclass = type(f"Sub{kind.__name__}", (kind,), {})
        node = subclass(*(getattr(base, f.name) for f in dataclasses.fields(base)))
        refused = (TypeError, f"not a formula: {node!r}")
        for wrap in (lambda f: f, Not, lambda f: Iff(P, f)):
            walked = self._results(wrap(base))
            assert not any(type(r) is tuple and r[0] is TypeError for r in walked)
            assert set(self._results(wrap(node))) == {refused}


class TestTautologyOnDeepTrees:
    """Both tautology searches read the tree with explicit stacks only."""

    @pytest.mark.parametrize("depth", [3000, 3001])
    def test_negation_chain(self, depth):
        formula = P
        for _ in range(depth):
            formula = Not(formula)
        assert collect_variables(formula) == ("p",)
        assert not is_tautology_k3(formula)
        assert not quasi_tautology_k3(formula)

    def test_quantifier_nest(self):
        # The searches refuse the first quantifier, so its body is not lowered.
        formula = P
        for _ in range(1200):
            formula = Forall("n", (1, 3), formula)
        for search in (collect_variables, is_tautology_k3, quasi_tautology_k3):
            with pytest.raises(ValueError, match="quantifier-free formula required"):
                search(formula)

    @given(
        formula=st.one_of(k3_formulas, oracle_formulas),
        depth=st.sampled_from([0, 1, 2, 3000]),
    )
    @settings(max_examples=300, deadline=None)
    def test_collect_variables_against_the_tree_walk(self, formula, depth):
        # Propositional formulas, and quantifiers and open atoms, which
        # raise, each under a chain of Nots up to 3000 deep.
        for _ in range(depth):
            formula = Not(formula)
        got = outcome(collect_variables, formula)
        assert got == outcome(ref_collect_variables, formula)

    def test_collect_variables_order_and_errors(self):
        formula = parse_formula("(q & S(2)) -> ~(p | q) <-> S(2) & r")
        assert collect_variables(formula) == ("q", ("S", 2), "p", "r")
        with pytest.raises(ValueError, match="open index n"):
            collect_variables(parse_formula("p & S(n) | (forall m in 1..2. p)"))
        with pytest.raises(ValueError, match="quantifier-free"):
            collect_variables(parse_formula("p & (forall m in 1..2. p) | S(n)"))
