"""Acceptance suite: one test per criterion, one printed verdict line each."""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources
from pathlib import Path

from soritica.formulas import And, Iff, Implies, Not, Or, PropVar, parse_formula
from soritica.laws import rand_external, run_law_suite
from soritica.neutrix import (
    ExternalNumber,
    Neutrix,
    binomial_check,
    distributivity_holds,
    parse_external,
)
from soritica.sampling import (
    en_member,
    en_samples,
    neutrix_samples,
    strict_subset_witness,
)
from soritica.semantics import (
    FALSE,
    HALF,
    TRUE,
    SuperVerdict,
    eval_classical,
    eval_fuzzy,
    eval_k3,
    eval_super,
    is_tautology_k3,
    kleene_tables,
    quasi_tautology_k3,
)
from soritica.series import EPS, OMEGA, ZERO, EpsSeries, parse_series
from soritica.sorites import run_scenario, scenario_from_dict
from soritica.neutrix import n_mul, n_scale

F = Fraction
FIXTURES = resources.files("soritica") / "fixtures"
TABLES_GOLDEN = Path(__file__).parent / "golden" / "tables.txt"


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"criterion {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_kleene_tables_golden():
    with criterion(1, "Kleene tables match the golden 12 rows exactly", 1.0):
        golden = TABLES_GOLDEN.read_text()
        assert kleene_tables() == golden
        # independently pinned rows (p, q, |, &, ->, <->)
        expected_binary = [
            ("1", "1", "1", "1", "1", "1"),
            ("1", "0", "1", "0", "0", "0"),
            ("1", "1/2", "1", "1/2", "1/2", "1/2"),
            ("0", "1", "1", "0", "1", "0"),
            ("0", "0", "0", "0", "1", "1"),
            ("0", "1/2", "1/2", "0", "1", "1/2"),
            ("1/2", "1", "1", "1/2", "1", "1/2"),
            ("1/2", "0", "1/2", "0", "1/2", "1/2"),
            ("1/2", "1/2", "1/2", "1/2", "1/2", "1/2"),
        ]
        expected_negation = [("1", "0"), ("0", "1"), ("1/2", "1/2")]
        lines = [l for l in golden.splitlines() if l]
        negation_rows = [tuple(l.split()) for l in lines[1:4]]
        binary_rows = [tuple(l.split()) for l in lines[5:14]]
        assert negation_rows == expected_negation
        assert binary_rows == expected_binary


def test_criterion_2_excluded_middle():
    with criterion(
        2, "p|~p is not a tautology but is a quasi-tautology", 1.0
    ):
        formula = parse_formula("p | ~p")
        assert is_tautology_k3(formula) is False
        assert quasi_tautology_k3(formula) is True


def test_criterion_3_neutrix_identities():
    with criterion(
        3, "neutrix identities hold canonically and under sampling", 1.0
    ):
        rng = random.Random(2024)
        oslash = parse_external("osl")

        def oracle_equal(left, right):
            return all(
                en_member(x, right) for x in en_samples(left, 50, rng)
            ) and all(en_member(x, left) for x in en_samples(right, 50, rng))

        # oslash + oslash = oslash
        got = oslash + oslash
        assert got == oslash and oracle_equal(got, oslash)
        # eps + oslash = oslash
        got = parse_external("e") + oslash
        assert got == oslash and oracle_equal(got, oslash)
        # 3 * oslash = oslash  (nA = A)
        got = parse_external("3") * oslash
        assert got == oslash and oracle_equal(got, oslash)
        # omega * oslash is a strict superset of oslash  (A subset of wA)
        scaled = n_scale(OMEGA, Neutrix.osl(0))
        assert scaled.strictly_includes(Neutrix.osl(0))
        witness = strict_subset_witness(Neutrix.osl(0), scaled)
        assert witness is not None and scaled.contains(witness)
        assert not Neutrix.osl(0).contains(witness)
        for sample in neutrix_samples(Neutrix.osl(0), 50, rng):
            assert scaled.contains(sample)
        # eps-scaled group sits strictly inside oslash
        inner = n_scale(EPS, Neutrix.osl(0))
        assert Neutrix.osl(0).strictly_includes(inner)
        for sample in neutrix_samples(inner, 50, rng):
            assert Neutrix.osl(0).contains(sample)
        assert strict_subset_witness(inner, Neutrix.osl(0)) is not None


def test_criterion_4_algebraic_law_suite():
    with criterion(4, "all algebraic laws pass on 1000 random instances", 30.0):
        results = run_law_suite(seed=42, cases=1000)
        for result in results:
            assert result.passed, f"{result.name}: {result.counterexample}"


def test_criterion_5_distributivity_failure():
    with criterion(
        5, "the pinned triple and a seeded search break distributivity", 10.0
    ):
        alpha = parse_external("1 + osl")
        beta = parse_external("1")
        gamma = parse_external("-1")
        ok, left, right = distributivity_holds(alpha, beta, gamma)
        assert not ok
        assert left == ExternalNumber.make(ZERO, Neutrix.zero())
        assert right == ExternalNumber.make(ZERO, Neutrix.osl(0))
        rng = random.Random(5)
        counterexamples = 0
        for _ in range(10000):
            a, b, c = (rand_external(rng) for _ in range(3))
            if not distributivity_holds(a, b, c)[0]:
                counterexamples += 1
        assert counterexamples >= 1


def test_criterion_6_binomial_law():
    with criterion(6, "binomial expansion matches for n <= 8", 10.0):
        rng = random.Random(6)
        for _ in range(200):
            a, b = rand_external(rng), rand_external(rng)
            n = rng.randint(0, 8)
            ok, _, _ = binomial_check(a, b, n)
            assert ok, f"binomial failed: {a}, {b}, n={n}"


def test_criterion_7_supervaluation():
    with criterion(
        7, "supervaluation over cutoffs 2..6 behaves as required", 1.0
    ):
        family = range(2, 7)
        # substitution instances of classical tautologies are supertrue
        for n in range(1, 11):
            for shape in (
                f"S({n}) | ~S({n})",
                f"S({n}) -> S({n})",
                f"~(S({n}) & ~S({n}))",
            ):
                verdict = eval_super(parse_formula(shape), family)
                assert verdict is SuperVerdict.SUPERTRUE
        exists = parse_formula("exists n in 1..9. S(n) & ~S(n+1)")
        assert eval_super(exists, family) is SuperVerdict.SUPERTRUE
        for n in range(1, 10):
            instance = parse_formula(f"S({n}) & ~S({n + 1})")
            assert (
                eval_super(instance, family) is not SuperVerdict.SUPERTRUE
            )


def test_criterion_8_sorites_fixtures():
    with criterion(8, "bundled sorites fixtures report as required", 10.0):
        def load(name):
            return scenario_from_dict(
                json.loads((FIXTURES / name).read_text())
            )

        classical = run_scenario(load("classical_cutoff5.json"))
        assert not classical.barnes.c3
        assert any(
            "witness 4" in line for line in classical.barnes.evidence
        )
        assert classical.induction.step_counterexample == 4

        heap = run_scenario(load("nonstandard_heap.json"))
        assert heap.barnes.all_pass()
        assert heap.induction.basis and heap.induction.step_holds
        assert any(
            "~S(e^(-1)): True" in d for d in heap.induction.witness_details
        )
        assert heap.doubling is not None and heap.doubling.invariant

        cut = run_scenario(load("nonstandard_cut.json"))
        assert cut.doubling is not None and not cut.doubling.invariant
        assert cut.doubling.witness == "1/2*e^(-1)"

        # byte-identical reports across runs
        for name in (
            "classical_cutoff5.json",
            "nonstandard_heap.json",
            "nonstandard_cut.json",
        ):
            first = run_scenario(load(name))
            second = run_scenario(load(name))
            assert first.to_text().encode() == second.to_text().encode()
            assert first.to_json().encode() == second.to_json().encode()


VARS = [f"p{i}" for i in range(6)]


def _random_formula(rng, depth=0):
    if depth >= 4 or rng.random() < 0.3:
        return PropVar(rng.choice(VARS))
    shape = rng.randrange(5)
    if shape == 0:
        return Not(_random_formula(rng, depth + 1))
    cls = (And, Or, Implies, Iff)[shape - 1]
    return cls(
        _random_formula(rng, depth + 1), _random_formula(rng, depth + 1)
    )


def test_criterion_9_conservativity_tower():
    with criterion(
        9, "K3 restricted to {0,1} is classical; fuzzy on K3 values is K3", 30.0
    ):
        rng = random.Random(9)
        for _ in range(5000):
            formula = _random_formula(rng)
            bools = {v: rng.choice((True, False)) for v in VARS}
            graded = {v: TRUE if b else FALSE for v, b in bools.items()}
            assert (
                eval_k3(formula, propvars=graded) == TRUE
            ) == eval_classical(formula, propvars=bools)
            k3_values = {
                v: rng.choice((TRUE, FALSE, HALF)) for v in VARS
            }
            assert eval_fuzzy(formula, propvars=k3_values) == eval_k3(
                formula, propvars=k3_values
            )
