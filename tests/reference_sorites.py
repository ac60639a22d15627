"""Reference Sorites runners that the change-point runners are tested against.

These are the per-index versions the change-point runners replaced: every
index of the range is visited, and every induction step and every chain link
asks whether ``S(n)`` is designated true and whether ``S(n+1)`` is.  They
answer that without the backends' own verdicts: a classical backend
evaluates ``S(n)`` with ``eval_classical`` at its cutoff, a Kleene backend
compares ``n`` with ``t1`` and ``t2``, a supervaluation backend evaluates
``S(n)`` and ``S(n) -> S(n+1)`` on every precisification with
``eval_super``, a nonstandard backend compares the series of ``n`` with its
bound through ``holds``, a fuzzy backend interpolates its breakpoints
afresh, and the doubling analysis samples every naive index.  They share no
code with ``truth``, ``designated_true``, ``designated_false``,
``change_points``, the failing edges or the fuzzy pieces.
"""

from fractions import Fraction

from soritica.formulas import Atom, Implies, Index
from soritica.neutrix import ExternalNumber, classify
from soritica.semantics import SuperVerdict, eval_classical, eval_super
from soritica.series import EpsSeries
from soritica.sorites import (
    BackendUnsupported,
    BarnesResult,
    ChainThroughWitness,
    ClassicalCutoff,
    ConditionalResult,
    DoublingResult,
    FuzzyMembership,
    InductionResult,
    KleenePenumbra,
    Nonstandard,
    SoritesReport,
    Superval,
    Witness,
)


def _atom(n):
    return Atom("S", Index(None, n))


def _step_formula(n):
    return Implies(_atom(n), _atom(n + 1))


def ref_degree(points, n):
    """The degree at ``n`` of the breakpoints ``points``, interpolated exactly."""
    if n <= points[0][0]:
        return points[0][1]
    if n >= points[-1][0]:
        return points[-1][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= n <= x1:
            return y0 + (y1 - y0) * Fraction(n - x0, x1 - x0)
    raise AssertionError("unreachable")


def ref_implication(backend, n):
    return max(1 - ref_degree(backend.points, n), ref_degree(backend.points, n + 1))


def ref_designated_true(backend, n):
    if isinstance(backend, ClassicalCutoff):
        return eval_classical(_atom(n), backend.cutoff)
    if isinstance(backend, KleenePenumbra):
        return n < backend.t1
    if isinstance(backend, Superval):
        return eval_super(_atom(n), backend.cutoffs) is SuperVerdict.SUPERTRUE
    if isinstance(backend, Nonstandard):
        return backend.holds(EpsSeries.from_rational(n))
    if isinstance(backend, FuzzyMembership):
        return ref_degree(backend.points, n) >= backend.threshold
    raise TypeError(f"no reference verdict for {backend!r}")


def ref_designated_false(backend, n):
    if isinstance(backend, ClassicalCutoff):
        return not eval_classical(_atom(n), backend.cutoff)
    if isinstance(backend, KleenePenumbra):
        return n > backend.t2
    if isinstance(backend, Superval):
        return eval_super(_atom(n), backend.cutoffs) is SuperVerdict.SUPERFALSE
    if isinstance(backend, Nonstandard):
        return not backend.holds(EpsSeries.from_rational(n))
    if isinstance(backend, FuzzyMembership):
        return ref_degree(backend.points, n) <= 1 - backend.threshold
    raise TypeError(f"no reference verdict for {backend!r}")


def ref_step_true(backend, n):
    if isinstance(backend, Superval):
        verdict = eval_super(_step_formula(n), backend.cutoffs)
        return verdict is SuperVerdict.SUPERTRUE
    return not ref_designated_true(backend, n) or ref_designated_true(backend, n + 1)


def ref_barnes_check(scenario):
    backend = scenario.backend
    evidence = []

    c1 = ref_designated_true(backend, scenario.lo)
    evidence.append(f"S(a_{scenario.lo}) designated-true: {c1}")

    if isinstance(backend, Nonstandard) and scenario.witnesses:
        c2 = all(not backend.holds(w.series) for w in scenario.witnesses)
        witnesses = ", ".join(str(w.series) for w in scenario.witnesses)
        evidence.append(f"~S at witnesses {witnesses}: {c2}")
    else:
        c2 = ref_designated_false(backend, scenario.hi)
        evidence.append(f"S(a_{scenario.hi}) designated-false: {c2}")

    c3 = True
    for n in range(scenario.lo, scenario.hi):
        if ref_designated_true(backend, n) and ref_designated_false(backend, n + 1):
            c3 = False
            evidence.append(
                f"adjacent flip: S(a_{n}) designated-true, "
                f"S(a_{n + 1}) designated-false (witness {n})"
            )
            break
    if c3:
        evidence.append("no adjacent designated-true -> designated-false step")
        if isinstance(backend, Nonstandard) and backend.bound is None:
            evidence.append(
                "no representable adjacent flip: limited + 1 stays limited"
            )
    return BarnesResult(c1, c2, c3, tuple(evidence))


def ref_run_induction(scenario):
    backend = scenario.backend
    basis = ref_designated_true(backend, scenario.lo)
    witness_details = []

    if isinstance(backend, FuzzyMembership):
        basis_degree = ref_degree(backend.points, scenario.lo)
        min_step = min(
            ref_implication(backend, n) for n in range(scenario.lo, scenario.hi)
        )
        return InductionResult(
            basis=basis,
            basis_detail=f"degree of S(a_{scenario.lo}) = {basis_degree}",
            step_holds=min_step >= backend.threshold,
            step_counterexample=None,
            step_detail=f"minimum step-implication degree = {min_step}",
            witness_details=(),
        )

    step_holds = True
    counterexample = None
    for n in range(scenario.lo, scenario.hi):
        if not ref_step_true(backend, n):
            step_holds = False
            counterexample = n
            break

    if isinstance(backend, Nonstandard):
        for w in scenario.witnesses:
            holds = backend.holds(w.series)
            cls = classify(ExternalNumber.make(w.series))
            witness_details.append(
                f"~S({w.series}): {not holds} (classified {cls.value})"
            )
        step_detail = (
            "demonstrated on naive samples "
            f"{scenario.lo}..{scenario.hi}; external induction covers "
            "exactly the naive numbers"
        )
    elif isinstance(backend, Superval):
        step_detail = "step instance supertrue for every sampled n"
        if counterexample is not None:
            step_detail = (
                f"step instance not supertrue at n={counterexample} "
                "(some precisification cuts there)"
            )
    else:
        step_detail = "step designated-true for every sampled n"
        if counterexample is not None:
            step_detail = f"step fails at n={counterexample}"

    return InductionResult(
        basis=basis,
        basis_detail=f"S(a_{scenario.lo}) designated-true: {basis}",
        step_holds=step_holds,
        step_counterexample=counterexample,
        step_detail=step_detail,
        witness_details=tuple(witness_details),
    )


def ref_run_conditional(scenario):
    backend = scenario.backend
    length = scenario.chain_length
    if length is None:
        length = scenario.hi

    if isinstance(length, Witness):
        if isinstance(backend, Nonstandard):
            raise ChainThroughWitness(
                f"chain length {length.series} is not naive: modus ponens "
                "may only be iterated a naive number of times"
            )
        raise ValueError("witness chain lengths apply to the nonstandard backend")
    if not scenario.lo <= length <= scenario.hi:
        raise ValueError(
            f"chain length {length} outside range "
            f"{scenario.lo}..{scenario.hi}"
        )

    target = length

    if isinstance(backend, FuzzyMembership):
        final = ref_degree(backend.points, target)
        min_link = (
            min(ref_implication(backend, n) for n in range(scenario.lo, target))
            if target > scenario.lo
            else Fraction(1)
        )
        return ConditionalResult(
            completed=True,
            chain_length=str(target),
            failing_link=None,
            conclusion=(
                f"degree of S(a_{target}) = {final}; "
                f"minimum link degree = {min_link}"
            ),
        )

    for n in range(scenario.lo, target):
        if not ref_step_true(backend, n):
            return ConditionalResult(
                completed=False,
                chain_length=str(target),
                failing_link=n,
                conclusion=f"chain stops at link {n} -> {n + 1}",
            )
    designated = ref_designated_true(backend, target)
    return ConditionalResult(
        completed=True,
        chain_length=str(target),
        failing_link=None,
        conclusion=f"S(a_{target}) designated-true: {designated}",
    )


def ref_doubling_analysis(scenario):
    backend = scenario.backend
    if not isinstance(backend, Nonstandard):
        raise BackendUnsupported(
            "doubling analysis is defined only for the nonstandard backend"
        )
    samples = [EpsSeries.from_rational(n) for n in range(scenario.lo, scenario.hi + 1)]
    samples.extend(w.series for w in scenario.witnesses)
    if backend.bound is not None:
        samples.append(backend.bound * Fraction(1, 2))
    for x in samples:
        if backend.holds(x) and not backend.holds(x * 2):
            return DoublingResult(
                invariant=False,
                witness=str(x),
                detail=f"S({x}) holds but S({x * 2}) fails",
            )
    return DoublingResult(
        invariant=True,
        witness=None,
        detail="S(x) implies S(2x) on every sample",
    )


def ref_run_scenario(scenario):
    backend = scenario.backend
    notes = []
    barnes = ref_barnes_check(scenario)
    induction = ref_run_induction(scenario)
    try:
        conditional = ref_run_conditional(scenario)
    except ChainThroughWitness as exc:
        conditional = None
        notes.append(f"conditional chain refused: {exc}")
    doubling = None
    if isinstance(backend, Nonstandard):
        doubling = ref_doubling_analysis(scenario)
        notes.append(
            "nonstandard step checking is a sampling-based demonstration, "
            "not a proof: external induction is an axiom schema"
        )
    return SoritesReport(
        scenario=scenario.name,
        backend_id=backend.id,
        backend_detail=backend.describe(),
        barnes=barnes,
        induction=induction,
        conditional=conditional,
        doubling=doubling,
        notes=tuple(notes),
    )
