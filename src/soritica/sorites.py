"""Soritical scenarios, constraint checks, schema runners, and reports.

A scenario pairs an indexed series ``a_lo .. a_hi`` with one predicate
backend (sharp cutoff, three-valued penumbra, fuzzy membership,
precisification family, or the nonstandard order-of-magnitude model) and
optional infinitely-large witness indices.  The runners check the three
soritical constraints, the induction and conditional argument schemata,
and the doubling analysis, producing deterministic reports.

The runners do not walk the range.  Each backend names its change points,
``change_points(lo, stop)``: the indices in ``lo .. stop-1``, ``lo`` always
among them, where a designation flip, a failing step or a weakest fuzzy link
can first occur.  The runners test only those, so a run costs the same on a
range of ten indices as on one of 10**12.

Each backend derives its boundary from its parameters once, when it is
built.  A non-fuzzy backend (sharp cutoff, penumbra, precisifications,
nonstandard cut) is a step function of the index: sorted edges, one verdict
per gap between them, and the edges at which a step fails.  ``Backend``
answers every query from those; the change points are the indices just
before an edge.  The nonstandard cut finds its one edge, the least integer
at or above the bound, in closed form, and ``inf`` or ``-inf`` when no
integer or every integer is.  The fuzzy backend derives its pieces and the
change points that do not depend on the range.  A per-index query is then
one bisection, and a run costs O(change points + witnesses) on every
backend.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from math import inf
from numbers import Rational
from typing import Dict, List, Optional, Tuple, Union

from . import __version__
from .neutrix import ExternalNumber, classify
from .semantics import HALF, TRUE, FALSE, SuperVerdict
from .series import EpsSeries, ParseError, parse_series

__all__ = [
    "Witness",
    "ClassicalCutoff",
    "KleenePenumbra",
    "FuzzyMembership",
    "Superval",
    "Nonstandard",
    "SoritesScenario",
    "SoritesReport",
    "ChainThroughWitness",
    "BackendUnsupported",
    "ConfigError",
    "barnes_check",
    "run_induction",
    "run_conditional",
    "doubling_analysis",
    "run_scenario",
    "load_scenario",
    "scenario_from_dict",
]


class ChainThroughWitness(ValueError):
    """A modus-ponens chain may only be iterated a naive number of times."""


class BackendUnsupported(ValueError):
    pass


class ConfigError(ValueError):
    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer
        self.message = message


@dataclass(frozen=True)
class Witness:
    """An infinitely large index, given as a series of negative valuation."""

    series: EpsSeries

    def __post_init__(self):
        if not isinstance(self.series, EpsSeries):
            raise TypeError(f"witness {self.series!r} is not an EpsSeries")
        if not self.series.valuation < 0:
            raise ValueError(f"witness {self.series} is not unlimited")


# -- backends --------------------------------------------------------------


class Backend:
    """What the runners ask of a backend, answered as a step function does.

    A non-fuzzy backend is a step function of the index.  Its ``__post_init__``
    passes ``_steps`` the sorted edges, one verdict per gap between them (the
    true verdict first, the false one last), and the edges ``e`` at which the
    step S(e-1) -> S(e) fails; the methods here answer every query from them.
    ``FuzzyMembership`` answers for itself and reports the weakest link
    instead of the first failing step, and ``Nonstandard`` also reads
    unlimited indices.
    """

    #: Whether indices may be unlimited: witnesses, a witness chain length
    #: and the doubling analysis apply only then.
    unlimited = False
    #: Step detail when all steps over ``{lo}..{hi}`` hold, and when step ``{n}`` fails.
    step_wording = ("step designated-true for every sampled n", "step fails at n={n}")
    #: Evidence for c3, after the generic line, when no adjacent flip exists.
    no_flip_evidence: Tuple[str, ...] = ()
    #: Notes that end every report on this backend.
    notes: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # bench/tracing.py counts these by patching vars(cls)[name], so each
        # class holds them in its own body.
        for name in ("truth", "designated_true", "designated_false"):
            if name not in vars(cls):
                setattr(cls, name, getattr(cls, name))

    def _steps(self, edges, verdicts, fails) -> None:
        # Not fields: equality, hashing, repr and replace see only the parameters.
        object.__setattr__(self, "_edges", tuple(edges))
        object.__setattr__(self, "_verdicts", tuple(verdicts))
        object.__setattr__(self, "_fails", frozenset(fails))

    def truth(self, n: int):
        return self._verdicts[bisect_right(self._edges, n)]

    def designated_true(self, n: int) -> bool:
        return self.truth(n) == self._verdicts[0]

    def designated_false(self, n: int) -> bool:
        return self.truth(n) == self._verdicts[-1]

    def step_holds(self, n: int) -> bool:
        return n + 1 not in self._fails

    def change_points(self, lo: int, stop: int) -> List[int]:
        # S(n) and S(n) -> S(n+1) change only where n + 1 is an edge.
        return _clip([e - 1 for e in self._edges], lo, stop)

    def first_failing_step(self, lo: int, stop: int) -> Optional[int]:
        """The least ``n`` in ``lo .. stop-1`` whose step S(n) -> S(n+1) fails."""
        points = self.change_points(lo, stop)
        return next((n for n in points if not self.step_holds(n)), None)

    def induction(self, lo: int, hi: int, witness_details) -> InductionResult:
        basis = self.designated_true(lo)
        n = self.first_failing_step(lo, hi)
        return InductionResult(
            basis=basis,
            basis_detail=f"S(a_{lo}) designated-true: {basis}",
            step_holds=n is None,
            step_counterexample=n,
            step_detail=self.step_wording[n is not None].format(lo=lo, hi=hi, n=n),
            witness_details=witness_details,
        )

    def chain(self, lo: int, target: int) -> ConditionalResult:
        n = self.first_failing_step(lo, target)
        return ConditionalResult(
            completed=n is None,
            chain_length=str(target),
            failing_link=n,
            conclusion=(
                f"S(a_{target}) designated-true: {self.designated_true(target)}"
                if n is None
                else f"chain stops at link {n} -> {n + 1}"
            ),
        )


@dataclass(frozen=True)
class ClassicalCutoff(Backend):
    """Hidden sharp boundary: S(a_n) holds exactly below the cutoff."""

    cutoff: int

    id = "classical_cutoff"

    def __post_init__(self):
        self._steps((_integer(self.cutoff),), (True, False), (self.cutoff,))

    def describe(self) -> str:
        return f"classical cutoff at {self.cutoff}"


@dataclass(frozen=True)
class KleenePenumbra(Backend):
    """Three-valued: true below t1, undefined on t1..t2, false above t2."""

    t1: int
    t2: int

    id = "kleene_penumbra"

    def __post_init__(self):
        if _integer(self.t1) > _integer(self.t2):
            raise ValueError("penumbra bounds must satisfy t1 <= t2")
        self._steps((self.t1, self.t2 + 1), (TRUE, HALF, FALSE), (self.t1,))

    def describe(self) -> str:
        return f"three-valued penumbra on {self.t1}..{self.t2}"


@dataclass(frozen=True)
class FuzzyMembership(Backend):
    """Piecewise-linear degree function over the index range.

    ``points`` are (index, degree) breakpoints with increasing indices;
    degrees between breakpoints are interpolated exactly.
    """

    points: Tuple[Tuple[int, Fraction], ...]
    threshold: Fraction = Fraction(1)

    id = "fuzzy_membership"

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("need at least two breakpoints")
        indices = [_integer(n) for n, _ in self.points]
        if indices != sorted(set(indices)):
            raise ValueError("breakpoint indices must be strictly increasing")
        for _, degree in self.points:
            if not 0 <= _exact(degree) <= 1:
                raise ValueError("degrees must lie in [0, 1]")
        if not 0 <= _exact(self.threshold) <= 1:
            raise ValueError(f"threshold {self.threshold} must lie in [0, 1]")
        # Derived once, and not fields: equality, hashing, repr and replace
        # see only the parameters.  S(n) and S(n+1) are both constant below
        # the first breakpoint and from the last on, and both linear on each
        # piece x0..x1-1 between.  On a piece, a designation or step test
        # changes only next to where one of them crosses threshold or
        # 1 - threshold, and the weakest link max(1 - S(n), S(n+1)) lies at
        # an end or next to where its two sides meet.
        pieces = []
        fixed = set()
        levels = (self.threshold, 1 - self.threshold)
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            slope = Fraction(y1 - y0, x1 - x0)
            pieces.append((x0, y0, slope))
            fixed.update((x0 - 1, x0))
            if not slope:
                continue
            for v in levels:
                # S(n) meets v at x0 + (v - y0) / slope, and S(n+1) one before.
                k = x0 + (v - y0) / slope // 1
                fixed.update((k - 1, k, k + 1))
            # 1 - S(n) meets S(n+1) half an index before S(n) meets 1/2.
            k = x0 + ((1 - 2 * y0) / slope - 1) / 2 // 1
            fixed.update((k, k + 1))
        fixed.update((indices[-1] - 1, indices[-1]))
        object.__setattr__(self, "_indices", tuple(indices))
        object.__setattr__(self, "_pieces", tuple(pieces))
        object.__setattr__(self, "_fixed", tuple(sorted(fixed)))

    def truth(self, n: int) -> Fraction:
        indices = self._indices
        if n <= indices[0]:
            return self.points[0][1]
        if n >= indices[-1]:
            return self.points[-1][1]
        x0, y0, slope = self._pieces[bisect_right(indices, n) - 1]
        return y0 + slope * (n - x0)

    def designated_true(self, n: int) -> bool:
        return self.truth(n) >= self.threshold

    def designated_false(self, n: int) -> bool:
        return self.truth(n) <= 1 - self.threshold

    def implication(self, n: int) -> Fraction:
        return max(1 - self.truth(n), self.truth(n + 1))

    def step_holds(self, n: int) -> bool:
        return self.implication(n) >= self.threshold

    def weakest_link(self, lo: int, stop: int) -> Fraction:
        """The weakest step-implication degree on ``lo .. stop-1``; 1 if none."""
        points = self.change_points(lo, stop)
        # Adjacent change points share a degree: ask for each one once.
        degree = {n: self.truth(n) for n in {*points, *(n + 1 for n in points)}}
        return min(
            (max(1 - degree[n], degree[n + 1]) for n in points), default=Fraction(1)
        )

    def induction(self, lo: int, hi: int, witness_details) -> InductionResult:
        weakest = self.weakest_link(lo, hi)
        return InductionResult(
            basis=self.designated_true(lo),
            basis_detail=f"degree of S(a_{lo}) = {self.truth(lo)}",
            step_holds=weakest >= self.threshold,
            step_counterexample=None,
            step_detail=f"minimum step-implication degree = {weakest}",
            witness_details=witness_details,
        )

    def chain(self, lo: int, target: int) -> ConditionalResult:
        return ConditionalResult(
            completed=True,
            chain_length=str(target),
            failing_link=None,
            conclusion=(
                f"degree of S(a_{target}) = {self.truth(target)}; "
                f"minimum link degree = {self.weakest_link(lo, target)}"
            ),
        )

    def change_points(self, lo: int, stop: int) -> List[int]:
        # The range cuts a piece at lo and at stop - 1.
        return _clip((stop - 1, *self._fixed), lo, stop)

    def describe(self) -> str:
        pts = ", ".join(f"({n}, {d})" for n, d in self.points)
        return f"fuzzy membership through {pts}"


@dataclass(frozen=True)
class Superval(Backend):
    """Family of classical cutoff precisifications."""

    cutoffs: Tuple[int, ...]

    id = "superval"
    step_wording = (
        "step instance supertrue for every sampled n",
        "step instance not supertrue at n={n} (some precisification cuts there)",
    )

    def __post_init__(self):
        if not self.cutoffs:
            raise ValueError("precisification family must be nonempty")
        edges = sorted(set(map(_integer, self.cutoffs)))
        # S(n) holds on the precisification at cutoff k exactly when n < k,
        # and the step S(n) -> S(n+1) fails there exactly when k == n + 1.
        middle = (SuperVerdict.INDETERMINATE,) * (len(edges) - 1)
        self._steps(edges, (SuperVerdict.SUPERTRUE, *middle, SuperVerdict.SUPERFALSE), edges)

    def describe(self) -> str:
        return f"supervaluation over cutoffs {list(self.cutoffs)}"


@dataclass(frozen=True)
class Nonstandard(Backend):
    """Order-of-magnitude predicate: membership in the limited numbers,
    or position below an explicit series bound."""

    bound: Optional[EpsSeries] = None  # None: S(x) iff x is limited

    id = "nonstandard"
    unlimited = True
    step_wording = (
        "demonstrated on naive samples {lo}..{hi}; external induction covers "
        "exactly the naive numbers",
    ) * 2
    notes = (
        "nonstandard step checking is a sampling-based demonstration, "
        "not a proof: external induction is an axiom schema",
    )

    @property
    def no_flip_evidence(self) -> Tuple[str, ...]:
        if self.bound is None:
            return ("no representable adjacent flip: limited + 1 stays limited",)
        return ()

    def __post_init__(self):
        if self.bound is not None and not isinstance(self.bound, EpsSeries):
            raise TypeError(f"bound {self.bound!r} is not an EpsSeries")
        # S(n) holds exactly below the edge; for `limited` the edge is +inf,
        # since limited + 1 stays limited, and no n + 1 is an edge.
        edge = _edge_of(self.bound)
        self._steps((edge,), (True, False), (edge,))

    def holds(self, x: EpsSeries) -> bool:
        if self.bound is None:
            return x.is_zero or x.valuation >= 0
        return x < self.bound

    def doubling(self, lo: int, hi: int, witnesses) -> DoublingResult:
        samples: List[EpsSeries] = []
        (edge,) = self._edges
        if edge != inf:
            # S(2n) fails exactly from the least naive n with 2n >= edge on.
            # No smaller n is a witness, and a larger one only if this one is,
            # since S(n) too fails from some n on.  (A limited n doubles to a
            # limited 2n, so for `limited`, whose edge is +inf, no naive n is
            # a witness.)
            n = lo if edge == -inf else max(lo, -(-edge // 2))
            if n <= hi:
                samples.append(EpsSeries.from_rational(n))
        samples.extend(w.series for w in witnesses)
        if self.bound is not None:
            samples.append(self.bound * Fraction(1, 2))
        for x in samples:
            if self.holds(x) and not self.holds(x * 2):
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

    def describe(self) -> str:
        if self.bound is None:
            return "nonstandard: S(x) iff x is limited"
        return f"nonstandard cut: S(x) iff x < {self.bound}"


def _clip(points, lo: int, stop: int) -> List[int]:
    """``lo`` and those of ``points`` in ``lo .. stop-1``, sorted; [] if stop <= lo."""
    if stop <= lo:
        return []
    return sorted({lo, *(n for n in points if lo < n < stop)})


def _edge_of(bound: Optional[EpsSeries]) -> Union[int, float]:
    """The least integer ``n >= bound``: ``inf`` if none is, ``-inf`` if all are.

    ``None`` stands for the limited numbers, which every integer is among.
    """
    if bound is None:
        return inf
    if bound.is_zero:
        return 0
    (exponent, lead), rest = bound.terms[0], bound.terms[1:]
    if exponent < 0:  # unlimited: above or below every integer
        return inf if lead > 0 else -inf
    if exponent > 0:  # infinitesimal: just above or just below 0
        return 1 if lead > 0 else 0
    # A standard part s and an infinitesimal rest: n >= bound iff n > s, or
    # n == s when s is an integer and the rest is not positive.
    floor = lead // 1
    if floor == lead and (not rest or rest[0][1] < 0):
        return floor
    return floor + 1


@dataclass(frozen=True)
class SoritesScenario:
    name: str
    lo: int
    hi: int
    backend: Backend
    witnesses: Tuple[Witness, ...] = ()
    chain_length: Union[int, Witness, None] = None  # None: a chain to hi

    def __post_init__(self):
        if _integer(self.lo) >= _integer(self.hi):
            raise ValueError("range must contain at least two indices")
        if not isinstance(self.witnesses, tuple) or not all(
            isinstance(w, Witness) for w in self.witnesses
        ):
            raise TypeError(f"witnesses must be a tuple of Witness, got {self.witnesses!r}")
        if self.witnesses and not self.backend.unlimited:
            raise BackendUnsupported("witnesses apply to the nonstandard backend")
        length = self.chain_length
        if isinstance(length, Witness):
            # On an unlimited backend run_conditional refuses it: ChainThroughWitness.
            if not self.backend.unlimited:
                raise ValueError(
                    "witness chain lengths apply to the nonstandard backend"
                )
        elif length is not None and not self.lo <= _integer(length) <= self.hi:
            raise ValueError(
                f"chain length {length} outside range {self.lo}..{self.hi}"
            )


# -- report fragments ------------------------------------------------------


@dataclass(frozen=True)
class BarnesResult:
    c1: bool
    c2: bool
    c3: bool
    evidence: Tuple[str, ...]

    def all_pass(self) -> bool:
        return self.c1 and self.c2 and self.c3


@dataclass(frozen=True)
class InductionResult:
    basis: bool
    basis_detail: str
    step_holds: bool
    step_counterexample: Optional[int]
    step_detail: str
    witness_details: Tuple[str, ...]


@dataclass(frozen=True)
class ConditionalResult:
    completed: bool
    chain_length: str
    failing_link: Optional[int]
    conclusion: str


@dataclass(frozen=True)
class DoublingResult:
    invariant: bool
    witness: Optional[str]
    detail: str


@dataclass(frozen=True)
class SoritesReport:
    scenario: str
    backend_id: str
    backend_detail: str
    barnes: BarnesResult
    induction: InductionResult
    conditional: Optional[ConditionalResult]
    doubling: Optional[DoublingResult]
    notes: Tuple[str, ...]
    version: str = __version__

    def to_dict(self) -> Dict:
        def fragment(obj):
            if obj is None:
                return None
            return {
                key: (list(v) if isinstance(v, tuple) else v)
                for key, v in vars(obj).items()
            }

        return {
            "scenario": self.scenario,
            "backend": {
                "id": self.backend_id,
                "detail": self.backend_detail,
            },
            "barnes": fragment(self.barnes),
            "induction": fragment(self.induction),
            "conditional": fragment(self.conditional),
            "doubling": fragment(self.doubling),
            "notes": list(self.notes),
            "version": self.version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        tick = lambda ok: "PASS" if ok else "FAIL"
        lines = [
            f"scenario: {self.scenario}",
            f"backend: {self.backend_detail}",
            f"tool version: {self.version}",
            "",
            "Barnes constraints:",
            f"  c1 first item designated true   .. {tick(self.barnes.c1)}",
            f"  c2 last item designated false   .. {tick(self.barnes.c2)}",
            f"  c3 no adjacent true->false flip .. {tick(self.barnes.c3)}",
        ]
        for item in self.barnes.evidence:
            lines.append(f"    - {item}")
        ind = self.induction
        lines += [
            "",
            "Induction schema:",
            f"  basis .. {tick(ind.basis)} ({ind.basis_detail})",
            f"  step  .. {tick(ind.step_holds)} ({ind.step_detail})",
        ]
        if ind.step_counterexample is not None:
            lines.append(
                f"    counterexample at n={ind.step_counterexample}"
            )
        for item in ind.witness_details:
            lines.append(f"  witness: {item}")
        if self.conditional is not None:
            cond = self.conditional
            lines += [
                "",
                f"Conditional chain (length {cond.chain_length}):",
                f"  completed .. {tick(cond.completed)}",
            ]
            if cond.failing_link is not None:
                lines.append(
                    f"  first failing link: "
                    f"{cond.failing_link} -> {cond.failing_link + 1}"
                )
            lines.append(f"  conclusion: {cond.conclusion}")
        if self.doubling is not None:
            dbl = self.doubling
            lines += [
                "",
                "Doubling analysis:",
                f"  invariance .. {tick(dbl.invariant)} ({dbl.detail})",
            ]
            if dbl.witness is not None:
                lines.append(f"  witness: {dbl.witness}")
        if self.notes:
            lines.append("")
            lines.append("Notes:")
            for note in self.notes:
                lines.append(f"  - {note}")
        return "\n".join(lines) + "\n"


# -- runners ---------------------------------------------------------------


def barnes_check(scenario: SoritesScenario) -> BarnesResult:
    """The three soritical constraints with concrete evidence."""
    backend = scenario.backend
    evidence: List[str] = []

    c1 = backend.designated_true(scenario.lo)
    evidence.append(f"S(a_{scenario.lo}) designated-true: {c1}")

    if scenario.witnesses:
        c2 = all(
            not backend.holds(w.series) for w in scenario.witnesses
        )
        witnesses = ", ".join(str(w.series) for w in scenario.witnesses)
        evidence.append(f"~S at witnesses {witnesses}: {c2}")
    else:
        c2 = backend.designated_false(scenario.hi)
        evidence.append(f"S(a_{scenario.hi}) designated-false: {c2}")

    c3 = True
    for n in backend.change_points(scenario.lo, scenario.hi):
        if backend.designated_true(n) and backend.designated_false(n + 1):
            c3 = False
            evidence.append(
                f"adjacent flip: S(a_{n}) designated-true, "
                f"S(a_{n + 1}) designated-false (witness {n})"
            )
            break
    if c3:
        evidence.append("no adjacent designated-true -> designated-false step")
        evidence.extend(backend.no_flip_evidence)
    return BarnesResult(c1, c2, c3, tuple(evidence))


def run_induction(scenario: SoritesScenario) -> InductionResult:
    backend = scenario.backend
    witness_details = tuple(
        f"~S({w.series}): {not backend.holds(w.series)} "
        f"(classified {classify(ExternalNumber.make(w.series)).value})"
        for w in scenario.witnesses
    )
    return backend.induction(scenario.lo, scenario.hi, witness_details)


def run_conditional(
    scenario: SoritesScenario,
    chain_length: Union[int, Witness, None] = None,
) -> ConditionalResult:
    """Apply modus ponens link by link from the first premise."""
    if chain_length is not None:  # checked as the scenario's own
        scenario = replace(scenario, chain_length=chain_length)
    length = scenario.chain_length
    if isinstance(length, Witness):  # only an unlimited backend gets here
        raise ChainThroughWitness(
            f"chain length {length.series} is not naive: modus ponens "
            "may only be iterated a naive number of times"
        )
    target = scenario.hi if length is None else length
    return scenario.backend.chain(scenario.lo, target)


def doubling_analysis(scenario: SoritesScenario) -> DoublingResult:
    """Invariance of the predicate under doubling, for the nonstandard model."""
    if not scenario.backend.unlimited:
        raise BackendUnsupported(
            "doubling analysis is defined only for the nonstandard backend"
        )
    return scenario.backend.doubling(scenario.lo, scenario.hi, scenario.witnesses)


def run_scenario(scenario: SoritesScenario) -> SoritesReport:
    backend = scenario.backend
    notes: List[str] = []
    barnes = barnes_check(scenario)
    induction = run_induction(scenario)

    conditional: Optional[ConditionalResult]
    try:
        conditional = run_conditional(scenario)
    except ChainThroughWitness as exc:
        conditional = None
        notes.append(f"conditional chain refused: {exc}")

    return SoritesReport(
        scenario=scenario.name,
        backend_id=backend.id,
        backend_detail=backend.describe(),
        barnes=barnes,
        induction=induction,
        conditional=conditional,
        doubling=doubling_analysis(scenario) if backend.unlimited else None,
        notes=(*notes, *backend.notes),
    )


# -- JSON configuration ----------------------------------------------------


def _is_integer(value) -> bool:
    # JSON true/false load as bool, which is an int subclass.
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value) -> int:
    if not _is_integer(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _exact(value) -> Rational:
    if not isinstance(value, Rational) or isinstance(value, bool):
        raise ValueError(f"expected an exact rational, got {value!r}")
    return value


def _require(config: dict, key: str, pointer: str):
    if key not in config:
        raise ConfigError(f"{pointer}/{key}", "missing required field")
    return config[key]


def _refuse_unknown(config: dict, known, pointer: str) -> None:
    """A ``ConfigError`` at the first key of ``config`` not in ``known``."""
    for key in config:
        if key not in known:
            token = str(key).replace("~", "~0").replace("/", "~1")
            raise ConfigError(
                f"{pointer}/{token}",
                f"unknown field; expected one of {', '.join(known)}",
            )


#: A decimal as ``Fraction`` reads one, looser: digits, a fraction part, an exponent.
_DECIMAL = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?\s*")


def _fraction(value) -> Fraction:
    """``Fraction(str(value))``, refused first if a numerator, denominator or
    power of ten it would build passes the int-to-str digit limit."""
    text = str(value)
    limit = sys.get_int_max_str_digits()
    decimal = _DECIMAL.fullmatch(text)
    if decimal and limit:
        whole, tail, exponent = ((part or "").replace("_", "") for part in decimal.groups())
        # An exponent itself past the limit is refused by int().
        shift = int(exponent or 0) - len(tail)
        if len(whole) + len(tail) + max(shift, 0) > limit or -shift >= limit:
            raise ValueError(f"degree or threshold over {limit} digits")
    return Fraction(text)


def _points(points) -> Tuple[Tuple[int, Fraction], ...]:
    return tuple((_integer(n), _fraction(degree)) for n, degree in points)


def _bound(threshold) -> Optional[EpsSeries]:
    return None if threshold == "limited" else parse_series(str(threshold))


_INT = {"type": "integer"}
_STR = {"type": "string"}
_INTS = {"type": "array", "items": _INT}
_POINTS = {"type": "array", "items": {"prefixItems": [_INT, _STR]}}

#: Backend type -> (class, *params in constructor order).  A param is (name,
#: JSON Schema, reader of its JSON value), required unless its schema has a
#: "default"; the backend section of the shipped schema is generated from it.
BACKENDS = {
    "classical_cutoff": (ClassicalCutoff, ("cutoff", _INT, _integer)),
    "kleene_penumbra": (KleenePenumbra, ("t1", _INT, _integer), ("t2", _INT, _integer)),
    "fuzzy_membership": (
        FuzzyMembership,
        ("points", _POINTS, _points),
        ("threshold", {**_STR, "default": "1"}, _fraction),
    ),
    "superval": (Superval, ("cutoffs", _INTS, lambda ks: tuple(map(_integer, ks)))),
    "nonstandard": (Nonstandard, ("threshold", {**_STR, "default": "limited"}, _bound)),
}


def _parse_backend(raw, pointer: str) -> Backend:
    if not isinstance(raw, dict):
        raise ConfigError(pointer, "backend must be an object")
    _refuse_unknown(raw, ("type", "params"), pointer)
    backend_type = _require(raw, "type", pointer)
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{pointer}/params", "params must be an object")
    # A non-string type is unknown, not a key to look up.
    if not isinstance(backend_type, str) or backend_type not in BACKENDS:
        raise ConfigError(f"{pointer}/type", f"unknown backend type {backend_type!r}")
    cls, *spec = BACKENDS[backend_type]
    _refuse_unknown(params, [name for name, _, _ in spec], f"{pointer}/params")
    args = []
    try:
        for name, schema, read in spec:
            if "default" not in schema:
                _require(params, name, f"{pointer}/params")
            args.append(read(params.get(name, schema.get("default"))))
        return cls(*args)
    except ConfigError:
        raise
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ConfigError(f"{pointer}/params", str(exc)) from exc


def _witness(text, pointer: str) -> Witness:
    try:
        return Witness(parse_series(str(text)))
    except (ParseError, ValueError) as exc:
        raise ConfigError(pointer, str(exc)) from exc


#: The fields of a scenario config; any other key is refused.
SCENARIO_FIELDS = ("name", "range", "backend", "witnesses", "chainLength")


def scenario_from_dict(config: dict) -> SoritesScenario:
    if not isinstance(config, dict):
        raise ConfigError("", "scenario config must be an object")
    _refuse_unknown(config, SCENARIO_FIELDS, "")
    name = _require(config, "name", "")
    if not isinstance(name, str):
        raise ConfigError("/name", "name must be a string")
    raw_range = _require(config, "range", "")
    if (
        not isinstance(raw_range, (list, tuple))
        or len(raw_range) != 2
        or not all(_is_integer(v) for v in raw_range)
    ):
        raise ConfigError("/range", "range must be [lo, hi] integers")
    backend = _parse_backend(_require(config, "backend", ""), "/backend")

    raw_witnesses = config.get("witnesses", [])
    if not isinstance(raw_witnesses, (list, tuple)):
        raise ConfigError("/witnesses", "witnesses must be an array")
    witnesses = [
        _witness(text, f"/witnesses/{i}") for i, text in enumerate(raw_witnesses)
    ]

    chain_length: Union[int, Witness, None] = None
    if "chainLength" in config:
        raw_length = config["chainLength"]
        if isinstance(raw_length, bool):
            raise ConfigError(
                "/chainLength", "chainLength must be an integer or a series"
            )
        if isinstance(raw_length, int):
            chain_length = raw_length
        else:
            chain_length = _witness(raw_length, "/chainLength")

    try:
        scenario = SoritesScenario(
            name=name,
            lo=raw_range[0],
            hi=raw_range[1],
            backend=backend,
            witnesses=tuple(witnesses),
        )
    except BackendUnsupported as exc:
        raise ConfigError("/witnesses", str(exc)) from exc
    except ValueError as exc:
        raise ConfigError("/range", str(exc)) from exc
    if chain_length is None:
        return scenario
    try:  # after the range and the witnesses, as run_conditional sets it
        return replace(scenario, chain_length=chain_length)
    except ValueError as exc:
        raise ConfigError("/chainLength", str(exc)) from exc


def load_scenario(path) -> SoritesScenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            config = json.load(handle)
        # Besides a syntax error (JSONDecodeError), bytes that are not UTF-8,
        # an integer past the int-to-str digit limit (both ValueError) and
        # nesting past the decoder's recursion limit are invalid JSON.
        except (ValueError, RecursionError) as exc:
            raise ConfigError("", f"invalid JSON: {exc}") from exc
    return scenario_from_dict(config)
