"""The four benchmark workloads: seeded inputs, timed operations, checks.

A workload builds one *round*: a list of operations made from ``--seed``.
Every run repeats that round whole, so each run attempts the same
operations in the same proportions, and the named fault classes are the
same share of every run.  Op sizes are stratified over the round (op ``i``
of ``R`` gets a size from quantile ``(i + u) / R``), so the cost
distribution of a round hardly depends on the seed and has no gaps.

Each :class:`Op` carries ``run`` (the program calls that are timed; returns
what the program produced) and ``check`` (is that output right, judged by
``reference`` or by properties the semantics must have).  An op with a
``fault`` name belongs to a known fault class: it counts as failed unless
it shows the outcome the mended program should give.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import reference as ref

class Op:
    __slots__ = ("label", "run", "check", "fault")

    def __init__(self, label, run, check, fault=None):
        self.label = label
        self.run = run
        self.check = check
        self.fault = fault


def _strata(rng, count):
    """``count`` quantiles in [0, 1), one per stratum, in shuffled order."""
    qs = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(qs)
    return qs


def _log_between(q, lo, hi):
    return lo * (hi / lo) ** q


# -- laws --------------------------------------------------------------------

LAW_CASES = 6


def laws_inputs(seed, small=False):
    return [seed * 1000 + i for i in range(4 if small else 240)]


def laws_ops(inputs, small=False):
    from soritica import laws

    n = 1 if small else LAW_CASES

    def make(suite_seed):
        def run():
            return laws.run_law_suite(suite_seed, n)

        def check(results):
            return [r.name for r in results] == laws.LAW_NAMES and len(
                laws.LAW_NAMES
            ) == 11 and all(r.passed and r.cases == n for r in results)

        return Op(f"laws seed={suite_seed} n={n}", run, check)

    return [make(s) for s in inputs]


# -- calc --------------------------------------------------------------------

_EXPONENTS = [Fraction(p, q) for p, q in ((-2, 1), (-1, 1), (-1, 2), (1, 2), (1, 1), (2, 1), (3, 1), (3, 2))]
_NEUTRIX_EXPONENTS = [Fraction(p, 2) for p in range(-1, 7)]

#: Malformed inputs that must exit 2 with a syntax error.  Today each
#: raises from inside the parser (see README, "Known fault classes").
CALC_FAULTS = {
    "zero-denominator": "1/0",
    "zero-denominator-exponent": "e^(1/0)",
    "zero-denominator-neutrix": "L(1/0)",
    "deep-parentheses": "(" * 3000 + "1" + ")" * 3000,
}


def _calc_leaf(rng):
    r = rng.random()
    if r < 0.4:
        p, q = rng.randint(0, 9), rng.choice((1, 1, 2, 3, 4, 7))
        text = str(p) if q == 1 else f"{p}/{q}"
        value = ref.ext(ref.series((0, Fraction(p, q))))
    elif r < 0.75:
        q = rng.choice(_EXPONENTS)
        text = "e" if q == 1 else f"e^{q}" if q.denominator == 1 and q > 0 else f"e^({q})"
        value = ref.ext(ref.series((q, 1)))
    elif r < 0.93:
        q = rng.choice(_NEUTRIX_EXPONENTS)
        kind = rng.choice((ref.LIM, ref.OSL))
        text = f"{kind}({q})"
        value = ref.ext({}, (q, kind))
    else:
        kind = rng.choice((ref.LIM, ref.OSL))
        text = rng.choice(("lim", "£")) if kind == ref.LIM else rng.choice(("osl", "⊘"))
        value = ref.ext({}, (Fraction(0), kind))
    if rng.random() < 0.1:
        return "-" + text, ref.x_neg(value)
    return text, value


def _calc_expr(rng, leaves):
    """Random expression text with ``leaves`` leaves and its reference value.

    Returns ``(text, value, level)``; level 0 is a sum, 1 a product and 2 a
    factor, which decides where parentheses are needed.
    """
    if leaves == 1:
        text, value = _calc_leaf(rng)
        return text, value, 2
    split = rng.randint(1, leaves - 1)
    lt, lv, ll = _calc_expr(rng, split)
    rt, rv, rl = _calc_expr(rng, leaves - split)
    op = rng.choice("++-**")
    if op == "*":
        lt = f"({lt})" if ll == 0 else lt
        rt = f"({rt})" if rl == 0 else rt
        text, value, level = f"{lt}*{rt}", ref.x_mul(lv, rv), 1
    else:
        if op == "-":
            rt = f"({rt})" if rl == 0 else rt
            rv = ref.x_neg(rv)
        text, value, level = f"{lt} {op} {rt}", ref.x_add(lv, rv), 0
    if rng.random() < 0.12:
        return f"({text})", value, 2
    return text, value, level


#: Share of calc inputs whose value has both a representative and a
#: neutrix.  Only those make the oracle search a regular inverse, which
#: costs 2-10x more than the rest, so the share is fixed per round: p50 and
#: p90 then fall inside the costly group's continuous spread, not between
#: the two groups.
CALC_INVERTIBLE_SHARE = 0.65


def calc_inputs(seed, small=False):
    rng = random.Random(f"calc:{seed}")
    count, top = (4, 3) if small else (400, 12)
    costly = round(count * CALC_INVERTIBLE_SHARE)
    inputs = []
    for i, q in enumerate(_strata(rng, count)):
        want = i < costly
        leaves = 1 + want + int(q * (top - want))
        while True:
            text, value, _ = _calc_expr(rng, leaves)
            if (bool(value[0]) and value[1] is not None) == want:
                break
        inputs.append((text, rng.randint(0, 999_999), value))
    rng.shuffle(inputs)
    inputs += [(text, 0, name) for name, text in CALC_FAULTS.items()]
    return inputs


def calc_ops(inputs, small=False):
    from soritica import cli

    def make(text, oracle_seed, value):
        # "--" lets an expression start with a minus sign, as in "-e^3".
        argv = ["numbers", "eval", "--oracle", "--seed", str(oracle_seed), "--", text]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        if isinstance(value, str):  # a named fault class
            def check(obs):
                code, out, err = obs
                return code == 2 and not out and err.startswith("syntax error")

            return Op(f"calc fault {value}", run, check, fault=value)

        expected = (
            0,
            f"{ref.x_str(value)}\n{ref.x_class(value)}\n"
            f"oracle: ok (seed {oracle_seed})\n",
            "",
        )
        return Op(f"calc {text!r}", run, lambda obs: obs == expected)

    return [make(*item) for item in inputs]


# -- sorites -----------------------------------------------------------------

#: Per-index cost of each generated backend, in microseconds, measured on
#: the seed version of soritica.  Ranges are sized from these so that every
#: backend spans the same range of op costs and no backend forms a cluster.
_US_PER_INDEX = {
    "classical": 0.6,
    "kleene": 2.9,
    "fuzzy": 33.0,
    "superval": 4.5,  # per cutoff in the family
    "limited": 29.0,
    "cut": 140.0,
}
_OP_MS = (1.0, 30.0)

#: Configs the loader must refuse with ConfigError (see README).
SORITES_FAULTS = {
    "fuzzy-zero-denominator": {
        "name": "fault_fuzzy_degree",
        "range": [1, 10],
        "backend": {"type": "fuzzy_membership", "params": {"points": [[1, "1"], [10, "1/0"]]}},
    },
    "nonstandard-zero-denominator": {
        "name": "fault_threshold",
        "range": [1, 10],
        "backend": {"type": "nonstandard", "params": {"threshold": "e^(1/0)"}},
    },
    "boolean-range": {
        "name": "fault_bool_range",
        "range": [True, 10],
        "backend": {"type": "classical_cutoff", "params": {"cutoff": 5}},
    },
}


def _unlimited(rng, positive=True):
    """Text of a random series of negative valuation."""
    lead = rng.choice((Fraction(-1), Fraction(-2), Fraction(-3, 2), Fraction(-1, 2)))
    coeff = Fraction(rng.randint(1, 9), rng.randint(1, 3))
    terms = [(lead, coeff if positive else -coeff)]
    for _ in range(rng.randint(0, 2)):
        exp = rng.choice([e for e in (Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)) if e > lead])
        terms.append((exp, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))))
    return ref.s_str(ref.series(*terms))


def _sorites_config(rng, kind, ms, index):
    width = max(4, int(ms * 1000 / (_US_PER_INDEX[kind])))
    lo = rng.randint(0, 40)
    config = {"name": f"gen_{kind}_{index}"}
    frac = lambda a, b: lo + int(width * rng.uniform(a, b))
    if kind == "classical":
        backend = {"type": "classical_cutoff", "params": {"cutoff": frac(0.5, 1.15)}}
    elif kind == "kleene":
        t1 = frac(0.4, 0.95)
        backend = {"type": "kleene_penumbra", "params": {"t1": t1, "t2": t1 + int(width * rng.uniform(0, 0.3))}}
    elif kind == "fuzzy":
        a = frac(-0.1, 0.3)
        b = a + max(1, int(width * rng.uniform(0.5, 1.0)))
        params = {"points": [[a, "1"], [b, "0"]]}
        if rng.random() < 0.6:
            params["threshold"] = rng.choice(("9/10", "3/4", "2/3", "3/5"))
        backend = {"type": "fuzzy_membership", "params": params}
    elif kind == "superval":
        family = rng.randint(2, 5)
        width = max(4, width // family)
        cutoffs = [lo + int(width * rng.uniform(0.3, 1.1)) for _ in range(family)]
        backend = {"type": "superval", "params": {"cutoffs": cutoffs}}
    else:
        threshold = "limited" if kind == "limited" else _unlimited(rng)
        backend = {"type": "nonstandard", "params": {"threshold": threshold}}
        config["witnesses"] = [
            _unlimited(rng, positive=rng.random() < 0.8) for _ in range(rng.randint(0, 3))
        ]
    config["range"] = [lo, lo + width]
    config["backend"] = backend
    roll = rng.random()
    if roll < 0.4:
        config["chainLength"] = lo + width - int(width * rng.uniform(0, 0.5))
    elif roll < 0.55 and kind in ("limited", "cut"):
        config["chainLength"] = _unlimited(rng)
    return config


def sorites_inputs(seed, small=False):
    import soritica

    rng = random.Random(f"sorites:{seed}")
    per_kind, (lo_ms, hi_ms) = (1, (0.05, 0.2)) if small else (80, _OP_MS)
    configs = []
    for kind in _US_PER_INDEX:
        for i, q in enumerate(_strata(rng, per_kind)):
            configs.append((_sorites_config(rng, kind, _log_between(q, lo_ms, hi_ms), i), None))
    fixtures = Path(soritica.__file__).parent / "fixtures"
    for path in sorted(fixtures.glob("*.json")):
        if path.name != "sorites_config.schema.json":
            configs.append((json.loads(path.read_text(encoding="utf-8")), None))
    rng.shuffle(configs)
    configs += [(config, name) for name, config in SORITES_FAULTS.items()]
    return configs


def sorites_expected(config):
    """Closed-form verdicts of a scenario, from its backend parameters."""
    lo, hi = config["range"]
    target = config.get("chainLength", hi)
    backend = config["backend"]
    params = backend.get("params", {})
    kind = backend["type"]
    witnesses = [ref.series(*_parse_series_terms(w)) for w in config.get("witnesses", [])]
    out = {"doubling": None, "witness_details": [], "notes": 0}
    out["chain_refused"] = isinstance(target, str)

    def sharp(flip_at, dt):
        # Designated-true below some point, step failing at ``flip_at``.
        def link(upto):
            return flip_at if flip_at is not None and lo <= flip_at <= upto - 1 else None

        out["counterexample"] = link(hi)
        if not out["chain_refused"]:
            failing = link(target)
            out["conditional"] = (failing is None, failing, dt(target))

    if kind == "classical_cutoff":
        c = params["cutoff"]
        dt, df = (lambda n: n < c), (lambda n: n >= c)
        out["c3_witness"] = c - 1 if lo + 1 <= c <= hi else None
        sharp(c - 1, dt)
    elif kind == "kleene_penumbra":
        t1, t2 = params["t1"], params["t2"]
        dt, df = (lambda n: n < t1), (lambda n: n > t2)
        out["c3_witness"] = None
        sharp(t1 - 1, dt)
    elif kind == "superval":
        ks = params["cutoffs"]
        dt, df = (lambda n: n < min(ks)), (lambda n: n >= max(ks))
        flip = max(max(ks) - 1, lo)
        out["c3_witness"] = flip if flip <= min(min(ks) - 1, hi - 1) else None
        step = lambda upto: min((k - 1 for k in ks if lo + 1 <= k <= upto), default=None)
        out["counterexample"] = step(hi)
        failing = step(target)
        out["conditional"] = (failing is None, failing, dt(target))
    elif kind == "fuzzy_membership":
        (a, _), (b, _) = params["points"]
        t = Fraction(params.get("threshold", "1"))
        width = b - a
        degree = lambda n: Fraction(min(max(b - n, 0), width), width)
        dt, df = (lambda n: degree(n) >= t), (lambda n: degree(n) <= 1 - t)

        def min_link(upto):
            # implication(n) = max(1 - d(n), d(n+1)) is 1 off the ramp and
            # max(n - a, b - 1 - n) / width on it: a V with its floor at
            # (a + b - 1) / 2, so the minimum sits at the clamped vertex.
            first, last = max(lo, a), min(upto - 1, b - 1)
            if first > last:
                return Fraction(1)
            mid = Fraction(a + b - 1, 2)
            ns = {min(max(math.floor(mid), first), last), min(max(math.ceil(mid), first), last)}
            return min(Fraction(max(n - a, b - 1 - n), width) for n in ns)

        flips = range(
            max(lo, a, math.ceil(b - 1 - (1 - t) * width)),
            min(hi - 1, b - 1, math.floor(b - t * width)) + 1,
        )
        out["c3_witness"] = flips[0] if flips else None
        out["basis_detail"] = f"degree of S(a_{lo}) = {degree(lo)}"
        out["step_detail"] = f"minimum step-implication degree = {min_link(hi)}"
        out["step_holds"] = min_link(hi) >= t
        out["counterexample"] = None
        link = min_link(target) if target > lo else Fraction(1)
        out["conditional"] = (
            True,
            None,
            f"degree of S(a_{target}) = {degree(target)}; minimum link degree = {link}",
        )
    else:  # nonstandard; every cut here is unlimited, so naive indices hold and double
        threshold = params.get("threshold", "limited")
        if threshold == "limited":
            holds = lambda x: not x or ref.valuation(x) >= 0
        else:
            bound = ref.series(*_parse_series_terms(threshold))
            holds = lambda x: ref.s_less(x, bound)
        dt = lambda n: holds(ref.series((0, n)))
        df = lambda n: not dt(n)
        out["c3_witness"] = None
        out["counterexample"] = None
        out["notes"] = 1 + out["chain_refused"]
        if not out["chain_refused"]:
            out["conditional"] = (True, None, dt(target))
        out["witness_details"] = [
            f"~S({ref.s_str(w)}): {not holds(w)} (classified Unlimited)" for w in witnesses
        ]
        samples = list(witnesses)
        if threshold != "limited":
            samples.append(ref.s_mul(bound, {Fraction(0): Fraction(1, 2)}))
        doubled = [
            x for x in samples if holds(x) and not holds(ref.s_mul(x, {Fraction(0): Fraction(2)}))
        ]
        out["doubling"] = (not doubled, ref.s_str(doubled[0]) if doubled else None)
    out["c1"] = dt(lo)
    if kind == "nonstandard" and witnesses:
        out["c2"] = not any(holds(w) for w in witnesses)
    else:
        out["c2"] = df(hi)
    out["basis"] = dt(lo)
    out.setdefault("step_holds", out["counterexample"] is None)
    out["target"] = target
    return out


def _parse_series_terms(text):
    """Terms of a series in the printed form, e.g. ``1/2*e^(-1) - 7``."""
    terms = []
    for token in text.replace("- ", "-").replace("+ ", "+").split():
        sign = -1 if token.startswith("-") else 1
        token = token.lstrip("+-")
        if "e" not in token:
            terms.append((0, sign * Fraction(token)))
            continue
        coeff, _, power = token.rpartition("*")
        exp = Fraction(1) if power == "e" else Fraction(power[2:].strip("()"))
        terms.append((exp, sign * Fraction(coeff or 1)))
    return terms


def _check_report(config, text, data):
    want = sorites_expected(config)
    lo = config["range"][0]
    barnes, ind, cond, dbl = data["barnes"], data["induction"], data["conditional"], data["doubling"]
    ok = (barnes["c1"], barnes["c2"], barnes["c3"]) == (
        want["c1"],
        want["c2"],
        want["c3_witness"] is None,
    )
    flips = [e for e in barnes["evidence"] if e.startswith("adjacent flip")]
    if want["c3_witness"] is None:
        ok = ok and not flips
    else:
        ok = ok and len(flips) == 1 and flips[0].endswith(f"(witness {want['c3_witness']})")
    ok = ok and ind["basis"] == want["basis"] and ind["step_holds"] == want["step_holds"]
    ok = ok and ind["step_counterexample"] == want["counterexample"]
    ok = ok and ind["witness_details"] == want["witness_details"]
    if "step_detail" in want:
        ok = ok and ind["step_detail"] == want["step_detail"]
        ok = ok and ind["basis_detail"] == want["basis_detail"]
    if want["chain_refused"]:
        ok = ok and cond is None and data["notes"][0].startswith("conditional chain refused")
    else:
        completed, failing, tail = want["conditional"]
        if isinstance(tail, bool):
            tail = (
                f"chain stops at link {failing} -> {failing + 1}"
                if failing is not None
                else f"S(a_{want['target']}) designated-true: {tail}"
            )
        ok = ok and (cond["completed"], cond["failing_link"], cond["conclusion"]) == (
            completed,
            failing,
            tail,
        )
        ok = ok and cond["chain_length"] == str(want["target"])
    if want["doubling"] is None:
        ok = ok and dbl is None
    else:
        ok = ok and (dbl["invariant"], dbl["witness"]) == want["doubling"]
    ok = ok and len(data["notes"]) == want["notes"]
    tick = lambda v: "PASS" if v else "FAIL"
    ok = ok and f"  c1 first item designated true   .. {tick(want['c1'])}" in text.splitlines()
    ok = ok and text.startswith(f"scenario: {config['name']}\n")
    return ok and f"S(a_{lo})" in text


def sorites_ops(inputs, small=False):
    from soritica import sorites

    def make(config, fault):
        def run():
            scenario = sorites.scenario_from_dict(config)
            report = sorites.run_scenario(scenario)
            return report.to_text(), report.to_json()

        if fault is not None:
            def run_fault():
                try:
                    return run()
                except sorites.ConfigError:
                    return "ConfigError"

            return Op(f"sorites fault {fault}", run_fault, lambda obs: obs == "ConfigError", fault)

        def check(obs):
            text, rendered = obs
            try:
                return _check_report(config, text, json.loads(rendered))
            except (KeyError, TypeError, IndexError, ValueError):
                return False  # a report missing a part or malformed

        return Op(f"sorites {config['name']}", run, check)

    return [make(*item) for item in inputs]


# -- logic -------------------------------------------------------------------

_QVARS = ("n", "m", "k")


def _logic_body(rng, F, bound, size):
    if size <= 1:
        if bound and rng.random() < 0.8:
            return F.Atom("S", F.Index(rng.choice(bound), rng.choice((0, 0, 1, 2))))
        return F.Atom("S", F.Index(None, rng.randint(1, 14)))
    if rng.random() < 0.15:
        return F.Not(_logic_body(rng, F, bound, size - 1))
    cls = rng.choice((F.And, F.And, F.Or, F.Or, F.Implies, F.Implies, F.Iff))
    split = rng.randint(1, size - 1)
    return cls(_logic_body(rng, F, bound, split), _logic_body(rng, F, bound, size - split))


def _prop(rng, F, leaves):
    """A random formula whose leaves, left to right, are ``leaves``."""
    if rng.random() < 0.2:
        return F.Not(_prop(rng, F, leaves))
    if len(leaves) == 1:
        return F.PropVar(leaves[0])
    cls = rng.choice((F.And, F.Or, F.Implies, F.Iff))
    split = rng.randint(1, len(leaves) - 1)
    return cls(_prop(rng, F, leaves[:split]), _prop(rng, F, leaves[split:]))


def _quantified(rng, F, q, kind):
    """A Sorites chain or a random one- or two-quantifier formula.

    ``kind`` in 0..19 picks the shape: 6 in 20 are chains, 7 have one
    quantifier and 7 two.
    """
    if kind < 6:
        k = 2 + int(q * 60)
        S = lambda v, off=0: F.Atom("S", F.Index(v, off))
        step = F.Forall("n", (1, k), F.Implies(S("n"), S("n", 1)))
        return F.Implies(F.And(S(None, 1), step), S(None, k + 1))
    depth = 1 if kind < 13 else 2
    names = list(_QVARS[:depth])
    body = _logic_body(rng, F, names, 2 + int(q * 8))
    domain = 2 + int(q * (40 if depth == 1 else 7))
    for var in reversed(names):
        cls = F.Forall if rng.random() < 0.6 else F.Exists
        start = rng.randint(1, 5)
        body = cls(var, (start, start + domain - 1), body)
    if rng.random() < 0.5:
        body = rng.choice((F.And, F.Or, F.Implies))(body, _logic_body(rng, F, [], 2))
    return body


def _ground_chain(F, start, links):
    atom = lambda n: F.Atom("S", F.Index(None, n))
    premises = atom(start)
    for n in range(start, start + links):
        premises = F.And(premises, F.Implies(atom(n), atom(n + 1)))
    return F.Implies(premises, atom(start + links))


#: K3 tautology search enumerates 3^v assignments.  On a classical
#: tautology it runs in full; on any other formula it stops at a point that
#: depends on the formula's shape.  Classical tautologies are searched up to
#: 5 variables, other formulas up to 3, so that the few costly searches are
#: full ones whose cost is fixed by size.  Searching 6 variables took from
#: under 1 ms to ~30 ms per op, and those few ops set most of a round's
#: seed-to-seed spread, so 6-variable formulas are evaluated only.
PROP_MAX_VARS = 6
TAUTOLOGY_MAX_VARS = 5
SEARCH_MAX_VARS = 3


def _propositional(rng, F, q, j):
    """``(formula, searched)`` over up to PROP_MAX_VARS variables.

    The ``j``-th stratum gets ``v + 1 + j mod 2v`` leaves for ``v``
    variables, each variable at least once; 5 in 20 are excluded middles and 3 in 20 implications that
    are classical tautologies.
    """
    count = 1 + int(q * PROP_MAX_VARS)
    names = [f"p{i}" for i in range(count)]
    # Every variable occurs, so a search really spans 3^count assignments.
    leaves = names + [rng.choice(names) for _ in range(1 + j % (2 * count))]
    rng.shuffle(leaves)
    body = _prop(rng, F, leaves)
    kind = j * 7 % 20
    if count > TAUTOLOGY_MAX_VARS:
        return body, False
    if kind < 5:  # a classical tautology: K3 never gives it 0
        return F.Or(body, F.Not(body)), True
    if kind < 8:
        other = _prop(rng, F, [rng.choice(names), rng.choice(names)])
        return F.Implies(F.And(body, other), body), True
    return body, count <= SEARCH_MAX_VARS


def to_text(f, fresh=False, _names=None):
    """Fully parenthesised text of a formula tree.

    With ``fresh``, every bound variable gets a new name that no other
    binder on its path uses, which is an alpha-renaming of the formula.
    """
    kind = type(f).__name__
    names = _names or {}
    if kind == "Atom":
        i = f.index
        if i.var is None:
            return f"{f.predicate}({i.offset})"
        var = names.get(i.var, i.var)
        return f"{f.predicate}({var}+{i.offset})" if i.offset else f"{f.predicate}({var})"
    if kind == "PropVar":
        return f.name
    if kind == "Not":
        return "~" + to_text(f.body, fresh, names)
    if kind in ("Forall", "Exists"):
        if fresh:
            names = {**names, f.var: f"{f.var}_{len(names)}"}
        word = "forall" if kind == "Forall" else "exists"
        var = names.get(f.var, f.var)
        return f"({word} {var} in {f.domain[0]}..{f.domain[1]}. {to_text(f.body, fresh, names)})"
    symbol = {"And": "&", "Or": "|", "Implies": "->", "Iff": "<->"}[kind]
    return f"({to_text(f.left, fresh, names)} {symbol} {to_text(f.right, fresh, names)})"


def _propvars(f, out=None):
    out = set() if out is None else out
    kind = type(f).__name__
    if kind == "PropVar":
        out.add(f.name)
    elif kind == "Not" or kind in ("Forall", "Exists"):
        _propvars(f.body, out)
    elif kind not in ("Atom",):
        _propvars(f.left, out)
        _propvars(f.right, out)
    return out


def _ground_atoms(f, out=None):
    out = set() if out is None else out
    kind = type(f).__name__
    if kind == "Atom":
        out.add(f.index.offset)
    elif kind == "Not":
        _ground_atoms(f.body, out)
    elif kind in ("And", "Or", "Implies", "Iff"):
        _ground_atoms(f.left, out)
        _ground_atoms(f.right, out)
    return out


class LogicCase:
    """A formula, its text and the valuations one op evaluates it under."""

    def __init__(self, rng, formula, text, tautology, fault=None):
        self.formula, self.text, self.tautology, self.fault = formula, text, tautology, fault
        self.cutoff = rng.randint(1, 14)
        self.cutoffs = tuple(sorted(rng.sample(range(1, 16), rng.randint(2, 4))))
        t1 = rng.randint(1, 10)
        self.penumbra = (t1, t1 + rng.randint(0, 4))
        a = rng.randint(0, 8)
        self.ramp = (a, a + rng.randint(1, 12))
        names = sorted(_propvars(formula)) if formula is not None else []
        self.bools = {p: rng.random() < 0.5 for p in names}
        self.k3 = {p: rng.choice((Fraction(0), Fraction(1, 2), Fraction(1))) for p in names}
        self.degrees = {p: Fraction(rng.randint(0, 8), 8) for p in names}

    def k3_atom(self, n):
        t1, t2 = self.penumbra
        return Fraction(1) if n < t1 else Fraction(1, 2) if n <= t2 else Fraction(0)

    def fuzzy_atom(self, n):
        a, b = self.ramp
        return Fraction(min(max(b - n, 0), b - a), b - a)


#: Inputs the evaluators must handle; each fails today (see README).
LOGIC_FAULTS = {
    "rebound-variable": "forall n in 1..3. (forall n in 1..2. S(n)) | S(n)",
    "deep-negation": "~" * 5000 + "p",
}


def logic_inputs(seed, small=False):
    from soritica import formulas as F

    rng = random.Random(f"logic:{seed}")
    per_family = 2 if small else 200
    cases = []
    for family in range(3):
        # Sizes come from the midpoints of equal strata within each family,
        # and the shape (``kind``) cycles through all 20 values every 20
        # strata, so every round holds the same mix of sizes and shapes
        # whatever the seed; the seed draws the formulas themselves.
        for j in range(per_family):
            q, kind = (j + 0.5) / per_family, j * 7 % 20
            q = q / 4 if small else q
            if family == 0:
                formula, tautology = _quantified(rng, F, q, kind), False
            elif family == 1:
                links = 1 + int(q * 40)
                formula = _ground_chain(F, rng.randint(1, 5), links)
                tautology = links + 1 <= TAUTOLOGY_MAX_VARS
            else:
                formula, tautology = _propositional(rng, F, q, j)
            cases.append(LogicCase(rng, formula, to_text(formula), tautology))
    rng.shuffle(cases)
    fixed = random.Random("logic-faults")
    for name, text in LOGIC_FAULTS.items():
        cases.append(LogicCase(fixed, None, text, False, fault=name))
    return cases


def logic_ops(inputs, small=False):
    from soritica import formulas, semantics

    def run_case(case):
        f = formulas.parse_formula(case.text)
        printed = formulas.formula_to_str(f)
        again = formulas.parse_formula(printed)
        values = (
            semantics.eval_classical(f, case.cutoff, case.bools),
            semantics.eval_k3(f, lambda p, n: case.k3_atom(n), case.k3),
            semantics.eval_fuzzy(f, lambda p, n: case.fuzzy_atom(n), case.degrees),
            semantics.eval_super(f, case.cutoffs, case.bools),
        )
        tautology = None
        if case.tautology:
            tautology = (semantics.is_tautology_k3(f), semantics.quasi_tautology_k3(f))
        return f, printed, again, values, tautology

    def reference_values(case, f):
        supers = [ref.classical(f, c, case.bools) for c in case.cutoffs]
        verdict = (
            semantics.SuperVerdict.SUPERTRUE
            if all(supers)
            else semantics.SuperVerdict.SUPERFALSE
            if not any(supers)
            else semantics.SuperVerdict.INDETERMINATE
        )
        return (
            ref.classical(f, case.cutoff, case.bools),
            ref.graded(f, case.k3_atom, case.k3),
            ref.graded(f, case.fuzzy_atom, case.degrees),
            verdict,
        )

    def properties(case, f, values):
        classical, k3, fuzzy, _ = values
        # K3 on classical inputs is classical; fuzzy on {0, 1/2, 1} is K3.
        crisp = lambda p, n: Fraction(n < case.cutoff)
        bits = {p: Fraction(v) for p, v in case.bools.items()}
        if semantics.eval_k3(f, crisp, bits) != Fraction(classical):
            return False
        if semantics.eval_fuzzy(f, lambda p, n: case.k3_atom(n), case.k3) != k3:
            return False
        # Supertrue iff classically true under every cutoff.
        every = all(semantics.eval_classical(f, c, case.bools) for c in case.cutoffs)
        if (values[3] is semantics.SuperVerdict.SUPERTRUE) != every:
            return False
        # Renaming bound variables changes no value.
        renamed = formulas.parse_formula(to_text(f, fresh=True))
        return (
            semantics.eval_classical(renamed, case.cutoff, case.bools),
            semantics.eval_k3(renamed, lambda p, n: case.k3_atom(n), case.k3),
            semantics.eval_fuzzy(renamed, lambda p, n: case.fuzzy_atom(n), case.degrees),
        ) == values[:3]

    def tautology_ok(f, tautology):
        # No formula is a K3 tautology (all-1/2 gives 1/2), and the K3
        # quasi-tautologies are exactly the classical tautologies.
        props = sorted(_propvars(f))
        atoms = sorted(_ground_atoms(f))
        width = len(props) + len(atoms)
        classical = True
        for bits in range(2 ** width):
            value = [Fraction((bits >> i) & 1) for i in range(width)]
            pv = dict(zip(props, value))
            av = dict(zip(atoms, value[len(props):]))
            if ref.graded(f, av.__getitem__, pv) != 1:
                classical = False
                break
        return tautology == (False, classical)

    def make(case):
        if case.fault == "deep-negation":
            def run_fault():
                try:
                    return run_case(case)
                except formulas.FormulaSyntaxError:
                    return "FormulaSyntaxError"

            return Op("logic fault deep-negation", run_fault, lambda obs: obs == "FormulaSyntaxError", case.fault)

        def check(obs):
            f, printed, again, values, tautology = obs
            if case.formula is not None and f != case.formula:
                return False
            if again != f or values != reference_values(case, f):
                return False
            if case.tautology and not tautology_ok(f, tautology):
                return False
            return properties(case, f, values)

        return Op(f"logic {case.text[:60]!r}", lambda: run_case(case), check, case.fault)

    return [make(case) for case in inputs]


INPUTS = {"laws": laws_inputs, "calc": calc_inputs, "sorites": sorites_inputs, "logic": logic_inputs}
OPS = {"laws": laws_ops, "calc": calc_ops, "sorites": sorites_ops, "logic": logic_ops}
