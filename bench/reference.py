"""Independent reference models that the benchmark checks soritica against.

Nothing here imports soritica.  The number model is a second, separate
implementation of the external-number calculus: a series is a dict from
exponent to coefficient, a neutrix is ``None`` or ``(exponent, kind)``,
and an external number is a pair kept canonical by dropping every term the
neutrix absorbs.  The logic model is a direct evaluator for the formula
trees the generators build, with proper variable shadowing.
"""

from __future__ import annotations

from fractions import Fraction

# -- series ------------------------------------------------------------------


def series(*terms):
    """Series from ``(exponent, coefficient)`` pairs, zero terms dropped."""
    out = {}
    for exp, coeff in terms:
        exp, coeff = Fraction(exp), Fraction(coeff)
        out[exp] = out.get(exp, 0) + coeff
    return {e: c for e, c in out.items() if c}


def s_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def s_neg(a):
    return {e: -c for e, c in a.items()}


def s_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def valuation(a):
    return min(a) if a else None


def s_sign(a):
    if not a:
        return 0
    return 1 if a[min(a)] > 0 else -1


def s_less(a, b):
    return s_sign(s_add(a, s_neg(b))) < 0


def s_str(a):
    if not a:
        return "0"
    parts = []
    for i, e in enumerate(sorted(a)):
        c = a[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            base = "e" if e == 1 else f"e^({e})"
            body = base if mag == 1 else f"{mag}*{base}"
        if i == 0:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# -- neutrices and external numbers -----------------------------------------

LIM, OSL = "L", "o"


def _size(n):
    # Inclusion order: the zero group is least, a smaller exponent is a
    # larger group, and at one exponent L(q) contains o(q).
    return (0,) if n is None else (1, -n[0], 1 if n[1] == LIM else 0)


def n_largest(*ns):
    return max(ns, key=_size)


def absorbs(n, exp):
    if n is None:
        return False
    return exp >= n[0] if n[1] == LIM else exp > n[0]


def ext(rep, n=None):
    """Canonical external number: representative terms in ``n`` dropped."""
    return ({e: c for e, c in rep.items() if not absorbs(n, e)}, n)


def x_add(x, y):
    return ext(s_add(x[0], y[0]), n_largest(x[1], y[1]))


def x_neg(x):
    return (s_neg(x[0]), x[1])


def _scale(a, n):
    if not a or n is None:
        return None
    return (n[0] + valuation(a), n[1])


def _n_mul(m, n):
    if m is None or n is None:
        return None
    return (m[0] + n[0], LIM if m[1] == n[1] == LIM else OSL)


def x_mul(x, y):
    (a, na), (b, nb) = x, y
    return ext(s_mul(a, b), n_largest(_scale(a, nb), _scale(b, na), _n_mul(na, nb)))


def n_str(n):
    return "0" if n is None else f"{n[1]}({n[0]})"


def x_str(x):
    rep, n = x
    if n is None:
        return s_str(rep)
    if not rep:
        return n_str(n)
    return f"{s_str(rep)} + {n_str(n)}"


def x_class(x):
    """The classification line ``soritica numbers eval`` prints."""
    rep, n = x
    if not rep:
        if n is None:
            return "Zeroish"
        return "NeutrixOnly(Lim)" if n[1] == LIM else "NeutrixOnly(Osl)"
    v = valuation(rep)
    return "Unlimited" if v < 0 else "Appreciable" if v == 0 else "Infinitesimal"


# -- logic -------------------------------------------------------------------
#
# Formula trees are soritica.formulas dataclasses, read here by class name
# and fields only, so this evaluator shares no code with soritica.semantics.


def graded(f, atom, props, env=None):
    """Strong Kleene / Zadeh value: ~x = 1-x, & min, | max, quantifiers
    min/max over their domain, inner bindings shadowing outer ones."""
    env = env or {}
    kind = type(f).__name__
    if kind == "Atom":
        i = f.index
        return atom(i.offset if i.var is None else env[i.var] + i.offset)
    if kind == "PropVar":
        return props[f.name]
    if kind == "Not":
        return 1 - graded(f.body, atom, props, env)
    if kind in ("Forall", "Exists"):
        lo, hi = f.domain
        values = [
            graded(f.body, atom, props, {**env, f.var: n}) for n in range(lo, hi + 1)
        ]
        return min(values) if kind == "Forall" else max(values)
    x = graded(f.left, atom, props, env)
    y = graded(f.right, atom, props, env)
    if kind == "And":
        return min(x, y)
    if kind == "Or":
        return max(x, y)
    if kind == "Implies":
        return max(1 - x, y)
    return min(max(1 - x, y), max(1 - y, x))  # Iff


def classical(f, cutoff, props):
    """Two-valued value: S(n) holds exactly when n < cutoff."""
    atom = lambda n: Fraction(n < cutoff)
    return graded(f, atom, {k: Fraction(bool(v)) for k, v in props.items()}) == 1
