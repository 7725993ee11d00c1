"""Oracles for every answer the workloads return, sharing no code with transgerm.

- Series answers: closed-form coefficients, compared exactly:
  r**k for geometric series, r2**k on the (0, k) slice of a product of two
  geometric series, C(a+b, a) p**a q**b for 1/(1 - p X0 - q X1),
  (-b)**k / a**(k+1) for 1/(a + b m), C(2**k, j) r**j for (1 + r m)**(2**k).
- ``sum_numeric`` values and germ answers (derivative, cube, composition,
  scale generators): mpmath at DPS digits, at fixed sample points.
- ``compare``: the dominance order of transmonomials, worked out here from
  the germ specs (fragment_compare), for relation, same_archimedean_class
  and comparable of every answer; and sympy's Gruntz limit algorithm for
  the relation of the distinct pairs a run asks, in the order they first
  come (one per rung in turn), until GRUNTZ_BUDGET_S of limits have run.  A limit that runs past GRUNTZ_CAP_S or returns no
  dominance verdict is counted as skipped, not as a mismatch.

Germ specs are the plain data of specs.py; answers are the plain data that
worker.py prints.
"""

from __future__ import annotations

import json
import math
import signal
import time
from fractions import Fraction
from typing import Optional

import mpmath

import specs

DPS = 60
GERM_REL = mpmath.mpf("1e-20")
FLOAT_REL = 1e-12
GRUNTZ_BUDGET_S = 10.0  # limits are started until this much time is spent
GRUNTZ_CAP_S = 8.0  # one limit; a rung-3 limit can take over 10 s
# sample points where every log iterate in play is positive and no exp
# argument loses more than a few of the DPS digits
X_GERM = 3
X_INNER = {"x^2": mpmath.mpf(2), "exp": mpmath.mpf("1.25"),
           "log": mpmath.mpf(20)}


def _mp(q) -> mpmath.mpf:
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def eval_spec(spec, x) -> tuple:
    """(value, sum of absolute term values) of a germ spec at x."""
    total = scale = mpmath.mpf(0)
    for c, a, b, ex in spec:
        v = _mp(c) * mpmath.power(x, _mp(a)) * mpmath.log(x) ** b
        if ex is not None:
            v *= mpmath.exp(eval_spec(ex, x)[0])
        total += v
        scale += abs(v)
    return total, scale


def _logk(x, k: int):
    for _ in range(k):
        x = mpmath.log(x)
    return x


def eval_normal_form(nf, x) -> tuple:
    """(value, sum of absolute term values) of a printed normal form."""
    total = scale = mpmath.mpf(0)
    for c, powers, ex in nf:
        v = _mp(c)
        for k, r in powers:
            v *= mpmath.power(_logk(x, k), _mp(r))
        if ex is not None:
            v *= mpmath.exp(eval_normal_form(ex, x)[0])
        total += v
        scale += abs(v)
    return total, scale


def _close(want, got, scale) -> bool:
    return abs(want - got) <= GERM_REL * max(scale, mpmath.mpf(1e-30))


def _vec(arity: int, k: int) -> tuple:
    return (k,) if arity == 1 else (0, k)


def inverse_coeff(a: Fraction, b: Fraction, k: int) -> Fraction:
    """Coefficient of m**k in 1/(a + b m)."""
    return (-b) ** k / a ** (k + 1)


def _sympy_germ(spec, x):
    import sympy
    out = sympy.Integer(0)
    for c, a, b, ex in spec:
        t = sympy.Rational(c) * x ** sympy.Rational(a) * sympy.log(x) ** b
        if ex is not None:
            t *= sympy.exp(_sympy_germ(ex, x))
        out += t
    return out


# -- dominance in the fragment -------------------------------------------------
# A monomial x**a * log(x)**b * exp(E) is (a, b, E), with E a normalised sum:
# a tuple of (monomial, coefficient) pairs, () for exp(0) = 1.  Every
# monomial of E tends to infinity and outgrows log x, so a nonzero E1 - E2
# decides m1 against m2 before the powers do.

UNIT = (Fraction(0), 0, ())


def normalise(spec) -> tuple:
    """A germ spec as a canonical sum: equal monomials merged, zeros dropped."""
    acc: dict = {}
    for c, a, b, ex in spec:
        m = (Fraction(a), b, normalise(ex) if ex is not None else ())
        acc[m] = acc.get(m, 0) + Fraction(c)
    return tuple(sorted(((m, c) for m, c in acc.items() if c), key=repr))


def _minus(e1: tuple, e2: tuple) -> tuple:
    acc = dict(e1)
    for m, c in e2:
        acc[m] = acc.get(m, 0) - c
    return tuple((m, c) for m, c in acc.items() if c)


def mono_order(m1: tuple, m2: tuple) -> int:
    """1 if m1 dominates m2 at +oo, -1 if m2 dominates, 0 if equal."""
    d = _minus(m1[2], m2[2])
    if d:
        return 1 if leading(d)[1] > 0 else -1
    for u, v in ((m1[0], m2[0]), (m1[1], m2[1])):
        if u != v:
            return 1 if u > v else -1
    return 0


def leading(s: tuple) -> tuple:
    """(monomial, coefficient) of the dominant term of a nonzero sum."""
    best = s[0]
    for t in s[1:]:
        if mono_order(t[0], best[0]) > 0:
            best = t
    return best


def _log_class(m: tuple):
    """The dominant monomial of log m, up to its coefficient."""
    a, b, e = m
    if e:
        return leading(e)[0]
    return "log x" if a else "log log x"


def fragment_compare(f_spec, g_spec) -> list:
    """[relation, same archimedean class, comparable] of f against g; the
    last by the power-sandwich criterion: both in the class of 1, or both
    large or both small with logarithms of the same dominant monomial."""
    mf, mg = leading(normalise(f_spec))[0], leading(normalise(g_spec))[0]
    c = mono_order(mf, mg)
    relation = "~" if c == 0 else (">>" if c > 0 else "<<")
    uf, ug = mf == UNIT, mg == UNIT
    if uf or ug:
        comparable = uf and ug
    else:
        comparable = (mono_order(mf, UNIT) == mono_order(mg, UNIT)
                      and _log_class(mf) == _log_class(mg))
    return [relation, c == 0, comparable]


# -- sympy's Gruntz algorithm ----------------------------------------------------


class GruntzTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise GruntzTimeout


def gruntz_relation(f_spec, g_spec) -> Optional[str]:
    """'>>', '~' or '<<' for f against g, from lim f/g at +oo; None when
    the limit takes longer than GRUNTZ_CAP_S or decides no relation."""
    import sympy
    from sympy.series.gruntz import gruntz
    x = sympy.Symbol("x", positive=True)
    expr = _sympy_germ(f_spec, x) / _sympy_germ(g_spec, x)
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, GRUNTZ_CAP_S)
    try:
        lim = gruntz(expr, x, sympy.oo)
    except GruntzTimeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    if lim in (sympy.oo, -sympy.oo):
        return ">>"
    if lim == 0:
        return "<<"
    if lim.is_finite:
        return "~"
    return None


class Oracle:
    def __init__(self, workload: str, seed: int):
        self.pool = specs.germ_pool(seed) if workload == "germ-algebra" \
            else None
        self.gruntz_s = 0.0
        self.gruntz_checked = 0
        self.gruntz_skipped = 0
        self._gruntz: dict = {}  # (rung, f, g) -> relation or None
        self._verdicts: dict[str, Optional[str]] = {}

    def check(self, rec: dict) -> Optional[str]:
        """None when the outcome is right, else why it is wrong."""
        q = rec["q"]
        want_refusal = "cutoff-too-deep" if q["kind"] == "refusal" else None
        if rec["outcome"] == "refused" or want_refusal:
            if rec["outcome"] == "refused" and rec["detail"] == want_refusal:
                return None
            return (f"expected refusal {want_refusal}, got {rec['outcome']} "
                    f"{rec['detail'] or ''}".strip())
        if rec["outcome"] != "answered":
            return f"{rec['outcome']}: {rec['detail']}"
        key = json.dumps([q, rec["answer"]], sort_keys=True)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(q, rec["answer"])
        return self._verdicts[key]

    # -- per kind ----------------------------------------------------------------

    def _check(self, q, ans) -> Optional[str]:
        kind = q["kind"]
        with mpmath.workdps(DPS):
            if kind == "compare":
                return self._compare(q, ans)
            if kind in ("derivative", "power", "compose"):
                return self._germ(q, ans)
            if kind == "make-scale":
                return self._make_scale(q, ans)
        if kind == "laurent":
            return self._laurent(q, ans)
        if kind in ("pipeline", "retruncate", "square"):
            return self._series(q, ans)
        return f"no oracle for {kind}"

    def _compare(self, q, ans) -> Optional[str]:
        pool = self.pool[q["rung"]]
        f, g = pool[q["f"]], pool[q["g"]]
        want = fragment_compare(f, g)
        if ans != want:
            return f"compare gave {ans}, the fragment's order {want}"
        pair = (q["rung"], q["f"], q["g"])
        if pair not in self._gruntz and self.gruntz_s < GRUNTZ_BUDGET_S:
            t0 = time.monotonic()
            self._gruntz[pair] = gruntz_relation(f, g)
            self.gruntz_s += time.monotonic() - t0
            if self._gruntz[pair] is None:
                self.gruntz_skipped += 1
            else:
                self.gruntz_checked += 1
        limit = self._gruntz.get(pair)
        if limit is not None and limit != ans[0]:
            return f"gruntz says {limit}, got {ans[0]}"
        return None

    def _germ(self, q, ans) -> Optional[str]:
        f = self.pool[q["rung"]][q["f"]]
        kind = q["kind"]
        if kind == "compose":
            x = X_INNER[q["inner"]]
            inner = {"x^2": x * x, "exp": mpmath.exp(x),
                     "log": mpmath.log(x)}[q["inner"]]
            want, scale = eval_spec(f, inner)
        else:
            x = mpmath.mpf(X_GERM)
            if kind == "derivative":
                want = mpmath.diff(lambda t: eval_spec(f, t)[0], x)
                scale = abs(want)
            else:
                val, s = eval_spec(f, x)
                want, scale = val ** q["q"], s ** q["q"]
        got, got_scale = eval_normal_form(ans, x)
        if not _close(want, got, max(scale, got_scale)):
            return f"{kind} differs at x={mpmath.nstr(x, 5)}: " \
                   f"{mpmath.nstr(want, 12)} vs {mpmath.nstr(got, 12)}"
        return None

    def _make_scale(self, q, ans) -> Optional[str]:
        want = sorted(q["gens"])  # CHAIN is in decreasing dominance order
        if len(ans) != len(want):
            return f"expected {len(want)} generators, got {len(ans)}"
        x = mpmath.mpf(X_GERM)
        for (k, c), got in zip(want, ans):
            w = _mp(c) * eval_spec(specs.CHAIN[k], x)[0]
            g, s = eval_normal_form(got, x)
            if not _close(w, g, max(abs(w), s)):
                return f"generator {specs.CHAIN[k]} (times {c}) out of place"
        return None

    def _laurent(self, q, ans) -> Optional[str]:
        n, body = q["n"], q["body"]
        if body in ("geometric-x", "geometric-log"):
            r = Fraction(q["r"])
            want = [((k,), r ** k) for k in range(n + 1)]
            order = [1, "omega", n]
        else:
            if body == "product":
                c = lambda a, b: Fraction(q["r"]) ** a * Fraction(q["r2"]) ** b
            else:
                c = lambda a, b: (math.comb(a + b, a) * Fraction(q["p"]) ** a
                                  * Fraction(q["q"]) ** b)
            want = [((0, k), c(0, k)) for k in range(n + 1)]
            order = [2, "omega^2", n]
        if ans["terms"] != specs.plain_terms(want):
            return f"{body} coefficients differ to depth {n}"
        if ans["order_type"] != order:
            return f"order type {ans['order_type']}, expected {order}"
        return None

    def _series(self, q, ans) -> Optional[str]:
        kind, n = q["kind"], q.get("n")
        if kind == "square":
            r, e = Fraction(q["r"]), 2 ** q["k"]
            want = [((j,), math.comb(e, j) * r ** j) for j in range(e + 1)]
            return None if ans["terms"] == specs.plain_terms(want) else \
                f"(1 + {r} m)^{e} coefficients differ"
        a, b, arity = Fraction(q["a"]), Fraction(q["b"]), q["arity"]
        want = [(_vec(arity, k), inverse_coeff(a, b, k)) for k in range(n + 1)]
        if ans["terms"] != specs.plain_terms(want):
            return f"1/({a} + {b} m) coefficients differ to depth {n}"
        if kind == "retruncate":
            return None
        return self._sum(q, ans["sum"], a, b)

    def _sum(self, q, got, a, b) -> Optional[str]:
        n, arity, inner = q["n"], q["arity"], q["inner"]
        with mpmath.workdps(DPS):
            x = mpmath.mpf(q["x"])
            # the generator carrying the slice, after composing with inner
            if arity == 1:
                gen = mpmath.exp(x) if inner == "exp" else mpmath.log(x)
            else:
                gen = x if inner == "exp" else mpmath.log(mpmath.log(x))
            terms = [_mp(inverse_coeff(a, b, k)) * mpmath.exp(-k * gen)
                     for k in range(n + 2)]
            value = mpmath.fsum(terms[:-1])
            scale = mpmath.fsum(abs(t) for t in terms[:-1])
            tail = abs(terms[-1])
        if abs(got[0] - float(value)) > FLOAT_REL * float(scale):
            return f"sum_numeric {got[0]} vs {mpmath.nstr(value, 17)}"
        if abs(got[1] - float(tail)) > FLOAT_REL * float(tail):
            return f"tail {got[1]} vs {mpmath.nstr(tail, 17)}"
        return None
