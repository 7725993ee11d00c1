"""A dict-based reference model of arity-1 series, for differential tests.

It imports nothing from transgerm.  A model series is exact below a
horizon: ``terms`` maps each exponent e <= ``horizon`` to its nonzero
coefficient, and ``low`` bounds the whole support from below (it is
``math.inf`` for the zero series).  An exponent e stands for the monomial
m^e of the scale's one generator m, so a larger e is a smaller monomial.
Every operation computes its result from its operands' dicts when it is
called, so a model of any depth is built and read without recursion.

A series with an infinite support is exact below the horizon given to its
leaf; a finite one is exact everywhere.  Each operation sets the horizon
below which its dict is complete: a product's coefficient at e reads its
operands at most at e minus the other operand's ``low``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable


class Model:
    def __init__(self, terms: dict, low, horizon):
        self.terms = {e: c for e, c in terms.items() if c and e <= horizon}
        self.low = low
        self.horizon = horizon

    def to(self, cutoff) -> list[tuple]:
        """The nonzero terms at exponents <= cutoff, ascending; cutoff must
        not pass the horizon."""
        if cutoff > self.horizon:
            raise ValueError(f"cutoff {cutoff} is past the horizon {self.horizon}")
        return sorted((e, c) for e, c in self.terms.items() if e <= cutoff)


def finite(terms: dict) -> Model:
    terms = {Fraction(e): Fraction(c) for e, c in terms.items()}
    nonzero = [e for e, c in terms.items() if c]
    return Model(terms, min(nonzero, default=math.inf), math.inf)


def geometric(step, ratio, horizon) -> Model:
    """sum_k ratio^k m^(k*step) for a step > 0, exact below horizon."""
    step, ratio = Fraction(step), Fraction(ratio)
    n = math.floor(horizon / step)
    return Model({k * step: ratio ** k for k in range(n + 1)}, 0, horizon)


def add(a: Model, b: Model) -> Model:
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, 0) + c
    return Model(out, min(a.low, b.low), min(a.horizon, b.horizon))


def scaled(a: Model, q) -> Model:
    return Model({e: q * c for e, c in a.terms.items()}, a.low, a.horizon)


def neg(a: Model) -> Model:
    return scaled(a, -1)


def sub(a: Model, b: Model) -> Model:
    return add(a, neg(b))


def mul(a: Model, b: Model) -> Model:
    horizon = min(a.horizon + b.low, b.horizon + a.low)
    out: dict = {}
    for e, c in a.terms.items():
        for f, d in b.terms.items():
            if e + f <= horizon:
                out[e + f] = out.get(e + f, 0) + c * d
    return Model(out, a.low + b.low, horizon)


def shifted(a: Model, d) -> Model:
    return Model({e + d: c for e, c in a.terms.items()}, a.low + d,
                 a.horizon + d)


def subseries(a: Model, keep: Callable) -> Model:
    return Model({e: c for e, c in a.terms.items() if keep(e)}, a.low,
                 a.horizon)


def same(a: Model) -> Model:
    """assert_convergent and compose_right, which keep every coefficient."""
    return a


def truncate(a: Model, cutoff) -> Model:
    return finite(dict(a.to(cutoff)))


def invert(a: Model, horizon) -> Model:
    """1/a for a = c*m^L*(1 + r), where L is the least exponent of a's
    terms, so a must have a term below its horizon.  1/(1 + r) = 1 - r/(1 + r)
    gives q_0 = 1 and q_t = -sum_s r_s q_(t-s) over the sums t of r's
    exponents, and 1/a = m^-L q / c.  q_t reads r up to t, so 1/a is exact
    below a's horizon minus 2L; of a finite a, it is exact below horizon,
    and finite when a is one term."""
    low = min(a.terms)
    c = a.terms[low]
    if len(a.terms) == 1 and a.horizon == math.inf:
        return finite({-low: 1 / c})
    top = min(horizon, a.horizon - 2 * low)  # 1/a is exact below top
    r = {e - low: x / c for e, x in a.terms.items() if e != low}
    sums, todo = {0}, [0]  # the sums of r's exponents up to top + low
    while todo:
        t = todo.pop()
        for s in r:
            if t + s <= top + low and t + s not in sums:
                sums.add(t + s)
                todo.append(t + s)
    q: dict = {}
    for t in sorted(sums):
        q[t] = 1 if t == 0 else -sum(x * q.get(t - s, 0) for s, x in r.items())
    return Model({t - low: x / c for t, x in q.items()}, -low, top)
