"""Seeded query streams for the three workloads, as plain JSON-able data.

Nothing here imports ``transgerm``: the workload process turns a spec into
library calls, and the oracles turn the same spec into closed forms, mpmath
values or sympy expressions.  Rationals travel as strings ("3/2").

A run is a sequence of rounds.  Every round issues the same kinds of query
at the same rungs, so latency percentiles and throughput do not depend on
where a run stops; only the seeded parameters differ between rounds.

Germ specs are lists of terms ``[coef, a, b, exp]`` meaning
``coef * x**a * log(x)**b * exp(<exp>)``, where ``exp`` is another germ
spec whose terms all tend to infinity, or None.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("germ-algebra", "laurent-expand", "invert-pipeline")

# Rungs: terms per level (germs) or truncation depth n (series).
GERM_RUNGS = (1, 2, 3)
LAURENT_RUNGS = (16, 32, 64, 128)
LAURENT_DEEP = 256  # one more rung, geometric on (x) only
INVERT_RUNGS = (5, 10, 20, 40)

GERM_POOL = 27  # germs per rung, built once at set-up and queried repeatedly
LAURENT_BODIES = ("geometric-x", "geometric-log", "product", "compose-ps")
INNERS = ("x^2", "exp", "log")
REFUSAL_BUDGETS = (20, 50)
SUM_AT = {"exp": 2.0, "log": 16.0}  # sum_numeric's x after composing with inner
SQUARINGS = (4, 5, 6)  # f -> f*f repeated k times: provenance grows as 2**k

# Run protocol shared by the workload process and the report.
MIN_SAMPLES = 100  # queries per run: ten beyond p90
# Rounds after which every rotated parameter (see _Rotation) has taken each
# of its values equally often; a loop stops at a multiple of it, so that a
# run's mix of values does not depend on where it stops.
CYCLE = {"germ-algebra": GERM_POOL, "laurent-expand": 7, "invert-pipeline": 6}
QUERY_CAP_S = 30.0  # per-query wall-clock cap, far above the slowest query (~1 s)

# Past the seed's RecursionError depth for arity-1 support membership
# (about n = 970 at the interpreter's default recursion limit).
PROBE_DEPTH = 1100

# Single-term generators in strictly decreasing dominance order:
# exp(x^2) > x exp(x) > exp(x) > x^2 > x log x > x > x^(1/2) > log(x)^2 > log x.
CHAIN = (
    [["1", "0", 0, [["1", "2", 0, None]]]],
    [["1", "1", 0, [["1", "1", 0, None]]]],
    [["1", "0", 0, [["1", "1", 0, None]]]],
    [["1", "2", 0, None]],
    [["1", "1", 1, None]],
    [["1", "1", 0, None]],
    [["1", "1/2", 0, None]],
    [["1", "0", 2, None]],
    [["1", "0", 1, None]],
)

_TOP_COEFS = ("1", "-1", "2", "-3", "1/2", "-2/3", "5/4")
_EXP_COEFS = ("1", "-1", "2", "1/2", "-3/2")
_POS_COEFS = ("1", "2", "1/2", "3/4")
_TOP_A = ("-1", "-1/2", "0", "1/2", "1", "3/2", "2")
_LARGE_A = ("0", "1/2", "1", "3/2", "2")
_INNER_A = ("0", "1/2", "1")
_B = (-1, 0, 1, 2)


def _shape(rng: random.Random, t: int, depth: int) -> list:
    """Which terms carry an exp part, recursively: one list entry per term,
    None or the shape of the exp argument."""
    if depth == 0:
        return [None] * t
    p = 0.7 if depth == 2 else 0.4
    return [_shape(rng, t if depth == 2 else max(1, t - 1), depth - 1)
            if rng.random() < p else None for _ in range(t)]


def _fill(rng: random.Random, shape: list, depth: int, coefs) -> list:
    """Seeded values for a shape; depth 2 is the germ itself, whose terms
    may be small, below it every term tends to infinity."""
    terms: dict = {}
    for ex_shape in shape:
        while True:
            if ex_shape is not None:
                # exp of a positive purely infinite germ beats every power
                ex = _fill(rng, ex_shape, depth - 1,
                           _EXP_COEFS if depth == 2 else _POS_COEFS)
                a, b = rng.choice(_TOP_A), rng.choice(_B)
            else:
                ex = None
                a = rng.choice(_TOP_A if depth == 2 else
                               _LARGE_A if depth == 1 else _INNER_A)
                # x^0 needs log(x)^2 or more: exp(c log x) is only a power
                b = rng.choice(_B) if a != "0" or depth == 2 else 2
            key = (a, b, repr(ex))
            if key not in terms:
                terms[key] = [rng.choice(coefs), a, b, ex]
                break
    return list(terms.values())


def germ_pool(seed: int) -> dict:
    """The germs a germ-algebra run queries: GERM_POOL per rung, t terms per
    level and exp-depth <= 2.  Which terms carry exp parts is the same for
    every seed, so that the seed changes values but not the amount of work;
    coefficients and exponents come from the seed."""
    rng = random.Random(f"germ-pool:{seed}")
    return {t: [_fill(rng, _shape(random.Random(f"shape:{t}:{i}"), t, 2), 2,
                      _TOP_COEFS)
                for i in range(GERM_POOL)]
            for t in GERM_RUNGS}


def _q(rng: random.Random, choices) -> str:
    return str(Fraction(rng.choice(choices)))


class _Rotation:
    """Seeded orderings of each parameter's values, read off in rotation so
    that every value recurs at every rung once per cycle: a run's cost then
    depends little on which values the seed happened to draw."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.orders: dict = {}

    def __call__(self, name: str, values, step: int):
        if name not in self.orders:
            self.orders[name] = self.rng.sample(values, len(values))
        order = self.orders[name]
        return order[step % len(order)]


# value lists of one workload have lengths that divide its CYCLE
_RATIOS = ("1", "1/2", "2", "-1", "-1/3", "3/2", "2/3")
_PQ = ("1/2", "1/3", "1/4", "2/3", "1", "3/4", "1/5")
_A = ("1", "2", "3", "-2", "3/2", "-3/2")
_BC = ("1", "-1", "1/2", "-1/2", "2/3", "-2/3")
_U = ("1", "1/2", "-1")
_W = ("1/2", "1", "-1/3")


def round_queries(workload: str, seed: int, rnd: int) -> list[dict]:
    """The queries of round ``rnd``; ``ladder`` names the queries that
    enter growth_exponent, grouped by ladder, at rung ``rung``."""
    rng = random.Random(f"{workload}:{seed}:{rnd}")
    pick = _Rotation(workload, seed)
    out: list[dict] = []
    if workload == "germ-algebra":
        idx = tuple(range(GERM_POOL))
        for t in GERM_RUNGS:
            i = pick(f"compare-f{t}", idx, rnd)
            j = pick(f"compare-g{t}", idx, rnd)
            out.append({"kind": "compare", "ladder": "compare", "rung": t,
                        "f": i, "g": j if j != i else (j + 1) % GERM_POOL})
            out.append({"kind": "derivative", "ladder": "derivative",
                        "rung": t, "f": pick(f"derivative{t}", idx, rnd)})
            out.append({"kind": "power", "ladder": "power", "rung": t,
                        "f": pick(f"power{t}", idx, rnd), "q": 3})
            out.append({"kind": "compose", "ladder": "compose", "rung": t,
                        "f": pick(f"compose{t}", idx, rnd),
                        "inner": pick("inner", INNERS, rnd + t)})
            picks = rng.sample(range(len(CHAIN)), rng.choice((2, 3)))
            out.append({"kind": "make-scale", "gens": [
                [k, _q(rng, _POS_COEFS)] for k in picks]})
    elif workload == "laurent-expand":
        for i, n in enumerate(LAURENT_RUNGS):
            for body in LAURENT_BODIES:
                q = {"kind": "laurent", "ladder": body, "rung": n,
                     "body": body, "n": n}
                if body == "compose-ps":
                    q["p"] = pick("p", _PQ, rnd + i)
                    q["q"] = pick("q", _PQ, rnd + i)
                else:
                    q["r"] = pick(body, _RATIOS, rnd + i)
                    q["r2"] = pick(body + "2", _RATIOS, rnd + i)
                out.append(q)
        # an odd number of queries per round puts the median rank inside a
        # slot's latencies, not on the boundary between two slots
        out.append({"kind": "laurent", "ladder": "geometric-x",
                    "rung": LAURENT_DEEP, "body": "geometric-x",
                    "n": LAURENT_DEEP, "r": pick("geometric-x", _RATIOS, rnd),
                    "r2": "1"})
    elif workload == "invert-pipeline":
        for i, n in enumerate(INVERT_RUNGS):
            inner = pick("inner1", ("exp", "log"), rnd + i)
            p1 = {"kind": "pipeline", "ladder": "pipeline-1", "rung": n,
                  "arity": 1, "n": n, "a": pick("a1", _A, rnd + i),
                  "b": pick("b1", _BC, rnd + i), "inner": inner,
                  "x": SUM_AT[inner]}
            out.append(p1)
            # the read side of the memoized DAG: the same series, deeper
            out.append(dict(p1, kind="retruncate", ladder=None, rung=None,
                            n=2 * n))
            inner = pick("inner2", ("exp", "log"), rnd + i)
            out.append({"kind": "pipeline", "ladder": "pipeline-2", "rung": n,
                        "arity": 2, "n": n, "a": pick("a2", _A, rnd + i),
                        "b": pick("b2", _BC, rnd + i),
                        "c": pick("c2", _BC, rnd + i), "inner": inner,
                        "x": SUM_AT[inner]})
            if i < len(SQUARINGS):  # 17 queries a round: an odd count
                out.append({"kind": "square", "k": SQUARINGS[i],
                            "r": pick("r", _BC, rnd + i)})
        for i, budget in enumerate(REFUSAL_BUDGETS):
            out.append({"kind": "refusal", "budget": budget,
                        "u": pick("u", _U, rnd + i),
                        "w": pick("w", _W, rnd + i)})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def plain_terms(terms) -> list:
    """Series terms as printed answers: [[exponents], coefficient], zeros
    dropped, everything a string."""
    return [[[str(a) for a in v], str(c)] for v, c in terms if c]


def probe_query() -> dict:
    """One query past the seed's recursion depth, run once after the loop."""
    return {"kind": "laurent", "ladder": None, "rung": None,
            "body": "geometric-x", "n": PROBE_DEPTH, "r": "1", "r2": "1"}
