"""Seeded random series DAGs over (x), checked node by node against the
dict model in tests/model.py.

Each DAG is built twice, from transgerm's series and from the model, out of
finite and geometric leaves, +, -, *, squares of a series and of a view of
it, the six unary operations, truncate, invert, and unary chains 300 to
500 links long.  Every node is compared on its nonzero terms down to a cutoff
below the model's horizon."""

import math
import random
from fractions import Fraction as Q

import model as M
from transgerm import series as S
from transgerm.scale import make_scale

HORIZON = 24  # each geometric leaf of the model is exact down to m^24
WINDOW = 24  # a node is compared down to m^(low + WINDOW), within its horizon


def _cutoff(m: M.Model):
    low = 0 if m.low == math.inf else m.low
    return min(m.horizon, low + WINDOW)


def _keep(rng, chain: bool):
    # a chain drops one exponent per keep, so that its terms outlive it
    t, k = rng.randrange(-4, 30 if chain else 12), rng.choice([2, 3])
    if chain:
        return lambda e: e != t
    return rng.choice([lambda e: e != t, lambda e: e % k != t % k,
                       lambda e: e < t])


def _unary(rng, X, f, m, chain=False):
    """One of the six unary operations, drawn at random, on both sides."""
    op = rng.randrange(6)
    if op == 0:
        d = rng.randrange(-2, 4)
        return f.shifted((d,)), M.shifted(m, d)
    if op == 1:
        q = rng.choice([Q(1), Q(-1), Q(2), Q(1, 3), Q(-3, 2)])
        return f.scaled(q), M.scaled(m, q)
    if op == 2:
        return -f, M.neg(m)
    if op == 3:
        keep = _keep(rng, chain)
        return f.subseries(lambda v: keep(v[0])), M.subseries(m, keep)
    if op == 4:
        return f.assert_convergent(rng.choice([None, 1.0, 2])), M.same(m)
    return S.compose_right(f, X), M.same(m)


def _leaf(rng, sx):
    if rng.random() < 0.5:
        terms = {rng.randrange(-3, 7): Q(rng.randrange(-4, 5), rng.randrange(1, 4))
                 for _ in range(rng.randrange(1, 5))}
        return (S.from_terms(sx, {(e,): c for e, c in terms.items()}),
                M.finite(terms))
    step, ratio = rng.choice([1, 2, Q(1, 2)]), rng.choice([1, -2, Q(1, 3)])
    return (S.geometric(sx, sx.monomial([step]), ratio),
            M.geometric(step, ratio, HORIZON))


def _dag(seed: int, X, sx) -> list:
    """The (series, model) pairs of one random DAG, in build order."""
    rng = random.Random(seed)
    pool = [_leaf(rng, sx), _leaf(rng, sx)]
    for _ in range(rng.randrange(4, 12)):
        (f, m), (g, n) = rng.choice(pool), rng.choice(pool)
        r = rng.random()
        if r < 0.1:
            pool.append(_leaf(rng, sx))
        elif r < 0.2:
            pool.append((f + g, M.add(m, n)))
        elif r < 0.3:
            pool.append((f - g, M.sub(m, n)))
        elif r < 0.4:
            pool.append((f * g, M.mul(m, n)))
        elif r < 0.45:
            pool.append((f * f.assert_convergent(), M.mul(m, m)))
        elif r < 0.55:
            for _ in range(rng.randrange(300, 500)):
                f, m = _unary(rng, X, f, m, chain=True)
            pool.append((f, m))
        elif r < 0.6:
            c = _cutoff(m)
            pool.append((S.truncate(f, sx.monomial([c])), M.truncate(m, c)))
        elif r < 0.7:
            # the model needs f's leading term, and the series refuses a
            # lone term whose stream may not end
            if len(m.terms) > 1 or (m.terms and m.horizon == math.inf):
                pool.append((S.invert(f), M.invert(m, HORIZON)))
        else:
            pool.append(_unary(rng, X, f, m))
    return pool


def test_random_dags_match_the_model(X):
    sx = make_scale([X])
    for seed in range(60):
        for k, (f, m) in enumerate(_dag(seed, X, sx)):
            c = _cutoff(m)
            got = f.terms_to_cutoff(sx.monomial([c]))
            assert got == [((e,), v) for e, v in m.to(c)], (seed, k)
