import itertools
import math
import os
import random
import sys
import threading
from fractions import Fraction as Q

import pytest

from transgerm import gps
from transgerm.errors import (
    ArityMismatch,
    OrderNotPositive,
    WitnessViolated,
    ZeroWithinBound,
)
from transgerm.germ import g_logk, g_x
from transgerm.gps import (
    GenSeries,
    compose_ps,
    from_terms,
    geometric_in,
)
from transgerm.scale import make_scale
from transgerm.series import make_laurent
from transgerm.support import SupportUniverse


def geom(n):
    return Q(1)


def test_natural_universe_block_counts():
    # B({(1/2,0),(0,3)}) meets [0,5)^2 in finitely many points, about b/(1/2)
    uni = SupportUniverse(2, [(0, 0)], [(Q(1, 2), 0), (0, 3)])
    pts = uni.box_points((Q(9, 2), Q(9, 2)))
    # brute force: i*(1/2,0) + j*(0,3) <= (4.5,4.5)
    expect = {(Q(i, 2), Q(3 * j)) for i in range(10) for j in range(2)}
    assert set(pts) == expect


@pytest.mark.parametrize("arity, step, ratio", [
    (1, (0,), 2),     # sum 2^nu diverges
    (1, (-1,), 1),    # negative step
    (2, (1, -1), 1),  # lex-positive, but not natural support
])
def test_geometric_in_refuses_bad_step(arity, step, ratio):
    with pytest.raises(WitnessViolated):
        geometric_in(arity, step, ratio)


def test_geometric_in_refuses_wrong_arity():
    with pytest.raises(ArityMismatch):
        geometric_in(2, (1,))


def test_exponent_set_refuses_negative_coordinate():
    with pytest.raises(WitnessViolated):
        from_terms(2, {(1, 0): 1, (2, -1): 1})


def test_from_terms_refuses_points_outside_natural_support():
    # X^-1 + X would square to 1 + X^2 without its X^-2 and with 1 for 2,
    # since products convolve over nonnegative points only
    with pytest.raises(WitnessViolated):
        from_terms(1, {(-1,): 1, (1,): 1})
    with pytest.raises(ArityMismatch):
        from_terms(2, {(1,): 1})


def test_mul_difference_of_squares():
    one_plus = from_terms(1, {(0,): 1, (1,): 1})
    one_minus = from_terms(1, {(0,): 1, (1,): -1})
    prod = one_plus * one_minus
    assert prod.coeff((0,)) == 1
    assert prod.coeff((1,)) == 0
    assert prod.coeff((2,)) == -1
    assert prod.coeff((3,)) == 0


@pytest.fixture
def box_walks(monkeypatch):
    """(universe, points) for each box that conv walks, through the
    unsorted SupportUniverse._box."""
    walks, box = [], SupportUniverse._box

    def counted(uni, bound):
        pts = box(uni, bound)
        walks.append((uni, len(pts)))
        return pts

    monkeypatch.setattr(SupportUniverse, "_box", counted)
    return walks


def test_mul_walks_the_finite_factor(box_walks):
    # (2 + sum X^k)(1 - X) = 3 - 2X: each coefficient needs at most the two
    # points of the finite factor's box, whichever side that factor is on;
    # the infinite factor's box at X^k has k + 1 points
    geo = from_terms(1, {(0,): 2}) + geometric_in(1, (1,))
    one_minus = from_terms(1, {(0,): 1, (1,): -1})
    n = 200
    for prod in (geo * one_minus, one_minus * geo):
        box_walks.clear()
        coeffs = [prod.coeff((k,)) for k in range(n + 1)]
        assert coeffs == [3, -2] + [0] * (n - 1)
        assert n + 1 <= sum(k for _, k in box_walks) <= 2 * (n + 1)


def test_mul_walks_the_factor_a_lex_read_keeps_small(box_walks):
    # over (x, log x), a read to m[0, n] keeps the first coordinate 0: the
    # box of the factor along (1, 0) then holds one point, and that of the
    # factor along (0, 1) k + 1 points at (0, k), so walking it would be
    # quadratic; either order walks the first, which laurent-expand's
    # (1, 0) * (0, 1) body walks as it did
    sc = make_scale([g_x(), g_logk(1)])
    along_x, along_log = geometric_in(2, (1, 0), 3), geometric_in(2, (0, 1),
                                                                  Q(1, 2))
    n = 256
    for prod in (along_log * along_x, along_x * along_log):
        box_walks.clear()
        got = make_laurent(sc, sc.unit(), prod).terms_to_cutoff(
            sc.monomial([0, n]))
        assert got == [((0, k), Q(1, 2) ** k) for k in range(n + 1)]
        assert n + 1 <= sum(k for _, k in box_walks) <= 2 * (n + 1)
        assert {u for u, _ in box_walks} == {along_x.universe}


def test_add_identity():
    g = from_terms(2, {(1, 0): 3, (0, 2): Q(1, 2)})
    z = from_terms(2, {})
    s = g + z
    for v in [(1, 0), (0, 2), (0, 0), (5, 5)]:
        assert s.coeff(v) == g.coeff(v)


def test_geometric_product_grid():
    # (sum X0^m)(sum X1^n): all coefficients 1 on the grid
    g0 = geometric_in(2, (1, 0))
    g1 = geometric_in(2, (0, 1))
    prod = g0 * g1
    # oracle: brute-force convolution over the finite grid
    for a in range(3):
        for b in range(3):
            assert prod.coeff((a, b)) == 1


def nonzero_below(g, bound):
    """Componentwise-minimal points with a nonzero coefficient in the box
    0 <= v < bound, read through coeff."""
    pts = [v for v in itertools.product(*(range(b) for b in bound))
           if g.coeff(v)]
    return sorted(p for p in pts
                  if not any(q != p and all(a <= b for a, b in zip(q, p))
                             for q in pts))


def test_ord_and_min_direct():
    g = from_terms(2, {(2, 0): 1, (1, 1): 5})
    assert g.order() == 2
    assert nonzero_below(g, (6, 6)) == [(1, 1), (2, 0)]
    # a minimal support point far above the order does not move it
    far = from_terms(2, {(1, 0): 1, (0, 20): 1})
    assert far.order() == 1
    assert nonzero_below(far, (2, 21)) == [(0, 20), (1, 0)]


def test_ord_and_min_constant():
    g = from_terms(1, {(0,): 1, (1,): 1})
    assert g.order() == 0
    assert nonzero_below(g, (6,)) == [(0,)]


def test_ord_and_min_grid_minus_constant():
    full = geometric_in(2, (1, 0)) * geometric_in(2, (0, 1))
    g = full - from_terms(2, {(0, 0): 1})
    assert g.order() == 1
    assert nonzero_below(g, (6, 6)) == [(0, 1), (1, 0)]


def test_zero_within_bound():
    # a zero series over a finite universe, and zeros all along an infinite
    # one, refuse the order search and the composition that needs it
    empty = from_terms(1, {})
    zeros = geometric_in(1, (1,)) - geometric_in(1, (1,))
    for g in (empty, zeros):
        with pytest.raises(ZeroWithinBound):
            g.order(budget=50)
    with pytest.raises(ZeroWithinBound):
        compose_ps(geom, empty)
    with pytest.raises(ZeroWithinBound):
        compose_ps(geom, zeros, budget=5)


def test_partial_deriv_weighted():
    g = from_terms(1, {(2,): 1})
    d = g.partial_deriv(0)
    assert d.coeff((2,)) == 2  # exponent-weighted, not shifted
    g2 = from_terms(2, {(1, 0): 1})
    assert g2.partial_deriv(1).coeff((1, 0)) == 0
    g3 = from_terms(2, {(Q(1, 2), 1): 1})
    assert g3.partial_deriv(0).coeff((Q(1, 2), 1)) == Q(1, 2)


def test_partial_deriv_is_derivation():
    rng = random.Random(13)
    for _ in range(5):
        g = from_terms(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                           for _ in range(3)})
        h = from_terms(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                           for _ in range(3)})
        for i in range(2):
            lhs = (g * h).partial_deriv(i)
            rhs = g.partial_deriv(i) * h + g * h.partial_deriv(i)
            assert lhs.enumerate((4, 4)) == rhs.enumerate((4, 4))


def test_compose_geometric_with_x():
    g = from_terms(1, {(1,): 1})
    comp = compose_ps(geom, g)
    for n in range(6):
        assert comp.coeff((n,)) == 1


def test_compose_identity_series():
    g = from_terms(2, {(1, 0): 2, (0, 1): -1})
    ident = compose_ps(lambda n: Q(1) if n == 1 else Q(0), g)
    assert ident.enumerate((3, 3)) == g.enumerate((3, 3))


def test_compose_binomial_grid():
    # P = geometric, G = X0 + X1: coefficient of X0^a X1^b is C(a+b, a)
    g = from_terms(2, {(1, 0): 1, (0, 1): 1})
    comp = compose_ps(geom, g)
    for a in range(5):
        for b in range(5 - a):
            assert comp.coeff((a, b)) == math.comb(a + b, a)


def test_compose_requires_positive_order():
    g = from_terms(1, {(0,): 1, (1,): 1})
    with pytest.raises(OrderNotPositive):
        compose_ps(geom, g)


def test_compose_associativity():
    # Q o (P o G) = (Q o P) o G with ord(P) > 0
    g = from_terms(1, {(1,): 1, (2,): 1})
    p = [Q(0), Q(1), Q(1)]  # P(T) = T + T^2, ord 1
    q = [Q(0), Q(2), Q(0), Q(1)]  # Q(T) = 2T + T^3

    def series_mul(a, b, n):
        out = [Q(0)] * n
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                if i + j < n:
                    out[i + j] += ai * bj
        return out

    def series_compose(outer, inner, n):
        out = [Q(0)] * n
        power = [Q(1)] + [Q(0)] * (n - 1)
        for k, c in enumerate(outer):
            if k > 0:
                power = series_mul(power, inner, n)
            for idx in range(n):
                out[idx] += c * power[idx]
        return out

    qop = series_compose(q, p, 8)
    lhs = compose_ps(lambda n: p[n] if n < len(p) else Q(0), g)
    lhs = compose_ps(lambda n: q[n] if n < len(q) else Q(0), lhs)
    rhs = compose_ps(lambda n: qop[n] if n < len(qop) else Q(0), g)
    assert lhs.enumerate((6,)) == rhs.enumerate((6,))


def test_ring_laws_random():
    rng = random.Random(99)

    def rand_series():
        return from_terms(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                              Q(rng.randint(-4, 4), rng.choice([1, 2]))
                              for _ in range(4)})

    for _ in range(10):
        g, h, k = rand_series(), rand_series(), rand_series()
        bound = (4, 4)
        for lhs, rhs in (((g + h) + k, g + (h + k)),
                         ((g * h) * k, g * (h * k)),
                         (g * (h + k), g * h + g * k),
                         (g * h, h * g)):
            assert lhs.enumerate(bound) == rhs.enumerate(bound)


def test_ord_multiplicative():
    rng = random.Random(5)
    for _ in range(8):
        g = from_terms(2, {(rng.randint(0, 2) + 1, rng.randint(0, 2)): 1 + rng.randint(0, 3)})
        h = from_terms(2, {(rng.randint(0, 2), rng.randint(0, 2) + 1): 1 + rng.randint(0, 3)})
        assert (g * h).order() == g.order() + h.order()


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        from_terms(1, {(1,): 1}) + from_terms(2, {(1, 0): 1})


def test_enumeration_stable():
    g = geometric_in(1, (Q(1, 2),))
    first = g.enumerate((2,))
    second = g.enumerate((2,))
    assert first == second
    assert [v for v, _ in first] == [(Q(0),), (Q(1, 2),), (Q(1),), (Q(3, 2),), (Q(2),)]


def _bodies(step):
    """Builders of one body of each kind on a step: each call is fresh."""
    r = Q(-2, 3)
    return {
        "geometric": lambda: geometric_in(2, step, r),
        "product": lambda: geometric_in(2, step, r) * geometric_in(2, (1, 0), 3),
        "compose_ps": lambda: compose_ps(
            [1, -1, Q(1, 2), 2], from_terms(2, {step: r, (1, 0): -1})),
        "from_terms": lambda: from_terms(
            2, {(0, 0): 1, step: 3, (1, 2): -2, (Q(5, 2), 1): Q(1, 7)}),
        "add": lambda: geometric_in(2, step, r) + from_terms(
            2, {(0, 0): -1, (1, 0): 5, step: 1}),
    }


_STREAMS = {
    "lex": lambda u: itertools.islice(u.lex_stream(), 40),
    "box": lambda u: u.box_points((3, Q(7, 2))),
    "graded": lambda u: itertools.islice(u.graded_stream(), 40),
}


@pytest.mark.parametrize("step", [(1, 1), (0, Q(1, 2)), (2, 3)])
def test_stream_reads_equal_checked_reads(step):
    # a point that a universe's own stream produced is read without coeff's
    # checks; its coefficient must equal coeff's on a second fresh copy,
    # half-integral sums that reach the read as Fraction(1) included
    for name, build in _bodies(step).items():
        for stream in _STREAMS.values():
            body = build()
            pts = list(stream(body.universe))
            got = [body._at(v) for v in pts]
            checked = build()
            assert got == [checked.coeff(v) for v in pts], name
            assert any(got), name
    if step == (0, Q(1, 2)):
        pts = list(itertools.islice(geometric_in(2, step).universe.lex_stream(), 3))
        assert pts[2] == (0, 1) and type(pts[2][1]) is Q


@pytest.mark.parametrize("step, off_ray, on_ray", [
    ((1, 1), [(1, 0), (2, 1), (0, 1)], (2, 2)),
    ((0, Q(1, 2)), [(1, Q(1, 2)), (0, Q(1, 3))], (0, Q(3, 2))),
    ((2, 3), [(1, Q(3, 2)), (2, 2), (4, 3)], (4, 6)),
])
def test_geometric_in_is_zero_off_its_ray(step, off_ray, on_ray):
    # the oracle reads nu from one coordinate; coeff's membership test keeps
    # every point off the ray away from it
    g = geometric_in(2, step, 3)
    assert [g.coeff(v) for v in off_ray] == [0] * len(off_ray)
    assert g.coeff(on_ray) == (9 if step != (0, Q(1, 2)) else 27)


def _brute_compose(p, g_terms, bound, ord_g):
    """sum_nu p[nu] G^nu on the box below `bound`, by dict convolution."""
    def inside(v):
        return all(a <= b for a, b in zip(v, bound))

    arity = len(bound)
    out = {}
    power = {(Q(0),) * arity: Q(1)}
    for nu in range(int(sum(bound) / ord_g) + 1):
        if nu:
            nxt = {}
            for v, c in power.items():
                for u, d in g_terms.items():
                    w = tuple(a + b for a, b in zip(v, u))
                    if inside(w):
                        nxt[w] = nxt.get(w, Q(0)) + c * d
            power = nxt
        a = p[nu] if nu < len(p) else Q(0)
        for v, c in power.items():
            out[v] = out.get(v, Q(0)) + a * c
    return {v: c for v, c in out.items() if c}


def test_compose_grade_window_differential():
    # finite G of mixed grades and fractional exponents, P with zeros, against
    # an expansion sharing no code with gps; queried cold in two orders
    rng = random.Random(611)
    exps = [Q(0), Q(1, 2), Q(1), Q(3, 2), Q(2)]
    for trial in range(24):
        arity = 1 + trial % 2
        g_terms = {}
        while len({sum(v) for v in g_terms}) < 2:
            v = tuple(rng.choice(exps) for _ in range(arity))
            if any(v):
                g_terms[v] = Q(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2]))
        p = [Q(rng.choice([0, 0, 1, -2, 3])) for _ in range(rng.randint(3, 9))]
        bound = (Q(7, 2),) * arity
        want = _brute_compose(p, g_terms, bound, min(sum(v) for v in g_terms))
        g = from_terms(arity, g_terms)
        got = compose_ps(p, g).enumerate(bound)
        assert dict(got) == want
        comp = compose_ps(p, g)
        assert [(v, comp.coeff(v)) for v, _ in reversed(got)] == got[::-1]


def test_compose_reads_p_where_a_power_reaches():
    # over an infinite skeleton the grade window starts at nu = 0, but
    # G^0 = 1 reaches grade 0 alone: P's constant term is read there only
    asked = []

    def p(n):
        asked.append(n)
        return Q(1, n + 1)

    g = geometric_in(1, (1,), 2) - from_terms(1, {(0,): 1})  # 2x + 4x^2 + ...
    comp = compose_ps(p, g)
    want = _brute_compose([Q(1, n + 1) for n in range(6)],
                          {(Q(k),): Q(2) ** k for k in range(1, 6)}, (5,), 1)
    assert [comp.coeff((k,)) for k in range(5, 0, -1)] == [
        want.get((Q(k),), 0) for k in range(5, 0, -1)]
    assert sorted(asked) == [1, 2, 3, 4, 5]
    assert comp.coeff((0,)) == 1 and sorted(asked) == [0, 1, 2, 3, 4, 5]


def test_compose_infinite_zero_skeleton():
    # X over an infinite skeleton of zeros: g's terms are pulled by point
    # grade, so each coefficient terminates
    g = from_terms(1, {(1,): 1}) + (geometric_in(1, (1,)) - geometric_in(1, (1,)))
    comp = compose_ps(geom, g)
    assert [comp.coeff((n,)) for n in reversed(range(30))] == [Q(1)] * 30
    comp = compose_ps([1, 0, 2], g)
    assert [comp.coeff((n,)) for n in range(6)] == [1, 0, 2, 0, 0, 0]


def test_compose_deep_binomial(X, LOG):
    # the benchmark's compose-ps body p*X0 + q*X1 over (x, log x): depth 1100
    # along log x, and a cold coefficient 80 powers deep
    import time

    from transgerm.scale import make_scale
    from transgerm.series import make_laurent

    p, q = Q(1, 2), Q(-3)
    sc = make_scale([X, LOG])
    t0 = time.perf_counter()
    body = compose_ps(geom, from_terms(2, {(1, 0): p, (0, 1): q}))
    f = make_laurent(sc, sc.unit(), body)
    got = f.terms_to_cutoff(sc.monomial([0, 1100]))
    assert got == [((Q(0), Q(k)), q ** k) for k in range(1101)]
    cold = compose_ps(geom, from_terms(2, {(1, 0): p, (0, 1): q}))
    assert cold.coeff((40, 40)) == math.comb(80, 40) * p ** 40 * q ** 40
    # linear in the depth: the quadratic construction took about 30 s
    assert time.perf_counter() - t0 < 5


def test_compose_shared_across_threads():
    # g = p*X0 + q*X1 over an infinite skeleton, so that threads pull its
    # term stream, not only the memo
    p, q = Q(2, 3), Q(-5, 2)
    unit = from_terms(2, {(0, 0): 1, (1, 1): -1}) * geometric_in(2, (1, 1))
    g = from_terms(2, {(1, 0): p}) * unit + from_terms(2, {(0, 1): q}) * unit
    shared = compose_ps(geom, g)
    pts = [(a, b) for a in range(14) for b in range(14 - a)]
    nthreads = 2 * (os.cpu_count() or 1) + 2
    results = [None] * nthreads

    def work(k):
        order = pts[:]
        random.Random(k).shuffle(order)
        results[k] = all(
            shared.coeff((a, b)) == math.comb(a + b, a) * p ** a * q ** b
            for a, b in order)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(results)


@pytest.mark.parametrize("d, g_ord, top", [
    (10**18 + 1, 1, 3),
    (10**18 + 1, 3, None),
    (10**18 + 2, 1, 3),
    (3 * 10**17 + 1, 3, 7),
    (Q(10**18 + 1, 2), Q(1, 2), 3),
    (10**18 + 1, Q(3, 2), Q(7, 2)),
])
def test_grade_window_is_exact_at_large_grades(d, g_ord, top):
    # against Fraction arithmetic; true division of two ints rounds through a
    # float, which at these grades moves the window's ends
    lo = 0 if top is None else math.ceil(Q(d) / top)
    want = range(lo, math.floor(Q(d) / g_ord) + 1)
    got = gps.grade_window(d, g_ord, top)
    assert (got.start, got.stop) == (want.start, want.stop)
    assert all(type(n) is int for n in (got.start, got.stop))
    if type(d) is int and top == 3:
        assert math.ceil(d / top) != got.start


def test_grade_window_small_grades():
    # every nu whose grades nu*g_ord .. nu*top cover d, by direct search
    for d in [*range(13), *(Q(2 * n + 1, 2) for n in range(12))]:
        for g_ord, top in [(1, 1), (1, 3), (Q(1, 2), 2), (2, Q(5, 2)), (1, None)]:
            want = [nu for nu in range(30)
                    if nu * g_ord <= d and (top is None or d <= nu * top)]
            assert list(gps.grade_window(d, g_ord, top)) == want
