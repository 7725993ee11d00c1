import heapq
import itertools
import math
import operator
import os
import pickle
import random
import sys
import threading
import weakref
from copy import copy as shallow_copy, deepcopy
from decimal import Decimal
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transgerm import gps, support
from transgerm.errors import NotInFragment, OrderNotPositive, WitnessViolated
from transgerm.germ import g_logk, g_x
from transgerm.scale import make_scale, project_class
from transgerm.series import from_terms, invert, make_laurent
from transgerm.support import (
    SupportUniverse,
    grade,
    is_nonnegative,
    lex_positive,
    vadd,
    vzero,
)


def brute_members(u, nmax):
    """p + sum n_i g_i over every point p and 0 <= n_i <= nmax, by plain
    enumeration."""
    gens = sorted(u.gens)
    out = set()
    for p in u.points:
        for ns in itertools.product(range(nmax + 1), repeat=len(gens)):
            v = p
            for n, g in zip(ns, gens):
                v = vadd(v, tuple(n * a for a in g))
            out.add(v)
    return out


def copy(u):
    return SupportUniverse(u.arity, u.points, u.gens)


def cold_copy(u):
    """u's shape built on an emptied intern table, so that its membership
    memo and streams start cold; u itself keeps its own."""
    support._universes.clear()
    return copy(u)


def box(*ranges):
    return [tuple(Q(a) for a in p)
            for p in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges))]


def gen(arity, gens, offset=None):
    """offset + monoid(gens), at offset 0 by default, with every coordinate
    given as a Fraction."""
    offset = (0,) * arity if offset is None else offset
    return SupportUniverse(arity, [tuple(map(Q, offset))],
                           [tuple(map(Q, g)) for g in gens])


# (universe, target box about its least point, n_i bound that reaches every
# member in the box)
CASES = {
    "dependent-1d": (gen(1, [(2,), (3,)]), box((-2, 25)), 13),
    "dependent-2d": (gen(2, [(1, 0), (0, 1), (1, 1)]), box((-1, 5), (-2, 5)), 6),
    "negative-trailing": (gen(2, [(1, -1), (0, 1)]),
                          box((-1, 4), (-6, 5)), 10),
    "offset": (gen(2, [(1, -1), (0, 2)], offset=(1, -3)),
               box((0, 4), (-9, 3)), 8),
    "union": (gen(1, [(3,)], offset=(2,)).union(gen(1, [(5,)], offset=(1,))),
              box((-1, 30)), 30),
    "shifted": (gen(2, [(1, 0), (1, 2), (0, 3)]).shifted((Q(1, 2), Q(-1))),
                box((-1, 3), (-3, 8)), 4),
    "closure": (gen(2, [(0, 2), (1, -1)], offset=(0, 3)).closure(),
                box((-1, 3), (-4, 7)), 11),
    # a finite set plus a ray that leads after the points' own differences
    "points-and-ray": (SupportUniverse(2, [(0, 1), (1, 3), (2, 0)], [(0, 2)]),
                       box((-1, 3), (-2, 8)), 6),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_contains_matches_enumeration(name):
    u, targets, nmax = CASES[name]
    members = brute_members(u, nmax)
    # boxes are relative to the least point, which can be fractional
    targets = [vadd(t, u.points[0]) for t in targets]
    want = {t: t in members for t in targets}
    assert any(want.values()) and not all(want.values())
    # cold queries in two orders on fresh universes, then warm queries
    cold = cold_copy(u)
    assert {t: cold.contains(t) for t in targets} == want
    rev = cold_copy(u)
    assert {t: rev.contains(t) for t in reversed(targets)} == want
    shuffled = targets[:]
    random.Random(name).shuffle(shuffled)
    assert {t: cold.contains(t) for t in shuffled} == want
    # the stream is strictly ascending and every streamed point is a member
    streaming = copy(u)
    streamed = list(itertools.islice(streaming.lex_stream(), 40))
    assert streamed == sorted(set(streamed))
    fresh = cold_copy(u)
    assert all(fresh.contains(v) for v in streamed)


def _graded(v):
    return grade(v), v


@pytest.mark.parametrize("name", sorted(CASES))
def test_streams_are_complete(name):
    # a stream that skips a point still ascends through members, so every
    # brute-force member up to the last streamed point must be streamed too;
    # the graded stream in (grade, lex) order, where the generators allow it
    u, _, nmax = CASES[name]
    members = brute_members(u, nmax)
    orders = [(SupportUniverse.lex_stream, lambda v: v)]
    if all(map(is_nonnegative, u.gens)):
        orders.append((SupportUniverse.graded_stream, _graded))
    for stream, key in orders:
        fresh = copy(u)
        got = list(itertools.islice(stream(fresh), 60))
        keys = list(map(key, got))
        assert keys == sorted(set(keys))
        below = {p for p in members if key(p) <= keys[-1]}
        assert len(below) >= 5 and below <= set(got)
    assert len(orders) == 2 or name in ("closure", "negative-trailing",
                                        "offset")


def heap_lex_stream(u):
    """The lex stream as a heap of pushed points: a point reached along
    several generator paths is pushed once per path, and since every push
    follows the pop of a smaller point, its copies pop consecutively and
    are dropped there."""
    heap, prev = sorted(u.points), None
    while heap:
        v = heapq.heappop(heap)
        if v != prev:
            prev = v
            yield v
            for g in u.gens:
                heapq.heappush(heap, vadd(v, g))


def heap_graded_stream(u):
    """The (grade, lex) stream as a heap with a set of the points pushed."""
    heap, seen = sorted((grade(p), p) for p in u.points), set(u.points)
    while heap:
        _, v = heapq.heappop(heap)
        yield v
        for g in u.gens:
            w = vadd(v, g)
            if w not in seen:
                seen.add(w)
                heapq.heappush(heap, (grade(w), w))


def random_universe(rnd):
    """Lex-positive generators with negative trailing entries and
    fractional coordinates, some of them sums or multiples of others, over
    one to three points that may be negative or fractional."""
    arity = rnd.randint(1, 3)
    pool = [-2, -1, Q(-1, 2), 0, 0, Q(1, 3), Q(1, 2), 1, 2, 3]
    gens = []
    while len(gens) < rnd.randint(1, 4):
        g = tuple(rnd.choice(pool) for _ in range(arity))
        if any(g):
            gens.append(g if lex_positive(g) else tuple(-a for a in g))
    if len(gens) > 1 and rnd.random() < 0.6:
        a, b = rnd.sample(gens, 2)
        gens.append(vadd(a, b) if rnd.random() < 0.5 else vadd(a, a))
    points = [tuple(rnd.choice(pool) for _ in range(arity))
              for _ in range(rnd.randint(1, 3))]
    return SupportUniverse(arity, points, gens)


def test_streams_match_the_heap_streams():
    rnd = random.Random(1806)
    graded = 0
    for _ in range(100):
        u = random_universe(rnd)
        ref = copy(u)
        n = 500
        assert (list(itertools.islice(u.lex_stream(), n))
                == list(itertools.islice(heap_lex_stream(ref), n))), u
        if all(map(is_nonnegative, u.gens)):
            graded += 1
            assert (list(itertools.islice(u.graded_stream(), n))
                    == list(itertools.islice(heap_graded_stream(ref), n))), u
    assert graded > 10


def test_universe_algebra_is_a_superset():
    a = gen(2, [(1, 0), (0, 2)], offset=(0, 1))
    b = gen(2, [(0, 3)], offset=(1, -1))
    delta = (Q(2), Q(-1, 3))
    pts_a = brute_members(a, 4)
    pts_b = brute_members(b, 4)
    union, shifted, closure = a.union(b), a.shifted(delta), a.closure()
    assert all(union.contains(p) for p in pts_a | pts_b)
    assert all(shifted.contains(vadd(p, delta)) for p in pts_a)
    assert not shifted.contains(vadd((Q(0), Q(0)), delta))
    sums = {vadd(p, q) for p in pts_a for q in pts_a}
    assert all(closure.contains(p) for p in pts_a | sums)
    # a sum with the empty set is empty, and keeps no generators
    empty = a.sum(SupportUniverse(2, []))
    assert (empty.points, empty.gens) == ((), ())
    assert list(empty.lex_stream()) == list(empty.graded_stream()) == []
    assert empty.box_points((5, 5)) == [] and not empty.contains((0, 1))
    assert closure.union(empty) is closure


def test_universes_outside_natural_support_are_typed():
    # each refusal of a public constructor's universe is a WitnessViolated
    with pytest.raises(WitnessViolated):
        SupportUniverse(1, [(0,)], [(-1,)])  # not lex-positive
    below = gps.GenSeries(1, SupportUniverse(1, [(-1,)]),
                          lambda v: Q(1))
    with pytest.raises(WitnessViolated):
        gps.compose_ps([0, 1], below)  # closure of a negative point
    skew = gps.GenSeries(2, SupportUniverse(2, [(0, 0)], [(1, -1)]),
                         lambda v: Q(1))
    with pytest.raises(WitnessViolated):
        skew.enumerate((3, 3))  # box enumeration
    with pytest.raises(WitnessViolated):
        skew.order()  # graded enumeration


def test_sign_check_raises_on_every_call():
    # the generator signs are checked once per universe; the refusal must
    # still come on each call, not only the first
    skew = SupportUniverse(2, [(0, 0)], [(1, -1)])
    for _ in range(2):
        with pytest.raises(WitnessViolated):
            skew.box_points((3, 3))
        with pytest.raises(WitnessViolated):
            next(skew.graded_stream())
    assert list(itertools.islice(skew.lex_stream(), 3)) == [
        (0, 0), (1, -1), (2, -2)]


def test_explicit_non_chain_in_a_sum():
    # {X0, X1} is no componentwise chain; the sum keeps both as points
    # beside the ray's generator, so enumeration and compose_ps answer
    # instead of raising ValueError
    s = gps.from_terms(2, {(1, 0): 1, (0, 1): 1}) + gps.geometric_in(2, (1, 1))
    bound = (Q(4), Q(4))
    terms = {(Q(1), Q(0)): Q(1), (Q(0), Q(1)): Q(1)}
    terms.update({(Q(n), Q(n)): Q(1) for n in range(5)})
    assert dict(s.enumerate(bound)) == terms
    assert s.order() == 0
    with pytest.raises(OrderNotPositive):
        gps.compose_ps(lambda k: 1, s)
    # sum_nu G^nu for G = s - 1 on the box, by dict convolution
    g = s - gps.from_terms(2, {(0, 0): 1})
    del terms[(Q(0), Q(0))]
    want, power = {}, {(Q(0), Q(0)): Q(1)}
    while power:  # every term of G has grade >= 1, so this stops
        for v, c in power.items():
            want[v] = want.get(v, 0) + c
        nxt = {}
        for v, c in power.items():
            for u, d in terms.items():
                w = vadd(v, u)
                if all(a <= b for a, b in zip(w, bound)):
                    nxt[w] = nxt.get(w, 0) + c * d
        power = nxt
    comp = gps.compose_ps(lambda k: 1, g)
    got = comp.enumerate(bound)
    assert dict(got) == want
    cold = gps.compose_ps(lambda k: 1, g)
    assert {v: cold.coeff(v) for v in reversed(list(want))} == want


def test_lex_stream_one_dimensional_prefix():
    u = gen(1, [(4,), (6,), (9,)], offset=(-1,))
    want = sorted(brute_members(u, 20))[:30]
    assert list(itertools.islice(u.lex_stream(), 30)) == want


@pytest.mark.parametrize("r", [Q(1, 2), Q(-2, 3)])
def test_deep_support_has_no_recursion_limit(r):
    n = 5000
    sc = make_scale([g_x()])
    f = make_laurent(sc, sc.unit(), gps.geometric_in(1, (1,), r))
    terms = f.terms_to_cutoff(sc.monomial([n]))
    assert [v for v, _ in terms] == [(Q(k),) for k in range(n + 1)]
    assert [c for _, c in terms] == [r ** k for k in range(n + 1)]
    support._universes.clear()  # the body's universe has this shape
    assert SupportUniverse(1, [(0,)], [(1,)]).contains((Q(20000),))


def test_shared_memo_under_threads():
    # every thread builds the universe on an emptied intern table and queries
    # it cold: all must get the one interned object and the right answers
    u = gen(2, [(2, -1), (3, 1), (0, 2), (0, 3)], offset=(1, 0))
    targets = box((0, 14), (-12, 12))
    ref = copy(u)
    want = [ref.contains(t) for t in targets]
    assert any(want) and not all(want)
    support._universes.clear()
    nthreads = 2 * (os.cpu_count() or 1) + 2
    results, built = [None] * nthreads, [None] * nthreads

    def work(k):
        order = list(range(len(targets)))
        random.Random(k).shuffle(order)
        shared = built[k] = copy(u)
        got = [None] * len(targets)
        for i in order:
            got[i] = shared.contains(targets[i])
        results[k] = got

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
    assert all(got == want for got in results)
    assert built[0] is not ref and all(b is built[0] for b in built)
    assert built[0] is copy(u)


# -- interning: one universe object per shape ------------------------------------


def test_bodies_over_one_shape_share_one_universe():
    # the product's universe and the composition's closure have one shape;
    # the second body finds the first one's membership answers there
    support._universes.clear()
    a = gps.geometric_in(2, (1, 0), Q(1, 2)) * gps.geometric_in(2, (0, 1), 3)
    pts = [(i, j) for i in range(5) for j in range(5)]
    want = {p: Q(1, 2) ** p[0] * 3 ** p[1] for p in pts}
    assert {p: a.coeff(p) for p in pts} == want
    known = dict(a.universe._known)
    assert len(known) > 1
    b = gps.geometric_in(2, (0, 1), -1) * gps.geometric_in(2, (1, 0), 2)
    comp = gps.compose_ps(lambda k: 1, gps.from_terms(2, {(1, 0): 1,
                                                          (0, 1): 1}))
    assert b.universe is a.universe is comp.universe
    assert b.universe._known.items() >= known.items()
    assert {p: b.coeff(p) for p in pts} == {
        p: 2 ** p[0] * (-1) ** p[1] for p in pts}
    assert {p: comp.coeff(p) for p in pts} == {
        p: math.comb(p[0] + p[1], p[0]) for p in pts}
    assert (list(itertools.islice(a.universe.lex_stream(), 30))
            == list(itertools.islice(heap_lex_stream(b.universe), 30)))


def test_explicit_universes_are_not_shared():
    a = SupportUniverse(2, [(1, 0), (0, 1)])
    assert a is not SupportUniverse(2, [(1, 0), (0, 1)])
    assert gps.from_terms(1, {(1,): 1}).universe is not gps.from_terms(
        1, {(1,): 1}).universe
    g = SupportUniverse(2, [(0, 0)], [(1, 0)])
    assert g is SupportUniverse(2, [(0, 0)], [(1, 0), (0, 0)])  # 0 dropped
    assert g is not SupportUniverse(2, [(0, 1)], [(1, 0)])


def test_a_memo_no_series_holds_is_released(monkeypatch):
    # a deep query fills one shape's memo past the bound; once no series
    # holds that universe, the next construction of any shape frees it,
    # while a table within the bound keeps its shapes and their answers
    monkeypatch.setattr(support, "_KNOWN_MAX", 1000)
    support._universes.clear()
    f = gps.geometric_in(1, (1,), Q(1, 2))
    assert f.universe.contains((Q(5000),)) and f.coeff((3,)) == Q(1, 8)
    deep = weakref.ref(f.universe)
    del f
    assert deep() is not None  # the table holds it
    SupportUniverse(2, [(0, 0)], [(1, 0)])
    assert deep() is None
    kept = SupportUniverse(1, [(0,)], [(1,)])
    assert kept.contains((Q(900),)) and not kept.contains((Q(-1),))
    assert SupportUniverse(2, [(0, 0)], [(0, 1)]).contains((0, 7))
    assert SupportUniverse(1, [(0,)], [(1,)]) is kept
    assert kept.contains((900,)) and len(kept._known) == 902


def test_answers_stay_right_when_the_table_fills(monkeypatch):
    # a bound of 3 clears the table again and again; every universe, in the
    # table or evicted from it, and every rebuilt one answers right
    monkeypatch.setattr(support, "_UNIVERSES_MAX", 3)
    support._universes.clear()
    built = []
    for name in sorted(CASES) * 2:
        u, targets, nmax = CASES[name]
        members = brute_members(u, nmax)
        targets = [vadd(t, u.points[0]) for t in targets]
        v = copy(u)
        assert len(support._universes) <= 3
        built.append(v)
        assert [v.contains(t) for t in targets] == [t in members
                                                    for t in targets]
        assert list(itertools.islice(v.lex_stream(), 40)) == list(
            itertools.islice(heap_lex_stream(u), 40))
    assert len({id(v) for v in built}) > len(CASES)
    for v, name in zip(built, sorted(CASES) * 2):
        u, targets, nmax = CASES[name]
        members = brute_members(u, nmax)
        assert all(v.contains(vadd(t, u.points[0])) == (vadd(t, u.points[0])
                                                        in members)
                   for t in targets)


# -- one point stream per shape ------------------------------------------------


def test_bodies_over_one_shape_read_one_point_list():
    # the first body's expansion enumerates the shape; a second body, and a
    # shifted one, over the same shape read its stored points and extend
    # them from the same merge, so none starts a merge of its own
    support._universes.clear()
    sc = make_scale([g_x()])
    a, b = gps.geometric_in(1, (1,), Q(1, 2)), gps.geometric_in(1, (1,), 3)
    assert a.universe is b.universe
    got = make_laurent(sc, sc.unit(), a).terms_to_cutoff(sc.monomial([40]))
    assert got == [((k,), Q(1, 2) ** k) for k in range(41)]
    with mock.patch.object(support, "_merge", wraps=support._merge) as merge:
        got = make_laurent(sc, sc.unit(), b).terms_to_cutoff(sc.monomial([60]))
        shifted = make_laurent(sc, sc.monomial([2]), b).terms_to_cutoff(
            sc.monomial([30]))
    assert merge.call_count == 0
    assert got == [((k,), Q(3) ** k) for k in range(61)]
    assert shifted == [((k + 2,), Q(3) ** k) for k in range(29)]
    # one list holds the points read, and a cold read pulls an eighth ahead
    pts = a.universe._pts
    assert pts[:62] == [(k,) for k in range(62)] and len(pts) <= 62 * 9 // 8


class Alarm(BaseException):
    """An interruption from outside the library, as a timeout's signal."""


def test_an_interrupted_point_stream_restarts_past_its_stored_points():
    # the merge raises once after 37 points; the points it gave stay stored,
    # and the next read restarts the merge past them
    u = gen(2, [(1, -1), (0, 2), (2, 3)], offset=(0, -2))
    support._universes.clear()
    shared, real, starts = copy(u), support._merge, []

    def flaky(points, gens):
        starts.append(len(starts))
        for k, v in enumerate(real(points, gens)):
            if k == 37 and len(starts) == 1:
                raise Alarm
            yield v

    with mock.patch.object(support, "_merge", flaky):
        with pytest.raises(Alarm):
            list(itertools.islice(shared.lex_stream(), 200))
        assert len(shared._pts) == 37
        got = list(itertools.islice(shared.lex_stream(), 200))
    assert starts == [0, 1]
    assert got == list(itertools.islice(heap_lex_stream(u), 200))


def test_shared_point_stream_under_threads():
    # every thread builds the universe on an emptied intern table and reads
    # its stream cold, to its own length: each must get the reference prefix
    u = gen(2, [(2, -1), (3, 1), (0, 2), (0, 3)], offset=(1, 0))
    want = list(itertools.islice(heap_lex_stream(u), 400))
    support._universes.clear()
    nthreads = 2 * (os.cpu_count() or 1) + 2
    results, built = [None] * nthreads, [None] * nthreads

    def work(k):
        shared = built[k] = copy(u)
        results[k] = list(itertools.islice(shared.lex_stream(), 400 - 13 * k))

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
    assert all(got == want[:400 - 13 * k] for k, got in enumerate(results))
    assert all(b is built[0] for b in built) and built[0]._pts[:400] == want


def test_a_point_list_no_series_holds_is_released(monkeypatch):
    # a deep expansion stores over 1,500 points of one shape, and its
    # membership memo holds one entry: the stored points alone pass the
    # bound, so once no series holds the universe the next construction
    # frees it
    monkeypatch.setattr(support, "_KNOWN_MAX", 1000)
    support._universes.clear()
    sc = make_scale([g_x()])
    f = gps.geometric_in(1, (1,), Q(1, 2))
    got = make_laurent(sc, sc.unit(), f).terms_to_cutoff(sc.monomial([1500]))
    assert len(got) == 1501 and len(f.universe._pts) > 1501
    assert len(f.universe._known) == 1
    deep = weakref.ref(f.universe)
    del f
    assert deep() is not None  # the table holds it
    SupportUniverse(2, [(0, 0)], [(1, 0)])
    assert deep() is None


# -- exponent coordinates: int when integral, Fraction otherwise ---------------


def exact_form(v):
    return all(type(a) is int or (type(a) is Q and a.denominator != 1)
               for a in v)


H, TWO = Q(1, 2), Q(2)  # a fractional coordinate, an integral one as a Fraction


def test_constructors_store_integral_coordinates_as_ints():
    mixed = [(TWO, H), (Q(3), Q(0)), (H, Q(1))]
    vecs = [vzero(3), (grade((2, 1)),)]
    u = SupportUniverse(2, [(Q(-1), TWO)], mixed)
    vecs += [*u.points, *u.gens, *SupportUniverse(2, mixed).points]
    g = gps.from_terms(2, {p: 1 for p in mixed})
    vecs += g.universe.points
    vecs += gps.geometric_in(2, (TWO, H)).universe.gens
    body = gps.geometric_in(2, (Q(1), Q(0))) * gps.geometric_in(2, (0, TWO))
    vecs += [v for v, _ in body.enumerate((Q(3), Q(4)))]
    body.enumerate([Q(2), H])  # memo entries under a fractional bound
    vecs += body._memo
    sx = make_scale([g_x(), g_logk(1)])
    m = sx.monomial([TWO, H])
    vecs += [v for v, _ in from_terms(sx, {m: 1, (Q(0), TWO): 3}).iter_terms()]
    vecs += [sx.unit().vector, m.vector, (m ** 2).vector, (m ** H).vector,
             (m ** Q(4)).vector, project_class(sx, 0, m).vector]
    assert (m ** 2).vector == (4, 1) and (m ** H).vector == (1, Q(1, 4))
    # the streams of an integral series never leave the ints
    f = make_laurent(sx, sx.monomial([Q(1), Q(0)]), body)
    vecs += [v for v, _ in itertools.islice(f.iter_terms(), 40)]
    fin = from_terms(sx, {(Q(0), Q(0)): 1, (Q(0), Q(1)): H, (Q(1), Q(0)): 3})
    vecs += [v for v, _ in itertools.islice(invert(fin).iter_terms(), 40)]
    assert len(vecs) > 100
    assert [v for v in vecs if not exact_form(v)] == []
    assert type(gps.from_terms(1, {(TWO,): 1}).order()) is int


def test_printed_exponents_are_unchanged():
    sx = make_scale([g_x(), g_logk(1)])
    assert str(sx.monomial([TWO, H])) == "m[2,1/2]"
    assert str(sx.monomial([Q(-3), 0]) ** 2) == "m[-6,0]"
    assert str(sx.unit()) == "m[0,0]"
    s1 = make_scale([g_x()])
    for shift, want in [(Q(0), ["0", "1", "2", "3"]),
                        (H, ["1/2", "3/2", "5/2", "7/2"])]:
        f = make_laurent(s1, s1.monomial([shift]),
                         gps.geometric_in(1, (Q(1),), H))
        terms = f.terms_to_cutoff(s1.monomial([shift + 3]))
        assert [str(a) for v, _ in terms for a in v] == want
        assert [str(c) for _, c in terms] == ["1", "1/2", "1/4", "1/8"]


def test_coefficient_memo_is_shared_across_coordinate_types():
    asked = []

    def oracle(v):
        asked.append(v)
        return Q(5)

    g = gps.GenSeries(2, SupportUniverse(2, [(0, 0)], [(1, 0), (0, 1)]),
                      oracle)
    assert g.coeff((TWO, 0)) == g.coeff((2, 0)) == g.coeff([2, Q(0)]) == 5
    assert asked == [(2, 0)] and exact_form(asked[0])
    assert list(g._memo) == [(2, 0)] and exact_form(next(iter(g._memo)))


_COORD = st.tuples(st.sampled_from([Q(-1), Q(0), H, Q(1), Q(3, 2), TWO, Q(3)]),
                   st.booleans()).map(
    lambda t: int(t[0]) if t[1] and t[0].denominator == 1 else t[0])


@st.composite
def mixed_universes(draw):
    arity = draw(st.integers(1, 2))
    vecs = st.tuples(*[_COORD] * arity)
    gens = draw(st.lists(vecs.filter(lex_positive), min_size=1, max_size=3))
    return arity, gens, draw(vecs)


@settings(max_examples=60, deadline=None, database=None)
@given(mixed_universes())
def test_mixed_coordinates_match_an_all_fraction_copy(case):
    # the same universe with every coordinate kept a Fraction: same stream
    # order and same membership, whichever form a query point takes
    arity, gens, offset = case

    def pair():
        # the all-Fraction copy has its int twin's key (Fraction(2) == 2),
        # so each is built on an emptied table, with a cold memo
        support._universes.clear()
        with mock.patch.object(support, "coord", Q):
            ref = SupportUniverse(arity, [offset], gens)
        support._universes.clear()
        return SupportUniverse(arity, [offset], gens), ref

    u, ref = pair()
    assert all(type(a) is Q for v in (*ref.points, *ref.gens) for a in v)
    want = list(itertools.islice(ref.lex_stream(), 30))
    assert list(itertools.islice(u.lex_stream(), 30)) == want
    assert want == sorted(set(want))
    steps = [tuple(Q(d) if i == j else Q(0) for i in range(arity))
             for j in range(arity) for d in (-1, H, 1)]
    targets = sorted({vadd(p, s) for p in want[:12] for s in steps} | set(want))
    as_fraction = [tuple(map(Q, t)) for t in targets]
    as_int = [support.vec(t) for t in targets]
    u, ref = pair()
    members = [ref.contains(t) for t in as_int]
    assert [u.contains(t) for t in as_fraction] == members
    assert all(members[targets.index(p)] for p in want)


@st.composite
def addend_pairs(draw):
    k = draw(st.integers(1, 6))
    coords = st.one_of(st.integers(-10**20, 10**20),
                       st.fractions(max_denominator=6))
    vecs = st.lists(coords, min_size=k, max_size=k).map(tuple)
    return draw(vecs), draw(vecs)


@settings(max_examples=150, deadline=None, database=None)
@given(addend_pairs())
def test_vadder_adds_as_map_add(pair):
    # the same value and the same type of each coordinate, from one cached
    # function per arity
    u, v = pair
    add = support.vadder(len(u))
    want = tuple(map(operator.add, u, v))
    got = add(u, v)
    assert got == want and list(map(type, got)) == list(map(type, want))
    assert support.vadder(len(u)) is add
    # an integral Fraction sum stays a Fraction, as map(add) keeps it
    got = support.vadder(2)((Q(1, 2), -3), (Q(1, 2), Q(5, 3)))
    assert got == (1, Q(-4, 3)) and type(got[0]) is Q
    assert support.vadder(0)((), ()) == ()


@st.composite
def int_pairs(draw):
    # negative, zero and big numerators over coprime and non-coprime
    # denominators: a common factor k > 1 multiplies both
    big = st.integers(10**30, 10**40)
    n = draw(st.one_of(st.just(0), st.integers(-10**6, 10**6), big,
                       big.map(operator.neg)))
    d = draw(st.one_of(st.integers(1, 10**6), big))
    k = draw(st.one_of(st.just(1), st.integers(2, 10**6), big))
    return n * k, d * k


@settings(max_examples=300, deadline=None, database=None)
@given(int_pairs(), st.fractions(max_denominator=50))
# denominators that reduce to 1
@example((-6, 3), Q(1, 2))
@example((10**40, 10**10), Q(-3))
def test_frac_is_the_reduced_fraction(pair, other):
    # frac sets Fraction's slots directly, so whatever reads a Fraction
    # must see the one that Fraction(n, d) builds
    n, d = pair
    got, want = support.frac(n, d), Q(n, d)
    assert type(got) is Q
    assert (got.numerator, got.denominator) == (want.numerator,
                                                want.denominator)
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want) and repr(got) == repr(want)
    if want.denominator == 1:
        assert got == want.numerator and hash(got) == hash(want.numerator)
    for twin in (shallow_copy(got), deepcopy(got),
                 pickle.loads(pickle.dumps(got))):
        assert type(twin) is Q and twin == want
        assert (twin.numerator, twin.denominator) == (want.numerator,
                                                      want.denominator)
    for a, b in ((got + other, want + other), (other * got, other * want)):
        assert type(a) is Q and a == b and a.denominator == b.denominator


def test_rational_reads_a_real_exactly():
    q = Q(1, 3)
    assert support.rational(q) is q  # a Fraction as it is
    for x, want in ((True, 1), (10**400, 10**400), (Decimal("0.1"), Q(1, 10)),
                    (0.1, Q(3602879701896397, 36028797018963968))):
        got = support.rational(x)
        assert type(got) is Q and got == want
    assert support.vec([Q(4, 2), 0.5, 3]) == (2, Q(1, 2), 3)
    assert list(map(type, support.vec([Q(4, 2), 0.5]))) == [int, Q]


@pytest.mark.parametrize("bad", ["3", "1/3", b"3", math.nan, math.inf,
                                 -math.inf, Decimal("nan"), None, object(), 1j])
def test_readers_refuse_what_is_no_finite_real(bad):
    # a str is refused, not parsed by Fraction, as nan and inf are; the
    # same rule holds for a coordinate of a vector
    with pytest.raises(NotInFragment):
        support.rational(bad)
    with pytest.raises(NotInFragment):
        support.vec([0, bad])
    with pytest.raises(NotInFragment):
        support.vec(bad)
