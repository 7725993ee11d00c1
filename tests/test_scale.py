import math
import random
from fractions import Fraction as Q

import pytest

from transgerm import germ as G
from transgerm.errors import NotAnAsymptoticScale, ScaleMismatch
from transgerm.germ import g_add, g_exp, g_neg, g_pow, g_scale
from transgerm.scale import (
    Monomial,
    make_scale,
    monomial_cmp,
    project_class,
)


@pytest.fixture
def sx(X):
    return make_scale([X])


@pytest.fixture
def sxl(X, LOG):
    return make_scale([X, LOG])


def test_make_scale_singleton(sx):
    assert sx.arity == 1
    assert len(sx.classes) == 1


def test_make_scale_log_tower(X, LOG, LOG2):
    s = make_scale([X, LOG, LOG2])
    assert s.arity == 3
    assert len(s.classes) == 3


def test_make_scale_rejects_example(X):
    bad = g_add(X, g_exp(g_neg(g_pow(X, 2))))
    with pytest.raises(NotAnAsymptoticScale) as exc:
        make_scale([X, bad])
    assert exc.value.info.get("offending_pair") == (0, 1)


def test_make_scale_collapses_dependent(X):
    s = make_scale([g_scale(X, 2), X])
    assert s.arity == 1


def test_make_scale_rewrites_raw_tuple(X, LOG, LOG2):
    s = make_scale([X, g_add(X, g_neg(LOG)), g_add(LOG, LOG2)])
    assert s.arity == 3
    reps = [G.leading_mono(g) for g in s.generators]
    assert reps == [G.leading_mono(X), G.leading_mono(LOG), G.leading_mono(LOG2)]


def test_monomial_cmp_small_below_unit(sx):
    m = sx.monomial([1])   # exp(-x)
    one = sx.unit()
    assert monomial_cmp(m, one) == -1
    assert m.is_small()
    assert not one.is_small()


def test_monomial_cmp_powers(X, LOG):
    s = make_scale([LOG])
    m2 = s.monomial([2])   # x^-2
    m1 = s.monomial([1])   # x^-1
    assert monomial_cmp(m2, m1) == -1


def test_monomial_cmp_lex(sxl):
    a = sxl.monomial([1, -5])            # exp(-x) * x^5
    b = sxl.monomial([Q(1, 2), 0])       # exp(-x/2)
    assert monomial_cmp(a, b) == -1
    # numeric oracle: the ratio goes to zero
    r50 = a.eval(50.0) / b.eval(50.0)
    r100 = a.eval(100.0) / b.eval(100.0)
    assert r100 < r50
    assert r100 < 1e-10


def test_monomial_cmp_respects_multiplication(sxl):
    rng = random.Random(3)
    monos = [sxl.monomial([rng.randint(-3, 3), rng.randint(-3, 3)])
             for _ in range(20)]
    for m in monos[:10]:
        for n in monos[:10]:
            c = monomial_cmp(m, n)
            for p in monos[10:]:
                assert monomial_cmp(m * p, n * p) == c


def test_monomial_numeric_consistency(sxl, sx):
    rng = random.Random(11)
    for scale in (sxl, sx):
        k = scale.arity
        for _ in range(25):
            m = scale.monomial([Q(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(k)])
            n = scale.monomial([Q(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(k)])
            c = monomial_cmp(m, n)
            if c == 0:
                continue
            small, big = (m, n) if c < 0 else (n, m)
            vals = []
            for xv in (1e2, 1e3):
                denom = big.eval(xv)
                if denom == 0 or not math.isfinite(denom):
                    break
                vals.append(small.eval(xv) / denom)
            if len(vals) == 2 and all(v > 0 and math.isfinite(v) for v in vals):
                assert vals[1] < vals[0]


def test_partition_two_classes(sxl):
    assert list(sxl.classes) == [(0, 1), (1, 2)]


def test_partition_groups_comparable_powers(X, LOG):
    s = make_scale([X, g_pow(X, Q(1, 2)), LOG])
    assert list(s.classes) == [(0, 2), (2, 3)]


def test_partition_singleton(X):
    s = make_scale([g_scale(X, 2), X])
    assert list(s.classes) == [(0, 1)]


def test_project_class(sxl):
    m = sxl.monomial([1, 1])  # exp(-x - log x)
    assert project_class(sxl, 0, m).vector == (Q(1), Q(0))
    assert project_class(sxl, 1, m).vector == (Q(0), Q(1))
    u = sxl.unit()
    assert project_class(sxl, 0, u) == u


def test_project_class_multiplicative(sxl):
    rng = random.Random(5)
    for _ in range(20):
        m = sxl.monomial([rng.randint(-3, 3), rng.randint(-3, 3)])
        n = sxl.monomial([rng.randint(-3, 3), rng.randint(-3, 3)])
        for j in range(2):
            lhs = project_class(sxl, j, m * n)
            rhs = project_class(sxl, j, m) * project_class(sxl, j, n)
            assert lhs == rhs
            assert project_class(sxl, j, lhs) == lhs


def test_monomial_to_germ(sxl):
    m = sxl.monomial([0, 1])  # exp(-log x) = x^-1
    assert m.to_germ() == g_pow(G.g_x(), -1)


def test_scale_mismatch(sx, sxl):
    with pytest.raises(ScaleMismatch):
        monomial_cmp(sx.monomial([1]), sxl.monomial([1, 0]))
