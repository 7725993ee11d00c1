import math
import random
from fractions import Fraction as Q

import pytest

from transgerm import germ as G
from transgerm.errors import NotAnAsymptoticScale, NotDecreasing, ScaleMismatch
from transgerm.germ import g_add, g_exp, g_neg, g_pow, g_scale
from transgerm.scale import (
    Monomial,
    make_scale,
    monomial_cmp,
    monomial_value,
    project_class,
)


def value(m: Monomial, x: float) -> float:
    """m at x, from its generators' values at x."""
    gens = m.scale.generators
    return monomial_value(m.scale, m.vector, lambda i: G.eval_germ(gens[i], x))


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


_X, _LOG = G.g_x(), G.g_logk(1)
_NONSIMPLE = g_add(_X, g_exp(g_neg(g_pow(_X, 2))))  # level 0, eh 1
_X1 = g_add(_X, G.ONE)
_SHARED = "generators {} and {} share an archimedean class"

# inputs, then the refusal: type, message, offending_pair and the
# certificate as (level, eh, simple, class_rep) per generator
_REFUSALS = {
    "empty": ([], NotAnAsymptoticScale, "empty generator tuple", None, None),
    "non-simple": ([_NONSIMPLE], NotAnAsymptoticScale,
                   "x + exp(-x^2) is not simple: level 0 != eh 1", None,
                   [(0, 1, False, "x")]),
    "non-simple in a shared class": (
        [_X, _NONSIMPLE], NotAnAsymptoticScale,
        "x + exp(-x^2) is not simple: level 0 != eh 1; " + _SHARED.format(0, 1),
        (0, 1), [(0, 0, True, "x"), (0, 1, False, "x")]),
    "one class": ([_X1, _X], NotAnAsymptoticScale, _SHARED.format(0, 1),
                  (0, 1), [(0, 0, True, "x"), (0, 0, True, "x")]),
    "three in one class": (
        [_X1, _X, g_add(_X, _LOG), _LOG], NotAnAsymptoticScale,
        "; ".join(_SHARED.format(i, j) for i, j in ((0, 1), (0, 2), (1, 2))),
        (0, 1), [(0, 0, True, "x")] * 3 + [(-1, -1, True, "log(x)")]),
    "inverted": ([_X, g_add(g_exp(_X), G.ONE)], NotDecreasing,
                 "generator 0 precedes generator 1", None, None),
    "inverted later": ([_X1, _LOG, _X], NotDecreasing,
                       "generator 1 precedes generator 2", None, None),
    "zero alone": ([G.ZERO], NotAnAsymptoticScale,
                   "0 is not infinitely increasing", None,
                   [(None, 0, False, "?")]),
    "zero after": ([_X, G.ZERO], NotDecreasing,
                   "zero germ in generator tuple", None, None),
    "not increasing": ([_X, g_pow(_X, -1)], NotAnAsymptoticScale,
                       "x^(-1) is not infinitely increasing", None,
                       [(0, 0, True, "x"), (None, 0, False, "?")]),
    "negative": ([g_neg(_X)], NotAnAsymptoticScale,
                 "-x is not infinitely increasing", None,
                 [(None, 0, False, "?")]),
}


@pytest.mark.parametrize("case", _REFUSALS)
def test_make_scale_refusals(case):
    gens, typ, msg, pair, cert = _REFUSALS[case]
    with pytest.raises(typ) as exc:
        make_scale(gens)
    err = exc.value
    assert type(err) is typ
    assert err.code == typ.code
    assert str(err) == msg
    assert err.info.get("offending_pair") == pair
    got = err.info.get("certificate")
    if cert is None:
        assert got is None
    else:
        assert [c.germ for c in got] == gens
        assert [(c.level, c.eh, c.simple, c.class_rep) for c in got] == cert


@pytest.mark.parametrize("gens, most", [(("x", "log"), 5), (("x",), 1)],
                         ids=["x, log x", "x"])
def test_make_scale_comparison_count(monkeypatch, gens, most):
    # after a warm-up, the facts "m > 1" sit on each monomial, so what is
    # left is the order of the generators' leading monomials
    germs = [{"x": _X, "log": _LOG}[g] for g in gens]
    want = make_scale(germs)
    calls = []
    real = G.mono_cmp

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(G, "mono_cmp", counted)
    assert make_scale(germs) == want
    assert len(calls) <= most


@pytest.mark.parametrize("gens", [
    [_X1, _X],
    [_X1, _X, _LOG],
    [g_add(g_pow(_X, 2), G.ONE), _X1, g_scale(_X, 3)],
], ids=["x+1, x", "x+1, x, log x", "x^2+1, x+1, 3x"])
def test_refusing_make_scale_comparison_count(monkeypatch, gens):
    # a refusal is raised from the one admissibility pass: after a warm-up,
    # n generators cost at most the n - 1 adjacent comparisons
    with pytest.raises(NotAnAsymptoticScale) as want:
        make_scale(gens)
    calls = []
    real = G.mono_cmp

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(G, "mono_cmp", counted)
    with pytest.raises(NotAnAsymptoticScale) as got:
        make_scale(gens)
    assert str(got.value) == str(want.value)
    assert got.value.info == want.value.info
    assert len(calls) <= len(gens) - 1


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
    r50 = value(a, 50.0) / value(b, 50.0)
    r100 = value(a, 100.0) / value(b, 100.0)
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
                denom = value(big, xv)
                if denom == 0 or not math.isfinite(denom):
                    break
                vals.append(value(small, xv) / denom)
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
