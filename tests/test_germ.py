import copy
import functools
import gc
import math
import os
import pickle
import random
import subprocess
import sys
import threading
import weakref
from fractions import Fraction as Q

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from transgerm import germ
from transgerm.errors import (
    DepthLimitExceeded,
    NonHardyExpression,
    NotDecreasing,
    NotInFragment,
    NotIncreasing,
    Unclassifiable,
)
from transgerm.germ import (
    GermTerm,
    Transmono,
    compare,
    compose_exact,
    derivative,
    eh,
    eval_germ,
    express_in_basis,
    extract_basis,
    g_add,
    g_const,
    g_exp,
    g_log,
    g_logk,
    g_mul,
    g_neg,
    g_pow,
    g_scale,
    g_x,
    inverse,
    is_admissible,
    level,
    mono_cmp,
    same_archimedean_class,
)


def test_exp_log_identity(X):
    assert g_exp(g_log(X)) == X


def test_cancellation(X):
    e = g_exp(X)
    assert g_add(g_add(X, g_neg(X)), e) == e


def test_log_then_add_back_numeric(X, LOG):
    # (x - log x) + log x == x, cross-checked numerically at 1e3 and 1e4
    lhs = g_add(g_add(X, g_neg(LOG)), LOG)
    assert lhs == X
    for xv in (1e3, 1e4):
        direct = (xv - math.log(xv)) + math.log(xv)
        assert abs(eval_germ(lhs, xv) - direct) < 1e-9


def test_exp_folds_log_powers(X, LOG2):
    # exp(2*log2(x)) = log(x)^2
    got = g_exp(g_scale(g_logk(2), 2))
    assert got == g_pow(g_logk(1), 2)
    # exp(x - log x) = x^-1 * exp(x)
    got = g_exp(g_add(X, g_neg(g_logk(1))))
    assert got == g_mul(g_pow(X, -1), g_exp(X))


def test_exp_rejects_bounded_parts(X):
    with pytest.raises(NotInFragment):
        g_exp(g_add(X, g_const(1)))
    with pytest.raises(NotInFragment):
        g_exp(g_pow(X, -1))


def test_log_errors(X):
    with pytest.raises(NonHardyExpression):
        g_log(g_neg(X))
    with pytest.raises(NotInFragment):
        g_log(g_scale(X, 2))
    with pytest.raises(NotInFragment):
        g_log(g_add(X, g_neg(g_logk(1))))


def test_depth_limit(X):
    f = X
    with pytest.raises(DepthLimitExceeded):
        for _ in range(6):
            f = g_exp(f)


def test_compare_same_class(X, LOG):
    # Example: x and x - log x share the archimedean class
    r = compare(X, g_add(X, g_neg(LOG)))
    assert r.relation == "~"
    assert r.same_archimedean_class
    assert r.comparable


def test_compare_exp_vs_power(X):
    r = compare(g_exp(g_neg(X)), g_pow(X, -1))
    assert r.relation == "<<"
    assert not r.comparable
    # numeric oracle: the ratio decreases below 1e-10
    ratios = [math.exp(-xv) / (1 / xv) for xv in (50.0, 100.0)]
    assert ratios[1] < ratios[0]
    assert ratios[1] < 1e-10


def test_compare_reflexive(X):
    r = compare(X, X)
    assert r.relation == "~"
    assert r.same_archimedean_class


def test_compare_power_classes(X):
    # x and sqrt(x): different archimedean classes but comparable
    r = compare(X, g_pow(X, Q(1, 2)))
    assert r.relation == ">>"
    assert not r.same_archimedean_class
    assert r.comparable


def test_dominance_strict_weak_order(germ_pool):
    rng = random.Random(7)
    nonzero = [f for f in germ_pool if not f.is_zero()]
    for _ in range(200):
        f, g, h = (rng.choice(nonzero) for _ in range(3))
        rfg, rgh, rfh = compare(f, g), compare(g, h), compare(f, h)
        # trichotomy is structural; check transitivity
        if rfg.relation == "<<" and rgh.relation == "<<":
            assert rfh.relation == "<<"
        if rfg.relation == "~" and rgh.relation == "~":
            assert rfh.relation == "~"
        if rfg.relation == ">>" and rgh.relation == ">>":
            assert rfh.relation == ">>"


def test_symbolic_numeric_agreement(germ_pool):
    # if f << g then eval(f)/eval(g) decreases toward 0 on 1e2,1e3,1e4
    pts = (1e2, 1e3, 1e4)
    for f in germ_pool:
        for g in germ_pool:
            if f.is_zero() or g.is_zero():
                continue
            if compare(f, g).relation != "<<":
                continue
            vals = []
            try:
                for xv in pts:
                    fg = eval_germ(f, xv) / eval_germ(g, xv)
                    vals.append(abs(fg))
            except (OverflowError, ZeroDivisionError):
                continue
            if any(v == 0 or not math.isfinite(v) for v in vals):
                continue
            assert vals[2] < vals[0]


def test_level_eh_paper_values(X, LOG2):
    for f, want in ((g_add(X, g_exp(g_neg(X))), (0, 1)),
                    (LOG2, (-2, -2)),
                    (X, (0, 0))):
        assert (level(f), eh(f)) == want


def test_level_eh_more(X, LOG):
    for f, want in ((g_exp(X), (1, 1)),
                    (g_exp(g_pow(X, 2)), (1, 1)),
                    (g_mul(X, LOG), (0, 0)),
                    (g_pow(X, Q(1, 2)), (0, 0)),
                    # x^log x = exp(log^2) has level 0 and height 0
                    (g_exp(g_pow(LOG, 2)), (0, 0))):
        assert (level(f), eh(f)) == want


def test_level_le_eh(germ_pool):
    for f in germ_pool:
        if not germ.is_infinitely_increasing(f):
            continue
        lv, h = level(f), eh(f)
        assert lv <= h


def test_level_unclassifiable(X):
    with pytest.raises(Unclassifiable):
        level(g_exp(g_neg(X)))
    with pytest.raises(Unclassifiable):
        level(g_const(2))


def test_admissible_log_tower(X, LOG, LOG2):
    res = is_admissible([X, LOG, LOG2])
    assert res.ok
    assert [c.level for c in res.certificate] == [0, -1, -2]
    assert all(c.simple for c in res.certificate)


def test_admissible_rejects_nonsimple(X):
    bad = g_add(X, g_exp(g_neg(g_pow(X, 2))))
    res = is_admissible([X, bad])
    assert not res.ok
    assert any("not simple" in r for r in res.reasons)
    assert any("archimedean" in r for r in res.reasons)


def test_admissible_singleton(X):
    assert is_admissible([X]).ok


def test_admissible_not_decreasing(X, LOG):
    with pytest.raises(NotDecreasing):
        is_admissible([LOG, X])


def test_extract_basis_separates_classes(X, LOG, LOG2):
    fs = [X, g_add(X, g_neg(LOG)), g_add(LOG, LOG2)]
    basis = extract_basis(fs)
    assert len(basis) == 3
    reps = [germ.leading_mono(b) for b in basis]
    expect = [germ.leading_mono(X), germ.leading_mono(LOG), germ.leading_mono(LOG2)]
    assert reps == expect
    # span check: every input re-expresses exactly
    for f in fs:
        coords = express_in_basis(f, basis)
        assert coords is not None
        back = germ.ZERO
        for q, b in zip(coords, basis):
            back = g_add(back, g_scale(b, q))
        assert back == f


def test_extract_basis_trivial(X):
    assert extract_basis([X]) == [X]


def test_extract_basis_rank(X):
    basis = extract_basis([g_scale(X, 2), X])
    assert len(basis) == 1
    assert same_archimedean_class(basis[0], X)


def test_eval_basics(X, LOG2):
    assert eval_germ(X, 7.0) == 7.0
    assert abs(eval_germ(LOG2, math.exp(math.e)) - 1.0) < 1e-12


def test_eval_high_precision_crosscheck(X, LOG):
    f = g_add(X, g_neg(LOG))
    want = mpmath.mpf(100) - mpmath.log(100)
    assert abs(eval_germ(f, 100.0) - float(want)) < 1e-9


def test_compose_exact(X, LOG):
    assert compose_exact(g_exp(X), LOG) == X
    assert compose_exact(g_pow(X, 2), LOG) == g_pow(LOG, 2)
    assert compose_exact(LOG, g_exp(X)) == X


def test_compose_level_homomorphism(X, LOG, germ_pool):
    pairs = [(g_exp(X), LOG), (g_pow(X, 2), LOG), (LOG, g_exp(X)),
             (g_logk(2), g_exp(X))]
    for f, g in pairs:
        got = compose_exact(f, g)
        assert isinstance(got, germ.GermTerm)
        assert level(got) == level(f) + level(g)


def test_compose_and_inverse_refuse_outside_fragment(X, LOG):
    # log(2x) = log x + log 2 and the inverse of x + log x have no normal form
    with pytest.raises(NotInFragment):
        compose_exact(LOG, g_scale(X, 2))
    with pytest.raises(NotInFragment):
        inverse(g_add(X, LOG))
    # a refused substitution is not memoized and is refused again; x o 2x,
    # which answers on the way to log o 2x, is kept, as are the exp iterates
    # on the way to exp4 o exp, which passes the exp depth bound
    exp4 = g_exp(g_exp(g_exp(g_exp(X))))
    for f, g, err in ((g_add(X, LOG), g_scale(X, 2), NotInFragment),
                      (exp4, g_exp(X), DepthLimitExceeded)):
        germ._subst_memo.clear()
        for _ in range(2):
            with pytest.raises(err):
                compose_exact(f, g)
            assert germ._subst_memo
            assert (f.terms[-1][1], g) not in germ._subst_memo


def test_compose_and_inverse_refuse_non_increasing(X):
    with pytest.raises(NotIncreasing):
        compose_exact(g_pow(X, 2), g_pow(X, -1))
    with pytest.raises(NotIncreasing):
        inverse(g_pow(X, -1))


def test_inverse_exact_cases(X):
    assert inverse(g_logk(1)) == g_exp(g_x())
    assert inverse(g_pow(X, 2)) == g_pow(X, Q(1, 2))
    assert inverse(g_scale(X, 2)) == g_scale(X, Q(1, 2))


def test_inverse_deep_log_iterate_stays_typed():
    # the inverse of log5 is exp iterated five times, past the depth bound
    with pytest.raises(DepthLimitExceeded):
        inverse(g_logk(germ.DEFAULT_EXP_DEPTH + 1))


def test_derivative_rules(X, LOG, LOG2):
    assert derivative(X) == germ.ONE
    assert derivative(g_mul(X, LOG)) == g_add(LOG, germ.ONE)
    # (log2)' = 1/(x log x)
    want = g_mul(g_pow(X, -1), g_pow(LOG, -1))
    assert derivative(LOG2) == want
    # (exp(-x^2))' = -2x exp(-x^2)
    e = g_exp(g_neg(g_pow(X, 2)))
    assert derivative(e) == g_mul(g_scale(X, -2), e)


def test_derivative_numeric(germ_pool):
    h = 1e-5
    for f in germ_pool[:8]:
        df = derivative(f)
        x0 = 37.0
        num = (eval_germ(f, x0 + h) - eval_germ(f, x0 - h)) / (2 * h)
        sym = eval_germ(df, x0)
        if abs(sym) > 1e-8:
            assert abs(num - sym) / abs(sym) < 1e-4


# derivative against sympy.diff: random germs of exp-depth <= 2, converted to
# sympy from their structure and evaluated with mpmath at 30 digits
_SX = sympy.Symbol("x", positive=True)


def _sym(f):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * _sym_mono(m)
                       for c, m in f.terms))


def _sym_mono(m):
    out = sympy.Integer(1)
    for k, r in m.powers:
        base = _SX
        for _ in range(k):
            base = sympy.log(base)
        out *= base ** sympy.Rational(r.numerator, r.denominator)
    if m.expart is not None:
        out *= sympy.exp(_sym(m.expart))
    return out


def _random_germ(rng, depth, large):
    """1-3 terms c x^a log(x)^b [exp(+-h)], h drawn one level down; in a
    `large` level (an exp argument) every term tends to infinity."""
    X, LOG = g_x(), g_logk(1)
    acc = germ.ZERO
    for _ in range(rng.randint(1, 3)):
        if large:
            c = Q(rng.choice((1, 2, 3)), rng.choice((1, 2)))
            a = rng.choice((Q(1, 2), Q(1), Q(3, 2)))
            b = rng.choice((-1, 0, 1))
        else:
            c = Q(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 2, 3)))
            a = rng.choice((Q(-1), Q(-1, 2), Q(0), Q(1, 2), Q(1), Q(2)))
            b = rng.choice((-1, 0, 1, 2))
        t = g_scale(g_mul(g_pow(X, a), g_pow(LOG, b)), c)
        if depth and rng.random() < 0.6:
            h = _random_germ(rng, depth - 1, True)
            t = g_mul(t, g_exp(h if large or rng.random() < 0.5 else g_neg(h)))
        acc = g_add(acc, t)
    return acc


def _forget_memos(f):
    """Drop the memoized log and log-derivative of every monomial of f and,
    recursively, of its exp parts, as if each were built for the first time."""
    for _, m in f.terms:
        m.__dict__.pop("_log", None)
        m.__dict__.pop("_dlog", None)
        if m.expart is not None:
            _forget_memos(m.expart)


def _agree_at(want, got, x0):
    """The sympy expressions want and got agree to 30 digits at x = x0."""
    want, got = (sympy.lambdify(_SX, e, "mpmath") for e in (want, got))
    with mpmath.workdps(30):
        w = want(mpmath.mpf(x0))
        if w == 0:  # the derivative of a constant
            return got(mpmath.mpf(x0)) == 0
        # no exp argument exceeds |log want|: that many more digits keep
        # every factor exact to 40
        extra = int(mpmath.log10(1 + abs(mpmath.log(abs(w)))))
    with mpmath.workdps(40 + extra):
        w, g = want(mpmath.mpf(x0)), got(mpmath.mpf(x0))
        return abs(w - g) <= mpmath.mpf(10) ** -30 * abs(w)


def test_derivative_matches_sympy_diff():
    rng = random.Random(1806)
    checked = 0
    for _ in range(20):
        f = _random_germ(rng, 2, False)
        if f.is_zero():
            continue
        _forget_memos(f)
        cold = derivative(f)
        # a warm memo gives the same answer
        assert derivative(f) == cold
        want = sympy.diff(_sym(f), _SX)
        for x0 in (3, 7):
            assert _agree_at(want, _sym(cold), x0), (f, x0)
        checked += 1
    assert checked >= 18


def test_compose_exact_matches_sympy_subs(X, LOG):
    rng = random.Random(1806)
    inner = (g_pow(X, 2), g_pow(X, Q(1, 2)), LOG, g_exp(g_pow(X, Q(1, 2))),
             g_exp(g_pow(LOG, 2)))
    pairs = [(f, rng.choice(inner))
             for f in (_random_germ(rng, 2, False) for _ in range(20))
             if not f.is_zero()]
    assert len(pairs) >= 18
    # one memo shared by every pair, so a monomial meets several inner germs
    germ._subst_memo.clear()
    shared = [compose_exact(f, g) for f, g in pairs]
    for (f, g), warm in zip(pairs, shared):
        germ._subst_memo.clear()
        cold = compose_exact(f, g)
        assert cold == warm
        assert compose_exact(f, copy.copy(g)) == cold  # an equal inner germ
        want = _sym(f).subs(_SX, _sym(g))
        for x0 in (3, 5):
            assert _agree_at(want, _sym(cold), x0), (f, g, x0)


def test_mono_cmp_pure_matches_dense_lex():
    # pure monomials: dominance is lexicographic on the dense exponent vector
    rng = random.Random(1732)
    big, tiny = Q(3**50, 7**30), Q(1, 10**30)  # 3**50 and 7**30 exceed 2**64
    exponent_sets = (
        (Q(-2), Q(-1), Q(-1, 2), Q(1, 2), Q(1), Q(2)),
        # negative, and apart by 1/10**30 on numerators and denominators past
        # 2**64, where an int cross-product must stay exact
        (-big, big, big + tiny, big - tiny, -big - tiny, tiny, -tiny,
         Q(2**70 + 1, 2**65), Q(2**70 - 1, 2**65), Q(-(10**40), 3)),
    )

    def dense(m):
        v = [Q(0)] * 4
        for k, r in m.powers:
            v[k] = r
        return v

    for exps in exponent_sets:
        def draw(idx):
            return Transmono(tuple((k, rng.choice(exps)) for k in sorted(idx)))

        pairs = []
        for trial in range(400):
            ia = rng.sample(range(4), rng.randint(0, 4))
            a = draw(ia)
            mode = trial % 4
            if mode == 0:  # independent index sets
                b = draw(rng.sample(range(4), rng.randint(0, 4)))
            elif mode == 1:  # the same index set, a common prefix of exponents
                cut = rng.randint(0, len(a.powers))
                b = Transmono(a.powers[:cut] + draw(ia).powers[cut:])
            elif mode == 2:  # disjoint index sets
                b = draw([k for k in range(4) if k not in ia])
            else:  # equal, built separately
                b = Transmono(tuple(a.powers))
            pairs.append((a, b))
        assert any(dense(a) == dense(b) for a, b in pairs)
        for a, b in pairs:
            da, db = dense(a), dense(b)
            want = (da > db) - (da < db)
            assert mono_cmp(a, b) == want
            assert mono_cmp(b, a) == -want


def test_structural_hash_and_eq(X, LOG, LOG2):
    sqrt = g_pow(X, Q(1, 2))
    # exp parts built by different routes
    e1 = g_exp(g_add(X, sqrt))
    e2 = g_exp(g_scale(g_add(g_scale(sqrt, 2), g_scale(X, 2)), Q(1, 2)))
    f1 = g_add(g_mul(e1, LOG), g_neg(LOG2))
    f2 = g_add(g_neg(LOG2), g_mul(LOG, e2))
    pairs = [(g_mul(X, LOG), g_mul(LOG, X)), (e1, e2), (f1, f2),
             (g_pow(f1, 3), g_mul(g_mul(f2, f2), f2)),
             (germ.leading_mono(f1), germ.leading_mono(f2))]
    for a, b in pairs:
        # GermTerm equality is structural; Transmono is interned
        assert a is b if isinstance(a, Transmono) else a is not b and a == b
        h = hash(a)
        assert hash(b) == h and {a: 1}[b] == 1 and {b: 2}[a] == 2
        for c in (copy.copy(a), pickle.loads(pickle.dumps(a))):
            assert c == a and hash(c) == h
        assert hash(a) == h
        # a hash is computed in its own process: hash(None) is not portable
        assert "_hash" not in a.__getstate__()
    assert g_scale(f1, 2) != f1 and hash(g_scale(f1, 2)) != hash(f1)
    assert e1 != germ.leading_mono(e1) and f1 != 1


def test_mono_cmp_cache_shared_across_threads(germ_pool):
    monos = []
    for f in germ_pool:
        for _, m in f.terms:
            if m not in monos:
                monos.append(m)
    pairs = [(i, j) for i in range(len(monos)) for j in range(len(monos))]
    germ._cmp_cache.clear()
    want = {(i, j): mono_cmp(monos[i], monos[j]) for i, j in pairs}
    germ._cmp_cache.clear()
    blob = pickle.dumps(monos)
    nthreads = 2 * (os.cpu_count() or 1) + 2
    results = [None] * nthreads

    def work(k):
        fresh = pickle.loads(blob)  # equal copies with no hash computed yet
        order = pairs[:]
        random.Random(k).shuffle(order)
        results[k] = {(i, j): mono_cmp(fresh[i], fresh[j]) for i, j in order}

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
    assert all(germ._cmp_cache[(monos[i], monos[j])] == want[(i, j)]
               for i, j in pairs if (monos[i], monos[j]) in germ._cmp_cache)


def _pool_monos(germ_pool):
    """Every monomial of the pool's germs and, recursively, of their exp
    parts, each once."""
    monos = []

    def visit(f):
        for _, m in f.terms:
            if m not in monos:
                monos.append(m)
            if m.expart is not None:
                visit(m.expart)

    for f in germ_pool:
        visit(f)
    return monos


def test_mono_cmp_matches_log_difference(germ_pool):
    # the order test of Richardson, Salvy, Shackell and van der Hoeven:
    # a > b iff log a - log b is eventually positive, read from the leading
    # coefficient of the difference built in full
    def by_difference(a, b):
        d = g_add(germ.mono_log(a), g_neg(germ.mono_log(b)))
        return 0 if d.is_zero() else (1 if d.terms[0][0] > 0 else -1)

    monos = _pool_monos(germ_pool)
    assert sum(m.expart is not None for m in monos) >= 4
    cmp = {}
    for a in monos:
        for b in monos:
            germ._cmp_cache.clear()  # each pair walks, none is a cache hit
            cmp[a, b] = mono_cmp(a, b)
            assert cmp[a, b] == by_difference(a, b), (a, b)
    for a in monos:
        assert cmp[a, a] == 0
        for b in monos:
            assert cmp[a, b] == -cmp[b, a]
            for c in monos:
                if cmp[a, b] >= 0 and cmp[b, c] >= 0:
                    assert cmp[a, c] == (0 if cmp[a, b] == cmp[b, c] == 0
                                         else 1)


def test_mono_log_and_dlog_are_memoized(germ_pool):
    monos = _pool_monos(germ_pool)
    assert sum(m.expart is not None for m in monos) >= 4
    for m in monos:
        for fn, attr in ((germ.mono_log, "_log"), (germ.mono_dlog, "_dlog")):
            first = fn(m)
            assert fn(m) is first and m.__dict__[attr] is first
            del m.__dict__[attr]  # a fresh memo computes an equal value
            assert fn(m) == first
        # the memo is no part of copying, pickling, equality or hashing
        h = hash(m)
        for c in (copy.copy(m), copy.deepcopy(m),
                  pickle.loads(pickle.dumps(m))):
            assert c is m and hash(c) == h
            assert germ.mono_log(c) is m.__dict__["_log"]
        assert m._key() == (m.powers, m.expart)
        assert Transmono(m.powers, m.expart) is m


def test_mono_mul_memo_keeps_identity(germ_pool):
    monos = _pool_monos(germ_pool)
    for a in monos:
        for b in monos:
            germ._mul_memo.clear()
            cold = germ.mono_mul(a, b)
            # a warm call in either order hands back the one interned product
            assert germ.mono_mul(a, b) is cold and germ.mono_mul(b, a) is cold
            germ._mul_memo.clear()
            assert germ.mono_mul(b, a) is cold


def _subst(m, g):
    """m o g for a monomial m, through compose_exact."""
    return compose_exact(GermTerm(((Q(1), m),)), g)


def test_pair_memos_stay_under_bound(germ_pool, monkeypatch, LOG):
    monos = _pool_monos(germ_pool)
    pairs = [(a, b) for a in monos for b in monos]
    inner = (LOG, g_exp(g_x()))
    want_cmp = {p: mono_cmp(*p) for p in pairs}
    want_mul = {p: germ.mono_mul(*p) for p in pairs}
    want_subst = {(a, g): _subst(a, g) for a in monos for g in inner}
    bound = 8
    monkeypatch.setattr(germ, "_PAIR_MEMO_MAX", bound)
    memos = {"cmp": germ._cmp_cache, "mul": germ._mul_memo,
             "subst": germ._subst_memo}
    for memo in memos.values():
        memo.clear()
    cleared = dict.fromkeys(memos, 0)
    for i, (a, b) in enumerate(pairs):
        sizes = {k: len(memo) for k, memo in memos.items()}
        assert mono_cmp(a, b) == want_cmp[a, b]
        assert germ.mono_mul(a, b) is want_mul[a, b]
        g = inner[i % 2]
        assert _subst(a, g) == want_subst[a, g]
        for k, memo in memos.items():
            assert len(memo) <= bound
            cleared[k] += len(memo) < sizes[k]
    # far more distinct pairs than the bound went through every memo
    assert min(cleared.values()) >= 3


def test_pair_memos_free_monomials_once_cleared():
    def mono(k, r, s):  # exponents no other test uses
        inner = Transmono(((0, Q(s, 103)),))
        return Transmono(((k, Q(r, 101)),), GermTerm(((Q(1), inner),)))

    p = germ.mono_mul(mono(0, 1, 3), mono(1, -2, 5))
    assert mono_cmp(p, mono(0, 1, 3)) != 0
    # exp(x^(7/103)): an inner germ whose log has a unit coefficient
    g = g_exp(GermTerm(((Q(1), Transmono(((0, Q(7, 103)),))),)))
    _subst(p, g)
    dead, dead_g = weakref.ref(p), weakref.ref(g)
    del p, g
    gc.collect()
    assert dead() is not None  # all three memos hold the product
    germ._mul_memo.clear()
    gc.collect()
    assert dead() is not None  # so does the comparison cache
    germ._cmp_cache.clear()
    gc.collect()
    assert dead() is not None and dead_g() is not None  # and the subst memo
    germ._subst_memo.clear()
    gc.collect()
    assert dead() is None  # the intern table holds it weakly
    assert dead_g() is None


def _race(call, n):
    """call(i) for i < n, in a shuffled order on each of more threads than
    cores, all released at once under a short switch interval; the answers
    of each thread, in index order."""
    nthreads = 2 * (os.cpu_count() or 1) + 2
    start = threading.Barrier(nthreads, timeout=60)
    results = [None] * nthreads

    def work(k):
        order = list(range(n))
        random.Random(k).shuffle(order)
        start.wait()
        got = {i: call(i) for i in order}
        results[k] = [got[i] for i in range(n)]

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
    return results


def test_derivative_memo_shared_across_threads(germ_pool):
    for f in germ_pool:
        _forget_memos(f)
    want = [derivative(f) for f in germ_pool]
    for f in germ_pool:
        _forget_memos(f)
    results = _race(lambda i: derivative(germ_pool[i]), len(germ_pool))
    assert all(got == want for got in results)


def test_subst_memo_shared_across_threads(germ_pool, monkeypatch, X, LOG):
    jobs = [(f, g) for f in germ_pool for g in (LOG, g_exp(X), g_pow(X, 2))]

    def outcome(i):
        try:
            return compose_exact(*jobs[i])
        except NotInFragment as exc:  # log2 o x^2 = log(2 log x), say
            return type(exc)

    germ._subst_memo.clear()
    want = [outcome(i) for i in range(len(jobs))]
    assert NotInFragment in want
    # a small bound clears the memo while other threads read it
    monkeypatch.setattr(germ, "_PAIR_MEMO_MAX", 16)
    germ._subst_memo.clear()
    results = _race(outcome, len(jobs))
    assert all(got == want for got in results)


def _mp_germ(f, x):
    """f at x in mpmath, read from the normal form's structure."""
    total = mpmath.mpf(0)
    for c, m in f.terms:
        v = mpmath.mpf(c.numerator) / c.denominator
        for k, r in m.powers:
            base = x
            for _ in range(k):
                base = mpmath.log(base)
            v *= base ** (mpmath.mpf(r.numerator) / r.denominator)
        if m.expart is not None:
            v *= mpmath.exp(_mp_germ(m.expart, x))
        total += v
    return total


def _collect_and_sort(products):
    """Reference normal form of a sum of terms: like monomials collected in a
    dict, zero sums dropped, one sort by dominance, largest first."""
    acc = {}
    for c, m in products:
        acc[m] = acc.get(m, 0) + c
    monos = sorted((m for m, c in acc.items() if c),
                   key=functools.cmp_to_key(mono_cmp), reverse=True)
    return GermTerm(tuple((acc[m], m) for m in monos))


def _pair_products(f, g):
    return ((cf * cg, germ.mono_mul(mf, mg))
            for cf, mf in f.terms for cg, mg in g.terms)


def _derivative_products(f):
    return ((c * cd, germ.mono_mul(m, md))
            for c, m in f.terms for cd, md in germ.mono_dlog(m).terms)


def _germ_of_length(rng, n):
    """A germ of exactly n terms, each taken from a random germ with exp
    parts."""
    f = germ.ZERO
    while len(f.terms) < n:
        t = rng.choice(_random_germ(rng, 2, False).terms)
        if all(m is not t[1] for _, m in f.terms):
            f = g_add(f, GermTerm((t,)))
    return f


@pytest.mark.parametrize("seed", range(4))
def test_merged_runs_match_collect_and_sort(seed, X, LOG):
    rng = random.Random(seed)
    for n in range(10):  # 0 to 9 runs
        f = _germ_of_length(rng, n)
        g = _germ_of_length(rng, rng.randint(n, 9))
        assert g_mul(f, g) == g_mul(g, f) == _collect_and_sort(_pair_products(f, g))
        assert derivative(f) == _collect_and_sort(_derivative_products(f))
        # (f + g)(f - g): the cross terms cancel
        s, d = g_add(f, g), g_add(f, g_neg(g))
        assert g_mul(s, d) == _collect_and_sort(_pair_products(s, d))
        # c + f: the constant's derivative is ZERO
        cf = g_add(g_const(Q(rng.randint(1, 5))), f)
        assert derivative(cf) == derivative(f)
        assert germ._sum_runs([f, g, g_neg(f), g_neg(g)]) == germ.ZERO
    assert derivative(g_const(Q(3))) == germ.ZERO
    # (x log x - x)' = log x: the constants 1 and -1 cancel
    h = g_add(g_mul(X, LOG), g_neg(X))
    assert derivative(h) == _collect_and_sort(_derivative_products(h)) == LOG


def test_merged_runs_large_product():
    rng = random.Random(60)
    f, g = _germ_of_length(rng, 60), _germ_of_length(rng, 60)
    assert g_mul(f, g) == _collect_and_sort(_pair_products(f, g))


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32), st.booleans())
def test_g_mul_by_one_term_is_normal(seed, left):
    rng = random.Random(seed)
    f = _random_germ(rng, 2, False)
    t = germ.ZERO
    while len(t.terms) != 1:
        t = _random_germ(rng, 1, False)
    p = g_mul(t, f) if left else g_mul(f, t)
    # normal form: strictly decreasing monomials, no zero coefficient
    assert all(c for c, _ in p.terms)
    assert all(mono_cmp(a, b) > 0
               for (_, a), (_, b) in zip(p.terms, p.terms[1:]))
    # the product of every pair of terms, collected and sorted in full
    assert p == _collect_and_sort(_pair_products(f, t))
    for x0 in (3, 7):
        # exp of an argument near L = log|want| loses log10(L) digits, so the
        # values are compared at 50 digits more than that; L itself is read
        # correctly to a few digits at any precision
        with mpmath.workdps(50):
            x = mpmath.mpf(x0)
            L = mpmath.log(1 + abs(_mp_germ(t, x) * _mp_germ(f, x)))
        with mpmath.workdps(50 + int(mpmath.log10(1 + L))):
            x = mpmath.mpf(x0)
            want = _mp_germ(t, x) * _mp_germ(f, x)
            tol = mpmath.mpf(10) ** -45 * max(abs(want), 1)
            assert abs(_mp_germ(p, x) - want) <= tol


def test_transmono_is_interned(X, LOG):
    sqrt = g_pow(X, Q(1, 2))
    e1 = g_exp(g_add(X, sqrt))
    e2 = g_exp(g_scale(g_add(g_scale(sqrt, 2), g_scale(X, 2)), Q(1, 2)))
    m = germ.leading_mono(g_mul(e1, LOG))
    routes = [germ.leading_mono(g_mul(LOG, e2)),
              germ.mono_mul(germ.leading_mono(LOG), germ.leading_mono(e2)),
              Transmono(((1, Q(1)),), e1.terms[0][1].expart),
              Transmono(powers=((1, 1),), expart=GermTerm(e2.terms[0][1].expart.terms))]
    assert all(r is m for r in routes)
    assert germ.leading_mono(X) is Transmono(((0, Q(1)),))
    assert germ.mono_mul(m, germ.mono_inv(m)) is germ.UNIT_MONO is Transmono()
    for c in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert c is m
    assert m == m and m != germ.leading_mono(X) and m != e1

    # monomials that no other test builds, alive only in a pickle
    def fresh():
        out = []
        for p in range(1, 41):
            inner = Transmono(((0, Q(p, 97)),))
            ex = GermTerm(((Q(p), inner),))
            out.append(Transmono(((1, Q(-p, 89)),), ex))
        return out

    blob = pickle.dumps(fresh())
    dead = [weakref.ref(t) for t in pickle.loads(blob)]
    gc.collect()
    assert all(r() is None for r in dead)  # the table holds them weakly
    nthreads = 8
    start = threading.Barrier(nthreads, timeout=60)
    results = [None] * nthreads

    def work(k):
        start.wait()
        results[k] = pickle.loads(blob)

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
    first = results[0]
    assert len(first) == 40 and len({id(m) for m in first}) == 40
    assert all(got[i] is first[i] for got in results for i in range(40))
    assert all(first[i].expart.terms[0][1] is Transmono(((0, Q(i + 1, 97)),))
               for i in range(40))


def test_int_exponent_does_not_leak_into_interned_monomial():
    # the first x^1 built in a fresh process has an int exponent; the table
    # must still hand g_x() a Fraction exponent, or inverse's 1/r is a float
    code = (
        "from fractions import Fraction as Q\n"
        "from transgerm.germ import Transmono, g_scale, g_x, inverse\n"
        "m = Transmono(((0, 1),))\n"
        "f = inverse(g_scale(g_x(), 8))\n"
        "print(repr([(type(c).__name__, c, [(k, type(r).__name__, r)\n"
        "             for k, r in t.powers], t.expart) for c, t in f.terms]))\n"
        "print(repr(type(m.powers[0][1]).__name__))\n")
    src = os.path.dirname(os.path.dirname(germ.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "[('Fraction', Fraction(1, 8), [(0, 'Fraction', Fraction(1, 1))], None)]",
        "'Fraction'"]


def test_pow_exact_roots(X):
    assert g_pow(g_scale(g_pow(X, 3), 8), Q(1, 3)) == g_scale(X, 2)
    with pytest.raises(NotInFragment):
        g_pow(g_scale(X, 2), Q(1, 2))


def test_mono_cmp_transitivity_cache(germ_pool):
    monos = [germ.leading_mono(f) for f in germ_pool if not f.is_zero()]
    for a in monos:
        for b in monos:
            assert mono_cmp(a, b) == -mono_cmp(b, a)


def test_str_roundtrippable_shapes(X, LOG):
    f = g_add(g_scale(X, 2), g_neg(LOG))
    assert str(f) == "2*x - log(x)"
    assert str(g_pow(X, Q(3, 2))) == "x^(3/2)"
    assert str(g_exp(g_neg(X))) == "exp(-x)"
