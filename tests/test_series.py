import itertools
import math
import os
import random
import sys
import threading
from fractions import Fraction as Q

import pytest

from transgerm import germ as G
from transgerm import gps
from transgerm import series as S
from transgerm.errors import (
    ArityMismatch,
    CutoffTooDeep,
    DomainError,
    NotAScaleAfterShift,
    NotIncreasing,
    NotInFragment,
    NotMarkedConvergent,
    ScaleMismatch,
    WitnessViolated,
    ZeroWithinBound,
)
from transgerm.germ import g_add, g_exp, g_logk, g_neg, g_pow, g_scale, g_x
from transgerm.scale import Monomial, make_scale, monomial_cmp, project_class
from transgerm.series import (
    OmegaPoly,
    compose_right,
    equal_to_cutoff,
    factor_leading,
    from_terms,
    geometric,
    invert,
    is_zero_to_cutoff,
    lift_germ,
    make_laurent,
    one,
    order_type,
    sum_family,
    sum_numeric,
    truncate,
)
from transgerm.support import SupportUniverse


@pytest.fixture
def sx(X):
    return make_scale([X])


@pytest.fixture
def sxl(X, LOG):
    return make_scale([X, LOG])


@pytest.fixture
def sl(LOG):
    return make_scale([LOG])


def cut(scale, *coords):
    return scale.monomial(coords)


def test_make_laurent_geometric(sx):
    body = gps.geometric_in(1, (1,))
    f = make_laurent(sx, sx.unit(), body)
    got = f.terms_to_cutoff(cut(sx, 5))
    assert got == [((Q(n),), Q(1)) for n in range(6)]


def test_make_laurent_shift_cancellation(sxl):
    # shift exp(+x), body X0: the product is the unit series
    body = gps.monomial(2, (1, 0))
    f = make_laurent(sxl, sxl.monomial([-1, 0]), body)
    assert f.terms_to_cutoff(cut(sxl, 1, 1)) == [((Q(0), Q(0)), Q(1))]


def test_make_laurent_log_scale(sl):
    body = gps.geometric_in(1, (1,))
    f = make_laurent(sl, sl.unit(), body)  # sum x^-nu
    got = f.terms_to_cutoff(cut(sl, 3))
    assert got == [((Q(n),), Q(1)) for n in range(4)]


def test_truncate_direct(sx):
    f = geometric(sx, cut(sx, 1))
    t = truncate(f, cut(sx, Q(5, 2)))
    assert t.terms_to_cutoff(cut(sx, 100)) == [
        ((Q(0),), Q(1)), ((Q(1),), Q(1)), ((Q(2),), Q(1))]


def test_truncate_empty(sx):
    f = from_terms(sx, {(3,): 2})
    t = truncate(f, cut(sx, 1))
    assert t.terms_to_cutoff(cut(sx, 10)) == []


def test_truncate_budget_double_series(sxl):
    # sum_{m,nu} x^-m exp(-nu x): every x^-m lies above exp(-x)
    body = gps.geometric_in(2, (1, 0)) * gps.geometric_in(2, (0, 1))
    f = make_laurent(sxl, sxl.unit(), body)
    with pytest.raises(CutoffTooDeep):
        truncate(f, cut(sxl, 1, 0), budget=50)


def test_truncation_linear_idempotent(sx):
    f = geometric(sx, cut(sx, 1))
    g = from_terms(sx, {(0,): 2, (2,): -3, (5,): 1})
    n = cut(sx, 3)
    lhs = truncate(f + g, n)
    rhs = truncate(f, n) + truncate(g, n)
    assert equal_to_cutoff(lhs, rhs, cut(sx, 50))
    again = truncate(truncate(f, n), n)
    assert equal_to_cutoff(again, truncate(f, n), cut(sx, 50))


def test_factor_leading_example(sx):
    f = from_terms(sx, {(1,): 3, (2,): 1})
    a, lm, e = factor_leading(f)
    assert a == 3
    assert lm.vector == (Q(1),)
    got = e.terms_to_cutoff(cut(sx, 5))
    assert got == [((Q(1),), Q(-1, 3))]
    # reconstruction a*lm*(1-e) == f
    recon = (one(sx) - e).shifted(lm.vector).scaled(a)
    assert equal_to_cutoff(recon, f, cut(sx, 8))


def test_factor_leading_monomial(sx):
    f = from_terms(sx, {(1,): 1})
    a, lm, e = factor_leading(f)
    assert a == 1 and lm.vector == (Q(1),)
    assert is_zero_to_cutoff(e, cut(sx, 10))


def test_factor_leading_mixed_scale(sxl):
    f = from_terms(sxl, {(0, 1): 1, (1, 0): 1})  # x^-1 + exp(-x)
    a, lm, e = factor_leading(f)
    assert a == 1
    assert lm.vector == (Q(0), Q(1))
    (v, c), = e.terms_to_cutoff(cut(sxl, 5, 5))
    assert v == (Q(1), Q(-1)) and c == -1  # -x*exp(-x), small under lex
    assert Monomial(sxl, v).is_small()


def test_invert_geometric_identity(sx):
    f = from_terms(sx, {(0,): 1, (1,): -1})  # 1 - exp(-x)
    inv = invert(f)
    got = inv.terms_to_cutoff(cut(sx, 10))
    assert got == [((Q(n),), Q(1)) for n in range(11)]
    # the same 1 - exp(-x) over an infinite skeleton whose coefficients are
    # zero past exp(-x): the zero points stay in the remainder's stream
    one_minus = gps.constant(1, 1) - gps.monomial(1, (1,))
    body = one_minus * gps.geometric_in(1, (1,)) * one_minus
    inv = invert(make_laurent(sx, sx.unit(), body))
    assert inv.terms_to_cutoff(cut(sx, 10)) == got


def test_invert_monomial(sx):
    f = from_terms(sx, {(1,): 1})
    inv = invert(f)
    assert inv.terms_to_cutoff(cut(sx, 5)) == [((Q(-1),), Q(1))]


def test_invert_long_division_oracle(sl):
    # invert(2 + x^-1) truncated below x^-3, against hand long division
    f = from_terms(sl, {(0,): 2, (1,): 1})
    inv = invert(f)
    got = inv.terms_to_cutoff(cut(sl, 3))
    assert got == [((Q(0),), Q(1, 2)), ((Q(1),), Q(-1, 4)),
                   ((Q(2),), Q(1, 8)), ((Q(3),), Q(-1, 16))]
    # and to depth 1000: c_n = (-1)^n / 2^(n+1)
    got = inv.terms_to_cutoff(cut(sl, 1000))
    assert got == [((Q(n),), Q((-1) ** n, 2 ** (n + 1))) for n in range(1001)]


def test_invert_deep_arity2_is_typed(sxl):
    # 1/(1 - x^-1 + exp(-x)/2): infinitely many x^-n lie above exp(-x)
    f = from_terms(sxl, {(0, 0): 1, (0, 1): -1, (1, 0): Q(1, 2)})
    with pytest.raises(CutoffTooDeep):
        invert(f).terms_to_cutoff(cut(sxl, 1, 0))


def test_invert_remainder_past_budget_is_typed(sx):
    # 1 + exp(-100x) over a skeleton with zeros at every exp(-nx): with a
    # budget of 50 the remainder -exp(-100x) is not found, which must not
    # read as a zero remainder and the answer 1
    one_minus = gps.constant(1, 1) - gps.monomial(1, (1,))
    body = one_minus * gps.geometric_in(1, (1,)) + gps.monomial(1, (100,))
    f = make_laurent(sx, sx.unit(), body)
    with pytest.raises((ZeroWithinBound, CutoffTooDeep)):
        invert(f, budget=50).terms_to_cutoff(cut(sx, 200))
    assert invert(f).terms_to_cutoff(cut(sx, 200)) == [
        ((Q(0),), Q(1)), ((Q(100),), Q(-1)), ((Q(200),), Q(1))]


def _invert_sxl(sxl):
    return invert(from_terms(sxl, {(0, 0): 2, (1, 0): -3, (1, -2): 1,
                                   (2, 1): Q(1, 2)}))


def _check_shared_across_threads(build, c):
    """Truncates one series built by ``build`` from 2*nproc+2 threads at a
    short switch interval; each must get the single-threaded answer."""
    want = build().terms_to_cutoff(c)
    shared = build()
    nthreads = 2 * (os.cpu_count() or 1) + 2
    results = [None] * nthreads

    def work(k):
        results[k] = shared.terms_to_cutoff(c)

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


def test_invert_shared_across_threads(sxl):
    _check_shared_across_threads(lambda: _invert_sxl(sxl), cut(sxl, 10, 0))


def test_square_shared_across_threads(sxl):
    def build():
        g = _invert_sxl(sxl)
        g = g * g
        return g * g.assert_convergent()

    _check_shared_across_threads(build, cut(sxl, 8, 0))


def test_invert_roundtrip_random(sxl):
    rng = random.Random(21)
    for _ in range(12):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            v = (Q(rng.randint(-2, 3), rng.choice([1, 2])),
                 Q(rng.randint(-2, 3), rng.choice([1, 2])))
            c = Q(rng.randint(-5, 5))
            if c:
                terms[v] = c
        if not terms:
            continue
        f = from_terms(sxl, terms)
        inv = invert(f)
        prod = f * inv
        resid = prod - one(sxl)
        assert is_zero_to_cutoff(resid, _depth_cutoff(prod, 8))


def _depth_cutoff(f, depth):
    """Monomial at lex depth `depth` of the series' skeleton stream."""
    terms = list(itertools.islice(f.iter_terms(), depth + 1))
    return Monomial(f.scale, terms[-1][0])


def test_field_laws_random(sxl):
    rng = random.Random(4)

    def rand_series():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            v = (Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2)))
            c = Q(rng.randint(-4, 4))
            if c:
                terms[v] = c
        return from_terms(sxl, terms) if terms else one(sxl)

    for _ in range(10):
        f, g, h = rand_series(), rand_series(), rand_series()
        c = cut(sxl, 5, 5)
        assert equal_to_cutoff((f + g) + h, f + (g + h), c)
        assert equal_to_cutoff(f + g, g + f, c)
        assert equal_to_cutoff((f * g) * h, f * (g * h), c)
        assert equal_to_cutoff(f * g, g * f, c)
        assert equal_to_cutoff(f * (g + h), f * g + f * h, c)


def test_order_type_double_series(sxl):
    body = gps.geometric_in(2, (1, 0)) * gps.geometric_in(2, (0, 1))
    f = make_laurent(sxl, sxl.unit(), body)
    ot = order_type(f)
    assert str(ot.exact) == "omega^2"
    assert ot.bound_exponent == 2


def test_geometric_ratio_zero_is_one(sx):
    f = geometric(sx, cut(sx, 1), 0)
    assert list(f.iter_terms()) == [((Q(0),), Q(1))]


def test_order_type_single_geometric(sx):
    f = geometric(sx, cut(sx, 1))
    ot = order_type(f)
    assert str(ot.exact) == "omega"
    assert ot.bound_exponent == 1


def test_order_type_finite(sx):
    f = from_terms(sx, {(0,): 1, (1,): 2, (3,): -1})
    ot = order_type(f)
    assert str(ot.exact) == "3"
    assert ot.bound_exponent == 1
    for terms, bound in [({}, 0), ({(2,): 5}, 1), ({(0,): 1, (1,): 1}, 1)]:
        ot = order_type(from_terms(sx, terms))
        assert (ot.bound_exponent, str(ot.exact)) == (bound, str(len(terms)))


def test_order_type_bound_not_exceeded_random(sxl):
    rng = random.Random(8)
    for _ in range(25):
        use0 = rng.random() < 0.7
        use1 = rng.random() < 0.7
        body = gps.constant(2, 1)
        if use0:
            body = body * gps.geometric_in(2, (rng.randint(1, 2), 0))
        if use1:
            body = body * gps.geometric_in(2, (0, rng.randint(1, 2)))
        f = make_laurent(sxl, sxl.unit(), body)
        ot = order_type(f)
        assert ot.exact is not None
        assert ot.exact <= OmegaPoly.omega_power(ot.bound_exponent)


def test_sum_family_geometric(sx):
    fam = lambda nu: from_terms(sx, {(nu,): 1})
    lm = lambda nu: cut(sx, nu)
    s = sum_family(sx, fam, 0, lm)
    inv = invert(from_terms(sx, {(0,): 1, (1,): -1}))
    assert equal_to_cutoff(s, inv, cut(sx, 9))


def test_sum_family_rejects_nonnatural(sxl):
    # F_nu = x^(-1/nu) exp(-nu x): skeleton union {(nu, 1/nu)} is not natural
    fam = lambda nu: from_terms(sxl, {(nu + 1, Q(1, nu + 1)): 1})
    lm = lambda nu: sxl.monomial([nu + 1, Q(1, nu + 1)])
    with pytest.raises(WitnessViolated):
        sum_family(sxl, fam, 0, lm)


def test_sum_family_m_series(sxl):
    # F_nu = x^nu exp(-nu x): accepted with the witness on the exp class
    fam = lambda nu: from_terms(sxl, {(nu, -nu): 1})
    lm = lambda nu: sxl.monomial([nu, -nu])
    s = sum_family(sxl, fam, 0, lm)
    got = s.terms_to_cutoff(cut(sxl, 3, 0))
    assert got == [((Q(n), Q(-n)), Q(1)) for n in range(4)]


def test_sum_family_witness_violated(sx):
    fam = lambda nu: from_terms(sx, {(5 - nu,): 1} if nu < 6 else {})
    lm = lambda nu: cut(sx, 5 - nu) if nu < 6 else None
    with pytest.raises(WitnessViolated):
        s = sum_family(sx, fam, 0, lm)
        s.terms_to_cutoff(cut(sx, 10))


def test_failed_stream_keeps_raising(sx):
    # member 3 also holds 7*m^2, above its declared leading monomial m^3; a
    # second query on the same series used to answer the terms above that
    # point as if the stream had ended there
    fam = lambda nu: (from_terms(sx, {(nu,): 1, (2,): 7} if nu == 3 else
                                 {(nu,): 1}) if nu <= 5 else None)
    lm = lambda nu: cut(sx, nu) if nu <= 5 else None
    s = sum_family(sx, fam, 0, lm)
    for _ in range(3):
        with pytest.raises(WitnessViolated):
            s.terms_to_cutoff(cut(sx, 10))
    # the terms stored before the failure stay readable
    assert s.terms_to_cutoff(cut(sx, 0)) == [((0,), 1)]


@pytest.mark.parametrize("entry", ["shifted", "sum_family", "project_class",
                                   "partial_deriv", "enumerate",
                                   "enumerate_finite", "equal_to_bound",
                                   "monomial_short", "monomial_long",
                                   "scale_monomial",
                                   "contains", "contains_explicit",
                                   "universe_shifted", "generated_short",
                                   "finite_short", "generated_offset",
                                   "universe_union", "universe_sum"])
def test_wrong_arity_or_index_is_typed(sx, sxl, entry):
    # each public entry point that takes a vector or an index refuses one that
    # does not fit the scale with a typed error, not an IndexError or a
    # silently truncated answer
    uni = SupportUniverse.generated(2, [(1, 0)])
    calls = {
        # a short monomial used to be zipped away by every consumer
        "monomial_short": (ArityMismatch, lambda: Monomial(sxl, (1,))),
        "monomial_long": (ArityMismatch, lambda: Monomial(sx, (1, 0))),
        "scale_monomial": (ArityMismatch, lambda: sx.monomial([1, 0])),
        # a miss used to raise a bare StopIteration from the lead search
        "contains": (ArityMismatch, lambda: uni.contains((1,))),
        "contains_explicit": (ArityMismatch, lambda: SupportUniverse.finite(
            2, [(1, 0)]).contains((1,))),
        "universe_shifted": (ArityMismatch, lambda: uni.shifted((1,))),
        # the constructors and combinators used to keep the foreign vector
        "generated_short": (ArityMismatch,
                            lambda: SupportUniverse.generated(2, [(1,)])),
        "finite_short": (ArityMismatch,
                         lambda: SupportUniverse.finite(2, [(1,)])),
        "generated_offset": (ArityMismatch, lambda: SupportUniverse.generated(
            2, [(1, 0)], offset=(0,))),
        "universe_union": (ArityMismatch, lambda: SupportUniverse.generated(
            2, [(0, 1)]).union(SupportUniverse.generated(3, [(0, 0, 1)]))),
        "universe_sum": (ArityMismatch, lambda: SupportUniverse.generated(
            2, [(0, 1)]).sum(SupportUniverse.generated(3, [(0, 0, 1)]))),
        "shifted": (ArityMismatch, lambda: from_terms(
            sx, {(0,): 1, (2,): 3}).shifted((1, 5))),
        "sum_family": (WitnessViolated, lambda: sum_family(
            sx, lambda nu: from_terms(sx, {(nu,): 1}), 1, lambda nu: cut(sx, nu))),
        "project_class": (ArityMismatch,
                          lambda: project_class(sx, 3, cut(sx, 1))),
        "partial_deriv": (ArityMismatch,
                          lambda: gps.from_terms(1, {(2,): 1}).partial_deriv(4)),
        # an infinite skeleton: the short bound used to hang box_points
        "enumerate": (ArityMismatch,
                      lambda: gps.geometric_in(2, (0, 1)).enumerate((3,))),
        # a finite one: the short bound used to answer silently
        "enumerate_finite": (ArityMismatch, lambda: gps.from_terms(
            2, {(1, 0): 1, (0, 1): 2}).enumerate((3,))),
        "equal_to_bound": (ArityMismatch, lambda: gps.from_terms(
            2, {(1, 0): 1}).equal_to_bound(gps.from_terms(2, {(0, 1): 2}), (3,))),
    }
    error, call = calls[entry]
    with pytest.raises(error):
        call()


def test_compose_right_log(sx, LOG):
    f = geometric(sx, cut(sx, 1))  # sum exp(-nu x)
    g = compose_right(f, LOG)
    assert [str(gen) for gen in g.scale.generators] == ["log(x)"]
    got = g.terms_to_cutoff(g.scale.monomial([4]))
    assert got == [((Q(n),), Q(1)) for n in range(5)]


def test_compose_right_identity(sx, X):
    f = geometric(sx, cut(sx, 1))
    g = compose_right(f, X)
    assert equal_to_cutoff(f, g, cut(sx, 6)) or \
        g.terms_to_cutoff(cut(sx, 6)) == f.terms_to_cutoff(cut(sx, 6))


def test_compose_right_exp(sxl, X):
    # (x^-1 + exp(-x)) o exp = exp(-x) + exp(-exp(x)) over scale (exp x, x)
    f = from_terms(sxl, {(0, 1): 1, (1, 0): 1})
    g = compose_right(f, g_exp(X))
    gens = [str(gen) for gen in g.scale.generators]
    assert gens == ["exp(x)", "x"]
    got = g.terms_to_cutoff(g.scale.monomial([2, 0]))
    assert got == [((Q(0), Q(1)), Q(1)), ((Q(1), Q(0)), Q(1))]
    # numeric agreement at x = 3, 4
    for xv in (3.0, 4.0):
        direct = 1 / math.exp(xv) + math.exp(-math.exp(xv))
        via = sum(float(c) * Monomial(g.scale, v).eval(xv) for v, c in got)
        assert abs(direct - via) < 1e-12


def test_compose_right_rejects_bad_shift(sxl, X):
    f = from_terms(sxl, {(0, 1): 1})
    with pytest.raises(NotAScaleAfterShift):
        compose_right(f, g_add(X, g_exp(g_neg(g_pow(X, 2)))))


def test_compose_right_refusal_keeps_its_cause(sl, X):
    # log o 2x = log x + log 2 leaves the fragment; 1/x is not increasing;
    # either refusal is kept as the cause
    f = geometric(sl, cut(sl, 1))
    for g, cause in ((g_scale(X, 2), NotInFragment),
                     (g_pow(X, -1), NotIncreasing)):
        with pytest.raises(NotAScaleAfterShift) as info:
            compose_right(f, g)
        assert isinstance(info.value.__cause__, cause)


@pytest.mark.parametrize("bad", [3, "x", None])
def test_non_germ_argument_is_refused(sx, X, bad):
    for call in (lambda: G.compose_exact(X, bad),
                 lambda: G.compose_exact(bad, X),
                 lambda: G.inverse(bad)):
        with pytest.raises(NotInFragment):
            call()
    with pytest.raises(NotAScaleAfterShift) as info:
        compose_right(one(sx), bad)
    assert isinstance(info.value.__cause__, NotInFragment)


def test_compose_right_shares_the_memo(sx, X):
    pulls = []

    def body():
        for k in itertools.count():
            pulls.append(k)
            yield ((k,), Q(k + 1))

    f = S.LaurentSeries(sx, body)
    want = f.terms_to_cutoff(cut(sx, 6))
    g = compose_right(f, X)
    assert g._memo is f._memo
    assert g.terms_to_cutoff(cut(sx, 6)) == want
    assert g.terms_to_cutoff(cut(sx, 9)) == f.terms_to_cutoff(cut(sx, 9))
    assert pulls == list(range(11))


def _convolve(a: dict, b: dict) -> dict:
    """Product of two finite term dicts, by the definition."""
    out = {}
    for u, x in a.items():
        for w, y in b.items():
            v = tuple(p + q for p, q in zip(u, w))
            out[v] = out.get(v, 0) + x * y
    return out


def test_product_matches_dict_convolution(sxl):
    # finite factors on half-integer exponents and infinite geometric ones;
    # a geometric factor's oracle is its prefix up to a step index past the
    # cutoff, since no factor has a first coordinate below -2
    rng = random.Random(1806)
    half = [Q(k, 2) for k in range(-4, 7)]
    cutoff = (3, 0)

    def factor():
        if rng.random() < 0.35:
            step = (Q(rng.randint(1, 3), 2), rng.choice(half))
            r = Q(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 3))
            terms = {(k * step[0], k * step[1]): r ** k for k in range(12)}
            return geometric(sxl, cut(sxl, *step), r), terms
        terms = {(rng.choice(half), rng.choice(half)): Q(rng.randint(-3, 3))
                 for _ in range(rng.randint(1, 6))}
        return from_terms(sxl, terms), terms

    for _ in range(80):
        (fa, ta), (fb, tb) = factor(), factor()
        want = sorted((v, c) for v, c in _convolve(ta, tb).items()
                      if c and v <= cutoff)
        assert (fa * fb).terms_to_cutoff(cut(sxl, *cutoff)) == want


def _own_memo(f):
    """A series equal to f that reads its terms through a memo of its own."""
    return S.LaurentSeries(f.scale, f.iter_terms, universe=f._universe)


def _square_operands(sx, sxl):
    # finite, geometric and inverted series at arity 1 and 2; the first two
    # of each arity have zero coefficients on skeleton points (odd minus even
    # powers cancel on the even ones)
    yield S.LaurentSeries(sx, lambda: iter([
        ((0,), Q(1)), ((1,), Q(0)), ((2,), Q(-3, 2)), ((3,), Q(0)),
        ((5,), Q(2))]))
    yield make_laurent(sx, sx.unit(),
                       gps.geometric_in(1, (1,), Q(-2, 3))
                       - gps.geometric_in(1, (2,), Q(4, 9)))
    yield geometric(sx, cut(sx, 1), Q(3, 2))
    yield invert(from_terms(sx, {(0,): 2, (1,): -1, (3,): Q(1, 2)}))
    yield S.LaurentSeries(sxl, lambda: iter([
        ((0, -1), Q(2)), ((0, 0), Q(0)), ((0, 2), Q(-1)), ((1, -3), Q(0)),
        ((1, 0), Q(5, 3)), ((2, 1), Q(0))]))
    yield make_laurent(sxl, sxl.monomial([0, -1]),
                       gps.geometric_in(2, (1, 1), Q(5, 2))
                       - gps.geometric_in(2, (2, 2), Q(25, 4)))
    yield geometric(sxl, cut(sxl, 1, -2), Q(-1, 2))
    yield _invert_sxl(sxl)


def test_square_matches_product_with_own_memo(sx, sxl):
    # the whole skeleton, zeros included, of f*f and f times a view of f
    # (both visit pairs i <= j) against f times an equal series (all pairs)
    for f in _square_operands(sx, sxl):
        want = list(itertools.islice((f * _own_memo(f)).iter_terms(), 60))
        for sq in (f * f, f * f.assert_convergent()):
            assert list(itertools.islice(sq.iter_terms(), 60)) == want


@pytest.mark.parametrize("r", [Q(1), Q(-2), Q(3, 2)])
def test_repeated_square_is_binomial(sx, r):
    f = make_laurent(sx, sx.unit(), gps.from_terms(1, {(0,): 1, (1,): r}))
    for k in range(1, 7):
        f = f * f
        n = 2 ** k
        assert f.terms_to_cutoff(cut(sx, n)) == [
            ((i,), math.comb(n, i) * r ** i) for i in range(n + 1)]


def test_square_pulls_each_operand_term_once(sx):
    pulls = []

    def body():
        for k in itertools.count():
            pulls.append(k)
            yield ((k,), Q(k + 1))

    # sum (k+1) x^k = (1-x)^-2, whose square has coefficients C(n+3, 3)
    f = S.LaurentSeries(sx, body)
    want = [((n,), math.comb(n + 3, 3)) for n in range(13)]
    assert (f * f).terms_to_cutoff(cut(sx, 12)) == want
    # x^13 ends the truncation; popping its pair (0, 13) pushes (0, 14)
    assert pulls == list(range(15))
    assert (f * f.assert_convergent()).terms_to_cutoff(cut(sx, 12)) == want
    assert pulls == list(range(15))


def test_sum_numeric_powers(sl):
    # sum_{nu>=1} x^-nu at x=10, cutoff x^-8: near 1/9
    body = gps.geometric_in(1, (1,))
    f = make_laurent(sl, sl.monomial([1]), body,
                     convergence=S.Convergence())
    val, tail = sum_numeric(f, 10.0, cut(sl, 8))
    assert abs(val - 1 / 9) < 1e-7
    assert 0 < tail < 1e-8


def test_sum_numeric_finite_exact(sx):
    f = from_terms(sx, {(0,): 3, (1,): -2})
    val, tail = sum_numeric(f, 2.0, cut(sx, 10))
    assert val == pytest.approx(3 - 2 * math.exp(-2.0), abs=1e-14)
    assert tail == 0.0


def test_sum_numeric_geometric_closed_form(sx):
    f = invert(from_terms(sx, {(0,): 1, (1,): -1}))
    val, tail = sum_numeric(f, 5.0, cut(sx, 6))
    want = 1 / (1 - math.exp(-5.0))
    assert abs(val - want) < 1e-10


def test_sum_numeric_requires_tag(sx):
    f = geometric(sx, cut(sx, 1))
    bare = S.LaurentSeries(sx, lambda: f.iter_terms())
    with pytest.raises(NotMarkedConvergent):
        sum_numeric(bare, 5.0, cut(sx, 3))


def test_convergence_threshold_rule(sx, X):
    # + and * carry the largest threshold, an untagged operand untags the
    # result, invert keeps the threshold and compose_right drops it
    f = from_terms(sx, {(0,): 1, (1,): 2}).assert_convergent(2.0)
    g = from_terms(sx, {(0,): 3, (2,): -1}).assert_convergent(3.0)
    bare = make_laurent(sx, sx.unit(), gps.geometric_in(1, (1,)))
    assert bare.convergence is None
    for h in (f + g, g + f, f * g, g * f):
        assert h.convergence.threshold == 3.0
    assert (f + one(sx)).convergence.threshold == 2.0
    assert (one(sx) * one(sx)).convergence.threshold is None
    for h in (f + bare, bare + g, f * bare, bare * g):
        assert h.convergence is None
    c = cut(sx, 6)
    with pytest.raises(DomainError):
        sum_numeric(f * g, 2.5, c)
    e = math.exp(-3.0)
    assert sum_numeric(f * g, 3.0, c) == pytest.approx(
        ((1 + 2 * e) * (3 - e * e), 0.0), rel=1e-14)
    inv = invert(f * g)
    assert inv.convergence.threshold == 3.0
    with pytest.raises(DomainError):
        sum_numeric(inv, 2.5, c)
    assert invert(f + bare).convergence is None
    composed = compose_right(inv, X)
    assert composed.convergence is not None
    assert composed.convergence.threshold is None
    assert compose_right(f * bare, X).convergence is None


def test_assert_convergent_tags_an_untagged_series(sx):
    # sum_k 2^-k exp(-k x): make_laurent tags no infinite body, so the
    # summation first refuses, then answers once convergence is asserted
    pulls = []

    class Counting(gps.GenSeries):
        def coeff(self, alpha):
            pulls.append(alpha)
            return super().coeff(alpha)

    half = gps.geometric_in(1, (1,), Q(1, 2))
    body = Counting(1, half.universe, half.coeff)
    f = make_laurent(sx, sx.unit(), body)
    c = cut(sx, 20)
    with pytest.raises(NotMarkedConvergent):
        sum_numeric(f, 3.0, c)
    g = f.assert_convergent(2.0)
    assert f.convergence is None and g.convergence.threshold == 2.0
    val, tail = sum_numeric(g, 3.0, c)
    r = math.exp(-3.0) / 2
    assert val == pytest.approx((1 - r ** 21) / (1 - r), rel=1e-14)
    assert tail == pytest.approx(r ** 21, rel=1e-12)
    with pytest.raises(DomainError):
        sum_numeric(g, 1.5, c)
    # g reads f's memo: neither series pulls the source stream again
    assert g._memo is f._memo
    assert len(pulls) == 22
    assert [v for v, _ in f.terms_to_cutoff(c)] == [(k,) for k in range(21)]
    assert sum_numeric(g, 3.0, c) == (val, tail)
    assert len(pulls) == 22


def test_sum_numeric_homomorphism(sx):
    f = invert(from_terms(sx, {(0,): 1, (1,): -1}))
    g = from_terms(sx, {(0,): 2, (2,): 5})
    fg = f * g
    x = 7.0
    c = cut(sx, 12)
    vf, tf = sum_numeric(f, x, c)
    vg, tg = sum_numeric(g, x, c)
    vfg, tfg = sum_numeric(fg, x, c)
    assert abs(vfg - vf * vg) <= (tf * abs(vg) + tg * abs(vf) + tfg) + 1e-12


def test_subseries_closure(sx):
    f = geometric(sx, cut(sx, 1))
    even = f.subseries(lambda v: v[0] % 2 == 0)
    got = even.terms_to_cutoff(cut(sx, 6))
    assert got == [((Q(0),), Q(1)), ((Q(2),), Q(1)), ((Q(4),), Q(1)), ((Q(6),), Q(1))]


def test_lift_germ(sxl, X, LOG):
    f = g_add(g_pow(X, -1), g_exp(g_neg(X)))
    s = lift_germ(sxl, f)
    assert s.terms_to_cutoff(cut(sxl, 5, 5)) == [
        ((Q(0), Q(1)), Q(1)), ((Q(1), Q(0)), Q(1))]
    with pytest.raises(ScaleMismatch):
        lift_germ(sxl, g_exp(g_neg(g_pow(X, 2))))


def test_monomial_over_another_scale_is_refused(sx, sl):
    # m[1] over (log x) is 1/log x; over (x) the same vector is exp(-x)
    m = sl.monomial([1])
    for build in (lambda: from_terms(sx, {m: 1}),
                  lambda: S.monomial_series(sx, m),
                  lambda: geometric(sx, m),
                  lambda: geometric(sx, sl.monomial([-1]))):
        with pytest.raises(ScaleMismatch):
            build()
    assert S.monomial_series(sl, m).terms_to_cutoff(cut(sl, 2)) == [((1,), 1)]


def test_scale_mismatch_ops(sx, sl):
    with pytest.raises(ScaleMismatch):
        one(sx) + one(sl)
