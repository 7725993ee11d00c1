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
from transgerm.scale import (
    Monomial,
    make_scale,
    monomial_cmp,
    monomial_value,
    project_class,
)
from transgerm.series import (
    OmegaPoly,
    compose_right,
    from_terms,
    geometric,
    invert,
    lift_germ,
    make_laurent,
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


def value(scale, v, x):
    """The monomial of vector v at x, from the generators' values at x."""
    gens = scale.generators
    return monomial_value(scale, v, lambda i: G.eval_germ(gens[i], x))


def test_make_laurent_geometric(sx):
    body = gps.geometric_in(1, (1,))
    f = make_laurent(sx, sx.unit(), body)
    got = f.terms_to_cutoff(cut(sx, 5))
    assert got == [((Q(n),), Q(1)) for n in range(6)]


def test_make_laurent_shift_cancellation(sxl):
    # shift exp(+x), body X0: the product is the unit series
    body = gps.from_terms(2, {(1, 0): 1})
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


def test_truncate_is_a_finite_tagged_series(sx):
    # an untagged infinite series: its truncation is tagged convergent,
    # finite, and truncating it again keeps its terms
    body = gps.geometric_in(1, (1,), Q(-2, 3))
    f = make_laurent(sx, sx.unit(), body)
    n = cut(sx, 4)
    t = truncate(f, n)
    want = [((k,), Q(-2, 3) ** k) for k in range(5)]
    assert f.convergence is None and t.convergence == S.Convergence()
    assert t.provenance == f"trunc({f.provenance},{n})"
    assert order_type(f).exact == OmegaPoly.omega_power(1)
    assert order_type(t).exact == OmegaPoly.finite(5)
    assert t.terms_to_cutoff(cut(sx, 100)) == want
    assert truncate(t, n).terms_to_cutoff(cut(sx, 100)) == want
    # zeros on skeleton points are dropped from the result
    g = S.LaurentSeries(sx, lambda: iter([
        ((0,), Q(1)), ((1,), Q(0)), ((2,), Q(-3, 2)), ((5,), Q(2))]))
    tg = truncate(g, cut(sx, 3))
    assert tg.convergence == S.Convergence()
    assert order_type(tg).exact == OmegaPoly.finite(2)
    assert truncate(tg, cut(sx, 3)).terms_to_cutoff(cut(sx, 9)) == [
        ((0,), 1), ((2,), Q(-3, 2))]


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
    c = cut(sx, 50)
    assert lhs.terms_to_cutoff(c) == rhs.terms_to_cutoff(c)
    again = truncate(truncate(f, n), n)
    assert again.terms_to_cutoff(c) == truncate(f, n).terms_to_cutoff(c)


def test_invert_geometric_identity(sx):
    f = from_terms(sx, {(0,): 1, (1,): -1})  # 1 - exp(-x)
    inv = invert(f)
    got = inv.terms_to_cutoff(cut(sx, 10))
    assert got == [((Q(n),), Q(1)) for n in range(11)]
    # the same 1 - exp(-x) over an infinite skeleton whose coefficients are
    # zero past exp(-x): the zero points stay in the remainder's stream
    one_minus = gps.from_terms(1, {(0,): 1, (1,): -1})
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
    one_minus = gps.from_terms(1, {(0,): 1, (1,): -1})
    body = one_minus * gps.geometric_in(1, (1,)) + gps.from_terms(1, {(100,): 1})
    f = make_laurent(sx, sx.unit(), body)
    with pytest.raises((ZeroWithinBound, CutoffTooDeep)):
        invert(f, budget=50).terms_to_cutoff(cut(sx, 200))
    assert invert(f).terms_to_cutoff(cut(sx, 200)) == [
        ((Q(0),), Q(1)), ((Q(100),), Q(-1)), ((Q(200),), Q(1))]


def test_invert_two_terms_closed_form(sx, sxl):
    # 1/(a m^p + b m^(p+s)) = sum_k (-b)^k / a^(k+1) m^(k s - p) to depth 200,
    # with the lead p at and away from the origin and an arity-2 step
    a, b = Q(-3, 2), Q(2, 5)
    for sc, p, s in ((sx, (0,), (1,)), (sx, (-3,), (1,)), (sx, (2,), (1,)),
                     (sxl, (0, 0), (1, -2)), (sxl, (-1, 3), (1, -2))):
        f = from_terms(sc, {p: a, tuple(x + y for x, y in zip(p, s)): b})
        want = [(tuple(k * y - x for x, y in zip(p, s)), (-b) ** k / a ** (k + 1))
                for k in range(201)]
        assert invert(f).terms_to_cutoff(Monomial(sc, want[-1][0])) == want


def test_invert_budget_edge(sx):
    # 1 followed by k-1 zero skeleton points: within a budget of 50 the
    # stream is seen to end, proving f = 1, only when k = 50
    def f(k):
        body = (gps.from_terms(1, {(i,): 1 for i in range(k)})
                - gps.from_terms(1, {(i,): 1 for i in range(1, k)}))
        return make_laurent(sx, sx.unit(), body)

    assert list(invert(f(50), budget=50).iter_terms()) == [((0,), 1)]
    # f has a leading term, so the refusal names the remainder
    with pytest.raises(ZeroWithinBound, match="remainder .* does not end"):
        invert(f(51), budget=50)
    with pytest.raises(ZeroWithinBound, match="no nonzero coefficient"):
        invert(from_terms(sx, {}), budget=50)


def test_invert_order_type(sx, sxl):
    for f, want in ((from_terms(sx, {(0,): 1, (1,): -1}), (1, "omega")),
                    (from_terms(sxl, {(0, 0): 1, (0, 1): -1, (1, 0): 1}),
                     (2, "omega^2")),
                    (from_terms(sxl, {(0, 0): 1, (1, -1): -1}), (2, None)),
                    # a zero before lm is skipped, and f's stream ends
                    (S.LaurentSeries(sxl, lambda: iter([
                        ((0, -1), Q(0)), ((0, 0), Q(1)), ((0, 1), Q(-1))])),
                     (1, "omega"))):
        ot = order_type(invert(f))
        exact = None if ot.exact is None else str(ot.exact)
        assert (ot.bound_exponent, exact) == want


def _invert_sxl(sxl):
    return invert(from_terms(sxl, {(0, 0): 2, (1, 0): -3, (1, -2): 1,
                                   (2, 1): Q(1, 2)}))


def _check_shared_across_threads(build, c):
    """Truncates one series built by ``build`` and reads its order type from
    2*nproc+2 threads at a short switch interval; each must get the
    single-threaded answers."""
    ref = build()
    want = (order_type(ref, budget=40), ref.terms_to_cutoff(c))
    shared = build()
    nthreads = 2 * (os.cpu_count() or 1) + 2
    results = [None] * nthreads

    def work(k):
        results[k] = (order_type(shared, budget=40),
                      shared.terms_to_cutoff(c))

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
        assert prod.terms_to_cutoff(_depth_cutoff(prod, 8)) == [((0, 0), 1)]


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
        return from_terms(sxl, terms or {(0, 0): 1})

    for _ in range(10):
        f, g, h = rand_series(), rand_series(), rand_series()
        c = cut(sxl, 5, 5)
        for lhs, rhs in (((f + g) + h, f + (g + h)),
                         (f + g, g + f),
                         ((f * g) * h, f * (g * h)),
                         (f * g, g * f),
                         (f * (g + h), f * g + f * h),
                         ((f + g) - g, f)):
            assert lhs.terms_to_cutoff(c) == rhs.terms_to_cutoff(c)


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
        body = gps.from_terms(2, {(0, 0): 1})
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
    assert s.terms_to_cutoff(cut(sx, 9)) == inv.terms_to_cutoff(cut(sx, 9))


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


def test_sum_family_fast_forwards_zeros_above_hint(sx):
    # member nu is sum_(k >= nu) m^k, read over the geometric skeleton from
    # m^0: its nu zero points above m^nu are skipped, so the sum ascends
    fam = lambda nu: geometric(sx, cut(sx, 1)).subseries(lambda v: v[0] >= nu)
    s = sum_family(sx, fam, 0, lambda nu: cut(sx, nu))
    assert list(itertools.islice(s.iter_terms(), 12)) == [
        ((k,), k + 1) for k in range(12)]


def test_sum_family_fast_forward_budget(sx):
    # one member with hint m^zeros, whose stream has `zeros` zero skeleton
    # points above it; DEFAULT_BUDGET zeros are skipped, one more refuses
    def family(zeros):
        fam = lambda nu: (geometric(sx, cut(sx, 1))
                          .subseries(lambda v: v[0] >= zeros)
                          if nu == 0 else None)
        lm = lambda nu: cut(sx, zeros) if nu == 0 else None
        return sum_family(sx, fam, 0, lm)

    s = family(gps.DEFAULT_BUDGET)
    assert s.terms_to_cutoff(cut(sx, gps.DEFAULT_BUDGET)) == [
        ((gps.DEFAULT_BUDGET,), 1)]
    with pytest.raises(CutoffTooDeep, match="fast-forward"):
        family(gps.DEFAULT_BUDGET + 1).terms_to_cutoff(cut(sx, 0))


def test_sum_family_none_member_ends_the_family(sx):
    # F_1 is None while F_0's m^5 is still unread and the leading monomials
    # go on: F_2 = m^2 and F_3 = m^3 are never opened, so the stream ascends
    members = {0: {(0,): 1, (5,): 1}, 2: {(2,): 1}, 3: {(3,): 1}}
    fam = lambda nu: (from_terms(sx, members[nu]) if nu in members
                      else None)
    s = sum_family(sx, fam, 0, lambda nu: cut(sx, nu))
    got = list(s.iter_terms())
    assert got == sorted(got) == [((0,), 1), ((5,), 1)]
    assert s.terms_to_cutoff(cut(sx, 3)) == [((0,), 1)]


def test_sum_family_opening_budget(sx):
    # empty members: the frontier never moves, so every next member is
    # opened; member 0 and DEFAULT_BUDGET more open, one more refuses
    def family(members):
        fam = lambda nu: from_terms(sx, {}) if nu < members else None
        lm = lambda nu: cut(sx, nu) if nu < members else None
        return sum_family(sx, fam, 0, lm)

    assert family(gps.DEFAULT_BUDGET + 1).terms_to_cutoff(cut(sx, 0)) == []
    with pytest.raises(CutoffTooDeep, match="opening budget"):
        family(gps.DEFAULT_BUDGET + 2).terms_to_cutoff(cut(sx, 0))


def _zero_gps():
    """A series that is zero on an infinite universe."""
    return gps.geometric_in(1, (1,)) - gps.geometric_in(1, (1,))


def _bounded(call, timeout=10):
    """call() in a daemon thread, its exception raised again here: a call
    that does not end in time fails the test, and leaves no thread that
    holds up the interpreter's exit."""
    raised = []

    def run():
        try:
            call()
        except BaseException as exc:
            raised.append(exc)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "the call did not end in time"
    if raised:
        raise raised[0]


@pytest.mark.parametrize("entry", ["shifted", "sum_family", "project_class",
                                   "partial_deriv", "enumerate",
                                   "enumerate_finite", "equal_to_bound",
                                   "monomial_short", "monomial_long",
                                   "scale_monomial",
                                   "contains", "contains_explicit",
                                   "universe_shifted", "generated_short",
                                   "finite_short", "generated_offset",
                                   "universe_union", "universe_sum",
                                   "coeff_short", "coeff_long",
                                   "coeff_explicit_short",
                                   "coeff_explicit_long", "gps_from_terms",
                                   "gps_monomial", "from_terms_short",
                                   "from_terms_long", "make_laurent",
                                   "box_points_short", "box_points_long",
                                   "gps_add", "gps_mul", "compose_ps_coeff",
                                   "truncate_stream", "sum_numeric_stream",
                                   "mul_none", "mul_str", "scaled_str",
                                   "shifted_monomial", "shifted_none",
                                   "subseries_keep", "order_type_budget",
                                   "terms_to_cutoff_budget", "invert_budget",
                                   "order_type_budget_float",
                                   "truncate_budget_none",
                                   "sum_numeric_budget_float",
                                   "invert_budget_float", "shifted_str",
                                   "shifted_bytes", "from_terms_str",
                                   "from_terms_nan", "gps_from_terms_nan",
                                   "gps_from_terms_none",
                                   "from_terms_str_coord",
                                   "scaled_str_rational", "monomial_none",
                                   "monomial_str", "geometric_in_none",
                                   "coeff_none", "g_pow_str", "g_pow_none",
                                   "monomial_pow_nan", "monomial_ctor_str",
                                   "monomial_ctor_none", "generated_none",
                                   "invert_budget_huge",
                                   "order_type_budget_huge",
                                   "compose_ps_p_none",
                                   "assert_convergent_huge",
                                   "sum_numeric_x_huge",
                                   "project_class_str", "project_class_none",
                                   "project_class_float", "invert_none",
                                   "order_type_none", "truncate_none",
                                   "sum_numeric_none", "compose_right_none",
                                   "make_laurent_body_none",
                                   "make_laurent_scale_none",
                                   "make_scale_none", "from_terms_scale_none",
                                   "gps_order_budget_none",
                                   "compose_ps_budget_none",
                                   "gps_order_budget_negative",
                                   "gps_order_budget_float",
                                   "gps_order_budget_huge",
                                   "gps_mul_none", "gps_add_none",
                                   "gps_mul_int", "gps_sub_none",
                                   "compose_ps_none", "compose_ps_g_none",
                                   "compose_ps_dict",
                                   "gps_from_terms_dict_none",
                                   "partial_deriv_str",
                                   "gps_from_terms_arity_str",
                                   "from_terms_dict_none", "sum_family_none",
                                   "sum_family_class_str",
                                   "universe_points_none",
                                   "universe_arity_str",
                                   "universe_arity_float",
                                   "universe_arity_negative"])
def test_wrong_arity_or_index_is_typed(sx, sxl, X, entry):
    # each public entry point that takes a vector, an index, a scalar or a
    # budget refuses one that does not fit with a typed error, not an
    # IndexError, a bare TypeError or ValueError, or a silently truncated
    # answer
    uni = SupportUniverse(2, [(0, 0)], [(1, 0)])
    # a stream of arity-2 vectors under an arity-1 scale
    raw = S.LaurentSeries(sx, lambda: iter([((0, 1), Q(1))]), convergence=S.Convergence())
    calls = {
        # a short monomial used to be zipped away by every consumer
        "monomial_short": (ArityMismatch, lambda: Monomial(sxl, (1,))),
        "monomial_long": (ArityMismatch, lambda: Monomial(sx, (1, 0))),
        "scale_monomial": (ArityMismatch, lambda: sx.monomial([1, 0])),
        # a miss used to raise a bare StopIteration from the lead search
        "contains": (ArityMismatch, lambda: uni.contains((1,))),
        # an arity is a nonnegative int; a str or float one used to be kept
        # and refuse every point, "has arity 2, expected 2"
        "universe_arity_str": (NotInFragment,
                               lambda: SupportUniverse("2", [])),
        "universe_arity_float": (NotInFragment,
                                 lambda: SupportUniverse(2.0, [(1, 2)])),
        "universe_arity_negative": (NotInFragment,
                                    lambda: SupportUniverse(-1, [])),
        "contains_explicit": (ArityMismatch, lambda: SupportUniverse(
            2, [(1, 0)]).contains((1,))),
        "universe_shifted": (ArityMismatch, lambda: uni.shifted((1,))),
        # the constructors and combinators used to keep the foreign vector
        "generated_short": (ArityMismatch,
                            lambda: SupportUniverse(2, [(0, 0)], [(1,)])),
        "finite_short": (ArityMismatch,
                         lambda: SupportUniverse(2, [(1,)])),
        "generated_offset": (ArityMismatch, lambda: SupportUniverse(
            2, [(0,)], [(1, 0)])),
        "universe_union": (ArityMismatch, lambda: SupportUniverse(
            2, [(0, 0)], [(0, 1)]).union(SupportUniverse(3, [(0, 0, 0)],
                                                         [(0, 0, 1)]))),
        "universe_sum": (ArityMismatch, lambda: SupportUniverse(
            2, [(0, 0)], [(0, 1)]).sum(SupportUniverse(3, [(0, 0, 0)],
                                                       [(0, 0, 1)]))),
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
        # equality below a bound is decided by comparing the two enumerations
        "equal_to_bound": (ArityMismatch, lambda: gps.from_terms(
            2, {(1, 0): 1}).enumerate((3,)) == gps.from_terms(
                2, {(0, 1): 2}).enumerate((3,))),
        # coeff is the one checked read of a coefficient, whatever the point
        "coeff_short": (ArityMismatch,
                        lambda: gps.geometric_in(2, (0, 1)).coeff((1,))),
        "coeff_long": (ArityMismatch,
                       lambda: gps.geometric_in(2, (0, 1)).coeff((0, 1, 0))),
        "coeff_explicit_short": (ArityMismatch, lambda: gps.from_terms(
            2, {(1, 0): 1}).coeff((1,))),
        "coeff_explicit_long": (ArityMismatch, lambda: gps.from_terms(
            2, {(1, 0): 1}).coeff((1, 0, 0))),
        "gps_from_terms": (ArityMismatch,
                           lambda: gps.from_terms(2, {(1,): 1})),
        "gps_monomial": (ArityMismatch,
                         lambda: gps.from_terms(2, {(1, 0, 0): Q(3)})),
        "from_terms_short": (ArityMismatch,
                             lambda: from_terms(sxl, {(1,): 1})),
        "from_terms_long": (ArityMismatch,
                            lambda: from_terms(sx, {(1, 0): 1})),
        "make_laurent": (ArityMismatch, lambda: make_laurent(
            sx, sx.unit(), gps.from_terms(2, {(1, 0): 1}))),
        "box_points_short": (ArityMismatch, lambda: uni.box_points((3,))),
        "box_points_long": (ArityMismatch,
                            lambda: uni.box_points((3, 3, 3))),
        "gps_add": (ArityMismatch, lambda: gps.geometric_in(1, (1,))
                    + gps.geometric_in(2, (0, 1))),
        "gps_mul": (ArityMismatch, lambda: gps.geometric_in(1, (1,))
                    * gps.geometric_in(2, (0, 1))),
        "compose_ps_coeff": (ArityMismatch, lambda: gps.compose_ps(
            [0, 1], gps.from_terms(2, {(1, 0): 1})).coeff((1,))),
        # the vectors of a raw stream are checked where a finite series or a
        # float is made from them
        "truncate_stream": (ArityMismatch, lambda: truncate(raw, cut(sx, 3))),
        "sum_numeric_stream": (ArityMismatch,
                               lambda: sum_numeric(raw, 2.0, cut(sx, 3))),
        # a scalar is a rational, as a germ argument is a germ
        "mul_none": (NotInFragment, lambda: from_terms(sx, {(0,): 1}) * None),
        "mul_str": (NotInFragment, lambda: from_terms(sx, {(0,): 1}) * "abc"),
        "scaled_str": (NotInFragment,
                       lambda: from_terms(sx, {(0,): 1}).scaled("abc")),
        # a shift is an exponent vector, not a monomial
        "shifted_monomial": (NotInFragment, lambda: from_terms(
            sx, {(0,): 1}).shifted(cut(sx, 1))),
        "shifted_none": (NotInFragment,
                         lambda: from_terms(sx, {(0,): 1}).shifted(None)),
        # a keep that is not callable used to fail only when the stream read it
        "subseries_keep": (NotInFragment,
                           lambda: from_terms(sx, {(0,): 1}).subseries(3)),
        # islice used to raise a bare ValueError; terms_to_cutoff refuses a
        # negative budget with CutoffTooDeep
        "order_type_budget": (CutoffTooDeep, lambda: order_type(
            geometric(sx, cut(sx, 1)), budget=-5)),
        # every budget is checked by one rule: a negative one refuses even
        # where no term is read, and one that is not an int is a DomainError
        "terms_to_cutoff_budget": (CutoffTooDeep, lambda: from_terms(
            sx, {(2,): 1}).terms_to_cutoff(cut(sx, 1), budget=-1)),
        "invert_budget": (CutoffTooDeep, lambda: invert(
            geometric(sx, cut(sx, 1)), budget=-1)),
        "order_type_budget_float": (DomainError, lambda: order_type(
            geometric(sx, cut(sx, 1)), budget=2.5)),
        "truncate_budget_none": (DomainError, lambda: truncate(
            geometric(sx, cut(sx, 1)), cut(sx, 3), budget=None)),
        "sum_numeric_budget_float": (DomainError, lambda: sum_numeric(
            geometric(sx, cut(sx, 1)), 2.0, cut(sx, 3), budget=1.5)),
        "invert_budget_float": (DomainError, lambda: invert(
            geometric(sx, cut(sx, 1)), budget=2.0)),
        # a string used to be read one coordinate per character
        "shifted_str": (NotInFragment,
                        lambda: from_terms(sxl, {(0, 0): 1}).shifted("12")),
        "shifted_bytes": (NotInFragment,
                          lambda: from_terms(sxl, {(0, 0): 1}).shifted(b"12")),
        "from_terms_str": (NotInFragment, lambda: from_terms(sx, {"3": 1})),
        # a number is read by support.rational: nan is no rational, and a
        # str is refused, not parsed
        "from_terms_nan": (NotInFragment,
                           lambda: from_terms(sx, {(1,): math.nan})),
        "gps_from_terms_nan": (NotInFragment,
                               lambda: gps.from_terms(1, {(0,): math.nan})),
        # None used to be skipped as a zero coefficient
        "gps_from_terms_none": (NotInFragment,
                                lambda: gps.from_terms(1, {(0,): None})),
        "from_terms_str_coord": (NotInFragment,
                                 lambda: from_terms(sx, {("3",): 1})),
        "scaled_str_rational": (NotInFragment, lambda: from_terms(
            sx, {(0,): 1}).scaled("1/3")),
        "g_pow_str": (NotInFragment, lambda: g_pow(X, "a")),
        "g_pow_none": (NotInFragment, lambda: g_pow(X, None)),
        "monomial_pow_nan": (NotInFragment, lambda: cut(sx, 1) ** math.nan),
        # a vector is read by support.vec: None and a str are no vectors
        "monomial_none": (NotInFragment, lambda: sx.monomial(None)),
        "monomial_str": (NotInFragment, lambda: sx.monomial("3")),
        "geometric_in_none": (NotInFragment,
                              lambda: gps.geometric_in(1, None)),
        "coeff_none": (NotInFragment,
                       lambda: gps.geometric_in(1, (1,)).coeff(None)),
        # the constructors read a vector with vec before its length: a str
        # used to stand as a monomial's vector, None to fail in len
        "monomial_ctor_str": (NotInFragment, lambda: Monomial(sx, "3")),
        "monomial_ctor_none": (NotInFragment, lambda: Monomial(sx, None)),
        "generated_none": (NotInFragment,
                           lambda: SupportUniverse(2, [(0, 0)], [None])),
        # islice counts up to sys.maxsize and used to raise a bare ValueError
        "invert_budget_huge": (DomainError, lambda: invert(
            geometric(sx, cut(sx, 1)), budget=10**400)),
        "order_type_budget_huge": (DomainError, lambda: order_type(
            geometric(sx, cut(sx, 1)), budget=10**400)),
        # P's coefficient is read with rational; None used to count as 0
        "compose_ps_p_none": (NotInFragment, lambda: gps.compose_ps(
            lambda k: None, gps.from_terms(1, {(1,): 1})).coeff((2,))),
        # an int past float range used to overflow math.isfinite
        "assert_convergent_huge": (DomainError, lambda: from_terms(
            sx, {(0,): 1}).assert_convergent(10**400)),
        "sum_numeric_x_huge": (DomainError, lambda: sum_numeric(
            geometric(sx, cut(sx, 1)), 10**400, cut(sx, 3))),
        # a class index is an int; these used to raise a bare TypeError
        "project_class_str": (ArityMismatch,
                              lambda: project_class(sx, "0", cut(sx, 1))),
        "project_class_none": (ArityMismatch,
                               lambda: project_class(sx, None, cut(sx, 1))),
        "project_class_float": (ArityMismatch,
                                lambda: project_class(sx, 0.0, cut(sx, 1))),
        # a series, scale or body argument is read by one reader of its
        # kind; None used to raise AttributeError, or stand as a scale
        "invert_none": (NotInFragment, lambda: invert(None)),
        "order_type_none": (NotInFragment, lambda: order_type(None)),
        "truncate_none": (NotInFragment, lambda: truncate(None, cut(sx, 1))),
        "sum_numeric_none": (NotInFragment,
                             lambda: sum_numeric(None, 1.0, cut(sx, 1))),
        "compose_right_none": (NotInFragment, lambda: compose_right(None, X)),
        "make_laurent_body_none": (NotInFragment,
                                   lambda: make_laurent(sx, sx.unit(), None)),
        "make_laurent_scale_none": (NotInFragment, lambda: make_laurent(
            None, sx.unit(), gps.geometric_in(1, (1,)))),
        "make_scale_none": (NotInFragment, lambda: make_scale(None)),
        "from_terms_scale_none": (NotInFragment, lambda: from_terms(None, {})),
        # a gps budget is checked as every term budget is; None used to
        # search a zero series forever, and islice raised a bare ValueError
        "gps_order_budget_none": (DomainError, lambda: _bounded(
            lambda: _zero_gps().order(None))),
        "compose_ps_budget_none": (DomainError, lambda: _bounded(
            lambda: gps.compose_ps([1, 1], _zero_gps(), budget=None))),
        "gps_order_budget_negative": (CutoffTooDeep,
                                      lambda: _zero_gps().order(-1)),
        "gps_order_budget_float": (DomainError,
                                   lambda: _zero_gps().order(2.5)),
        "gps_order_budget_huge": (DomainError,
                                  lambda: _zero_gps().order(10**30)),
        # a gps operand is a GenSeries; these used to raise AttributeError
        # or a bare TypeError, or to answer over a str arity
        "gps_mul_none": (NotInFragment,
                         lambda: gps.geometric_in(1, (1,)) * None),
        "gps_add_none": (NotInFragment,
                         lambda: gps.geometric_in(1, (1,)) + None),
        "gps_mul_int": (NotInFragment, lambda: gps.geometric_in(1, (1,)) * 2),
        "gps_sub_none": (NotInFragment,
                         lambda: gps.geometric_in(1, (1,)) - None),
        "compose_ps_none": (NotInFragment, lambda: gps.compose_ps(
            None, gps.geometric_in(1, (1,)))),
        "compose_ps_g_none": (NotInFragment,
                              lambda: gps.compose_ps([1], None)),
        # P is a sequence of coefficients or a function of the index; a dict
        # used to be read by its keys
        "compose_ps_dict": (NotInFragment, lambda: gps.compose_ps(
            {1: 2}, gps.from_terms(1, {(1,): 1}))),
        "gps_from_terms_dict_none": (NotInFragment,
                                     lambda: gps.from_terms(1, None)),
        "partial_deriv_str": (ArityMismatch, lambda: gps.geometric_in(
            1, (1,)).partial_deriv("0")),
        "gps_from_terms_arity_str": (NotInFragment,
                                     lambda: gps.from_terms("1", {})),
        # these used to raise AttributeError or a bare TypeError; a class
        # index is refused as project_class refuses it
        "from_terms_dict_none": (NotInFragment, lambda: from_terms(sx, None)),
        "sum_family_none": (NotInFragment,
                            lambda: sum_family(sx, None, 0, None)),
        "sum_family_class_str": (ArityMismatch, lambda: sum_family(
            sx, lambda nu: from_terms(sx, {(nu,): 1}), "0",
            lambda nu: cut(sx, nu))),
        "universe_points_none": (NotInFragment,
                                 lambda: SupportUniverse(2, None)),
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
    assert g.terms_to_cutoff(cut(sx, 6)) == f.terms_to_cutoff(cut(sx, 6))


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
        via = sum(float(c) * value(g.scale, v, xv) for v, c in got)
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
    # the germ ring's public functions used to raise a bare AttributeError
    for call in (lambda: g_add(X, bad), lambda: g_add(bad, X),
                 lambda: G.g_mul(X, bad), lambda: G.g_mul(bad, X),
                 lambda: g_scale(bad, 2), lambda: g_neg(bad),
                 lambda: g_pow(bad, 2), lambda: G.compare(X, bad),
                 lambda: G.compare(bad, X), lambda: G.derivative(bad),
                 lambda: G.compose_exact(X, bad),
                 lambda: G.compose_exact(bad, X),
                 lambda: G.inverse(bad),
                 lambda: lift_germ(sx, bad),
                 lambda: make_scale([bad])):
        with pytest.raises(NotInFragment):
            call()
    with pytest.raises(NotAScaleAfterShift) as info:
        compose_right(from_terms(sx, {(0,): 1}), bad)
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
    return S.LaurentSeries(f.scale, f.iter_terms)


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


def test_product_reads_each_operand_term_once(sx, monkeypatch):
    # two 30-term operands, and one squared: every term read is kept
    # unpacked, so each memo is read once per term and once at its end
    fa = from_terms(sx, {(k,): k + 1 for k in range(30)})
    fb = from_terms(sx, {(2 * k,): Q(1, k + 2) for k in range(30)})
    want = _convolve({(k,): Q(k + 1) for k in range(30)},
                     {(2 * k,): Q(1, k + 2) for k in range(30)})
    reads = {}
    real_get = S.MemoStream.get

    def counted_get(self, i):
        reads[self] = reads.get(self, 0) + 1
        return real_get(self, i)

    monkeypatch.setattr(S.MemoStream, "get", counted_get)
    got = (fa * fb).terms_to_cutoff(cut(sx, 100))
    assert got == sorted((v, c) for v, c in want.items() if c)
    assert reads[fa._memo] == reads[fb._memo] == 31
    reads.clear()
    (fa * fa).terms_to_cutoff(cut(sx, 100))
    assert reads[fa._memo] == 31


def test_invert_reads_each_term_of_f_once(sx, monkeypatch):
    # the scan for f's leading terms and the division share f's terms, and
    # a finished f is not read again: 2 terms and 1 end, for 40 terms of c
    reads = []
    real_get = S.MemoStream.get

    def counted_get(self, i):
        if self is f._memo:
            reads.append(i)
        return real_get(self, i)

    f = from_terms(sx, {(0,): 1, (1,): Q(-1, 3)})
    monkeypatch.setattr(S.MemoStream, "get", counted_get)
    got = invert(f).terms_to_cutoff(cut(sx, 39))
    assert got == [((k,), Q(1, 3 ** k)) for k in range(40)]
    assert reads == [0, 1, 2]


def test_squarings_and_truncate_build_no_universe(sx, monkeypatch):
    # a skeleton is a callable, so no universe is built until order_type
    body = gps.from_terms(1, {(0,): 1, (1,): 1})
    built = []
    real_init = SupportUniverse.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(SupportUniverse, "__init__", counted_init)
    f = make_laurent(sx, sx.unit(), body)
    for _ in range(6):
        f = f * f
    t = truncate(f, cut(sx, 64))
    assert t.terms_to_cutoff(cut(sx, 64)) == [
        ((i,), math.comb(64, i)) for i in range(65)]
    assert built == []


def test_order_type_of_a_long_chain_does_not_recurse(sx):
    # each sum is pulled as it is built, so its stream reads a full memo;
    # a sum carries no skeleton, so order_type reads only the stream
    f = from_terms(sx, {(0,): 1})
    for k in range(3 * sys.getrecursionlimit()):
        f = f + from_terms(sx, {(k % 7,): 1})
        list(f.iter_terms())
    assert order_type(f).exact == OmegaPoly.finite(7)
    # g = 2x: one nonzero term in an unending stream of zeros
    g = f.shifted((1,)).scaled(2) * invert(f)
    assert order_type(g, budget=40) == S.OrderTypeBound(1, None, 1)
    # a shifted chain reads its leaf's skeleton once, shifted by the sum
    h = make_laurent(sx, sx.unit(), gps.geometric_in(1, (1,)))
    for _ in range(3 * sys.getrecursionlimit()):
        h = h.shifted((1,)).scaled(-1)
        list(itertools.islice(h.iter_terms(), 6))
    assert h._skeleton(5).points == ((3 * sys.getrecursionlimit(),),)
    assert order_type(h, budget=5) == S.OrderTypeBound(
        1, OmegaPoly.omega_power(1), 5)


CHAIN = 10_000


@pytest.mark.parametrize("op", ["shifted", "scaled", "neg", "subseries"])
def test_a_long_unary_chain_answers(sx, op):
    # built first and read once; each link used to nest one more generator
    # pull, so a few hundred raised RecursionError.  The leaf is sum_j x^j
    f = geometric(sx, cut(sx, 1))
    for k in range(CHAIN):
        if op == "shifted":
            f = f.shifted((1,))
        elif op == "scaled":
            f = f.scaled(Q(k + 2, k + 1))  # the product telescopes to CHAIN + 1
        elif op == "neg":
            f = -f
        else:
            # drops the odd exponents below 20
            f = f.subseries(lambda v, k=k: v[0] != 2 * (k % 10) + 1)
    want = {"shifted": [((CHAIN + j,), 1) for j in range(25)],
            "scaled": [((j,), CHAIN + 1) for j in range(25)],
            "neg": [((j,), (-1) ** CHAIN) for j in range(25)],
            "subseries": [((j,), 1) for j in range(25) if j % 2 == 0 or j >= 20]}
    last = CHAIN + 24 if op == "shifted" else 24
    assert f.terms_to_cutoff(cut(sx, last)) == want[op]


def test_a_long_mixed_unary_chain_answers(sx, X):
    # a seeded mix of the six unary operations, built first and read once,
    # against each operation applied in turn to each term of sum_j x^j
    rng = random.Random(13)
    f, ops, shift = geometric(sx, cut(sx, 1)), [], 0
    for _ in range(CHAIN):
        op = rng.randrange(6)
        if op == 0:
            d = rng.randrange(-1, 3)
            f, shift = f.shifted((d,)), shift + d
            ops.append(lambda v, c, d=d: (v + d, c))
        elif op == 1:
            q = rng.choice([Q(-1), Q(2), Q(1, 2), Q(1)])
            f = f.scaled(q)
            ops.append(lambda v, c, q=q: (v, q * c))
        elif op == 2:
            f = -f
            ops.append(lambda v, c: (v, -c))
        elif op == 3:
            t = shift + rng.randrange(-2000, 2000)
            f = f.subseries(lambda v, t=t: v[0] != t)
            ops.append(lambda v, c, t=t: (v, c if v != t else 0))
        elif op == 4:
            f = f.assert_convergent(rng.choice([None, 1.0]))
        else:
            f = compose_right(f, X)
    want = []
    for j in range(13):
        v, c = j, Q(1)
        for op in ops:
            v, c = op(v, c)
        if c:
            want.append(((v,), c))
    assert f.terms_to_cutoff(f.scale.monomial([shift + 12])) == want
    assert 0 < len(want) < 13  # some keep bites, and not every one


def _skeleton_leaves(sxl):
    """One series of each kind that records a skeleton, over (x, log x)."""
    yield from_terms(sxl, {(0, -1): 2, (0, 1): -1, (1, -2): 3})
    # zero on its even points, which the truncation drops
    yield truncate(make_laurent(sxl, sxl.unit(),
                                gps.geometric_in(2, (1, 1), Q(5, 2))
                                - gps.geometric_in(2, (2, 2), Q(25, 4))),
                   cut(sxl, 7, 7))
    yield make_laurent(sxl, sxl.monomial([1, -1]),
                       gps.from_terms(2, {(0, 0): 1, (1, 1): -2, (0, 3): 1}))
    yield make_laurent(sxl, sxl.monomial([0, -1]),
                       gps.geometric_in(2, (1, 0))
                       * gps.geometric_in(2, (0, 1), Q(-1)))
    yield make_laurent(sxl, sxl.unit(), gps.compose_ps(
        lambda k: Q(1, k + 1), gps.from_terms(2, {(1, 0): 1, (0, 1): 1})))
    yield geometric(sxl, cut(sxl, 0, 1), 3)
    yield _invert_sxl(sxl)
    # a zero before and after lm: both stay skeleton points
    yield invert(S.LaurentSeries(sxl, lambda: iter([
        ((0, -1), Q(0)), ((0, 0), Q(1)), ((0, 1), Q(0)), ((1, -1), Q(-1))])))


def test_skeleton_is_what_the_stream_enumerates(sxl, X):
    # the first 60 skeleton points, in lex order, are the stream's vectors,
    # zeros included, for each leaf and each map and view of it
    maps = [lambda f: f, lambda f: f.shifted((1, -2)), lambda f: f.scaled(3),
            lambda f: -f, lambda f: f.subseries(lambda v: v[0] != 1),
            lambda f: f.assert_convergent(),
            lambda f: compose_right(f, g_exp(X)),
            lambda f: compose_right(f.shifted((0, 1)), X).scaled(0)]
    for leaf in _skeleton_leaves(sxl):
        for fn in maps:
            f = fn(leaf)
            skeleton = f._skeleton(512)
            got = [v for v, _ in itertools.islice(f.iter_terms(), 60)]
            assert list(itertools.islice(skeleton.lex_stream(), 60)) == got


def test_sum_and_product_report_no_exact_type(sxl):
    # the union and sum of two leaf universes over-approximate: each of
    # these is of type omega, omega or omega*2, and none is omega^2
    geo = make_laurent(sxl, sxl.unit(), gps.geometric_in(2, (1, 0)))
    for f in (geo + geo.shifted((0, 5)),
              from_terms(sxl, {(0, 0): 1, (0, 5): 1}) * geo,
              geo + make_laurent(sxl, sxl.unit(),
                                 gps.geometric_in(2, (0, 1))).shifted((1, 0))):
        ot = order_type(f)
        assert (ot.bound_exponent, ot.exact) == (2, None)


def test_gps_sum_and_product_of_a_finite_set_add_no_blocks(sxl):
    # a finite set keeps its points beside a ray's generator, so the gps sum
    # and product answer the terms of the series-level ones, where a point
    # made a generator used to add an infinite block at first coordinate 0
    geo = gps.geometric_in(2, (1, 0))
    one = gps.from_terms(2, {(0, 5): 1})
    two = gps.from_terms(2, {(0, 0): 1, (0, 5): 1})
    lau = lambda body: make_laurent(sxl, sxl.unit(), body)
    for body, series, cutoff, n in ((geo + one, lau(geo) + lau(one), [2, 0], 4),
                                    (two * geo, lau(two) * lau(geo), [1, 0], 3)):
        want = series.terms_to_cutoff(sxl.monomial(cutoff))
        assert len(want) == n
        assert lau(body).terms_to_cutoff(sxl.monomial(cutoff)) == want


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


@pytest.mark.parametrize("gens", ["x", "x, log x", "exp x, x"])
def test_sum_numeric_matches_monomial_eval(X, LOG, gens):
    # value and tail are the fsum of float(c) times the monomial's value at
    # x, exactly
    s = make_scale({"x": [X], "x, log x": [X, LOG],
                    "exp x, x": [g_exp(X), X]}[gens])
    rng = random.Random(gens)
    x, cutoff = 2.0, s.monomial([1] + [0] * (s.arity - 1))

    def by_hand(terms):
        kept = sorted(terms.items())
        vals = [float(c) * value(s, v, x) for v, c in kept
                if v <= cutoff.vector]
        tail = next((abs(float(c) * value(s, v, x))
                     for v, c in kept if v > cutoff.vector), 0.0)
        return math.fsum(vals), tail

    for _ in range(30):
        terms = {tuple(Q(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(s.arity)):
                 Q(rng.randint(-9, 9) or 1, rng.randint(1, 7))
                 for _ in range(rng.randint(1, 6))}
        assert sum_numeric(from_terms(s, terms), x, cutoff) == by_hand(terms)
    # exp(1000 f_0) overflows to inf, in the sum and, past the cutoff, as
    # the tail
    big = (-1000,) + (0,) * (s.arity - 1)
    terms = {big: 3, cutoff.vector: 1}
    assert sum_numeric(from_terms(s, terms), x, cutoff) == by_hand(terms)
    assert by_hand(terms)[0] == math.inf
    if s.arity == 2:
        terms = {(0, 0): 1, (2, -2000): Q(-1, 2)}
        assert sum_numeric(from_terms(s, terms), x, cutoff) == by_hand(terms)
        assert by_hand(terms) == (1.0, math.inf)
    # a ratio of two ints past float range is one correctly rounded float,
    # the one float(c) gives
    ratio = {(0,) * s.arity: Q(10 ** 400 + 1, 3 * 10 ** 400)}
    assert sum_numeric(from_terms(s, ratio), x, cutoff) == by_hand(ratio)
    assert by_hand(ratio) == (1 / 3, 0.0)
    # a coefficient too large for a float raises as float() does
    huge = {(0,) * s.arity: Q(10 ** 400)}
    with pytest.raises(OverflowError):
        by_hand(huge)
    with pytest.raises(OverflowError):
        sum_numeric(from_terms(s, huge), x, cutoff)


def test_sum_numeric_budget_ends_before_tail(sx):
    # (1 - X) sum X^k + X^100 at x = 2 above m[0]: the tail term X^100 lies
    # past a budget of 50, which must not read as a tail of 0.0
    one_minus = gps.from_terms(1, {(0,): 1, (1,): -1})
    body = one_minus * gps.geometric_in(1, (1,)) + gps.from_terms(1, {(100,): 1})
    f = make_laurent(sx, sx.unit(), body, convergence=S.Convergence())
    with pytest.raises(CutoffTooDeep):
        sum_numeric(f, 2.0, cut(sx, 0), budget=50)
    val, tail = sum_numeric(f, 2.0, cut(sx, 0))
    assert val == 1.0 and tail == pytest.approx(math.exp(-200.0), rel=1e-12)
    # a stream that ends within the budget keeps a tail of 0.0
    g = from_terms(sx, {(0,): 3, (1,): -2})
    assert sum_numeric(g, 2.0, cut(sx, 10), budget=2)[1] == 0.0
    with pytest.raises(CutoffTooDeep):
        sum_numeric(g, 2.0, cut(sx, 10), budget=1)


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
    # result, invert keeps the threshold, and compose_right keeps only a tag
    # without one: a threshold bounds x, and f o g reads f at g(x)
    f = from_terms(sx, {(0,): 1, (1,): 2}).assert_convergent(2.0)
    g = from_terms(sx, {(0,): 3, (2,): -1}).assert_convergent(3.0)
    bare = make_laurent(sx, sx.unit(), gps.geometric_in(1, (1,)))
    assert bare.convergence is None
    for h in (f + g, g + f, f * g, g * f):
        assert h.convergence.threshold == 3.0
    unit = from_terms(sx, {(0,): 1})
    assert (f + unit).convergence.threshold == 2.0
    assert (unit * unit).convergence.threshold is None
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
    assert compose_right(inv, X).convergence is None
    assert compose_right(unit, X).convergence == S.Convergence()
    assert compose_right(f * bare, X).convergence is None
    # f at x^2 = 1 is below f's threshold 5, so the composition is untagged
    h = from_terms(sx, {(0,): 1, (1,): Q(1, 3)}).assert_convergent(5.0)
    with pytest.raises(DomainError):
        sum_numeric(h, 1.0, cut(sx, 3))
    with pytest.raises(NotMarkedConvergent):
        sum_numeric(compose_right(h, g_pow(X, 2)), 1.0, cut(sx, 3))
    # nan fails every comparison, so a threshold check alone lets it
    # through; an infinite x is no point to evaluate at either.  Both are
    # refused with a threshold and without one
    for h in (geometric(sx, cut(sx, 1), 3).assert_convergent(2.0),
              from_terms(sx, {(0,): 1})):
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                sum_numeric(h, x, c)
    # a nan threshold would pass every x < threshold check, so it is
    # refused when asserted, as is a threshold that is not a number
    for t in (math.nan, math.inf, "x"):
        with pytest.raises(DomainError):
            f.assert_convergent(t)


def test_assert_convergent_tags_an_untagged_series(sx):
    # sum_k 2^-k exp(-k x): make_laurent tags no infinite body, so the
    # summation first refuses, then answers once convergence is asserted
    # make_laurent reads its body along the body's own stream, past coeff,
    # so the pulls are counted in the body's oracle
    pulls = []
    half = gps.geometric_in(1, (1,), Q(1, 2))

    def counting_oracle(v):
        pulls.append(v)
        return half.coeff(v)

    body = gps.GenSeries(1, half.universe, counting_oracle)
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
    # m[1] over (log x) is 1/log x; over (x) the same vector is exp(-x), so
    # a family sum over (x) would read x^-nu from (log x) as exp(-nu x)
    m = sl.monomial([1])
    terms_x = lambda nu: from_terms(sx, {(nu,): 1})
    terms_l = lambda nu: from_terms(sl, {(nu,): 1})
    f = geometric(sx, cut(sx, 1))
    probe = S._FAMILY_PROBE
    for build in (lambda: from_terms(sx, {m: 1}),
                  lambda: geometric(sx, m),
                  lambda: geometric(sx, sl.monomial([-1])),
                  # leading monomials, in the probe and when a member opens
                  lambda: sum_family(sx, terms_x, 0, lambda nu: cut(sl, nu)),
                  lambda: sum_family(
                      sx, terms_x, 0,
                      lambda nu: cut(sx if nu < probe else sl, nu))
                  .terms_to_cutoff(cut(sx, probe + 1)),
                  # members, when they open
                  lambda: sum_family(sx, terms_l, 0, lambda nu: cut(sx, nu))
                  .terms_to_cutoff(cut(sx, 3)),
                  # a plain vector is a monomial over no scale
                  lambda: f.terms_to_cutoff((3,)),
                  lambda: truncate(f, (3,)),
                  lambda: sum_numeric(f, 2.0, (3,)),
                  lambda: make_laurent(sx, (0,), gps.geometric_in(1, (1,))),
                  lambda: geometric(sx, (1,)),
                  lambda: sum_family(sx, terms_x, 0, lambda nu: (nu,)),
                  lambda: monomial_cmp(m, (1,)),
                  lambda: monomial_cmp((1,), m),
                  lambda: m * (1,),
                  # project_class used to relabel m[1] over (log x) as
                  # m[1] over (x), and to raise AttributeError on a vector
                  lambda: project_class(sx, 0, m),
                  lambda: project_class(sx, 0, (1,)),
                  # a number or a gps body is a series over no scale
                  lambda: f + 1,
                  lambda: f - 1,
                  lambda: 1 + f,
                  lambda: 1 - f,
                  lambda: f + gps.geometric_in(1, (1,))):
        with pytest.raises(ScaleMismatch):
            build()
    assert from_terms(sl, {m: 1}).terms_to_cutoff(cut(sl, 2)) == [((1,), 1)]


def test_scale_mismatch_ops(sx, sl):
    with pytest.raises(ScaleMismatch):
        from_terms(sx, {(0,): 1}) + from_terms(sl, {(0,): 1})
