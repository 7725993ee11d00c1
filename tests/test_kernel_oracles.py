"""Coefficient oracles for every kernel that sums products of coefficients.

Each reference is computed here from ``math.comb`` and plain ``Fraction``
arithmetic and shares no code with transgerm.  The ratios have mixed and
coprime denominators, so the kernels must combine partial sums over
different denominators.  Every emitted coefficient must be a ``Fraction``
equal to the reference."""

import math
from fractions import Fraction

import pytest

from transgerm import gps
from transgerm.germ import g_x
from transgerm.scale import make_scale
from transgerm.series import from_terms, invert, sum_family

RATIOS = [Fraction(1, 2), Fraction(2, 3), Fraction(-5, 7), Fraction(7, 10)]


@pytest.fixture
def sx():
    return make_scale([g_x()])


def dense_mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def series_of(scale, coeffs: list):
    return from_terms(scale, {(i,): c for i, c in enumerate(coeffs)})


def dense_terms(series, n: int) -> list:
    """The coefficients of m^0 .. m^n, zeros included, each checked to be a
    Fraction."""
    out = [Fraction(0)] * (n + 1)
    for (i,), c in series.terms_to_cutoff(series.scale.monomial([n])):
        assert type(c) is Fraction
        out[i] = c
    return out


@pytest.mark.parametrize("r", RATIOS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_repeated_square_is_binomial(sx, r, k):
    f = series_of(sx, [Fraction(1), r])
    for _ in range(k):
        f = f * f
    n = 2 ** k
    assert dense_terms(f, n) == [math.comb(n, i) * r ** i for i in range(n + 1)]


def test_product_and_sum_of_distinct_series(sx):
    p = [Fraction(1, 2), Fraction(2, 3), Fraction(-5, 7), Fraction(7, 10)]
    q = [Fraction(7, 10), Fraction(-5, 7), Fraction(0), Fraction(2, 3),
         Fraction(1, 6)]
    f, g = series_of(sx, p), series_of(sx, q)
    assert dense_terms(f * g, 7) == dense_mul(p, q)
    s = [a + b for a, b in zip(p + [0], q)]
    assert dense_terms((f + g) * f, 7) == dense_mul(s, p)[:8]


@pytest.mark.parametrize("r", RATIOS)
def test_invert_one_minus_r_x_is_geometric(sx, r):
    f = series_of(sx, [Fraction(1), -r])
    assert dense_terms(invert(f), 20) == [r ** i for i in range(21)]


def test_invert_matches_power_series_division(sx):
    a = [Fraction(2, 3), Fraction(-5, 7), Fraction(7, 10), Fraction(1, 2)]
    n = 16
    # b = 1/a term by term: b_0 = 1/a_0, b_k = -(sum_{i>=1} a_i b_(k-i)) / a_0
    b = [1 / a[0]]
    for k in range(1, n + 1):
        acc = sum((a[i] * b[k - i] for i in range(1, min(k, 3) + 1)),
                  Fraction(0))
        b.append(-acc / a[0])
    assert dense_terms(invert(series_of(sx, a)), n) == b


@pytest.mark.parametrize("r, s", [(RATIOS[0], RATIOS[1]),
                                  (RATIOS[2], RATIOS[3])])
def test_sum_family_matches_convolution(sx, r, s):
    # F_nu = r^nu m^nu * sum_k s^k m^k, so the m^n coefficient of the
    # family's sum is sum_(nu <= n) r^nu s^(n - nu)
    geo = invert(series_of(sx, [Fraction(1), -s]))
    fam = lambda nu: from_terms(sx, {(nu,): r ** nu}) * geo
    total = sum_family(sx, fam, 0, lambda nu: sx.monomial([nu]))
    n = 20
    assert dense_terms(total, n) == [
        sum((r ** nu * s ** (k - nu) for nu in range(k + 1)), Fraction(0))
        for k in range(n + 1)]


def test_gps_product_matches_dense_convolution():
    p = {(0, 0): Fraction(1, 2), (1, 0): Fraction(2, 3), (0, 1): Fraction(-5, 7),
         (2, 1): Fraction(7, 10)}
    q = {(0, 0): Fraction(7, 10), (1, 1): Fraction(-5, 7), (0, 2): Fraction(2, 3),
         (3, 0): Fraction(1, 9)}
    want: dict = {}
    for (a0, a1), x in p.items():
        for (b0, b1), y in q.items():
            key = (a0 + b0, a1 + b1)
            want[key] = want.get(key, Fraction(0)) + x * y
    prod = gps.from_terms(2, p) * gps.from_terms(2, q)
    for i in range(7):
        for j in range(6):
            c = prod.coeff((i, j))
            assert type(c) is Fraction
            assert c == want.get((i, j), 0)


@pytest.mark.parametrize("r", RATIOS)
def test_compose_ps_geometric_of_r_x(r):
    # 1/(1 - T) o (r X) = sum r^i X^i
    h = gps.compose_ps(lambda n: Fraction(1), gps.from_terms(1, {(1,): r}))
    for i in range(15):
        c = h.coeff((i,))
        assert type(c) is Fraction
        assert c == r ** i


def test_compose_ps_two_variables_is_multinomial():
    # 1/(1 - T) o (p X0 + q X1): the X0^i X1^j coefficient is C(i+j, i) p^i q^j
    p, q = Fraction(2, 3), Fraction(-5, 7)
    h = gps.compose_ps(lambda n: Fraction(1), gps.from_terms(2, {(1, 0): p,
                                                                  (0, 1): q}))
    for i in range(8):
        for j in range(8):
            c = h.coeff((i, j))
            assert type(c) is Fraction
            assert c == math.comb(i + j, i) * p ** i * q ** j


def test_compose_ps_matches_dense_composition():
    a = [Fraction(7, 10), Fraction(1, 2), Fraction(-5, 7), Fraction(2, 3),
         Fraction(1, 3)]
    g = [Fraction(0), Fraction(2, 3), Fraction(-1, 2), Fraction(7, 10)]
    n = 12
    want = [Fraction(0)] * (n + 1)
    power = [Fraction(1)]
    for coef in a:
        for i, c in enumerate(power[:n + 1]):
            want[i] += coef * c
        power = dense_mul(power, g)
    h = gps.compose_ps(a, gps.from_terms(1, {(i,): c for i, c in enumerate(g)}))
    for i in range(n + 1):
        c = h.coeff((i,))
        assert type(c) is Fraction
        assert c == want[i]
