"""Generalized power series with natural support.

A GenSeries is a lazy object: a SupportUniverse that bounds the true
support, a coefficient oracle returning exact rationals, and memoization.
The constructors refuse a point with a negative coordinate, and a universe
finitely generated by nonnegative points is natural, so every support is
natural by construction.  All arithmetic is exact; equality is decidable
only up to a bound, and ``GenSeries.enumerate(bound)`` is the read that
decides it: two series agree below the bound when their lists are equal.
"""

from __future__ import annotations

import itertools
import math
import sys
from operator import sub
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import (ArityMismatch, CutoffTooDeep, DomainError, NotInFragment,
                     OrderNotPositive, WitnessViolated, ZeroWithinBound)
from .support import (
    Coord,
    MemoStream,
    Q,
    SupportUniverse,
    Vec,
    check_arity,
    frac,
    grade,
    is_nonnegative,
    rational,
    vec,
    vsub,
    vzero,
)

DEFAULT_BUDGET = 10_000


def _check_budget(budget) -> None:
    """The one check of a term budget: DomainError unless it is an int up to
    sys.maxsize, islice's limit, and CutoffTooDeep when it is negative."""
    if not isinstance(budget, int) or budget > sys.maxsize:
        raise DomainError(f"budget {budget!r} is not an int up to sys.maxsize")
    if budget < 0:
        raise CutoffTooDeep(f"a budget of {budget} terms admits no enumeration")


class GenSeries:
    """K[[X_0^*, ..., X_k^*]] element with rational coefficients.

    ``coeff`` is the one public read: it normalises its point, checks the
    arity and answers 0 off the universe.  ``_at`` reads a point that this
    series' universe itself produced, or that ``coeff`` checked, with none
    of those checks; a point computed from exact, right-arity points, as
    the product's v - beta, needs the membership test alone before ``_at``.
    So the oracle is only ever asked at points of the universe."""

    def __init__(self, arity: int, universe: SupportUniverse,
                 oracle: Callable[[Vec], Fraction], provenance: str = ""):
        self.arity = arity
        self.universe = universe
        self._oracle = oracle
        self.provenance = provenance
        # every entry is a fact, so concurrent writers can only store the
        # same value and no lock is needed
        self._memo: dict[Vec, Fraction] = {}

    # -- coefficient access ---------------------------------------------------

    def coeff(self, alpha: Sequence) -> Fraction:
        # equal coordinates hash alike whatever their type, so a tuple is
        # looked up as given and normalised only on a miss
        memo = self._memo
        hit = memo.get(alpha) if type(alpha) is tuple else None
        if hit is not None:
            return hit
        v = vec(alpha)
        check_arity(v, self.arity, "point")
        if self.universe.contains(v):
            return self._at(v)
        hit = memo[v] = Q(0)
        return hit

    def _at(self, v: Vec) -> Fraction:
        """The coefficient at v, a point of this series' universe as that
        universe produced it (one of its streams or box_points) or as
        ``coeff`` checked it: no normalisation, arity or membership check."""
        memo = self._memo
        hit = memo.get(v)
        if hit is None:
            hit = memo[v] = self._oracle(v)
        return hit

    def enumerate(self, bound: Sequence) -> list[tuple[Vec, Fraction]]:
        """All nonzero-coefficient support points componentwise below the
        bound, in (total degree, lex) order; terminates for any finite bound."""
        b = vec(bound)
        out = []
        for v in self.universe.box_points(b):
            c = self._at(v)
            if c:
                out.append((v, c))
        return out

    # -- ring ops -------------------------------------------------------------

    def _check(self, other: "GenSeries") -> None:
        if not isinstance(other, GenSeries):
            raise NotInFragment(f"{other!r} is not a GenSeries")
        if self.arity != other.arity:
            raise ArityMismatch(
                f"series of arity {self.arity} combined with arity {other.arity}")

    def __add__(self, other: "GenSeries") -> "GenSeries":
        self._check(other)
        return GenSeries(self.arity, self.universe.union(other.universe),
                         lambda v: self.coeff(v) + other.coeff(v),
                         provenance=f"({self.provenance}+{other.provenance})")

    def __sub__(self, other: "GenSeries") -> "GenSeries":
        self._check(other)
        return self + (-other)

    def __neg__(self) -> "GenSeries":
        return GenSeries(self.arity, self.universe, lambda v: -self._at(v),
                         provenance=f"(-{self.provenance})")

    def __mul__(self, other: "GenSeries") -> "GenSeries":
        self._check(other)
        # walk the box of a finite factor when only one is finite: an
        # infinite factor's box under v grows with v; of two infinite ones,
        # the one whose least generator is lex-larger, since a lex read
        # keeps v's earlier coordinates small
        a, b = self, other
        ga, gb = a.universe.gens, b.universe.gens
        if ga and (not gb or ga[0] < gb[0]):
            a, b = b, a

        a_box, a_at = a.universe._box, a._at
        b_memo, b_in, b_at = b._memo, b.universe.contains, b._at

        def conv(v: Vec) -> Fraction:
            # beta is a point of a's universe and v one of the product's, so
            # v - beta needs only b's membership test (support.py's read
            # rule); the int pair is summed inline (support.py)
            n, d = 0, 1
            for beta in a_box(v):
                x = a_at(beta)
                if x:
                    w = vsub(v, beta)
                    y = b_memo.get(w)
                    if y is None:
                        if not b_in(w):
                            continue
                        y = b_at(w)
                    if y:
                        p, q = (x.numerator * y.numerator,
                                x.denominator * y.denominator)
                        if q == d:
                            n += p
                        else:
                            g = math.gcd(d, q)
                            n, d = n * (q // g) + p * (d // g), d // g * q
            return frac(n, d)

        return GenSeries(self.arity, self.universe.sum(other.universe), conv,
                         provenance=f"({self.provenance}*{other.provenance})")

    def partial_deriv(self, i: int) -> "GenSeries":
        """Exponent-weighted derivative: the alpha coefficient becomes
        alpha_i * a_alpha; the skeleton is unchanged."""
        if type(i) is not int or not 0 <= i < self.arity:
            raise ArityMismatch(f"variable index {i} out of range")
        return GenSeries(self.arity, self.universe,
                         lambda v: v[i] * self._at(v),
                         provenance=f"d{i}({self.provenance})")

    # -- order ------------------------------------------------------------------

    def order(self, budget: int = DEFAULT_BUDGET) -> Coord:
        """Least total degree of a nonzero coefficient, found along the
        graded stream; ZeroWithinBound when the first ``budget`` points of
        the universe all have coefficient 0."""
        _check_budget(budget)
        for v in itertools.islice(self.universe.graded_stream(), budget):
            if self._at(v):
                return grade(v)
        raise ZeroWithinBound(
            f"no nonzero coefficient within {budget} enumerated points")

    def __repr__(self) -> str:
        return f"GenSeries(arity={self.arity}, {self.provenance or 'oracle'})"


# -- constructors ---------------------------------------------------------------


def _natural_point(arity: int, p: Sequence) -> Vec:
    """p as a vector; ArityMismatch for a wrong arity, WitnessViolated for a
    negative coordinate (it would leave natural support)."""
    v = vec(p)
    check_arity(v, arity, "point")
    if not is_nonnegative(v):
        raise WitnessViolated(f"point {v} has a negative coordinate")
    return v


def from_terms(arity: int, terms: dict) -> GenSeries:
    if type(arity) is not int or arity < 0 or not isinstance(terms, dict):
        raise NotInFragment(f"{arity!r}, {terms!r} is no arity and dict")
    tbl = {_natural_point(arity, k): q for k, c in terms.items()
           if (q := rational(c))}
    uni = SupportUniverse(arity, tbl.keys())
    return GenSeries(arity, uni, lambda v: tbl.get(v, Q(0)),
                     provenance="terms")


def geometric_in(arity: int, step: Sequence, ratio=1) -> GenSeries:
    """sum_nu ratio^nu * X^(nu*step); step must be a nonzero nonnegative
    vector, else WitnessViolated (the sum diverges or leaves natural
    support)."""
    s = _natural_point(arity, step)
    if not any(s):
        raise WitnessViolated("geometric step is zero: the sum diverges")
    r = rational(ratio)
    rn, rd = r.numerator, r.denominator
    uni = SupportUniverse(arity, [vzero(arity)], [s])
    lead = next(i for i, a in enumerate(s) if a)
    s_lead = s[lead]

    def oracle(v: Vec) -> Fraction:
        # only points of uni reach the oracle, and each is nu * s; floor
        # division gives the int nu for int and Fraction coordinates alike
        k = v[lead] // s_lead
        return frac(rn ** k, rd ** k)

    return GenSeries(arity, uni, oracle, provenance="geometric")


# -- composition with one-variable power series -----------------------------------


def grade_window(d: Coord, g_ord: Coord, top: Optional[Coord] = None) -> range:
    """The nu with ceil(d / top) <= nu <= floor(d / g_ord), the powers G^nu
    that can reach grade d when every term of G has grade between g_ord > 0
    and top (0 for the lower end when top is None).  Floor division keeps it
    exact for int and Fraction grades alike, where true division of two ints
    would round through a float."""
    lo = 0 if top is None else -(-d // top)
    return range(lo, d // g_ord + 1)


def compose_ps(p: Union[Sequence, Callable[[int], Fraction]], g: GenSeries,
               budget: int = DEFAULT_BUDGET) -> GenSeries:
    """P o G = sum_nu a_nu G^nu for a one-variable power series P.

    Requires ord(G) > 0, as ``G.order(budget)`` finds it: OrderNotPositive
    for ord 0, ZeroWithinBound when the budget finds none.  Every term of
    G^nu has grade between nu * ord(G) and nu * maxdeg(G), so only the nu in
    the window (grade_window)

        ceil(|alpha| / maxdeg(G)) <= nu <= floor(|alpha| / ord(G))

    reach alpha; the lower end is used only for a finite skeleton of G, and
    is 0 otherwise, where nu = 0 (G^0 = 1) reaches grade 0 alone.  The
    coefficients [G^nu]_w come from one memo, filled on an explicit stack of
    (nu, w, grade) by [G^nu]_w = sum_u g_u [G^(nu-1)]_(w-u) over the nonzero
    terms u <= w of G, pulled once by grade and read by index; entries
    outside the window are never made.  Sums are inline int pairs, stored
    reduced (support.py); P's coefficient at a nu that reaches is read once,
    with ``rational``.  The memo lives with the result; its universe, G's
    closure, shares its membership memo with every series of its shape
    (support.py)."""
    # a dict would be read by its keys
    if not (isinstance(g, GenSeries) and (callable(p) or isinstance(p, Sequence))):
        raise NotInFragment(f"{p!r} o {g!r} is no power series of a GenSeries")
    if callable(p):
        pc = p
    else:
        coeffs = [rational(a) for a in p]
        pc = lambda n: coeffs[n] if n < len(coeffs) else Q(0)

    g_ord = g.order(budget)
    if g_ord == 0:
        raise OrderNotPositive("composition requires ord > 0, "
                               "found a nonzero constant term")

    def by_grade():
        # one item per grade of g's skeleton points, holding g's nonzero
        # terms there as (u, numerator, denominator): a reader that needs
        # the grades up to d stops at the first item above d even when no
        # nonzero term follows
        d, terms = None, []
        for v in g.universe.graded_stream():
            dv = grade(v)
            if dv != d:
                if d is not None:
                    yield d, tuple(terms)
                d, terms = dv, []
            c = g._at(v)
            if c:
                terms.append((v, c.numerator, c.denominator))
        if d is not None:
            yield d, tuple(terms)

    groups = MemoStream(by_grade)
    top = None  # maxdeg(G), known only when G's skeleton is finite
    if not g.universe.gens:
        top = max(d for d, terms in groups if terms)
    # (nu, w) -> [G^nu]_w as a reduced (numerator, denominator) pair of
    # ints; every entry is a fact, so concurrent writers can only store the
    # same value and no lock is needed
    memo: dict[tuple[int, Vec], tuple[int, int]] = {(0, vzero(g.arity)): (1, 1)}

    def power_coeff(nu: int, w: Vec, dw: Coord) -> tuple[int, int]:
        stack = [(nu, w, dw)]
        while stack:
            mu, x, dx = stack[-1]
            if (mu, x) in memo:
                stack.pop()
                continue
            n, d, missing, i = 0, 1, False, 0
            while (group := groups.get(i)) is not None and group[0] <= dx:
                i += 1
                e, j = dx - group[0], mu - 1  # G^j must reach grade e
                if (e == 0 if j == 0 else
                        j * g_ord <= e and (top is None or e <= j * top)):
                    for u, a, b in group[1]:
                        y = tuple(map(sub, x, u))
                        if min(y) >= 0:
                            hit = memo.get((j, y))
                            if hit is None:
                                stack.append((j, y, e))
                                missing = True
                            elif not missing:
                                p, q = a * hit[0], b * hit[1]
                                if q == d:
                                    n += p
                                else:
                                    k = math.gcd(d, q)
                                    n, d = n * (q // k) + p * (d // k), d // k * q
            if not missing:
                k = math.gcd(n, d)
                memo[(mu, x)] = (n // k, d // k)
                stack.pop()
        return memo[(nu, w)]

    # nu -> P's coefficient as a (numerator, denominator) pair, read once
    p_memo: dict[int, tuple[int, int]] = {}

    def oracle(v: Vec) -> Fraction:
        dv = grade(v)
        n, d = 0, 1
        for nu in grade_window(dv, g_ord, top):
            # G^0 = 1 reaches grade 0 alone, and every other nu reaches dv
            a = p_memo.get(nu) if nu or not dv else (0, 1)
            if a is None:
                c = rational(pc(nu))
                a = p_memo[nu] = (c.numerator, c.denominator)
            if a[0]:
                cn, cd = power_coeff(nu, v, dv)
                s, t = a[0] * cn, a[1] * cd
                if t == d:
                    n += s
                else:
                    k = math.gcd(d, t)
                    n, d = n * (t // k) + s * (d // k), d // k * t
        return frac(n, d)

    return GenSeries(g.arity, g.universe.closure(), oracle,
                     provenance=f"(P o {g.provenance})")
