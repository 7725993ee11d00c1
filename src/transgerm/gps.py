"""Generalized power series with natural support.

A GenSeries is a lazy object: a support skeleton (finite generator data whose
additive closure bounds the true support), a coefficient oracle returning
exact rationals, and memoization.  All arithmetic is exact; equality is
decidable only up to a bound and the API says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import ArityMismatch, OrderNotPositive, WitnessViolated, ZeroWithinBound
from .support import (
    Coord,
    MemoStream,
    Q,
    SupportUniverse,
    Vec,
    grade,
    is_nonnegative,
    vec,
    vsub,
    vzero,
)

DEFAULT_BUDGET = 10_000


@dataclass(frozen=True)
class ExponentSet:
    """Finite generator set A of nonnegative exponent vectors; the semantic
    support is contained in the additive closure B(A)."""

    arity: int
    generators: frozenset

    @staticmethod
    def of(arity: int, gens: Iterable[Sequence]) -> "ExponentSet":
        out = set()
        for g in gens:
            v = vec(g)
            if len(v) != arity:
                raise ArityMismatch(f"generator {v} has arity {len(v)}, expected {arity}")
            if not is_nonnegative(v):
                raise WitnessViolated(
                    f"exponent-set generator {v} has a negative coordinate")
            out.add(v)
        return ExponentSet(arity, frozenset(out))

    def universe(self) -> SupportUniverse:
        gens = [g for g in self.generators if any(g)]
        return SupportUniverse.generated(self.arity, gens)


@dataclass(frozen=True)
class NaturalityCertificate:
    natural: bool
    minima: tuple  # per coordinate: least positive generator value, or None


def is_natural(a: ExponentSet) -> NaturalityCertificate:
    """Finite generator sets always have natural additive closure; the
    certificate records the per-coordinate least positive generator entry
    (the gap that makes every bounded window finite)."""
    minima = []
    for i in range(a.arity):
        vals = [g[i] for g in a.generators if g[i] > 0]
        minima.append(min(vals) if vals else None)
    return NaturalityCertificate(True, tuple(minima))


class GenSeries:
    """K[[X_0^*, ..., X_k^*]] element with rational coefficients."""

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
        if len(v) != self.arity:
            raise ArityMismatch(f"point {v} has arity {len(v)}, expected {self.arity}")
        hit = memo.get(v)
        if hit is None:
            hit = memo[v] = (self._oracle(v) if self.universe.contains(v)
                             else Q(0))
        return hit

    def enumerate(self, bound: Sequence) -> list[tuple[Vec, Fraction]]:
        """All nonzero-coefficient support points componentwise below the
        bound, in (total degree, lex) order; terminates for any finite bound."""
        b = vec(bound)
        out = []
        for v in self.universe.box_points(b):
            c = self.coeff(v)
            if c:
                out.append((v, c))
        return out

    def skeleton(self) -> ExponentSet:
        u = self.universe
        gens = set(u.gens) if u.explicit is None else set(u.explicit)
        if u.explicit is None and any(u.offset):
            gens.add(u.offset)
        return ExponentSet(self.arity, frozenset(g for g in gens if any(g)))

    # -- ring ops -------------------------------------------------------------

    def _check(self, other: "GenSeries") -> None:
        if self.arity != other.arity:
            raise ArityMismatch(
                f"series of arity {self.arity} combined with arity {other.arity}")

    def __add__(self, other: "GenSeries") -> "GenSeries":
        self._check(other)
        return GenSeries(self.arity, self.universe.union(other.universe),
                         lambda v: self.coeff(v) + other.coeff(v),
                         provenance=f"({self.provenance}+{other.provenance})")

    def __sub__(self, other: "GenSeries") -> "GenSeries":
        return self + (-other)

    def __neg__(self) -> "GenSeries":
        return GenSeries(self.arity, self.universe, lambda v: -self.coeff(v),
                         provenance=f"(-{self.provenance})")

    def scale(self, q) -> "GenSeries":
        q = Q(q)
        return GenSeries(self.arity, self.universe, lambda v: q * self.coeff(v),
                         provenance=f"({q}*{self.provenance})")

    def __mul__(self, other: "GenSeries") -> "GenSeries":
        self._check(other)

        def conv(v: Vec) -> Fraction:
            total = Q(0)
            for beta in self.universe.box_points(v):
                cb = self.coeff(beta)
                if cb:
                    total += cb * other.coeff(vsub(v, beta))
            return total

        return GenSeries(self.arity, self.universe.sum(other.universe), conv,
                         provenance=f"({self.provenance}*{other.provenance})")

    def partial_deriv(self, i: int) -> "GenSeries":
        """Exponent-weighted derivative: the alpha coefficient becomes
        alpha_i * a_alpha; the skeleton is unchanged."""
        if not 0 <= i < self.arity:
            raise IndexError(f"variable index {i} out of range")
        return GenSeries(self.arity, self.universe,
                         lambda v: v[i] * self.coeff(v),
                         provenance=f"d{i}({self.provenance})")

    # -- order ------------------------------------------------------------------

    def ord_and_min(self, budget: int = DEFAULT_BUDGET,
                    grade_cap: Optional[Coord] = None
                    ) -> tuple[Coord, list[Vec]]:
        """Order (least total degree of a nonzero coefficient) and the
        componentwise-minimal support points found within the budget.

        The antichain is exact whenever all minimal support points have total
        degree at most ``grade_cap`` (default: 4 + 4*ord)."""
        first = None
        stream = self.universe.graded_stream()
        found: list[Vec] = []
        cap = grade_cap
        for n, v in enumerate(stream):
            if n >= budget:
                break
            if first is None:
                if self.coeff(v):
                    first = v
                    if cap is None:
                        cap = grade(v) * 4 + 4
                continue
            if grade(v) > cap:
                break
            if self.coeff(v):
                found.append(v)
        if first is None:
            raise ZeroWithinBound(
                f"no nonzero coefficient within {budget} enumerated points")
        pts = [first] + found
        minimal = [p for p in pts
                   if not any(q != p and all(a <= b for a, b in zip(q, p))
                              for q in pts)]
        return grade(first), sorted(minimal)

    def order(self, budget: int = DEFAULT_BUDGET) -> Coord:
        return self.ord_and_min(budget)[0]

    def equal_to_bound(self, other: "GenSeries", bound: Sequence) -> bool:
        self._check(other)
        b = vec(bound)
        pts = {v for v in self.universe.box_points(b)}
        pts |= {v for v in other.universe.box_points(b)}
        return all(self.coeff(v) == other.coeff(v) for v in pts)

    def __repr__(self) -> str:
        return f"GenSeries(arity={self.arity}, {self.provenance or 'oracle'})"


# -- constructors ---------------------------------------------------------------


def from_terms(arity: int, terms: dict) -> GenSeries:
    tbl = {vec(k): Q(c) for k, c in terms.items() if c}
    ExponentSet.of(arity, tbl)  # refuses a wrong arity or a negative coordinate
    uni = SupportUniverse.finite(arity, tbl.keys())
    return GenSeries(arity, uni, lambda v: tbl.get(v, Q(0)),
                     provenance="terms")


def constant(arity: int, q) -> GenSeries:
    return from_terms(arity, {vzero(arity): Q(q)})


def monomial(arity: int, alpha: Sequence, c=1) -> GenSeries:
    return from_terms(arity, {tuple(alpha): Q(c)})


def geometric_in(arity: int, step: Sequence, ratio=1) -> GenSeries:
    """sum_nu ratio^nu * X^(nu*step); step must be a nonzero nonnegative
    vector, else WitnessViolated (the sum diverges or leaves natural
    support)."""
    (s,) = ExponentSet.of(arity, [step]).generators
    if not any(s):
        raise WitnessViolated("geometric step is zero: the sum diverges")
    r = Q(ratio)
    uni = SupportUniverse.generated(arity, [s])

    def oracle(v: Vec) -> Fraction:
        # v = nu * s for a unique nu >= 0
        for a, b in zip(v, s):
            if b:
                # exact for int and Fraction coordinates alike
                nu, rest = divmod(a, b)
                if not rest and all(x == nu * y for x, y in zip(v, s)):
                    return r ** nu
                return Q(0)
        return Q(1) if not any(v) else Q(0)

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

    Requires ord(G) > 0.  Every term of G^nu has grade between nu * ord(G)
    and nu * maxdeg(G), so only the nu in the window (grade_window)

        ceil(|alpha| / maxdeg(G)) <= nu <= floor(|alpha| / ord(G))

    reach alpha; the lower end is used only for a finite skeleton of G, and
    is 0 otherwise.  The coefficients [G^nu]_w come from one memo, filled on
    an explicit stack by [G^nu]_w = sum_u g_u [G^(nu-1)]_(w-u) over the
    nonzero terms u <= w of G, which are pulled once, by point grade, in
    (grade, lex) order; entries (nu, w) outside the window are never made."""
    if callable(p):
        pc = p
    else:
        coeffs = [Q(a) for a in p]
        pc = lambda n: coeffs[n] if n < len(coeffs) else Q(0)

    stream = g.universe.graded_stream()
    g_ord: Optional[Coord] = None
    for n, v in enumerate(stream):
        if n >= budget:
            break
        c = g.coeff(v)
        if c:
            if grade(v) == 0:
                raise OrderNotPositive("composition requires ord > 0, "
                                       "found a nonzero constant term")
            g_ord = grade(v)
            break
    if g_ord is None:
        raise ZeroWithinBound(
            "could not certify ord within budget; series may be zero")

    def by_grade():
        # one item per grade of g's skeleton points, holding g's nonzero
        # terms there: a reader that needs the grades up to d stops at the
        # first item above d even when no nonzero term follows
        d, terms = None, []
        for v in g.universe.graded_stream():
            dv = grade(v)
            if dv != d:
                if d is not None:
                    yield d, tuple(terms)
                d, terms = dv, []
            c = g.coeff(v)
            if c:
                terms.append((v, c))
        if d is not None:
            yield d, tuple(terms)

    groups = MemoStream(by_grade)
    top = None  # maxdeg(G), known only when G's skeleton is finite
    if not g.universe.gens:
        top = max(d for d, terms in groups if terms)
    # (nu, w) -> [G^nu]_w; every entry is a fact, so concurrent writers can
    # only store the same value and no lock is needed
    memo: dict[tuple[int, Vec], Fraction] = {(0, vzero(g.arity)): Q(1)}

    def reaches(nu: int, d: Coord) -> bool:
        if nu == 0:
            return d == 0
        return nu * g_ord <= d and (top is None or d <= nu * top)

    def factors(nu: int, w: Vec):
        """(g_u, (nu-1, w-u)) for the nonzero terms u <= w of G whose
        cofactor w-u lies in the window of nu-1."""
        d = grade(w)
        for du, terms in groups:
            if du > d:
                return
            if reaches(nu - 1, d - du):
                for u, c in terms:
                    x = vsub(w, u)
                    if is_nonnegative(x):
                        yield c, (nu - 1, x)

    def power_coeff(nu: int, w: Vec) -> Fraction:
        stack = [(nu, w)]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            total, missing = Q(0), False
            for c, sub in factors(*key):
                hit = memo.get(sub)
                if hit is None:
                    stack.append(sub)
                    missing = True
                else:
                    total += c * hit
            if not missing:
                memo[key] = total
                stack.pop()
        return memo[(nu, w)]

    def oracle(v: Vec) -> Fraction:
        d = grade(v)
        total = Q(0)
        for nu in grade_window(d, g_ord, top):
            a = pc(nu)
            if a and reaches(nu, d):
                total += a * power_coeff(nu, v)
        return total

    return GenSeries(g.arity, g.universe.closure(), oracle,
                     provenance=f"(P o {g.provenance})")
