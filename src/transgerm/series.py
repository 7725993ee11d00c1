"""Generalized Laurent series over an asymptotic scale.

A LaurentSeries denotes ``shift * G(m_0, ..., m_k)`` where the m_i = exp(-f_i)
are the scale's small generating monomials.  Internally every series is a
restartable stream of (exponent vector, rational coefficient) pairs in
strictly decreasing monomial order (ascending lex on vectors), possibly
interleaved with zero coefficients on skeleton points.  Reverse
well-ordering of representable supports makes these streams total: any
truncation query either terminates or exhausts its explicit term budget and
reports CutoffTooDeep.  Equality is only ever decided against a cutoff.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from . import germ as G
from .errors import (
    ArityMismatch,
    CutoffTooDeep,
    NotAScaleAfterShift,
    NotMarkedConvergent,
    DomainError,
    ScaleMismatch,
    TransgermError,
    WitnessViolated,
    ZeroWithinBound,
)
from .gps import DEFAULT_BUDGET, GenSeries
from .scale import Monomial, Scale, make_scale, monomial_cmp
from .support import (
    MemoStream,
    Q,
    SupportUniverse,
    Vec,
    lex_positive,
    vadd,
    vec,
    vzero,
)
from .germ import GermTerm


Term = tuple[Vec, Fraction]


@dataclass(frozen=True)
class Convergence:
    """Capability tag: how we know numeric summation is meaningful."""

    kind: str  # finite | geometric | closed-form | asserted
    threshold: Optional[float] = None


def _combine_convergence(*tags: Optional[Convergence]) -> Optional[Convergence]:
    if any(t is None for t in tags):
        return None
    thr = max((t.threshold for t in tags if t.threshold is not None), default=None)
    if all(t.kind == "finite" for t in tags):
        return Convergence("finite", thr)
    return Convergence("closed-form", thr)


class LaurentSeries:
    """Lazy generalized Laurent series over a Scale."""

    def __init__(self, scale: Scale, factory: Callable[[], Iterator[Term]],
                 *, universe: Optional[SupportUniverse] = None,
                 convergence: Optional[Convergence] = None,
                 provenance: str = ""):
        self.scale = scale
        self.convergence = convergence
        self.provenance = provenance
        self._universe = universe
        self._memo = MemoStream(factory)

    # -- enumeration ------------------------------------------------------------

    def _term(self, i: int) -> Optional[Term]:
        return self._memo.get(i)

    def iter_terms(self) -> Iterator[Term]:
        return iter(self._memo)

    def terms_to_cutoff(self, cutoff: Monomial,
                        budget: int = DEFAULT_BUDGET) -> list[Term]:
        """All (vector, coefficient) pairs for monomials >= cutoff, zeros
        dropped.  Raises CutoffTooDeep when the budget runs out first."""
        self._check_monomial(cutoff)
        out = []
        for n, (v, c) in enumerate(self.iter_terms()):
            if v > cutoff.vector:
                break
            if n >= budget:
                raise CutoffTooDeep(
                    f"enumeration above {cutoff} needs more than {budget} terms")
            if c:
                out.append((v, c))
        return out

    def leading_term(self, budget: int = DEFAULT_BUDGET) -> Term:
        for n, (v, c) in enumerate(self.iter_terms()):
            if n >= budget:
                break
            if c:
                return (v, c)
        raise ZeroWithinBound(
            f"no nonzero coefficient within the first {budget} skeleton points")

    def _check_monomial(self, m: Monomial) -> None:
        if m.scale != self.scale:
            raise ScaleMismatch("monomial over a different scale")

    def _check_series(self, other: "LaurentSeries") -> None:
        if self.scale != other.scale:
            raise ScaleMismatch("series over different scales")

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_series(other)
        uni = None
        if self._universe is not None and other._universe is not None:
            uni = self._universe.union(other._universe)
        return LaurentSeries(
            self.scale, _merge_factory([self, other]), universe=uni,
            convergence=_combine_convergence(self.convergence, other.convergence),
            provenance=f"({self.provenance}+{other.provenance})")

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __neg__(self) -> "LaurentSeries":
        return self.scaled(Q(-1))

    def scaled(self, q) -> "LaurentSeries":
        q = Q(q)
        return LaurentSeries(
            self.scale, _map_factory(self, lambda v, c: (v, q * c)),
            universe=self._universe, convergence=self.convergence,
            provenance=f"({q}*{self.provenance})")

    def map_coeff(self, fn: Callable[[Vec, Fraction], Fraction],
                  provenance: str = "map") -> "LaurentSeries":
        return LaurentSeries(
            self.scale, _map_factory(self, lambda v, c: (v, fn(v, c))),
            universe=self._universe, convergence=self.convergence,
            provenance=f"{provenance}({self.provenance})")

    def shifted(self, delta: Vec) -> "LaurentSeries":
        delta = vec(delta)
        uni = self._universe.shifted(delta) if self._universe is not None else None
        return LaurentSeries(
            self.scale, _map_factory(self, lambda v, c: (vadd(v, delta), c)),
            universe=uni, convergence=self.convergence,
            provenance=f"shift({self.provenance})")

    def __mul__(self, other) -> "LaurentSeries":
        if isinstance(other, LaurentSeries):
            self._check_series(other)
            uni = None
            if self._universe is not None and other._universe is not None:
                uni = self._universe.sum(other._universe)
            return LaurentSeries(
                self.scale, _product_factory(self, other), universe=uni,
                convergence=_combine_convergence(self.convergence, other.convergence),
                provenance=f"({self.provenance}*{other.provenance})")
        return self.scaled(other)

    __rmul__ = __mul__

    def subseries(self, keep: Callable[[Vec], bool]) -> "LaurentSeries":
        """Restrict coefficients to a decidable exponent predicate."""
        return self.map_coeff(lambda v, c: c if keep(v) else Q(0),
                              provenance="sub")

    # -- convergence -----------------------------------------------------------------

    def assert_convergent(self, threshold: Optional[float] = None) -> "LaurentSeries":
        return self._view(self.scale, Convergence("asserted", threshold),
                          self.provenance)

    def _view(self, scale: Scale, convergence: Optional[Convergence],
              provenance: str) -> "LaurentSeries":
        """The same terms under another scale or tag, sharing this memo, so
        each term is pulled once however many views read it."""
        out = LaurentSeries(scale, self.iter_terms, universe=self._universe,
                            convergence=convergence, provenance=provenance)
        out._memo = self._memo
        return out

    def __repr__(self) -> str:
        return f"LaurentSeries({self.provenance or 'stream'} over {self.scale})"


# ---------------------------------------------------------------------------
# stream factories


def _explicit_factory(terms: Sequence[Term]):
    terms = sorted(terms)

    def factory():
        return iter(terms)

    return factory


def _map_factory(src: LaurentSeries, fn):
    def factory():
        for v, c in src.iter_terms():
            yield fn(v, c)

    return factory


def _merge_factory(children: Sequence[LaurentSeries]):
    def factory():
        iters = [ch.iter_terms() for ch in children]
        heads: list = []
        for idx, it in enumerate(iters):
            t = next(it, None)
            if t is not None:
                heapq.heappush(heads, (t[0], idx, t[1]))
        while heads:
            v = heads[0][0]
            total = Q(0)
            while heads and heads[0][0] == v:
                _, idx, c = heapq.heappop(heads)
                total += c
                t = next(iters[idx], None)
                if t is not None:
                    heapq.heappush(heads, (t[0], idx, t[1]))
            yield (v, total)

    return factory


def _product_factory(a: LaurentSeries, b: LaurentSeries):
    """Heap merge of the pairs (i, j), term i of a times term j of b.  Each
    pair is reached once, as in _geometric_of: popping (i, j) pushes (i+1, j),
    and popping (0, j) also pushes (0, j+1).  Both streams ascend, so every
    pair is pushed while its parent, of a smaller vector, is popped."""
    def factory():
        heap = []

        def push(i: int, j: int):
            ta, tb = a._term(i), b._term(j)
            if ta is not None and tb is not None:
                heapq.heappush(heap, (vadd(ta[0], tb[0]), i, j))

        push(0, 0)
        while heap:
            v = heap[0][0]
            total = Q(0)
            while heap and heap[0][0] == v:
                _, i, j = heapq.heappop(heap)
                total += a._term(i)[1] * b._term(j)[1]
                push(i + 1, j)
                if i == 0:
                    push(0, j + 1)
            yield (v, total)

    return factory


def _family_factory(member: Callable[[int], Optional[LaurentSeries]],
                    lm_hint: Callable[[int], Optional[Vec]]):
    """Sum of a (possibly infinite) family whose leading monomials strictly
    decrease; ``lm_hint(nu)`` bounds member nu's support from above and must
    be strictly lex-increasing.  None signals the end of the family."""

    def factory():
        iters: list = []
        heads: list = []
        hints: list = []
        opened = 0

        def open_next() -> bool:
            nonlocal opened
            h = lm_hint(opened)
            if h is None:
                return False
            if hints and h <= hints[-1]:
                raise WitnessViolated(
                    f"leading monomials do not strictly decrease at member {opened}")
            m = member(opened)
            hints.append(h)
            opened += 1
            if m is None:
                return False
            it = m.iter_terms()
            # fast-forward past skeleton points above the declared leading
            # monomial: nonzero coefficients there violate the witness
            t = next(it, None)
            skipped = 0
            while t is not None and t[0] < h:
                if t[1]:
                    raise WitnessViolated(
                        f"member {opened - 1} has support above its declared "
                        f"leading monomial")
                t = next(it, None)
                skipped += 1
                if skipped > DEFAULT_BUDGET:
                    raise CutoffTooDeep(
                        "family member fast-forward budget exceeded")
            iters.append(it)
            if t is not None:
                heapq.heappush(heads, (t[0], len(iters) - 1, t[1]))
            return True

        if not open_next():
            return
        while True:
            # open every member whose support could reach the current frontier
            guard = 0
            while True:
                nxt = lm_hint(opened)
                if nxt is None:
                    break
                if heads and nxt > heads[0][0]:
                    break
                if not open_next():
                    break
                guard += 1
                if guard > DEFAULT_BUDGET:
                    raise CutoffTooDeep(
                        "family opening budget exceeded; leading monomials "
                        "are not coinitial past the frontier")
            if not heads:
                return
            v = heads[0][0]
            total = Q(0)
            while heads and heads[0][0] == v:
                _, idx, c = heapq.heappop(heads)
                if c and v < hints[idx]:
                    raise WitnessViolated(
                        f"member {idx} has support above its declared leading monomial")
                total += c
                t = next(iters[idx], None)
                if t is not None:
                    heapq.heappush(heads, (t[0], idx, t[1]))
            yield (v, total)

    return factory


# ---------------------------------------------------------------------------
# constructors


def from_terms(scale: Scale, terms: dict, *,
               convergence: Optional[Convergence] = Convergence("finite")
               ) -> LaurentSeries:
    tbl = {}
    for k, c in terms.items():
        v = vec(k.vector if isinstance(k, Monomial) else k)
        if len(v) != scale.arity:
            raise ArityMismatch(f"exponent vector {v} has wrong arity")
        c = Q(c)
        if c:
            tbl[v] = tbl.get(v, Q(0)) + c
    uni = SupportUniverse.finite(scale.arity, tbl.keys())
    return LaurentSeries(scale, _explicit_factory(sorted(tbl.items())),
                         universe=uni, convergence=convergence,
                         provenance="terms")


def one(scale: Scale) -> LaurentSeries:
    return from_terms(scale, {vzero(scale.arity): 1})


def monomial_series(scale: Scale, m: Monomial, coeff=1) -> LaurentSeries:
    return from_terms(scale, {m: coeff})


def make_laurent(scale: Scale, shift: Monomial, body: GenSeries,
                 *, convergence: Optional[Convergence] = None) -> LaurentSeries:
    """shift * body(m_0, ..., m_k), the model constructor of the series type."""
    if body.arity != scale.arity:
        raise ArityMismatch(
            f"body arity {body.arity} does not match scale arity {scale.arity}")
    if shift.scale != scale:
        raise ScaleMismatch("shift monomial over a different scale")
    delta = shift.vector
    uni = body.universe.shifted(delta)
    if convergence is None and body.universe.explicit is not None:
        convergence = Convergence("finite")

    def factory():
        for v in body.universe.lex_stream():
            yield (vadd(v, delta), body.coeff(v))

    return LaurentSeries(scale, factory, universe=uni, convergence=convergence,
                         provenance=f"laurent({body.provenance})")


def lift_germ(scale: Scale, f: GermTerm) -> LaurentSeries:
    """A germ as a finite series, when each of its transmonomials lies in the
    scale's monomial group."""
    terms = {}
    for c, mono in f.terms:
        u = G.mono_log(mono)
        coords = G.express_in_basis(u, list(scale.generators))
        if coords is None:
            raise ScaleMismatch(
                f"transmonomial {mono} is not a monomial of the scale {scale}")
        vec = tuple(-q for q in coords)
        terms[vec] = c
    return from_terms(scale, terms)


def geometric(scale: Scale, step: Monomial, ratio=1) -> LaurentSeries:
    """sum_nu ratio^nu step^nu for a small step monomial."""
    if not step.is_small():
        raise WitnessViolated(f"geometric step {step} is not small")
    out = _geometric_of(monomial_series(scale, step, ratio), DEFAULT_BUDGET)
    out.convergence = Convergence("geometric")
    out.provenance = f"geom({step})"
    return out


# ---------------------------------------------------------------------------
# truncation, leading factorization, inversion


def truncate(f: LaurentSeries, cutoff: Monomial,
             budget: int = DEFAULT_BUDGET) -> LaurentSeries:
    """The finite sub-sum over monomials >= cutoff, as an explicit series."""
    terms = f.terms_to_cutoff(cutoff, budget)
    out = from_terms(f.scale, dict(terms))
    out.provenance = f"trunc({f.provenance},{cutoff})"
    return out


def factor_leading(f: LaurentSeries, budget: int = DEFAULT_BUDGET
                   ) -> tuple[Fraction, Monomial, LaurentSeries]:
    """Write f = a * lm * (1 - e) with lm(e) small; returns (a, lm, e)."""
    v0, a = f.leading_term(budget)
    lm = Monomial(f.scale, v0)
    rest = f.shifted(tuple(-x for x in v0)).scaled(1 / a)
    e = one(f.scale) - rest
    e.provenance = f"eps({f.provenance})"
    return a, lm, e


def _geometric_of(e: LaurentSeries, budget: int) -> LaurentSeries:
    """sum_nu e^nu for a series whose leading monomial is small.

    The sum c solves c = 1 + e*c, so c_v = [v = 0] + sum_u e_u c_(v-u) over
    the terms u of e above the origin: a self-referential online product
    (van der Hoeven, "Relax, but don't be too lazy", 2002).  The heap holds
    pairs (i, j) standing for term i of e times term j of c, each reached
    once: (first, k) when c's term k is emitted, (i+1, j) when (i, j) pops.
    Every such u is lex-positive, so c_(v-u) is emitted before v."""
    try:
        ev, _ = e.leading_term(budget)
    except ZeroWithinBound:
        # only a stream that ends within the budget proves e = 0; a longer
        # one may still have a nonzero term past it
        if e._term(budget) is None:
            return one(e.scale)
        raise
    if not Monomial(e.scale, ev).is_small():
        raise ZeroWithinBound(f"leading monomial of remainder {ev} is not small")
    origin = vzero(e.scale.arity)

    def factory():
        # e's terms at or below the origin all precede ev, so they are zero;
        # keeping the zero term at the origin would make c_v depend on c_v.
        # Zero terms above it stay pairs, so the skeleton stays complete.
        first = 0
        while e._term(first)[0] <= origin:
            first += 1
        out: list[Term] = []
        heap = [(origin, -1, -1)]  # the constant 1

        def push(i: int, j: int):
            t = e._term(i)
            if t is not None:
                heapq.heappush(heap, (vadd(t[0], out[j][0]), i, j))

        while heap:
            v = heap[0][0]
            total = Q(0)
            while heap and heap[0][0] == v:
                _, i, j = heapq.heappop(heap)
                if i < 0:
                    total += 1
                else:
                    total += e._term(i)[1] * out[j][1]
                    push(i + 1, j)
            out.append((v, total))
            push(first, len(out) - 1)
            yield (v, total)

    uni = None
    if e._universe is not None and e._universe.explicit is not None:
        gens = {p for p in e._universe.explicit if any(p)}
        if all(lex_positive(p) for p in gens):
            uni = SupportUniverse.generated(e.scale.arity, gens)
    return LaurentSeries(e.scale, factory,
                         universe=uni, provenance=f"geomsum({e.provenance})")


def invert(f: LaurentSeries, budget: int = DEFAULT_BUDGET) -> LaurentSeries:
    """Multiplicative inverse via the geometric construction
    1/f = (1/a) lm^-1 (1 + e + e^2 + ...)."""
    a, lm, e = factor_leading(f, budget)
    geo = _geometric_of(e, budget)
    out = geo.shifted(tuple(-x for x in lm.vector)).scaled(1 / a)
    conv = None
    if f.convergence is not None:
        conv = Convergence("geometric", f.convergence.threshold)
    out.convergence = conv
    out.provenance = f"inv({f.provenance})"
    return out


def equal_to_cutoff(f: LaurentSeries, g: LaurentSeries, cutoff: Monomial,
                    budget: int = DEFAULT_BUDGET) -> bool:
    """Coefficient-for-coefficient agreement on every monomial >= cutoff."""
    lhs = dict(f.terms_to_cutoff(cutoff, budget))
    rhs = dict(g.terms_to_cutoff(cutoff, budget))
    return lhs == rhs


def is_zero_to_cutoff(f: LaurentSeries, cutoff: Monomial,
                      budget: int = DEFAULT_BUDGET) -> bool:
    return not f.terms_to_cutoff(cutoff, budget)


# ---------------------------------------------------------------------------
# infinite families


def sum_family(scale: Scale, family: Callable[[int], Optional[LaurentSeries]],
               witness_class: int,
               leading_monomials: Callable[[int], Optional[Monomial]],
               joint_skeleton: Optional[SupportUniverse] = None,
               probe: int = 40) -> LaurentSeries:
    """Sum of F_0 + F_1 + ... with caller-supplied coinitiality witness.

    ``leading_monomials`` gives lm(F_nu); the projections onto the witness
    comparability class must strictly decrease and the joint skeleton union
    must stay natural (probed on the first ``probe`` members: a strictly
    shrinking positive coordinate gap is rejected, mirroring the failure of
    naturality for supports like {(nu, 1/nu)})."""
    from .scale import project_class

    lo, hi = scale.classes[witness_class]

    seen: list[Monomial] = []
    mins: list[Optional[Fraction]] = [None] * scale.arity
    shrink_count = [0] * scale.arity
    for nu in range(probe):
        m = leading_monomials(nu)
        if m is None:
            break
        proj = project_class(scale, witness_class, m)
        if seen and not monomial_cmp(proj, project_class(scale, witness_class, seen[-1])) < 0:
            raise WitnessViolated(
                f"class-{witness_class} projections do not strictly decrease at {nu}")
        seen.append(m)
        for i, a in enumerate(m.vector):
            if a > 0:
                if mins[i] is not None and a < mins[i]:
                    shrink_count[i] += 1
                if mins[i] is None or a < mins[i]:
                    mins[i] = a
    for i, n in enumerate(shrink_count):
        if n >= max(3, probe // 4):
            raise WitnessViolated(
                f"joint skeleton is not natural: coordinate {i} has no "
                f"positive gap (minimum keeps shrinking)")

    def hint(nu: int) -> Optional[Vec]:
        m = leading_monomials(nu)
        return None if m is None else m.vector

    return LaurentSeries(scale, _family_factory(family, hint),
                         universe=joint_skeleton,
                         provenance="family-sum")


# ---------------------------------------------------------------------------
# right composition


def compose_right(f: LaurentSeries, g: GermTerm) -> LaurentSeries:
    """Rewrite every generator f_i to f_i o g; exponent vectors carry over,
    so the result reads f's own memo.  Raises NotAScaleAfterShift, caused by
    the refusal, when a composition or the composed scale is refused."""
    try:
        composed = [G.compose_exact(gen, g) for gen in f.scale.generators]
        new_scale = make_scale(composed)
    except TransgermError as exc:
        raise NotAScaleAfterShift(str(exc)) from exc
    if list(new_scale.generators) != composed:
        raise NotAScaleAfterShift(
            "basis extraction rewrote the composed generators; exponent "
            "vectors would not transfer")
    return f._view(new_scale,
                   None if f.convergence is None
                   else replace(f.convergence, threshold=None),
                   f"({f.provenance} o {g})")


# ---------------------------------------------------------------------------
# order types


@dataclass(frozen=True)
class OmegaPoly:
    """Ordinal below omega^omega in Cantor normal form: sum c_k omega^k."""

    coeffs: tuple[tuple[int, int], ...]  # (exponent, count), descending

    @staticmethod
    def finite(n: int) -> "OmegaPoly":
        return OmegaPoly(((0, n),) if n else ())

    @staticmethod
    def omega_power(k: int, c: int = 1) -> "OmegaPoly":
        return OmegaPoly(((k, c),))

    def is_zero(self) -> bool:
        return not self.coeffs

    def times_finite(self, n: int) -> "OmegaPoly":
        if n == 0 or self.is_zero():
            return OmegaPoly(())
        if n == 1:
            return self
        (e, c), rest = self.coeffs[0], self.coeffs[1:]
        return OmegaPoly(((e, c * n),) + rest)

    def times_omega(self) -> "OmegaPoly":
        if self.is_zero():
            return self
        return OmegaPoly(((self.coeffs[0][0] + 1, 1),))

    def __le__(self, other: "OmegaPoly") -> bool:
        return self.coeffs <= other.coeffs

    def __lt__(self, other: "OmegaPoly") -> bool:
        return self.coeffs < other.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.coeffs:
            if e == 0:
                parts.append(str(c))
            else:
                base = "omega" if e == 1 else f"omega^{e}"
                parts.append(base if c == 1 else f"{base}*{c}")
        return " + ".join(parts)


@dataclass
class OrderTypeBound:
    bound_exponent: int  # reverse-order type <= omega^bound_exponent
    exact: Optional[OmegaPoly]
    witnessed_terms: int

    def __str__(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        return f"<= omega^{self.bound_exponent} (witnessed {self.witnessed_terms} terms)"


def order_type(f: LaurentSeries, budget: int = 512) -> OrderTypeBound:
    """Reverse order type of the support skeleton.

    The bound exponent counts scale generators that occur in an infinite
    direction of the skeleton (each comparability class of occurring
    generators contributes one omega factor; for a validated scale the
    generators are pairwise incomparable as monomials, so classes are
    counted per generator).  The exact type is computed for finite series
    and for skeletons that split as per-coordinate products."""
    witness = 0
    exhausted = False
    for n, (v, c) in enumerate(f.iter_terms()):
        if n >= budget:
            break
        if c:
            witness += 1
    else:
        exhausted = True

    uni = f._universe
    if exhausted:
        return OrderTypeBound(1 if witness else 0,
                              OmegaPoly.finite(witness), witness)
    if uni is None:
        return OrderTypeBound(f.scale.arity, None, witness)
    infinite = uni.infinite_coordinates()
    bound = max(1, len(infinite))
    factors = uni.product_factors()
    exact = None
    if factors is not None:
        exact = OmegaPoly.finite(1)
        for i in range(len(factors) - 1, -1, -1):
            fac = factors[i]
            if fac == "omega":
                exact = exact.times_omega()
            else:
                exact = exact.times_finite(len(fac))
    return OrderTypeBound(bound, exact, witness)


# ---------------------------------------------------------------------------
# numeric summation


def sum_numeric(f: LaurentSeries, x: float, cutoff: Monomial,
                budget: int = DEFAULT_BUDGET) -> tuple[float, float]:
    """Evaluate the truncation above the cutoff at x, with the magnitude of
    the first omitted term as tail estimate."""
    if f.convergence is None:
        raise NotMarkedConvergent(
            "series has no convergence tag; use assert_convergent or a "
            "constructor that certifies convergence")
    thr = f.convergence.threshold
    if thr is not None and x < thr:
        raise DomainError(f"x={x} below the certified convergence threshold {thr}")
    f._check_monomial(cutoff)
    total = []
    tail = 0.0
    for n, (v, c) in enumerate(f.iter_terms()):
        if n >= budget:
            if v <= cutoff.vector:
                raise CutoffTooDeep(f"summation above {cutoff} exceeds budget")
            break
        if v > cutoff.vector:
            if c:
                tail = abs(float(c) * Monomial(f.scale, v).eval(x))
                break
            continue
        if c:
            total.append(float(c) * Monomial(f.scale, v).eval(x))
    return math.fsum(total), tail
