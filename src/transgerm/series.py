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

import functools
import heapq
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from . import germ as G
from .errors import (
    ArityMismatch,
    CutoffTooDeep,
    NotAScaleAfterShift,
    NotInFragment,
    NotMarkedConvergent,
    DomainError,
    ScaleMismatch,
    TransgermError,
    WitnessViolated,
    ZeroWithinBound,
)
from .gps import DEFAULT_BUDGET, GenSeries, _check_budget
from .scale import (Monomial, Scale, check_monomial, check_scale, make_scale,
                    monomial_cmp, _monomial_value)
from .support import (
    MemoStream,
    Q,
    SupportUniverse,
    Vec,
    check_arity,
    rational,
    vadder,
    vec,
    vsub,
    vzero,
)
from .germ import GermTerm


Term = tuple[Vec, Fraction]


@dataclass(frozen=True)
class Convergence:
    """Capability tag: numeric summation is meaningful for x at or above
    ``threshold`` (for every x when it is None).  A series without a tag
    refuses ``sum_numeric``."""

    threshold: Optional[float] = None


def _combine_convergence(*tags: Optional[Convergence]) -> Optional[Convergence]:
    """None if any operand is untagged, else the largest threshold."""
    if any(t is None for t in tags):
        return None
    thr = max((t.threshold for t in tags if t.threshold is not None), default=None)
    return Convergence(thr)


class LaurentSeries:
    """Lazy generalized Laurent series over a Scale.  ``skeleton(budget)``
    is the universe whose lex enumeration, zeros included, is exactly the
    stream, or None.  It is kept by the leaves make_laurent, from_terms and
    truncate, by invert of a stream that ends within the budget, and by
    their maps; not by sums, products, families or raw streams.

    scaled, shifted, negation, subseries, assert_convergent and
    compose_right build through ``_map``.  A map node records ``(source,
    delta, q, keeps)``: the source's term c at v is q*c at v + delta, or 0
    unless every keep holds.  A map of a map folds onto the source, which
    is never a map node: the deltas add, the scalars multiply, and each keep
    is read at the source's vector plus the delta it was applied at.  So a
    chain of any length pulls its source directly, and its skeleton is the
    source's shifted by delta.  The identity map (no delta, q = 1, no keep)
    is a view: it shares the operand's memo, skeleton and record, so views
    pull each term once and a product of f and a view of f squares."""

    def __init__(self, scale: Scale, factory: Callable[[], Iterator[Term]], *,
                 skeleton: Optional[Callable[[int], Optional[SupportUniverse]]] = None,
                 convergence: Optional[Convergence] = None, provenance: str = ""):
        self.scale = scale
        self.convergence = convergence
        self.provenance = provenance
        self._skeleton = skeleton
        self._memo = MemoStream(factory)
        self._map = None

    # -- enumeration ------------------------------------------------------------

    def iter_terms(self) -> Iterator[Term]:
        return iter(self._memo)

    def terms_to_cutoff(self, cutoff: Monomial,
                        budget: int = DEFAULT_BUDGET) -> list[Term]:
        """All (vector, coefficient) pairs for monomials >= cutoff, zeros
        dropped.  Raises CutoffTooDeep when the budget runs out first."""
        check_monomial(cutoff, self.scale)
        _check_budget(budget)
        items, get, cut = self._memo._items, self._memo.get, cutoff.vector
        out, n = [], 0
        while (t := items[n] if n < len(items) else get(n)) is not None:
            if t[0] > cut:
                break
            if n >= budget:
                raise CutoffTooDeep(
                    f"enumeration above {cutoff} needs more than {budget} terms")
            if t[1]:
                out.append(t)
            n += 1
        return out

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        check_series(other, self.scale)
        return LaurentSeries(
            self.scale, _merge_factory([self, other]),
            convergence=_combine_convergence(self.convergence, other.convergence),
            provenance=f"({self.provenance}+{other.provenance})")

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        check_series(other, self.scale)
        return self + (-other)

    __radd__ = __add__

    # other is never a series here, and check_series refuses it
    __rsub__ = __add__

    def __neg__(self) -> "LaurentSeries":
        return self.scaled(Q(-1))

    def scaled(self, q) -> "LaurentSeries":
        q = rational(q)
        return _map(self, f"({q}*{self.provenance})", q=q)

    def shifted(self, delta: Vec) -> "LaurentSeries":
        delta = vec(delta)
        check_arity(delta, self.scale.arity, "shift")
        return _map(self, f"shift({self.provenance})", delta=delta)

    def __mul__(self, other) -> "LaurentSeries":
        if isinstance(other, LaurentSeries):
            check_series(other, self.scale)
            return LaurentSeries(
                self.scale, _product_factory(self, other),
                convergence=_combine_convergence(self.convergence, other.convergence),
                provenance=f"({self.provenance}*{other.provenance})")
        return self.scaled(other)

    __rmul__ = __mul__

    def subseries(self, keep: Callable[[Vec], bool]) -> "LaurentSeries":
        """Restrict coefficients to a decidable exponent predicate.  The
        paper reads an expansion class by class: the terms whose exponents
        in the dominant comparability class take one value form one block of
        a support of order type past omega, and each block is such a
        restriction."""
        if not callable(keep):
            raise NotInFragment(f"{keep!r} is not an exponent predicate")
        return _map(self, f"sub({self.provenance})", keep=keep)

    # -- convergence -----------------------------------------------------------------

    def assert_convergent(self, threshold: Optional[float] = None) -> "LaurentSeries":
        """The same terms, tagged summable for x >= threshold, a real within
        float range (for every x when it is None).  nan would pass every
        threshold check of sum_numeric, so it is refused here."""
        if threshold is not None and not (isinstance(threshold, numbers.Real)
                                          and abs(threshold) <= sys.float_info.max):
            raise DomainError(f"threshold {threshold!r} is not a finite float")
        return _map(self, self.provenance, convergence=Convergence(threshold))

    def __repr__(self) -> str:
        return f"LaurentSeries({self.provenance or 'stream'} over {self.scale})"


def check_series(f, scale: Optional[Scale] = None, kind: type = LaurentSeries) -> None:
    """NotInFragment unless f is a series of the kind; given a scale, also
    ScaleMismatch unless it is over that scale (a number or body is not)."""
    if not isinstance(f, kind) or scale is not None and f.scale != scale:
        raise (NotInFragment if scale is None else ScaleMismatch)(
            f"{f!r} is not a {kind.__name__} over {scale}")


def _map(f: LaurentSeries, provenance: str, *, delta: Optional[Vec] = None,
         q: Fraction = Q(1), keep: Optional[Callable[[Vec], bool]] = None,
         scale: Optional[Scale] = None, convergence=...) -> LaurentSeries:
    """f's terms moved by delta, scaled by q and kept where keep holds, over
    scale and convergence when given (f's otherwise), as a map node (see
    LaurentSeries); keeps is a linked list (keep, delta, rest)."""
    out = object.__new__(LaurentSeries)  # a shallow copy of f
    vars(out).update(vars(f), provenance=provenance, scale=scale or f.scale)
    if convergence is not ...:
        out.convergence = convergence
    if (delta is None or not any(delta)) and q == 1 and keep is None:
        return out
    src, d, r, keeps = f._map or (f, vzero(f.scale.arity), Q(1), None)
    add = vadder(len(d))
    d, r = (d if delta is None else add(d, delta)), r * q
    keeps = keeps if keep is None else (keep, d, keeps)

    def factory():
        for v, c in src.iter_terms():
            k = keeps  # stops at the first keep that fails, else at None
            while k is not None and k[0](add(v, k[1])):
                k = k[2]
            yield add(v, d), (Q(0) if k else r * c)

    sk = src._skeleton
    out._memo, out._map = MemoStream(factory), (src, d, r, keeps)
    out._skeleton = sk and (lambda b: (u := sk(b)) and u.shifted(d))
    return out


# ---------------------------------------------------------------------------
# stream factories


def _heap_sum(heap: list, popped: Callable[[int, int], Optional[tuple]]
              ) -> Iterator[Term]:
    """The one series kernel: take every entry (v, i, j, n, d) at the least
    v, sum the ints n/d and yield (v, Q(n, d)), reduced once.  The first
    entry at v starts the sum and each later one is added inline as
    support.py's int pair, so a pair costs no Python call but popped.
    popped(i, j), called while entry (i, j) is the root, returns the entry
    that replaces it in one sift (heapreplace), or None to pop it; it may
    push a second successor, and the caller may push between yields.  Each
    entry so returned or pushed must lie past v (nothing checks it), so a
    push leaves the root in place and each v is summed once."""
    pop, replace, gcd = heapq.heappop, heapq.heapreplace, math.gcd
    while heap:
        v, i, j, n, d = heap[0]
        replace(heap, e) if (e := popped(i, j)) else pop(heap)
        while heap and heap[0][0] == v:
            _, i, j, p, q = heap[0]
            if q == d:
                n += p
            else:
                g = gcd(d, q)
                n, d = n * (q // g) + p * (d // g), d // g * q
            replace(heap, e) if (e := popped(i, j)) else pop(heap)
        yield (v, Q(n, d))


def _stream_reader(iters: list, hints: list):
    """advance(k) returns the next term of stream iters[k] as the entry
    (v, k, 0, n, d), or None at its end, skipping its terms above hints[k],
    its declared leading monomial: a nonzero one there violates the
    witness, and more than DEFAULT_BUDGET zeros refuse.  Streams ascend, so
    only a stream's first entry, which the caller pushes, skips.  advance
    is also _heap_sum's popped, which passes j as well."""

    def advance(k: int, _j: int = 0) -> Optional[tuple]:
        it, h = iters[k], hints[k]
        t = next(it, None)
        skipped = 0
        while t is not None and t[0] < h:
            if t[1]:
                raise WitnessViolated(
                    f"member {k} has support above its declared leading "
                    f"monomial")
            t = next(it, None)
            skipped += 1
            if skipped > DEFAULT_BUDGET:
                raise CutoffTooDeep(
                    "family member fast-forward budget exceeded")
        if t is not None:
            c = t[1]
            return (t[0], k, 0, c.numerator, c.denominator)

    return advance


def _merge_factory(children: Sequence[LaurentSeries]):
    def factory():
        iters = [ch.iter_terms() for ch in children]
        # () precedes every vector, so nothing is skipped
        advance = _stream_reader(iters, [()] * len(iters))
        heap = list(filter(None, map(advance, range(len(iters)))))
        heapq.heapify(heap)
        yield from _heap_sum(heap, advance)

    return factory


def _product_factory(a: LaurentSeries, b: LaurentSeries):
    """Johnson's heap product over _heap_sum: entry (i, j) is term i of a
    times term j of b, as the unreduced ints n/d, so a pop reads no memo.
    Each pair is reached once: (i+1, j) replaces (i, j) when it pops, and
    popping (0, j) also pushes (0, j+1).  Both streams ascend, so every
    pair enters the heap while its parent, of a smaller vector, pops.
    Square rule: when a and b share one memo (f*f, or f times a view of
    f), only the pairs i <= j are visited and an off-diagonal product
    counts twice.  Operand terms are read and unpacked to (v, n, d) once,
    in order, and None marks an operand's end; popped reads its operands
    from these lists and asks a memo only for a term not yet read."""
    get_a, get_b = a._memo.get, b._memo.get
    square = a._memo is b._memo
    add, push = vadder(a.scale.arity), heapq.heappush

    def factory():
        heap: list = []
        a_terms: list = []
        b_terms = a_terms if square else []

        def read(ts: list, get):
            t = get(len(ts))
            ts.append(t and (t[0], t[1].numerator, t[1].denominator))
            return ts[-1]

        def popped(i: int, j: int):
            if i == 0:  # pair (0, j+1), pushed under the root
                k = j + 1
                tb = b_terms[k] if k < len(b_terms) else read(b_terms, get_b)
                if tb is not None:
                    ta = a_terms[0]
                    n = ta[1] * tb[1]
                    push(heap, (add(ta[0], tb[0]), 0, k,
                                n + n if square else n, ta[2] * tb[2]))
            if not square or i < j:  # pair (i+1, j) replaces (i, j)
                k = i + 1
                ta = a_terms[k] if k < len(a_terms) else read(a_terms, get_a)
                if ta is not None:
                    tb = b_terms[j]
                    n = ta[1] * tb[1]
                    return (add(ta[0], tb[0]), k, j,
                            n + n if square and k != j else n, ta[2] * tb[2])

        ta = read(a_terms, get_a)
        tb = a_terms[0] if square else read(b_terms, get_b)
        if ta is not None and tb is not None:
            push(heap, (add(ta[0], tb[0]), 0, 0, ta[1] * tb[1], ta[2] * tb[2]))
        yield from _heap_sum(heap, popped)

    return factory


def _family_factory(member: Callable[[int], Optional[LaurentSeries]],
                    lm_hint: Callable[[int], Optional[Vec]]):
    """Sum of a (possibly infinite) family whose leading monomials strictly
    decrease; ``lm_hint(nu)`` bounds member nu's support from above and must
    be strictly lex-increasing.  None from either ends the family."""

    def factory():
        heap: list = []
        iters: list = []
        hints: list = []
        advance = _stream_reader(iters, hints)

        def open_frontier(guard: int) -> bool:
            # open every member that could reach the frontier; False once ended
            while True:
                k = len(iters)
                h = lm_hint(k)
                if h is None or (heap and h > heap[0][0]):
                    return h is not None
                if hints and h <= hints[-1]:
                    raise WitnessViolated(
                        f"leading monomials do not strictly decrease at member {k}")
                m = member(k)
                if m is None:
                    return False
                hints.append(h)
                iters.append(m.iter_terms())
                if (e := advance(k)) is not None:
                    heapq.heappush(heap, e)
                guard += 1
                if guard > DEFAULT_BUDGET:
                    raise CutoffTooDeep(
                        "family opening budget exceeded; leading monomials "
                        "are not coinitial past the frontier")

        more = open_frontier(-1)  # member 0 is not counted
        for t in _heap_sum(heap, advance):
            yield t
            more = more and open_frontier(0)

    return factory


# ---------------------------------------------------------------------------
# constructors


def from_terms(scale: Scale, terms: dict, *,
               convergence: Optional[Convergence] = Convergence()
               ) -> LaurentSeries:
    check_scale(scale)
    if not isinstance(terms, dict):
        raise NotInFragment(f"{terms!r} is not a dict of terms")
    tbl = {}
    for k, c in terms.items():
        if isinstance(k, Monomial):
            check_monomial(k, scale)
            k = k.vector
        v = vec(k)
        check_arity(v, scale.arity, "exponent vector")
        if c := rational(c):
            tbl[v] = tbl.get(v, 0) + c
    return _finite(scale, sorted(tbl.items()), convergence, "terms")


def _finite(scale: Scale, items: list, convergence: Optional[Convergence],
            provenance: str) -> LaurentSeries:
    """Distinct ascending terms, over the finite universe of their vectors."""
    sk = lambda b: SupportUniverse(scale.arity, (v for v, _ in items))
    return LaurentSeries(scale, lambda: iter(items), skeleton=sk,
                         convergence=convergence, provenance=provenance)


def make_laurent(scale: Scale, shift: Monomial, body: GenSeries,
                 *, convergence: Optional[Convergence] = None) -> LaurentSeries:
    """shift * body(m_0, ..., m_k), the model constructor of the series type."""
    check_scale(scale)
    check_series(body, kind=GenSeries)
    if body.arity != scale.arity:
        raise ArityMismatch(
            f"body arity {body.arity} does not match scale arity {scale.arity}")
    check_monomial(shift, scale)
    delta, add = shift.vector, vadder(scale.arity)
    if convergence is None and not body.universe.gens:
        convergence = Convergence()

    def factory():
        # points of the body's own stream, read as GenSeries._at reads them
        # (inline, without coeff's checks); the unit shift moves none of them
        memo, oracle, move = body._memo, body._oracle, any(delta)
        for v in body.universe.lex_stream():
            c = memo.get(v)
            if c is None:
                c = memo[v] = oracle(v)
            yield (add(v, delta) if move else v), c

    return LaurentSeries(scale, factory, convergence=convergence,
                         skeleton=lambda b: body.universe.shifted(delta),
                         provenance=f"laurent({body.provenance})")


def lift_germ(scale: Scale, f: GermTerm) -> LaurentSeries:
    """A germ as a finite series, when each of its transmonomials lies in the
    scale's monomial group.  A non-germ f raises NotInFragment."""
    G.check_germ(f)
    terms = {}
    for c, mono in f.terms:
        u = G.mono_log(mono)
        coords = G.express_in_basis(u, list(scale.generators))
        if coords is None:
            raise ScaleMismatch(
                f"transmonomial {mono} is not a monomial of the scale {scale}")
        terms[tuple(-q for q in coords)] = c
    return from_terms(scale, terms)


def geometric(scale: Scale, step: Monomial, ratio=1) -> LaurentSeries:
    """sum_nu ratio^nu step^nu = 1/(1 - ratio*step) for a small step."""
    check_monomial(step, scale)
    # from_terms tags the result convergent
    f = from_terms(scale, {vzero(scale.arity): 1, step: -rational(ratio)})
    if not step.is_small():
        raise WitnessViolated(f"geometric step {step} is not small")
    out = invert(f)
    out.provenance = f"geom({step})"
    return out


# ---------------------------------------------------------------------------
# truncation and inversion


def truncate(f: LaurentSeries, cutoff: Monomial,
             budget: int = DEFAULT_BUDGET) -> LaurentSeries:
    """The finite sub-sum over monomials >= cutoff, as an explicit series."""
    check_series(f)
    terms, arity = f.terms_to_cutoff(cutoff, budget), f.scale.arity
    for v in (v for v, _ in terms if len(v) != arity):
        check_arity(v, arity, "exponent vector")
    return _finite(f.scale, terms, Convergence(), f"trunc({f.provenance},{cutoff})")


def invert(f: LaurentSeries, budget: int = DEFAULT_BUDGET) -> LaurentSeries:
    """Multiplicative inverse by online division over f's own memo (van der
    Hoeven, "Relax, but don't be too lazy", 2002).  With a*lm the leading
    term of f, a*c_v = [v = lm^-1] - sum_u f_u c_(v-u+lm) over f's terms u
    after lm; each u - lm is lex-positive, so c_v needs only terms already
    emitted.  The sum is _heap_sum's: pair (i, j) is the remainder term
    -f_u/a at u - lm times c's term j, reached once: pushed at (0, j) when
    c_j is emitted, and at (i+1, j) in place of (i, j) when that pops.
    Zero terms after lm stay pairs, so the skeleton stays complete.  Each
    term of f is read once, and its end once."""
    check_series(f)
    _check_budget(budget)
    # f's terms up to its second nonzero one within the budget; one nonzero
    # term alone proves f = a*lm only when f's stream also ends there
    head: list[Term] = []
    hits: list[int] = []
    for t in itertools.islice(f.iter_terms(), budget):
        if t[1]:
            hits.append(len(head))
        head.append(t)
        if len(hits) == 2:
            break
    get = f._memo.get
    if not hits:
        raise ZeroWithinBound(
            f"no nonzero coefficient within the first {budget} skeleton points")
    if len(hits) == 1 and get(budget) is not None:
        raise ZeroWithinBound(
            f"the remainder after the leading term has no nonzero coefficient "
            f"within the first {budget} skeleton points, and the stream does "
            f"not end there")
    lm, a = head[hits[0]]
    inv_lm, inv_a = tuple(-x for x in lm), 1 / a
    if len(hits) == 1:
        out = from_terms(f.scale, {inv_lm: inv_a}, convergence=f.convergence)
        out.provenance = f"inv({f.provenance})"
        return out
    first = hits[0] + 1

    def remainder(t: Optional[Term]):
        # f's term u as u - lm and -f_u/a as n, d; None at f's end
        if t is None:
            return None
        e = -t[1] * inv_a
        return vsub(t[0], lm), e.numerator, e.denominator

    def factory():
        # each term of f is shifted and scaled once, when first read
        rem = [remainder(t) for t in head[first:]]
        out: list[tuple[Vec, int, int]] = []  # c's terms as v, n, d
        heap, add = [], vadder(len(lm))

        def next_pair(i: int, j: int):
            # pair (i+1, j), (i, j)'s successor, and (0, j) as next_pair(-1, j)
            i += 1
            if i == len(rem):
                rem.append(remainder(get(first + i)))
            r = rem[i]
            if r is not None:  # f has not ended
                w, p, q = out[j]
                return (add(r[0], w), i, j, r[1] * p, r[2] * q)

        # c's first term is 1/a at lm^-1; every later one is a heap sum
        for v, c in itertools.chain([(inv_lm, inv_a)],
                                    _heap_sum(heap, next_pair)):
            out.append((v, c.numerator, c.denominator))
            if (e := next_pair(-1, len(out) - 1)) is not None:
                heapq.heappush(heap, e)
            yield (v, c)

    def skeleton(b: int) -> Optional[SupportUniverse]:
        # inv_lm + monoid(u - lm) over f's points u after lm, zeros included,
        # when f's own stream ends within the budget
        if get(b) is None:
            gens = (vsub(v, lm) for v, _ in itertools.islice(f._memo, first, None))
            return SupportUniverse(f.scale.arity, [inv_lm], gens)
        return None

    return LaurentSeries(f.scale, factory, skeleton=skeleton,
                         convergence=f.convergence,
                         provenance=f"inv({f.provenance})")


# ---------------------------------------------------------------------------
# infinite families

# the number of leading monomials on which sum_family checks, before any
# member opens, that the joint skeleton stays natural
_FAMILY_PROBE = 40


def sum_family(scale: Scale, family: Callable[[int], Optional[LaurentSeries]],
               witness_class: int,
               leading_monomials: Callable[[int], Optional[Monomial]]
               ) -> LaurentSeries:
    """Sum of F_0 + F_1 + ... with caller-supplied coinitiality witness.

    ``leading_monomials`` gives lm(F_nu); the projections onto the witness
    comparability class must strictly decrease and the joint skeleton union
    must stay natural (probed on the first _FAMILY_PROBE members: a strictly
    shrinking positive coordinate gap is rejected, mirroring the failure of
    naturality for supports like {(nu, 1/nu)})."""
    from .scale import project_class

    if not (callable(family) and callable(leading_monomials)):
        raise NotInFragment("a family and its leading monomials are functions")
    if not isinstance(witness_class, int):
        raise ArityMismatch(f"class index {witness_class!r} is not an int")
    if not 0 <= witness_class < len(scale.classes):
        raise WitnessViolated(
            f"witness class {witness_class} is not a class of the scale")

    def lm(nu: int) -> Optional[Monomial]:
        m = leading_monomials(nu)
        if m is not None:
            check_monomial(m, scale)
        return m

    def member(nu: int) -> Optional[LaurentSeries]:
        f = family(nu)
        if f is not None and f.scale != scale:
            raise ScaleMismatch(f"family member {nu} is over a different scale")
        return f

    seen: list[Monomial] = []
    mins: list[Optional[Fraction]] = [None] * scale.arity
    shrink_count = [0] * scale.arity
    for nu in range(_FAMILY_PROBE):
        m = lm(nu)
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
        if n >= max(3, _FAMILY_PROBE // 4):
            raise WitnessViolated(
                f"joint skeleton is not natural: coordinate {i} has no "
                f"positive gap (minimum keeps shrinking)")

    def hint(nu: int) -> Optional[Vec]:
        m = lm(nu)
        return None if m is None else m.vector

    return LaurentSeries(scale, _family_factory(member, hint),
                         provenance="family-sum")


# ---------------------------------------------------------------------------
# right composition


def compose_right(f: LaurentSeries, g: GermTerm) -> LaurentSeries:
    """Rewrite every generator f_i to f_i o g; exponent vectors carry over,
    so the result reads f's own memo.  Raises NotAScaleAfterShift, caused by
    the refusal, when a composition or the composed scale is refused.  A
    threshold bounds f's argument, here g(x): a tag with one is dropped."""
    check_series(f)
    try:
        composed = [G.compose_exact(gen, g) for gen in f.scale.generators]
        new_scale = make_scale(composed)
    except TransgermError as exc:
        raise NotAScaleAfterShift(str(exc)) from exc
    if list(new_scale.generators) != composed:
        raise NotAScaleAfterShift(
            "basis extraction rewrote the composed generators; exponent "
            "vectors would not transfer")
    return _map(f, f"({f.provenance} o {g})", scale=new_scale,
                convergence=f.convergence if f.convergence == Convergence() else None)


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
    def omega_power(k: int) -> "OmegaPoly":
        return OmegaPoly(((k, 1),))

    def __le__(self, other: "OmegaPoly") -> bool:
        return self.coeffs <= other.coeffs

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


def order_type(f: LaurentSeries, budget: int = 512) -> OrderTypeBound:
    """Reverse order type of the support skeleton.

    A stream that ends within the budget is finite.  Otherwise the type is
    read from f's skeleton (see LaurentSeries); a series without one gets
    the arity bound and no exact type.

    The bound exponent counts scale generators that occur in an infinite
    direction of the skeleton (each comparability class of occurring
    generators contributes one omega factor; for a validated scale the
    generators are pairwise incomparable as monomials, so classes are
    counted per generator).  The exact type is computed for finite series
    and for skeletons that split as per-coordinate products: when every
    generator moves one coordinate, each of the k coordinates moved is a
    factor omega and every other one a single point, so the type is
    omega^k."""
    check_series(f)
    _check_budget(budget)
    items, get = f._memo._items, f._memo.get
    n = min(len(items), budget + 1)  # stored; pulls only past them
    while n <= budget and get(n) is not None:
        n += 1
    head = items[:n]
    witness = sum(1 for _, c in head[:budget] if c)
    if len(head) <= budget:
        return OrderTypeBound(1 if witness else 0,
                              OmegaPoly.finite(witness), witness)
    uni = f._skeleton and f._skeleton(budget)
    if uni is None:
        return OrderTypeBound(f.scale.arity, None, witness)
    infinite = uni.infinite_coordinates()
    bound = max(1, len(infinite))
    exact = None
    if (len(uni.points) == 1 and uni.gens
            and all(sum(map(bool, g)) == 1 for g in uni.gens)):
        exact = OmegaPoly.omega_power(len(infinite))
    return OrderTypeBound(bound, exact, witness)


# ---------------------------------------------------------------------------
# numeric summation


def sum_numeric(f: LaurentSeries, x: float, cutoff: Monomial,
                budget: int = DEFAULT_BUDGET) -> tuple[float, float]:
    """Evaluate the truncation above the cutoff at x, with the magnitude of
    the first omitted nonzero term as tail estimate, 0.0 if the stream ends.
    Raises CutoffTooDeep when the budget ends before both are found."""
    check_series(f)
    if f.convergence is None:
        raise NotMarkedConvergent(
            "series has no convergence tag; use assert_convergent or a "
            "constructor that certifies convergence")
    if not (isinstance(x, numbers.Real) and abs(x) <= sys.float_info.max):
        raise DomainError(f"x={x!r} is not a finite float")
    thr = f.convergence.threshold
    if thr is not None and x < thr:
        raise DomainError(f"x={x} below the certified convergence threshold {thr}")
    check_monomial(cutoff, f.scale)
    _check_budget(budget)
    # each generator is evaluated once, when a term first needs it; c's
    # float is float(c)'s own correctly rounded int/int division
    y = functools.cache(lambda i: G.eval_germ(f.scale.generators[i], x))
    items, get, total, tail, n = f._memo._items, f._memo.get, [], 0.0, 0
    value, arity = _monomial_value, f.scale.arity
    while (t := items[n] if n < len(items) else get(n)) is not None:
        v, c = t
        if c and v > cutoff.vector:
            tail = abs(c.numerator / c.denominator * value(v, y, arity))
            break
        if n >= budget:
            raise CutoffTooDeep(f"summation above {cutoff} exceeds budget")
        if c:
            total.append(c.numerator / c.denominator * value(v, y, arity))
        n += 1
    return math.fsum(total), tail
