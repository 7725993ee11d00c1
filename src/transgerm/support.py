"""Exponent-vector support skeletons and their enumeration streams.

A SupportUniverse is a superset certificate for the support of a series:
either an explicit finite set of vectors, or ``offset + monoid(gens)`` where
every generator is lexicographically positive.  Lex-positive generation is
exactly what keeps the induced monomial set reverse-well-ordered, so the
ascending-lex stream below enumerates candidate support points in strictly
decreasing monomial order.

A coordinate is an ``int`` when it is integral and a ``Fraction`` otherwise;
``coord`` and ``vec`` normalise to that form, and every constructor of a
vector calls them.  Natural supports of integral generators never leave the
integers, so their arithmetic and hashing skip ``Fraction`` entirely.  The
two forms compare, hash and print alike (``Fraction(2) == 2``,
``hash(Fraction(2)) == hash(2)``, ``str(Fraction(2)) == "2"``), so a sum of
fractional coordinates that lands on an integer is still a correct key.

Coefficients are exact: every coefficient a kernel stores or yields is a
``Fraction`` (``Q``).  Inside, a kernel that sums products of coefficients
(the series products, merges and family sums, the gps convolution and power
table) keeps each sum as a pair of ints, a numerator over a running
denominator, and adds terms with ``qadd``; it builds ``Q(n, d)``, which
reduces by one gcd, once per coefficient it emits.  The pair is not reduced
on the way, but its denominator stays the lcm of the denominators added.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import threading
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .errors import ArityMismatch, WitnessViolated

Q = Fraction
Coord = Union[int, Fraction]
Vec = tuple[Coord, ...]


def qadd(n: int, d: int, a: int, b: int) -> tuple[int, int]:
    """n/d + a/b as an unreduced (numerator, denominator) pair of ints, over
    d itself when b == d and over lcm(d, b) otherwise (denominators > 0)."""
    if b == d:
        return n + a, d
    g = math.gcd(d, b)
    return n * (b // g) + a * (d // g), d // g * b


def coord(a) -> Coord:
    """An exact exponent coordinate: an int when integral, else a Fraction."""
    if type(a) is int:
        return a
    q = Q(a)
    return q.numerator if q.denominator == 1 else q


def vec(p: Iterable) -> Vec:
    return tuple(map(coord, p))


def vzero(arity: int) -> Vec:
    return (0,) * arity


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(map(operator.add, u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(map(operator.sub, u, v))


def vmin(u: Vec, v: Vec) -> Vec:
    return tuple(min(a, b) for a, b in zip(u, v))


def grade(u: Vec) -> Coord:
    return sum(u)


def lex_positive(u: Vec) -> bool:
    for a in u:
        if a:
            return a > 0
    return False


def _lead(u: Vec) -> int:
    """Index of the first nonzero coordinate of a nonzero vector."""
    return next(i for i, a in enumerate(u) if a)


def leq_componentwise(u: Vec, v: Vec) -> bool:
    return all(a <= b for a, b in zip(u, v))


def is_nonnegative(u: Vec) -> bool:
    return all(a >= 0 for a in u)


class SupportUniverse:
    """offset + monoid(gens), or an explicit finite vector set."""

    def __init__(self, arity: int, *, offset: Optional[Vec] = None,
                 gens: Iterable[Vec] = (),
                 explicit: Optional[frozenset] = None):
        self.arity = arity
        self.explicit = explicit
        if explicit is not None:
            if explicit and set(map(len, explicit)) != {arity}:
                bad = next(p for p in explicit if len(p) != arity)
                self._check_arity(bad, "point")
            self.offset = vzero(arity)
            self.gens = frozenset()
            return
        self.offset = vzero(arity) if offset is None else vec(offset)
        self._check_arity(self.offset, "offset")
        cleaned = set()
        for g in gens:
            self._check_arity(g, "generator")
            if any(g):
                if not lex_positive(g):
                    raise WitnessViolated(
                        f"universe generator {g} is not lex-positive")
                cleaned.add(vec(g))
        self.gens = frozenset(cleaned)
        self._by_lead: dict[int, list[Vec]] = {}
        for g in sorted(self.gens):
            self._by_lead.setdefault(_lead(g), []).append(g)
        # membership answers; every entry is a fact, so concurrent writers
        # can only store the same value and no lock is needed
        self._known: dict[Vec, bool] = {self.offset: True}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def finite(arity: int, points: Iterable[Vec]) -> "SupportUniverse":
        return SupportUniverse(arity, explicit=frozenset(map(vec, points)))

    @staticmethod
    def generated(arity: int, gens: Iterable[Vec],
                  offset: Optional[Vec] = None) -> "SupportUniverse":
        return SupportUniverse(arity, offset=offset, gens=gens)

    # -- algebra ---------------------------------------------------------------

    def shifted(self, delta: Vec) -> "SupportUniverse":
        self._check_arity(delta, "shift")
        if self.explicit is not None:
            return SupportUniverse.finite(
                self.arity, (vadd(p, delta) for p in self.explicit))
        return SupportUniverse(self.arity, offset=vadd(self.offset, delta),
                               gens=self.gens)

    def union(self, other: "SupportUniverse") -> "SupportUniverse":
        self._check_arity(other.offset, "universe")
        if self.explicit is not None and other.explicit is not None:
            return SupportUniverse(self.arity,
                                   explicit=self.explicit | other.explicit)
        a, b = self._as_generated(), other._as_generated()
        off = vmin(a.offset, b.offset)
        gens = set(a.gens) | set(b.gens)
        for extra in (vsub(a.offset, off), vsub(b.offset, off)):
            if any(extra):
                gens.add(extra)
        return SupportUniverse(self.arity, offset=off, gens=gens)

    def sum(self, other: "SupportUniverse") -> "SupportUniverse":
        self._check_arity(other.offset, "universe")
        if self.explicit is not None and other.explicit is not None:
            pts = {vadd(p, q) for p in self.explicit for q in other.explicit}
            return SupportUniverse(self.arity, explicit=frozenset(pts))
        a, b = self._as_generated(), other._as_generated()
        return SupportUniverse(self.arity, offset=vadd(a.offset, b.offset),
                               gens=set(a.gens) | set(b.gens))

    def closure(self) -> "SupportUniverse":
        """Monoid closure: contains every finite sum of universe points."""
        if self.explicit is not None:
            gens = {p for p in self.explicit if any(p)}
            return SupportUniverse(self.arity, gens=gens)
        gens = set(self.gens)
        if any(self.offset):
            if not lex_positive(self.offset):
                raise WitnessViolated(
                    "closure of a universe with non-lex-positive offset")
            gens.add(self.offset)
        return SupportUniverse(self.arity, gens=gens)

    def _as_generated(self) -> "SupportUniverse":
        if self.explicit is None:
            return self
        # explicit sets become offset+gens with the componentwise minimum as
        # offset, so every generator is nonnegative (and, being nonzero,
        # lex-positive); for a chain the minimum is the lex-least point
        if not self.explicit:
            return SupportUniverse(self.arity)
        off = functools.reduce(vmin, self.explicit)
        return SupportUniverse(self.arity, offset=off,
                               gens=[vsub(p, off) for p in self.explicit])

    # -- queries ----------------------------------------------------------------

    def infinite_coordinates(self) -> set[int]:
        """Coordinates touched by some generator (directions of infinitude)."""
        out = set()
        for g in self.gens:
            for i, a in enumerate(g):
                if a:
                    out.add(i)
        return out

    def product_factors(self) -> Optional[list[object]]:
        """Per-coordinate factor structure when the universe is a product of
        single-coordinate sets: returns a list whose i-th entry is either a
        sorted list of exponents (finite factor) or the string 'omega'.
        None when the generators mix coordinates."""
        if self.explicit is not None:
            return None
        sets: list = [{self.offset[i]} for i in range(self.arity)]
        for g in self.gens:
            nz = [i for i, a in enumerate(g) if a]
            if len(nz) != 1:
                return None
            if g[nz[0]] < 0:
                return None
            sets[nz[0]] = "omega"
        return [s if s == "omega" else sorted(s) for s in sets]

    def contains(self, v: Vec) -> bool:
        """Whether v is a point of the universe.

        A generated universe keeps every answer, those for the intermediate
        points of a search included, in a memo that lives exactly as long as
        the universe; lex_stream records each point it emits there.  Along
        the universe's own stream a query is one dict lookup (amortized
        O(1)); a cold query visits each point v - (sum of generators) at most
        once, which for a point reached along one generator chain is linear
        in its depth.  The search keeps an explicit stack, so depth is not
        limited by the interpreter's recursion limit.  A point of the wrong
        arity raises ArityMismatch; the check runs only when v is not a
        known point."""
        if self.explicit is not None:
            if v in self.explicit:
                return True
            self._check_arity(v, "point")
            return False
        hit = self._known.get(v)
        return self._member(v) if hit is None else hit

    def _check_arity(self, v: Vec, what: str) -> None:
        if len(v) != self.arity:
            raise ArityMismatch(
                f"{what} {v} has arity {len(v)}, expected {self.arity}")

    def _member(self, v: Vec) -> bool:
        self._check_arity(v, "point")
        # depth-first search: a point is a member iff one of its predecessors
        # is; each stack entry is the one above it plus a generator, so a
        # member found at the top makes every point on the stack a member
        known = self._known
        stack = [(v, self._predecessors(v))]
        while stack:
            w, preds = stack[-1]
            for u in preds:
                hit = known.get(u)
                if hit is None:
                    stack.append((u, self._predecessors(u)))
                    break
                if hit:
                    for w, _ in stack:
                        known[w] = True
                    return True
            else:
                known[w] = False
                stack.pop()
        return False

    def _predecessors(self, w: Vec) -> Iterator[Vec]:
        """w - g for each generator g whose leading coordinate is that of
        w - offset (w is not the offset).  A generator leading earlier would
        take that coordinate below the offset's, and lex-positive generators
        can never bring it back."""
        tau = vsub(w, self.offset)
        lead = _lead(tau)
        if tau[lead] < 0:
            return iter(())
        return (vsub(w, g) for g in self._by_lead.get(lead, ()))

    # -- streams ----------------------------------------------------------------

    def lex_stream(self) -> Iterator[Vec]:
        """All universe points in strictly ascending lex order (decreasing
        monomial order), lazily."""
        if self.explicit is not None:
            yield from sorted(self.explicit)
            return
        # a point reached along several generator paths is pushed once per
        # path; the copies pop consecutively, so comparing with the previous
        # point drops them
        heap = [self.offset]
        prev = None
        gens = sorted(self.gens)
        known = self._known
        while heap:
            v = heapq.heappop(heap)
            if v == prev:
                continue
            prev = v
            known[v] = True
            yield v
            for g in gens:
                heapq.heappush(heap, vadd(v, g))

    def graded_stream(self) -> Iterator[Vec]:
        """Points in ascending (total degree, lex) order.  Only valid when
        all generators are componentwise nonnegative."""
        if self.explicit is not None:
            yield from sorted(self.explicit, key=lambda p: (grade(p), p))
            return
        for g in self.gens:
            if not is_nonnegative(g):
                raise WitnessViolated(
                    "graded enumeration needs nonnegative generators")
        heap = [(grade(self.offset), self.offset)]
        seen = {self.offset}
        gens = sorted(self.gens)
        while heap:
            _, v = heapq.heappop(heap)
            yield v
            for g in gens:
                w = vadd(v, g)
                if w not in seen:
                    seen.add(w)
                    heapq.heappush(heap, (grade(w), w))

    def box_points(self, bound: Vec) -> list[Vec]:
        """All universe points componentwise <= bound, sorted (grade, lex).
        Requires nonnegative generators and a bound of the universe's arity."""
        self._check_arity(bound, "bound")
        if self.explicit is not None:
            pts = [p for p in self.explicit if leq_componentwise(p, bound)]
            return sorted(pts, key=lambda p: (grade(p), p))
        for g in self.gens:
            if not is_nonnegative(g):
                raise WitnessViolated(
                    "box enumeration needs nonnegative generators")
        if not leq_componentwise(self.offset, bound):
            return []
        out = []
        stack = [self.offset]
        seen = {self.offset}
        gens = sorted(self.gens)
        while stack:
            v = stack.pop()
            out.append(v)
            for g in gens:
                w = vadd(v, g)
                if w not in seen and leq_componentwise(w, bound):
                    seen.add(w)
                    stack.append(w)
        return sorted(out, key=lambda p: (grade(p), p))

    def __repr__(self) -> str:
        if self.explicit is not None:
            return f"SupportUniverse(explicit={len(self.explicit)} pts)"
        return f"SupportUniverse(offset={self.offset}, gens={sorted(self.gens)})"


class MemoStream:
    """Thread-safe materialized prefix over a restartable stream factory.

    Read rule: stored items never change and the list only grows, so an
    index below its length is read without the lock; only a pull takes it,
    re-checking the length under it, so each item is pulled once.

    An exception out of the factory's iterator ends that iterator, so it is
    kept and raised again by every later pull: a stream that failed never
    looks finished, and the items stored before the failure stay readable."""

    def __init__(self, factory):
        self._factory = factory
        self._items: list = []
        self._iter = None
        self._done = False
        self._error: Optional[tuple[BaseException, object]] = None
        self._lock = threading.Lock()

    def get(self, i: int):
        items = self._items
        if i < len(items):
            return items[i]
        with self._lock:
            while len(items) <= i and not self._done:
                self._pull()
        return items[i] if i < len(items) else None

    def _pull(self):
        if self._error is not None:
            # with the first traceback, so that it does not grow per raise
            raise self._error[0].with_traceback(self._error[1])
        try:
            if self._iter is None:
                self._iter = self._factory()
            self._items.append(next(self._iter))
        except StopIteration:
            self._done = True
        except BaseException as exc:
            self._error = (exc, exc.__traceback__)
            raise

    def __iter__(self):
        items = self._items
        i = 0
        while i < len(items) or self.get(i) is not None:
            yield items[i]
            i += 1
