"""Exponent-vector support skeletons and their enumeration streams.

A SupportUniverse is a superset certificate for the support of a series:
either an explicit finite set of vectors, or ``offset + monoid(gens)`` where
every generator is lexicographically positive.  Lex-positive generation is
exactly what keeps the induced monomial set reverse-well-ordered, so the
ascending-lex stream below enumerates candidate support points in strictly
decreasing monomial order.  A generated universe is interned by its shape
(arity, offset, sorted generators) in ``_universes``, which holds it
strongly: the series over one shape share its membership memo, so where
shapes repeat across queries a membership question is searched once.  A
construction clears the table past ``_KNOWN_MAX`` memo entries in all, so
memos no live series holds stay within that, or at ``_UNIVERSES_MAX``
shapes, so that this sum stays short (both read at call time).  Streams
stay bare merges, cheaper cold than a shared memo of points.  An explicit
universe is not interned.

A coordinate is an ``int`` when it is integral and a ``Fraction`` otherwise;
``coord`` and ``vec`` normalise to that form, and every constructor of a
vector calls them.  Natural supports of integral generators never leave the
integers, so their arithmetic and hashing skip ``Fraction`` entirely.  The
two forms compare, hash and print alike (``Fraction(2) == 2``,
``hash(Fraction(2)) == hash(2)``, ``str(Fraction(2)) == "2"``), so a sum of
fractional coordinates that lands on an integer is still a correct key.
A caller's argument is read by the one reader of its kind: ``rational`` (a
number), ``vec`` and ``check_arity`` (a vector), ``scale.check_monomial``
and ``germ.check_germ``.  A str, bytes, nan, inf or non-number is refused
with NotInFragment, never parsed, and a wrong length with ArityMismatch.

Read rule: a point that a universe's own ``lex_stream``, ``graded_stream``
or ``box_points`` produced is a member of it as given, so a coefficient
read there (``GenSeries._at``) skips normalisation, the arity check and the
membership test.  A point computed from exact, right-arity member points,
such as the gps product's v - beta, needs only the membership test; any
other point is read through ``GenSeries.coeff``, which does all three.
Such a point may hold an integral ``Fraction`` coordinate.
A series' oracle is asked only at members of its universe, so a series
over another's universe (``-f``, ``partial_deriv``) reads it with ``_at``.

Coefficients are exact: every coefficient a kernel stores or yields is a
``Fraction`` (``Q``).  Inside, a kernel that sums products of coefficients
(``series._heap_sum``, the one series kernel under the merges, products,
family sums and inverse; the gps convolution and power table) keeps each sum
as a pair of ints, a numerator over a running denominator, and adds a/b
inline: n + a over d when b == d, else n*(b/g) + a*(d/g) over d/g*b with
g = gcd(d, b); it builds ``Q(n, d)``, which reduces by one gcd, once per
coefficient it emits.  The pair is not reduced on the way, but its
denominator stays the lcm of the denominators added.
"""

from __future__ import annotations

import functools
import operator
import threading
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .errors import ArityMismatch, NotInFragment, WitnessViolated

Q = Fraction
Coord = Union[int, Fraction]
Vec = tuple[Coord, ...]


def rational(x) -> Fraction:
    """The one reader of a caller's number: a Fraction as it is, any other
    real number exactly; NotInFragment for a str, bytes, nan, inf or a
    non-number, where ``Fraction`` would parse the str."""
    if type(x) is Fraction:
        return x
    if not isinstance(x, str):
        try:
            return Q(x)
        except (TypeError, ValueError, OverflowError):
            pass
    raise NotInFragment(f"{x!r} is not a finite real number")


def coord(a) -> Coord:
    """An exact exponent coordinate: an int when integral, else a Fraction."""
    if type(a) is int:
        return a
    q = rational(a)
    return q.numerator if q.denominator == 1 else q


def vec(p: Iterable) -> Vec:
    """An exact exponent vector; NotInFragment for a non-iterable, and for a
    str or bytes, which iterating would read one coordinate per character."""
    if isinstance(p, (str, bytes)) or not hasattr(p, "__iter__"):
        raise NotInFragment(f"{p!r} is not an exponent vector")
    return tuple(map(coord, p))


def check_arity(v: Vec, n: int, what: str) -> None:
    """ArityMismatch unless the vector v has n coordinates."""
    if len(v) != n:
        raise ArityMismatch(f"{what} {v} has arity {len(v)}, expected {n}")


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
    return all(map(operator.le, u, v))


def is_nonnegative(u: Vec) -> bool:
    return min(u, default=0) >= 0


_UNIVERSES_MAX, _KNOWN_MAX = 1 << 6, 1 << 16
_universes: dict[tuple, "SupportUniverse"] = {}


class SupportUniverse:
    """offset + monoid(gens), interned by shape, or an explicit vector set."""

    def __new__(cls, arity: int, *, offset: Optional[Vec] = None,
                gens: Iterable[Vec] = (),
                explicit: Optional[frozenset] = None):
        self = object.__new__(cls)
        self.arity, self.explicit = arity, explicit
        if explicit is not None:
            if explicit and set(map(len, explicit)) != {arity}:
                bad = next(p for p in explicit if len(p) != arity)
                check_arity(bad, arity, "point")
            self.offset, self.gens = vzero(arity), ()
            return self
        self.offset = offset = vzero(arity) if offset is None else vec(offset)
        check_arity(offset, arity, "offset")
        cleaned = set()
        for g in map(vec, gens):
            check_arity(g, arity, "generator")
            if any(g):
                if not lex_positive(g):
                    raise WitnessViolated(
                        f"universe generator {g} is not lex-positive")
                cleaned.add(g)
        self.gens = gens = tuple(sorted(cleaned))
        # vec made a coordinate an int when integral, so the types agree too
        key = (arity, offset, gens)
        if len(_universes) >= _UNIVERSES_MAX or sum(
                len(u._known) for u in tuple(_universes.values())) > _KNOWN_MAX:
            _universes.clear()
        if (hit := _universes.get(key)) is not None:
            return hit
        # the sign check that box_points and graded_stream need is answered
        # once, and raised on each call
        self._nonnegative = all(map(is_nonnegative, gens))
        self._by_lead: dict[int, list[Vec]] = {}
        for g in gens:
            self._by_lead.setdefault(_lead(g), []).append(g)
        # every memo entry is a fact, so concurrent writers can only store
        # the same value and no lock is needed
        self._known: dict[Vec, bool] = {offset: True}
        return _universes.setdefault(key, self)  # one of racing constructors

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
        check_arity(delta, self.arity, "shift")
        if self.explicit is not None:
            return SupportUniverse.finite(
                self.arity, (vadd(p, delta) for p in self.explicit))
        return SupportUniverse(self.arity, offset=vadd(self.offset, delta),
                               gens=self.gens)

    def union(self, other: "SupportUniverse") -> "SupportUniverse":
        check_arity(other.offset, self.arity, "universe")
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
        check_arity(other.offset, self.arity, "universe")
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

    def contains(self, v: Vec) -> bool:
        """Whether v is a point of the universe.

        A generated universe keeps every answer, those for the intermediate
        points of a search included, in a memo shared by its shape until the
        intern table clears, so a repeated query is one dict lookup; a cold
        query visits each point v - (sum of generators) at most once, which
        for a point reached along one generator chain is linear in its
        depth.  The search keeps an explicit stack, so depth is not limited
        by the interpreter's recursion limit.  A point of the wrong arity
        raises ArityMismatch; the check runs only when v is not a known
        point."""
        if self.explicit is not None:
            if v in self.explicit:
                return True
            check_arity(v, self.arity, "point")
            return False
        hit = self._known.get(v)
        return self._member(v) if hit is None else hit

    def _member(self, v: Vec) -> bool:
        check_arity(v, self.arity, "point")
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
            return iter(sorted(self.explicit))
        return _merge(self.offset, self.gens)

    def graded_stream(self) -> Iterator[Vec]:
        """Points in ascending (total degree, lex) order.  Only valid when
        all generators are componentwise nonnegative."""
        if self.explicit is not None:
            return iter(sorted(self.explicit, key=lambda p: (grade(p), p)))
        self._need_nonnegative("graded")
        # (grade, lex) order is lex order with the grade put first, and a
        # nonzero nonnegative generator stays lex-positive when so lifted
        lift = lambda v: (grade(v), *v)
        lifted = _merge(lift(self.offset), tuple(map(lift, self.gens)))
        return (v[1:] for v in lifted)

    def box_points(self, bound: Vec) -> list[Vec]:
        """All universe points componentwise <= bound, sorted (grade, lex).
        Requires nonnegative generators and a bound of the universe's arity."""
        check_arity(bound, self.arity, "bound")
        return sorted(self._box(bound), key=lambda p: (grade(p), p))

    def _box(self, bound: Vec) -> list[Vec]:
        """The points of box_points in no set order, for a bound of the
        universe's arity."""
        if self.explicit is not None:
            return [p for p in self.explicit if leq_componentwise(p, bound)]
        self._need_nonnegative("box")
        if not leq_componentwise(self.offset, bound):
            return []
        out = []
        stack = [self.offset]
        seen = {self.offset}
        gens = self.gens
        while stack:
            v = stack.pop()
            out.append(v)
            for g in gens:
                w = vadd(v, g)
                if w not in seen and leq_componentwise(w, bound):
                    seen.add(w)
                    stack.append(w)
        return out

    def _need_nonnegative(self, what: str) -> None:
        if not self._nonnegative:
            raise WitnessViolated(
                f"{what} enumeration needs nonnegative generators")

    def __repr__(self) -> str:
        if self.explicit is not None:
            return f"SupportUniverse(explicit={len(self.explicit)} pts)"
        return f"SupportUniverse(offset={self.offset}, gens={list(self.gens)})"


def _merge(offset: Vec, gens: tuple[Vec, ...]) -> Iterator[Vec]:
    """offset + monoid(gens) in strictly ascending lex order, for
    lex-positive gens: as translation keeps lex order, the merge of the
    offset with the set's own copies shifted by each generator (Dijkstra's
    Hamming exercise, *A Discipline of Programming*, 1976).  Copy i is read
    from the points yielded, its head out[at[i]] + gens[i]; every head equal
    to the least advances, so no point comes twice and no heap is needed."""
    yield offset
    if len(gens) == 1:
        # a ray: each point is the last one plus the generator
        g, = gens
        v = offset
        while True:
            v = vadd(v, g)
            yield v
    out, at = [offset], [0] * len(gens)
    heads = [vadd(offset, g) for g in gens]
    while heads:
        v = min(heads)
        out.append(v)
        yield v
        for i, h in enumerate(heads):
            if h == v:
                at[i] += 1
                heads[i] = vadd(out[at[i]], gens[i])


class MemoStream:
    """Thread-safe materialized prefix over a restartable stream factory.

    Read rule: stored items never change and the list only grows, so an
    index below its length is read without the lock; only a pull takes it,
    re-checking the length under it, so each item is pulled once.  A done
    stream never grows, so a read past its end takes no lock either.

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
        if not self._done:
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
