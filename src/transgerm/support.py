"""Exponent-vector support skeletons and their enumeration streams.

A SupportUniverse is a superset certificate for the support of a series,
and there is one kind of it: ``points + monoid(gens)``, a finite set of
vectors sharing one monoid of lexicographically positive generators, the
grid-based sets that sums and products of natural series produce (J. van der
Hoeven, *Transseries and Real Differential Algebra*, LNM 1888, 2006).  A
finite set is the case with no generators, a coset ``offset + monoid(gens)``
the case with one point.  Lex-positive generation is exactly what keeps the
induced monomial set reverse-well-ordered, so the ascending-lex stream below
enumerates candidate support points in strictly decreasing monomial order.
``shifted``, ``sum`` and ``closure`` are exact; ``union`` is exact on the
points, and a superset when the generator sets differ, since each side's
points then take the other side's generators too.  A universe with
generators is interned by its shape (arity, sorted points, sorted
generators) in ``_universes``, which holds it strongly.  Each answer about
a shape is a fact about it, so the series over one shape share three
memos: its membership answers, its stored lex points and its boxes (the
points under a bound, which the gps product walks), and where shapes
repeat across queries a membership question is searched once, a shape
enumerated once and a box walked once.  A construction clears the table
past ``_KNOWN_MAX`` memo entries, stored points and boxed vectors in all,
so those no live series holds stay within that, or at ``_UNIVERSES_MAX``
shapes, so that this sum stays short (both read at call time).  A universe
with no generators is not interned, and keeps no memo of its boxes.

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
A series' stream is read from its ``MemoStream``: ``get(i)`` pulls up to
item i, and a read to a cutoff (``terms_to_cutoff``, ``truncate`` and
``sum_numeric`` up to its cutoff) pulls its prefix at once, with
``prefix(cut, limit)``, under one lock; each pulls exactly the items that
reading one at a time would.

Coefficients are exact: every coefficient a kernel stores or yields is a
``Fraction`` (``Q``).  Inside, a kernel that sums products of coefficients
(``series._heap_sum``, the one series kernel under the merges, products,
family sums and inverse; the gps convolution and power table) keeps each sum
as a pair of ints, a numerator over a running denominator, and adds a/b
inline: n + a over d when b == d, else n*(b/g) + a*(d/g) over d/g*b with
g = gcd(d, b); it builds ``frac(n, d)``, which reduces by one gcd, once per
coefficient it emits.  The pair is not reduced on the way, but its
denominator stays the lcm of the denominators added.  ``frac`` takes ints
with d > 0 and checks neither on this hot path; it sets the two slots of a
``Fraction`` directly, past ``Fraction.__new__``'s type dispatch, so the
germ ring's products and sums build their coefficients with it too.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

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


_new = object.__new__


def frac(n: int, d: int) -> Fraction:
    """n/d as a reduced Fraction, for ints n and d > 0 (not checked): one
    gcd, and the ``_numerator`` and ``_denominator`` slots, the same on
    Python 3.10 through 3.13, set in place of ``Fraction.__new__``."""
    g = math.gcd(n, d)
    q = _new(Fraction)
    if g == 1:
        q._numerator, q._denominator = n, d
    else:
        q._numerator, q._denominator = n // g, d // g
    return q


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


@functools.cache
def vadder(arity: int) -> Callable[[Vec, Vec], Vec]:
    """vadd for one arity, unrolled once into a tuple display of sums."""
    return eval("lambda u, v: (" + "".join(
        f"u[{i}] + v[{i}], " for i in range(arity)) + ")")


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(map(operator.sub, u, v))


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
    """points + monoid(gens): finitely many points sharing one monoid of
    lex-positive generators, the one kind of universe.  A finite set is the
    case with no generators, a coset the case with one point.  A universe
    with generators is interned by its shape (arity, points, gens); one
    without is not.  ``shifted``, ``sum`` and ``closure`` are exact;
    ``union`` is exact on points, and a superset when the generator sets
    differ, since each side's points take the other side's generators."""

    def __new__(cls, arity: int, points: Iterable[Vec],
                gens: Iterable[Vec] = ()):
        if type(arity) is not int or arity < 0:
            raise NotInFragment(f"{arity!r} is no arity")
        pts, cleaned = set(), set()
        if not all(hasattr(xs, "__iter__") for xs in (points, gens)):
            raise NotInFragment(f"{points!r}, {gens!r} are no vector sets")
        for p in map(vec, points):
            check_arity(p, arity, "point")
            pts.add(p)
        for g in map(vec, gens):
            check_arity(g, arity, "generator")
            if any(g):
                if not lex_positive(g):
                    raise WitnessViolated(
                        f"universe generator {g} is not lex-positive")
                cleaned.add(g)
        # vec made a coordinate an int when integral, so the types agree
        # too; an empty set keeps no generators
        key = (arity, tuple(sorted(pts)), tuple(sorted(cleaned)) if pts else ())
        if key[2]:
            if len(_universes) >= _UNIVERSES_MAX or sum(
                    len(u._known) + len(u._pts) + u._boxed
                    for u in tuple(_universes.values())) > _KNOWN_MAX:
                _universes.clear()
            if (hit := _universes.get(key)) is not None:
                return hit
        self = object.__new__(cls)
        self.arity, self.points, self.gens = key
        # the sign check that box_points and graded_stream need is answered
        # once, and raised on each call
        self._nonnegative = all(map(is_nonnegative, self.gens))
        self._by_lead: dict[int, list[Vec]] = {}
        for g in self.gens:
            self._by_lead.setdefault(_lead(g), []).append(g)
        # every memo entry is a fact, so concurrent writers can only store
        # the same value and no lock is needed
        self._known: dict[Vec, bool] = dict.fromkeys(self.points, True)
        self._pts, self._merging, self._lock = [], None, threading.Lock()
        # bound -> _box(bound), and the number of vectors it holds, keys
        # included (a race may leave it short)
        self._boxes: dict[Vec, tuple[Vec, ...]] = {}
        self._boxed = 0
        # one of racing constructors wins the table
        return _universes.setdefault(key, self) if self.gens else self

    # -- algebra ---------------------------------------------------------------

    def shifted(self, delta: Vec) -> "SupportUniverse":
        check_arity(delta, self.arity, "shift")
        return SupportUniverse(self.arity,
                               (vadd(p, delta) for p in self.points), self.gens)

    def union(self, other: "SupportUniverse") -> "SupportUniverse":
        self._check(other)
        return SupportUniverse(self.arity, self.points + other.points,
                               self.gens + other.gens)

    def sum(self, other: "SupportUniverse") -> "SupportUniverse":
        self._check(other)
        return SupportUniverse(
            self.arity, (vadd(p, q) for p in self.points for q in other.points),
            self.gens + other.gens)

    def closure(self) -> "SupportUniverse":
        """Monoid closure: contains every finite sum of universe points;
        WitnessViolated for a nonzero point that is not lex-positive."""
        return SupportUniverse(self.arity, [vzero(self.arity)],
                               self.points + self.gens)

    def _check(self, other: "SupportUniverse") -> None:
        if other.arity != self.arity:
            raise ArityMismatch(f"universe of arity {other.arity} combined "
                                f"with arity {self.arity}")

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

        Every answer, those for the intermediate points of a search
        included, is kept in one memo seeded with the points; a universe
        with generators shares it with every series of its shape until the
        intern table clears, so a repeated query is one dict lookup.  A cold
        query visits each point v - (sum of generators) at most once, which
        for a point reached along one generator chain is linear in its
        depth.  The search keeps an explicit stack, so depth is not limited
        by the interpreter's recursion limit.  A point of the wrong arity
        raises ArityMismatch; the check runs only when v is not a known
        point."""
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
        """w - g for each point p below w and each generator g whose leading
        coordinate is that of w - p (w is no point).  A member p + s, s a
        nonzero sum of generators, has a summand leading where s does; one
        leading earlier would take that coordinate below p's, and
        lex-positive generators can never bring it back."""
        by_lead = self._by_lead
        for p in self.points if by_lead else ():  # no generator, no search
            if p >= w:
                return
            for g in by_lead.get(_lead(vsub(w, p)), ()):
                yield vsub(w, g)

    # -- streams ----------------------------------------------------------------

    def lex_stream(self) -> Iterator[Vec]:
        """All universe points in strictly ascending lex order (decreasing
        monomial order), lazily.  A universe with generators keeps the points
        streamed in one list that its streams read by index without a lock;
        an extension takes the lock, re-checks the length and pulls the next
        i // 8 + 1 points (i stored) from one ``_merge``.  An exception out
        of the merge (a timeout) drops it, and the next extension restarts
        it past the stored points."""
        return self._read() if self.gens else iter(self.points)

    def _read(self) -> Iterator[Vec]:
        pts, i = self._pts, 0
        while True:
            while i < len(pts):
                yield pts[i]
                i += 1
            with self._lock:
                if i == len(pts):
                    try:
                        self._merging = self._merging or itertools.islice(
                            _merge(self.points, self.gens), i, None)
                        pts.extend(itertools.islice(self._merging, i // 8 + 1))
                    except BaseException:
                        self._merging = None
                        raise

    def graded_stream(self) -> Iterator[Vec]:
        """Points in ascending (total degree, lex) order.  Only valid when
        all generators are componentwise nonnegative."""
        self._need_nonnegative("graded")
        # (grade, lex) order is lex order with the grade put first, and a
        # nonzero nonnegative generator stays lex-positive when so lifted
        lift = lambda v: (grade(v), *v)
        lifted = _merge(tuple(sorted(map(lift, self.points))),
                        tuple(map(lift, self.gens)))
        return (v[1:] for v in lifted)

    def box_points(self, bound: Vec) -> list[Vec]:
        """All universe points componentwise <= bound, sorted (grade, lex).
        Requires nonnegative generators and a bound of the universe's arity."""
        check_arity(bound, self.arity, "bound")
        return sorted(self._box(bound), key=lambda p: (grade(p), p))

    def _box(self, bound: Vec) -> Sequence[Vec]:
        """The points of box_points in no set order, for a bound of the
        universe's arity.  A universe with generators keeps each box in a
        memo shared by its shape, as it keeps its membership answers, until
        the memo holds _KNOWN_MAX vectors; one without walks its points."""
        hit = self._boxes.get(bound)
        if hit is not None:
            return hit
        self._need_nonnegative("box")
        out, seen, stack, gens = [], set(), list(self.points), self.gens
        add = vadder(self.arity)
        while stack:
            v = stack.pop()
            if v not in seen and leq_componentwise(v, bound):
                seen.add(v)
                out.append(v)
                for g in gens:
                    stack.append(add(v, g))
        if gens and self._boxed < _KNOWN_MAX:
            out = self._boxes[bound] = tuple(out)
            self._boxed += len(out) + 1
        return out

    def _need_nonnegative(self, what: str) -> None:
        if not self._nonnegative:
            raise WitnessViolated(
                f"{what} enumeration needs nonnegative generators")

    def __repr__(self) -> str:
        return (f"SupportUniverse({len(self.points)} points, "
                f"gens={list(self.gens)})")


def _merge(points: tuple[Vec, ...], gens: tuple[Vec, ...]) -> Iterator[Vec]:
    """points + monoid(gens) in strictly ascending lex order, for points so
    sorted and lex-positive gens: as translation keeps lex order, the merge
    of the points with the set's own copies shifted by each generator
    (Dijkstra's Hamming exercise, *A Discipline of Programming*, 1976).
    Copy i is read from the points yielded, its head out[at[i]] + gens[i];
    the next point is one more head while the points last, and every head
    equal to the least advances, so no point comes twice and no heap is
    needed.  A lone copy left when the points run out has nothing to merge
    with, so it reads on from out alone: a ray costs one sum per point."""
    if not gens:  # a finite set is its points
        yield from points
        return
    first, n = points[0], len(gens)  # a universe with generators has a point
    yield first
    out, at, rest, add = [first], [0] * n, iter(points[1:]), vadder(len(first))
    heads = [add(first, g) for g in gens]
    heads += itertools.islice(rest, 1)
    while len(heads) > 1:
        v = min(heads)
        out.append(v)
        yield v
        for i, h in enumerate(heads):
            if h == v:
                if i < n:
                    at[i] += 1
                    heads[i] = add(out[at[i]], gens[i])
                elif (p := next(rest, None)) is None:
                    heads.pop()
                else:
                    heads[i] = p
    g, j = gens[0], at[0]
    while True:
        v = add(out[j], g)
        out.append(v)
        yield v
        j += 1


class MemoStream:
    """Thread-safe materialized prefix over a restartable stream factory.

    Read rule: stored items never change and the list only grows, so an
    index below its length is read without the lock, here or by a reader of
    ``_items`` that calls ``get`` or ``prefix`` only past it; a pull takes
    the lock, re-checks the length and appends in one loop, so each item is
    pulled once.  ``get(i)`` pulls up to item i; ``prefix(cut, limit)``, a
    series' read to a cutoff, pulls under one lock until the last item
    stored lies past the vector cut or item limit is stored.  A done stream
    never grows, so a read past its end takes no lock.

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
                if self._error is not None:
                    # with the first traceback, so that it does not grow
                    raise self._error[0].with_traceback(self._error[1])
                try:
                    it = self._iter  # an ended one raises StopIteration again
                    if it is None:
                        it = self._iter = self._factory()
                    while len(items) <= i:
                        items.append(next(it))
                except StopIteration:
                    self._done = True
                except BaseException as exc:
                    self._error = (exc, exc.__traceback__)
                    raise
        return items[i] if i < len(items) else None

    def prefix(self, cut: Vec, limit: int) -> list:
        """The stored items of a stream of (vector, ...) items, after one
        pull that stops once the last item stored lies past the vector cut,
        item limit is stored or the stream ends.  It runs get's protocol
        with its own loop: a pull through a helper of both would put one
        more frame on the stack per level of a series DAG, whose nodes pull
        their operands through get."""
        items = self._items
        if self._done or len(items) > limit or items and items[-1][0] > cut:
            return items
        with self._lock:
            if self._error is not None:
                raise self._error[0].with_traceback(self._error[1])
            try:
                it = self._iter
                if it is None:
                    it = self._iter = self._factory()
                while len(items) <= limit and (
                        not items or items[-1][0] <= cut):
                    items.append(next(it))
            except StopIteration:
                self._done = True
            except BaseException as exc:
                self._error = (exc, exc.__traceback__)
                raise
        return items

    def __iter__(self):
        items, i = self._items, 0
        while i < len(items) or self.get(i) is not None:
            yield items[i]
            i += 1
