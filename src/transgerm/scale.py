"""Asymptotic scales: ordered monomial groups generated by exp(-f_i).

A Scale wraps a validated tuple of infinitely increasing germs f_0 > ... > f_k
in pairwise distinct archimedean classes.  Monomials are exponent vectors
relative to the scale: the vector a denotes exp(-(a_0 f_0 + ... + a_k f_k)),
so a lexicographically *larger* vector is a *smaller* monomial.  Exponents
are exact coordinates in the sense of ``support``: an ``int`` when integral,
a ``Fraction`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import germ as G
from .errors import ArityMismatch, NotAnAsymptoticScale, NotInFragment, ScaleMismatch
from .germ import GermTerm, check_germ
from .support import Vec, check_arity, lex_positive, rational, vadd, vec


@dataclass(frozen=True)
class Scale:
    generators: tuple[GermTerm, ...]
    classes: tuple[tuple[int, int], ...]  # contiguous [start, end) index ranges

    @property
    def arity(self) -> int:
        return len(self.generators)

    def unit(self) -> "Monomial":
        return Monomial(self, (0,) * self.arity)

    def monomial(self, coords: Sequence) -> "Monomial":
        return Monomial(self, coords)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    def __repr__(self) -> str:
        return f"Scale{self}"


@dataclass(frozen=True)
class Monomial:
    scale: Scale
    vector: Vec  # int or Fraction coordinates, as support.vec makes them

    def __post_init__(self) -> None:
        # frozen, so the vector read by vec is stored past __setattr__
        object.__setattr__(self, "vector", vec(self.vector))
        check_arity(self.vector, self.scale.arity, "monomial")

    def __mul__(self, other: "Monomial") -> "Monomial":
        check_monomial(other, self.scale)
        return Monomial(self.scale, vadd(self.vector, other.vector))

    def __pow__(self, q) -> "Monomial":
        q = rational(q)
        return Monomial(self.scale, [a * q for a in self.vector])

    def is_small(self) -> bool:
        return lex_positive(self.vector)

    def to_germ(self) -> GermTerm:
        """The germ exp(-(sum of a_i f_i)) that this monomial stands for.
        The paper's expansions are sums of such germs over the scale, and
        this is the map from an exponent vector back to the Hardy field."""
        acc = G.ZERO
        for a, f in zip(self.vector, self.scale.generators):
            acc = G.g_add(acc, G.g_scale(f, -a))
        return G.g_exp(acc, max_depth=64)

    def __str__(self) -> str:
        return "m[" + ",".join(str(a) for a in self.vector) + "]"

    def __repr__(self) -> str:
        return f"Monomial({self})"


def monomial_value(s: Scale, v: Vec, gen_value: Callable[[int], float]) -> float:
    """exp(-sum of a_i * gen_value(i) over v's nonzero a_i); inf on overflow."""
    return _monomial_value(v, gen_value, s.arity)


def _monomial_value(v: Vec, gen_value, arity: int) -> float:
    if len(v) != arity:  # the arity is read once per sum_numeric call
        check_arity(v, arity, "monomial")
    acc = 0.0
    for i, a in enumerate(v):
        if a:
            acc -= float(a) * gen_value(i)
    try:
        return math.exp(acc)
    except OverflowError:
        return math.inf


def check_monomial(m: Monomial, s: Scale) -> None:
    """ScaleMismatch unless m is a Monomial over the scale s: a plain vector
    is over no scale, and another scale's reads the wrong generators."""
    if not isinstance(m, Monomial) or m.scale != s:
        raise ScaleMismatch(f"{m!r} is not a monomial over {s}")


def check_scale(s) -> None:
    """NotInFragment unless s is a Scale, as make_scale makes one."""
    if not isinstance(s, Scale):
        raise NotInFragment(f"{s!r} is not a scale")


def monomial_cmp(m: Monomial, n: Monomial) -> int:
    """Total order: 1 when m > n.  The first nonzero coordinate of
    vector(m) - vector(n) being positive means the dominant generator gets a
    larger exponent, hence m is the *smaller* monomial."""
    check_monomial(m, getattr(n, "scale", None))  # a vector n has none
    check_monomial(n, m.scale)
    return (m.vector < n.vector) - (m.vector > n.vector)


def _comparability_classes(gens: Sequence[GermTerm]) -> tuple[tuple[int, int], ...]:
    ranges = []
    start = 0
    for i in range(1, len(gens)):
        if not G._comparable(gens[i - 1].terms[0][1], gens[i].terms[0][1]):
            ranges.append((start, i))
            start = i
    ranges.append((start, len(gens)))
    return tuple(ranges)


def make_scale(germs: Sequence[GermTerm]) -> Scale:
    """Validate a generator tuple into a Scale.

    Purely infinite inputs are first rewritten through basis extraction,
    which separates archimedean classes whenever the span allows it; the
    result must then pass the admissibility check.  A non-germ raises
    NotInFragment.
    """
    if not hasattr(germs, "__iter__"):
        raise NotInFragment(f"{germs!r} is not a sequence of germs")
    germs = [g for g in germs]
    for g in germs:
        check_germ(g)
    if not germs:
        raise NotAnAsymptoticScale("empty generator tuple")
    if all(G.is_infinitely_increasing(g) and G.is_purely_infinite(g)
           for g in germs):
        gens = G._basis(germs)  # checked just above
    else:
        gens = germs
    reasons, facts, pair = G._admissibility(gens)
    if reasons:
        raise NotAnAsymptoticScale("; ".join(reasons), offending_pair=pair,
                                   certificate=G._certificate(gens, facts))
    return Scale(tuple(gens), _comparability_classes(gens))


def project_class(s: Scale, j: int, m: Monomial) -> Monomial:
    """Zero out every exponent outside comparability class j."""
    if not isinstance(j, int) or not 0 <= j < len(s.classes):
        raise ArityMismatch(f"class index {j!r} is not one of {s}")
    check_monomial(m, s)
    lo, hi = s.classes[j]
    coords = tuple(a if lo <= i < hi else 0
                   for i, a in enumerate(m.vector))
    return Monomial(s, coords)
