"""Normal forms and order-theoretic analysis of log-exp germs at +infinity.

A germ here is a finite rational-linear combination of *transmonomials*

    x^r0 * log(x)^r1 * log2(x)^r2 * ... * exp(P)

with exact rational exponents, where ``logk`` is the k-th compositional
iterate of log and P is a purely infinite germ (every transmonomial of P
tends to infinity).  This fragment is closed under addition, multiplication,
rational powers of single terms, exp of purely infinite elements, and
differentiation; dominance between two transmonomials is decided exactly by
recursing on their logarithms.

Every operation answers exactly or raises a typed ``TransgermError``.  In
particular composition (``compose_exact``) and compositional inversion
(``inverse``) return a normal form or refuse, e.g. with ``NotInFragment``
(no finite normal form) or ``NotIncreasing`` (the germ is not infinitely
increasing); there is no approximate fallback.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DepthLimitExceeded,
    DomainError,
    NonHardyExpression,
    NotDecreasing,
    NotInFragment,
    NotIncreasing,
    Unclassifiable,
)
from .support import frac, rational

DEFAULT_EXP_DEPTH = 4

Q = Fraction


# ---------------------------------------------------------------------------
# data model


class _Structural:
    """Equality and hashing over a frozen dataclass's ``_key()``.

    The hash is computed on first use and kept on the instance, so nested
    germs are not rehashed on every dict or cache lookup.  Equality returns at
    once on identity and on a hash mismatch.  The cached hash is left out of
    pickled state: ``hash(None)`` differs between processes.  ``Transmono``
    is interned, so it replaces this equality with identity.
    """

    _hash: Optional[int] = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return hash(self) == hash(other) and self._key() == other._key()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_intern_lock = threading.Lock()


@dataclass(frozen=True, eq=False, init=False)
class Transmono(_Structural):
    """One transmonomial in normal form.

    ``powers`` maps iterate index to exponent: index 0 is x, index k >= 1 is
    the k-th log iterate.  Entries are sorted by index with nonzero exact
    ``Fraction`` exponents.  ``expart`` is the purely infinite argument of the
    exp factor, or None; it never contains a bare unit-power log iterate
    (those are folded into ``powers``, e.g. exp(2*log(x)) is stored as x^2).

    Instances are interned (hash-consed), copies and unpickled ones too: one
    live instance per ``(powers, expart)``, so equality is identity.

    Being one immutable object per monomial, an instance also keeps the facts
    that depend on it alone, each computed on first use: ``_log`` (``log m``,
    from ``mono_log``), ``_dlog`` (``(log m)'``, from ``mono_dlog``) and
    ``_vs1`` (``mono_cmp(m, 1)``, from ``_cmp_unit``: m > 1 is 1).  They
    are written without a lock, as ``_hash`` is: two threads racing on the
    first use compute equal values, so either write is correct.  They are not
    part of ``_key()`` or of the pickled state, so equality, hashing and
    pickling see only ``(powers, expart)``.

    Facts about a pair live in three module memos keyed on the ordered
    pair: ``_cmp_cache`` (``mono_cmp``) and ``_mul_memo`` (``mono_mul``) on
    two monomials, and ``_subst_memo`` (``m o g``, from ``_subst_mono``) on a
    monomial and a checked inner germ.  Their entries hold monomials, and in
    ``_subst_memo`` inner germs, strongly until the memo is cleared, which
    happens whenever it has no room for the entries being stored under
    ``_PAIR_MEMO_MAX``; a monomial or germ no one else holds is then freed.
    """

    powers: tuple[tuple[int, Fraction], ...] = ()
    expart: Optional["GermTerm"] = None

    def __new__(cls, powers: tuple = (), expart: Optional["GermTerm"] = None):
        key = (powers, expart)
        self = _interned.get(key)
        if self is None:
            with _intern_lock:  # re-check: one instance per monomial
                self = _interned.get(key)
                if self is None:
                    self = object.__new__(cls)
                    # an int exponent would make 1/r a float in inverse()
                    object.__setattr__(self, "powers", tuple(
                        (k, rational(r)) for k, r in powers))
                    object.__setattr__(self, "expart", expart)
                    _interned[self._key()] = self
        return self

    __eq__ = object.__eq__  # interned: equal monomials are one object
    __hash__ = _Structural.__hash__

    def __reduce__(self):
        return Transmono, (self.powers, self.expart)

    def _key(self) -> tuple:
        return self.powers, self.expart

    def depth(self) -> int:
        return 0 if self.expart is None else 1 + self.expart.depth()

    def is_unit(self) -> bool:
        return not self.powers and self.expart is None

    def __str__(self) -> str:
        return mono_str(self)

    def __repr__(self) -> str:
        return f"Transmono({mono_str(self)})"


@dataclass(frozen=True, eq=False)
class GermTerm(_Structural):
    """A germ in normal form: nonzero rational coefficients on strictly
    decreasing transmonomials."""

    terms: tuple[tuple[Fraction, Transmono], ...] = ()

    def _key(self) -> tuple:
        return self.terms

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def depth(self) -> int:
        return max((t.depth() for _, t in self.terms), default=0)

    def leading(self) -> tuple[Fraction, Transmono]:
        if not self.terms:
            raise NonHardyExpression("the zero germ has no leading term")
        return self.terms[0]

    def constant_value(self) -> Optional[Fraction]:
        """The rational value if this germ is constant, else None."""
        if not self.terms:
            return Q(0)
        if len(self.terms) == 1 and self.terms[0][1].is_unit():
            return self.terms[0][0]
        return None

    def __str__(self) -> str:
        return germ_str(self)

    def __repr__(self) -> str:
        return f"GermTerm({germ_str(self)})"


def check_germ(f) -> None:
    """NotInFragment unless f is a germ."""
    if not isinstance(f, GermTerm):
        raise NotInFragment(f"{f!r} is not a germ")


UNIT_MONO = Transmono()
ZERO = GermTerm()
ONE = GermTerm(((Q(1), UNIT_MONO),))


def g_const(q) -> GermTerm:
    q = rational(q)
    return GermTerm(((q, UNIT_MONO),)) if q else ZERO


def g_x() -> GermTerm:
    return GermTerm(((Q(1), Transmono(((0, Q(1)),))),))


def g_logk(k: int) -> GermTerm:
    """The k-th log iterate as a germ (k = 0 gives x)."""
    if k < 0:
        raise NotInFragment("negative log iterates are exp iterates; build them via exp")
    if k == 0:
        return g_x()
    return GermTerm(((Q(1), Transmono(((k, Q(1)),))),))


def _mono_logk(k: int) -> Transmono:
    return Transmono(((k, Q(1)),))


# ---------------------------------------------------------------------------
# transmonomial order

# pair memos (see Transmono): keys are ordered pairs of interned monomials,
# which hash through the cached ``_hash`` and compare by identity, or, in
# ``_subst_memo``, a monomial and a checked inner germ, which compares
# structurally; the bound is read at call time
_PAIR_MEMO_MAX = 1 << 16
_cmp_cache: dict[tuple[Transmono, Transmono], int] = {}
_mul_memo: dict[tuple[Transmono, Transmono], Transmono] = {}
_subst_memo: dict[tuple[Transmono, "GermTerm"], "GermTerm"] = {}
_pair_lock = threading.Lock()


def _remember(memo: dict, entries: dict) -> None:
    """Store ``entries`` in ``memo`` under the bound: a memo with no room for
    them is cleared first."""
    with _pair_lock:
        if len(memo) + len(entries) > _PAIR_MEMO_MAX:
            memo.clear()
        memo.update(entries)


def mono_log(t: Transmono) -> GermTerm:
    """log of a transmonomial: a purely infinite germ (or zero for the unit).
    Computed once per monomial and kept on it as ``_log``."""
    lg = t.__dict__.get("_log")
    if lg is None:
        # the log iterates of the powers already decrease with their index
        lg = GermTerm(tuple((r, _mono_logk(k + 1)) for k, r in t.powers))
        if t.expart is not None:
            lg = g_add(t.expart, lg)
        object.__setattr__(t, "_log", lg)
    return lg


def _cmp_pure(a: Transmono, b: Transmono) -> int:
    # no exp parts: lex on exponents by iterate index, compared as ints: an
    # index on one side only decides by its sign, a shared one by cross-products
    pa, pb = a.powers, b.powers
    na, nb = len(pa), len(pb)
    i = j = 0
    while i < na and j < nb:
        (ka, ra), (kb, rb) = pa[i], pb[j]
        if ka != kb:
            return (1 if ra.numerator > 0 else -1) if ka < kb else \
                (-1 if rb.numerator > 0 else 1)
        x, y = ra.numerator * rb.denominator, rb.numerator * ra.denominator
        if x != y:
            return 1 if x > y else -1
        i += 1
        j += 1
    if i < na:
        return 1 if pa[i][1].numerator > 0 else -1
    return (-1 if pb[j][1].numerator > 0 else 1) if j < nb else 0


def mono_cmp(a: Transmono, b: Transmono) -> int:
    """Trichotomous dominance order on transmonomials: 1 if a > b."""
    if a is b:
        return 0
    if a.expart is None and b.expart is None:
        return _cmp_pure(a, b)
    key = (a, b)
    hit = _cmp_cache.get(key)
    if hit is not None:
        return hit
    # sign of log a - log b: walk both logs to their first differing term
    ta, tb = mono_log(a).terms, mono_log(b).terms
    n = min(len(ta), len(tb))
    i = 0
    while i < n and ta[i] == tb[i]:
        i += 1
    c = mono_cmp(ta[i][1], tb[i][1]) if i < n else len(ta) - len(tb)
    if c > 0:
        res = 1 if ta[i][0].numerator > 0 else -1
    elif c < 0:
        res = -1 if tb[i][0].numerator > 0 else 1
    else:  # log is injective on canonical transmonomials
        res = 0 if i == n else (1 if ta[i][0] > tb[i][0] else -1)
    _remember(_cmp_cache, {(a, b): res, (b, a): -res})
    return res


def _cmp_unit(m: Transmono) -> int:
    """mono_cmp(m, 1), kept on m as ``_vs1``."""
    c = m.__dict__.get("_vs1")
    if c is None:
        c = mono_cmp(m, UNIT_MONO)
        object.__setattr__(m, "_vs1", c)
    return c


def mono_mul(a: Transmono, b: Transmono) -> Transmono:
    """The product a*b, memoized in ``_mul_memo`` under (a, b) and (b, a):
    the product is one interned object.  A hit skips the exponent sums, the
    sort and the intern lookup.  The memo holds at most ``_PAIR_MEMO_MAX``
    entries; one with no room for two more is cleared, as ``_cmp_cache``
    is."""
    hit = _mul_memo.get((a, b))
    if hit is not None:
        return hit
    da = dict(a.powers)
    for k, r in b.powers:
        nr = da[k] + r if k in da else r  # reuses r: a cheaper intern lookup
        if nr:
            da[k] = nr
        else:
            del da[k]
    if a.expart is None:
        ex = b.expart
    elif b.expart is None:
        ex = a.expart
    else:
        s = g_add(a.expart, b.expart)
        ex = None if s.is_zero() else s
    ab = Transmono(tuple(sorted(da.items())), ex)
    _remember(_mul_memo, {(a, b): ab, (b, a): ab})
    return ab


def mono_pow(a: Transmono, q: Fraction) -> Transmono:
    if q == 0:
        return UNIT_MONO
    powers = tuple((k, r * q) for k, r in a.powers)
    ex = None
    if a.expart is not None:
        s = g_scale(a.expart, q)
        ex = None if s.is_zero() else s
    return Transmono(powers, ex)


def mono_inv(a: Transmono) -> Transmono:
    return mono_pow(a, Q(-1))


# ---------------------------------------------------------------------------
# germ ring


def g_add(f: GermTerm, g: GermTerm) -> GermTerm:
    check_germ(f)
    check_germ(g)
    ft, gt = f.terms, g.terms
    if not ft:
        return g
    if not gt:
        return f
    out: list[tuple[Fraction, Transmono]] = []
    i = j = 0
    while i < len(ft) and j < len(gt):
        c = mono_cmp(ft[i][1], gt[j][1])
        if c > 0:
            out.append(ft[i])
            i += 1
        elif c < 0:
            out.append(gt[j])
            j += 1
        else:
            a, b = ft[i][0], gt[j][0]
            n = a.numerator * b.denominator + b.numerator * a.denominator
            if n:
                out.append((frac(n, a.denominator * b.denominator), ft[i][1]))
            i += 1
            j += 1
    out.extend(ft[i:])
    out.extend(gt[j:])
    return GermTerm(tuple(out))


def g_neg(f: GermTerm) -> GermTerm:
    check_germ(f)
    return GermTerm(tuple((-c, m) for c, m in f.terms))


def g_scale(f: GermTerm, q: Fraction) -> GermTerm:
    check_germ(f)
    q = rational(q)
    if not q:
        return ZERO
    qn, qd = q.numerator, q.denominator
    return GermTerm(tuple((frac(c.numerator * qn, c.denominator * qd), m)
                          for c, m in f.terms))


def _sum_runs(runs: list[GermTerm]) -> GermTerm:
    """The sum of germs in normal form, merged pairwise level by level with
    g_add, so each term goes through about log2(len(runs)) merges."""
    while len(runs) > 1:
        merged = [g_add(a, b) for a, b in zip(runs[::2], runs[1::2])]
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return runs[0] if runs else ZERO


def g_mul(f: GermTerm, g: GermTerm) -> GermTerm:
    check_germ(f)
    check_germ(g)
    # one run c*m*g per term of the shorter factor
    if len(f.terms) > len(g.terms):
        f, g = g, f
    return _sum_runs([_mul_term(c, m, g) for c, m in f.terms])


def _mul_term(c: Fraction, m: Transmono, g: GermTerm) -> GermTerm:
    """c*m*g for a nonzero c.  The dominance order is a group order, so
    multiplying every term of g by m keeps them strictly decreasing and
    distinct: the product is in normal form with no sort."""
    if c == 1 and m is UNIT_MONO:
        return g
    cn, cd = c.numerator, c.denominator
    return GermTerm(tuple((frac(cn * cg.numerator, cd * cg.denominator),
                           mono_mul(m, mg)) for cg, mg in g.terms))


def _iroot(n: int, r: int) -> Optional[int]:
    """Exact r-th root of a nonnegative integer, or None."""
    if n in (0, 1):
        return n
    x = 1 << (n.bit_length() // r + 1)
    while True:  # Newton, integer, monotone from above
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    return x if x**r == n else None


def exact_root(c: Fraction, q: Fraction) -> Optional[Fraction]:
    """c**q when the result is an exact rational, else None."""
    if q.denominator == 1:
        p = q.numerator
        return c**p if (c or p >= 0) else None
    if c == 0:
        return Q(0) if q > 0 else None
    r = q.denominator
    sign = 1
    num, den = c.numerator, c.denominator
    if num < 0:
        if r % 2 == 0:
            return None
        sign, num = -1, -num
    rn = _iroot(num, r)
    rd = _iroot(den, r)
    if rn is None or rd is None:
        return None
    return (sign * Q(rn, rd)) ** q.numerator


def g_pow(f: GermTerm, q: Fraction) -> GermTerm:
    check_germ(f)
    q = rational(q)
    if q.denominator == 1:
        n = q.numerator
        if n == 0:
            if f.is_zero():
                raise NonHardyExpression("0^0 is undefined")
            return ONE
        if n > 0:
            acc = ONE
            base = f
            while n:
                if n & 1:
                    acc = g_mul(acc, base)
                n >>= 1
                if n:
                    base = g_mul(base, base)
            return acc
        # negative integer power: reciprocal needs a single term
        return g_pow(g_invert_term(f), Q(-n))
    if f.is_zero():
        raise NonHardyExpression("fractional power of the zero germ")
    if len(f.terms) > 1:
        raise NotInFragment("fractional power of a multi-term germ")
    c, m = f.terms[0]
    rc = exact_root(c, q)
    if rc is None:
        if c < 0 and q.denominator % 2 == 0:
            raise NonHardyExpression("even root of an eventually negative germ")
        raise NotInFragment(f"coefficient {c} has no exact rational power {q}")
    return GermTerm(((rc, mono_pow(m, q)),))


def g_invert_term(f: GermTerm) -> GermTerm:
    if f.is_zero():
        raise NonHardyExpression("division by the zero germ")
    if len(f.terms) > 1:
        raise NotInFragment("reciprocal of a multi-term germ")
    c, m = f.terms[0]
    return GermTerm(((1 / c, mono_inv(m)),))


# ---------------------------------------------------------------------------
# exp / log


def is_purely_infinite(f: GermTerm) -> bool:
    """Every transmonomial of f is large (tends to infinity)."""
    return all(_cmp_unit(m) > 0 for _, m in f.terms)


def g_exp(f: GermTerm, max_depth: int = DEFAULT_EXP_DEPTH) -> GermTerm:
    if f.is_zero():
        return ONE
    if not is_purely_infinite(f):
        cv = f.constant_value()
        if cv is not None and cv != 0:
            raise NotInFragment(
                f"exp({cv}) is irrational; exp arguments must be purely infinite")
        raise NotInFragment(
            "exp of a germ with bounded or small part is outside the fragment")
    powers: dict[int, Fraction] = {}
    rest: list[tuple[Fraction, Transmono]] = []
    for c, m in f.terms:
        if m.expart is None and len(m.powers) == 1 and m.powers[0][1] == 1 \
                and m.powers[0][0] >= 1:
            powers[m.powers[0][0] - 1] = c  # exp(c*log_k) = log_{k-1}^c
        else:
            rest.append((c, m))
    ex = GermTerm(tuple(rest)) if rest else None
    mono = Transmono(tuple(sorted(powers.items())), ex)
    if mono.depth() > max_depth:
        raise DepthLimitExceeded(f"exp nesting exceeds depth {max_depth}")
    return GermTerm(((Q(1), mono),))


def g_log(f: GermTerm) -> GermTerm:
    if f.is_zero():
        raise NonHardyExpression("log of the zero germ")
    c, m = f.leading()
    if c < 0:
        raise NonHardyExpression("log of an eventually negative germ")
    if len(f.terms) > 1:
        raise NotInFragment(
            "log of a multi-term germ has no finite normal form in the fragment")
    if c != 1:
        raise NotInFragment(f"log({c}) is irrational; only unit coefficients admit log")
    return mono_log(m)


# ---------------------------------------------------------------------------
# signs, dominance, comparison


def sign(f: GermTerm) -> int:
    """Eventual sign at +infinity."""
    if f.is_zero():
        return 0
    return 1 if f.terms[0][0].numerator > 0 else -1


def leading_mono(f: GermTerm) -> Transmono:
    return f.leading()[1]


def is_infinitely_increasing(f: GermTerm) -> bool:
    if f.is_zero():
        return False
    c, m = f.terms[0]
    return c.numerator > 0 and _cmp_unit(m) > 0


@dataclass(frozen=True)
class ComparisonResult:
    """Dominance verdict: relation is '<<', '~' or '>>' for f against g."""

    relation: str
    same_archimedean_class: bool
    comparable: bool


def compare(f: GermTerm, g: GermTerm) -> ComparisonResult:
    """Trichotomous dominance comparison of nonzero germs.

    ``comparable`` follows the power-sandwich criterion: germs in the class
    of 1 are mutually comparable; otherwise both must be large or both small
    with asymptotically equivalent logarithms.
    """
    check_germ(f)
    check_germ(g)
    if f.is_zero() or g.is_zero():
        raise NonHardyExpression("compare requires nonzero germs")
    mf, mg = leading_mono(f), leading_mono(g)
    c = mono_cmp(mf, mg)
    relation = "~" if c == 0 else (">>" if c > 0 else "<<")
    return ComparisonResult(relation, c == 0, _comparable(mf, mg))


def _comparable(mf: Transmono, mg: Transmono) -> bool:
    """``compare``'s ``comparable`` for germs led by mf and mg."""
    uf, ug = mf.is_unit(), mg.is_unit()
    if uf or ug:
        return uf and ug
    return _cmp_unit(mf) == _cmp_unit(mg) and \
        mono_log(mf).terms[0][1] is mono_log(mg).terms[0][1]


def same_archimedean_class(f: GermTerm, g: GermTerm) -> bool:
    return mono_cmp(leading_mono(f), leading_mono(g)) == 0


# ---------------------------------------------------------------------------
# level and exponential height


def _mono_eh(m: Transmono) -> int:
    # the powers' heights are -k, so the lowest index, the first, is highest
    if m.expart is None:
        return -m.powers[0][0] if m.powers else 0
    h = eh(m.expart) + 1
    return max(h, -m.powers[0][0]) if m.powers else h


def eh(f: GermTerm) -> int:
    """Exponential height of the normal form (constants have height 0)."""
    if f.is_zero():
        return 0
    return max(_mono_eh(m) for _, m in f.terms)


def _mono_level(m: Transmono) -> int:
    # requires m > 1
    if m.expart is None:
        k, r = m.powers[0]
        if r.numerator <= 0:
            raise Unclassifiable(f"transmonomial {m} is not infinitely increasing")
        return -k
    lg = mono_log(m)
    c, lead = lg.leading()
    if c.numerator <= 0:
        raise Unclassifiable(f"transmonomial {m} is not infinitely increasing")
    return _mono_level(lead) + 1


def level(f: GermTerm) -> int:
    """Growth level of an infinitely increasing germ."""
    if not is_infinitely_increasing(f):
        raise Unclassifiable("level is defined for infinitely increasing germs only")
    return _mono_level(leading_mono(f))


# ---------------------------------------------------------------------------
# admissibility and basis extraction


@dataclass(frozen=True)
class GeneratorCertificate:
    germ: GermTerm
    level: Optional[int]
    eh: int
    simple: bool
    class_rep: str  # leading transmonomial, printed


@dataclass
class AdmissibilityResult:
    ok: bool
    certificate: list[GeneratorCertificate]
    reasons: list[str]


def is_admissible(germs: Sequence[GermTerm]) -> AdmissibilityResult:
    """Simplicity plus pairwise distinct archimedean classes, with certificate.

    Raises NotDecreasing when the tuple strictly inverts the dominance order;
    germs in a shared archimedean class are reported through the certificate
    instead, since that is the interesting failure mode.
    """
    germs = list(germs)
    if not germs:
        raise NotDecreasing("empty generator tuple")
    reasons, facts, _ = _admissibility(germs)
    return AdmissibilityResult(not reasons, _certificate(germs, facts), reasons)


def _certificate(germs: list[GermTerm], facts: list[tuple]) -> list[GeneratorCertificate]:
    """One GeneratorCertificate per germ, from ``_admissibility``'s facts."""
    return [GeneratorCertificate(f, lv, h, lv == h,
                                 "?" if lv is None else mono_str(f.terms[0][1]))
            for f, (lv, h) in zip(germs, facts)]


def _admissibility(germs: list[GermTerm]
                   ) -> tuple[list[str], list[tuple], Optional[tuple[int, int]]]:
    """``is_admissible``'s reasons without its certificate, each germ's
    (level, eh), the level None for a germ not infinitely increasing, and
    the first pair of generators that share a class, or None."""
    reasons, facts = [], []
    for f in germs:
        h = eh(f)
        lv = _mono_level(f.terms[0][1]) if is_infinitely_increasing(f) else None
        if lv is None:
            reasons.append(f"{f} is not infinitely increasing")
        elif lv != h:
            reasons.append(f"{f} is not simple: level {lv} != eh {h}")
        facts.append((lv, h))
    same: list[bool] = []  # same[i]: generators i and i + 1 share a class
    for i, (a, b) in enumerate(zip(germs, germs[1:])):
        if a.is_zero() or b.is_zero():
            raise NotDecreasing("zero germ in generator tuple")
        c = mono_cmp(a.terms[0][1], b.terms[0][1])
        if c < 0:
            raise NotDecreasing(f"generator {i} precedes generator {i + 1}")
        same.append(c == 0)
    # the leading monomials do not increase, so generators i < j share a
    # class exactly when every adjacent pair between them does
    reasons += [f"generators {i} and {j} share an archimedean class"
                for i in range(len(germs)) for j in range(i + 1, len(germs))
                if all(same[i:j])]
    first = next(((i, i + 1) for i, shared in enumerate(same) if shared), None)
    return reasons, facts, first


def extract_basis(germs: Sequence[GermTerm]) -> list[GermTerm]:
    """Basis of the additive span with pairwise distinct archimedean classes.

    Recursive leading-multiple subtraction: pick the germ of maximal class,
    eliminate that class from the others, recurse on the remainders.
    """
    pool = [f for f in germs if not f.is_zero()]
    for f in pool:
        if not is_purely_infinite(f) or not is_infinitely_increasing(f):
            raise NotInFragment(
                f"extract_basis requires purely infinite, infinitely increasing germs, got {f}")
    return _basis(pool)


def _basis(pool: list[GermTerm]) -> list[GermTerm]:
    """extract_basis of nonzero, purely infinite, increasing germs; consumes pool."""
    basis: list[GermTerm] = []
    while pool:
        top = 0  # first element attaining the maximal archimedean class
        for i in range(1, len(pool)):
            if mono_cmp(pool[i].terms[0][1], pool[top].terms[0][1]) > 0:
                top = i
        pivot = pool.pop(top)
        basis.append(pivot)
        pc, pm = pivot.terms[0]
        nxt: list[GermTerm] = []
        for f in pool:
            c, m = f.terms[0]
            if mono_cmp(m, pm) == 0:
                f = g_add(f, g_scale(pivot, -c / pc))
                if f.is_zero():
                    continue
                if sign(f) < 0:
                    f = g_neg(f)
            nxt.append(f)
        pool = nxt
    return basis


def express_in_basis(f: GermTerm, basis: Sequence[GermTerm]) -> Optional[list[Fraction]]:
    """Coordinates of f in the given basis, or None if f is outside the span."""
    coeffs = [Q(0)] * len(basis)
    rest = f
    while not rest.is_zero():
        c, m = rest.leading()
        for i, b in enumerate(basis):
            if mono_cmp(leading_mono(b), m) == 0:
                q = c / b.leading()[0]
                coeffs[i] += q
                rest = g_add(rest, g_scale(b, -q))
                break
        else:
            return None
    return coeffs


# ---------------------------------------------------------------------------
# numeric evaluation


def _logk_val(x: float, k: int) -> float:
    v = x
    for _ in range(k):
        if v <= 0:
            raise DomainError(f"log argument {v} <= 0 during iterate")
        v = math.log(v)
    return v


def eval_mono(m: Transmono, x: float) -> float:
    out = 1.0
    for k, r in m.powers:
        base = _logk_val(x, k)
        if base <= 0 and r.denominator != 1:
            raise DomainError(f"fractional power of nonpositive base {base}")
        if base == 0 and r < 0:
            raise DomainError("zero base with negative exponent")
        if base < 0:
            out *= math.copysign(abs(base) ** float(r), base if r.numerator % 2 else 1.0)
        else:
            out *= base ** float(r)
    if m.expart is not None:
        try:
            out *= math.exp(eval_germ(m.expart, x))
        except OverflowError:
            out = math.copysign(math.inf, out)
    return out


def eval_germ(f: GermTerm, x: float) -> float:
    return math.fsum(float(c) * eval_mono(m, x) for c, m in f.terms)


# ---------------------------------------------------------------------------
# differentiation


def _dlog_factor(k: int) -> GermTerm:
    """(log_{k+1})' = 1/(x * log(x) * ... * logk(x)), the relative derivative
    of the iterate factor at index k."""
    powers = tuple((j, Q(-1)) for j in range(k + 1))
    return GermTerm(((Q(1), Transmono(powers)),))


def mono_dlog(m: Transmono) -> GermTerm:
    """(log m)' as a germ.  Computed once per monomial and kept on it as
    ``_dlog``; the exp part's derivative reaches its own monomials' memos."""
    acc = m.__dict__.get("_dlog")
    if acc is None:
        acc = ZERO
        for k, r in m.powers:
            acc = g_add(acc, g_scale(_dlog_factor(k), r))
        if m.expart is not None:
            acc = g_add(acc, derivative(m.expart))
        object.__setattr__(m, "_dlog", acc)
    return acc


def derivative(f: GermTerm) -> GermTerm:
    """Exact d/dx; the fragment is closed under differentiation."""
    check_germ(f)
    # (c m)' = c m (log m)'
    return _sum_runs([_mul_term(c, m, mono_dlog(m)) for c, m in f.terms])


# ---------------------------------------------------------------------------
# composition


def inverse(g: GermTerm) -> GermTerm:
    """Exact compositional inverse of an infinitely increasing germ.

    The inverse has a normal form for c*x^r with an exact rational root of c
    (the inverse is c^(-1/r) * x^(1/r)) and for a unit log iterate (an exp
    iterate, DepthLimitExceeded past the exp depth bound).  Anything else,
    a non-germ argument included, raises NotInFragment; a germ that is not
    infinitely increasing raises NotIncreasing."""
    check_germ(g)
    if not is_infinitely_increasing(g):
        raise NotIncreasing(f"{g} is not infinitely increasing")
    if len(g.terms) == 1:
        c, m = g.terms[0]
        if m.expart is None and len(m.powers) == 1:
            k, r = m.powers[0]
            if k == 0:
                rc = exact_root(1 / c, 1 / r)
                if rc is not None:
                    return GermTerm(((rc, Transmono(((0, 1 / r),)),),))
            elif r == 1 and c == 1:
                inv = g_x()
                for _ in range(k):
                    inv = g_exp(inv)
                return inv
    raise NotInFragment(f"the inverse of {g} has no normal form in the fragment")


def _log_iterate_of(g: GermTerm, k: int, logs: dict[int, GermTerm]) -> GermTerm:
    top = max(logs)
    while top < k:
        logs[top + 1] = g_log(logs[top])
        top += 1
    return logs[k]


def _subst_mono(m: Transmono, g: GermTerm, logs: dict[int, GermTerm]) -> GermTerm:
    """m o g, memoized in ``_subst_memo`` under (m, g) and read without the
    lock; a refusal is raised again on every call and stores nothing."""
    hit = _subst_memo.get((m, g))
    if hit is not None:
        return hit
    out = ONE
    for k, r in m.powers:
        out = g_mul(out, g_pow(_log_iterate_of(g, k, logs), r))
    if m.expart is not None:
        out = g_mul(out, g_exp(_compose(m.expart, g, logs)))
    _remember(_subst_memo, {(m, g): out})
    return out


def _compose(f: GermTerm, g: GermTerm, logs: dict[int, GermTerm]) -> GermTerm:
    """f o g for a checked g; ``logs`` caches g's log iterates while
    recursing into exp parts."""
    acc = ZERO
    for c, m in f.terms:
        acc = g_add(acc, g_scale(_subst_mono(m, g, logs), c))
    return acc


def compose_exact(f: GermTerm, g: GermTerm) -> GermTerm:
    """f o g, the substitution x -> g in f, in normal form.

    Each monomial's substitution m o g is computed once per pair (m, g) and
    kept in ``_subst_memo`` (see Transmono), which ``series.compose_right``
    shares; a refused one is not kept and is refused again on every call.

    Raises NotIncreasing when g is not infinitely increasing, and NotInFragment,
    DepthLimitExceeded or NonHardyExpression when f o g has no normal form in
    the fragment; NotInFragment also refuses an f or g that is not a germ."""
    check_germ(f)
    check_germ(g)
    if not is_infinitely_increasing(g):
        raise NotIncreasing(f"right-composition germ {g} is not infinitely increasing")
    return _compose(f, g, {0: g})


# ---------------------------------------------------------------------------
# printing


def _exp_str(r: Fraction) -> str:
    if r.denominator == 1 and r >= 0:
        return str(r.numerator)
    return f"({r})"


def _factor_name(k: int) -> str:
    if k == 0:
        return "x"
    if k == 1:
        return "log(x)"
    return f"log{k}(x)"


def mono_str(m: Transmono) -> str:
    factors = []
    for k, r in m.powers:
        name = _factor_name(k)
        factors.append(name if r == 1 else f"{name}^{_exp_str(r)}")
    if m.expart is not None:
        factors.append(f"exp({germ_str(m.expart)})")
    return "*".join(factors) if factors else "1"


def _coeff_prefix(c: Fraction, mono: Transmono) -> str:
    if mono.is_unit():
        return str(c)
    if c == 1:
        return mono_str(mono)
    if c == -1:
        return f"-{mono_str(mono)}"
    return f"{c}*{mono_str(mono)}"


def germ_str(f: GermTerm) -> str:
    if f.is_zero():
        return "0"
    parts = [_coeff_prefix(f.terms[0][0], f.terms[0][1])]
    for c, m in f.terms[1:]:
        if c < 0:
            parts.append(f" - {_coeff_prefix(-c, m)}")
        else:
            parts.append(f" + {_coeff_prefix(c, m)}")
    return "".join(parts)
