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

import functools
import math
import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    DepthLimitExceeded,
    DomainError,
    NonHardyExpression,
    NotDecreasing,
    NotInFragment,
    NotIncreasing,
    Unclassifiable,
)

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
    from ``mono_log``) and ``_dlog`` (``(log m)'``, from ``mono_dlog``).  They
    are written without a lock, as ``_hash`` is: two threads racing on the
    first use compute equal values, so either write is correct.  They are not
    part of ``_key()`` or of the pickled state, so equality, hashing and
    pickling see only ``(powers, expart)``.

    Facts about a pair of monomials live in two module memos keyed on the
    ordered pair: ``_cmp_cache`` (``mono_cmp``) and ``_mul_memo``
    (``mono_mul``).  Their entries hold monomials strongly, so each memo is
    cleared whenever it has no room for two more entries under
    ``_PAIR_MEMO_MAX``; a monomial no one else holds is then freed.
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
                        (k, r if type(r) is Fraction else Q(r))
                        for k, r in powers))
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


UNIT_MONO = Transmono()
ZERO = GermTerm()
ONE = GermTerm(((Q(1), UNIT_MONO),))


def g_const(q) -> GermTerm:
    q = Q(q)
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
# which hash through the cached ``_hash`` and compare by identity; the bound
# is read at call time
_PAIR_MEMO_MAX = 1 << 16
_cmp_cache: dict[tuple[Transmono, Transmono], int] = {}
_mul_memo: dict[tuple[Transmono, Transmono], Transmono] = {}
_pair_lock = threading.Lock()


def _remember(memo: dict, a: Transmono, b: Transmono, ab, ba) -> None:
    """Store ``memo[a, b] = ab`` and ``memo[b, a] = ba`` under the bound."""
    with _pair_lock:
        if len(memo) + 2 > _PAIR_MEMO_MAX:
            memo.clear()
        memo[a, b] = ab
        memo[b, a] = ba


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
    # no exp parts: lexicographic on exponents, lowest iterate index dominates;
    # walks both index-sorted powers in step, an absent index being exponent 0
    pa, pb = a.powers, b.powers
    na, nb = len(pa), len(pb)
    i = j = 0
    while i < na or j < nb:
        if j == nb or (i < na and pa[i][0] < pb[j][0]):
            ra, rb = pa[i][1], 0
            i += 1
        elif i == na or pb[j][0] < pa[i][0]:
            ra, rb = 0, pb[j][1]
            j += 1
        else:
            ra, rb = pa[i][1], pb[j][1]
            i += 1
            j += 1
        if ra != rb:
            return 1 if ra > rb else -1
    return 0


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
        res = 1 if ta[i][0] > 0 else -1
    elif c < 0:
        res = -1 if tb[i][0] > 0 else 1
    else:  # log is injective on canonical transmonomials
        res = 0 if i == n else (1 if ta[i][0] > tb[i][0] else -1)
    _remember(_cmp_cache, a, b, res, -res)
    return res


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
    _remember(_mul_memo, a, b, ab, ab)
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


def _sum_terms(products: Iterable[tuple[Fraction, Transmono]]) -> GermTerm:
    """Normal form of a sum of terms: like monomials collected, one sort."""
    acc: dict[Transmono, Fraction] = {}
    for c, m in products:
        acc[m] = acc.get(m, 0) + c
    monos = [m for m, c in acc.items() if c]
    monos.sort(key=functools.cmp_to_key(mono_cmp), reverse=True)
    return GermTerm(tuple((acc[m], m) for m in monos))


def g_add(f: GermTerm, g: GermTerm) -> GermTerm:
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    out: list[tuple[Fraction, Transmono]] = []
    i = j = 0
    ft, gt = f.terms, g.terms
    while i < len(ft) and j < len(gt):
        c = mono_cmp(ft[i][1], gt[j][1])
        if c > 0:
            out.append(ft[i])
            i += 1
        elif c < 0:
            out.append(gt[j])
            j += 1
        else:
            s = ft[i][0] + gt[j][0]
            if s:
                out.append((s, ft[i][1]))
            i += 1
            j += 1
    out.extend(ft[i:])
    out.extend(gt[j:])
    return GermTerm(tuple(out))


def g_neg(f: GermTerm) -> GermTerm:
    return GermTerm(tuple((-c, m) for c, m in f.terms))


def g_scale(f: GermTerm, q: Fraction) -> GermTerm:
    q = Q(q)
    if not q:
        return ZERO
    return GermTerm(tuple((c * q, m) for c, m in f.terms))


def g_mul(f: GermTerm, g: GermTerm) -> GermTerm:
    if len(f.terms) > len(g.terms):
        f, g = g, f
    if len(f.terms) != 1:
        return _sum_terms((cf * cg, mono_mul(mf, mg))
                          for cf, mf in f.terms for cg, mg in g.terms)
    c, m = f.terms[0]
    return _mul_term(c, m, g)


def _mul_term(c: Fraction, m: Transmono, g: GermTerm) -> GermTerm:
    """c*m*g for a nonzero c.  The dominance order is a group order, so
    multiplying every term of g by m keeps them strictly decreasing and
    distinct: the product is in normal form with no sort."""
    if c == 1 and m is UNIT_MONO:
        return g
    return GermTerm(tuple((c * cg, mono_mul(m, mg)) for cg, mg in g.terms))


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
    q = Q(q)
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
    return all(mono_cmp(m, UNIT_MONO) > 0 for _, m in f.terms)


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
    return 1 if f.terms[0][0] > 0 else -1


def leading_mono(f: GermTerm) -> Transmono:
    return f.leading()[1]


def is_infinitely_increasing(f: GermTerm) -> bool:
    if f.is_zero():
        return False
    c, m = f.leading()
    return c > 0 and mono_cmp(m, UNIT_MONO) > 0


@dataclass(frozen=True)
class ComparisonResult:
    """Dominance verdict: relation is '<<', '~' or '>>' for f against g."""

    relation: str
    same_archimedean_class: bool
    comparable: bool


def _log_class_mono(m: Transmono) -> Optional[Transmono]:
    """Leading transmonomial of log|m|, or None for the unit monomial."""
    if m.is_unit():
        return None
    lg = mono_log(m)
    return leading_mono(lg)


def compare(f: GermTerm, g: GermTerm) -> ComparisonResult:
    """Trichotomous dominance comparison of nonzero germs.

    ``comparable`` follows the power-sandwich criterion: germs in the class
    of 1 are mutually comparable; otherwise both must be large or both small
    with asymptotically equivalent logarithms.
    """
    if f.is_zero() or g.is_zero():
        raise NonHardyExpression("compare requires nonzero germs")
    mf, mg = leading_mono(f), leading_mono(g)
    c = mono_cmp(mf, mg)
    relation = "~" if c == 0 else (">>" if c > 0 else "<<")
    same_class = c == 0
    uf, ug = mf.is_unit(), mg.is_unit()
    if uf or ug:
        comparable = uf and ug
    else:
        sf = mono_cmp(mf, UNIT_MONO)
        sg = mono_cmp(mg, UNIT_MONO)
        comparable = sf == sg and _log_class_mono(mf) == _log_class_mono(mg)
    return ComparisonResult(relation, same_class, comparable)


def same_archimedean_class(f: GermTerm, g: GermTerm) -> bool:
    return mono_cmp(leading_mono(f), leading_mono(g)) == 0


# ---------------------------------------------------------------------------
# level and exponential height


def _mono_eh(m: Transmono) -> int:
    present = [0 if k == 0 else -k for k, _ in m.powers]
    if m.expart is not None:
        present.append(eh(m.expart) + 1)
    return max(present, default=0)


def eh(f: GermTerm) -> int:
    """Exponential height of the normal form (constants have height 0)."""
    if f.is_zero():
        return 0
    return max(_mono_eh(m) for _, m in f.terms)


def _mono_level(m: Transmono) -> int:
    # requires m > 1
    if m.expart is None:
        k, r = m.powers[0]
        if r <= 0:
            raise Unclassifiable(f"transmonomial {m} is not infinitely increasing")
        return -k
    lg = mono_log(m)
    c, lead = lg.leading()
    if c <= 0:
        raise Unclassifiable(f"transmonomial {m} is not infinitely increasing")
    return _mono_level(lead) + 1


def level(f: GermTerm) -> int:
    """Growth level of an infinitely increasing germ."""
    if not is_infinitely_increasing(f):
        raise Unclassifiable("level is defined for infinitely increasing germs only")
    return _mono_level(leading_mono(f))


def level_and_eh(f: GermTerm) -> tuple[int, int]:
    return level(f), eh(f)


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
    reasons: list[str] = []
    cert: list[GeneratorCertificate] = []
    for f in germs:
        if not is_infinitely_increasing(f):
            reasons.append(f"{f} is not infinitely increasing")
            cert.append(GeneratorCertificate(f, None, eh(f), False, "?"))
            continue
        lv, h = level_and_eh(f)
        simple = lv == h
        if not simple:
            reasons.append(f"{f} is not simple: level {lv} != eh {h}")
        cert.append(GeneratorCertificate(f, lv, h, simple, mono_str(leading_mono(f))))
    for i in range(len(germs) - 1):
        a, b = germs[i], germs[i + 1]
        if a.is_zero() or b.is_zero():
            raise NotDecreasing("zero germ in generator tuple")
        if mono_cmp(leading_mono(a), leading_mono(b)) < 0:
            raise NotDecreasing(f"generator {i} precedes generator {i + 1}")
    for i in range(len(germs)):
        for j in range(i + 1, len(germs)):
            if not germs[i].is_zero() and not germs[j].is_zero() and \
                    same_archimedean_class(germs[i], germs[j]):
                reasons.append(
                    f"generators {i} and {j} share an archimedean class")
    return AdmissibilityResult(not reasons, cert, reasons)


def extract_basis(germs: Sequence[GermTerm]) -> list[GermTerm]:
    """Basis of the additive span with pairwise distinct archimedean classes.

    Recursive leading-multiple subtraction: pick the germ of maximal class,
    eliminate that class from the others, recurse on the remainders.
    """
    pool: list[GermTerm] = []
    for f in germs:
        if f.is_zero():
            continue
        if not is_purely_infinite(f) or not is_infinitely_increasing(f):
            raise NotInFragment(
                f"extract_basis requires purely infinite, infinitely increasing germs, got {f}")
        pool.append(f)
    basis: list[GermTerm] = []
    while pool:
        top = 0  # first element attaining the maximal archimedean class
        for i in range(1, len(pool)):
            if mono_cmp(leading_mono(pool[i]), leading_mono(pool[top])) > 0:
                top = i
        pivot = pool.pop(top)
        basis.append(pivot)
        pc, pm = pivot.leading()
        nxt: list[GermTerm] = []
        for f in pool:
            c, m = f.leading()
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
    # (c m)' = c m (log m)'
    if len(f.terms) == 1:
        c, m = f.terms[0]
        return _mul_term(c, m, mono_dlog(m))
    return _sum_terms((c * cd, mono_mul(m, md))
                      for c, m in f.terms for cd, md in mono_dlog(m).terms)


# ---------------------------------------------------------------------------
# composition


def inverse(g: GermTerm) -> GermTerm:
    """Exact compositional inverse of an infinitely increasing germ.

    The inverse has a normal form for c*x^r with an exact rational root of c
    (the inverse is c^(-1/r) * x^(1/r)) and for a unit log iterate (an exp
    iterate, DepthLimitExceeded past the exp depth bound).  Anything else,
    a non-germ argument included, raises NotInFragment; a germ that is not
    infinitely increasing raises NotIncreasing."""
    if not isinstance(g, GermTerm):
        raise NotInFragment(f"{g!r} is not a germ")
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


def _subst_mono(m: Transmono, g: GermTerm, logs: dict[int, GermTerm],
                max_depth: int) -> GermTerm:
    out = ONE
    for k, r in m.powers:
        out = g_mul(out, g_pow(_log_iterate_of(g, k, logs), r))
    if m.expart is not None:
        out = g_mul(out, g_exp(compose_exact(m.expart, g, logs, max_depth), max_depth))
    return out


def compose_exact(f: GermTerm, g: GermTerm, logs: Optional[dict[int, GermTerm]] = None,
                  max_depth: int = DEFAULT_EXP_DEPTH) -> GermTerm:
    """f o g, the substitution x -> g in f, in normal form.

    Raises NotIncreasing when g is not infinitely increasing, and NotInFragment,
    DepthLimitExceeded or NonHardyExpression when f o g has no normal form in
    the fragment; NotInFragment also refuses an f or g that is not a germ.
    ``logs`` caches g's log iterates while recursing into exp parts; a
    top-level call leaves it None."""
    if logs is None:
        for a in (f, g):
            if not isinstance(a, GermTerm):
                raise NotInFragment(f"{a!r} is not a germ")
        if not is_infinitely_increasing(g):
            raise NotIncreasing(f"right-composition germ {g} is not infinitely increasing")
        logs = {0: g}
    acc = ZERO
    for c, m in f.terms:
        acc = g_add(acc, g_scale(_subst_mono(m, g, logs, max_depth), c))
    return acc


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
