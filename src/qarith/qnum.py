"""Quantum integers over a ring: states, factorials, binomial coefficients,
quantum characteristic, and flatness/divisibility certification.

The q-state of m >= 0 is the geometric sum 1 + q + ... + q^(m-1), built by the
inductive rule (m+1)_q = (m)_q + q^m; for m < 0 (q invertible) it is
-(q^-1 + ... + q^m).  The q-factorial (m)_q! multiplies the states from the
largest cached factorial below m on, as a balanced product tree.

Binomial coefficients take one of two routes, both division-free:

* rows n <= ``PASCAL_MAX_ROW`` on every ring, and every row on rings without
  the structure below: the Pascal recursion C(n,k) = C(n-1,k-1) + q^k C(n-1,k),
  whose rows each context caches, so a sweep over small n costs one addition
  and one product per entry;
* rows above it when q is the generator t of Z[t], of Cyclo(m) or of Q(t):
  [n, k]_t is the product of the chi_d with floor(n/d) - floor(k/d) -
  floor((n-k)/d) = 1 (``cyclotomic.factor_q_binomial``), read off as base-2^w
  digits of one integer product (``cyclotomic.gaussian_coefficients``),
  O(n) packed factors and no triangle.  Each context chooses once, on its
  first row above the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import ntheory
from .cyclotomic import eval_cyclotomic, eval_poly, gaussian_coefficients, product_tree
from .errors import (
    DomainError,
    InternalError,
    NotInvertibleError,
    RingMismatchError,
    UnsupportedError,
)
from .rings import (
    CyclotomicRing,
    IntegerRing,
    ModularRing,
    PolynomialRing,
    RationalFunctionField,
    Ring,
    RingElement,
)

_UNSET = object()

# Largest row that q_binomial builds by the Pascal recursion on rings where
# the cyclotomic product applies.  Sweeps over all n and k reuse the cached
# rows, and below this row they are cheaper than one product per entry.
PASCAL_MAX_ROW = 24

# How many states certify_flatness tries for a non-unit (m)_q when the
# quantum characteristic of a domain is zero.
DIVISIBILITY_SCAN = 64


class QContext:
    """A ring paired with a distinguished q.

    Caches powers of q, q-states, the q-factorials asked for, Pascal
    triangle rows (as payloads) and binomials computed by cyclotomic
    products; the caches only grow and are never observable from outside,
    so contexts can be shared freely.
    """

    def __init__(self, ring, q, q_inverse=None):
        if isinstance(q, int):
            q = ring.from_int(q)
        if q.ring != ring:
            raise RingMismatchError("q must belong to the context ring")
        self.ring = ring
        self.q = q
        if q_inverse is not None:
            if isinstance(q_inverse, int):
                q_inverse = ring.from_int(q_inverse)
            if not (q * q_inverse).is_one():
                raise DomainError("q_inverse does not invert q")
        self._qinv = q_inverse if q_inverse is not None else _UNSET
        self._pows = [ring.one]
        self._neg_pows = [ring.one]
        self._states = [ring.zero]
        self._neg_states = [ring.zero]
        self._facts = {0: ring._one()}  # m -> payload of (m)_q!
        self._pascal = [[ring._one()]]  # rows of payloads
        self._structural = _UNSET  # (n, k) -> payload above PASCAL_MAX_ROW, or None
        self._binoms = {}  # (n, min(k, n - k)) -> payload, structural rows only

    @property
    def q_inverse(self) -> Optional[RingElement]:
        if self._qinv is _UNSET:
            self._qinv = self.q.try_invert()
        return self._qinv

    def q_power(self, k: int) -> RingElement:
        if k >= 0:
            pows = self._pows
            while len(pows) <= k:
                pows.append(pows[-1] * self.q)
            return pows[k]
        qinv = self.q_inverse
        if qinv is None:
            raise NotInvertibleError(f"q = {self.q} is not a unit of {self.ring}")
        pows = self._neg_pows
        while len(pows) <= -k:
            pows.append(pows[-1] * qinv)
        return pows[-k]

    def __repr__(self):
        return f"QContext({self.ring}, q={self.q})"


def q_state(ctx: QContext, m: int) -> RingElement:
    """(m)_q, for any integer m (negative m requires q invertible)."""
    if m >= 0:
        states = ctx._states
        while len(states) <= m:
            j = len(states) - 1
            states.append(states[j] + ctx.q_power(j))
        return states[m]
    states = ctx._neg_states
    while len(states) <= -m:
        j = len(states)  # building (-j)_q
        states.append(states[j - 1] - ctx.q_power(-j))
    return states[-m]


def q_factorial(ctx: QContext, m: int) -> RingElement:
    """(m)_q! = (m)_q (m-1)_q ... (1)_q, with (0)_q! = 1.

    From the largest cached m' < m: the states (m'+1)_q ... (m)_q are
    multiplied as a balanced tree, then once by (m')_q!, so out-of-order
    queries cost m - m' ring products and the cache holds only the m asked.
    """
    if m < 0:
        raise DomainError("q-factorial needs m >= 0")
    ring, facts = ctx.ring, ctx._facts
    value = facts.get(m)
    if value is None:
        start = max(j for j in facts if j < m)
        states = [q_state(ctx, j).payload for j in range(start + 1, m + 1)]
        value = facts[m] = ring._mul(facts[start], product_tree(states, ring._mul, ring._one()))
    return RingElement(ring, value)


def _structural_binomial(ctx: QContext):
    """(n, k) -> payload of [n, k]_t by ``gaussian_coefficients`` when q is
    the generator t of Z[t], Cyclo(m) or Q(t); None on any other context."""
    ring = ctx.ring
    gen = ring.generator
    if gen is None or ctx.q.payload != gen.payload:
        return None
    kind = type(ring)
    if kind is PolynomialRing and type(ring.base) is IntegerRing:
        return gaussian_coefficients
    if kind is RationalFunctionField and ring.denominator == 1:
        return lambda n, k: (gaussian_coefficients(n, k), (1,))
    if kind is CyclotomicRing:
        m = ring.p

        def cyclo(n, k):
            if n // m - k // m - (n - k) // m:  # chi_m divides [n, k]_t
                return ()
            return ring._reduce(gaussian_coefficients(n, k, fold=m))

        return cyclo
    return None


def q_binomial(ctx: QContext, n: int, k: int) -> RingElement:
    """q-binomial coefficient; zero for k > n.

    Rows up to ``PASCAL_MAX_ROW``, and every row unless q is the generator t
    of Z[t], Cyclo(m) or Q(t), come from the cached Pascal triangle; the
    rows above it on those rings from the cyclotomic product, memoized.
    """
    if n < 0 or k < 0:
        raise DomainError("q-binomial arguments must be natural numbers")
    if k > n:
        return ctx.ring.zero
    ring = ctx.ring
    if n > PASCAL_MAX_ROW:
        if ctx._structural is _UNSET:
            ctx._structural = _structural_binomial(ctx)
        if ctx._structural is not None:
            key = (n, min(k, n - k))
            value = ctx._binoms.get(key)
            if value is None:
                value = ctx._binoms[key] = ctx._structural(*key)
            return RingElement(ring, value)
    rows = ctx._pascal
    if len(rows) <= n:
        ctx.q_power(n - 1)
        pows = [p.payload for p in ctx._pows[:n]]
        add, mul, one = ring._add, ring._mul, ring._one()
        while len(rows) <= n:
            prev = rows[-1]
            r = len(rows)
            row = [one]
            for j in range(1, r):
                row.append(add(prev[j - 1], mul(pows[j], prev[j])))
            row.append(prev[r - 1])
            rows.append(row)
    return RingElement(ring, rows[n][k])


@dataclass(frozen=True)
class QCharResult:
    """Outcome of the quantum characteristic search.

    p > 0: (p)_q = 0 and (m)_q != 0 for 0 < m < p.
    p = 0, certified: no positive m has (m)_q = 0.
    p = 0, not certified: undecided within ``bound``.

    ``rule`` names the certificate that decided a certified result (see
    ``q_characteristic``); it is None for an unknown one and takes no part
    in comparisons.
    """

    p: int
    certified: bool = True
    bound: Optional[int] = None
    rule: Optional[str] = field(default=None, compare=False)

    @classmethod
    def finite(cls, p, rule=None):
        return cls(p=p, certified=True, rule=rule)

    @classmethod
    def zero(cls, rule=None):
        return cls(p=0, certified=True, rule=rule)

    @classmethod
    def unknown(cls, bound):
        return cls(p=0, certified=False, bound=bound)

    @property
    def is_finite(self):
        return self.p > 0

    @property
    def is_zero(self):
        return self.p == 0 and self.certified

    @property
    def is_unknown(self):
        return self.p == 0 and not self.certified

    def __str__(self):
        if self.is_finite:
            return str(self.p)
        if self.is_zero:
            return "0 (certified)"
        return f"unknown (bound={self.bound})"


def _matrix_power(ring, qp, k):
    """((k)_q, q^k) as payloads: M^k for M = [[1, 1], [0, q]], by square and
    multiply, since M^k = [[1, (k)_q], [0, q^k]]."""
    s, pw = ring._zero(), ring._one()
    bs, bpw = ring._one(), qp  # M^(2^i)
    while k:
        if k & 1:
            s, pw = ring._add(s, ring._mul(pw, bs)), ring._mul(pw, bpw)
        k >>= 1
        if k:
            bs, bpw = ring._add(bs, ring._mul(bpw, bs)), ring._mul(bpw, bpw)
    return s, pw


def _first_zero(ring, qp, bound):
    """Least m <= bound with (m)_q = 0, stepping ((m)_q, q^m); None if none."""
    zero_p = ring._zero()
    s, pw = zero_p, ring._one()
    for m in range(1, bound + 1):
        s, pw = ring._add(s, pw), ring._mul(pw, qp)
        if s == zero_p:
            return m
    return None


def _matrix_order(ring, qp, bound):
    """ord(M) for a unit q of a finite ring, or None when it exceeds bound.

    (m)_q = 0 forces q^m = 1, since (1 - q)(m)_q = 1 - q^m, so the zeros of
    (m)_q are the m with M^m = 1 and the first one is ord(M).  Over Z/n,
    ord(M) = d * (additive order of (d)_q) with d the order of q, read off
    the factored lambda(n) (UnsupportedError when n resists factoring);
    elsewhere the orbit of ((m)_q, q^m), purely periodic for a unit q, is
    walked to its first zero.
    """
    if not isinstance(ring, ModularRing):
        return _first_zero(ring, qp, bound)
    d = ring.unit_order(qp)
    s, _ = _matrix_power(ring, qp, d)
    p = d * (ring.n // math.gcd(s, ring.n))
    if _matrix_power(ring, qp, p) != (ring._zero(), ring._one()):
        raise InternalError(f"M^{p} != 1 for q = {qp} in {ring}")
    return p if p <= bound else None


def q_characteristic(ctx: QContext, bound: int = 10**6) -> QCharResult:
    """Smallest p > 0 with (p)_q = 0, or a certificate that none exists.

    The certificate rules, each sound in any ring, and named in ``rule``:

    * ``non-unit q`` (finite rings): (m)_q = 0 forces q^m = 1, so q would be
      a unit;
    * ``matrix-order`` (Z/n): p = ord([[1, 1], [0, q]]), computed from the
      factored Carmichael function, see ``_matrix_order``;
    * ``period-walk``: the first zero found by stepping (s_m, q^m) =
      ((m)_q, q^m); on a finite ring a unit q makes this orbit purely
      periodic, so the walk ends at ord(M) without remembering it;
    * ``q^d=1 & torsion-free``: q^d = 1 observed with (d)_q != 0: zeros can
      only occur at multiples of d, where (kd)_q = k * (d)_q, so a
      Z-torsion-free ring has none;
    * ``root-of-unity bound``: q^m != 1 for every m up to the ring's
      root-of-unity order bound, so q is not a root of unity and no (m)_q
      vanishes.

    A p found by structure but larger than ``bound`` is reported as unknown,
    as the walk would.
    """
    ring = ctx.ring
    qp = ctx.q.payload
    if ring.finite:
        rule = "matrix-order" if isinstance(ring, ModularRing) else "period-walk"
        try:
            if ring._invert(qp) is None:
                return QCharResult.zero("non-unit q")
            p = _matrix_order(ring, qp, bound)
        except UnsupportedError:  # n resists factoring: walking is still sound
            p, rule = _first_zero(ring, qp, bound), "period-walk"
        return QCharResult.unknown(bound) if p is None else QCharResult.finite(p, rule)
    zero_p = ring._zero()
    one_p = ring._one()
    order_bound = ring.root_of_unity_order_bound()
    s, pw = zero_p, one_p
    for m in range(1, bound + 1):
        s = ring._add(s, pw)
        pw = ring._mul(pw, qp)
        if s == zero_p:
            return QCharResult.finite(m, "period-walk")
        if pw == one_p:
            if ring.torsion_free:
                return QCharResult.zero("q^d=1 & torsion-free")
            return QCharResult.unknown(bound)
        if order_bound is not None and m >= order_bound:
            return QCharResult.zero("root-of-unity bound")
    return QCharResult.unknown(bound)


@dataclass(frozen=True)
class FlatnessCertificate:
    """Certified q-flatness / q-divisibility verdict.

    flat=False comes with a witness (m, a): (m)_q != 0, a != 0, (m)_q * a = 0.
    A nonunit_witness is the least m with (m)_q nonzero and not a unit.
    """

    flat: bool
    divisible: bool
    witness: Optional[tuple] = None
    nonunit_witness: Optional[int] = None

    def __str__(self):
        out = f"flat={str(self.flat).lower()} divisible={str(self.divisible).lower()}"
        if self.witness is not None:
            m, a = self.witness
            out += f" torsion_witness=(m={m}, a={a})"
        if self.nonunit_witness is not None:
            out += f" nonunit_witness=m={self.nonunit_witness}"
        return out


def _nonunit_state_candidates(ring, qp):
    """Yield (m, (m)_q) for m >= 1, in increasing m, through every m that
    can be the least one with (m)_q nonzero and not a unit.

    A finite ring is a product of local rings, and v is a non-unit exactly
    when some residue field k sees v = 0.  Unit q: the zeros of (m)_q are
    the multiples of P = ord(M); k sees (m)_q = 0 exactly at the multiples
    of ord(M) over k, a divisor of P, so the least nonunit nonzero state
    sits at a proper divisor of P, and only those are tried.  Non-unit q:
    (m)_q is never 0.  If q is nilpotent the states are constant from the
    first m with q^m = 0 on; otherwise some k sees q as a unit and so sees
    (m)_q = 0 for some m <= |k|.  Either way the walk ends within |R| steps.
    """
    if ring._invert(qp) is not None:
        p = _matrix_order(ring, qp, ring.cardinality**2)
        for m in ntheory.divisors(ntheory.factorize(p))[:-1]:
            yield m, _matrix_power(ring, qp, m)[0]
        return
    zero_p = ring._zero()
    s, pw = ring._one(), qp
    for m in range(1, ring.cardinality + 1):
        yield m, s
        if pw == zero_p:  # q^m = 0: every later state equals this one
            return
        s, pw = ring._add(s, pw), ring._mul(pw, qp)
    raise InternalError(f"no nonunit state within |R| steps for the non-unit q = {qp} of {ring}")


def certify_flatness(ctx: QContext) -> FlatnessCertificate:
    """Decide q-flatness and q-divisibility with explicit witnesses.

    Finite rings: every nonzero non-unit is a zero divisor, so the ring is
    q-flat exactly when it is q-divisible, and both fail at the least m
    with (m)_q nonzero and not a unit, whose annihilator (``_annihilator``)
    is the torsion witness.  Integral domains are flat; fields are
    divisible.  When the quantum characteristic is p > 0 the value set is
    exactly {(r)_q : 0 <= r < p}, so divisibility is decided completely
    there too.
    """
    ring = ctx.ring
    if ring.finite:
        zero_p = ring._zero()
        for m, v in _nonunit_state_candidates(ring, ctx.q.payload):
            if v == zero_p:
                continue
            a = ring._annihilator(v)
            if a is not None:
                if a == zero_p or ring._mul(v, a) != zero_p:
                    raise InternalError(f"{a} is not an annihilator of {v} in {ring}")
                return FlatnessCertificate(False, False, (m, RingElement(ring, a)), m)
        return FlatnessCertificate(True, True)

    if ring.is_field:
        return FlatnessCertificate(flat=True, divisible=True)

    if ring.is_domain:
        qc = q_characteristic(ctx)
        if qc.is_finite:
            nonunit = None
            for m in range(1, qc.p):
                if q_state(ctx, m).try_invert() is None:
                    nonunit = m
                    break
            return FlatnessCertificate(True, nonunit is None, None, nonunit)
        if qc.is_zero:
            for m in range(1, DIVISIBILITY_SCAN + 1):
                v = q_state(ctx, m)
                if not v.is_zero() and v.try_invert() is None:
                    return FlatnessCertificate(True, False, None, m)
            raise UnsupportedError(
                f"cannot certify divisibility over {ring}: no nonunit state "
                f"found within scan limit {DIVISIBILITY_SCAN}"
            )
        raise UnsupportedError(f"quantum characteristic undecided over {ring}")

    raise UnsupportedError(f"flatness certification needs a finite ring, domain or field, not {ring}")


def symmetric_state(ctx: QContext, n: int) -> RingElement:
    """Symmetric quantum state [n]_v = (n)_{v^2} / v^(n-1), with v = ctx.q."""
    qinv = ctx.q_inverse
    if qinv is None:
        raise NotInvertibleError(f"symmetric states need invertible q in {ctx.ring}")
    sq = QContext(ctx.ring, ctx.q * ctx.q, q_inverse=qinv * qinv)
    return q_state(sq, n) * ctx.q_power(-(n - 1))


def symmetric_binomial(ctx: QContext, n: int, k: int) -> RingElement:
    """Symmetric q-binomial: v^(-k(n-k)) * C(n,k)_{v^2}."""
    if n < 0 or k < 0:
        raise DomainError("symmetric binomial arguments must be natural numbers")
    qinv = ctx.q_inverse
    if qinv is None:
        raise NotInvertibleError(f"symmetric binomials need invertible q in {ctx.ring}")
    sq = QContext(ctx.ring, ctx.q * ctx.q, q_inverse=qinv * qinv)
    return q_binomial(sq, n, k) * ctx.q_power(-k * (n - k))


@dataclass(frozen=True)
class CyclotomicEmbedding:
    """The ring map Z[t]/chi_p -> R sending the class of t to q."""

    source: CyclotomicRing
    target: Ring
    q: RingElement

    def __call__(self, elt: RingElement) -> RingElement:
        if elt.ring != self.source:
            raise RingMismatchError("element does not belong to the embedding source")
        return eval_poly(elt.payload, self.q)


@dataclass(frozen=True)
class CyclotomicObstruction:
    """Nonzero value chi_p(q): no embedding exists."""

    value: RingElement


def embed_cyclotomic(ctx: QContext, p: int):
    """Evaluation map Z[t]/chi_p -> R with t -> q, or the obstruction chi_p(q)."""
    if p < 2:
        raise DomainError("cyclotomic embedding needs p >= 2")
    v = eval_cyclotomic(p, ctx.q)
    if v.is_zero():
        return CyclotomicEmbedding(CyclotomicRing(p), ctx.ring, ctx.q)
    return CyclotomicObstruction(v)


def q_power_context(ctx: QContext, k: int) -> QContext:
    """The context (R, q^k); pair with q_characteristic for the p/gcd(p,k) law."""
    if k < 1:
        raise DomainError("power context needs k >= 1")
    if k == 1:
        return ctx
    qinv = ctx.q_inverse
    return QContext(ctx.ring, ctx.q_power(k), q_inverse=None if qinv is None else qinv**k)
