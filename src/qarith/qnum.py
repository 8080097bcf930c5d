"""Quantum integers over a ring: states, factorials, binomial coefficients,
quantum characteristic, and flatness/divisibility certification.

The q-state of m >= 0 is the geometric sum 1 + q + ... + q^(m-1), built by the
inductive rule (m+1)_q = (m)_q + q^m; for m < 0 (q invertible) it is
-(q^-1 + ... + q^m).  A ``QContext`` keeps the powers and states it has built
as payload lists, filled with the ring's payload operations, and wraps only
the element it returns.  The q-factorial (m)_q! multiplies the states from the
largest cached factorial below m on, as a balanced product tree.

The certificates need the single pair ((k)_q, q^k), the top row of
M^k for M = [[1, 1], [0, q]].  On Z/n with q not 0 or 1 it comes in closed
form from one modular power, since (k)_q = (q^k - 1)/(q - 1) exactly; on
every other ring M is squared and multiplied (``_matrix_power``).

The quantum characteristic p = d * o, d = ord(q) and o the additive order
of (d)_q, has one route per ring (``_order_and_char``): the finite rings
Z/n and Z/n[X]/(mu) answer d with their own ``unit_order`` from the
factored order of the unit group, one rule for both since Z/n is
Z/n[X]/(X) (a quotient first takes a short walk); every other ring, and a
finite one whose n or |R^*| resists factoring, walks q^m.  Flatness tries
the same states on every ring: with p > 0 only the proper divisors of p,
since a residue field sees (m)_q = 0 exactly at the multiples of a divisor
of p.  A non-unit q on a finite ring tries every divisor of its unit
twin's p.

Binomial coefficients take one of two routes, both division-free:

* rows n <= ``PASCAL_MAX_ROW`` on every ring, and every row on rings without
  the structure below: the Pascal recursion C(n,k) = C(n-1,k-1) + q^k C(n-1,k),
  whose rows each context caches, so a sweep over small n costs one addition
  and one product per entry;
* rows above it when q is the generator t of Z[t], of Q(t) or of Z[t] or
  Q[t] modulo chi_m, m >= 2: [n, k]_t is the product of the chi_d with
  floor(n/d) - floor(k/d) - floor((n-k)/d) = 1 (``factor_q_binomial``),
  read off as base-2^w digits of one integer product
  (``cyclotomic.gaussian_coefficients``), O(n) packed factors and no
  triangle.  Each context chooses once, on its first row above the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import ntheory, zpoly
from .cyclotomic import cyclotomic_poly, eval_cyclotomic, eval_poly, gaussian_coefficients, product_tree
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

# Default bound on the walks of q^m in q_characteristic and certify_flatness.
WALK_BOUND = 10**6

# How many states certify_flatness tries for a non-unit (m)_q when the
# quantum characteristic of a domain is zero.
DIVISIBILITY_SCAN = 64


class QContext:
    """A ring paired with a distinguished q.

    Caches, all as payloads: powers of q and of q^-1, q-states, the
    q-factorials asked for, Pascal triangle rows and binomials computed by
    cyclotomic products.  The caches only grow, a refused negative index
    leaves them as they were, and they are never observable from outside,
    so contexts can be shared freely.
    """

    def __init__(self, ring, q, q_inverse=None):
        if isinstance(q, int):
            q = ring.from_int(q)
        if q.ring is not ring and q.ring != ring:
            raise RingMismatchError("q must belong to the context ring")
        self.ring = ring
        self.q = q
        if q_inverse is not None:
            if isinstance(q_inverse, int):
                q_inverse = ring.from_int(q_inverse)
            if not (q * q_inverse).is_one():
                raise DomainError("q_inverse does not invert q")
        self._qinv = q_inverse if q_inverse is not None else _UNSET
        one, zero = ring._one(), ring._zero()
        self._pows = [one]  # payloads of q^k, k >= 0
        self._neg_pows = [one]  # payloads of q^(-k)
        self._states = [zero]  # payloads of (m)_q, m >= 0
        self._neg_states = [zero]  # payloads of (-m)_q
        self._facts = {0: one}  # m -> payload of (m)_q!
        self._pascal = [[one]]  # rows of payloads
        self._structural = _UNSET  # (n, k) -> payload above PASCAL_MAX_ROW, or None
        self._binoms = {}  # (n, min(k, n - k)) -> payload, structural rows only

    @property
    def q_inverse(self) -> Optional[RingElement]:
        if self._qinv is _UNSET:
            self._qinv = self.q.try_invert()
        return self._qinv

    def _power_payloads(self, k):
        """The payload list of q^0 ... q^k (of q^0 ... q^(-k) for k < 0),
        grown to reach k; NotInvertibleError for k < 0 and q not a unit."""
        mul = self.ring._mul
        if k >= 0:
            pows, qp = self._pows, self.q.payload
        else:
            qinv = self.q_inverse
            if qinv is None:
                raise NotInvertibleError(f"q = {self.q} is not a unit of {self.ring}")
            pows, qp, k = self._neg_pows, qinv.payload, -k
        while len(pows) <= k:
            pows.append(mul(pows[-1], qp))
        return pows

    def q_power(self, k: int) -> RingElement:
        pows = self._pows if k >= 0 else self._neg_pows
        if len(pows) <= abs(k):
            self._power_payloads(k)
        return RingElement(self.ring, pows[abs(k)])

    def __repr__(self):
        return f"QContext({self.ring}, q={self.q})"


def q_state(ctx: QContext, m: int) -> RingElement:
    """(m)_q, for any integer m (negative m requires q invertible)."""
    states = ctx._states if m >= 0 else ctx._neg_states
    if len(states) <= abs(m):
        ring = ctx.ring
        if m >= 0:
            pows = ctx._power_payloads(m - 1)
            while len(states) <= m:
                j = len(states) - 1
                states.append(ring._add(states[j], pows[j]))
        else:
            pows = ctx._power_payloads(m)
            while len(states) <= -m:
                j = len(states)  # building (-j)_q
                states.append(ring._add(states[j - 1], ring._neg(pows[j])))
    return RingElement(ctx.ring, states[abs(m)])


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
    the generator t of Z[t], of Q(t) or of Z[t] or Q[t] modulo chi_m, m >= 2
    (modulo chi_1 the fold C(n, k) may equal the modulus B - 1); else None."""
    ring = ctx.ring
    gen = ring.generator
    if gen is None or ctx.q.payload != gen.payload:
        return None
    kind = type(ring)
    if kind is PolynomialRing and type(ring.base) is IntegerRing:
        return gaussian_coefficients
    if kind is RationalFunctionField and ring.denominator == 1:
        return lambda n, k: (gaussian_coefficients(n, k), (1,))
    m = getattr(ring, "cyclotomic_index", None) or 0
    if m >= 2:

        def cyclo(n, k):
            if n // m - k // m - (n - k) // m:  # chi_m divides [n, k]_t
                return ()
            return zpoly.reduce_cyclotomic(gaussian_coefficients(n, k, fold=m), m, cyclotomic_poly(m))

        return cyclo
    return None


def q_binomial(ctx: QContext, n: int, k: int) -> RingElement:
    """q-binomial coefficient; zero for k > n.

    Rows up to ``PASCAL_MAX_ROW``, and every row unless q is the generator t
    of Z[t], Q(t) or a quotient by chi_m, come from the cached Pascal triangle;
    the rows above it on those rings from the cyclotomic product, memoized.
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
        pows = ctx._power_payloads(n - 1)
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
    """((k)_q, q^k) as payloads, k >= 0: M^k for M = [[1, 1], [0, q]], since
    M^k = [[1, (k)_q], [0, q^k]].

    On Z/n with q not 0 or 1 this is one modular power: q - 1 divides
    q^k - 1 = (q - 1)(k)_q, so r = q^k mod n(q - 1) gives
    (k)_q mod n = ((r - 1) mod n(q - 1)) / (q - 1) exactly.  Every other
    ring, and q in {0, 1}, squares and multiplies M.
    """
    if type(ring) is ModularRing and qp > 1:
        q1 = qp - 1
        nq1 = ring.n * q1
        r = pow(qp, k, nq1)
        return (r - 1) % nq1 // q1, r % ring.n
    s, pw = ring._zero(), ring._one()
    bs, bpw = ring._one(), qp  # M^(2^i)
    while k:
        if k & 1:
            s, pw = ring._add(s, ring._mul(pw, bs)), ring._mul(pw, bpw)
        k >>= 1
        if k:
            bs, bpw = ring._add(bs, ring._mul(bpw, bs)), ring._mul(bpw, bpw)
    return s, pw


def _order_and_char(ring, qp, bound):
    """(p, rule) for the q with payload qp: p = d * o, where d = ord(q) and
    o is the additive order of v = (d)_q, and ``rule`` names how p was
    decided (see ``q_characteristic``).

    (m)_q = 0 forces q^m = 1, since (1 - q)(m)_q = 1 - q^m, and once q^d = 1,
    (kd)_q = k * (d)_q: the zeros of (m)_q are the multiples of p, and p = 0
    when q is not a unit or o is infinite (on a torsion-free ring).

    A finite ring (Z/n or Z/n[X]/(mu)) answers d itself (``unit_order``,
    None for a non-unit q) from the factored order of its unit group, by
    one rule since Z/n is Z/n[X]/(X); (d)_q comes from ``_matrix_power``,
    checked by q^d = 1, and o = n / gcd(n, v) for v read as residues mod n.
    Where ``unit_order`` raises UnsupportedError (n or |R^*| resists
    factoring), and on every other ring, q^m is walked up to
    min(bound, ``root_of_unity_order_bound()``), and o comes from the
    characteristic n: starting from o = n, each prime of n is divided out
    while o * v stays 0.  When no q^m = 1 is seen, p = 0 past the
    root-of-unity order bound; p is None when undecided within ``bound``,
    or when n is 0 or resists factoring.  A p walked with o > 1
    is checked by M^p = 1; from ``unit_order``, q^d = 1 is checked, and with
    o * (d)_q = 0 it gives M^p = (M^d)^o = [[1, o (d)_q], [0, 1]] = 1.
    """
    zero, one = ring._zero(), ring._one()
    n = ring.characteristic
    if ring.finite:
        try:
            d = ring.unit_order(qp)
        except UnsupportedError:  # the walk below stays sound
            pass
        else:
            if d is None:
                return 0, "non-unit q"
            v, qd = _matrix_power(ring, qp, d)
            if qd != one:
                raise InternalError(f"q^{d} != 1 for q = {qp} in {ring}")
            o = n // (math.gcd(n, *v) if type(v) is tuple else math.gcd(n, v))
            return d * o, "matrix-order"
    order_bound = ring.root_of_unity_order_bound()
    steps = bound if order_bound is None else min(bound, order_bound)
    s, pw = zero, one
    for d in range(1, steps + 1):
        s, pw = ring._add(s, pw), ring._mul(pw, qp)
        if pw == one:
            break
    else:
        return (0 if order_bound is not None and order_bound <= bound else None), "root-of-unity bound"
    if s == zero:
        o = 1
    elif ring.torsion_free:
        return 0, "q^d=1 & torsion-free"
    else:  # o divides n: divide each prime of n out of o while o * v stays 0
        if not n:
            return None, None
        try:
            primes = ntheory.factorize(n)
        except UnsupportedError:
            return None, None
        o = n
        for prime in primes:
            while o % prime == 0 and ring._mul(ring._from_int(o // prime), s) == zero:
                o //= prime
    p = d * o
    if o > 1 and _matrix_power(ring, qp, p) != (zero, one):
        raise InternalError(f"M^{p} != 1 for q = {qp} in {ring}")
    return p, "period-walk"


def q_characteristic(ctx: QContext, bound: int = WALK_BOUND) -> QCharResult:
    """Smallest p > 0 with (p)_q = 0, or a certificate that none exists.

    One rule decides p on every ring: p = d * o for d = ord(q) and o the
    additive order of (d)_q (``_order_and_char``).  ``rule`` names how:

    * ``non-unit q`` (finite rings): (m)_q = 0 forces q^m = 1, so q would be
      a unit;
    * ``matrix-order`` (finite rings): p = ord([[1, 1], [0, q]]) from the
      ring's ``unit_order``, whatever ``bound`` allows: d comes from the
      factored order of the unit group, phi(n) on Z/n, unless on
      Z/n[X]/(mu) a walk as long as the order test's squarings meets
      q^d = 1 first;
    * ``period-walk``: d found by walking q^m up to ``bound``, then
      p = d * o; on a finite ring when n or |R^*| resists factoring, on
      every other ring with finite p;
    * ``q^d=1 & torsion-free``: (d)_q != 0 on a Z-torsion-free ring, so
      (kd)_q = k * (d)_q never vanishes;
    * ``root-of-unity bound``: q^m != 1 for every m up to the ring's
      root-of-unity order bound, so q is not a root of unity and no (m)_q
      vanishes.

    Anything undecided within ``bound``, and a p above it however found,
    is reported as unknown.
    """
    p, rule = _order_and_char(ctx.ring, ctx.q.payload, bound)
    if p is None or p > bound:
        return QCharResult.unknown(bound)
    return QCharResult(p, rule=rule)


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


def _nonunit_state_candidates(ctx):
    """Yield (m, (m)_q) as payloads for m >= 1, in increasing m, through
    every m that can be the least one with (m)_q nonzero and not a unit.

    Unit q with quantum characteristic p > 0: a nonzero non-unit v lies in
    a maximal ideal, whose residue field k sees v = 0, and k sees
    (m)_q = 0 exactly at the multiples of its own quantum characteristic,
    a divisor of p.  Below p no state is 0, so the least nonzero non-unit
    state sits at a proper divisor of p, and only those are tried, at
    O(tau(p) log p) ring operations however large the orbit.  p comes from
    ``_order_and_char`` within ``WALK_BOUND`` (UnsupportedError when
    undecided); on a domain with p = 0 the first ``DIVISIBILITY_SCAN``
    states are yielded, then UnsupportedError.

    Non-unit q on a finite ring: y = q^b, b the bit length of |R|, is 0 when
    q is nilpotent, and then every (m)_q = 1 + nilpotent is a unit.  Else
    e = y^E, E = |R^*| on Z/n and on a quotient alike (``unit_group``;
    UnsupportedError when it resists factoring), is the idempotent that is
    1 where q is a unit, and the unit twin t = q e + 1 - e has q's states
    on eR, while q's are units on (1 - e)R.  So the least m divides the
    quantum characteristic of t, and every divisor is tried, since (m)_q is
    never 0 for a non-unit q.
    """
    ring, qp = ctx.ring, ctx.q.payload
    t, last = qp, -1  # a unit q skips p itself, where (p)_q = 0
    if ring.finite and ring._annihilator(qp) is not None:
        b = ring.cardinality.bit_length()
        y = _matrix_power(ring, qp, b)[1]
        if y == ring._zero():  # q is nilpotent: every (m)_q is a unit
            return
        exponent = ring.unit_group()[0]
        e = _matrix_power(ring, y, exponent)[1]
        if ring._mul(e, e) != e:
            raise InternalError(f"q^{b * exponent} = {e} is not idempotent in {ring}")
        t, last = ring._add(ring._mul(qp, e), ring._add(ring._one(), ring._neg(e))), None
    p, _ = _order_and_char(ring, t, WALK_BOUND)
    if p is None:
        raise UnsupportedError(f"quantum characteristic undecided over {ring}")
    if p:
        for m in ntheory.divisors(ntheory.factorize(p))[:last]:
            yield m, _matrix_power(ring, qp, m)[0]
        return
    for m in range(1, DIVISIBILITY_SCAN + 1):
        yield m, q_state(ctx, m).payload
    raise UnsupportedError(
        f"cannot certify divisibility over {ring}: no nonunit state "
        f"found within scan limit {DIVISIBILITY_SCAN}"
    )


def certify_flatness(ctx: QContext) -> FlatnessCertificate:
    """Decide q-flatness and q-divisibility with explicit witnesses.

    Both fail, or divisibility alone on a domain, at the least m with
    (m)_q nonzero and not a unit, tried over ``_nonunit_state_candidates``.
    Finite rings: every nonzero non-unit is a zero divisor, so the ring is
    q-flat exactly when it is q-divisible, and the annihilator of that
    state (``_annihilator``) is the torsion witness.  Integral domains are
    flat; fields are divisible.  When the quantum characteristic is p > 0
    the value set is exactly {(r)_q : 0 <= r < p}, so divisibility is
    decided completely there too.
    """
    ring = ctx.ring
    if not ring.finite:
        if ring.is_field:
            return FlatnessCertificate(flat=True, divisible=True)
        if not ring.is_domain:
            raise UnsupportedError(f"flatness certification needs a finite ring, domain or field, not {ring}")
        if ctx.q.is_zero():  # every (m)_0 = 1 is a unit
            return FlatnessCertificate(True, True)
    zero_p = ring._zero()
    for m, v in _nonunit_state_candidates(ctx):
        if v == zero_p:
            continue
        if not ring.finite:
            if ring._invert(v) is None:
                return FlatnessCertificate(True, False, None, m)
        elif (a := ring._annihilator(v)) is not None:
            if a == zero_p or ring._mul(v, a) != zero_p:
                raise InternalError(f"{a} is not an annihilator of {v} in {ring}")
            return FlatnessCertificate(False, False, (m, RingElement(ring, a)), m)
    return FlatnessCertificate(True, True)


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
