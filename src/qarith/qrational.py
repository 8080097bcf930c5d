"""Denominator monoids, systems of roots, and q-states of rational numbers.

A finite denominator set D is closed under lcm at construction (together with
1), so the fractions it generates form the monoid N*(1/p) for p = lcm(D).  A
root system attaches to each n in the closure an element q_n with q_n^n = q
and the pairwise compatibility law q_{n'} = q_n^m whenever n = m*n'.  It is
admissible when every (n)_{q_n} is a unit; only then are rational q-states

    (m/n)_q = (m)_{q_n} / (n)_{q_n}

defined.  The generic carrier is Q(t^(1/L)) with q = t and q_n = t^(1/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CompatibilityError,
    DenominatorNotCoveredError,
    DomainError,
    InternalError,
    NotAdmissibleError,
)
from .qnum import QContext, q_state
from .rings import RationalFunctionField, RingElement


@dataclass(frozen=True)
class DenominatorSet:
    """A finite lcm-closed set of denominators and the monoid it generates."""

    denominators: frozenset
    closure: tuple
    generator: int

    def covers(self, n: int) -> bool:
        return n in self.closure

    def contains(self, r) -> bool:
        """Membership of r in the generated monoid N*(1/generator)."""
        r = Fraction(r)
        return r >= 0 and (r * self.generator).denominator == 1

    def __str__(self):
        inner = ",".join(str(n) for n in self.closure)
        return f"N*(1/{{{inner}}}) = N*(1/{self.generator})"


def close_denominators(denominators) -> DenominatorSet:
    """lcm-closure of D together with 1; reports the single generator lcm(D)."""
    given = set(denominators)
    if not given:
        raise DomainError("denominator set must be nonempty")
    if any(n < 1 for n in given):
        raise DomainError("denominators must be positive")
    closure = {1}
    for n in given:
        closure |= {c * n // math.gcd(c, n) for c in closure}
    return DenominatorSet(frozenset(given), tuple(sorted(closure)), max(closure))


class RootSystem:
    """A validated family {q_n} of compatible roots of q, with admissibility flag."""

    def __init__(self, ctx, dset, roots, admissible, nonadmissible_n=None):
        self.ctx = ctx
        self.dset = dset
        self.roots = dict(roots)
        self.admissible = admissible
        self.nonadmissible_n = nonadmissible_n
        self._contexts = {}

    def root(self, n: int) -> RingElement:
        return self.roots[n]

    def root_context(self, n: int) -> QContext:
        ctx = self._contexts.get(n)
        if ctx is None:
            ctx = self._contexts[n] = QContext(self.ctx.ring, self.roots[n])
        return ctx

    def __repr__(self):
        flag = "admissible" if self.admissible else "not admissible"
        return f"RootSystem(q={self.ctx.q}, D={list(self.dset.closure)}, {flag})"


def build_root_system(ctx: QContext, denominators, roots) -> RootSystem:
    """Validate a family {q_n} as a system of roots of ctx.q.

    ``denominators`` is a DenominatorSet or an iterable to close; ``roots``
    maps each member of the closure to its root (1 may be omitted and defaults
    to q).  Verifies q_n^n = q and the divisor compatibility law on the
    closed set, then computes the admissibility flag.
    """
    dset = denominators if isinstance(denominators, DenominatorSet) else close_denominators(denominators)
    table = {}
    for n, v in dict(roots).items():
        if isinstance(v, int):
            v = ctx.ring.from_int(v)
        table[int(n)] = v
    table.setdefault(1, ctx.q)
    missing = [n for n in dset.closure if n not in table]
    if missing:
        raise DomainError(f"roots missing for denominators {missing}")
    for n in dset.closure:
        if table[n] ** n != ctx.q:
            raise CompatibilityError(n, n, f"q_{n}^{n} != q")
    # on an lcm-closed set, pairwise compatibility reduces to divisor pairs
    for n in dset.closure:
        for np in dset.closure:
            if n != np and n % np == 0:
                if table[np] != table[n] ** (n // np):
                    raise CompatibilityError(n, np)
    admissible, bad = True, None
    for n in dset.closure:
        if q_state(QContext(ctx.ring, table[n]), n).try_invert() is None:
            admissible, bad = False, n
            break
    return RootSystem(ctx, dset, {n: table[n] for n in dset.closure}, admissible, bad)


def _representative(sys: RootSystem, r: Fraction):
    """Smallest covered denominator n with r*n integral, plus the numerator."""
    for n in sys.dset.closure:
        m = r * n
        if m.denominator == 1:
            return int(m), n
    raise DenominatorNotCoveredError(
        f"denominator {r.denominator} of {r} is not covered by {list(sys.dset.closure)}"
    )


def q_state_rational(sys: RootSystem, r) -> RingElement:
    """(m/n)_q = (m)_{q_n} * (n)_{q_n}^{-1}; checked against the lcm representative."""
    if not sys.admissible:
        raise NotAdmissibleError(
            f"root system is not admissible: ({sys.nonadmissible_n})_q_{sys.nonadmissible_n} is not a unit"
        )
    r = Fraction(r)
    m, n = _representative(sys, r)
    ctx_n = sys.root_context(n)
    value = q_state(ctx_n, m) * q_state(ctx_n, n).inverse()
    L = sys.dset.generator
    if L != n:
        ctx_L = sys.root_context(L)
        mL = r * L
        alt = q_state(ctx_L, int(mL)) * q_state(ctx_L, L).inverse()
        if value != alt:
            raise InternalError("rational q-state depends on the representative (carrier bug)")
    return value


def rational_power(sys: RootSystem, r) -> RingElement:
    """q^r := q_n^m for r = m/n with n covered; negative r needs q invertible."""
    r = Fraction(r)
    m, n = _representative(sys, r)
    return sys.root_context(n).q_power(m)


def standard_root_system(denominators) -> RootSystem:
    """The generic carrier: Q(t^(1/L)) with q = t and q_n = t^(1/n)."""
    dset = denominators if isinstance(denominators, DenominatorSet) else close_denominators(denominators)
    L = dset.generator
    ring = RationalFunctionField("t", L)
    t = ring.generator
    ctx = QContext(ring, t)
    roots = {n: t ** Fraction(1, n) for n in dset.closure}
    return build_root_system(ctx, dset, roots)


def induced_root_system(sys: RootSystem, r1) -> RootSystem:
    """Root system for q' = q^{r1} on the sub-grid of denominators that stay covered.

    Used by the product law (r1*r2)_q = (r1)_q * (r2)_{q^{r1}}: the second
    factor is a rational q-state for the induced system.
    """
    r1 = Fraction(r1)
    kept = {}
    for n in sys.dset.closure:
        try:
            kept[n] = rational_power(sys, r1 / n)
        except DenominatorNotCoveredError:
            continue
    # the covered n are lcm-closed: v_p of the denominator of r1/n is
    # monotone in v_p(n), and the closure of sys is lcm-closed
    if 1 not in kept:
        raise DenominatorNotCoveredError(f"q^{r1} has no covered root system")
    dset = DenominatorSet(frozenset(kept), tuple(sorted(kept)), max(kept))
    qprime = rational_power(sys, r1)
    ctx = QContext(sys.ctx.ring, qprime)
    return build_root_system(ctx, dset, kept)
