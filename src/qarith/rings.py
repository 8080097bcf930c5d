"""Pluggable exact ring arithmetic with canonical normal forms.

Every ring kind stores its elements in a single normal form, so payload
equality is ring equality and every operation returns a normalized result:

* ``Z``            -- plain int
* ``Q``            -- Fraction
* ``Z/n``          -- residue in [0, n)
* ``Z[i]``         -- pair (a, b) for a + b*i
* ``R[x]``         -- tuple of base payloads, constant first, no trailing zeros
* ``Z[t,1/t]``     -- sorted tuple of (exponent, coefficient), coefficients nonzero
* ``Q(t)``         -- pair (num, den) of integer polynomial tuples; num/den coprime,
                      contents coprime, den has positive leading coefficient;
                      ``normalize`` runs a full gcd, arithmetic follows Henrici
* ``B[x]/(mu)``    -- residue vector of degree < deg mu (mu needs a unit leading
                      coefficient so remainder division is defined over B = Z/n, Q
                      or Z)
* ``Cyclo(p)``     -- the ``B[x]/(mu)`` with B = Z, x = t and mu = chi_p: integer
                      residue vector of degree < deg chi_p
* ``Q(t^(1/L))``   -- a ``Q(t)`` payload in s = t^(1/L)

Dense polynomials over any base are tuples of base payloads, constant first,
with no trailing zeros.  The ``dense_*`` functions are the one place that
loops over them: ``dense_strip``, ``dense_add``, ``dense_neg``,
``dense_mul``, ``dense_divmod`` (remainder division by a unit leading
coefficient), ``dense_euclid`` (extended Euclid over a field) and
``dense_scale``.  ``PolynomialRing``, ``QuotientRing``, the inverse in
``Cyclo(p)`` and the dense path of ``twisted`` all use them.  Over an exact
``IntegerRing`` base ``dense_add`` and ``dense_mul`` hand the tuples to the
integer kernel ``zpoly``, which ``Cyclo(p)`` (``zpoly.mul`` and
``zpoly.reduce_cyclotomic``) and ``Q(t)`` (numerators and denominators) use
directly; see ``zpoly`` for how it multiplies.  The sparse
(exponent, coefficient) payloads of ``Z[t,1/t]`` and ``TwistedAlgebra`` use
``sparse_normalize``, ``sparse_add``, ``sparse_neg`` and ``sparse_mul``,
which differ between the two only in how exponents are checked and added.
``normalize`` takes integer entries (and sparse exponents) with ``as_int``,
so 1.5 or Fraction(7, 2) raises DomainError rather than being truncated.

Elements are immutable; all operations are pure and safe to share across
threads.  Arithmetic on elements of different rings raises RingMismatchError.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import ntheory, zpoly
from .cyclotomic import cyclotomic_poly
from .errors import (
    DomainError,
    InternalError,
    NotInvertibleError,
    RingMismatchError,
    UnsupportedError,
)

def as_int(x):
    """x as an int, for ints and other integer types; DomainError otherwise."""
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"{x!r} is not an integer") from None


def _qalg_torsion_bound(n):
    """Largest possible order of a root of unity in a Q-algebra of dimension n.

    If q^m = 1 then Q[q] is a product of cyclotomic fields Q(zeta_d) with
    lcm of the d equal to the order of q and total degree at most n.
    """
    if n > 16:
        return None
    cands = [m for m in range(1, 2 * n * n + 3) if ntheory.totient(m) <= n]
    best = {1: 0}
    for c in cands:
        phi = ntheory.totient(c)
        for l, cost in sorted(best.items()):
            nl = l * c // math.gcd(l, c)
            nc = cost + phi
            if nc <= n and best.get(nl, n + 1) > nc:
                best[nl] = nc
    return max(best)


# ---------------------------------------------------------------------------
# element wrapper
# ---------------------------------------------------------------------------


class RingElement:
    """An element of a Ring, kept in that ring's normal form."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        self.ring = ring
        self.payload = payload

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatchError(
                    f"elements of {self.ring} and {other.ring} cannot be combined"
                )
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RingElement(self.ring, self.ring._add(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg(self.payload))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RingElement(self.ring, self.ring._add(self.payload, self.ring._neg(other.payload)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RingElement(self.ring, self.ring._mul(self.payload, other.payload))

    __rmul__ = __mul__

    def __pow__(self, n):
        if isinstance(n, Fraction):
            if n.denominator == 1:
                n = int(n)
            else:
                return RingElement(self.ring, self.ring._frac_pow(self.payload, n))
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        acc = self.ring.one
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def try_invert(self):
        """Multiplicative inverse, or None when this element is not a unit."""
        inv = self.ring._invert(self.payload)
        if inv is None:
            return None
        return RingElement(self.ring, inv)

    def inverse(self):
        inv = self.try_invert()
        if inv is None:
            raise NotInvertibleError(f"{self} is not a unit of {self.ring}")
        return inv

    def is_zero(self):
        return self.payload == self.ring._zero()

    def is_one(self):
        return self.payload == self.ring._one()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, RingElement):
            same = other.ring is self.ring or other.ring == self.ring
            return same and self.payload == other.payload
        if isinstance(other, int):
            return self.payload == self.ring._from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.descriptor(), self.payload))

    def __str__(self):
        return self.ring._text(self.payload)

    def __repr__(self):
        return self.ring._text(self.payload)


# ---------------------------------------------------------------------------
# ring base class
# ---------------------------------------------------------------------------


class Ring:
    """Base class: structural flags plus the payload-level operation protocol."""

    finite = False
    cardinality = None
    is_domain = False
    is_field = False
    torsion_free = False  # additive group has no Z-torsion
    commutative = True
    characteristic = 0

    # --- payload protocol (subclasses implement) ---

    def normalize(self, payload):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _invert(self, a):
        raise NotImplementedError

    def _annihilator(self, a):
        """A nonzero b with a*b = 0, or None when a is a unit; finite rings only."""
        raise UnsupportedError(f"annihilators over {self} are not supported")

    def _zero(self):
        raise NotImplementedError

    def _one(self):
        raise NotImplementedError

    def _from_int(self, n):
        raise NotImplementedError

    def _text(self, a):
        raise NotImplementedError

    def _frac_pow(self, a, r):
        raise DomainError(f"{self} does not support fractional powers")

    def descriptor(self):
        raise NotImplementedError

    # --- public element API ---

    @property
    def zero(self):
        return RingElement(self, self._zero())

    @property
    def one(self):
        return RingElement(self, self._one())

    def element(self, payload):
        return RingElement(self, self.normalize(payload))

    def from_int(self, n):
        return RingElement(self, self._from_int(n))

    @property
    def generator(self):
        """Distinguished element used as the default q, if the ring has one."""
        return None

    def atoms(self):
        """Named atoms available to the element parser."""
        return {}

    def payloads(self):
        raise UnsupportedError(f"{self} is not enumerable")

    def elements(self):
        """Every element exactly once; finite rings only, starting 0, 1."""
        for p in self.payloads():
            yield RingElement(self, p)

    def random_element(self, rng):
        raise NotImplementedError

    def is_unit(self, a):
        return self._invert(a.payload if isinstance(a, RingElement) else a) is not None

    def root_of_unity_order_bound(self):
        """Upper bound for orders of roots of unity in this ring, or None."""
        return None

    def __eq__(self, other):
        return isinstance(other, Ring) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return self._name()

    def __str__(self):
        return self._name()

    def _name(self):
        raise NotImplementedError


class IntegerRing(Ring):
    """The ring of integers."""

    is_domain = True
    torsion_free = True

    def normalize(self, payload):
        return as_int(payload)

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _invert(self, a):
        return a if a in (1, -1) else None

    def _zero(self):
        return 0

    def _one(self):
        return 1

    def _from_int(self, n):
        return n

    def _text(self, a):
        return str(a)

    def descriptor(self):
        return ("Z",)

    def _name(self):
        return "Z"

    def random_element(self, rng):
        return RingElement(self, rng.randint(-30, 30))

    def root_of_unity_order_bound(self):
        return 2


class RationalField(Ring):
    """The field of rational numbers (coefficient carrier for Q[x], Q(t))."""

    is_domain = True
    is_field = True
    torsion_free = True

    def normalize(self, payload):
        return Fraction(payload)

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _invert(self, a):
        return None if a == 0 else 1 / a

    def _zero(self):
        return Fraction(0)

    def _one(self):
        return Fraction(1)

    def _from_int(self, n):
        return Fraction(n)

    def _text(self, a):
        return str(a)

    def descriptor(self):
        return ("Q",)

    def _name(self):
        return "Q"

    def random_element(self, rng):
        return RingElement(self, Fraction(rng.randint(-20, 20), rng.randint(1, 12)))

    def root_of_unity_order_bound(self):
        return 2


class ModularRing(Ring):
    """Z/nZ with residues in [0, n).

    The factors of n and of Carmichael's lambda(n) are computed on first
    use and kept; a modulus that resists ``ntheory.factorize`` raises
    UnsupportedError from every method that needs them.
    """

    finite = True

    def __init__(self, n):
        if n < 2:
            raise DomainError("modulus must be >= 2")
        self.n = n
        self.cardinality = n
        self.characteristic = n
        self._factors = None
        self._lambda = None

    def normalize(self, payload):
        return as_int(payload) % self.n

    def _add(self, a, b):
        s = a + b
        return s - self.n if s >= self.n else s

    def _neg(self, a):
        return 0 if a == 0 else self.n - a

    def _mul(self, a, b):
        return a * b % self.n

    def _invert(self, a):
        return pow(a, -1, self.n) if math.gcd(a, self.n) == 1 else None

    def _annihilator(self, a):
        g = math.gcd(a, self.n)
        return None if g == 1 else self.n // g

    def factors(self):
        """{p: e} with n = prod p^e."""
        return _memo(self, "_factors", lambda: ntheory.factorize(self.n))

    def unit_order(self, a):
        """Multiplicative order of the unit a, from the factored lambda(n)."""

        def carmichael():
            lam = ntheory.carmichael(self.factors())
            return lam, tuple(ntheory.factorize(lam))

        lam, primes = _memo(self, "_lambda", carmichael)
        return ntheory.multiplicative_order(a, self.n, lam, primes)

    def _zero(self):
        return 0

    def _one(self):
        return 1 % self.n

    def _from_int(self, n):
        return n % self.n

    def _text(self, a):
        return str(a)

    def descriptor(self):
        return ("Z/", self.n)

    def _name(self):
        return f"Z/{self.n}"

    def payloads(self):
        return range(self.n)

    def random_element(self, rng):
        return RingElement(self, rng.randrange(self.n))


def _memo(ring, attr, compute):
    """compute() once per ring, kept in ``ring.<attr>``; an UnsupportedError
    is kept too and raised again on every later call."""
    value = getattr(ring, attr)
    if value is None:
        try:
            value = compute()
        except UnsupportedError as exc:
            value = exc
        setattr(ring, attr, value)
    if isinstance(value, UnsupportedError):
        raise UnsupportedError(str(value))
    return value


class GaussianRing(Ring):
    """Gaussian integers Z[i] as pairs (a, b) = a + b*i."""

    is_domain = True
    torsion_free = True

    def normalize(self, payload):
        a, b = payload
        return (as_int(a), as_int(b))

    def _add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def _neg(self, x):
        return (-x[0], -x[1])

    def _mul(self, x, y):
        a, b = x
        c, d = y
        return (a * c - b * d, a * d + b * c)

    def _invert(self, x):
        a, b = x
        if a * a + b * b != 1:
            return None
        return (a, -b)

    def _zero(self):
        return (0, 0)

    def _one(self):
        return (1, 0)

    def _from_int(self, n):
        return (n, 0)

    def _text(self, x):
        a, b = x
        if b == 0:
            return str(a)
        ib = "i" if abs(b) == 1 else f"{abs(b)}*i"
        if a == 0:
            return ib if b > 0 else f"-{ib}"
        return f"{a}+{ib}" if b > 0 else f"{a}-{ib}"

    def descriptor(self):
        return ("Z[i]",)

    def _name(self):
        return "Z[i]"

    @property
    def generator(self):
        return RingElement(self, (0, 1))

    def atoms(self):
        return {"i": (0, 1)}

    def random_element(self, rng):
        return RingElement(self, (rng.randint(-9, 9), rng.randint(-9, 9)))

    def root_of_unity_order_bound(self):
        return 4


# ---------------------------------------------------------------------------
# term formatting shared by all polynomial-like kinds
# ---------------------------------------------------------------------------


def _fmt_exp(e):
    if isinstance(e, Fraction):
        if e.denominator == 1:
            e = int(e)
        else:
            return f"({e.numerator}/{e.denominator})"
    return str(e)


def _power(var, e):
    """var^e as monomial text; empty for e = 0."""
    if not e:
        return ""
    return var if e == 1 else f"{var}^{_fmt_exp(e)}"


def _signed_coeff(base, c):
    """(negated?, magnitude text) for a coefficient; negation done on the payload."""
    cs = base._text(c)
    if cs.startswith("-"):
        return True, base._text(base._neg(c))
    return False, cs


def _fmt_terms(terms):
    """terms: iterable of (monomial text, negated?, magnitude text) in print
    order; the constant term has the empty monomial."""
    parts = []
    for mono, neg, mag in terms:
        if "+" in mag or "-" in mag:
            mag = f"({mag})"
        if not mono:
            body = mag
        else:
            body = mono if mag == "1" else f"{mag}*{mono}"
        parts.append((neg, body))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] else "") + parts[0][1]
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


# ---------------------------------------------------------------------------
# dense polynomials over any base: tuples of base payloads, constant first,
# no trailing zeros
# ---------------------------------------------------------------------------


def dense_strip(base, cs):
    """The list cs of base payloads as a tuple without trailing zeros."""
    z = base._zero()
    while cs and cs[-1] == z:
        cs.pop()
    return tuple(cs)


def dense_add(base, a, b):
    """a + b; over Z by the integer kernel."""
    if type(base) is IntegerRing:
        return zpoly.add(a, b)
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    add = base._add
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return dense_strip(base, out)


def dense_neg(base, a):
    """-a."""
    neg = base._neg
    return tuple(neg(c) for c in a)


def dense_mul(base, a, b):
    """a * b over a commutative base: the integer kernel over Z, else a
    schoolbook loop on the base payload ops that skips zero coefficients."""
    if type(base) is IntegerRing:
        return zpoly.mul(a, b)
    if not a or not b:
        return ()
    z = base._zero()
    out = [z] * (len(a) + len(b) - 1)
    nz_a = sum(1 for c in a if c != z)
    nz_b = sum(1 for c in b if c != z)
    if nz_b < nz_a:
        a, b = b, a
    mul, add = base._mul, base._add
    for i, c in enumerate(a):
        if c != z:
            for j, d in enumerate(b):
                if d != z:
                    out[i + j] = add(out[i + j], mul(c, d))
    return dense_strip(base, out)


def dense_divmod(base, a, b):
    """(q, r) with a = q*b + r and deg r < deg b; the leading coefficient of
    b must be a unit of base."""
    inv = base._invert(b[-1])
    if inv is None:
        raise UnsupportedError("division requires a unit leading coefficient")
    z = base._zero()
    r = list(a)
    q = [z] * max(0, len(a) - len(b) + 1)
    while len(r) >= len(b):
        if r[-1] == z:
            r.pop()
            continue
        c = base._mul(r[-1], inv)
        k = len(r) - len(b)
        q[k] = c
        for j, d in enumerate(b):
            r[k + j] = base._add(r[k + j], base._neg(base._mul(c, d)))
        r.pop()
    return dense_strip(base, q), dense_strip(base, r)


def dense_euclid(base, a, m):
    """(g, s) with g = gcd(a, m) up to a unit and s*a = g modulo m, over the
    field base; a and m nonzero."""
    r0, s0 = m, ()
    r1, s1 = a, (base._one(),)
    while r1:
        q, r = dense_divmod(base, r0, r1)
        s0, s1 = s1, dense_add(base, s0, dense_neg(base, dense_mul(base, q, s1)))
        r0, r1 = r1, r
    return r0, s0


def dense_scale(base, cs, c):
    """cs / c, for a unit c of base."""
    inv = base._invert(c)
    mul = base._mul
    return tuple(mul(d, inv) for d in cs)


# ---------------------------------------------------------------------------
# sparse polynomials: tuples of (exponent, coefficient) sorted by exponent,
# no repeated exponent, no zero coefficient
# ---------------------------------------------------------------------------


def _sparse_sum(base, acc, terms):
    """Add the (exponent, coefficient) terms into the dict acc and return its
    nonzero entries as a tuple sorted by exponent."""
    add = base._add
    for e, c in terms:
        acc[e] = add(acc[e], c) if e in acc else c
    z = base._zero()
    return tuple((e, c) for e, c in sorted(acc.items()) if c != z)


def sparse_normalize(base, payload, exponent):
    """Normal form of any iterable of (exponent, coefficient) pairs;
    exponent(e) checks and converts each exponent."""
    norm = base.normalize
    return _sparse_sum(base, {}, ((exponent(e), norm(c)) for e, c in payload))


def sparse_add(base, a, b):
    """a + b."""
    return _sparse_sum(base, dict(a), b)


def sparse_neg(base, a):
    """-a; negation keeps coefficients nonzero and exponents sorted."""
    neg = base._neg
    return tuple((e, neg(c)) for e, c in a)


def sparse_mul(base, a, b, add_exps):
    """a * b over a commutative base; add_exps(e1, e2) is the exponent of
    the product of two monomials."""
    acc = {}
    mul, add = base._mul, base._add
    for e1, c1 in a:
        for e2, c2 in b:
            e = add_exps(e1, e2)
            p = mul(c1, c2)
            acc[e] = add(acc[e], p) if e in acc else p
    return _sparse_sum(base, acc, ())


class PolynomialRing(Ring):
    """Univariate polynomials over a base ring, dense payload tuples."""

    def __init__(self, base, var="t"):
        if not base.commutative:
            raise DomainError("polynomial base must be commutative")
        self.base = base
        self.var = var
        self.is_domain = base.is_domain
        self.torsion_free = base.torsion_free
        self.characteristic = base.characteristic

    def normalize(self, payload):
        return dense_strip(self.base, [self.base.normalize(c) for c in payload])

    def _add(self, a, b):
        return dense_add(self.base, a, b)

    def _neg(self, a):
        return dense_neg(self.base, a)

    def _mul(self, a, b):
        return dense_mul(self.base, a, b)

    def _invert(self, a):
        if not a:
            return None
        if len(a) == 1:
            inv = self.base._invert(a[0])
            return None if inv is None else (inv,)
        if self.base.is_domain:
            return None
        raise UnsupportedError(
            f"unit detection for nonconstant polynomials over {self.base} is not supported"
        )

    def _zero(self):
        return ()

    def _one(self):
        return (self.base._one(),)

    def _from_int(self, n):
        c = self.base._from_int(n)
        return () if c == self.base._zero() else (c,)

    def degree(self, a):
        return len(a) - 1

    def _text(self, a):
        base = self.base
        z = base._zero()
        return _fmt_terms([(_power(self.var, e), *_signed_coeff(base, c)) for e, c in enumerate(a) if c != z])

    def descriptor(self):
        return ("poly", self.base.descriptor(), self.var)

    def _name(self):
        return f"{self.base}[{self.var}]"

    @property
    def generator(self):
        return RingElement(self, (self.base._zero(), self.base._one()))

    def atoms(self):
        return {self.var: (self.base._zero(), self.base._one())}

    def random_element(self, rng):
        deg = rng.randint(-1, 4)
        cs = [self.base.random_element(rng).payload for _ in range(deg + 1)]
        return self.element(tuple(cs))

    def root_of_unity_order_bound(self):
        # units of a polynomial ring over a domain are the base units
        return self.base.root_of_unity_order_bound() if self.base.is_domain else None


class LaurentRing(Ring):
    """Laurent polynomials over a domain: sparse (exponent, coefficient) pairs."""

    def __init__(self, base, var="t"):
        if not base.is_domain:
            raise DomainError("Laurent base must be an integral domain")
        self.base = base
        self.var = var
        self.is_domain = True
        self.torsion_free = base.torsion_free
        self.characteristic = base.characteristic

    def normalize(self, payload):
        return sparse_normalize(self.base, payload, as_int)

    def _add(self, a, b):
        return sparse_add(self.base, a, b)

    def _neg(self, a):
        return sparse_neg(self.base, a)

    def _mul(self, a, b):
        return sparse_mul(self.base, a, b, operator.add)

    def _invert(self, a):
        if len(a) != 1:
            return None
        e, c = a[0]
        inv = self.base._invert(c)
        return None if inv is None else ((-e, inv),)

    def _zero(self):
        return ()

    def _one(self):
        return ((0, self.base._one()),)

    def _from_int(self, n):
        c = self.base._from_int(n)
        return () if c == self.base._zero() else ((0, c),)

    def _text(self, a):
        base = self.base
        return _fmt_terms([(_power(self.var, e), *_signed_coeff(base, c)) for e, c in a])

    def descriptor(self):
        return ("laurent", self.base.descriptor(), self.var)

    def _name(self):
        return f"{self.base}[{self.var},1/{self.var}]"

    @property
    def generator(self):
        return RingElement(self, ((1, self.base._one()),))

    def atoms(self):
        return {self.var: ((1, self.base._one()),)}

    def random_element(self, rng):
        n_terms = rng.randint(0, 4)
        pairs = [
            (rng.randint(-3, 3), self.base.random_element(rng).payload)
            for _ in range(n_terms)
        ]
        return self.element(tuple(pairs))

    def root_of_unity_order_bound(self):
        return self.base.root_of_unity_order_bound()


def _cancel_content(num, den):
    """num/den with the gcd of the two integer contents divided out."""
    c = math.gcd(*num, *den)
    if c == 1:
        return (num, den)
    return (tuple(x // c for x in num), tuple(x // c for x in den))


class RationalFunctionField(Ring):
    """Q(t), or Q(t^(1/L)) carried as rational functions in s = t^(1/L).

    Payload (num, den): integer polynomial tuples in s with gcd(num, den) = 1,
    coprime contents, and positive leading coefficient in den.

    Only ``normalize`` (outside payloads) runs the full ``_norm``: both
    primitive parts, their gcd and the gcd of the contents.  Arithmetic on
    two normal forms follows Henrici (Knuth, TAOCP vol. 2, 4.5.1) and takes
    a ``zpoly.gcd`` only where a factor can cancel:

    * ``_mul``: none when both denominators are 1; otherwise gcd(n1, d2) and
      gcd(n2, d1), divided out before multiplying;
    * ``_add``: none when a denominator is 1, since a factor common to
      n1*d2 + n2 and d2 would divide n2; otherwise g = gcd(d1, d2) and,
      when g != 1, h = gcd(n1*(d2/g) + n2*(d1/g), g), since the numerator is
      prime to d1/g and d2/g;
    * ``_invert``: none; it swaps num and den and moves the sign.

    ``zpoly.gcd`` is primitive, so ``_mul`` and ``_add`` finish by dividing
    out the gcd of the two integer contents (``_cancel_content``).
    """

    is_domain = True
    is_field = True
    torsion_free = True

    def __init__(self, var="t", denominator=1):
        if denominator < 1:
            raise DomainError("exponent denominator must be >= 1")
        self.var = var
        self.denominator = denominator

    def _norm(self, num, den):
        num, den = zpoly.strip(num), zpoly.strip(den)
        if not den:
            raise DomainError("zero denominator")
        if not num:
            return ((), (1,))
        an, P = zpoly.prim(num)
        ad, Q = zpoly.prim(den)
        G = zpoly.gcd(P, Q)
        if len(G) > 1:
            P = zpoly.divexact(P, G)
            Q = zpoly.divexact(Q, G)
        g = math.gcd(an, ad)
        an //= g
        ad //= g
        if ad < 0:
            an, ad = -an, -ad
        return (zpoly.scale(P, an), zpoly.scale(Q, ad))

    def normalize(self, payload):
        if isinstance(payload, tuple) and len(payload) == 2 and (
            not payload or isinstance(payload[0], tuple)
        ):
            num, den = payload
        else:
            num, den = payload, (1,)
        return self._norm(tuple(map(as_int, num)), tuple(map(as_int, den)))

    def _add(self, x, y):
        n1, d1 = x
        n2, d2 = y
        if d2 == (1,):
            n1, d1, n2, d2 = n2, d2, n1, d1
        if d1 == (1,):
            # a common factor of n1*d2 + n2 and d2 would divide n2
            return (zpoly.add(zpoly.mul(n1, d2), n2), d2)
        g = zpoly.gcd(d1, d2)
        e1, e2 = (d1, d2) if g == (1,) else (zpoly.divexact(d1, g), zpoly.divexact(d2, g))
        num = zpoly.add(zpoly.mul(n1, e2), zpoly.mul(n2, e1))
        if not num:
            return ((), (1,))
        if g != (1,):
            # num is prime to e1 and e2, so only a factor of g can cancel
            h = zpoly.gcd(num, g)
            if h != (1,):
                num, d2 = zpoly.divexact(num, h), zpoly.divexact(d2, h)
        return _cancel_content(num, zpoly.mul(e1, d2))

    def _neg(self, x):
        return (zpoly.neg(x[0]), x[1])

    def _mul(self, x, y):
        n1, d1 = x
        n2, d2 = y
        if not n1 or not n2:
            return ((), (1,))
        if d1 == (1,) and d2 == (1,):
            return (zpoly.mul(n1, n2), d1)
        g1, g2 = zpoly.gcd(n1, d2), zpoly.gcd(n2, d1)
        if g1 != (1,):
            n1, d2 = zpoly.divexact(n1, g1), zpoly.divexact(d2, g1)
        if g2 != (1,):
            n2, d1 = zpoly.divexact(n2, g2), zpoly.divexact(d1, g2)
        return _cancel_content(zpoly.mul(n1, n2), zpoly.mul(d1, d2))

    def _invert(self, x):
        num, den = x
        if not num:
            return None
        if num[-1] < 0:
            return (zpoly.neg(den), zpoly.neg(num))
        return (den, num)

    def _zero(self):
        return ((), (1,))

    def _one(self):
        return ((1,), (1,))

    def _from_int(self, n):
        return (((n,) if n else ()), (1,))

    def _poly_text(self, cs):
        L = self.denominator
        return _fmt_terms(
            [(_power(self.var, e if L == 1 else Fraction(e, L)), c < 0, str(abs(c)))
             for e, c in enumerate(cs) if c]
        )

    def _text(self, x):
        num, den = x
        if den == (1,):
            return self._poly_text(num)
        if num and num[-1] < 0:
            return "-" + self._text((zpoly.neg(num), den))
        ns = self._poly_text(num)
        if " + " in ns or " - " in ns:
            ns = f"({ns})"
        ds = self._poly_text(den)
        bare = zpoly.mono(den) is not None and (len(den) == 1 or den[-1] == 1)
        if not bare or " " in ds or "*" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def descriptor(self):
        return ("fracfield", self.var, self.denominator)

    def _name(self):
        if self.denominator == 1:
            return f"Q({self.var})"
        return f"Q({self.var}^(1/{self.denominator}))"

    @property
    def generator(self):
        """The element t (equal to s^L when L > 1)."""
        return RingElement(self, ((0,) * self.denominator + (1,), (1,)))

    def atoms(self):
        return {self.var: self.generator.payload}

    def _frac_pow(self, x, r):
        num, den = x
        mn, md = zpoly.mono(num), zpoly.mono(den)
        if mn is None or md is None or mn[1] != 1 or md[1] != 1:
            raise DomainError("fractional powers only of monomials t^k")
        e = (mn[0] - md[0]) * r
        if e.denominator != 1:
            raise DomainError(f"exponent {e} is not covered by denominator {self.denominator}")
        e = int(e)
        if e >= 0:
            return ((0,) * e + (1,), (1,))
        return ((1,), (0,) * (-e) + (1,))

    def random_element(self, rng):
        num = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 4)))
        den = ()
        while not zpoly.strip(den):
            den = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 3)))
        return self.element((num, den))

    def root_of_unity_order_bound(self):
        return 2


def _mod_p(cs, p):
    return zpoly.strip(c % p for c in cs)


class QuotientRing(Ring):
    """B[x]/(mu) for B = Z/n or Q, or B = Z with a monic mu; mu nonconstant
    with unit leading coefficient.

    Units and annihilators are decided by extended Euclid over a field: over
    Q directly, over Z/n modulo each prime p | n, where v is a unit exactly
    when gcd(v mod p, mu mod p) = 1 for every p.  Inverses modulo the primes
    are joined by CRT and lifted to Z/n by Newton steps; a zero divisor v
    with g = gcd(v, mu) != 1 modulo p is killed by (n/p) * (mu/g).  Nothing
    enumerates the ring, but n must factor (``ModularRing.factors``).  Over
    Z only ``CyclotomicRing`` decides units; any other quotient over Z raises
    UnsupportedError.
    """

    def __init__(self, polyring, modulus):
        if not isinstance(polyring, PolynomialRing):
            raise DomainError("quotient base must be a polynomial ring")
        if isinstance(modulus, RingElement):
            if modulus.ring != polyring:
                raise RingMismatchError("modulus must live in the quotient's polynomial ring")
            modulus = modulus.payload
        modulus = polyring.normalize(modulus)
        if len(modulus) < 2:
            raise DomainError("modulus must be nonconstant")
        if polyring.base._invert(modulus[-1]) is None:
            raise DomainError("modulus needs a unit leading coefficient")
        self.polyring = polyring
        self.base = polyring.base
        self.modulus = modulus
        if self.base.finite:
            self.finite = True
            self.cardinality = self.base.cardinality ** (len(modulus) - 1)
        self.torsion_free = self.base.torsion_free
        self.characteristic = self.base.characteristic
        self._fields = None

    def normalize(self, payload):
        _, r = dense_divmod(self.base, self.polyring.normalize(payload), self.modulus)
        return r

    def _add(self, a, b):
        return dense_add(self.base, a, b)

    def _neg(self, a):
        return dense_neg(self.base, a)

    def _mul(self, a, b):
        prod = dense_mul(self.base, a, b)
        if len(prod) < len(self.modulus):
            return prod
        _, r = dense_divmod(self.base, prod, self.modulus)
        return r

    def _invert(self, a):
        if not a:
            return None
        if self.base.is_field:
            g, s = dense_euclid(self.base, a, self.modulus)
            return None if len(g) > 1 else self.normalize(dense_scale(self.base, s, g[0]))
        # Z/n: a unit modulo every prime p | n, then CRT to rad(n) and Newton
        # steps x <- x(2 - ax), each squaring the error 1 - ax, up to n
        parts = []
        for p, fp, mu_p, crt in self._residue_fields():
            g, s = dense_euclid(fp, _mod_p(a, p), mu_p)
            if len(g) > 1:
                return None
            parts.append((dense_scale(fp, s, g[0]), crt))
        x = self.normalize(
            tuple(sum(s[i] * crt for s, crt in parts if i < len(s)) for i in range(len(self.modulus) - 1))
        )
        one, two = self._one(), self._from_int(2)
        for _ in range(self.base.n.bit_length()):
            ax = self._mul(a, x)
            if ax == one:
                return x
            x = self._mul(x, self._add(two, self._neg(ax)))
        raise InternalError(f"Newton lifting of an inverse in {self} did not converge")

    def _annihilator(self, a):
        # a is a zero divisor iff g = gcd(a, mu) != 1 modulo some prime p | n;
        # then (mu/g) kills a modulo p, and n/p times it kills a modulo n
        for p, fp, mu_p, _ in self._residue_fields():
            g, _ = dense_euclid(fp, _mod_p(a, p), mu_p)
            if len(g) > 1:
                h, _ = dense_divmod(fp, mu_p, g)
                return self.normalize(tuple(self.base.n // p * c for c in h))
        return None

    def _residue_fields(self):
        """(p, Z/p, mu mod p, CRT idempotent of p mod rad(n)) for each prime p | n."""

        def fields():
            if not isinstance(self.base, ModularRing):
                raise UnsupportedError(f"units and annihilators over {self} need a base Z/n or a field")
            primes = list(self.base.factors())
            rad = math.prod(primes)
            return [
                (p, ModularRing(p), _mod_p(self.modulus, p), rad // p * pow(rad // p, -1, p))
                for p in primes
            ]

        return _memo(self, "_fields", fields)

    def _zero(self):
        return ()

    def _one(self):
        return self.polyring._one()

    def _from_int(self, n):
        return self.polyring._from_int(n)

    def _text(self, a):
        return self.polyring._text(a)

    def descriptor(self):
        return ("quot", self.polyring.descriptor(), self.modulus)

    def _name(self):
        return f"{self.base}[{self.polyring.var}]/({self.polyring._text(self.modulus)})"

    @property
    def generator(self):
        return RingElement(self, self.normalize((self.base._zero(), self.base._one())))

    def atoms(self):
        return {self.polyring.var: self.normalize((self.base._zero(), self.base._one()))}

    def payloads(self):
        if not self.finite:
            raise UnsupportedError(f"{self} is not enumerable")
        d = len(self.modulus) - 1
        base_payloads = list(self.base.payloads())
        n = len(base_payloads)
        for idx in range(self.cardinality):
            cs = []
            v = idx
            for _ in range(d):
                cs.append(base_payloads[v % n])
                v //= n
            yield dense_strip(self.base, cs)

    def random_element(self, rng):
        d = len(self.modulus) - 1
        return self.element(tuple(self.base.random_element(rng).payload for _ in range(d)))

    def root_of_unity_order_bound(self):
        if self.base == RationalField():
            return _qalg_torsion_bound(len(self.modulus) - 1)
        return None


class CyclotomicRing(QuotientRing):
    """Cyclo(p) = Z[t]/(chi_p), where t is a primitive p-th root of unity.

    A ``QuotientRing`` over ``PolynomialRing(ZZ, "t")`` with modulus chi_p;
    it inherits everything but its integer kernels.
    """

    is_domain = True

    def __init__(self, p):
        if p < 2:
            raise DomainError("cyclotomic quotient index must be >= 2")
        self.p = p
        super().__init__(PolynomialRing(ZZ, "t"), cyclotomic_poly(p))

    def _reduce(self, cs):
        return zpoly.reduce_cyclotomic(cs, self.p, self.modulus)

    # These three kernels override QuotientRing's for two reasons: _mul folds
    # modulo t^p - 1 first (``reduce_cyclotomic``), where the generic
    # ``dense_divmod`` would cost O(deg^2) per product; and the perfbench
    # tracer wraps each ring kind's own _add, _mul and _invert.
    def _add(self, a, b):
        return zpoly.add(a, b)

    def _mul(self, a, b):
        return self._reduce(zpoly.mul(a, b))

    def _invert(self, a):
        if not a:
            return None
        # Bezout over Q[t] against the (irreducible) modulus; the inverse is a
        # unit of Z[t]/chi_p exactly when its field inverse has integer coords
        g, s = dense_euclid(QQ, tuple(map(Fraction, a)), tuple(map(Fraction, self.modulus)))
        if len(g) != 1:
            return None
        inv = dense_scale(QQ, s, g[0])
        if any(c.denominator != 1 for c in inv):
            return None
        return self._reduce([int(c) for c in inv])

    def _name(self):
        return f"Cyclo({self.p})"

    def root_of_unity_order_bound(self):
        # torsion units of Z[zeta_p] are +-zeta_p^j
        return 2 * self.p


# canonical shared instances
ZZ = IntegerRing()
QQ = RationalField()
ZI = GaussianRing()


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def try_invert(x):
    """Inverse of x, or None when x is not a unit (a value, not an error)."""
    return x.try_invert()


def enumerate_ring(ring):
    """Stream every element of a finite ring exactly once, starting 0, 1."""
    if not ring.finite:
        raise UnsupportedError(f"{ring} is infinite, enumeration unsupported")
    return ring.elements()


def is_zero_divisor(x):
    """True iff x != 0 and x*b = 0 for some b != 0."""
    ring = x.ring
    if x.is_zero():
        return False
    if ring.finite:
        return ring._annihilator(x.payload) is not None
    if ring.is_domain:
        return False
    raise UnsupportedError(f"zero-divisor test undecidable over {ring}")
