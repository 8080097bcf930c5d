"""Polynomial algebras with an endomorphism sigma, and twisted powers.

TwistedAlgebra is a multivariate polynomial ring over a commutative base with
sigma given by the images of the generators; sigma extends to the unique
base-algebra endomorphism, applied by substitution.  The n-th twisted power
of f is f * sigma(f) * ... * sigma^(n-1)(f), which specializes to ordinary
powers (sigma = id), falling/rising Pochhammer products (sigma(x) = x -+ 1),
and q-Pochhammer products (sigma(x) = q*x).

A univariate algebra whose sigma is affine, sigma(x) = q*x + h (read off the
generator's image when sigma is set, so ``univariate_affine``, a one-variable
``diagonal`` and a parsed image such as ``x-1`` all qualify), takes a dense
path.  sigma(f) is a Taylor shift of f's coefficients by h followed by
scaling coefficient i by q^i, O(d^2) base operations.  ``twisted_power``
splits by f^(a+b) = f^(a) * sigma^a(f^(b)) with
sigma^a(x) = q^a*x + (a)_q*h, so it makes O(log n) shifts and products
(``rings.dense_mul``, which hands Z coefficients to ``zpoly.mul``)
instead of n.  Multivariate and non-affine algebras substitute term by term
and apply the inductive rule.

For affine sigma(x) = q*x + h with q a unit, the twisted powers x^(0), x^(1),
... form a degree basis; ``expand_in_twisted_basis`` rewrites any univariate
polynomial in it (the Newton/Stirling transform for sigma(x) = x - 1) by
Newton division on the nodes of ``TwistedPowerBasis``, O(d^2) base
operations on the dense coefficient tuple.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

from . import ntheory
from .errors import (
    BasisUnavailableError,
    DomainError,
    EigenvectorError,
    InternalError,
    RingMismatchError,
    UnsupportedError,
)
from .qnum import QContext, _matrix_power, q_binomial, q_state
from .rings import (
    Ring, RingElement, _fmt_terms, _power, _signed_coeff, as_int, dense_mul, dense_strip,
    sparse_add, sparse_mul, sparse_neg, sparse_normalize,
)


class TwistedAlgebra(Ring):
    """R[x1,...,xg] with an endomorphism fixing R, as sparse exponent maps."""

    def __init__(self, base, gens):
        self.base = base
        self.gens = tuple(gens)
        if len(set(self.gens)) != len(self.gens):
            raise DomainError("duplicate generator names")
        self.is_domain = base.is_domain
        self.torsion_free = base.torsion_free
        self.characteristic = base.characteristic
        self._sigma = None
        self._affine = self._affine_of(self.sigma_images)

    # --- construction helpers ---

    @classmethod
    def univariate_affine(cls, base, q, h):
        """R[x] with sigma(x) = q*x + h."""
        if isinstance(q, int):
            q = base.from_int(q)
        if isinstance(h, int):
            h = base.from_int(h)
        alg = cls(base, ("x",))
        x = alg.gen("x")
        alg.set_sigma({"x": alg.scalar(q) * x + alg.scalar(h)})
        return alg

    @classmethod
    def diagonal(cls, base, scales):
        """R[gens] with sigma(x_i) = c_i * x_i for {name: c_i} in scales."""
        alg = cls(base, tuple(scales))
        images = {}
        for name, c in scales.items():
            if isinstance(c, int):
                c = base.from_int(c)
            images[name] = alg.scalar(c) * alg.gen(name)
        alg.set_sigma(images)
        return alg

    def set_sigma(self, images):
        """Fix sigma by generator images (set once; omitted generators are fixed)."""
        if self._sigma is not None:
            raise DomainError("sigma is already set")
        table = {}
        for name, img in images.items():
            if name not in self.gens:
                raise DomainError(f"unknown generator {name!r}")
            if isinstance(img, int):
                img = self.from_int(img)
            if img.ring != self:
                raise RingMismatchError("sigma images must live in the algebra")
            table[name] = img
        for name in self.gens:
            table.setdefault(name, self.gen(name))
        self._sigma = table
        self._affine = self._affine_of(table)
        return self

    def _affine_of(self, images):
        """(q, h) payloads with sigma(x) = q*x + h when the algebra is
        univariate and sigma affine on its generator, else None."""
        if len(self.gens) != 1:
            return None
        q = h = self.base._zero()
        for (e,), c in images[self.gens[0]].payload:
            if e == 1:
                q = c
            elif e == 0:
                h = c
            else:
                return None
        return q, h

    @property
    def sigma_images(self):
        if self._sigma is None:
            return {name: self.gen(name) for name in self.gens}
        return dict(self._sigma)

    def gen(self, name) -> RingElement:
        i = self.gens.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.gens)))
        return RingElement(self, ((exps, self.base._one()),))

    def scalar(self, c) -> RingElement:
        """Embed a base element as a constant."""
        if isinstance(c, int):
            return self.from_int(c)
        if c.ring != self.base:
            raise RingMismatchError("scalar must belong to the base ring")
        if c.payload == self.base._zero():
            return self.zero
        z = (0,) * len(self.gens)
        return RingElement(self, ((z, c.payload),))

    # --- sigma as substitution ---

    def substitute(self, f: RingElement, images) -> RingElement:
        """Evaluate f with each generator replaced by the given algebra element."""
        vals = []
        for name in self.gens:
            v = images.get(name)
            vals.append(self.gen(name) if v is None else v)
        pow_cache = [{0: self.one} for _ in vals]
        acc = self.zero
        for exps, c in f.payload:
            term = self.scalar(RingElement(self.base, c))
            for i, e in enumerate(exps):
                if e:
                    cache = pow_cache[i]
                    if e not in cache:
                        cache[e] = vals[i] ** e
                    term = term * cache[e]
            acc = acc + term
        return acc

    def sigma(self, f: RingElement) -> RingElement:
        if self._affine is None:
            return self.substitute(f, self.sigma_images)
        cs = self._sigma_dense(self._to_dense(f.payload), 1)
        return RingElement(self, self._from_dense(cs))

    def sigma_iter(self, f: RingElement, k: int) -> RingElement:
        if k < 0:
            raise DomainError("sigma iteration count must be >= 0")
        for _ in range(k):
            f = self.sigma(f)
        return f

    # --- univariate accessors ---

    def _to_dense(self, payload):
        """Coefficient tuple of a univariate payload, constant first."""
        if not payload:
            return ()
        cs = [self.base._zero()] * (payload[-1][0][0] + 1)
        for (e,), c in payload:
            cs[e] = c
        return tuple(cs)

    def _from_dense(self, cs):
        z = self.base._zero()
        return tuple(((i,), c) for i, c in enumerate(cs) if c != z)

    def _sigma_dense(self, cs, m):
        """sigma^m of a dense coefficient tuple, sigma affine: sigma^m(x) is
        q^m*x + (m)_q*h, so this is a Taylor shift by (m)_q*h (Horner's
        scheme, O(d^2) base operations), then coefficient i times q^(m*i)."""
        base = self.base
        add, mul = base._add, base._mul
        q, h = self._affine
        state, scale = _matrix_power(base, q, m)
        shift = mul(state, h)
        a = list(cs)
        if shift != base._zero():
            for i in range(len(a) - 1):
                for j in range(len(a) - 2, i - 1, -1):
                    a[j] = add(a[j], mul(shift, a[j + 1]))
        if scale != base._one():
            pw = scale
            for i in range(1, len(a)):
                a[i] = mul(a[i], pw)
                pw = mul(pw, scale)
        return dense_strip(base, a)

    def _require_univariate(self):
        if len(self.gens) != 1:
            raise DomainError("operation needs a univariate algebra")

    def degree(self, f: RingElement) -> int:
        self._require_univariate()
        if not f.payload:
            return -1
        return max(e[0] for e, _ in f.payload)

    def coefficient(self, f: RingElement, e: int) -> RingElement:
        self._require_univariate()
        for exps, c in f.payload:
            if exps[0] == e:
                return RingElement(self.base, c)
        return self.base.zero

    # --- ring payload protocol ---

    def normalize(self, payload):
        return sparse_normalize(self.base, payload, self._exponents)

    def _exponents(self, exps):
        exps = tuple(map(as_int, exps))
        if len(exps) != len(self.gens) or any(e < 0 for e in exps):
            raise DomainError("bad exponent vector")
        return exps

    def _add(self, a, b):
        return sparse_add(self.base, a, b)

    def _neg(self, a):
        return sparse_neg(self.base, a)

    def _mul(self, a, b):
        return sparse_mul(self.base, a, b, _add_exps)

    def _invert(self, a):
        if len(a) != 1 or any(a[0][0]):
            if not a:
                return None
            if self.base.is_domain:
                return None
            raise UnsupportedError("unit detection for nonconstant elements is unsupported")
        inv = self.base._invert(a[0][1])
        if inv is None:
            return None
        return ((a[0][0], inv),)

    def _zero(self):
        return ()

    def _one(self):
        return (((0,) * len(self.gens), self.base._one()),)

    def _from_int(self, n):
        c = self.base._from_int(n)
        if c == self.base._zero():
            return ()
        return (((0,) * len(self.gens), c),)

    def _text(self, a):
        terms = sorted(a, key=lambda ec: (sum(ec[0]), ec[0]))
        return _fmt_terms(
            ("*".join(_power(g, e) for g, e in zip(self.gens, exps) if e), *_signed_coeff(self.base, c))
            for exps, c in terms
        )

    def descriptor(self):
        # sigma is part of the algebra: the same generators under another
        # sigma give another ring, whose elements must not mix with these
        images = self.sigma_images
        return ("mpoly", self.base.descriptor(), self.gens, tuple(images[g].payload for g in self.gens))

    def _name(self):
        # name sigma unless it is the identity, so that algebras which
        # differ only in sigma print differently
        images = self.sigma_images
        moved = [f"sigma({g}) = {images[g]}" for g in self.gens if images[g] != self.gen(g)]
        name = f"{self.base}[{','.join(self.gens)}]"
        return f"{name} with {', '.join(moved)}" if moved else name

    def atoms(self):
        table = {name: self.gen(name).payload for name in self.gens}
        z = (0,) * len(self.gens)
        for name, bp in self.base.atoms().items():
            table.setdefault(name, ((z, bp),))
        return table

    def random_element(self, rng):
        n_terms = rng.randint(0, 3)
        pairs = []
        for _ in range(n_terms):
            exps = tuple(rng.randint(0, 2) for _ in self.gens)
            pairs.append((exps, self.base.random_element(rng).payload))
        return self.element(tuple(pairs))


def _add_exps(e1, e2):
    return tuple(map(operator.add, e1, e2))


def twisted_power(alg: TwistedAlgebra, f: RingElement, n: int, sigma_power: int = 1) -> RingElement:
    """f * s(f) * ... * s^(n-1)(f) for s = sigma^sigma_power.

    For an affine sigma(x) = q*x + h on a univariate algebra this splits in
    two, f^(a+b) = f^(a) * s^a(f^(b)), with s^a(x) = q^m*x + (m)_q*h for
    m = sigma_power * a: walking the bits of n takes O(log n) shifts and
    products of dense coefficient tuples (``rings.dense_mul``).  Any other
    sigma uses the inductive rule.
    """
    if n < 0:
        raise DomainError("twisted powers need n >= 0")
    if alg._affine is None or n == 0:
        acc = alg.one
        cur = f
        for _ in range(n):
            acc = acc * cur
            cur = alg.sigma_iter(cur, sigma_power)
        return acc
    if f.ring is not alg and f.ring != alg:
        raise RingMismatchError(f"elements of {alg} and {f.ring} cannot be combined")
    if sigma_power < 0:
        raise DomainError("sigma iteration count must be >= 0")
    base = alg.base
    first = alg._to_dense(f.payload)
    acc, k = first, 1  # acc = f^(k)
    for bit in bin(n)[3:]:
        acc = dense_mul(base, acc, alg._sigma_dense(acc, sigma_power * k))
        k *= 2
        if bit == "1":
            acc = dense_mul(base, acc, alg._sigma_dense(first, sigma_power * k))
            k += 1
    return RingElement(alg, alg._from_dense(acc))


def _affine_data(alg: TwistedAlgebra):
    """(q, h) with sigma(x) = q*x + h over the base; rejects anything else."""
    alg._require_univariate()
    if alg._affine is None:
        raise DomainError("sigma is not affine on the generator")
    q, h = alg._affine
    return RingElement(alg.base, q), RingElement(alg.base, h)


def affine_orbit(alg: TwistedAlgebra, n: int) -> RingElement:
    """sigma^n(x) = q^n*x + (n)_q*h in closed form (n < 0 needs q a unit).

    For n >= 0 the closed form is cross-checked against iterated substitution.
    """
    q, h = _affine_data(alg)
    ctx = QContext(alg.base, q)
    x = alg.gen(alg.gens[0])
    closed = alg.scalar(ctx.q_power(n)) * x + alg.scalar(q_state(ctx, n) * h)
    if n >= 0:
        if closed != alg.sigma_iter(x, n):
            raise InternalError("affine orbit closed form disagrees with iteration")
    return closed


def twisted_power_compose(alg: TwistedAlgebra, f: RingElement, n: int, m: int):
    """Both composites (f^(n)_{sigma^m})^(m)_sigma and (f^(n)_sigma)^(m)_{sigma^n},
    plus f^(mn)_sigma, for equality assertions."""
    lhs = twisted_power(alg, twisted_power(alg, f, n, m), m, 1)
    mid = twisted_power(alg, twisted_power(alg, f, n, 1), m, n)
    rhs = twisted_power(alg, f, n * m, 1)
    return lhs, mid, rhs


@dataclass(frozen=True)
class TwistedBinomialReport:
    equal: bool
    lhs: RingElement
    rhs: RingElement
    mismatch: Optional[tuple] = None  # (exponent vector, lhs coeff, rhs coeff)


def twisted_binomial_check(alg: TwistedAlgebra, x: RingElement, y: RingElement, n: int) -> TwistedBinomialReport:
    """Check (x+y)^(n) = sum_k C(n,k)_q x^(k) y^(n-k) for sigma(x)=q*x, sigma(y)=y.

    x and y must be generators; the eigenvector conditions are verified by
    substitution before anything is expanded.
    """
    names = {alg.gen(g).payload: g for g in alg.gens}
    for elt in (x, y):
        if elt.payload not in names:
            raise EigenvectorError(str(elt), "arguments must be algebra generators")
    xname, yname = names[x.payload], names[y.payload]
    img_x = alg.sigma(x)
    q = None
    if len(img_x.payload) == 1 and img_x.payload[0][0] == x.payload[0][0]:
        q = RingElement(alg.base, img_x.payload[0][1])
    if q is None:
        raise EigenvectorError(xname, f"sigma({xname}) is not a base multiple of {xname}")
    if alg.sigma(y) != y:
        raise EigenvectorError(yname, f"sigma({yname}) != {yname}")
    lhs = twisted_power(alg, x + y, n)
    ctx = QContext(alg.base, q)
    rhs = alg.zero
    for k in range(n + 1):
        rhs = rhs + (
            alg.scalar(q_binomial(ctx, n, k))
            * twisted_power(alg, x, k)
            * twisted_power(alg, y, n - k)
        )
    if lhs == rhs:
        return TwistedBinomialReport(True, lhs, rhs)
    exps = (lhs - rhs).payload[0][0]  # the least exponent where they differ
    lcoeff = dict(lhs.payload).get(exps, alg.base._zero())
    rcoeff = dict(rhs.payload).get(exps, alg.base._zero())
    return TwistedBinomialReport(
        False, lhs, rhs,
        (exps, RingElement(alg.base, lcoeff), RingElement(alg.base, rcoeff)),
    )


def twisted_power_sign_check(alg: TwistedAlgebra, p: int) -> RingElement:
    """x^(p) for sigma(x) = q*x when q-char(base) = p; compare with +-x^p."""
    q, h = _affine_data(alg)
    if not h.is_zero():
        raise DomainError("sign rule needs sigma(x) = q*x")
    ctx = QContext(alg.base, q)
    if not q_state(ctx, p).is_zero() or any(q_state(ctx, m).is_zero() for m in range(1, p)):
        raise DomainError(f"base does not have quantum characteristic {p}")
    return twisted_power(alg, alg.gen(alg.gens[0]), p)


def artin_schreier_check(base, h) -> RingElement:
    """x^(p) for sigma(x) = x + h over a base of prime characteristic p.

    Asserts the closed form x^p - h^(p-1)*x before returning the product.
    """
    if isinstance(h, int):
        h = base.from_int(h)
    p = base.characteristic
    if not ntheory.is_prime(p):
        raise UnsupportedError("Artin-Schreier check needs prime characteristic")
    alg = TwistedAlgebra.univariate_affine(base, base.one, h)
    x = alg.gen("x")
    value = twisted_power(alg, x, p)
    expected = x**p - alg.scalar(h ** (p - 1)) * x
    if value != expected:
        raise InternalError("Artin-Schreier closed form failed")
    return value


class TwistedPowerBasis:
    """The family x^(0), x^(1), ... for affine sigma(x) = q*x + h with q a unit.

    x^(i) = sigma^0(x) * ... * sigma^(i-1)(x) with sigma^j(x) = q^j*x + (j)_q*h,
    so x^(i) = q^(i(i-1)/2) * (x - r_0) * ... * (x - r_(i-1)) with the nodes
    r_j = -(j)_q*h*q^(-j).  It has degree i and unit leading coefficient, so
    the family is a free module basis in each degree, and coefficients in it
    are Newton coefficients on these nodes, rescaled.
    """

    def __init__(self, alg: TwistedAlgebra):
        q, h = _affine_data(alg)
        qinv = q.try_invert()
        if qinv is None:
            raise BasisUnavailableError(f"sigma scale {q} is not a unit of {alg.base}")
        self.algebra = alg
        self.q = q
        self.h = h
        self._qinv = qinv

    def element(self, i: int) -> RingElement:
        """x^(i)."""
        return twisted_power(self.algebra, self.algebra.gen(self.algebra.gens[0]), i)

    def _nodes(self, n):
        """[r_0, ..., r_(n-1)] as base payloads: r_0 = 0 and
        r_(j+1) = r_j - h*q^(-(j+1)), since (j+1)_q = 1 + q*(j)_q."""
        base = self.algebra.base
        add, mul = base._add, base._mul
        step = base._neg(self.h.payload)
        qinv = self._qinv.payload
        out = [base._zero()]
        for _ in range(n - 1):
            step = mul(step, qinv)
            out.append(add(out[-1], step))
        return out


def _triangular_powers(base, q, n):
    """[q^(j(j-1)/2) for j < n] as base payloads, for a payload q."""
    mul = base._mul
    out, qj = [base._one()], base._one()
    for _ in range(n - 1):
        out.append(mul(out[-1], qj))
        qj = mul(qj, q)
    return out


def expand_in_twisted_basis(basis: TwistedPowerBasis, f: RingElement) -> dict:
    """Unique coefficients {i: c_i} with f = sum c_i x^(i), by Newton division.

    Dividing f by x - r_0, then the quotient by x - r_1, and so on (synthetic
    division, O(deg^2) base operations) leaves the Newton coefficients d_j of
    f on the nodes as remainders, and c_j = d_j * q^(-j(j-1)/2).
    """
    alg = basis.algebra
    if f.ring != alg:
        raise RingMismatchError("element does not belong to the basis algebra")
    base = alg.base
    add, mul = base._add, base._mul
    z = base._zero()
    a = list(alg._to_dense(f.payload))
    n = len(a)
    nodes = basis._nodes(n)
    # after step j, a[j] is d_j and a[j+1:] the quotient
    for j in range(n - 1):
        r = nodes[j]
        if r != z:
            for k in range(n - 2, j - 1, -1):
                a[k] = add(a[k], mul(r, a[k + 1]))
    scales = _triangular_powers(base, basis._qinv.payload, n)
    coeffs = {}
    for j, (d, s) in enumerate(zip(a, scales)):
        c = mul(d, s)
        if c != z:
            coeffs[j] = RingElement(base, c)
    return coeffs


def assemble_from_twisted_basis(basis: TwistedPowerBasis, coeffs: dict) -> RingElement:
    """sum c_i x^(i) for {i: c_i}: the Newton coefficients d_i = c_i *
    q^(i(i-1)/2), then the steps of ``expand_in_twisted_basis`` undone in
    reverse order (Horner's scheme on the nodes)."""
    alg = basis.algebra
    base = alg.base
    add, mul = base._add, base._mul
    n = max(coeffs, default=-1) + 1
    a = [base._zero()] * n
    for i, c in coeffs.items():
        a[i] = (base.zero + c).payload  # an int, or an element of the base
    a = [mul(d, s) for d, s in zip(a, _triangular_powers(base, basis.q.payload, n))]
    nodes = basis._nodes(n)
    for j in range(n - 2, -1, -1):
        r = base._neg(nodes[j])
        for k in range(j, n - 1):
            a[k] = add(a[k], mul(r, a[k + 1]))
    return RingElement(alg, alg._from_dense(dense_strip(base, a)))


def reduce_mod_twisted_ideal(basis: TwistedPowerBasis, f: RingElement, n: int) -> RingElement:
    """Canonical representative of f in A/(x^(n)): drop basis components >= n.

    The components i >= n span the ideal (x^(n)) when the basis exists, and
    the truncations for decreasing n form the compatible quotient tower.
    """
    coeffs = expand_in_twisted_basis(basis, f)
    return assemble_from_twisted_basis(basis, {i: c for i, c in coeffs.items() if i < n})
