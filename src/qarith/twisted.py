"""Polynomial algebras with an endomorphism sigma, and twisted powers.

TwistedAlgebra is a multivariate polynomial ring over a commutative base with
sigma given by the images of the generators; sigma extends to the unique
base-algebra endomorphism, applied by substitution.  The n-th twisted power
of f is f * sigma(f) * ... * sigma^(n-1)(f), which specializes to ordinary
powers (sigma = id), falling/rising Pochhammer products (sigma(x) = x -+ 1),
and q-Pochhammer products (sigma(x) = q*x).

For affine sigma(x) = q*x + h with q a unit, the twisted powers x^(0), x^(1),
... form a degree basis; ``expand_in_twisted_basis`` rewrites any univariate
polynomial in it (the Newton/Stirling transform for sigma(x) = x - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    BasisUnavailableError,
    DomainError,
    EigenvectorError,
    InternalError,
    RingMismatchError,
    UnsupportedError,
)
from .qnum import QContext, q_binomial, q_state
from .rings import Ring, RingElement


class TwistedAlgebra(Ring):
    """R[x1,...,xg] with an endomorphism fixing R, as sparse exponent maps."""

    def __init__(self, base, gens, sigma=None):
        if not base.commutative:
            raise DomainError("twisted algebras need a commutative base")
        self.base = base
        self.gens = tuple(gens)
        if len(set(self.gens)) != len(self.gens):
            raise DomainError("duplicate generator names")
        self.is_domain = base.is_domain
        self.torsion_free = base.torsion_free
        self.characteristic = base.characteristic
        self._sigma = None
        if sigma is not None:
            self.set_sigma(sigma)

    # --- construction helpers ---

    @classmethod
    def univariate_affine(cls, base, q, h, var="x"):
        """R[x] with sigma(x) = q*x + h."""
        if isinstance(q, int):
            q = base.from_int(q)
        if isinstance(h, int):
            h = base.from_int(h)
        alg = cls(base, (var,))
        x = alg.gen(var)
        alg.set_sigma({var: alg.scalar(q) * x + alg.scalar(h)})
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
        return self

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
        return self.substitute(f, self.sigma_images)

    def sigma_iter(self, f: RingElement, k: int) -> RingElement:
        if k < 0:
            raise DomainError("sigma iteration count must be >= 0")
        for _ in range(k):
            f = self.sigma(f)
        return f

    # --- univariate accessors ---

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
        acc = {}
        z = self.base._zero()
        g = len(self.gens)
        for exps, c in payload:
            exps = tuple(int(e) for e in exps)
            if len(exps) != g or any(e < 0 for e in exps):
                raise DomainError("bad exponent vector")
            c = self.base.normalize(c)
            if exps in acc:
                c = self.base._add(acc[exps], c)
            acc[exps] = c
        return tuple((e, c) for e, c in sorted(acc.items()) if c != z)

    def _add(self, a, b):
        acc = dict(a)
        z = self.base._zero()
        for exps, c in b:
            if exps in acc:
                acc[exps] = self.base._add(acc[exps], c)
            else:
                acc[exps] = c
        return tuple((e, c) for e, c in sorted(acc.items()) if c != z)

    def _neg(self, a):
        neg = self.base._neg
        return tuple((e, neg(c)) for e, c in a)

    def _mul(self, a, b):
        acc = {}
        z = self.base._zero()
        mul, add = self.base._mul, self.base._add
        for e1, c1 in a:
            for e2, c2 in b:
                e = tuple(x + y for x, y in zip(e1, e2))
                p = mul(c1, c2)
                if e in acc:
                    acc[e] = add(acc[e], p)
                else:
                    acc[e] = p
        return tuple((e, c) for e, c in sorted(acc.items()) if c != z)

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
        base = self.base
        terms = sorted(a, key=lambda ec: (sum(ec[0]), ec[0]))
        parts = []
        for exps, c in terms:
            vars_txt = "*".join(
                g if e == 1 else f"{g}^{e}"
                for g, e in zip(self.gens, exps)
                if e
            )
            cs = base._text(c)
            if cs.startswith("-"):
                neg, mag = True, base._text(base._neg(c))
            else:
                neg, mag = False, cs
            if "+" in mag or "-" in mag:
                mag = f"({mag})"
            if not vars_txt:
                body = mag
            elif mag == "1":
                body = vars_txt
            else:
                body = f"{mag}*{vars_txt}"
            parts.append((neg, body))
        if not parts:
            return "0"
        out = ("-" if parts[0][0] else "") + parts[0][1]
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def descriptor(self):
        return ("mpoly", self.base.descriptor(), self.gens)

    def _name(self):
        return f"{self.base}[{','.join(self.gens)}]"

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


def twisted_power(alg: TwistedAlgebra, f: RingElement, n: int, sigma_power: int = 1) -> RingElement:
    """f * s(f) * ... * s^(n-1)(f) for s = sigma^sigma_power, by the inductive rule."""
    if n < 0:
        raise DomainError("twisted powers need n >= 0")
    acc = alg.one
    cur = f
    for _ in range(n):
        acc = acc * cur
        cur = alg.sigma_iter(cur, sigma_power)
    return acc


def _affine_data(alg: TwistedAlgebra):
    """(q, h) with sigma(x) = q*x + h over the base; rejects anything else."""
    alg._require_univariate()
    img = alg.sigma_images[alg.gens[0]]
    q, h = alg.base.zero, alg.base.zero
    for exps, c in img.payload:
        if exps[0] == 1:
            q = RingElement(alg.base, c)
        elif exps[0] == 0:
            h = RingElement(alg.base, c)
        else:
            raise DomainError("sigma is not affine on the generator")
    return q, h


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
    diff = dict(lhs.payload)
    for exps, c in rhs.payload:
        l = diff.get(exps, alg.base._zero())
        if l == c:
            diff.pop(exps, None)
        else:
            diff[exps] = l
    exps = sorted(diff)[0]
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
    if p <= 0 or any(p % d == 0 for d in range(2, p)):
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

    x^(i) has degree i and unit leading coefficient q^(i(i-1)/2), so the
    family is a free module basis in each degree.
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
        self._basis = [alg.one]
        self._cur = alg.gen(alg.gens[0])  # sigma^i(x) for i = len(basis) - 1

    def element(self, i: int) -> RingElement:
        while len(self._basis) <= i:
            self._basis.append(self._basis[-1] * self._cur)
            self._cur = self.algebra.sigma(self._cur)
        return self._basis[i]

    def leading_inverse(self, i: int) -> RingElement:
        return self._qinv ** (i * (i - 1) // 2)


def expand_in_twisted_basis(basis: TwistedPowerBasis, f: RingElement) -> dict:
    """Unique coefficients {i: c_i} with f = sum c_i x^(i), by leading-term elimination."""
    alg = basis.algebra
    if f.ring != alg:
        raise RingMismatchError("element does not belong to the basis algebra")
    coeffs = {}
    while not f.is_zero():
        d = alg.degree(f)
        c = alg.coefficient(f, d) * basis.leading_inverse(d)
        coeffs[d] = c
        f = f - alg.scalar(c) * basis.element(d)
        if alg.degree(f) >= d:
            raise InternalError("leading-term elimination failed to reduce degree")
    return coeffs


def assemble_from_twisted_basis(basis: TwistedPowerBasis, coeffs: dict) -> RingElement:
    alg = basis.algebra
    acc = alg.zero
    for i, c in sorted(coeffs.items()):
        acc = acc + alg.scalar(c) * basis.element(i)
    return acc


def reduce_mod_twisted_ideal(basis: TwistedPowerBasis, f: RingElement, n: int) -> RingElement:
    """Canonical representative of f in A/(x^(n)): drop basis components >= n.

    The components i >= n span the ideal (x^(n)) when the basis exists, and
    the truncations for decreasing n form the compatible quotient tower.
    """
    coeffs = expand_in_twisted_basis(basis, f)
    return assemble_from_twisted_basis(basis, {i: c for i, c in coeffs.items() if i < n})
