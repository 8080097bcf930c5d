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

Over Z the split starts from a packed product (Kronecker substitution, von
zur Gathen & Gerhard, Modern Computer Algebra, 8.4).  With s = sigma^m also
affine, s^i(x) = a_i*x + b_i, the value of f^(k) at x = 2^w is the integer
product of f(a_i*2^w + b_i) for i < k, and its signed base-2^w digits are
the coefficients of f^(k) once 2^(w-1) exceeds the 1-norm bound
prod_i |f|(|a_i| + |b_i|) (|f| has the absolute values of f's
coefficients), so every packed answer is exact.  k is the longest prefix
of n's binary digits whose bound stays under ``PACKED_SLOT_BITS`` bits and
that ends before any later factor +-1 or +-x^j; the remaining bits of n, if
any, are split as above.

For affine sigma(x) = q*x + h with q a unit, the twisted powers x^(0), x^(1),
... form a degree basis; ``expand_in_twisted_basis`` rewrites any univariate
polynomial in it (the Newton/Stirling transform for sigma(x) = x - 1) by
Newton division on the nodes of ``TwistedPowerBasis``, O(d^2) base
operations on the dense coefficient tuple.
"""

from __future__ import annotations

import operator

from . import zpoly
from .cyclotomic import product_tree
from .errors import (
    BasisUnavailableError,
    DomainError,
    InternalError,
    RingMismatchError,
    UnsupportedError,
)
from .qnum import QContext, _matrix_power, q_state
from .rings import (
    IntegerRing, Ring, RingElement, _fmt_terms, _power, _signed_coeff, as_int, dense_mul, dense_strip,
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
    products of dense coefficient tuples (``rings.dense_mul``).  Over Z the
    walk starts from f^(k), k a prefix of n's bits, packed into one integer
    product (``_packed_prefix``), so n up to a few dozen takes no shift at
    all.  Any other sigma uses the inductive rule.
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
    if type(base) is IntegerRing:
        q, h = alg._affine
        state, scale = _matrix_power(base, q, sigma_power)  # s(x) = scale*x + state*h
        acc, k = _packed_prefix(first, scale, state * h, n)
    else:
        acc, k = first, 1
    for bit in bin(n)[len(bin(k)):]:  # acc = f^(k), k a prefix of n's bits
        acc = dense_mul(base, acc, alg._sigma_dense(acc, sigma_power * k))
        k *= 2
        if bit == "1":
            acc = dense_mul(base, acc, alg._sigma_dense(first, sigma_power * k))
            k += 1
    return RingElement(alg, alg._from_dense(acc))


# The widest slot, in bits, that ``_packed_prefix`` packs.  All factors of a
# packed product share the slot width of the whole product's bound, so a long
# prefix multiplies wide integers where the binary split multiplies narrow
# polynomials, and for |q| > 1 the bound grows by about i*log2|q| bits with
# the i-th factor.  Timed with timeit (best of 3) on CPython 3.11.7, a shared
# 2-vCPU x86-64 VM, over 54 cases (f of degree 1-3, q in {1, 2, -3},
# n = 8-64), as a fraction of the binary split's time, median / worst:
# 0.96 / 1.08 at 128 bits, 0.92 / 1.07 at 256, 0.91 / 1.09 at 384,
# 0.92 / 1.18 at 512, 0.94 / 1.62 at 1024, and 1.03 / 2.52 with no cap.
# The value rests on these cases alone: no perfbench call reaches the cap
# (``symbolic``'s bounds stay near 100 bits, and ``cli-mix`` has n <= 10).
PACKED_SLOT_BITS = 384


def _packed_prefix(cs, q, h, n):
    """(f^(k), k) over Z for s(x) = q*x + h, f the integer tuple cs, n >= 1.

    k >= 1 is the longest prefix of n's binary digits whose bound B has
    fewer than ``PACKED_SLOT_BITS`` bits.  s^i(x) = a_i*x + b_i, where
    (a, b) steps from (1, 0) to (a*q, b*q + h), so f^(k) at x = 2^w is the
    product of the integers f(a_i*2^w + b_i) (Horner's scheme).  A coefficient of
    f(a*x + b) is at most |f|(|a| + |b|), and 1-norms are submultiplicative,
    so B = prod |f|(|a_i| + |b_i|) bounds every coefficient of f^(k): with
    2^(w-1) > B its signed base-2^w digits are exact.

    After the first factor, a factor of bound 0 is zero (a = b = 0 and
    f(0) = 0), and so is f^(n).  One of bound 1 is +-1 or +-x^j, which the
    split multiplies as one-term products, so the prefix stops there.  Every
    other factor adds a bit to B, so the loop stops within
    ``PACKED_SLOT_BITS`` factors.
    """
    if not cs:
        return (), n
    rev = cs[::-1]
    abs_rev = [abs(c) for c in rev]
    points, bounds = [], [1]  # bounds[i] is B for the first i points
    a, b = 1, 0
    while len(points) < n:
        y, v = abs(a) + abs(b), 0
        for c in abs_rev:
            v = v * y + c
        if v == 0:
            return (), n
        bound = bounds[-1] * v
        if points and (v == 1 or bound.bit_length() >= PACKED_SLOT_BITS):
            break
        points.append((a, b))
        bounds.append(bound)
        a, b = a * q, b * q + h
    # the leading binary digits of n, as many as fit under len(points)
    k = n >> (n.bit_length() - len(points).bit_length())
    if k > len(points):
        k >>= 1
    nbytes = bounds[k].bit_length() // 8 + 1  # 2^(8*nbytes-1) > B
    w = 8 * nbytes
    values = []
    for a, b in points[:k]:
        y, v = (a << w) + b, 0
        for c in rev:
            v = v * y + c
        values.append(v)
    digits = zpoly._unpack(product_tree(values, operator.mul, 1), nbytes, (len(cs) - 1) * k + 1, True)
    return zpoly.strip(digits), k


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
