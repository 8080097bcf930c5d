"""Dense integer polynomials: the one kernel behind Z[t], Z[t]/(chi_m) and Q(t).

A polynomial is a tuple of ints, constant term first, with no trailing zeros
(``strip`` makes one from any sequence).  ``rings.dense_add`` and
``rings.dense_mul`` hand polynomials over an exact ``IntegerRing`` base here,
so ``PolynomialRing`` over Z and the dense twisted powers over Z add and
multiply with ``add`` and ``mul``.  Z[t]/(chi_m) and ``qnum``'s cyclotomic
q-binomials reduce with ``reduce_cyclotomic``, and ``RationalFunctionField``
(Q(t) and Q(t^(1/L))) keeps numerators and denominators as these tuples.
``gcd`` runs the primitive polynomial remainder sequence (Knuth, TAOCP
vol. 2, 4.6.1): pseudo-remainders, each made primitive, so every step stays
in Z[t].

``mul`` picks its method from the factor with fewer nonzero terms:

* one nonzero term: shift and scale the other factor;
* fewer than ``KRONECKER_MIN_TERMS`` nonzero terms: sparse schoolbook;
* otherwise Kronecker substitution.  Each factor is packed into one int as
  the value at t = 2^w, the two ints are multiplied once by CPython's
  big-int product, and the coefficients are read back from the bytes of the
  result.  A product coefficient is a sum of at most min(len a, len b)
  terms, so its absolute value is at most
  B = max|a_i| * max|b_j| * min(len a, len b).  The slot width w is a whole
  number of bytes with 2^(w-1) > B, so after adding 2^(w-1) to every slot
  each slot holds a value in [0, 2^w) and no carry crosses into the next
  one.  When neither factor has a negative coefficient no offset is needed
  and 2^w > B suffices.

Internal self-checks raise ``InternalError`` (never ``assert``), so they
hold under ``python -O`` too.
"""

from __future__ import annotations

import math
import operator

from .errors import InternalError

# The sparse schoolbook product costs about (terms of the sparser factor) x
# (length of the other) Python multiply-adds; Kronecker substitution costs a
# fixed ten-odd microseconds of packing and unpacking plus one big-int
# product.  Timed with timeit (best of 7) on CPython 3.11.7, a shared 2-vCPU
# x86-64 VM, for two dense factors of the same length n with signed random
# coefficients of 4, 20 and 70 bits, schoolbook / Kronecker took 8-12 /
# 17-29 us at n = 8, 16-25 / 30-33 us at n = 12, 30-53 / 37-47 us at n = 16,
# 45-83 / 31-46 us at n = 20 and 107-178 / 58-83 us at n = 30.
KRONECKER_MIN_TERMS = 16


def strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(map(operator.add, a, b))
    out += a[len(b):]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def neg(a):
    return tuple(-c for c in a)


def scale(a, c):
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def val(a):
    """Index of the lowest nonzero coefficient (len(a) when a is zero)."""
    for i, c in enumerate(a):
        if c:
            return i
    return len(a)


def mono(a):
    """(degree, coefficient) when a has a single nonzero term, else None."""
    hit = None
    for i, c in enumerate(a):
        if c:
            if hit is not None:
                return None
            hit = (i, c)
    return hit


def content(a):
    g = 0
    for c in a:
        g = math.gcd(g, c)
    return g


def prim(a):
    """Split a = c * p with p primitive, positive leading coefficient."""
    a = strip(a)
    if not a:
        return 0, ()
    c = content(a)
    if a[-1] < 0:
        c = -c
    return c, tuple(x // c for x in a)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def _schoolbook(a, b, size):
    out = [0] * size
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b, i):
                out[j] += c * d
    return out


def _pack(cs, nbytes):
    """The value at t = 2^(8*nbytes) of cs, as one int."""
    if min(cs) >= 0:
        return int.from_bytes(b"".join(c.to_bytes(nbytes, "little") for c in cs), "little")
    pos = b"".join((c if c > 0 else 0).to_bytes(nbytes, "little") for c in cs)
    negs = b"".join((-c if c < 0 else 0).to_bytes(nbytes, "little") for c in cs)
    return int.from_bytes(pos, "little") - int.from_bytes(negs, "little")


def _kronecker(a, b, size):
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    signed = min(a) < 0 or min(b) < 0
    nbytes = (bound.bit_length() + signed + 7) // 8
    packed = _pack(a, nbytes) * _pack(b, nbytes)
    if signed:
        half = 1 << (8 * nbytes - 1)
        packed += int.from_bytes(half.to_bytes(nbytes, "little") * size, "little")
    else:
        half = 0
    data = packed.to_bytes(nbytes * size, "little")
    return [
        int.from_bytes(data[k:k + nbytes], "little") - half
        for k in range(0, nbytes * size, nbytes)
    ]


def mul(a, b):
    """Product of two integer polynomials."""
    if not (a and a[-1] and b and b[-1]):
        a, b = strip(a), strip(b)
        if not a or not b:
            return ()
    terms_a = len(a) - a.count(0)
    terms_b = len(b) - b.count(0)
    if terms_b < terms_a:
        a, b, terms_a = b, a, terms_b
    if terms_a == 1:
        # a = c * t^i with i = deg a, since a has no trailing zeros
        c = a[-1]
        shift = (0,) * (len(a) - 1)
        return shift + tuple(b) if c == 1 else shift + tuple([c * d for d in b])
    size = len(a) + len(b) - 1
    if terms_a < KRONECKER_MIN_TERMS:
        out = _schoolbook(a, b, size)
    else:
        out = _kronecker(a, b, size)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# division and gcd
# ---------------------------------------------------------------------------


def divexact(a, b):
    """Exact quotient a / b in Z[t]; raises InternalError when b does not divide a."""
    a, b = strip(a), strip(b)
    if not b:
        raise InternalError("exact division by the zero polynomial")
    if not a:
        return ()
    m = mono(b)
    if m is not None:
        d, c = m
        if any(a[:d]):
            raise InternalError("inexact monomial division")
        out = []
        for x in a[d:]:
            q, r = divmod(x, c)
            if r:
                raise InternalError("inexact monomial division")
            out.append(q)
        return strip(out)
    r = list(a)
    db = len(b) - 1
    q = [0] * max(0, len(r) - db)
    for k in reversed(range(len(q))):
        c, rem = divmod(r[k + db], b[-1])
        if rem:
            raise InternalError("non-integral exact quotient")
        if c:
            q[k] = c
            for j, d in zip(range(k, k + db), b):
                r[j] -= c * d
    if any(r[:db]):
        raise InternalError("inexact polynomial division")
    return strip(q)


def gcd(a, b):
    """Primitive gcd in Z[t] with positive leading coefficient."""
    a, b = strip(a), strip(b)
    if not a:
        return prim(b)[1]
    if not b:
        return prim(a)[1]
    ma, mb = mono(a), mono(b)
    if ma is not None:
        d = min(ma[0], mb[0] if mb is not None else val(b))
        return (0,) * d + (1,)
    if mb is not None:
        d = min(mb[0], val(a))
        return (0,) * d + (1,)
    a, b = prim(a)[1], prim(b)[1]
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, prim(_prem(a, b))[1]
    return a


def _prem(a, b):
    """Pseudo-remainder of a by b, possibly with trailing zeros: the
    remainder is multiplied by lc(b) before each elimination step, so no
    division is needed."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) > db:
        c = r.pop()
        if c:
            r = [x * lb for x in r]
            for j, d in zip(range(len(r) - db, len(r)), b):
                r[j] -= c * d
    return r


def reduce_cyclotomic(cs, n, chi):
    """Residue of cs modulo the monic chi = chi_n, of degree < deg chi.

    chi_n divides t^n - 1, so cs is first folded modulo t^n - 1 (exponents
    taken mod n) and the residue, of degree < n, is then long-divided by
    chi.  For prime n that division is a single step, so the whole
    reduction is O(len cs) rather than O(len cs * deg chi).
    """
    r = list(cs[:n])
    for k in range(n, len(cs), n):
        for j, c in enumerate(cs[k:k + n]):
            r[j] += c
    d = len(chi) - 1
    while len(r) > d:
        c = r.pop()
        if c:
            for j, m in zip(range(len(r) - d, len(r)), chi):
                r[j] -= c * m
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)
