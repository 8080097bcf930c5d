"""Dense integer polynomials: the one kernel behind Z[t], Z[t]/(chi_m) and Q(t).

A polynomial is a tuple of ints, constant term first, with no trailing zeros
(``strip`` makes one from any sequence).  ``rings.dense_add``,
``rings.dense_mul`` and ``rings.dense_divmod`` hand polynomials over an exact
``IntegerRing`` base here, so ``PolynomialRing`` over Z and the dense twisted
powers over Z add and multiply with ``add`` and ``mul``; over Z/n they
multiply with ``mul`` too and reduce once.  ``divrem`` divides by a
polynomial with a unit leading coefficient over Z, or over Z/n with the
quotient reduced as it goes: it is ``rings.dense_divmod`` over both, and the
remainder of every quotient ring of Z[t] or Z/n[t] by a modulus other than
chi_m.  Z[t]/(chi_m) and ``qnum``'s cyclotomic q-binomials reduce with
``reduce_cyclotomic``, and ``RationalFunctionField`` (Q(t) and Q(t^(1/L)))
keeps numerators and denominators as these tuples.
``gcd`` runs the primitive polynomial remainder sequence (Knuth, TAOCP
vol. 2, 4.6.1): pseudo-remainders, each made primitive, so every step stays
in Z[t].

``mul`` picks its method from the factor with fewer nonzero terms:

* one nonzero term: shift and scale the other factor;
* fewer than ``KRONECKER_MIN_TERMS`` nonzero terms: sparse schoolbook;
* otherwise Kronecker substitution.  Each factor is packed into one int as
  the value at t = 2^w, the two ints are multiplied once by CPython's
  big-int product, and the coefficients are read back from the bytes of the
  result by ``_unpack``, the one digit reader that
  ``cyclotomic.gaussian_coefficients`` and the packed twisted powers over Z
  use too.  A product coefficient is a sum of at most min(len a, len b)
  terms, so its absolute value is at most
  B = max|a_i| * max|b_j| * min(len a, len b).  The slot width w is a whole
  number of bytes with 2^(w-1) > B, so after adding 2^(w-1) to every slot
  each slot holds a value in [0, 2^w) and no carry crosses into the next
  one.  When neither factor has a negative coefficient no offset is needed
  and 2^w > B suffices.  From ``KS2_MIN_BYTES`` on, the power of 2 common
  to each factor's coefficients is divided out first, and the factors are
  packed at t = 2^(w/2) and t = -2^(w/2) instead: the sum and the
  difference of the two products carry the even and the odd coefficients in
  w-bit slots.

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

# From this many bytes in the packed product on, ``_kronecker`` evaluates at
# t = 2^v and t = -2^v, 2v the slot width (Harvey's KS2, "Faster polynomial
# multiplication via multipoint Kronecker substitution", 2009): two products
# of half-length ints, each about a third of the cost of one full-length
# Karatsuba product, for three more packs, sums and shifts.  Timed as above
# (best of 7) for two factors of the same length with signed random
# coefficients, KS2 / one product took 1.14 at 527 bytes, 1.03 at 1071,
# 0.92 at 2159, 0.80-0.88 at 3-7 KB, 0.72-0.74 at 13-19 KB, 0.69-0.74 at
# 40-120 KB and 0.60 at 300 KB.
KS2_MIN_BYTES = 2048


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


def _unpack(value, nbytes, size, signed):
    """The size base-2^(8*nbytes) digits of value, constant first.

    Signed digits lie in [-2^(8*nbytes-1), 2^(8*nbytes-1)): adding
    2^(8*nbytes-1) to every slot makes each one a byte string of its own,
    with no borrow from the slot above, and the offset is subtracted again
    per digit.  Unsigned digits lie in [0, 2^(8*nbytes)) and need no
    offset.  A value outside the range of size such digits raises
    OverflowError.
    """
    if not signed:
        data = value.to_bytes(nbytes * size, "little")
        return [int.from_bytes(data[k:k + nbytes], "little") for k in range(0, nbytes * size, nbytes)]
    half = 1 << (8 * nbytes - 1)
    value += int.from_bytes(half.to_bytes(nbytes, "little") * size, "little")
    data = value.to_bytes(nbytes * size, "little")
    return [int.from_bytes(data[k:k + nbytes], "little") - half for k in range(0, nbytes * size, nbytes)]


def _twos(cs):
    """The largest e with 2^e dividing every entry of cs, not all of them 0."""
    m = 0
    for c in cs:
        m |= c
    return (m & -m).bit_length() - 1


def _kronecker(a, b, size):
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    signed = min(a) < 0 or min(b) < 0
    nbytes = (bound.bit_length() + signed + 7) // 8
    if nbytes * size < KS2_MIN_BYTES:
        return _unpack(_pack(a, nbytes) * _pack(b, nbytes), nbytes, size, signed)
    # a power of 2 common to all of a factor's coefficients only widens the
    # slots: (x + 1)^(n) under sigma(x) = 2x + 1 is 2^(n*(n-1)/2)*(x + 1)^n
    ea, eb = _twos(a), _twos(b)
    if ea or eb:
        out = _kronecker([c >> ea for c in a], [c >> eb for c in b], size)
        return [c << (ea + eb) for c in out]
    # c = a*b at t = +-2^v, 2v = 8*nbytes: c(2^v) + c(-2^v) = 2*E(2^(2v)) and
    # c(2^v) - c(-2^v) = 2^(v+1)*O(2^(2v)), E and O the even and odd parts
    v = 4 * nbytes
    a0, a1 = _pack(a[0::2], nbytes), _pack(a[1::2], nbytes) << v
    b0, b1 = _pack(b[0::2], nbytes), _pack(b[1::2], nbytes) << v
    plus, minus = (a0 + a1) * (b0 + b1), (a0 - a1) * (b0 - b1)
    out = [0] * size
    out[0::2] = _unpack((plus + minus) >> 1, nbytes, (size + 1) // 2, signed)
    out[1::2] = _unpack((plus - minus) >> (v + 1), nbytes, size // 2, signed)
    return out


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


def divrem(a, b, n=0):
    """(q, r) with a = q*b + r and deg r < deg b, where the leading
    coefficient of b is a unit: +-1 over Z, or a unit mod n when n > 0;
    ValueError otherwise.

    With n > 0 the division runs in Z/n[t]: each quotient coefficient is
    reduced into [0, n) as it is found, and q and r come back reduced, with
    no trailing zeros.  For b with entries in [0, n) the working remainder
    then stays within len(a) * n^2 of a, entry by entry.
    """
    d, lead = len(b) - 1, b[-1]
    if n:
        inv = 1 if lead == 1 else pow(lead, -1, n)
    elif lead in (1, -1):
        inv = lead
    else:
        raise ValueError(f"{lead} is not a unit of Z")
    low = b[:d]
    r = list(a)
    q = []
    while len(r) > d:
        c = r.pop() * inv
        if n:
            c %= n
        q.append(c)
        if c:
            for j, m in enumerate(low, len(r) - d):
                r[j] -= c * m
    if n:
        r = [c % n for c in r]
    while r and r[-1] == 0:
        r.pop()
    q.reverse()
    while q and q[-1] == 0:  # the top of a may vanish mod n
        q.pop()
    return tuple(q), tuple(r)


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
