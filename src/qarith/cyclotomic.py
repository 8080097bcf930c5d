"""Cyclotomic polynomials over the integers and divisor-indexed factorizations.

A polynomial over Z is a tuple of int coefficients, constant term first, with
no trailing zeros.  chi(m) is the Moebius product of the (1 - t^d) over the
divisors d of the radical of m (``cyclotomic_poly``), O(2^omega(m) phi(m))
coefficient steps.

The factorization maps are symbolic (index sets and exponent maps); use
``evaluate_factors`` to multiply them out at a point of any ring, or
``gaussian_coefficients`` for the coefficients of [n, k]_t itself.
"""

from __future__ import annotations

import functools
import math
import operator

from . import ntheory, zpoly
from .errors import DomainError, InternalError


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    return ntheory.divisors(ntheory.factorize(n))


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Integer coefficient vector of the m-th cyclotomic polynomial.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(4)
    (1, 0, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)

    With r = rad(m), chi_m(t) = chi_r(t^(m/r)), and for r > 1
    chi_r = prod over d | r of (1 - t^d)^mu(r/d), taken as a power series
    cut after t^phi(r): multiplying by 1 - t^d is a downward loop over the
    coefficients and dividing by it an upward one.  A product that is not
    monic raises InternalError.
    """
    if m < 1:
        raise DomainError("cyclotomic index must be >= 1")
    if m == 1:
        return (-1, 1)
    primes = list(ntheory.factorize(m))
    r = math.prod(primes)
    deg = math.prod(p - 1 for p in primes)
    cs = [1] + [0] * deg
    for mask in range(1 << len(primes)):
        d = math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
        if (len(primes) - mask.bit_count()) % 2:  # mu(r/d) = -1: divide by 1 - t^d
            for i in range(d, deg + 1):
                cs[i] += cs[i - d]
        else:  # mu(r/d) = 1: multiply by 1 - t^d
            for i in range(deg, d - 1, -1):
                cs[i] -= cs[i - d]
    if cs[deg] != 1:
        raise InternalError(f"the Moebius product for chi_{m} is not monic")
    out = [0] * (deg * (m // r) + 1)
    out[:: m // r] = cs
    return tuple(out)


def eval_poly(coeffs, x):
    """Evaluate an integer-coefficient polynomial at a ring element (Horner)."""
    ring = x.ring
    acc = ring.zero
    for c in reversed(coeffs):
        acc = acc * x + ring.from_int(c)
    return acc


def eval_cyclotomic(m: int, x):
    """chi_m evaluated at a ring element."""
    return eval_poly(cyclotomic_poly(m), x)


def factor_q_integer(n: int) -> tuple[int, ...]:
    """Indices m with (n)_q = prod chi_m(q): the divisors of n other than 1."""
    if n < 1:
        raise DomainError("q-integer factorization needs n >= 1")
    return tuple(d for d in divisors(n) if d != 1)


def factor_q_factorial(n: int) -> dict[int, int]:
    """Exponent map {m: floor(n/m)} with (n)_q! = prod chi_m(q)^floor(n/m), m >= 2."""
    if n < 0:
        raise DomainError("q-factorial factorization needs n >= 0")
    return {m: n // m for m in range(2, n + 1) if n // m > 0}


def factor_q_binomial(n: int, k: int) -> tuple[int, ...]:
    """Indices m >= 2 with floor(n/m) > floor(k/m) + floor((n-k)/m).

    Each such index contributes exponent exactly 1, and the product of the
    corresponding chi_m(q) is the (n, k) q-binomial coefficient.
    """
    if k < 0 or n < 0 or k > n:
        raise DomainError("q-binomial factorization needs 0 <= k <= n")
    return tuple(m for m in range(2, n + 1) if n // m > k // m + (n - k) // m)


def evaluate_factors(factors, x):
    """Multiply out chi_m(x)^e over an index iterable or an {index: e} map."""
    ring = x.ring
    acc = ring.one
    if isinstance(factors, dict):
        items = sorted(factors.items())
    else:
        items = [(m, 1) for m in factors]
    for m, e in items:
        acc = acc * eval_cyclotomic(m, x) ** e
    return acc


def product_tree(xs, mul, one):
    """The product of xs by a balanced binary tree of ``mul`` calls; ``one``
    when xs is empty.  Operands of a level have about equal size, which is
    where big-int and Kronecker products are cheapest per coefficient."""
    xs = list(xs)
    if not xs:
        return one
    while len(xs) > 1:
        pairs = [mul(xs[i], xs[i + 1]) for i in range(0, len(xs) - 1, 2)]
        if len(xs) % 2:
            pairs.append(xs[-1])
        xs = pairs
    return xs[0]


def _fold(x, modulus, bits):
    """A value in [0, modulus] congruent to x >= 0 modulo modulus = 2^bits - 1.

    2^bits = 1 modulo 2^bits - 1, so adding the bits-bit digits of x keeps
    its residue; each round shrinks x until it is at most the modulus.
    """
    while x > modulus:
        x = (x & modulus) + (x >> bits)
    return x


def gaussian_coefficients(n, k, fold=None):
    """Coefficients of the q-binomial [n, k]_t in Z[t], constant term first;
    with ``fold`` = m, those of its residue modulo t^m - 1 (length <= m).

    The chi_d of ``factor_q_binomial(n, k)`` are packed at t = B = 2^w
    (``zpoly._pack``) and multiplied as integers.  When folding, t^m - 1
    maps to M = B^m - 1 = 2^(w*m) - 1, and every factor and product is
    reduced by ``_fold``, which adds its (w*m)-bit digits instead of
    dividing by M.  The coefficients of [n, k]_t, and of its fold, are >= 0
    and sum to C(n, k) < B, so the unsigned base-B digits of the product
    (``zpoly._unpack``) are exactly those coefficients, and the folded value
    lies in [1, M).  ``_fold`` leaves a value in [0, M] with that residue,
    which is therefore the folded value itself; a result of M or more raises
    InternalError.
    """
    nbytes = (math.comb(n, k).bit_length() + 7) // 8  # 2^(8*nbytes) > C(n, k)
    packed = [zpoly._pack(cyclotomic_poly(d), nbytes) for d in factor_q_binomial(n, k)]
    if fold is None:
        value = product_tree(packed, operator.mul, 1)
        size = k * (n - k) + 1
    else:
        bits = 8 * nbytes * fold
        modulus = (1 << bits) - 1
        value = product_tree(
            [_fold(x, modulus, bits) for x in packed],
            lambda a, b: _fold(a * b, modulus, bits),
            1,
        )
        if value >= modulus:
            raise InternalError("folded q-binomial is not below B^m - 1")
        size = fold
    return zpoly.strip(zpoly._unpack(value, nbytes, size, False))
