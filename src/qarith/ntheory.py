"""Primality, factoring and multiplicative orders of plain integers.

``is_prime`` is Miller-Rabin with the first 13 prime bases, which is exact
for every n below ``MR_LIMIT`` (Sorenson & Webster 2015); above that it
raises UnsupportedError rather than guess.  ``factorize`` divides out the
primes below ``TRIAL_LIMIT`` and splits what is left with Pollard's rho in
Brent's variant, within a fixed number of steps: a modulus whose prime
factors are all below about 10^9, except perhaps one below ``MR_LIMIT``,
factors in well under a second, and one that resists raises
UnsupportedError instead of running on.  Every answer is deterministic, so a modulus that fails to
factor fails every time.
"""

from __future__ import annotations

import math

from .errors import UnsupportedError

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981
TRIAL_LIMIT = 1000
# Brent's cycle search doubles its radius until it passes this; the rho
# walk then has taken about 2^18 steps, enough to find prime factors up to
# about 10^9
RHO_RADIUS = 1 << 16
RHO_BATCH = 128
RHO_SEEDS = 8


def is_prime(n: int) -> bool:
    """Exact primality of n; UnsupportedError when n >= MR_LIMIT has no small factor."""
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    if n >= MR_LIMIT:
        raise UnsupportedError(f"primality of {n} is beyond the deterministic Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n):
    """A proper factor of the odd composite n, or UnsupportedError."""
    for c in range(1, RHO_SEEDS + 1):
        y, r, g = 2, 1, 1
        while g == 1:
            if r > RHO_RADIUS:
                raise UnsupportedError(f"cannot factor {n} within the Pollard rho budget")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys, prod = y, 1
                for _ in range(min(RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = math.gcd(prod, n)
                k += RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot the factor: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise UnsupportedError(f"cannot factor {n}: every rho seed closed its cycle on n")


def factorize(n: int) -> dict:
    """{p: e} with n = prod p^e, for n >= 1; UnsupportedError when n resists."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out = {}
    p = 2
    while p < TRIAL_LIMIT and p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if m < TRIAL_LIMIT * TRIAL_LIMIT or (m < MR_LIMIT and is_prime(m)):
            out[m] = out.get(m, 0) + 1
            continue
        d = _rho(m)  # above MR_LIMIT a prime m cannot be certified and fails here
        todo += [d, m // d]
    return dict(sorted(out.items()))


def totient(n: int) -> int:
    """Euler's phi(n), n >= 1."""
    for p in factorize(n):
        n -= n // p
    return n


def carmichael(factors: dict) -> int:
    """Carmichael's lambda(n), the exponent of (Z/n)^*, from n's factors."""
    lam = 1
    for p, e in factors.items():
        if p == 2:
            part = 1 << max(0, e - 1 if e < 3 else e - 2)
        else:
            part = (p - 1) * p ** (e - 1)
        lam = lam * part // math.gcd(lam, part)
    return lam


def multiplicative_order(a, mod, exponent: int, primes, power=pow) -> int:
    """Order of the unit a modulo mod, given a multiple ``exponent`` of it
    and the primes dividing that exponent: each prime is divided out of the
    exponent while a to the quotient stays one.  ``power(a, k, mod)`` is
    a^k: the built-in ``pow`` for an integer mod, or any other group's own."""
    one = power(a, 0, mod)
    order = exponent
    for r in primes:
        while order % r == 0 and power(a, order // r, mod) == one:
            order //= r
    return order


def divisors(factors: dict) -> list:
    """Every divisor of prod p^e, ascending."""
    out = [1]
    for p, e in factors.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)
