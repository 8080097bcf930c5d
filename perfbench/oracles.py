"""Reference computations for the benchmark's output checks.

Everything here uses plain ints and Fractions and never imports qarith, so a
check compares qarith against arithmetic written apart from it.  Dense
polynomials are coefficient lists, constant term first; sparse ones are
{exponent: coefficient} dicts, where exponents may be negative or Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# integer polynomials through evaluation at a power of two
# ---------------------------------------------------------------------------


def hex_base(bound: int) -> int:
    """Bits per digit of the smallest power of 16 strictly above ``bound``."""
    return 4 * (bound.bit_length() // 4 + 1)


def poly_at(coeffs, x):
    """Horner evaluation of a dense coefficient list at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def digits(value: int, bits: int) -> list[int]:
    """Base-2^bits digits of value >= 0, least significant first, no trailing zeros."""
    h = bits // 4
    text = format(value, "x")
    out = [int(text[max(0, end - h):end], 16) for end in range(len(text), 0, -h)]
    while out and out[-1] == 0:
        out.pop()
    return out


def gaussian_at(n: int, k: int, x: int) -> int:
    """[n choose k] at t = x from the product formula prod (x^(n-i)-1)/(x^(i+1)-1)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= x ** (n - i) - 1
        den *= x ** (i + 1) - 1
    quo, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("Gaussian product formula is not integral")
    return quo


def qfactorial_at(m: int, x: int) -> int:
    """(m)_t! at t = x as prod_{i=1}^{m} (x^i - 1)/(x - 1)."""
    acc = 1
    for i in range(1, m + 1):
        acc *= (x**i - 1) // (x - 1)
    return acc


def gaussian_coeffs(n: int, k: int) -> list[int]:
    """Coefficients of [n choose k]_t.  They are >= 0 and sum to C(n, k)."""
    bits = hex_base(math.comb(n, k))
    return digits(gaussian_at(n, k, 1 << bits), bits)


def qfactorial_coeffs(m: int) -> list[int]:
    """Coefficients of (m)_t!.  They are >= 0 and sum to m!."""
    bits = hex_base(math.factorial(m))
    return digits(qfactorial_at(m, 1 << bits), bits)


def matches_at_base(payload, value: int, bound: int) -> bool:
    """True when the coefficient tuple lies in [0, B) and evaluates to value at B.

    B is a power of two above ``bound``; when every coefficient of the true
    polynomial is at most ``bound``, digits in [0, B) are unique, so equal
    values mean equal polynomials.
    """
    base = 1 << hex_base(bound)
    if any(c < 0 or c >= base for c in payload):
        return False
    if payload and payload[-1] == 0:
        return False
    return poly_at(payload, base) == value


def reduce_cyclotomic_prime(coeffs, p: int) -> list[int]:
    """Remainder of an integer polynomial mod 1 + t + ... + t^(p-1), p prime."""
    folded = [0] * p
    for i, c in enumerate(coeffs):
        folded[i % p] += c
    top = folded[p - 1]
    out = [c - top for c in folded[: p - 1]]
    while out and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# states, rational states, twisted powers
# ---------------------------------------------------------------------------


def laurent_state(m: int) -> dict:
    """(m)_t as {exponent: coefficient}: 1 + ... + t^(m-1), or -(t^-1 + ... + t^m)."""
    if m >= 0:
        return {i: 1 for i in range(m)}
    return {i: -1 for i in range(m, 0)}


def symmetric_state(n: int) -> dict:
    """[n]_v = v^-(n-1) + v^-(n-3) + ... + v^(n-1) for n >= 1."""
    return {2 * i - (n - 1): 1 for i in range(n)}


def rational_state_at_2(r: Fraction, L: int) -> Fraction:
    """(r)_q for q = s^L at s = 2: (1 - 2^(L r)) / (1 - 2^L)."""
    e = r * L
    if e.denominator != 1:
        raise ValueError("L*r must be an integer")
    return (1 - Fraction(2) ** int(e)) / (1 - Fraction(2) ** L)


def stirling1_signed(n: int) -> dict:
    """{k: s(n, k)}, the coefficients of x(x-1)...(x-n+1)."""
    row = {0: 1}
    for j in range(n):
        nxt = {}
        for k, c in row.items():
            nxt[k + 1] = nxt.get(k + 1, 0) + c
            nxt[k] = nxt.get(k, 0) - j * c
        row = {k: c for k, c in nxt.items() if c}
    return row


def shifted_falling(n: int, c: int) -> dict:
    """{j: coefficient of x^j} in (x+c)(x+c-1)...(x+c-n+1), which is
    sum_k s(n, k) (x+c)^k expanded."""
    out = {}
    for k, s in stirling1_signed(n).items():
        for j in range(k + 1):
            out[j] = out.get(j, 0) + s * math.comb(k, j) * c ** (k - j)
    return {j: v for j, v in out.items() if v}


def rising_factorial(n: int) -> dict:
    """{k: c(n, k)}, the coefficients of x(x+1)...(x+n-1)."""
    return {k: abs(c) for k, c in stirling1_signed(n).items()}


def stirling2(n: int) -> dict:
    """{k: S(n, k)}: x^n = sum_k S(n, k) x(x-1)...(x-k+1)."""
    row = {0: 1}
    for _ in range(n):
        nxt = {}
        for k, c in row.items():
            nxt[k] = nxt.get(k, 0) + k * c
            nxt[k + 1] = nxt.get(k + 1, 0) + c
        row = {k: c for k, c in nxt.items() if c}
    return row


# ---------------------------------------------------------------------------
# finite rings Z/n[X]/(mu), mu monic; Z/n itself is the case mu = X
# ---------------------------------------------------------------------------


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def multiplicative_order(q: int, n: int) -> int:
    """Order of q in (Z/n)^*, n prime, from the factorisation of n - 1."""
    order = n - 1
    for f in prime_factors(n - 1):
        while order % f == 0 and pow(q, order // f, n) == 1:
            order //= f
    return order


def fp_gcd_is_one(a, b, p: int) -> bool:
    """Whether dense polynomials a, b over Z/p (p prime) are coprime."""

    def strip(cs):
        cs = [c % p for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    a, b = strip(a), strip(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for j, d in enumerate(b):
                a[shift + j] = (a[shift + j] - c * d) % p
            a = strip(a)
            if not a:
                break
        a, b = b, a
    return len(a) == 1


class FiniteModel:
    """Z/n[X]/(mu) with elements as length-d tuples of residues."""

    def __init__(self, n: int, mu=(0, 1)):
        mu = [c % n for c in mu]
        if mu[-1] != 1:
            raise ValueError("modulus must be monic")
        self.n = n
        self.mu = mu
        self.d = len(mu) - 1
        self.primes = prime_factors(n)
        self._verdicts = {}

    @property
    def cardinality(self) -> int:
        return self.n**self.d

    def elem(self, cs) -> tuple:
        cs = [c % self.n for c in cs]
        while len(cs) > self.d:
            c = cs.pop()
            shift = len(cs) - self.d
            for j in range(self.d):
                cs[shift + j] = (cs[shift + j] - c * self.mu[j]) % self.n
        return tuple(cs + [0] * (self.d - len(cs)))

    def add(self, a, b) -> tuple:
        return tuple((x + y) % self.n for x, y in zip(a, b))

    def mul(self, a, b) -> tuple:
        out = [0] * (2 * self.d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self.elem(out)

    @property
    def zero(self):
        return (0,) * self.d

    @property
    def one(self):
        return self.elem([1])

    def is_unit(self, a) -> bool:
        """A unit mod n exactly when it is a unit mod every prime p | n.

        The kernel of Z/n[X]/(mu) -> prod_p Z/p[X]/(mu) is nilpotent, and in
        Z/p[X]/(mu) the units are the residues coprime to mu.
        """
        return all(fp_gcd_is_one(list(a), self.mu, p) for p in self.primes)

    def brute_is_unit(self, a) -> bool:
        one = self.one
        return any(self.mul(a, b) == one for b in self.elements())

    def elements(self):
        for idx in range(self.cardinality):
            cs, v = [], idx
            for _ in range(self.d):
                cs.append(v % self.n)
                v //= self.n
            yield tuple(cs)

    def state_orbit(self, q):
        """[(m, (m)_q)] for m = 0, 1, ... until the pair ((m)_q, q^m) repeats."""
        seen, out = set(), []
        s, pw, m = self.zero, self.one, 0
        while (s, pw) not in seen:
            seen.add((s, pw))
            out.append((m, s))
            s, pw, m = self.add(s, pw), self.mul(pw, q), m + 1
        return out

    def q_characteristic(self, q) -> int:
        """Least m >= 1 with (m)_q = 0, or 0 when the orbit repeats first."""
        seen = set()
        s, pw, m = self.zero, self.one, 0
        while (s, pw) not in seen:
            seen.add((s, pw))
            s, pw, m = self.add(s, pw), self.mul(pw, q), m + 1
            if s == self.zero:
                return m
        return 0

    def flatness(self, q):
        """(flat, divisible, least m with (m)_q nonzero and not a unit).

        In a finite ring every nonzero nonunit is a zero divisor, so the ring
        is q-flat exactly when it is q-divisible.
        """
        for m, s in self.state_orbit(q):
            if s != self.zero and not self.is_unit(s):
                return False, False, m
        return True, True, None

    def certificate_problem(self, q, flat, divisible, nonunit, witness):
        """None when a flatness certificate for q is right, else what is wrong.

        ``witness`` is None or (m, a) with a as a coefficient list: it must
        have a != 0 and (m)_q * a = 0, at the least non-unit state.
        """
        if q not in self._verdicts:
            self._verdicts[q] = self.flatness(q), dict(self.state_orbit(q))
        expected, states = self._verdicts[q]
        if (flat, divisible, nonunit) != expected:
            return f"got flat={flat} divisible={divisible} nonunit={nonunit}, expected {expected}"
        if flat:
            return None if witness is None else "torsion witness on a flat ring"
        m, a = witness
        a = self.elem(a)
        if m != expected[2] or a == self.zero or self.mul(states[m], a) != self.zero:
            return f"bad torsion witness ({m}, {a})"
        return None


def qchar_mod(n: int, q: int) -> int:
    """Plain-int search for the least m with sum_{i<m} q^i = 0 mod n (0: none)."""
    seen = set()
    s, pw, m = 0, 1 % n, 0
    while (s, pw) not in seen:
        seen.add((s, pw))
        s, pw, m = (s + pw) % n, pw * q % n, m + 1
        if s == 0:
            return m
    return 0


def qchar_prime(q: int, p: int) -> int:
    """Quantum characteristic of q in Z/p, p prime and q != 0 mod p."""
    if q % p == 1:
        return p
    return multiplicative_order(q % p, p)


def gaussian_mod(n: int, k: int, q: int, mod: int) -> int:
    return poly_at(gaussian_coeffs(n, k), q) % mod


# ---------------------------------------------------------------------------
# case counts of the cataloged identities
# ---------------------------------------------------------------------------


def identity_problem(name, ranges, failures, cases, p=None, invertible=True):
    """None when an identity run found no counterexample and checked the case
    count its ranges imply (any count > 0 where none is tabulated)."""
    if failures:
        return f"{name}: {len(failures)} counterexamples"
    expected = identity_cases(name, ranges, p, invertible)
    if cases == expected or (expected is None and cases > 0):
        return None
    return f"{name}: {cases} cases, expected {expected}"


def identity_cases(name: str, ranges: dict, p: int | None = None, invertible: bool = True):
    """Number of cases run_identity checks for these ranges, or None if not tabulated.

    p is the quantum characteristic where the identity needs it; invertible
    says whether q is a unit, which widens the m ranges to negative values.
    """
    if name == "chu_vandermonde":
        top = ranges["nm_max"]
        return sum(n + m + 1 for n in range(top + 1) for m in range(top - n + 1))
    if name == "cyclo_binom":
        return sum((n + 1) * max(1, n) for n in range(ranges["n_max"] + 1))
    if name == "cyclo_fact":
        return ranges["n_max"] + 1
    if name == "cyclo_int":
        return ranges["n_max"]
    if name in ("pascal", "symmetry"):
        return sum(n + 1 for n in range(ranges["n_max"] + 1))
    if name == "twisted_binomial":
        return ranges["n_max"] + 1
    if name == "mov":
        top = ranges["nm_max"]
        return 2 * sum(1 for n in range(top + 1) for m in range(top + 1) if n * m <= top)
    lo = -ranges.get("m_max", 0) if invertible else 0
    span = range(lo, ranges.get("m_max", 0) + 1)
    if name == "explicit":
        return len(span)
    if name == "addmul":
        return 2 * len(span) ** 2
    if name == "divp":
        return len(span) + sum(1 for m in span if math.gcd(m, p) == 1) + 1
    if name == "lucas":
        return (ranges["n_max"] + 1) * (ranges["k_max"] + 1) * p * p
    if name == "qbin_vanish":
        return p + 1 + 6
    return None
