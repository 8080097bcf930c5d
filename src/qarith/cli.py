"""Command-line front end: ring/element parsing, evaluation, verification, tables.

Ring grammar::

    ring := "Z" | "Z/" nat | "Z[i]" | "Z[t]" | "Z[t,1/t]" | "Q(t)"
          | "Cyclo(" nat ")" | ("Z/" nat | "Q") "[" var "]/(" poly ")"
          | "Q(t^(1/" nat "))"

Elements use ASCII expressions in the ring's atoms: integer literals, the
ring variable (``i`` for Z[i]), ``+ - * / ^`` and parentheses;  fractional
powers like ``t^(1/6)`` are available in ``Q(t^(1/L))``.  Exit codes for
``verify``: 0 all pass, 1 counterexample found, 2 hypotheses unmet,
3 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import re
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from . import cyclotomic as cyc
from .errors import DomainError, NotInvertibleError, ParseError, QArithError, UnsupportedError
from .ntheory import is_prime
from .qnum import (
    QContext,
    certify_flatness,
    q_binomial,
    q_characteristic,
    q_factorial,
    q_state,
    symmetric_state,
)
from .qrational import (
    induced_root_system,
    q_state_rational,
    rational_power,
    standard_root_system,
)
from .rings import (
    ZZ,
    QQ,
    ZI,
    CyclotomicRing,
    LaurentRing,
    ModularRing,
    PolynomialRing,
    QuotientRing,
    RationalFunctionField,
    Ring,
    RingElement,
)
from .twisted import (
    TwistedAlgebra,
    TwistedPowerBasis,
    expand_in_twisted_basis,
    twisted_power,
    twisted_power_compose,
    twisted_binomial_check,
    affine_orbit,
    _affine_data,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# element expressions
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


def _int_literal(digits, position=None):
    """int(digits); a literal past CPython's int/str digit limit is a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too long", position) from None


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos and not m.group(0).strip():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = pos + len(text[pos:]) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            tokens.append(("int", _int_literal(m.group(1), m.start(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        elif m.group(3) is not None:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
        if m.end() == m.start():
            break
    remainder = text[pos:].strip()
    if remainder:
        raise ParseError(f"unexpected character {remainder[0]!r}", pos)
    return tokens


class _ExprParser:
    def __init__(self, ring, text):
        self.ring = ring
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.atoms = {name: RingElement(ring, p) for name, p in ring.atoms().items()}

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("end", None, len(self.text))

    def take(self, kind=None, value=None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {value or kind}, found {tok[1]!r}", tok[2])
        if value is not None and tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse(self):
        v = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return v

    def expr(self):
        v = self.term()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.take()
                rhs = self.term()
                v = v + rhs if tok[1] == "+" else v - rhs
            else:
                return v

    def term(self):
        v = self.unary()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "*/":
                self.take()
                rhs = self.unary()
                if tok[1] == "*":
                    v = v * rhs
                else:
                    try:
                        v = v / rhs
                    except NotInvertibleError as exc:
                        raise ParseError(str(exc), tok[2]) from exc
            elif tok[0] == "name" or (tok[0] == "op" and tok[1] == "("):
                # implicit multiplication: 2t^2, 3(1+t)
                v = v * self.power()
            else:
                return v

    def unary(self):
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "-":
            self.take()
            return -self.unary()
        if tok[0] == "op" and tok[1] == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        v = self.atom()
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "^":
            self.take()
            e = self.exponent()
            try:
                return v**e
            except (DomainError, NotInvertibleError) as exc:
                raise ParseError(str(exc), tok[2]) from exc
        return v

    def exponent(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            return tok[1]
        if tok[0] == "op" and tok[1] == "-":
            self.take()
            return -self.take("int")[1]
        if tok[0] == "op" and tok[1] == "(":
            self.take()
            sign = 1
            if self.peek()[:2] == ("op", "-"):
                self.take()
                sign = -1
            num = self.take("int")[1]
            if self.peek()[:2] == ("op", "/"):
                self.take()
                den = self.take("int")[1]
                out = Fraction(sign * num, den)
            else:
                out = sign * num
            self.take("op", ")")
            return out
        raise ParseError(f"bad exponent {tok[1]!r}", tok[2])

    def atom(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            return self.ring.from_int(tok[1])
        if tok[0] == "name":
            self.take()
            if tok[1] not in self.atoms:
                raise ParseError(f"unknown name {tok[1]!r} in {self.ring}", tok[2])
            return self.atoms[tok[1]]
        if tok[0] == "op" and tok[1] == "(":
            self.take()
            v = self.expr()
            self.take("op", ")")
            return v
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse_element(ring: Ring, text: str) -> RingElement:
    """Parse an element expression in the given ring's surface syntax."""
    return _ExprParser(ring, text).parse()


# ---------------------------------------------------------------------------
# ring grammar
# ---------------------------------------------------------------------------

_QUOT_RE = re.compile(r"(Z/(\d+)|Q)\[([A-Za-z])\]/\((.*)\)\s*$")
_MOD_RE = re.compile(r"Z/(\d+)\s*$")
_POLY_RE = re.compile(r"Z\[([A-Za-z])\]\s*$")
_LAURENT_RE = re.compile(r"Z\[([A-Za-z]),\s*1/([A-Za-z])\]\s*$")
_FRAC_RE = re.compile(r"Q\(([A-Za-z])\)\s*$")
_PUISEUX_RE = re.compile(r"Q\(([A-Za-z])\^\(1/(\d+)\)\)\s*$")
_CYCLO_RE = re.compile(r"Cyclo\((\d+)\)\s*$")


def parse_ring(text: str) -> Ring:
    """Parse the ring mini-language; see the module docstring for the grammar."""
    s = text.strip()
    if s == "Z":
        return ZZ
    if s == "Q":
        return QQ
    if s == "Z[i]":
        return ZI
    m = _QUOT_RE.match(s)
    if m:
        base = QQ if m.group(1) == "Q" else ModularRing(_int_literal(m.group(2)))
        polyring = PolynomialRing(base, m.group(3))
        modulus = parse_element(polyring, m.group(4))
        return QuotientRing(polyring, modulus)
    m = _MOD_RE.match(s)
    if m:
        return ModularRing(_int_literal(m.group(1)))
    m = _LAURENT_RE.match(s)
    if m:
        if m.group(1) != m.group(2):
            raise ParseError(f"mismatched Laurent variable in {text!r}")
        return LaurentRing(ZZ, m.group(1))
    m = _POLY_RE.match(s)
    if m:
        return PolynomialRing(ZZ, m.group(1))
    m = _PUISEUX_RE.match(s)
    if m:
        return RationalFunctionField(m.group(1), _int_literal(m.group(2)))
    m = _FRAC_RE.match(s)
    if m:
        return RationalFunctionField(m.group(1))
    m = _CYCLO_RE.match(s)
    if m:
        return CyclotomicRing(_int_literal(m.group(1)))
    raise ParseError(f"unrecognized ring {text!r}")


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------


@dataclass
class CaseFailure:
    inputs: dict
    lhs: str
    rhs: str


@dataclass
class VerificationReport:
    identity: str
    ring: str
    q: str | None
    ranges: dict
    cases: int
    failures: list
    seconds: float

    @property
    def exit_code(self):
        """0 when every case held, 1 on a counterexample, 2 when no case was
        checked: a run that verified nothing must not read as a pass."""
        if self.failures:
            return 1
        return 0 if self.cases else 2

    def render_text(self):
        lines = [
            f"identity={self.identity} ring={self.ring}"
            + (f" q={self.q}" if self.q is not None else "")
            + f" cases={self.cases} failures={len(self.failures)}"
            + f" time={self.seconds:.3f}s"
        ]
        for f in self.failures:
            ins = " ".join(f"{k}={v}" for k, v in f.inputs.items())
            lines.append(f"FAIL {ins} lhs={f.lhs} rhs={f.rhs}")
        return "\n".join(lines)

    def to_json_payload(self):
        return {
            "identity": self.identity,
            "ring": self.ring,
            "q": self.q,
            "ranges": {k: v for k, v in sorted(self.ranges.items())},
            "cases": self.cases,
            "failures": [
                {"inputs": {k: str(v) for k, v in f.inputs.items()}, "lhs": f.lhs, "rhs": f.rhs}
                for f in self.failures
            ],
        }


class HypothesesUnmet(Exception):
    pass


class UsageError(Exception):
    """A command line whose options do not fit together (exit code 3)."""


class _Recorder:
    def __init__(self):
        self.cases = 0
        self.failures = []

    def check(self, inputs, lhs, rhs):
        self.cases += 1
        if lhs != rhs:
            self.failures.append(CaseFailure(dict(inputs), str(lhs), str(rhs)))

    def ensure(self, inputs, condition, detail):
        self.cases += 1
        if not condition:
            self.failures.append(CaseFailure(dict(inputs), detail, "violated"))


def _sigma_algebra(ring, sigma_text):
    """R[x] with sigma(x) given by an element expression in x."""
    alg = TwistedAlgebra(ring, ("x",))
    return alg.set_sigma({"x": parse_element(alg, sigma_text)})


class _Env:
    def __init__(self, ring, q, ranges, sample=None, seed=0, sigma_text=None, h_text=None):
        self.ring = ring
        self.q = q
        self.ctx = None if q is None else QContext(ring, q)
        self.ranges = ranges
        self.rng = random.Random(seed)
        self.sample = sample
        self.sigma_text = sigma_text
        self.h_text = h_text

    def pick(self, items):
        items = list(items)
        if self.sample is None or len(items) <= self.sample:
            return items
        return self.rng.sample(items, self.sample)

    def require_q(self):
        if self.ctx is None:
            raise DomainError("this identity needs --q (and the ring has no default)")
        return self.ctx

    def finite_char(self):
        ctx = self.require_q()
        qc = q_characteristic(ctx, bound=self.ranges.get("bound", 10**6))
        if not qc.is_finite:
            raise HypothesesUnmet(f"quantum characteristic is {qc}, need finite")
        return qc.p

    def flat_certificate(self):
        ctx = self.require_q()
        try:
            return certify_flatness(ctx)
        except UnsupportedError as exc:
            raise HypothesesUnmet(f"flatness certification unsupported: {exc}")

    def affine_algebra(self):
        """Univariate algebra R[x] with sigma from --sigma, or q*x + h."""
        if self.sigma_text is not None:
            return _sigma_algebra(self.ring, self.sigma_text)
        scale = self.require_q().q
        shift = parse_element(self.ring, self.h_text) if self.h_text else self.ring.one
        return TwistedAlgebra.univariate_affine(self.ring, scale, shift)


def _pascal_oracle(ctx):
    """(n, k) -> q-binomial, 0 <= k <= n, from Pascal rows of elements grown
    on demand, apart from ``q_binomial`` and its caches."""
    one = ctx.ring.one
    rows = [[one]]

    def direct(n, k):
        while len(rows) <= n:
            prev = rows[-1]
            inner = [prev[j - 1] + ctx.q_power(j) * prev[j] for j in range(1, len(prev))]
            rows.append([one] + inner + [prev[-1]])
        return rows[n][k]

    return direct


def _iv_pascal(env, rec):
    ctx = env.require_q()
    direct = _pascal_oracle(ctx)
    for n in env.pick(range(env.ranges["n_max"] + 1)):
        for k in range(n + 1):
            rec.check({"n": n, "k": k}, q_binomial(ctx, n, k), direct(n, k))


def _iv_explicit(env, rec):
    ctx = env.require_q()
    m_max = env.ranges["m_max"]
    lo = -m_max if ctx.q_inverse is not None else 0
    one = env.ring.one
    for m in env.pick(range(lo, m_max + 1)):
        rec.check({"m": m}, (one - ctx.q) * q_state(ctx, m), one - ctx.q_power(m))


def _iv_addmul(env, rec):
    ctx = env.require_q()
    m_max = env.ranges["m_max"]
    lo = -m_max if ctx.q_inverse is not None else 0
    span = range(lo, m_max + 1)
    power_ctxs = {}
    for m in env.pick(span):
        pm = ctx.q_power(m)
        sub = power_ctxs.get(m)
        if sub is None:
            inv = ctx.q_power(-m) if ctx.q_inverse is not None else None
            sub = power_ctxs[m] = QContext(env.ring, pm, q_inverse=inv)
        for n in span:
            rec.check(
                {"law": "add", "m": m, "n": n},
                q_state(ctx, m + n),
                q_state(ctx, m) + pm * q_state(ctx, n),
            )
            rec.check(
                {"law": "mul", "m": m, "n": n},
                q_state(ctx, m * n),
                q_state(ctx, m) * q_state(sub, n),
            )


def _iv_divp(env, rec):
    ctx = env.require_q()
    p = env.finite_char()
    m_max = env.ranges["m_max"]
    for m in env.pick(range(-m_max if ctx.q_inverse is not None else 0, m_max + 1)):
        rec.check({"law": "periodic", "m": m, "p": p}, q_state(ctx, m), q_state(ctx, m % p))
        if math.gcd(m, p) == 1:
            rec.ensure(
                {"law": "unit", "m": m, "p": p},
                q_state(ctx, m).try_invert() is not None,
                f"({m})_q invertible",
            )
    zeros = {m for m in range(5 * p + 1) if q_state(ctx, m).is_zero()}
    rec.check({"law": "zero-set", "p": p}, sorted(zeros), list(range(0, 5 * p + 1, p)))


def _iv_even(env, rec):
    cert = env.flat_certificate()
    if not cert.flat:
        raise HypothesesUnmet("ring is not q-flat")
    p = env.finite_char()
    if p % 2 == 0:
        k = p // 2
        rec.check({"p": p, "k": k}, env.ctx.q_power(k), -env.ring.one)


def _iv_prim(env, rec):
    p = env.finite_char()
    if p >= 2 and all(p % d for d in range(2, p)):
        cert = env.flat_certificate()
        rec.ensure({"p": p}, cert.divisible, "divisible for prime quantum characteristic")


def _iv_qbin_vanish(env, rec):
    ctx = env.require_q()
    p = env.finite_char()
    cert = env.flat_certificate()
    if not cert.flat:
        raise HypothesesUnmet("ring is not q-flat")
    for k in range(p + 1):
        expected = env.ring.one if k in (0, p) else env.ring.zero
        rec.check({"p": p, "k": k}, q_binomial(ctx, p, k), expected)
    for m in range(p, p + 6):
        rec.check({"factorial_at": m}, q_factorial(ctx, m), env.ring.zero)


def _iv_symmetry(env, rec):
    ctx = env.require_q()
    for n in env.pick(range(env.ranges["n_max"] + 1)):
        for k in range(n + 1):
            rec.check({"n": n, "k": k}, q_binomial(ctx, n, k), q_binomial(ctx, n, n - k))


def _iv_transitivity(env, rec):
    ctx = env.require_q()
    n_max = env.ranges["n_max"]
    for n in env.pick(range(n_max + 1)):
        for j in range(n + 1):
            for k in range(n + 1):
                rec.check(
                    {"n": n, "j": j, "k": k},
                    q_binomial(ctx, n, j) * q_binomial(ctx, j, k),
                    q_binomial(ctx, n, k) * q_binomial(ctx, n - k, n - j),
                )


def _iv_chu_vandermonde(env, rec):
    ctx = env.require_q()
    nm_max = env.ranges["nm_max"]
    for n in env.pick(range(nm_max + 1)):
        for m in range(nm_max - n + 1):
            for k in range(n + m + 1):
                rhs = env.ring.zero
                for i in range(max(0, k - m), min(k, n) + 1):
                    rhs = rhs + ctx.q_power(i * (m - k + i)) * q_binomial(ctx, n, i) * q_binomial(ctx, m, k - i)
                rec.check({"n": n, "m": m, "k": k}, q_binomial(ctx, n + m, k), rhs)


def _iv_lucas(env, rec):
    ctx = env.require_q()
    p = env.finite_char()
    cert = env.flat_certificate()
    if not cert.flat:
        raise HypothesesUnmet("ring is not q-flat")
    n_max, k_max = env.ranges["n_max"], env.ranges["k_max"]
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            binom = env.ring.from_int(math.comb(n, k))
            for i in range(p):
                for j in range(p):
                    rec.check(
                        {"n": n, "k": k, "i": i, "j": j, "p": p},
                        q_binomial(ctx, n * p + i, k * p + j),
                        binom * q_binomial(ctx, i, j),
                    )


def _iv_binomial_formula(env, rec):
    ctx = env.require_q()
    alg = TwistedAlgebra(env.ring, ("x", "y"))
    x, y = alg.gen("x"), alg.gen("y")
    for n in env.pick(range(env.ranges["n_max"] + 1)):
        lhs = alg.one
        for i in range(n):
            lhs = lhs * (alg.scalar(ctx.q_power(i)) * x + y)
        rhs = alg.zero
        for k in range(n + 1):
            rhs = rhs + alg.scalar(ctx.q_power(k * (k - 1) // 2) * q_binomial(ctx, n, k)) * x**k * y ** (n - k)
        rec.check({"n": n}, lhs, rhs)


def _iv_cyclo_int(env, rec):
    ctx = env.require_q()
    for n in env.pick(range(1, env.ranges["n_max"] + 1)):
        rec.check(
            {"n": n},
            q_state(ctx, n),
            cyc.evaluate_factors(cyc.factor_q_integer(n), ctx.q),
        )


def _iv_cyclo_fact(env, rec):
    ctx = env.require_q()
    for n in env.pick(range(env.ranges["n_max"] + 1)):
        rec.check(
            {"n": n},
            q_factorial(ctx, n),
            cyc.evaluate_factors(cyc.factor_q_factorial(n), ctx.q),
        )


def _iv_cyclo_binom(env, rec):
    # against the Pascal recursion, not q_binomial, which reads rows above
    # PASCAL_MAX_ROW off this same cyclotomic product
    ctx = env.require_q()
    direct = _pascal_oracle(ctx)
    for n in env.pick(range(env.ranges["n_max"] + 1)):
        for k in range(n + 1):
            rec.check(
                {"n": n, "k": k},
                direct(n, k),
                cyc.evaluate_factors(cyc.factor_q_binomial(n, k), ctx.q),
            )
            for m in range(2, n + 1):
                gap = n // m - k // m - (n - k) // m
                rec.ensure({"n": n, "k": k, "m": m}, gap in (0, 1), "floor dichotomy")


def _iv_rational_state(env, rec):
    if not isinstance(env.ring, RationalFunctionField):
        raise HypothesesUnmet("rational states need a Q(t) or Q(t^(1/L)) carrier ring")
    L = env.ring.denominator
    sys_ = standard_root_system(cyc.divisors(L))
    if not sys_.admissible:
        raise HypothesesUnmet("root system is not admissible")
    ctx = sys_.ctx
    one = ctx.ring.one
    r_max = env.ranges["r_max"]
    grid = [Fraction(a, L) for a in range(-r_max * L, r_max * L + 1)]
    states, powers = {}, {}

    def st(r):
        if r not in states:
            states[r] = q_state_rational(sys_, r)
        return states[r]

    def pw(r):
        if r not in powers:
            powers[r] = rational_power(sys_, r)
        return powers[r]

    for r in env.pick(grid):
        rec.check({"law": "explicit", "r": r}, (one - ctx.q) * st(r), one - pw(r))
        if r.denominator == 1:
            rec.check({"law": "integer", "r": r}, st(r), q_state(ctx, int(r)))
        n = r.denominator
        for k in (2, 3):
            if L % (k * n) == 0:
                kn_ctx = sys_.root_context(k * n)
                alt = q_state(kn_ctx, int(r * k * n)) * q_state(kn_ctx, k * n).inverse()
                rec.check({"law": "representation", "r": r, "k": k}, st(r), alt)
    for r1 in env.pick(grid):
        try:
            induced = induced_root_system(sys_, r1)
        except QArithError:
            induced = None
        for r2 in grid:
            rec.check({"law": "add", "r1": r1, "r2": r2}, st(r1 + r2), st(r1) + pw(r1) * st(r2))
            rr = r1 * r2
            if induced is not None and L % rr.denominator == 0:
                try:
                    second = q_state_rational(induced, r2)
                except QArithError:
                    continue
                rec.check({"law": "mul", "r1": r1, "r2": r2}, st(rr), st(r1) * second)


def _iv_sigmaen(env, rec):
    ctx = env.require_q()
    alg = env.affine_algebra()
    q, h = _affine_data(alg)
    x = alg.gen(alg.gens[0])
    n_max = env.ranges["n_max"]
    for n in env.pick(range(n_max + 1)):
        orbit = affine_orbit(alg, n)  # cross-checks against iteration internally
        rec.check({"n": n}, orbit, alg.scalar(ctx.q_power(n)) * x + alg.scalar(q_state(ctx, n) * h))
        rec.check({"law": "difference", "n": n}, x - alg.sigma_iter(x, n), alg.scalar(q_state(ctx, n)) * (x - alg.sigma(x)))
    if ctx.q_inverse is not None:
        for n in env.pick(range(1, n_max + 1)):
            back = affine_orbit(alg, -n)
            rec.check({"law": "inverse-orbit", "n": n}, alg.sigma_iter(back, n), x)


def _iv_sigit(env, rec):
    alg = env.affine_algebra()
    trials = env.ranges["trials"]
    for t in range(trials):
        f = alg.random_element(env.rng)
        g = alg.random_element(env.rng)
        for n in range(4):
            for m in range(4):
                rec.check(
                    {"law": "split", "trial": t, "n": n, "m": m},
                    twisted_power(alg, f, n) * alg.sigma_iter(twisted_power(alg, f, m), n),
                    twisted_power(alg, f, n + m),
                )
        for n in range(4):
            rec.check(
                {"law": "product", "trial": t, "n": n},
                twisted_power(alg, f * g, n),
                twisted_power(alg, f, n) * twisted_power(alg, g, n),
            )
        for k in range(3):
            for n in range(4):
                rec.check(
                    {"law": "shift", "trial": t, "k": k, "n": n},
                    alg.sigma_iter(twisted_power(alg, f, n), k),
                    twisted_power(alg, alg.sigma_iter(f, k), n),
                )


def _iv_mov(env, rec):
    alg = env.affine_algebra()
    x = alg.gen(alg.gens[0])
    nm_max = env.ranges["nm_max"]
    for n in range(nm_max + 1):
        for m in range(nm_max + 1):
            if n * m > nm_max:
                continue
            lhs, mid, rhs = twisted_power_compose(alg, x, n, m)
            rec.check({"n": n, "m": m, "side": "outer-sigma"}, lhs, rhs)
            rec.check({"n": n, "m": m, "side": "outer-sigma^n"}, mid, rhs)


def _iv_twisted_binomial(env, rec):
    ctx = env.require_q()
    alg = TwistedAlgebra(env.ring, ("x", "y"))
    alg.set_sigma({"x": alg.scalar(ctx.q) * alg.gen("x")})
    for n in env.pick(range(env.ranges["n_max"] + 1)):
        report = twisted_binomial_check(alg, alg.gen("x"), alg.gen("y"), n)
        rec.check({"n": n}, report.lhs, report.rhs)


def _iv_frobenius(env, rec):
    ctx = env.require_q()
    p = env.finite_char()
    cert = env.flat_certificate()
    if not cert.flat:
        raise HypothesesUnmet("ring is not q-flat")
    alg = TwistedAlgebra(env.ring, ("x", "y"))
    alg.set_sigma({"x": alg.scalar(ctx.q) * alg.gen("x")})
    x, y = alg.gen("x"), alg.gen("y")
    rec.check(
        {"p": p},
        twisted_power(alg, x + y, p),
        twisted_power(alg, x, p) + twisted_power(alg, y, p),
    )


def _iv_artin_schreier(env, rec):
    ring = env.ring
    p = ring.characteristic
    if not is_prime(p):
        raise HypothesesUnmet("ring must have prime characteristic")
    if env.h_text is not None:
        hs = [parse_element(ring, env.h_text)]
    elif ring.finite and ring.cardinality <= 64:
        hs = list(ring.elements())
    else:
        hs = [ring.one]
    for h in hs:
        alg = TwistedAlgebra.univariate_affine(ring, ring.one, h)
        x = alg.gen("x")
        rec.check(
            {"h": h},
            twisted_power(alg, x, p),
            x**p - alg.scalar(h ** (p - 1)) * x,
        )


def _iv_sign_rule(env, rec):
    ctx = env.require_q()
    p = env.finite_char()
    alg = TwistedAlgebra.diagonal(env.ring, {"x": ctx.q})
    x = alg.gen("x")
    value = twisted_power(alg, x, p)
    if p % 2 == 1:
        rec.check({"p": p, "parity": "odd"}, value, x**p)
    else:
        cert = env.flat_certificate()
        if not cert.flat:
            raise HypothesesUnmet("even case of the sign rule needs q-flatness")
        rec.check({"p": p, "parity": "even"}, value, -(x**p))


IDENTITIES = {
    "pascal": (_iv_pascal, {"n_max": 12}),
    "explicit": (_iv_explicit, {"m_max": 20}),
    "addmul": (_iv_addmul, {"m_max": 12}),
    "divp": (_iv_divp, {"m_max": 20}),
    "even": (_iv_even, {}),
    "prim": (_iv_prim, {}),
    "qbin_vanish": (_iv_qbin_vanish, {}),
    "symmetry": (_iv_symmetry, {"n_max": 20}),
    "transitivity": (_iv_transitivity, {"n_max": 12}),
    "chu_vandermonde": (_iv_chu_vandermonde, {"nm_max": 16}),
    "lucas": (_iv_lucas, {"n_max": 3, "k_max": 3}),
    "binomial_formula": (_iv_binomial_formula, {"n_max": 6}),
    "cyclo_int": (_iv_cyclo_int, {"n_max": 60}),
    "cyclo_fact": (_iv_cyclo_fact, {"n_max": 30}),
    "cyclo_binom": (_iv_cyclo_binom, {"n_max": 24}),
    "rational_state": (_iv_rational_state, {"r_max": 3}),
    "sigmaen": (_iv_sigmaen, {"n_max": 12}),
    "sigit": (_iv_sigit, {"trials": 5}),
    "mov": (_iv_mov, {"nm_max": 12}),
    "twisted_binomial": (_iv_twisted_binomial, {"n_max": 8}),
    "frobenius": (_iv_frobenius, {}),
    "artin_schreier": (_iv_artin_schreier, {}),
    "sign_rule": (_iv_sign_rule, {}),
}


def run_identity(name, ring, q, ranges=None, sample=None, seed=0, sigma_text=None, h_text=None) -> VerificationReport:
    """Run one cataloged identity exhaustively over its ranges."""
    if name not in IDENTITIES:
        raise DomainError(f"unknown identity {name!r}")
    if sample is not None and sample < 0:
        raise DomainError(f"sample must be non-negative, got {sample}")
    fn, defaults = IDENTITIES[name]
    merged = dict(defaults)
    if ranges:
        merged.update({k: v for k, v in ranges.items() if v is not None})
    env = _Env(ring, q, merged, sample=sample, seed=seed, sigma_text=sigma_text, h_text=h_text)
    rec = _Recorder()
    start = time.perf_counter()
    fn(env, rec)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        identity=name,
        ring=str(ring),
        q=None if q is None else str(q),
        ranges=merged,
        cases=rec.cases,
        failures=rec.failures,
        seconds=elapsed,
    )


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


class _ArgParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _count(text):
    """argparse type for counts and ranges (--bound, --sample, --n-max, ...): an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _arg(*flags, **options):
    return flags, options


def _str(x):
    return None if x is None else str(x)


def _resolve_ring_q(args, q_mode):
    """The ring of --ring, and q from --q or else the ring's generator.

    A missing q is an error for q_mode "default" and stays None for
    "optional"; q_mode None takes no q at all.
    """
    ring = parse_ring(args.ring)
    if q_mode is None:
        return ring, None
    q = parse_element(ring, args.q) if args.q is not None else ring.generator
    if q is None and q_mode == "default":
        raise DomainError(f"ring {ring} has no default q; pass --q")
    return ring, q


# Handlers take (args, ring, q) and return (JSON fields, text, exit code);
# the fields are laid over schema_version/ring/q/op/args.  They call library
# functions by their module-level names, so a wrapper rebound on this module
# (perfbench's tracer) sees every call.


def _value(value):
    """Handler output of a command whose answer is one element."""
    return {"result": str(value)}, str(value), 0


def _qrat(args, ring, q):
    if not isinstance(ring, RationalFunctionField):
        raise DomainError("qrat needs a Q(t) or Q(t^(1/L)) ring")
    try:
        r = Fraction(args.r)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"expected a rational like 2/3 or -1/2, got {args.r!r}") from exc
    return _value(q_state_rational(standard_root_system(cyc.divisors(ring.denominator)), r))


def _qchar(args, ring, q):
    res = q_characteristic(QContext(ring, q), bound=args.bound)
    result = {"p": res.p, "certified": res.certified, "bound": res.bound}
    return {"result": result, "certificate": {"rule": res.rule}}, str(res), 0


def _qflat(args, ring, q):
    cert = certify_flatness(QContext(ring, q))
    witness = None if cert.witness is None else [cert.witness[0], str(cert.witness[1])]
    result = {"flat": cert.flat, "divisible": cert.divisible, "witness": witness,
              "nonunit_witness": cert.nonunit_witness}
    return {"result": result}, str(cert), 0


def _tpow(args, ring, q):
    alg = _sigma_algebra(ring, args.sigma)
    return _value(twisted_power(alg, parse_element(alg, args.f), args.n))


def _expand(args, ring, q):
    alg = _sigma_algebra(ring, args.sigma)
    coeffs = sorted(expand_in_twisted_basis(TwistedPowerBasis(alg), parse_element(alg, args.f)).items())
    return {"result": {str(i): str(c) for i, c in coeffs}}, "\n".join(f"{i}: {c}" for i, c in coeffs), 0


_RANGES = ("n_max", "k_max", "m_max", "nm_max", "r_max", "trials", "bound")


def _verify(args, ring, q):
    report = run_identity(args.identity, ring, q, ranges={k: getattr(args, k) for k in _RANGES},
                          sample=args.sample, seed=args.seed, sigma_text=args.sigma, h_text=args.h_text)
    fields = {"args": report.ranges, "report": report.to_json_payload()}
    return fields, report.render_text(), report.exit_code


# table kind -> the options it reads, with their defaults; any other option
# given to that kind is a usage error
_TABLES = {
    "gauss_triangle": {"n_max": 4},
    "qstate_orbit": {"ring": None, "q": None, "m_max": 8},
    "cyclo_factors": {"n": 6},
}


def _table(args, ring, q):
    options = _TABLES[args.kind]
    for dest in ("ring", "q", "n_max", "m_max", "n"):
        if getattr(args, dest) is None:
            setattr(args, dest, options.get(dest))
        elif dest not in options:
            raise UsageError(f"table {args.kind} does not take --{dest.replace('_', '-')}")
    if args.kind == "gauss_triangle":
        header = "n,k,polynomial"
        ring = PolynomialRing(ZZ, "t")
        q = ring.generator
        ctx = QContext(ring, q)
        rows = [(n, k, str(q_binomial(ctx, n, k))) for n in range(args.n_max + 1) for k in range(n // 2 + 1)]
    elif args.kind == "qstate_orbit":
        if not args.ring:
            raise DomainError("qstate_orbit needs --ring")
        header = "m,value"
        ring, q = _resolve_ring_q(args, "default")
        ctx = QContext(ring, q)
        rows = [(m, str(q_state(ctx, m))) for m in range(args.m_max + 1)]
    else:  # cyclo_factors
        header = "n,factors"
        rows = [(n, ",".join(str(m) for m in cyc.factor_q_integer(n))) for n in range(1, args.n + 1)]
    lines = [header] + [",".join(str(v) for v in front) + f',"{last}"' for *front, last in rows]
    return {"ring": _str(ring), "q": _str(q), "result": [list(r) for r in rows]}, "\n".join(lines), 0


@dataclass(frozen=True)
class _Command:
    """One subcommand: main() parses its arguments and resolves ring and q
    around the handler, then prints the text or the JSON object."""

    help: str
    handler: Callable  # (args, ring, q) -> (JSON fields, text, exit code)
    arguments: tuple = ()  # (flags, options) for add_argument, after the common ones
    echo: tuple = ()  # parsed arguments copied into the JSON "args"
    q: str | None = "default"  # q_mode for _resolve_ring_q; None: no --q option
    ring: bool = True  # False: no common --ring/--q/--json; the handler reads args
    error_code: int = 1  # exit code for a QArithError


_RING = _arg("--ring", "-R", required=True, help="ring expression, e.g. 'Z[t]' or 'Z/8'")
_Q = _arg("--q", help="element expression for q (default: the ring's generator)")
_JSON = _arg("--json", action="store_true", help="emit a JSON object instead of text")

_COMMANDS = {
    "qint": _Command("q-state of an integer", lambda args, ring, q: _value(q_state(QContext(ring, q), args.m)),
                     (_arg("m", type=int),), echo=("m",)),
    "qfact": _Command("q-factorial", lambda args, ring, q: _value(q_factorial(QContext(ring, q), args.m)),
                      (_arg("m", type=int),), echo=("m",)),
    "qbinom": _Command("q-binomial coefficient (Pascal recursion)",
                       lambda args, ring, q: _value(q_binomial(QContext(ring, q), args.n, args.k)),
                       (_arg("n", type=int), _arg("k", type=int)), echo=("n", "k")),
    "qsym": _Command("symmetric quantum state [n]_v with v = q",
                     lambda args, ring, q: _value(symmetric_state(QContext(ring, q), args.n)),
                     (_arg("n", type=int),), echo=("n",)),
    "qrat": _Command("q-state of a rational (Puiseux carrier ring)", _qrat,
                     (_arg("r", help="rational number like 2/3 or -1/2"),), echo=("r",)),
    "qchar": _Command("quantum characteristic", _qchar,
                      (_arg("--bound", type=_count, default=10**6),), echo=("bound",)),
    "qflat": _Command("flatness/divisibility certificate", _qflat),
    "tpow": _Command("twisted power f^(n) for sigma(x) given by --sigma", _tpow, (
        _arg("--sigma", required=True, help="image of x, e.g. 'x-1' or '2*x'"),
        _arg("--f", default="x", help="element of R[x] to raise (default x)"),
        _arg("n", type=int),
    ), echo=("sigma", "f", "n"), q=None),
    "expand": _Command("expansion of f in the twisted-power basis", _expand, (
        _arg("--sigma", required=True, help="image of x; must be q*x+h with q a unit"),
        _arg("f", help="element of R[x]"),
    ), echo=("sigma", "f"), q=None),
    "verify": _Command("exhaustively verify a cataloged identity", _verify, (
        _arg("identity", choices=sorted(IDENTITIES), metavar="identity",
             help="one of: " + ", ".join(sorted(IDENTITIES))),
        *(_arg("--" + k.replace("_", "-"), type=_count, dest=k) for k in _RANGES),
        _arg("--sample", type=_count, help="randomly sample this many outer cases"),
        _arg("--seed", type=int, default=0),
        _arg("--sigma", help="sigma image for the twisted identities"),
        _arg("--h", dest="h_text", help="shift element for sigmaen/artin_schreier"),
    ), echo=("identity",), q="optional", error_code=3),
    "table": _Command("emit a CSV/JSON table", _table, (
        _arg("kind", choices=list(_TABLES)),
        _arg("--ring", "-R", help="ring for qstate_orbit"),
        _arg("--q", help="q for qstate_orbit"),
        _arg("--n-max", type=_count, dest="n_max"),
        _arg("--m-max", type=_count, dest="m_max"),
        _arg("--n", type=_count),
        _arg("--json", action="store_true"),
    ), echo=("kind",), ring=False),
}


@functools.cache
def _build_parser():
    """The parser for every command in _COMMANDS, built once, on first use."""
    parser = _ArgParser(prog="qarith", description="exact q-analog arithmetic over pluggable rings")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        common = () if not cmd.ring else (_RING, _JSON) if cmd.q is None else (_RING, _Q, _JSON)
        for flags, options in common + cmd.arguments:
            sp.add_argument(*flags, **options)
    return parser


def main(argv=None) -> int:
    """Run one command line (default ``sys.argv[1:]``) and return its exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    cmd = _COMMANDS[args.command]
    ring = q = None
    try:
        if cmd.ring:
            ring, q = _resolve_ring_q(args, cmd.q)
        fields, text, code = cmd.handler(args, ring, q)
    except HypothesesUnmet as exc:
        print(f"hypotheses unmet: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"qarith {args.command}: error: {exc}", file=sys.stderr)
        return 3
    except QArithError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cmd.error_code
    if args.json:
        payload = {"schema_version": SCHEMA_VERSION, "ring": _str(ring), "q": _str(q), "op": args.command}
        payload.update(fields, args={**{k: getattr(args, k) for k in cmd.echo}, **fields.get("args", {})})
        text = json.dumps(payload, sort_keys=True)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
