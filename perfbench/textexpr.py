"""A small exact reader for the values qarith prints.

It turns texts such as ``-(1 + t^(1/3))/(t^(2/3) + t)`` or ``-120*x + 274*x^2``
into a fraction of sparse polynomials in one variable, with Fraction
exponents and coefficients, so the CLI checks can compare printed values
with the oracles exactly.  It shares no code with qarith's parser.
"""

from __future__ import annotations

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pmul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def pneg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


ONE = {0: 1}


def same_value(a, b) -> bool:
    """Equality of two (num, den) pairs as rational functions."""
    return pmul(a[0], b[1]) == pmul(b[0], a[1])


class _Reader:
    def __init__(self, text: str, var: str):
        self.toks = []
        pos = 0
        text = text.strip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m.group(1):
                self.toks.append(("int", int(m.group(1))))
            elif m.group(2):
                self.toks.append(("name", m.group(2)))
            elif m.group(3):
                self.toks.append(("op", m.group(3)))
            pos = m.end()
        self.i = 0
        self.var = var

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("end", None)

    def take(self, expected=None):
        tok = self.peek()
        if expected is not None and tok[1] != expected:
            raise ValueError(f"expected {expected!r}, found {tok[1]!r}")
        self.i += 1
        return tok

    def read(self):
        v = self.expr()
        if self.peek()[0] != "end":
            raise ValueError(f"trailing {self.peek()[1]!r}")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            w = self.term()
            if op == "-":
                w = (pneg(w[0]), w[1])
            v = (padd(pmul(v[0], w[1]), pmul(w[0], v[1])), pmul(v[1], w[1]))
        return v

    def term(self):
        v = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            w = self.unary()
            if op == "*":
                v = (pmul(v[0], w[0]), pmul(v[1], w[1]))
            else:
                if not w[0]:
                    raise ZeroDivisionError("division by zero in printed value")
                v = (pmul(v[0], w[1]), pmul(v[1], w[0]))
        return v

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            v = self.unary()
            return (pneg(v[0]), v[1])
        return self.power()

    def power(self):
        v = self.atom()
        if self.peek() != ("op", "^"):
            return v
        self.take()
        e = self.exponent()
        num, den = v
        if den == ONE and len(num) == 1:
            (k, c), = num.items()
            if e.denominator == 1 or c == 1:
                return ({k * e: c ** int(e) if e.denominator == 1 else c}, ONE)
        if e.denominator != 1:
            raise ValueError("fractional power of a non-monomial")
        n = int(e)
        if n < 0:
            num, den, n = den, num, -n
        out = (ONE, ONE)
        for _ in range(n):
            out = (pmul(out[0], num), pmul(out[1], den))
        return out

    def exponent(self) -> Fraction:
        tok = self.take()
        if tok[0] == "int":
            return Fraction(tok[1])
        if tok == ("op", "-"):
            return -Fraction(self.take()[1])
        if tok == ("op", "("):
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            num = self.take()[1]
            den = 1
            if self.peek() == ("op", "/"):
                self.take()
                den = self.take()[1]
            self.take(")")
            return Fraction(sign * num, den)
        raise ValueError(f"bad exponent {tok[1]!r}")

    def atom(self):
        tok = self.take()
        if tok[0] == "int":
            return ({0: Fraction(tok[1])} if tok[1] else {}, ONE)
        if tok[0] == "name":
            if tok[1] != self.var:
                raise ValueError(f"unknown name {tok[1]!r}")
            return ({Fraction(1): Fraction(1)}, ONE)
        if tok == ("op", "("):
            v = self.expr()
            self.take(")")
            return v
        raise ValueError(f"unexpected {tok[1]!r}")


def read(text: str, var: str = "t"):
    """Parse printed value text into a (num, den) pair of sparse polynomials."""
    num, den = _Reader(text, var).read()
    norm = lambda p: {Fraction(e): Fraction(c) for e, c in p.items()}
    return norm(num), norm(den)


def read_poly(text: str, var: str = "t") -> dict:
    """Parse a printed polynomial (no denominator) into {exponent: coefficient}."""
    num, den = read(text, var)
    if den != {0: 1}:
        if len(den) != 1 or next(iter(den)) != 0:
            raise ValueError(f"{text!r} is not a polynomial")
        c = den[0]
        num = {e: v / c for e, v in num.items()}
    return num


def read_dense(text: str, var: str = "t") -> list[int]:
    """Parse a printed polynomial with integer coefficients and exponents >= 0."""
    poly = read_poly(text, var)
    out = [0] * (int(max(poly)) + 1 if poly else 0)
    for e, c in poly.items():
        if e < 0 or e.denominator != 1 or c.denominator != 1:
            raise ValueError(f"{text!r} is not an integer polynomial")
        out[int(e)] = int(c)
    return out
