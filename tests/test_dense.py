"""The dense polynomial layer of ``rings``: division, Euclid and the Z and Z/n kernel hand-off."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import Model
from qarith import QQ, ZZ, IntegerRing, ModularRing, PolynomialRing, QuotientRing, UnsupportedError, zpoly
from qarith.rings import dense_add, dense_divmod, dense_euclid, dense_gcd, dense_mul, dense_neg, dense_strip

FIELDS = [ModularRing(p) for p in (2, 3, 7, 101)] + [QQ]


def _coeffs(base):
    if base is QQ:
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    return st.integers(0, base.n - 1)


@st.composite
def _field_polys(draw, count):
    """(base, polynomials): count dense polynomials over one of FIELDS."""
    base = draw(st.sampled_from(FIELDS))
    polys = [
        dense_strip(base, draw(st.lists(_coeffs(base), max_size=7)))
        for _ in range(count)
    ]
    return base, polys


def _sub(base, a, b):
    return dense_add(base, a, dense_neg(base, b))


def _divides(base, d, a):
    return dense_divmod(base, a, d)[1] == ()


@settings(max_examples=300, deadline=None)
@given(_field_polys(2))
def test_divmod_is_remainder_division(case):
    base, (a, b) = case
    if not b:
        return
    q, r = dense_divmod(base, a, b)
    assert len(r) < len(b)
    assert dense_add(base, dense_mul(base, q, b), r) == a
    assert dense_strip(base, list(q)) == q and dense_strip(base, list(r)) == r


@settings(max_examples=300, deadline=None)
@given(_field_polys(2))
def test_euclid_gives_bezout_gcd(case):
    base, (a, m) = case
    if not a or not m:
        return
    g, s = dense_euclid(base, a, m)
    assert g
    # the plain gcd runs the same divisions as the extended one and the loop oracle
    assert dense_gcd(base, m, a) == g == _loop_euclid(base, a, m)[0]
    assert _divides(base, g, a) and _divides(base, g, m)
    # s*a = g (mod m); with g | a and g | m this makes g a greatest common divisor
    assert _divides(base, m, _sub(base, dense_mul(base, s, a), g))


class _LoopZ(IntegerRing):
    """Z that is not exactly IntegerRing, so the layer runs its generic loops."""


_zpolys = st.lists(st.integers(-(2**70), 2**70), max_size=40).map(zpoly.strip)


@settings(max_examples=300, deadline=None)
@given(_zpolys, _zpolys)
def test_integer_base_matches_the_kernel(a, b):
    loop = _LoopZ()
    assert dense_add(ZZ, a, b) == dense_add(loop, a, b) == zpoly.add(a, b)
    assert dense_mul(ZZ, a, b) == dense_mul(loop, a, b) == zpoly.mul(a, b)


# --- Z/n: the integer kernel against the payload loops it replaced ----------------


def _loop_add(base, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    add = base._add
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return dense_strip(base, out)


def _loop_mul(base, a, b):
    if not a or not b:
        return ()
    z = base._zero()
    out = [z] * (len(a) + len(b) - 1)
    nz_a = sum(1 for c in a if c != z)
    nz_b = sum(1 for c in b if c != z)
    if nz_b < nz_a:
        a, b = b, a
    mul, add = base._mul, base._add
    for i, c in enumerate(a):
        if c != z:
            for j, d in enumerate(b):
                if d != z:
                    out[i + j] = add(out[i + j], mul(c, d))
    return dense_strip(base, out)


def _loop_divmod(base, a, b):
    inv = base._invert(b[-1])
    if inv is None:
        raise UnsupportedError("division requires a unit leading coefficient")
    z = base._zero()
    r = list(a)
    q = [z] * max(0, len(a) - len(b) + 1)
    while len(r) >= len(b):
        if r[-1] == z:
            r.pop()
            continue
        c = base._mul(r[-1], inv)
        k = len(r) - len(b)
        q[k] = c
        for j, d in enumerate(b):
            r[k + j] = base._add(r[k + j], base._neg(base._mul(c, d)))
        r.pop()
    return dense_strip(base, q), dense_strip(base, r)


def _loop_euclid(base, a, m):
    r0, s0 = m, ()
    r1, s1 = a, (base._one(),)
    while r1:
        q, r = _loop_divmod(base, r0, r1)
        s0, s1 = s1, _loop_add(base, s0, dense_neg(base, _loop_mul(base, q, s1)))
        r0, r1 = r1, r
    return r0, s0


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UnsupportedError as exc:
        return type(exc)


MODULI = (2, 4, 6, 9, 12, 25, 1000003)


@st.composite
def _zn_polys(draw, count):
    """(n, polynomials): count dense polynomials over Z/n of degree up to 40,
    long and dense enough to reach zpoly's Kronecker tier."""
    n = draw(st.sampled_from(MODULI))
    cs = st.integers(0, n - 1)
    return n, [zpoly.strip(draw(st.lists(cs, max_size=41))) for _ in range(count)]


@settings(max_examples=400, deadline=None)
@given(_zn_polys(2))
@example((1000003, [tuple(range(1, 42)), tuple(range(999900, 999941))]))
@example((12, [(5,) * 41, (7, 0, 11) * 13 + (1,)]))
def test_modular_base_matches_the_payload_loops(case):
    n, (a, b) = case
    base = ModularRing(n)
    assert dense_add(base, a, b) == _loop_add(base, a, b)
    assert dense_mul(base, a, b) == _loop_mul(base, a, b)
    if b:
        assert _outcome(dense_divmod, base, a, b) == _outcome(_loop_divmod, base, a, b)
    assert _outcome(dense_euclid, base, a, b) == _outcome(_loop_euclid, base, a, b)
    assert _outcome(dense_gcd, base, b, a) == _outcome(lambda *args: _loop_euclid(*args)[0], base, a, b)


@settings(max_examples=300, deadline=None)
@given(_zn_polys(3))
def test_quotient_product_over_zn_matches_the_model(case):
    # mu: the third polynomial made monic of degree >= 1
    n, (a, b, mu) = case
    mu = (tuple(mu[:40]) or (0,)) + (1,)
    ring, model = QuotientRing(PolynomialRing(ModularRing(n), "X"), mu), Model(n, mu)
    a, b = ring.normalize(a), ring.normalize(b)
    assert model.pad(ring._mul(a, b)) == model.mul(model.pad(a), model.pad(b))
