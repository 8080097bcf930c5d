"""The dense polynomial layer of ``rings``: division, Euclid and the Z kernel hand-off."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith import QQ, ZZ, IntegerRing, ModularRing, zpoly
from qarith.rings import dense_add, dense_divmod, dense_euclid, dense_mul, dense_neg, dense_strip

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
