"""The sparse (exponent, coefficient) layer of ``rings``: Laurent and twisted products."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith import ZZ, LaurentRing, ModularRing, TwistedAlgebra, zpoly

LAURENT = LaurentRing(ZZ)
TWISTED = [TwistedAlgebra(ZZ, ("x", "y")), TwistedAlgebra(ModularRing(6), ("x", "y"))]

laurent_terms = st.lists(st.tuples(st.integers(-6, 6), st.integers(-9, 9)), max_size=6)
bivariate_terms = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-9, 9)), max_size=6
)


def _is_normal(payload):
    """Sorted by exponent, no exponent twice, no zero coefficient."""
    exps = [e for e, _ in payload]
    return exps == sorted(set(exps)) and all(c != 0 for _, c in payload)


def _dense(payload):
    """(lowest exponent, dense int coefficients from it) of a Laurent payload."""
    if not payload:
        return 0, ()
    low = payload[0][0]
    cs = [0] * (payload[-1][0] - low + 1)
    for e, c in payload:
        cs[e - low] = c
    return low, tuple(cs)


def _convolve(a, b, n):
    """Product of two bivariate payloads by a dict convolution, coefficients
    modulo n (n = 0: over Z)."""
    acc = {}
    for (i1, j1), c1 in a:
        for (i2, j2), c2 in b:
            e = (i1 + i2, j1 + j2)
            acc[e] = acc.get(e, 0) + c1 * c2
    if n:
        acc = {e: c % n for e, c in acc.items()}
    return tuple(sorted((e, c) for e, c in acc.items() if c))


@settings(max_examples=300, deadline=None)
@given(laurent_terms, laurent_terms)
def test_laurent_product_is_shifted_dense_product(a, b):
    a, b = LAURENT.element(a), LAURENT.element(b)
    prod = (a * b).payload
    (la, da), (lb, db) = _dense(a.payload), _dense(b.payload)
    expected = tuple((la + lb + i, c) for i, c in enumerate(zpoly.mul(da, db)) if c)
    assert prod == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 1]), bivariate_terms, bivariate_terms)
def test_bivariate_twisted_product_is_convolution(which, a, b):
    alg = TWISTED[which]
    n = getattr(alg.base, "n", 0)
    a, b = alg.element(a), alg.element(b)
    assert (a * b).payload == _convolve(a.payload, b.payload, n)


def test_twisted_product_over_z6_cancels():
    alg = TWISTED[1]
    x, y = alg.gen("x"), alg.gen("y")
    f = 2 * x + 3 * y
    g = 3 * x + 2 * y
    # 6x^2 + 13xy + 6y^2 = xy modulo 6
    assert (f * g).payload == (((1, 1), 1),)
    assert ((2 * x) * (3 * x)).is_zero()


@settings(max_examples=200, deadline=None)
@given(laurent_terms, laurent_terms, bivariate_terms, bivariate_terms, st.sampled_from([0, 1]))
def test_results_are_normal(la, lb, ta, tb, which):
    alg = TWISTED[which]
    for ring, a, b in ((LAURENT, la, lb), (alg, ta, tb)):
        x, y = ring.element(a), ring.element(b)
        for value in (x, y, x + y, -x, x - y, x * y):
            assert _is_normal(value.payload), (ring, value.payload)
