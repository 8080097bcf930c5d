"""Q(t) payload arithmetic: Henrici's sums, products and inverses against the
full normalization ``RationalFunctionField._norm`` of the naive result."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith import RationalFunctionField, zpoly

FIELDS = [RationalFunctionField("t"), RationalFunctionField("t", 6)]

coeffs = st.integers(-12, 12)
polys = st.lists(coeffs, max_size=5).map(zpoly.strip)
nonzero_polys = polys.filter(bool)
constants = st.integers(-30, 30).filter(bool).map(lambda c: (c,))
monomials = st.builds(lambda d, c: (0,) * d + (c,), st.integers(1, 4), st.integers(-6, 6).filter(bool))
# the factors Henrici's gcds must find: linear, quadratic, monomial and integer
factors = st.sampled_from([(1,), (-1, 1), (1, 1), (1, 0, 1), (1, 2), (0, 1), (0, 0, 3), (2,), (6,), (-4,)])
denominators = st.one_of(st.just((1,)), constants, monomials, nonzero_polys)


@st.composite
def elements(draw):
    """A normal form whose numerator and denominator shared a factor before
    normalization, so that num and den are far from primitive."""
    f = draw(factors)
    num = zpoly.mul(draw(polys), f)
    if draw(st.booleans()) and num:
        num = zpoly.neg(num)
    return FIELDS[0]._norm(num, zpoly.mul(draw(denominators), f))


def _naive_add(F, x, y):
    return F._norm(zpoly.add(zpoly.mul(x[0], y[1]), zpoly.mul(y[0], x[1])), zpoly.mul(x[1], y[1]))


def _naive_mul(F, x, y):
    return F._norm(zpoly.mul(x[0], y[0]), zpoly.mul(x[1], y[1]))


@st.composite
def pairs(draw):
    """(x, y) with common denominator factors, sums that cancel to zero and
    sums whose numerator shares a factor with gcd(d1, d2)."""
    F = FIELDS[0]
    x = draw(elements())
    how = draw(st.sampled_from(["any", "shared", "negative", "difference"]))
    if how == "any":
        return x, draw(elements())
    if how == "shared":
        # y's denominator and x's numerator carry x's denominator's factor
        f, y = draw(factors), draw(elements())
        return F._norm(zpoly.mul(x[0], f), x[1]), F._norm(y[0], zpoly.mul(y[1], zpoly.mul(x[1], f)))
    if how == "negative":
        return x, F._neg(x)
    # y = z - x, so x + y = z cancels whatever x and y have in common
    z = draw(elements())
    return x, _naive_add(F, z, F._neg(x))


@pytest.mark.parametrize("F", FIELDS, ids=str)
@settings(max_examples=400, deadline=None)
@given(pairs())
def test_add_matches_full_normalization(F, xy):
    x, y = xy
    assert F._add(x, y) == _naive_add(F, x, y)
    assert F._add(y, x) == _naive_add(F, x, y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
@settings(max_examples=400, deadline=None)
@given(pairs())
def test_mul_matches_full_normalization(F, xy):
    x, y = xy
    assert F._mul(x, y) == _naive_mul(F, x, y)
    assert F._mul(y, x) == _naive_mul(F, x, y)
    if y[0]:
        # a product by an inverse makes shared factors cross over
        yi = F._norm(y[1], y[0])
        assert F._mul(x, yi) == _naive_mul(F, x, yi)


@pytest.mark.parametrize("F", FIELDS, ids=str)
@settings(max_examples=300, deadline=None)
@given(elements())
def test_invert_matches_full_normalization(F, x):
    if not x[0]:
        assert F._invert(x) is None
    else:
        assert F._invert(x) == F._norm(x[1], x[0])


@pytest.mark.parametrize(
    "x, y, total",
    [
        # equal constant denominators: only the contents cancel
        (((1,), (2,)), ((1,), (2,)), ((1,), (1,))),
        # 1/(t - 1) - 1/(t + 1) = 2/(t^2 - 1): no cancellation
        (((1,), (-1, 1)), ((-1,), (1, 1)), ((2,), (-1, 0, 1))),
        # 1/(t(t+1)) + 1/(t+1) = 1/t: h = t + 1
        (((1,), (0, 1, 1)), ((1,), (1, 1)), ((1,), (0, 1))),
        # t/(t^2 - 1) - 1/(t^2 - 1) = 1/(t + 1)
        (((0, 1), (-1, 0, 1)), ((-1,), (-1, 0, 1)), ((1,), (1, 1))),
    ],
)
def test_add_cancels_where_henrici_says(x, y, total):
    F = FIELDS[0]
    assert F._add(x, y) == total
    assert (F.element(x) + F.element(y)).payload == total


def test_invert_moves_the_sign_to_the_numerator():
    F = FIELDS[0]
    assert F._invert(((-2, -1), (3,))) == ((-3,), (2, 1))
    assert F._invert(((-1,), (1, 1))) == ((-1, -1), (1,))
