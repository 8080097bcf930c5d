"""Cyclo(p) as the quotient Z[t]/(chi_p): its integer kernels against the
generic ``QuotientRing`` over Z, and outputs pinned from the stand-alone class
it replaced."""

import functools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith import ZZ, CyclotomicRing, PolynomialRing, QuotientRing, cyclotomic_poly


@functools.lru_cache(maxsize=None)
def _pair(p):
    """(Cyclo(p), the plain quotient Z[t]/(chi_p))."""
    return CyclotomicRing(p), QuotientRing(PolynomialRing(ZZ, "t"), cyclotomic_poly(p))


# p = 2 matters: chi_2 = 1 + t has degree 1, so every residue is a constant
indices = st.one_of(st.sampled_from([2, 3, 4, 6, 12]), st.integers(2, 40))
payloads = st.lists(st.integers(-10**6, 10**6), max_size=90).map(tuple)


@settings(max_examples=300, deadline=None)
@given(indices, payloads, payloads)
def test_cyclo_kernels_match_the_plain_quotient(p, x, y):
    cyclo, quot = _pair(p)
    assert cyclo.normalize(x) == quot.normalize(x) == cyclo._reduce(list(x))
    a, b = cyclo.element(x), cyclo.element(y)
    qa, qb = quot.element(x), quot.element(y)
    for u, v in ((a + b, qa + qb), (a * b, qa * qb), (-a, -qa), (a - b, qa - qb)):
        assert u.payload == v.payload
        assert str(u) == str(v)
    assert cyclo.generator.payload == quot.generator.payload
    assert cyclo.atoms() == quot.atoms()


@pytest.mark.parametrize("p", [2, 3, 4, 6, 12, 13, 40, 97])
def test_cyclo_equals_the_plain_quotient(p):
    cyclo, quot = _pair(p)
    assert isinstance(cyclo, QuotientRing)
    assert cyclo == quot and quot == cyclo
    assert hash(cyclo) == hash(quot)
    assert cyclo.descriptor() == quot.descriptor()
    assert str(cyclo) == f"Cyclo({p})"
    assert cyclo.generator == quot.generator
    assert cyclo != CyclotomicRing(2 * p)


# (p, payload, str, str of the inverse or None), recorded from the
# stand-alone CyclotomicRing before it became a QuotientRing
PINNED = [
    (2, (3,), "3", None),
    (2, (0, 1), "-1", "-1"),
    (3, (0, 1), "t", "-1 - t"),
    (5, (1, 1), "1 + t", "-t - t^3"),
    (5, (2, 1, 0, -3), "2 + t - 3*t^3", None),
    (6, (1, -1), "1 - t", "t"),
    (7, (1, 0, 1), "1 + t^2", "1 + t + t^4 + t^5"),
    (9, (1, 1, 0, 0, 0, 7, 2), "-1 + t - 2*t^3 + 7*t^5", None),
    (10, (1, 1), "1 + t", None),
    (12, (1, 1), "1 + t", "t^2 - t^3"),
    (12, (0, 1, 1), "t + t^2", "t - t^2"),
    (97, (1, 1), "1 + t", " - ".join(["-t"] + [f"t^{e}" for e in range(3, 96, 2)])),
]


@pytest.mark.parametrize("p, payload, text, inverse", PINNED)
def test_pinned_text_and_inverses(p, payload, text, inverse):
    ring = CyclotomicRing(p)
    a = ring.element(payload)
    assert str(a) == text
    inv = a.try_invert()
    assert (None if inv is None else str(inv)) == inverse
    if inv is not None:
        assert a * inv == ring.one


def test_pinned_generator_and_integers():
    assert str(CyclotomicRing(12).generator ** 5 - 3) == "-3 - t + t^3"
    assert str(CyclotomicRing(2).generator) == "-1"
    assert str(CyclotomicRing(13).from_int(-4)) == "-4"
