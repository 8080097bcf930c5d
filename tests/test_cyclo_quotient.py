"""Cyclo(p) as the quotient Z[t]/(chi_p), and every quotient by chi_m on the
cyclotomic paths: products against the generic dense kernels over Z,
q-binomials against Pascal, the root-of-unity order bounds, and outputs
pinned from the stand-alone class Cyclo(p) once was."""

import functools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith import (
    ZZ,
    CyclotomicRing,
    PolynomialRing,
    QContext,
    QuotientRing,
    certify_flatness,
    cyclotomic_poly,
    is_zero_divisor,
    parse_element,
    parse_ring,
    q_binomial,
    q_characteristic,
    q_state,
)
from qarith.qnum import DIVISIBILITY_SCAN
from qarith.rings import ZI, dense_divmod, dense_mul


@functools.lru_cache(maxsize=None)
def _pair(p):
    """(Cyclo(p), the plain quotient Z[t]/(chi_p))."""
    return CyclotomicRing(p), QuotientRing(PolynomialRing(ZZ, "t"), cyclotomic_poly(p))


# p = 2 matters: chi_2 = 1 + t has degree 1, so every residue is a constant
indices = st.one_of(st.sampled_from([2, 3, 4, 6, 12]), st.integers(2, 40))
payloads = st.lists(st.integers(-10**6, 10**6), max_size=90).map(tuple)

# Z[i] and a modulus -chi_3 fold too; the second folds by chi_3, not by its modulus
OTHER_QUOTIENTS = [ZI, parse_ring("Z[X]/(-X^2-X-1)")]

ZZ_POLY = PolynomialRing(ZZ, "t")


def _remainder(cs, mu):
    """cs modulo mu by the generic long division over Z, which no fold touches."""
    return dense_divmod(ZZ, ZZ_POLY.normalize(cs), mu)[1]


@settings(max_examples=300, deadline=None)
@given(indices, payloads, payloads)
def test_cyclo_kernels_match_the_plain_quotient(p, x, y):
    cyclo, quot = _pair(p)
    chi = cyclotomic_poly(p)
    assert cyclo.normalize(x) == quot.normalize(x) == _remainder(x, chi)
    a, b = cyclo.element(x), cyclo.element(y)
    qa, qb = quot.element(x), quot.element(y)
    assert (a * b).payload == _remainder(dense_mul(ZZ, x, y), chi)
    for u, v in ((a + b, qa + qb), (a * b, qa * qb), (-a, -qa), (a - b, qa - qb)):
        assert u.payload == v.payload
        assert str(u) == str(v)
    assert cyclo.generator.payload == quot.generator.payload
    assert cyclo.atoms() == quot.atoms()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(OTHER_QUOTIENTS), payloads, payloads)
def test_other_cyclotomic_quotients_multiply_like_long_division(ring, x, y):
    mu = ring.modulus
    a, b = ring.element(x), ring.element(y)
    assert a.payload == _remainder(x, mu)
    assert (a * b).payload == _remainder(dense_mul(ZZ, x, y), mu)


# --- the paths a chi_m modulus selects, whatever the class ------------------------


def _pascal_rows(ring, q, n_max):
    """Rows 0..n_max of [n, k]_q by C(n, k) = C(n-1, k-1) + q^k C(n-1, k),
    on elements, apart from ``q_binomial`` and its caches."""
    rows = [[ring.one]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append([ring.one] + [prev[k - 1] + q**k * prev[k] for k in range(1, n)] + [ring.one])
    return rows


@pytest.mark.parametrize("spec", ["Z[i]", "Z[X]/(X^2+X+1)", "Q[X]/(X^2+1)"])
def test_q_binomials_of_a_cyclotomic_quotient_match_pascal(spec):
    ring = parse_ring(spec)
    ctx = QContext(ring, ring.generator)
    rows = _pascal_rows(ring, ring.generator, 40)
    for n in range(25, 41):
        for k in range(n + 1):
            assert q_binomial(ctx, n, k) == rows[n][k], (spec, n, k)
    assert ctx._structural is not None  # the rows above the cap took the product


def test_q_binomial_modulo_t_minus_1_stays_on_pascal():
    # the fold modulo t - 1 would be C(255, 1) = 255, the packed product's
    # own modulus 2^8 - 1, where gaussian_coefficients raises InternalError
    ring = parse_ring("Z[x]/(x-1)")
    assert q_binomial(QContext(ring, ring.generator), 255, 1) == ring.from_int(255)


@pytest.mark.parametrize(
    "ring, bound",
    [(ZI, 4), (CyclotomicRing(4), 4), (CyclotomicRing(6), 6), (CyclotomicRing(5), 10),
     (parse_ring("Z[X]/(X^4+1)"), 8)],
    ids=["Z[i]", "Cyclo(4)", "Cyclo(6)", "Cyclo(5)", "X^4+1"],
)
def test_roots_of_unity_of_a_cyclotomic_quotient_have_order_dividing_lcm_2_m(ring, bound):
    assert ring.root_of_unity_order_bound() == bound


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


# --- units of a plain monic quotient over Z --------------------------------------

small_payloads = st.lists(st.integers(-3, 3), max_size=12).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 30), small_payloads)
def test_plain_quotient_inverts_like_cyclo(p, x):
    cyclo, quot = _pair(p)
    inv, qinv = cyclo.element(x).try_invert(), quot.element(x).try_invert()
    assert (None if inv is None else inv.payload) == (None if qinv is None else qinv.payload)


def test_cyclo_3_generator_is_a_unit_of_the_plain_quotient():
    _, quot = _pair(3)
    assert str(quot.generator.try_invert()) == "-1 - t"


def _plain(mu):
    return QuotientRing(PolynomialRing(ZZ, "t"), mu)


# --- the plain quotient by chi_p is a domain, like Cyclo(p) -----------------------


@pytest.mark.parametrize("p", [3, 4, 5, 12])
def test_plain_quotient_certifies_like_cyclo(p):
    cyclo, quot = _pair(p)
    assert quot.is_domain and not quot.is_field
    for q in ("t", "1 + t", "2", "t - 1", "3 + t"):
        c_ctx = QContext(cyclo, parse_element(cyclo, q))
        p_ctx = QContext(quot, parse_element(quot, q))
        assert certify_flatness(p_ctx) == certify_flatness(c_ctx), (p, q)
        assert q_characteristic(p_ctx) == q_characteristic(c_ctx), (p, q)
    assert not is_zero_divisor(quot.generator + 1)


def _scan_flatness(ctx):
    """(flat, divisible, nonunit_witness) on a domain by scanning every
    m < p (the first DIVISIBILITY_SCAN states when p = 0): the oracle for
    trying only the proper divisors of p."""
    qc = q_characteristic(ctx)
    for m in range(1, qc.p or DIVISIBILITY_SCAN + 1):
        v = q_state(ctx, m)
        if not v.is_zero() and v.try_invert() is None:
            return True, False, m
    assert qc.p
    return True, True, None


DOMAIN_CASES = [
    *((f"Cyclo({m})", q) for m in range(2, 41) for q in ("t", "-t", "t^2")),
    ("Z[i]", "i"),
    ("Z[i]", "-i"),
    ("Z[X]/(X^2+X+1)", "X"),
    ("Z", "-1"),
]


@pytest.mark.parametrize("spec, q", DOMAIN_CASES)
def test_domain_flatness_tries_the_divisors_of_p_like_the_full_scan(spec, q):
    # the least nonzero non-unit state of a domain with p > 0 sits at a proper divisor of p
    ring = parse_ring(spec)
    cert = certify_flatness(QContext(ring, parse_element(ring, q)))
    expected = _scan_flatness(QContext(ring, parse_element(ring, q)))
    assert (cert.flat, cert.divisible, cert.nonunit_witness) == expected


def test_domain_flatness_inverts_only_the_divisors_of_p(monkeypatch):
    # p = 101 on Cyclo(101) with q = t: only (1)_t is tried, where a scan of m < p inverts 100 states
    ring = CyclotomicRing(101)
    calls = []

    def invert(a):
        calls.append(a)
        return QuotientRing._invert(ring, a)

    monkeypatch.setattr(ring, "_invert", invert)
    cert = certify_flatness(QContext(ring, ring.generator))
    assert (cert.flat, cert.divisible, cert.nonunit_witness) == (True, True, None)
    assert len(calls) <= 2


def test_units_modulo_a_reducible_monic():
    ring = _plain((-1, 0, 1))  # t^2 - 1
    t = ring.generator
    assert t.try_invert() == t
    assert (t + 1).try_invert() is None  # (t + 1)(t - 1) = 0
    assert ring.from_int(2).try_invert() is None
    assert (-ring.one).try_invert() == -ring.one


def test_units_modulo_a_square():
    ring = _plain((1, 2, 3, 2, 1))  # chi_3^2
    t = ring.generator
    inv = t.try_invert()
    assert inv is not None and t * inv == ring.one
    assert str(inv) == "-2 - 3*t - 2*t^2 - t^3"
    assert (1 + t + t * t).try_invert() is None  # nilpotent
    assert (2 + t).try_invert() is None  # Res = 9


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=5), small_payloads)
def test_plain_quotient_units_match_resultant(lower, x):
    # Z[t]/(mu) is free of rank deg mu over Z, and multiplication by a has
    # determinant +-Res(mu, a), so a is a unit exactly when that is +-1
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    mu = tuple(lower) + (1,)
    ring = _plain(mu)
    a = ring.element(x)
    inv = a.try_invert()
    if a.is_zero():
        assert inv is None
        return
    res = sympy.resultant(sympy.Poly(list(reversed(mu)), s), sympy.Poly(list(reversed(a.payload)), s))
    assert (inv is not None) == (abs(res) == 1), (mu, x, res)
    if inv is not None:
        assert a * inv == ring.one
