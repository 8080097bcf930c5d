"""Integer-polynomial kernel: differential tests against plain schoolbook oracles."""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith import InternalError, QContext, RationalFunctionField, cyclotomic_poly, q_binomial, zpoly


def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _oracle_mul(a, b):
    """Schoolbook product, one coefficient pair at a time."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return _strip(out)


def _oracle_rem(cs, modulus):
    """Remainder of long division by a monic polynomial."""
    r = list(cs)
    while len(r) >= len(modulus):
        c = r[-1]
        k = len(r) - len(modulus)
        for j, d in enumerate(modulus):
            r[k + j] -= c * d
        r.pop()
    return _strip(r)


# coefficients: mostly small, some negative, some far above 2^64
coeffs = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**20), 2**20),
    st.integers(-(2**200), 2**200),
    st.sampled_from([2**64, -(2**64), 2**64 + 1, 2**127 - 1]),
)
# lengths reach past KRONECKER_MIN_TERMS on both sides
polys = st.lists(coeffs, max_size=3 * zpoly.KRONECKER_MIN_TERMS).map(_strip)
monomials = st.builds(lambda d, c: (0,) * d + (c,), st.integers(0, 30), coeffs.filter(bool))
nonzero_polys = polys.filter(bool)


@settings(max_examples=300, deadline=None)
@given(polys, polys)
def test_mul_matches_schoolbook(a, b):
    assert zpoly.mul(a, b) == _oracle_mul(a, b)


@settings(max_examples=100, deadline=None)
@given(monomials, polys)
def test_mul_by_monomial(m, b):
    assert zpoly.mul(m, b) == _oracle_mul(m, b)
    assert zpoly.mul(b, m) == _oracle_mul(m, b)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 200), st.integers(0, 200), st.booleans())
def test_mul_dense_long(la, lb, signed):
    rng = random.Random(la * 1000 + lb)
    lo = -(2**70) if signed else 0
    a = _strip([rng.randint(lo, 2**70) for _ in range(la)])
    b = _strip([rng.randint(lo, 2**70) for _ in range(lb)])
    assert zpoly.mul(a, b) == _oracle_mul(a, b)


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_mul_ks2_matches_schoolbook(a, b):
    # every Kronecker product evaluates at +-2^(w/2) when the threshold is 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zpoly, "KS2_MIN_BYTES", 0)
        assert zpoly.mul(a, b) == _oracle_mul(a, b)


@pytest.mark.parametrize("ks2_min_bytes", [0, 2**62])
@pytest.mark.parametrize("la, lb", [(16, 16), (16, 17), (17, 40), (33, 33)])
@pytest.mark.parametrize("nbytes", [1, 2, 9, 17])
def test_mul_at_the_bound(monkeypatch, ks2_min_bytes, la, lb, nbytes):
    # factors of equal entries +-m give middle coefficients +-min(la, lb)*m^2,
    # the bound B the slots are sized for, here just below 2^(8*nbytes):
    # with one factor negative the slots need the extra sign bit
    monkeypatch.setattr(zpoly, "KS2_MIN_BYTES", ks2_min_bytes)
    m = math.isqrt((2 ** (8 * nbytes) - 1) // min(la, lb))
    for sa, sb in ((1, 1), (1, -1), (-1, -1)):
        a, b = (sa * m,) * la, (sb * m,) * lb
        assert zpoly.mul(a, b) == _oracle_mul(a, b)
        alt = tuple((-1) ** i * sa * m for i in range(la))
        assert zpoly.mul(alt, b) == _oracle_mul(alt, b)


@pytest.mark.parametrize("ks2_min_bytes", [0, zpoly.KS2_MIN_BYTES])
@pytest.mark.parametrize("ea, eb", [(0, 1), (37, 0), (5, 64), (300, 300)])
def test_mul_strips_common_powers_of_two(monkeypatch, ks2_min_bytes, ea, eb):
    # large products divide out the power of 2 common to each factor's
    # coefficients and shift it back into every product coefficient
    monkeypatch.setattr(zpoly, "KS2_MIN_BYTES", ks2_min_bytes)
    rng = random.Random(ea * 1000 + eb)
    a = tuple(rng.randint(-(2**90), 2**90) << ea for _ in range(60)) + (1 << ea,)
    b = tuple(rng.randint(-(2**90), 2**90) << eb for _ in range(45)) + (-3 << eb,)
    assert zpoly.mul(a, b) == _oracle_mul(a, b)
    assert zpoly._twos(a) >= ea and zpoly._twos(b) >= eb


def _unpack_or_none(value, nbytes, size, signed):
    try:
        return zpoly._unpack(value, nbytes, size, signed)
    except OverflowError:
        return None


@pytest.mark.parametrize("nbytes", [1, 2, 5])
def test_unpack_reads_the_extreme_slots(nbytes):
    half = 1 << (8 * nbytes - 1)
    cases = [
        ([half - 1, -(half - 1), -half, 0, -1, 1, half - 1, -half], True),
        ([2 * half - 1, 0, half, 1, 2 * half - 1], False),
    ]
    for digits, signed in cases:
        value = sum(d << (8 * nbytes * i) for i, d in enumerate(digits))
        assert zpoly._unpack(value, nbytes, len(digits), signed) == digits
        # a slot one byte narrower cannot hold these digits
        if nbytes > 1:
            assert _unpack_or_none(value, nbytes - 1, len(digits), signed) != digits


def test_mul_edge_cases():
    big = 2**64 + 3
    assert zpoly.mul((), (1, 2)) == ()
    assert zpoly.mul((1, 2), ()) == ()
    assert zpoly.mul((0, 0), (1, 2)) == ()
    assert zpoly.mul((1, 2, 0), (3,)) == (3, 6)
    assert zpoly.mul((0, 0, 1), (5, -7)) == (0, 0, 5, -7)
    n = 2 * zpoly.KRONECKER_MIN_TERMS
    a = tuple([-big] * n)
    b = tuple([big] * n)
    assert zpoly.mul(a, b) == _oracle_mul(a, b)
    assert zpoly.mul(a, a) == _oracle_mul(a, a)


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_add_round_trip(a, b):
    s = zpoly.add(a, b)
    assert s == zpoly.add(b, a)
    assert zpoly.add(s, zpoly.neg(b)) == a
    assert zpoly.add(a, zpoly.neg(a)) == ()


@settings(max_examples=200, deadline=None)
@given(polys, nonzero_polys)
def test_divexact_round_trip(a, b):
    assert zpoly.divexact(zpoly.mul(a, b), b) == a


@settings(max_examples=100, deadline=None)
@given(nonzero_polys, nonzero_polys, st.integers(1, 2**40))
def test_divexact_rejects_inexact(a, b, shift):
    # a nonzero constant is a multiple of b only when b is a constant dividing it
    if len(b) == 1 and shift % b[0] == 0:
        shift = 1
        b = (b[0] * 2 if abs(b[0]) == 1 else b[0],)
    bumped = zpoly.add(zpoly.mul(a, b), (shift,))
    with pytest.raises(InternalError):
        zpoly.divexact(bumped, b)


def test_divexact_reports_known_inexact_quotient():
    with pytest.raises(InternalError):
        zpoly.divexact((1, 0, 1), (1, 1))
    with pytest.raises(InternalError):
        zpoly.divexact((1, 2), (0, 2))
    with pytest.raises(InternalError):
        zpoly.divexact((1, 1), ())


@pytest.mark.parametrize("n", range(2, 61))
def test_reduce_cyclotomic_matches_long_division(n):
    chi = cyclotomic_poly(n)
    rng = random.Random(n)
    for length in (0, 1, len(chi) - 1, len(chi), n, n + 1, 2 * len(chi) - 1, 3 * n + 2):
        cs = tuple(rng.randint(-(2**70), 2**70) for _ in range(length))
        assert zpoly.reduce_cyclotomic(cs, n, chi) == _oracle_rem(cs, chi)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([4, 12, 30, 2, 3, 7, 60]), polys)
def test_reduce_cyclotomic_random(n, cs):
    chi = cyclotomic_poly(n)
    assert zpoly.reduce_cyclotomic(cs, n, chi) == _oracle_rem(cs, chi)


def test_cyclotomic_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 61):
        expected = tuple(int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()))
        assert cyclotomic_poly(n) == expected, n


# ---------------------------------------------------------------------------
# gcd and Q(t) normal forms against sympy
# ---------------------------------------------------------------------------

small_polys = st.lists(st.integers(-20, 20), max_size=6).map(_strip)


def _to_sympy(cs, x):
    return sum(c * x**i for i, c in enumerate(cs))


def _coeffs_of(expr, x):
    """Rational coefficients of a sympy polynomial, constant first."""
    import sympy

    return [sympy.Rational(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())]


def _primitive_part(cs):
    """cs divided by the gcd of its entries, with a positive leading coefficient."""
    g = 0
    for c in cs:
        g = math.gcd(g, int(c))
    if cs[-1] < 0:
        g = -g
    return tuple(int(c) // g for c in cs)


def _sympy_normal_form(expr, x):
    """(num, den) of a sympy rational function in Q(t)'s normal form: integer
    coefficients whose gcd over num and den together is 1, den with positive
    leading coefficient."""
    import sympy

    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    if num == 0:
        return (), (1,)
    ns, ds = _coeffs_of(num, x), _coeffs_of(den, x)
    lcm = 1
    for c in ns + ds:
        lcm = math.lcm(lcm, int(c.q))
    ns = [int(c * lcm) for c in ns]
    ds = [int(c * lcm) for c in ds]
    g = 0
    for c in ns + ds:
        g = math.gcd(g, c)
    if ds[-1] < 0:
        g = -g
    return _strip(c // g for c in ns), _strip(c // g for c in ds)


@settings(max_examples=300, deadline=None)
@given(small_polys.filter(bool), small_polys, small_polys)
def test_gcd_matches_sympy(g, u, v):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    a, b = zpoly.mul(g, u), zpoly.mul(g, v)
    if not a and not b:
        return
    expected = _primitive_part(_coeffs_of(sympy.gcd(_to_sympy(a, x), _to_sympy(b, x)), x))
    assert zpoly.gcd(a, b) == expected
    assert zpoly.gcd(b, a) == expected


def test_gcd_non_monic_remainder_sequence():
    # non-monic inputs whose contents are not 1, so a remainder sequence
    # must both scale by lc(b) and take primitive parts to reach g
    g = (1, 2, 3)
    a = zpoly.mul(g, (5, 0, 2, 7))
    b = zpoly.mul(g, (-4, 3))
    assert zpoly.gcd(a, b) == g
    assert zpoly.gcd(zpoly.scale(a, 6), zpoly.scale(b, -10)) == g


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys.filter(bool), small_polys.filter(bool))
def test_rational_function_normal_form_matches_sympy_cancel(num, den, g):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    num, den = zpoly.mul(num, g), zpoly.mul(den, g)
    got = RationalFunctionField("t").element((num, den)).payload
    assert got == _sympy_normal_form(_to_sympy(num, x) / _to_sympy(den, x), x)


def test_q_binomial_over_rational_functions_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    field = RationalFunctionField("t")
    ctx = QContext(field, field.element(((1, 1), (-1, 1))))
    q = (x + 1) / (x - 1)
    for n in range(11):
        for k in range(n + 1):
            expected = sympy.Integer(1)
            for i in range(1, k + 1):
                expected *= (1 - q ** (n - k + i)) / (1 - q**i)
            assert q_binomial(ctx, n, k).payload == _sympy_normal_form(expected, x), (n, k)


@settings(max_examples=300, deadline=None)
@given(polys, polys.filter(bool), st.sampled_from([1, -1]))
def test_divrem_by_a_unit_leading_coefficient(a, b, lead):
    b = tuple(b) + (lead,)
    q, r = zpoly.divrem(a, b)
    assert len(r) < len(b) and zpoly.add(zpoly.mul(q, b), r) == a
    if lead == 1:
        assert r == _oracle_rem(a, b)
    with pytest.raises(ValueError):
        zpoly.divrem(a, tuple(b[:-1]) + (2 * lead,))
