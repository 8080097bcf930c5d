"""Ring tower: normal forms, units, enumeration, zero divisors, algebra laws."""

import random
from fractions import Fraction

import pytest

from qarith import (
    QQ,
    ZI,
    ZZ,
    CyclotomicRing,
    LaurentRing,
    ModularRing,
    PolynomialRing,
    QContext,
    QuotientRing,
    RationalFunctionField,
    RingMismatchError,
    TwistedAlgebra,
    UnsupportedError,
    DomainError,
    cyclotomic_poly,
    is_zero_divisor,
    parse_ring,
    q_characteristic,
)
from qarith import rings, zpoly
from qarith.ntheory import totient
from conftest import RING_SPECS, run_python


def test_modular_add():
    z8 = ModularRing(8)
    assert z8.from_int(5) + z8.from_int(7) == z8.from_int(4)


def test_polynomial_add_cancels():
    zt = PolynomialRing(ZZ, "t")
    t = zt.generator
    assert (1 + t) + (1 - t) == zt.from_int(2)


def test_gaussian_add():
    assert ZI.element((1, 1)) + ZI.element((1, -1)) == ZI.from_int(2)


def test_polynomial_mul():
    zt = PolynomialRing(ZZ, "t")
    t = zt.generator
    assert (1 + t) * (1 - t) == zt.element((1, 0, -1))


def test_cyclotomic_quotient_mul():
    # in Z[t]/(t^2+1) the class of t squares to -1
    c4 = CyclotomicRing(4)
    t = c4.generator
    assert t * t == c4.from_int(-1)


def test_modular_zero_divisor_product():
    z4 = ModularRing(4)
    assert z4.from_int(2) * z4.from_int(2) == z4.zero


def test_try_invert():
    assert ZI.generator.try_invert() == ZI.element((0, -1))
    assert ZI.element((1, 1)).try_invert() is None
    z8 = ModularRing(8)
    assert z8.from_int(3).try_invert() == z8.from_int(3)
    assert z8.from_int(2).try_invert() is None


def test_try_invert_is_exact_two_sided(fleet):
    rng = random.Random(7)
    for ctx in fleet[::5]:
        ring = ctx.ring
        for _ in range(10):
            a = ring.random_element(rng)
            b = a.try_invert()
            if b is not None:
                assert (a * b).is_one() and (b * a).is_one()


def test_enumerate_small_rings():
    z3 = ModularRing(3)
    assert [str(e) for e in z3.elements()] == ["0", "1", "2"]
    f2x = parse_ring("Z/2[X]/(X^2-1)")
    elems = list(f2x.elements())
    assert len(elems) == 4 == f2x.cardinality
    assert elems[0].is_zero() and elems[1].is_one()
    assert len({e.payload for e in elems}) == 4


def test_enumerate_infinite_ring_unsupported():
    with pytest.raises(UnsupportedError):
        list(PolynomialRing(ZZ, "t").elements())


@pytest.mark.parametrize("spec", ["Z/6", "Z/12", "Z/4[X]/(X^3-1)"])
def test_enumeration_cardinality_no_duplicates(spec):
    ring = parse_ring(spec)
    elems = list(ring.elements())
    assert len(elems) == ring.cardinality
    assert len({e.payload for e in elems}) == ring.cardinality
    assert elems[0].is_zero() and elems[1].is_one()


def test_is_zero_divisor():
    z4 = ModularRing(4)
    assert is_zero_divisor(z4.from_int(2))
    assert not is_zero_divisor(z4.zero)
    assert not is_zero_divisor(ModularRing(8).from_int(3))
    assert not is_zero_divisor(ZI.element((1, 1)))  # integral domain
    qx = parse_ring("Q[X]/(X^2-1)")
    with pytest.raises(UnsupportedError):
        is_zero_divisor(qx.generator + qx.one)


def test_owner_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        ModularRing(4).one + ModularRing(5).one


def test_quotient_requires_unit_leading_coefficient():
    poly = PolynomialRing(ModularRing(4), "X")
    with pytest.raises(DomainError):
        QuotientRing(poly, (1, 2))  # 2 is not a unit mod 4
    with pytest.raises(DomainError):
        QuotientRing(poly, (3,))  # constant modulus


@pytest.mark.parametrize("spec", RING_SPECS)
def test_algebraic_laws(spec):
    ring = parse_ring(spec)
    rng = random.Random(hash(spec) & 0xFFFF)
    zero, one = ring.zero, ring.one
    for _ in range(25):
        a = ring.random_element(rng)
        b = ring.random_element(rng)
        c = ring.random_element(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a * zero == zero
        assert a + (-a) == zero
        try:
            inv = a.try_invert()
        except UnsupportedError:
            inv = None
        if inv is not None:
            assert (a * inv).is_one() and (inv * a).is_one()


@pytest.mark.parametrize("spec", RING_SPECS)
def test_normalization_idempotent(spec):
    ring = parse_ring(spec)
    rng = random.Random(hash(spec) & 0xFFFF)
    for _ in range(20):
        payload = ring.random_element(rng).payload
        once = ring.normalize(payload)
        assert ring.normalize(once) == once


def test_modular_matches_integer_arithmetic():
    # residue arithmetic agrees with integer arithmetic followed by reduction
    n = 6
    ring = ModularRing(n)
    for x in range(n * n):
        for y in range(n * n):
            assert ring.from_int(x) + ring.from_int(y) == ring.from_int(x + y)
            assert ring.from_int(x) * ring.from_int(y) == ring.from_int(x * y)


def test_laurent_units():
    lr = LaurentRing(ZZ, "v")
    v = lr.generator
    assert (v**3).try_invert() == v**-3
    assert lr.from_int(2).try_invert() is None
    assert (v + lr.one).try_invert() is None


def test_fraction_field_normal_form():
    qt = RationalFunctionField("t")
    t = qt.generator
    # (t^2 - 1)/(t - 1) reduces to t + 1
    assert (t * t - 1) / (t - 1) == t + 1
    half_t = qt.element(((0, 2), (4,)))
    assert str(half_t) == "t/2"
    assert half_t * qt.from_int(2) == t


def test_fraction_field_denominator_sign():
    qt = RationalFunctionField("t")
    t = qt.generator
    x = qt.one / (qt.from_int(-2) * t)
    num, den = x.payload
    assert den[-1] > 0


def test_element_hash_consistency():
    z5 = ModularRing(5)
    assert len({z5.from_int(7), z5.from_int(2)}) == 1


def test_elements_equal_only_elements():
    three = ZZ.from_int(3)
    assert three != 3 and 3 != three
    assert len({three, 3}) == 2
    assert len({three, ZZ.from_int(3)}) == 1
    # equal elements of equal rings built apart hash alike
    assert hash(PolynomialRing(ZZ, "t").generator) == hash(PolynomialRing(ZZ, "t").generator)


def test_ring_equality_is_structural():
    assert PolynomialRing(ZZ, "t") == PolynomialRing(ZZ, "t")
    assert PolynomialRing(ZZ, "t") != PolynomialRing(ZZ, "x")
    assert ModularRing(4) != ModularRing(5)


def test_internal_checks_survive_optimize_flag():
    # under python -O an assert would vanish and return a wrong quotient
    code = (
        "from qarith import InternalError, zpoly\n"
        "try:\n"
        "    zpoly.divexact((1, 0, 1), (1, 1))\n"
        "except InternalError:\n"
        "    print('raised')\n"
    )
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def _cyclotomic_test_elements(ring, rng):
    """±t^j, 1 + t^j for 0 <= j < n, and seeded random elements of Cyclo(n)."""
    t = ring.generator
    powers = [t**j for j in range(ring.p)]
    out = powers + [-x for x in powers] + [1 + x for x in powers]
    d = len(ring.modulus) - 1
    out += [ring.element(tuple(rng.randint(-3, 3) for _ in range(d))) for _ in range(8)]
    return out


def test_cyclotomic_units_match_resultant():
    # a is a unit of Z[t]/chi_n exactly when its norm Res(a, chi_n) is +-1
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(8)
    for n in range(2, 31):
        ring = CyclotomicRing(n)
        chi = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
        for a in _cyclotomic_test_elements(ring, rng):
            inv = a.try_invert()
            if a.is_zero():
                assert inv is None
                continue
            norm = sympy.resultant(sympy.Poly(list(reversed(a.payload)), x), chi)
            assert (inv is not None) == (abs(norm) == 1), (n, a, norm)
            if inv is not None:
                assert a * inv == ring.one and inv * a == ring.one, (n, a)


@pytest.mark.parametrize(
    "ring, payload",
    [
        (ZZ, 1.5),
        (ZZ, Fraction(7, 2)),
        (ZZ, "3"),
        (ModularRing(7), 2.5),
        (ZI, (1.5, 0)),
        (CyclotomicRing(5), (0.5, 1)),
        (RationalFunctionField("t"), ((1.5,), (2,))),
        (RationalFunctionField("t"), ((1,), (Fraction(1, 2),))),
        (LaurentRing(ZZ), ((1.5, 1),)),
        (LaurentRing(ZZ), ((1, 0.5),)),
        (TwistedAlgebra(ZZ, ("x",)), (((1.5,), 1),)),
        (PolynomialRing(ZZ), (1, 2.5)),
    ],
)
def test_non_integer_payloads_are_refused(ring, payload):
    # never truncated to a nearby integer
    with pytest.raises(DomainError, match="not an integer"):
        ring.element(payload)


def test_integer_payloads_are_accepted():
    assert ZZ.element(True) == ZZ.one
    assert ModularRing(7).element(-1) == ModularRing(7).from_int(6)
    assert LaurentRing(ZZ).element(((-2, 3), (-2, -3), (1, 1))).payload == ((1, 1),)
    assert TwistedAlgebra(ZZ, ("x",)).element((((2,), 1),)).payload == (((2,), 1),)


# Z[i] as pairs (a, b) = a + b*i: the formulas of the class Z[i] had before
# it became the quotient Z[i]/(1 + i^2)
def _gauss_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _gauss_mul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _gauss_invert(x):
    a, b = x
    return (a, -b) if a * a + b * b == 1 else None


def test_zi_matches_the_gaussian_pair_formulas():
    rng = random.Random(16)
    pairs = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (2, -3)]
    pairs += [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(100)]
    for x in pairs:
        a = ZI.element(x)
        for y in rng.sample(pairs, 10):
            b = ZI.element(y)
            assert a + b == ZI.element(_gauss_add(x, y))
            assert a * b == ZI.element(_gauss_mul(x, y))
        inv = _gauss_invert(x)
        assert a.try_invert() == (None if inv is None else ZI.element(inv))


def test_zi_is_the_quotient_by_chi_4():
    assert ZI == QuotientRing(PolynomialRing(ZZ, "i"), cyclotomic_poly(4))
    assert parse_ring("Z[i]") is ZI
    assert str(ZI) == "Z[i]/(1 + i^2)"
    assert str(ZI.element((3, 2))) == "3 + 2*i"
    assert ZI.is_domain and not ZI.is_field and ZI.torsion_free


# every m with phi(m) <= CYCLOTOMIC_SCAN_DEGREE
_SMALL_PHI = [m for m in range(1, 2 * 16**2 + 3) if totient(m) <= rings.CYCLOTOMIC_SCAN_DEGREE]


@pytest.mark.parametrize("base", [ZZ, QQ], ids=["Z", "Q"])
def test_cyclotomic_modulus_makes_a_domain(base):
    poly = PolynomialRing(base, "x")
    for m in _SMALL_PHI:
        chi = cyclotomic_poly(m)
        for mu in (chi, tuple(-c for c in chi)):
            ring = QuotientRing(poly, mu)
            assert ring.is_domain, m
            assert ring.is_field == (base is QQ), m
    if base is QQ:
        assert QuotientRing(poly, tuple(3 * c for c in cyclotomic_poly(5))).is_field


@pytest.mark.parametrize("base", [ZZ, QQ], ids=["Z", "Q"])
@pytest.mark.parametrize(
    "mu",
    [
        zpoly.mul(cyclotomic_poly(3), cyclotomic_poly(4)),
        (2, 0, 1),
        (-1, 0, 1),
        cyclotomic_poly(19),  # degree 18, above the scan
    ],
    ids=["chi3*chi4", "x^2+2", "x^2-1", "chi19"],
)
def test_other_moduli_are_not_flagged(base, mu):
    ring = QuotientRing(PolynomialRing(base, "x"), mu)
    assert not ring.is_domain and not ring.is_field


def test_cyclotomic_scan_tries_only_indices_of_the_right_degree(monkeypatch):
    tried = []

    def spy(m):
        tried.append(m)
        return cyclotomic_poly(m)

    monkeypatch.setattr(rings, "cyclotomic_poly", spy)
    for mu in ((2, 0, 1), cyclotomic_poly(17), zpoly.mul(cyclotomic_poly(5), cyclotomic_poly(7))):
        QuotientRing(PolynomialRing(QQ, "x"), mu)
        d = len(mu) - 1
        assert tried and all(totient(m) == d for m in tried), (mu, tried)
        tried.clear()


def test_cyclotomic_scan_skips_cyclo_and_z_mod_n(monkeypatch):
    def refuse(mu):
        raise AssertionError(f"scanned {mu}")

    monkeypatch.setattr(rings, "_is_cyclotomic", refuse)
    for n in range(2, 40):
        assert CyclotomicRing(n).is_domain
    ring = QuotientRing(PolynomialRing(ModularRing(7), "x"), cyclotomic_poly(3))
    assert not ring.is_domain


def test_order_bound_over_z_certifies_a_non_root_of_unity():
    # Z[t]/(t^2 - 2) embeds in Q(sqrt 2), whose roots of unity are +-1
    ring = parse_ring("Z[t]/(t^2-2)")
    assert ring.root_of_unity_order_bound() == rings._qalg_torsion_bound(2)
    res = q_characteristic(QContext(ring, ring.generator), bound=100)
    assert res.is_zero and res.rule == "root-of-unity bound"
