"""Twisted powers, their laws, basis expansion, and principal ideal powers."""

import random

import pytest

from qarith import (
    QQ,
    ZZ,
    BasisUnavailableError,
    CyclotomicRing,
    EigenvectorError,
    ModularRing,
    PolynomialRing,
    QContext,
    RationalFunctionField,
    TwistedAlgebra,
    TwistedPowerBasis,
    UnsupportedError,
    affine_orbit,
    artin_schreier_check,
    assemble_from_twisted_basis,
    expand_in_twisted_basis,
    q_state,
    reduce_mod_twisted_ideal,
    twisted_binomial_check,
    twisted_power,
    twisted_power_compose,
    twisted_power_sign_check,
)
from helpers import stirling2_table


def falling(base=None):
    return TwistedAlgebra.univariate_affine(base or QQ, 1, -1)


def dilation(base, q):
    return TwistedAlgebra.diagonal(base, {"x": q})


def test_identity_sigma_gives_ordinary_powers():
    alg = TwistedAlgebra(QQ, ("x",))
    x = alg.gen("x")
    for n in range(6):
        assert twisted_power(alg, x, n) == x**n
    assert twisted_power(alg, x, 0).is_one()


def test_falling_pochhammer():
    alg = falling()
    x = alg.gen("x")
    assert twisted_power(alg, x, 3) == x * (x - 1) * (x - 2)


def test_rising_pochhammer():
    alg = TwistedAlgebra.univariate_affine(QQ, 1, 1)
    x = alg.gen("x")
    for n in range(9):
        expected = alg.one
        for i in range(n):
            expected = expected * (x + i)
        assert twisted_power(alg, x, n) == expected


def test_dilation_closed_form():
    zq = PolynomialRing(ZZ, "q")
    alg = dilation(zq, zq.generator)
    x = alg.gen("x")
    ctx = QContext(zq, zq.generator)
    for n in range(9):
        assert twisted_power(alg, x, n) == alg.scalar(ctx.q_power(n * (n - 1) // 2)) * x**n


def test_q_pochhammer():
    zq = PolynomialRing(ZZ, "q")
    q = zq.generator
    alg = dilation(zq, q)
    x = alg.gen("x")
    lhs = twisted_power(alg, alg.one - x, 3)
    rhs = (alg.one - x) * (alg.one - alg.scalar(q) * x) * (alg.one - alg.scalar(q * q) * x)
    assert lhs == rhs


def test_twisted_power_of_general_element():
    alg = falling()
    x = alg.gen("x")
    f = x * x + 1
    assert twisted_power(alg, f, 2) == f * alg.sigma(f)


def test_sigit_laws():
    zq = PolynomialRing(ZZ, "q")
    alg = TwistedAlgebra(zq, ("x",))
    alg.set_sigma({"x": alg.scalar(zq.generator) * alg.gen("x") + alg.one})
    rng = random.Random(11)
    for _ in range(4):
        f = alg.random_element(rng)
        g = alg.random_element(rng)
        for n in range(5):
            for m in range(0, 9 - n, 2):
                assert twisted_power(alg, f, n) * alg.sigma_iter(twisted_power(alg, f, m), n) == twisted_power(alg, f, n + m)
        for n in range(7):
            assert twisted_power(alg, f * g, n) == twisted_power(alg, f, n) * twisted_power(alg, g, n)
        for k in range(4):
            for n in range(5):
                assert alg.sigma_iter(twisted_power(alg, f, n), k) == twisted_power(alg, alg.sigma_iter(f, k), n)


def test_compose_law():
    alg = falling()
    x = alg.gen("x")
    for n in range(5):
        for m in range(5):
            if n * m > 12:
                continue
            lhs, mid, rhs = twisted_power_compose(alg, x, n, m)
            assert lhs == rhs == mid
    lhs, mid, rhs = twisted_power_compose(alg, x, 2, 2)
    assert rhs == x * (x - 1) * (x - 2) * (x - 3)


def test_affine_orbit():
    zq = PolynomialRing(ZZ, "q")
    q = zq.generator
    alg = TwistedAlgebra(zq, ("x",))
    alg.set_sigma({"x": alg.scalar(q) * alg.gen("x") + alg.one})
    x = alg.gen("x")
    assert affine_orbit(alg, 0) == x
    assert affine_orbit(alg, 2) == alg.scalar(q * q) * x + alg.scalar(1 + q)
    ctx = QContext(zq, q)
    for n in range(13):
        assert x - alg.sigma_iter(x, n) == alg.scalar(q_state(ctx, n)) * (x - alg.sigma(x))


def test_affine_orbit_negative():
    qq_t = RationalFunctionField("q")
    alg = TwistedAlgebra(qq_t, ("x",))
    alg.set_sigma({"x": alg.scalar(qq_t.generator) * alg.gen("x") + alg.one})
    x = alg.gen("x")
    for n in range(1, 8):
        back = affine_orbit(alg, -n)
        assert alg.sigma_iter(back, n) == x


def test_twisted_binomial_small():
    zq = PolynomialRing(ZZ, "q")
    q = zq.generator
    alg = TwistedAlgebra(zq, ("x", "y"))
    alg.set_sigma({"x": alg.scalar(q) * alg.gen("x")})
    x, y = alg.gen("x"), alg.gen("y")
    report = twisted_binomial_check(alg, x, y, 2)
    assert report.equal
    assert report.lhs == (x + y) * (alg.scalar(q) * x + y)
    for n in range(7):
        assert twisted_binomial_check(alg, x, y, n).equal


def test_twisted_binomial_eigenvector_errors():
    zq = PolynomialRing(ZZ, "q")
    alg = TwistedAlgebra(zq, ("x", "y"))
    alg.set_sigma({"x": alg.gen("x") + alg.one})
    with pytest.raises(EigenvectorError) as info:
        twisted_binomial_check(alg, alg.gen("x"), alg.gen("y"), 2)
    assert info.value.generator == "x"
    alg2 = TwistedAlgebra(zq, ("x", "y"))
    alg2.set_sigma({"x": alg2.scalar(zq.generator) * alg2.gen("x"), "y": alg2.gen("y") + alg2.one})
    with pytest.raises(EigenvectorError):
        twisted_binomial_check(alg2, alg2.gen("x"), alg2.gen("y"), 2)


def test_frobenius_over_cyclotomic_quotients():
    for p in (2, 3, 5):
        ring = CyclotomicRing(p)
        alg = TwistedAlgebra(ring, ("x", "y"))
        alg.set_sigma({"x": alg.scalar(ring.generator) * alg.gen("x")})
        x, y = alg.gen("x"), alg.gen("y")
        assert twisted_power(alg, x + y, p) == twisted_power(alg, x, p) + twisted_power(alg, y, p)


def test_sign_rule():
    for p in range(2, 8):
        ring = CyclotomicRing(p)
        alg = dilation(ring, ring.generator)
        x = alg.gen("x")
        value = twisted_power_sign_check(alg, p)
        expected = x**p if p % 2 else -(x**p)
        assert value == expected


def test_artin_schreier():
    z2, z3 = ModularRing(2), ModularRing(3)
    v = artin_schreier_check(z2, 1)
    alg = v.ring
    x = alg.gen("x")
    assert v == x * (x + 1)
    v3 = artin_schreier_check(z3, 1)
    x3 = v3.ring.gen("x")
    assert v3 == x3**3 - x3
    assert artin_schreier_check(z3, 0) == x3**3
    for h in range(3):
        artin_schreier_check(z3, h)
    with pytest.raises(UnsupportedError):
        artin_schreier_check(ModularRing(4), 1)


def test_basis_expansion_constant():
    basis = TwistedPowerBasis(falling())
    c = basis.algebra.from_int(5)
    assert expand_in_twisted_basis(basis, c) == {0: QQ.from_int(5)}
    assert expand_in_twisted_basis(basis, basis.algebra.zero) == {}


def test_basis_expansion_stirling_row():
    basis = TwistedPowerBasis(falling())
    x = basis.algebra.gen("x")
    coeffs = expand_in_twisted_basis(basis, x * x)
    assert {i: int(c.payload) for i, c in coeffs.items()} == {1: 1, 2: 1}


def test_basis_expansion_matches_stirling_recurrence():
    table = stirling2_table(8)
    basis = TwistedPowerBasis(falling())
    x = basis.algebra.gen("x")
    for d in range(9):
        coeffs = expand_in_twisted_basis(basis, x**d)
        got = {i: int(c.payload) for i, c in coeffs.items()}
        expected = {i: table[(d, i)] for i in range(d + 1) if table.get((d, i))}
        assert got == expected


def test_basis_expansion_dilation():
    qq_q = RationalFunctionField("q")
    basis = TwistedPowerBasis(dilation(qq_q, qq_q.generator))
    x = basis.algebra.gen("x")
    coeffs = expand_in_twisted_basis(basis, x * x)
    assert list(coeffs) == [2]
    assert str(coeffs[2]) == "1/q"


def test_basis_unavailable_for_nonunit_scale():
    zq = PolynomialRing(ZZ, "q")
    with pytest.raises(BasisUnavailableError):
        TwistedPowerBasis(dilation(zq, zq.generator))


def test_basis_roundtrip_random():
    basis = TwistedPowerBasis(falling())
    alg = basis.algebra
    x = alg.gen("x")
    rng = random.Random(23)
    for _ in range(12):
        f = alg.zero
        for e in range(rng.randint(0, 10) + 1):
            f = f + alg.from_int(rng.randint(-9, 9)) * x**e
        coeffs = expand_in_twisted_basis(basis, f)
        assert assemble_from_twisted_basis(basis, coeffs) == f


def test_principal_ideal_powers():
    alg = falling()
    x = alg.gen("x")
    assert twisted_power(alg, x, 0).is_one()
    assert twisted_power(alg, x, 1) == x
    assert twisted_power(alg, x, 3) == x * (x - 1) * (x - 2)


def test_truncated_quotient_tower():
    basis = TwistedPowerBasis(falling())
    alg = basis.algebra
    x = alg.gen("x")
    f = x**3 + x
    # multiples of x^(n) reduce to zero
    g = twisted_power(alg, x, 2) * (x + 1)
    assert reduce_mod_twisted_ideal(basis, g, 2).is_zero()
    # reductions are compatible along the tower
    r3 = reduce_mod_twisted_ideal(basis, f, 3)
    r2 = reduce_mod_twisted_ideal(basis, f, 2)
    r1 = reduce_mod_twisted_ideal(basis, f, 1)
    assert reduce_mod_twisted_ideal(basis, r3, 2) == r2
    assert reduce_mod_twisted_ideal(basis, r2, 1) == r1
    # representative differs from f by an ideal member
    delta = f - r2
    assert reduce_mod_twisted_ideal(basis, delta, 2).is_zero()


def test_mixed_endomorphism_twisted_power():
    # sigma(y) = q*y and sigma(w) = w + y give w^(n) = w(w + y)...(w + (n-1)_q y)
    zq = PolynomialRing(ZZ, "q")
    q = zq.generator
    alg = TwistedAlgebra(zq, ("y", "w"))
    alg.set_sigma({"y": alg.scalar(q) * alg.gen("y"), "w": alg.gen("w") + alg.gen("y")})
    y, w = alg.gen("y"), alg.gen("w")
    ctx = QContext(zq, q)
    for n in range(7):
        expected = alg.one
        for i in range(n):
            expected = expected * (w + alg.scalar(q_state(ctx, i)) * y)
        assert twisted_power(alg, w, n) == expected


def test_sigma_set_once():
    alg = TwistedAlgebra(QQ, ("x",))
    alg.set_sigma({"x": alg.gen("x")})
    with pytest.raises(Exception):
        alg.set_sigma({"x": alg.gen("x")})
