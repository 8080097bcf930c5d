"""Twisted powers, their laws, basis expansion, and principal ideal powers."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith import (
    QQ,
    ZZ,
    BasisUnavailableError,
    CyclotomicRing,
    DomainError,
    EigenvectorError,
    ModularRing,
    PolynomialRing,
    QContext,
    RationalFunctionField,
    RingElement,
    RingMismatchError,
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
from qarith import twisted
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


def test_twisted_binomial_mismatch_names_least_exponent(monkeypatch):
    import qarith.twisted as tw

    zq = PolynomialRing(ZZ, "q")
    alg = TwistedAlgebra(zq, ("x", "y"))
    alg.set_sigma({"x": alg.scalar(zq.generator) * alg.gen("x")})
    x, y = alg.gen("x"), alg.gen("y")
    true_binomial = tw.q_binomial
    # a wrong [2, k]_q for k = 0 and k = 2 puts differences at y^2 and x^2
    monkeypatch.setattr(tw, "q_binomial", lambda ctx, n, k: true_binomial(ctx, n, k) + (k != 1))
    report = twisted_binomial_check(alg, x, y, 2)
    assert not report.equal
    exps, lhs, rhs = report.mismatch
    assert exps == (0, 2)
    assert (lhs, rhs) == (zq.one, zq.from_int(2))


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
    v0 = artin_schreier_check(z3, 0)  # sigma = id: an algebra of its own
    assert v0 == v0.ring.gen("x") ** 3
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


# --- the dense affine path against iterated substitution -----------------------


def _substituted_powers(alg, f, n_max, sigma_power):
    """[f^(0), ..., f^(n_max)] for s = sigma^sigma_power, by the inductive
    rule with sigma applied by generic substitution only."""
    out, cur = [alg.one], f
    for _ in range(n_max):
        out.append(out[-1] * cur)
        for _ in range(sigma_power):
            cur = alg.substitute(cur, alg.sigma_images)
    return out


def _affine_cases():
    zq = PolynomialRing(ZZ, "q")
    z12 = ModularRing(12)
    return [
        (ZZ, [0, 1, -1, 2, 3], [0, 1, -3]),
        (QQ, [0, 1, -1, 2, QQ.element(Fraction(1, 2))], [0, 1, QQ.element(Fraction(-2, 3))]),
        (z12, [0, 1, -1, 2, 6], [0, 1, 5]),
        (zq, [0, 1, -1, 2, zq.generator], [0, 1, zq.generator + 1]),
    ]


@pytest.mark.parametrize("case", range(4))
def test_affine_twisted_power_matches_substitution(case):
    base, qs, hs = _affine_cases()[case]
    rng = random.Random(case)
    for q in qs:
        for h in hs:
            alg = TwistedAlgebra.univariate_affine(base, q, h)
            x = alg.gen("x")
            fs = [x, x + 2, alg.zero, alg.from_int(3)] + [alg.random_element(rng) for _ in range(2)]
            for f in fs:
                assert alg.sigma(f) == alg.substitute(f, alg.sigma_images), (q, h, f)
            for f in fs[1:2] + fs[4:]:
                for s in range(4):
                    for n, expected in enumerate(_substituted_powers(alg, f, 12, s)):
                        assert twisted_power(alg, f, n, s) == expected, (q, h, f, n, s)


@pytest.fixture(scope="module")
def integer_corpus():
    """[(alg, f, sigma_power, expected)] over Z: every q and h in -3..3 with
    a seeded f of degree <= 4 (zero, constant or not) and sigma power 0..3,
    and the powers f^(0), ..., f^(n_max) by the inductive rule.  n_max is 70
    where |q^sigma_power| <= 2 and 30 where the coefficients grow faster."""
    rng = random.Random(20)
    cases = []
    for q in range(-3, 4):
        for h in range(-3, 4):
            deg = rng.choice([-1, 0, 1, 1, 2, 3, 4])
            cs = [rng.randint(-4, 4) for _ in range(deg + 1)]
            if cs:
                cs[-1] = cs[-1] or 1
            s = rng.randint(0, 3)
            alg = TwistedAlgebra.univariate_affine(ZZ, q, h)
            f = alg.element(tuple(((e,), c) for e, c in enumerate(cs) if c))
            n_max = 70 if abs(q) ** s <= 2 else 30
            cases.append((alg, f, s, _substituted_powers(alg, f, n_max, s)))
    return cases


@pytest.mark.parametrize("slot_bits", [None, 1, 10**9])
def test_integer_twisted_power_matches_substitution(monkeypatch, integer_corpus, slot_bits):
    # the default packs a prefix of the factors and splits the rest; 1 packs
    # one factor and splits every bit; 10**9 packs all n factors at once
    if slot_bits is not None:
        monkeypatch.setattr(twisted, "PACKED_SLOT_BITS", slot_bits)
    rng = random.Random(slot_bits)
    for alg, f, s, expected in integer_corpus:
        n_max = len(expected) - 1
        for n in sorted({0, 1, 2, 3, n_max} | set(rng.sample(range(n_max), 6))):
            assert twisted_power(alg, f, n, s) == expected[n], (alg, f, n, s)


@pytest.mark.parametrize("q, h, cs", [
    (0, 0, (0, 1)), (0, 0, (1, 1)), (0, 0, (0, 2, -1)), (0, 1, (0, 0, 1)), (0, -1, (0, 1)),
    (1, 0, (0, 1)), (-1, 0, (0, 0, -1)), (-1, 1, (0, 1)), (2, 0, (0, 1)), (1, 0, (-1,)),
])
def test_integer_twisted_power_with_factors_of_bound_0_or_1(monkeypatch, q, h, cs):
    # past the first factor, s^i(f) is 0 or +-1 or +-x^j in some of these
    # (a = b = 0 when q = h = 0, s(x) = +-x or a constant), which ends the
    # packed prefix, so it stays within PACKED_SLOT_BITS of the n points
    alg = TwistedAlgebra.univariate_affine(ZZ, q, h)
    f = alg.element(tuple(((e,), c) for e, c in enumerate(cs) if c))
    packed = []
    tree = twisted.product_tree
    monkeypatch.setattr(twisted, "product_tree", lambda values, *rest: packed.append(len(values)) or tree(values, *rest))
    for s in range(4):
        for n, expected in enumerate(_substituted_powers(alg, f, 9, s)):
            assert twisted_power(alg, f, n, s) == expected, (q, h, cs, n, s)
        packed.clear()
        twisted_power(alg, f, 1000, s)
        assert max(packed, default=0) <= twisted.PACKED_SLOT_BITS, (q, h, cs, s, packed)


def test_affine_sigma_of_high_degree_matches_substitution():
    alg = TwistedAlgebra.univariate_affine(ZZ, 3, -2)
    rng = random.Random(5)
    for deg in (5, 17, 30):
        f = alg.element(tuple(((e,), rng.randint(-9, 9)) for e in range(deg + 1)))
        assert alg.sigma(f) == alg.substitute(f, alg.sigma_images)
    # sigma set from a parsed image detects the same affine data
    cli_alg = TwistedAlgebra(ZZ, ("x",))
    cli_alg.set_sigma({"x": cli_alg.gen("x") - 1})
    assert str(twisted_power(cli_alg, cli_alg.gen("x"), 4)) == "-6*x + 11*x^2 - 6*x^3 + x^4"


def test_twisted_power_errors_on_every_path():
    affine = falling(ZZ)
    sparse = TwistedAlgebra(ZZ, ("x", "y"))
    sparse.set_sigma({"x": sparse.gen("x") - 1})
    nonaffine = TwistedAlgebra(ZZ, ("x",))
    nonaffine.set_sigma({"x": nonaffine.gen("x") ** 2})
    for alg in (affine, sparse, nonaffine):
        x = alg.gen("x")
        with pytest.raises(DomainError, match="n >= 0"):
            twisted_power(alg, x, -1)
        for n in (1, 5):
            with pytest.raises(DomainError, match="sigma iteration count"):
                twisted_power(alg, x, n, -1)
        assert twisted_power(alg, x, 0, -1).is_one()
        with pytest.raises(RingMismatchError):
            twisted_power(alg, falling(QQ).gen("x"), 2)
    x = nonaffine.gen("x")
    assert twisted_power(nonaffine, x, 3) == x * x**2 * x**4


def test_sigma_is_part_of_the_algebra():
    falling = TwistedAlgebra.univariate_affine(ZZ, 1, -1)
    dilation = TwistedAlgebra.univariate_affine(ZZ, 2, 0)
    assert falling != dilation
    assert falling == TwistedAlgebra.univariate_affine(ZZ, 1, -1)
    with pytest.raises(RingMismatchError):
        twisted_power(falling, dilation.gen("x"), 3)
    with pytest.raises(RingMismatchError):
        falling.gen("x") + dilation.gen("x")
    # an unset sigma is the identity, and equals an explicit one
    assert TwistedAlgebra(ZZ, ("x",)) == TwistedAlgebra.univariate_affine(ZZ, 1, 0)


def test_algebra_name_shows_sigma():
    falling = TwistedAlgebra.univariate_affine(ZZ, 1, -1)
    dilation = TwistedAlgebra.univariate_affine(ZZ, 2, 0)
    assert str(falling) == "Z[x] with sigma(x) = -1 + x"
    assert str(dilation) == "Z[x] with sigma(x) = 2*x"
    assert str(TwistedAlgebra(ZZ, ("x", "y"))) == "Z[x,y]"
    assert str(TwistedAlgebra.univariate_affine(ZZ, 1, 0)) == "Z[x]"
    assert str(TwistedAlgebra.diagonal(ZZ, {"x": 3, "y": 1})) == "Z[x,y] with sigma(x) = 3*x"
    with pytest.raises(RingMismatchError) as err:
        twisted_power(falling, dilation.gen("x"), 3)
    assert str(err.value) == (
        "elements of Z[x] with sigma(x) = -1 + x and Z[x] with sigma(x) = 2*x cannot be combined"
    )


# --- Newton division against leading-term elimination --------------------------


def _eliminate(alg, f):
    """{i: c_i} with f = sum c_i x^(i), by leading-term elimination: the
    expansion's earlier algorithm, kept as the oracle.  The basis is built
    by the inductive rule with sigma applied by substitution."""
    q, _ = alg._affine
    qinv = RingElement(alg.base, alg.base._invert(q))
    basis, cur = [alg.one], alg.gen("x")
    coeffs = {}
    while not f.is_zero():
        d = alg.degree(f)
        while len(basis) <= d:
            basis.append(basis[-1] * cur)
            cur = alg.substitute(cur, alg.sigma_images)
        c = alg.coefficient(f, d) * qinv ** (d * (d - 1) // 2)
        coeffs[d] = c
        f = f - alg.scalar(c) * basis[d]
        assert alg.degree(f) < d
    return coeffs


def _rationals(base):
    return st.builds(lambda a, b: base.from_int(a) / base.from_int(b), st.integers(-9, 9), st.integers(1, 5))


def _twisted_case(kind):
    """(base, q strategy, h strategy, coefficient strategy) per base kind."""
    if kind == "Q":
        qs = st.sampled_from([QQ.from_int(1), QQ.from_int(-1), QQ.from_int(2), QQ.element(Fraction(-1, 3))])
        return QQ, qs, _rationals(QQ), _rationals(QQ)
    if kind in ("Z/12", "Z/7"):
        ring = ModularRing(int(kind[2:]))
        units = [ring.from_int(u) for u in range(ring.n) if ring.is_unit(ring.from_int(u))]
        residues = st.integers(0, ring.n - 1).map(ring.from_int)
        return ring, st.sampled_from(units), residues, residues
    if kind == "Z":
        ints = st.integers(-9, 9).map(ZZ.from_int)
        return ZZ, st.sampled_from([ZZ.one, -ZZ.one]), ints, ints
    field = RationalFunctionField("q")
    q = field.generator
    return field, st.just(q), st.sampled_from([field.zero, field.one, q, q + 1, -(q * q) / 2]), _rationals(field)


@st.composite
def _expansions(draw):
    """(algebra, f): sigma(x) = q*x + h with q a unit, f of degree <= 12."""
    base, qs, hs, coeffs = _twisted_case(draw(st.sampled_from(["Q", "Z/12", "Z/7", "Z", "Q(q)"])))
    alg = TwistedAlgebra.univariate_affine(base, draw(qs), draw(hs))
    cs = draw(st.lists(coeffs, max_size=13))
    return alg, alg.element(tuple(((e,), c.payload) for e, c in enumerate(cs)))


@settings(max_examples=200, deadline=None)
@given(_expansions())
def test_newton_division_matches_leading_term_elimination(case):
    alg, f = case
    basis = TwistedPowerBasis(alg)
    coeffs = expand_in_twisted_basis(basis, f)
    assert coeffs == _eliminate(alg, f)
    assert all(not c.is_zero() for c in coeffs.values())
    assert assemble_from_twisted_basis(basis, coeffs) == f
    for n in (0, 1, 3, 7):
        want = {i: c for i, c in _eliminate(alg, f).items() if i < n}
        truncated = alg.zero
        for i, c in want.items():
            truncated = truncated + alg.scalar(c) * twisted_power(alg, alg.gen("x"), i)
        assert reduce_mod_twisted_ideal(basis, f, n) == truncated


def test_basis_element_is_the_twisted_power():
    basis = TwistedPowerBasis(TwistedAlgebra.univariate_affine(QQ, 2, 1))
    alg = basis.algebra
    x = alg.gen("x")
    assert [basis.element(i) for i in range(4)] == [alg.one, x, x * (2 * x + 1), x * (2 * x + 1) * (4 * x + 3)]
    assert assemble_from_twisted_basis(basis, {2: 3, 0: QQ.from_int(1)}) == 3 * basis.element(2) + 1
    with pytest.raises(RingMismatchError):
        assemble_from_twisted_basis(basis, {1: ZZ.one})
