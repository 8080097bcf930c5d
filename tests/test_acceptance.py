"""Acceptance criteria: one test per criterion, exact assertions throughout.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; timings print with ``-s``.
"""

import math
import random
import time
from fractions import Fraction

from qarith import (
    ZI,
    ZZ,
    CyclotomicRing,
    ModularRing,
    PolynomialRing,
    QContext,
    certify_flatness,
    cyclotomic_poly,
    evaluate_factors,
    factor_q_binomial,
    factor_q_factorial,
    factor_q_integer,
    induced_root_system,
    parse_element,
    parse_ring,
    q_binomial,
    q_characteristic,
    q_factorial,
    q_power_context,
    q_state,
    q_state_rational,
    rational_power,
    run_identity,
    standard_root_system,
    twisted_power,
    build_root_system,
    expand_in_twisted_basis,
    TwistedAlgebra,
    TwistedPowerBasis,
)
from qarith.cli import main
from qarith.cyclotomic import divisors
from conftest import RING_SPECS, fleet_contexts
from helpers import count_subspaces, stirling2_table


def _report(number, label, started):
    print(f"criterion {number:02d} PASS ({time.perf_counter() - started:.2f}s): {label}")


def test_criterion_01_paper_counterexamples():
    started = time.perf_counter()
    z8 = ModularRing(8)
    ctx = QContext(z8, z8.from_int(3))
    assert q_characteristic(ctx).p == 4
    assert ctx.q_power(2).is_one() and ctx.q_power(2) != -z8.one

    f2 = parse_ring("Z/2[X]/(X^2-1)")
    assert q_characteristic(QContext(f2, f2.generator)).p == 4

    qx = parse_ring("Q[X]/(X^2-1)")
    res = q_characteristic(QContext(qx, qx.generator))
    assert res.is_zero and res.certified

    gctx = QContext(ZI, ZI.generator)
    assert q_characteristic(gctx).p == 4
    two_q = q_state(gctx, 2)
    assert two_q == ZI.element((1, 1)) and two_q.try_invert() is None

    z4 = ModularRing(4)
    assert q_binomial(QContext(z4, z4.one), 4, 2) == z4.from_int(2)

    assert certify_flatness(QContext(z4, z4.from_int(-1))).divisible
    cert = certify_flatness(QContext(z4, z4.one))
    assert not cert.flat and cert.witness is not None
    m, a = cert.witness
    assert not a.is_zero() and not q_state(QContext(z4, z4.one), m).is_zero()
    assert (q_state(QContext(z4, z4.one), m) * a).is_zero()
    _report(1, "paper counterexample regression", started)


def test_criterion_02_identity_suites():
    started = time.perf_counter()
    span = 20
    for ctx in fleet_contexts():
        ring = ctx.ring
        one = ring.one
        lo = -span if ctx.q_inverse is not None else 0
        ms = range(lo, span + 1)
        sub_ctx = {}
        for m in ms:
            # geometric-sum identity
            assert (one - ctx.q) * q_state(ctx, m) == one - ctx.q_power(m)
        for m in ms:
            inv = ctx.q_power(-m) if ctx.q_inverse is not None else None
            sub = sub_ctx.setdefault(m, QContext(ring, ctx.q_power(m), q_inverse=inv))
            sm, pm = q_state(ctx, m), ctx.q_power(m)
            for n in ms:
                assert q_state(ctx, m + n) == sm + pm * q_state(ctx, n)
                assert q_state(ctx, m * n) == sm * q_state(sub, n)
        res = q_characteristic(ctx, bound=10**4)
        if res.is_finite:
            p = res.p
            for m in ms:
                assert q_state(ctx, m) == q_state(ctx, m % p)
                if math.gcd(m, p) == 1:
                    assert q_state(ctx, m).try_invert() is not None
    _report(2, "explicit/addition/multiplication/divisibility over the fleet", started)


def test_criterion_03_binomial_suites():
    started = time.perf_counter()
    ring = PolynomialRing(ZZ, "t")
    ctx = QContext(ring, ring.generator)
    for n in range(25):
        for k in range(n + 1):
            value = q_binomial(ctx, n, k)
            assert value == evaluate_factors(factor_q_binomial(n, k), ctx.q)
            assert all(isinstance(c, int) for c in value.payload)  # Gaussian polynomials live in Z[t]
    for n in range(21):
        for k in range(n + 1):
            assert q_binomial(ctx, n, k) == q_binomial(ctx, n, n - k)
    for n in range(13):
        for j in range(n + 1):
            for k in range(n + 1):
                assert q_binomial(ctx, n, j) * q_binomial(ctx, j, k) == q_binomial(ctx, n, k) * q_binomial(ctx, n - k, n - j)
    for n in range(17):
        for m in range(17 - n):
            for k in range(n + m + 1):
                rhs = ring.zero
                for i in range(max(0, k - m), min(k, n) + 1):
                    rhs = rhs + ctx.q_power(i * (m - k + i)) * q_binomial(ctx, n, i) * q_binomial(ctx, m, k - i)
                assert q_binomial(ctx, n + m, k) == rhs
    _report(3, "Pascal vs cyclotomic product, symmetry, transitivity, Chu-Vandermonde", started)


def test_criterion_04_quantum_and_classical_lucas():
    started = time.perf_counter()
    for p in range(2, 13):
        ring = CyclotomicRing(p)
        ctx = QContext(ring, ring.generator)
        assert q_characteristic(ctx).p == p
        assert certify_flatness(ctx).flat
        for n in range(5):
            for k in range(5):
                binom = ring.from_int(math.comb(n, k))
                for i in range(p):
                    for j in range(p):
                        assert q_binomial(ctx, n * p + i, k * p + j) == binom * q_binomial(ctx, i, j)
    for p in (2, 3, 5, 7):
        ring = ModularRing(p)
        ctx = QContext(ring, ring.one)
        top = p**3
        for n in range(top + 1):
            for k in range(n + 1):
                digits_product = 1
                nn, kk = n, k
                while nn or kk:
                    digits_product = digits_product * math.comb(nn % p, kk % p) % p
                    nn //= p
                    kk //= p
                assert q_binomial(ctx, n, k) == ring.from_int(digits_product)
    _report(4, "quantum Lucas over Cyclo(p), classical Lucas in Z/p", started)


def test_criterion_05_grassmannian_oracle():
    started = time.perf_counter()
    for q in (2, 3):
        field = ModularRing(q)
        ctx = QContext(ZZ, ZZ.from_int(q))
        for n in range(5):
            for k in range(n + 1):
                assert q_binomial(ctx, n, k) == ZZ.from_int(count_subspaces(field, n, k))
    assert q_binomial(QContext(ZZ, ZZ.from_int(2)), 4, 2) == ZZ.from_int(35)
    _report(5, "q-binomials count subspaces over F_q (brute force)", started)


def test_criterion_06_cyclotomic_factorizations():
    started = time.perf_counter()
    ring = PolynomialRing(ZZ, "t")
    ctx = QContext(ring, ring.generator)
    for n in range(1, 61):
        prod = ring.one
        for d in divisors(n):
            prod = prod * ring.element(cyclotomic_poly(d))
        assert prod == ring.element((-1,) + (0,) * (n - 1) + (1,))
        assert q_state(ctx, n) == evaluate_factors(factor_q_integer(n), ctx.q)
    for n in range(31):
        assert q_factorial(ctx, n) == evaluate_factors(factor_q_factorial(n), ctx.q)
    _report(6, "cyclotomic product identities for powers, states, factorials", started)


def test_criterion_07_quantum_rationals():
    started = time.perf_counter()
    sys6 = standard_root_system({1, 2, 3, 6})
    assert sys6.admissible
    ring = sys6.ctx.ring
    one, q = ring.one, sys6.ctx.q
    grid = [Fraction(a, 6) for a in range(-18, 19)]
    states = {r: q_state_rational(sys6, r) for r in grid}
    powers = {r: rational_power(sys6, r) for r in grid}
    for r in grid:
        assert (one - q) * states[r] == one - powers[r]
    for r1 in grid:
        for r2 in grid:
            if r1 + r2 in states:
                assert states[r1 + r2] == states[r1] + powers[r1] * states[r2]
    checked = 0
    for r1 in grid:
        try:
            ind = induced_root_system(sys6, r1)
        except Exception:
            continue
        for r2 in grid:
            rr = r1 * r2
            if 6 % rr.denominator:
                continue
            try:
                second = q_state_rational(ind, r2)
            except Exception:
                continue
            lhs = states[rr] if rr in states else q_state_rational(sys6, rr)
            assert lhs == states[r1] * second
            checked += 1
    assert checked > 200

    # non-admissibility regressions: roots of 1, and Z[i] square roots of -1
    z5 = ModularRing(5)
    roots_of_one = build_root_system(QContext(z5, 1), {1, 2}, {2: z5.from_int(4)})
    assert not roots_of_one.admissible
    gauss = build_root_system(QContext(ZI, ZI.from_int(-1)), {1, 2}, {2: ZI.element((0, 1))})
    assert not gauss.admissible and gauss.nonadmissible_n == 2
    _report(7, "rational q-states on the (1/6)Z grid, admissibility gates", started)


def test_criterion_08_twisted_suite():
    started = time.perf_counter()
    zq = PolynomialRing(ZZ, "q")
    qgen = zq.generator
    alg = TwistedAlgebra(zq, ("x",))
    alg.set_sigma({"x": alg.scalar(qgen) * alg.gen("x") + alg.one})
    rng = random.Random(2024)
    for _ in range(3):
        f = alg.random_element(rng)
        g = alg.random_element(rng)
        for n in range(5):
            for m in range(0, 9 - n, 2):
                assert twisted_power(alg, f, n) * alg.sigma_iter(twisted_power(alg, f, m), n) == twisted_power(alg, f, n + m)
        for n in range(7):
            assert twisted_power(alg, f * g, n) == twisted_power(alg, f, n) * twisted_power(alg, g, n)
        for k in range(4):
            for n in range(6):
                assert alg.sigma_iter(twisted_power(alg, f, n), k) == twisted_power(alg, alg.sigma_iter(f, k), n)
    x = alg.gen("x")
    # the composition law for every n, m with n*m <= 12, sigma(x) = q*x + 1
    mov = run_identity("mov", zq, qgen, ranges={"nm_max": 12})
    assert mov.cases == 120 and mov.failures == []

    # affine orbits, both signs
    ctx = QContext(zq, qgen)
    for n in range(13):
        assert alg.sigma_iter(x, n) == alg.scalar(ctx.q_power(n)) * x + alg.scalar(q_state(ctx, n))
    qq_q = parse_ring("Q(q)")
    alg_inv = TwistedAlgebra(qq_q, ("x",))
    alg_inv.set_sigma({"x": alg_inv.scalar(qq_q.generator) * alg_inv.gen("x") + alg_inv.one})
    ictx = QContext(qq_q, qq_q.generator)
    xi = alg_inv.gen("x")
    for n in range(1, 13):
        back = alg_inv.scalar(ictx.q_power(-n)) * xi + alg_inv.scalar(q_state(ictx, -n))
        assert alg_inv.sigma_iter(back, n) == xi

    # twisted binomial over Z[q][x,y]
    axy = TwistedAlgebra(zq, ("x", "y"))
    axy.set_sigma({"x": axy.scalar(qgen) * axy.gen("x")})
    bctx = QContext(zq, qgen)
    bx, by = axy.gen("x"), axy.gen("y")
    for n in range(9):
        rhs = axy.zero
        for k in range(n + 1):
            rhs = rhs + axy.scalar(q_binomial(bctx, n, k)) * twisted_power(axy, bx, k) * twisted_power(axy, by, n - k)
        assert twisted_power(axy, bx + by, n) == rhs

    for p in (2, 3, 5):
        ring = CyclotomicRing(p)
        frob = TwistedAlgebra(ring, ("x", "y"))
        frob.set_sigma({"x": frob.scalar(ring.generator) * frob.gen("x")})
        fx, fy = frob.gen("x"), frob.gen("y")
        assert twisted_power(frob, fx + fy, p) == twisted_power(frob, fx, p) + twisted_power(frob, fy, p)

    for base in (ModularRing(2), ModularRing(3)):
        artin = run_identity("artin_schreier", base, None)
        assert artin.cases == base.cardinality and artin.failures == []

    for p in range(2, 8):
        ring = CyclotomicRing(p)
        sign = run_identity("sign_rule", ring, ring.generator)
        assert sign.cases == 1 and sign.failures == [], p

    table = stirling2_table(8)
    basis = TwistedPowerBasis(TwistedAlgebra.univariate_affine(parse_ring("Q"), 1, -1))
    xb = basis.algebra.gen("x")
    for d in range(9):
        got = {i: int(c.payload) for i, c in expand_in_twisted_basis(basis, xb**d).items()}
        assert got == {i: table[(d, i)] for i in range(d + 1) if table.get((d, i))}
    _report(8, "twisted power laws, binomial, Frobenius, Artin-Schreier, Stirling", started)


def test_criterion_09_power_of_q_law():
    started = time.perf_counter()
    for p in range(2, 13):
        ring = CyclotomicRing(p)
        ctx = QContext(ring, ring.generator)
        assert q_characteristic(ctx).p == p
        for k in range(1, 13):
            sub = q_power_context(ctx, k)
            res = q_characteristic(sub)
            if q_state(ctx, k).is_zero():
                # p divides k: q^k = 1 and the quantum characteristic falls
                # back to the ordinary ring characteristic (here 0)
                assert k % p == 0
                assert res.is_zero
            else:
                # hypotheses: no (k)_q-torsion (integral domain) and (k)_q != 0
                assert ring.is_domain
                assert res.p == p // math.gcd(p, k)
    z4 = ModularRing(4)
    ctx = QContext(z4, z4.from_int(-1))
    assert certify_flatness(ctx).divisible
    sub = q_power_context(ctx, 2)
    assert sub.q.is_one()
    assert not certify_flatness(sub).flat
    _report(9, "q^k characteristic law p/gcd(p,k) and the Z/4 breakdown", started)


def test_criterion_10_cli_contract(capsys):
    started = time.perf_counter()
    for spec in RING_SPECS:
        ring = parse_ring(spec)
        rng = random.Random(hash(spec) & 0xFFFFFF)
        for _ in range(1000):
            x = ring.random_element(rng)
            assert parse_element(ring, str(x)) == x
        assert parse_ring(str(ring)) == ring

    assert main(["verify", "lucas", "--ring", "Cyclo(5)"]) == 0
    assert main(["verify", "qbin_vanish", "--ring", "Z/4", "--q", "1"]) == 2
    assert main(["verify", "nonsense", "--ring", "Z"]) == 3
    assert main(["qbinom", "--ring", "Z[t]", "--q", "t", "4", "2"]) == 0
    capsys.readouterr()
    _report(10, "round-trip parse/print on 1000 elements per ring, exit codes", started)
