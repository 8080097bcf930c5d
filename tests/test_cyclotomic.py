"""Cyclotomic polynomials and the three divisor-indexed factorizations."""

import contextlib
import functools
import math
import signal

import pytest

from qarith import (
    ZZ,
    DomainError,
    PolynomialRing,
    QContext,
    cyclotomic_poly,
    eval_cyclotomic,
    evaluate_factors,
    factor_q_binomial,
    factor_q_factorial,
    factor_q_integer,
    q_binomial,
    q_factorial,
    q_state,
)
from qarith import zpoly
from qarith.cyclotomic import _fold, divisors, gaussian_coefficients
from helpers import brute_totient


def _zt_context():
    ring = PolynomialRing(ZZ, "t")
    return QContext(ring, ring.generator)


def test_small_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_degree_is_totient():
    for m in range(1, 61):
        assert len(cyclotomic_poly(m)) - 1 == brute_totient(m)


def test_product_over_divisors_is_power_minus_one():
    ring = PolynomialRing(ZZ, "t")
    for n in range(1, 61):
        prod = ring.one
        for d in divisors(n):
            prod = prod * ring.element(cyclotomic_poly(d))
        assert prod == ring.element((-1,) + (0,) * (n - 1) + (1,))


@functools.lru_cache(maxsize=None)
def _chi_by_division(m):
    """chi_m by the classical recursion: t^m - 1 divided exactly by the
    chi_d of the proper divisors d of m."""
    if m == 1:
        return (-1, 1)
    proper = (1,)
    for d in divisors(m)[:-1]:
        proper = zpoly.mul(proper, _chi_by_division(d))
    return zpoly.divexact((-1,) + (0,) * (m - 1) + (1,), proper)


def test_moebius_product_matches_the_division_recursion():
    # 1155 = 3*5*7*11 and 4290 = 2*3*5*11*13 have many small primes; 1024 and
    # 2 * 3^5 = 486 are stretched from a radical
    for m in [*range(1, 400), 486, 1024, 1155, 4290]:
        assert cyclotomic_poly(m) == _chi_by_division(m), m


def test_factor_q_integer_indices():
    assert factor_q_integer(1) == ()
    assert factor_q_integer(6) == (2, 3, 6)
    assert factor_q_integer(7) == (7,)
    with pytest.raises(DomainError):
        factor_q_integer(0)


def test_factor_q_integer_evaluates_to_state():
    ctx = _zt_context()
    for n in range(1, 61):
        assert evaluate_factors(factor_q_integer(n), ctx.q) == q_state(ctx, n)


def test_factor_q_factorial_exponents():
    assert factor_q_factorial(0) == {}
    assert factor_q_factorial(1) == {}
    assert factor_q_factorial(4) == {2: 2, 3: 1, 4: 1}
    assert factor_q_factorial(6) == {2: 3, 3: 2, 4: 1, 5: 1, 6: 1}


def test_factor_q_factorial_evaluates():
    ctx = _zt_context()
    for n in range(31):
        assert evaluate_factors(factor_q_factorial(n), ctx.q) == q_factorial(ctx, n)


def test_factor_q_binomial_indices():
    assert factor_q_binomial(4, 0) == ()
    assert factor_q_binomial(4, 4) == ()
    assert factor_q_binomial(4, 2) == (3, 4)
    assert factor_q_binomial(5, 2) == (4, 5)
    with pytest.raises(DomainError):
        factor_q_binomial(3, 4)


def test_factor_q_binomial_evaluates_and_certifies_integrality():
    # the cyclotomic product is a product of integer polynomials, so matching
    # the Pascal value certifies Gaussian polynomials have integer coefficients
    ctx = _zt_context()
    for n in range(25):
        for k in range(n + 1):
            assert evaluate_factors(factor_q_binomial(n, k), ctx.q) == q_binomial(ctx, n, k)


def test_floor_dichotomy():
    for n in range(40):
        for k in range(n + 1):
            for m in range(2, n + 2):
                assert n // m - k // m - (n - k) // m in (0, 1)


def test_eval_cyclotomic_at_elements():
    ctx = _zt_context()
    chi4 = eval_cyclotomic(4, ctx.q)
    assert chi4 == ctx.ring.element((1, 0, 1))
    assert eval_cyclotomic(1, ctx.ring.one).is_zero()


def _fold_reference(n, k, m):
    """[n, k]_t modulo t^m - 1 from the packed factors, reduced with %."""
    nbytes = (math.comb(n, k).bit_length() + 7) // 8
    modulus = (1 << (8 * nbytes * m)) - 1
    value = 1
    for d in factor_q_binomial(n, k):
        value = value * zpoly._pack(cyclotomic_poly(d), nbytes) % modulus
    data = value.to_bytes(nbytes * m, "little")
    return zpoly.strip(int.from_bytes(data[i:i + nbytes], "little") for i in range(0, len(data), nbytes))


def test_folded_gaussian_coefficients_match_references():
    for n in range(0, 131, 13):
        for k in range(0, n + 1, 6):
            plain = gaussian_coefficients(n, k)
            for m in (2, 5, 12, 61, 97):
                got = gaussian_coefficients(n, k, fold=m)
                assert got == _fold_reference(n, k, m), (n, k, m)
                by_exponent = [0] * m
                for e, c in enumerate(plain):
                    by_exponent[e % m] += c
                assert got == zpoly.strip(by_exponent), (n, k, m)


@contextlib.contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_fold_stops_at_the_modulus():
    # a multiple of the modulus sums its digits down to the modulus itself,
    # which the loop must keep rather than fold again forever
    bits = 24
    modulus = (1 << bits) - 1
    with _time_limit(5):
        for x in (0, 1, modulus - 1, modulus, modulus + 1, 2 * modulus, modulus**3, 7**40, 7**40 * modulus):
            r = _fold(x, modulus, bits)
            assert 0 <= r <= modulus and r % modulus == x % modulus and (r == 0) == (x == 0)
