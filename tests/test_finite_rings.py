"""Finite rings by structure: quantum characteristic, units, inverses and
annihilators of Z/n and Z/n[X]/(mu), checked against plain-int oracles that
walk and enumerate (nothing here calls the code paths under test to build an
expectation)."""

import functools
import itertools
import json
import math
import random

import pytest

from qarith import (
    ZI,
    ZZ,
    ModularRing,
    PolynomialRing,
    QContext,
    QuotientRing,
    UnsupportedError,
    certify_flatness,
    is_zero_divisor,
    ntheory,
    parse_element,
    parse_ring,
    q_characteristic,
)
from qarith.cli import main
from qarith.qnum import _matrix_power
from qarith.rings import _factor_degrees
from conftest import run_python
from helpers import Model

# --- plain-int oracles --------------------------------------------------------


def plain_qchar(n, q):
    """Least m >= 1 with 1 + q + ... + q^(m-1) = 0 mod n, or 0 when the orbit repeats first."""
    seen = set()
    s, pw, m = 0, 1 % n, 0
    while (s, pw) not in seen:
        seen.add((s, pw))
        s, pw, m = (s + pw) % n, pw * q % n, m + 1
        if s == 0:
            return m
    return 0


def plain_order(q, p):
    order, x = 1, q % p
    while x != 1:
        x, order = x * q % p, order + 1
    return order


def quotient(n, mu):
    return QuotientRing(PolynomialRing(ModularRing(n), "X"), mu)


@functools.lru_cache(maxsize=None)
def model_units(n, mu):
    """The units of Z/n[X]/(mu), by trying every product."""
    model = Model(n, mu)
    elems = list(model.elements())
    return frozenset(v for v in elems if any(model.mul(v, w) == model.one for w in elems))


def plain_unit_order(model, q):
    m, pw = 1, q
    while pw != model.one:
        m, pw = m + 1, model.mul(pw, q)
    return m


# prime, prime-power and mixed moduli; mu split, repeated, nilpotent or irreducible mod p
QUOTIENTS = [
    (6, (1, 0, 1)),
    (6, (5, 0, 0, 1)),
    (12, (1, 2, 1)),
    (12, (0, 0, 1)),
    (8, (1, 1, 0, 1)),
    (9, (1, 0, 1)),
    (25, (2, 0, 1)),
    # not squarefree mod p: X^3 - 1 = (X - 1)^3 mod 3 and X^4 + 1 = (X + 1)^4
    # mod 2, where mu' = 0 mod p; (X + 1)^2 mod 2, (X - 1)^2 mod 3, X^2
    (3, (2, 0, 0, 1)),
    (4, (1, 0, 1)),
    (9, (1, 1, 1)),
    (2, (1, 0, 0, 0, 1)),
    (8, (0, 0, 1)),
    # factors of degrees 1, 2 and 3 mod 2; (X + 1)^2 (X^2 + 1) mod 3
    (2, (0, 1, 0, 0, 0, 1, 1)),
    (3, (1, 2, 2, 2, 1)),
]


# --- quantum characteristic of Z/n ---------------------------------------------


def test_q_characteristic_matches_plain_search():
    for n in range(2, 121):
        ring = ModularRing(n)
        for q in range(n):
            res = q_characteristic(QContext(ring, ring.from_int(q)))
            expected = plain_qchar(n, q)
            assert res.certified and res.p == expected, (n, q, res)
            unit = math.gcd(q, n) == 1
            assert res.rule == ("matrix-order" if unit else "non-unit q"), (n, q, res.rule)


def test_q_characteristic_large_primes_is_multiplicative_order():
    for p in (100003, 100019, 1000003):
        ring = ModularRing(p)
        for q in (1, 2, 3, p - 1):
            res = q_characteristic(QContext(ring, ring.from_int(q)), bound=p)
            expected = p if q == 1 else plain_order(q, p)
            assert (res.p, res.certified, res.rule) == (expected, True, "matrix-order"), (p, q)


def test_structural_characteristic_respects_bound():
    ring = ModularRing(1000003)
    res = q_characteristic(QContext(ring, ring.from_int(2)))
    assert res.is_unknown and res.bound == 10**6 and res.rule is None
    assert q_characteristic(QContext(ring, ring.from_int(2)), bound=1100000).p == plain_order(2, 1000003)


# --- ((k)_q, q^k) on Z/n in closed form ----------------------------------------


def square_and_multiply(ring, qp, k):
    """((k)_q, q^k) as payloads by powering M = [[1, 1], [0, q]]: the generic
    loop of ``qnum._matrix_power``, pasted here as the oracle for Z/n."""
    s, pw = ring._zero(), ring._one()
    bs, bpw = ring._one(), qp
    while k:
        if k & 1:
            s, pw = ring._add(s, ring._mul(pw, bs)), ring._mul(pw, bpw)
        k >>= 1
        if k:
            bs, bpw = ring._add(bs, ring._mul(bpw, bs)), ring._mul(bpw, bpw)
    return s, pw


# primes, prime powers, even and odd composites, up to 10^4
CLOSED_FORM_MODULI = [2, 3, 5, 13, 1009, 9973, 4, 8, 27, 49, 1024, 3125, 6, 12, 15, 100, 360, 2310, 9999, 10000]


def _closed_form_qs(n, rng):
    nonunit = [q for q in (n // p for p in ntheory.factorize(n)) if 1 < q < n]
    return sorted({0, 1, 2 % n, n - 1, *nonunit[:2], *(rng.randrange(n) for _ in range(3))})


def test_matrix_power_closed_form_matches_square_and_multiply():
    rng = random.Random(13)
    for n in CLOSED_FORM_MODULI:
        ring = ModularRing(n)
        # every k up to 3n on the small moduli, a stride plus random k on the large
        if n <= 400:
            ks = list(range(3 * n + 1))
        else:
            ks = list(range(0, 3 * n + 1, 97)) + [rng.randrange(3 * n + 1) for _ in range(200)]
        ks += [10**30 + rng.randrange(10**6) for _ in range(5)]
        for q in _closed_form_qs(n, rng):
            for k in ks:
                assert _matrix_power(ring, q, k) == square_and_multiply(ring, q, k), (n, q, k)


def test_matrix_power_closed_form_at_r_zero():
    # q = 2 with n(q - 1) = n | 2^k: q^k = 0 mod n(q - 1), and (k)_2 = 2^k - 1 = -1
    for n in (2, 4, 1024, 2**20):
        ring = ModularRing(n)
        for k in range(n.bit_length() - 1, n.bit_length() + 40):
            assert pow(2, k, n) == 0
            assert _matrix_power(ring, 2, k) == (n - 1, 0) == square_and_multiply(ring, 2, k), (n, k)


def test_rules_on_infinite_rings():
    assert q_characteristic(QContext(ZI, ZI.generator)).rule == "period-walk"
    assert q_characteristic(QContext(ZZ, ZZ.one)).rule == "q^d=1 & torsion-free"
    zt = PolynomialRing(ZZ, "t")
    assert q_characteristic(QContext(zt, zt.generator)).rule == "root-of-unity bound"
    qx = parse_ring("Q[X]/(X^2-1)")
    assert q_characteristic(QContext(qx, qx.generator)).rule == "q^d=1 & torsion-free"


def plain_poly_qchar(n, q, bound):
    """(least m <= bound with (m)_q = 0 in Z/n[t], least m <= bound with
    q^m = 1), each None when there is none; q is a coefficient list."""

    def strip(cs):
        cs = [c % n for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    def mul(a, b):
        out = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return strip(out)

    q, one = strip(q), strip([1])
    s, pw, order = [], one, None
    for m in range(1, bound + 1):
        s = strip([x + y for x, y in itertools.zip_longest(s, pw, fillvalue=0)])
        pw = mul(pw, q)
        if order is None and pw == one:
            order = m
        if not s:
            return m, order
    return None, order


def test_polynomial_ring_over_zn_matches_state_walk():
    # Z/n[t] is infinite and not torsion-free, so p = ord(q) * (additive
    # order of (ord q)_q) is decided through the characteristic n; every unit
    # of degree <= 2 (a unit constant plus nilpotent terms) is tried, and a
    # sample of the other q, whose powers never return to 1
    bound = 40
    units, others = [], []
    for n in range(2, 13):
        rad = math.prod(ntheory.factorize(n))
        for q in itertools.product(range(n), repeat=3):
            unit = math.gcd(q[0], n) == 1 and q[1] % rad == q[2] % rad == 0
            (units if unit else others).append((n, q))
    derived = 0
    for n, q in units + random.Random(18).sample(others, 200):
        ring = PolynomialRing(ModularRing(n), "t")
        res = q_characteristic(QContext(ring, ring.element(q)), bound=bound)
        expected, order = plain_poly_qchar(n, list(q), bound)
        if res.is_finite:
            assert res.p == expected and res.rule == "period-walk", (n, q, res)
            derived += res.p != order
        else:  # neither rule for a certified 0 applies, so no zero within the bound
            assert res.is_unknown and expected is None, (n, q, res)
    assert derived >= 100
    z4t = PolynomialRing(ModularRing(4), "t")
    res = q_characteristic(QContext(z4t, z4t.element((1, 2))))
    assert (res.p, res.certified, res.rule) == (4, True, "period-walk")


@pytest.mark.parametrize("q, p, tried", [((1,), 720720, 6), ((1, 360360), 720720, 7)])
def test_additive_order_divides_out_the_primes_of_n(monkeypatch, q, p, tried):
    # n = 720720 = 2^4 3^2 5 7 11 13 has 240 divisors, but o is found from
    # n = 720720 by testing o/prime * (d)_q = 0 for each prime: once per
    # prime when o = n (q = 1), and once more for the 2 that o = n/2 drops
    # (q = 1 + (n/2)t, of order 2, with (2)_q = 2 + (n/2)t)
    n = 720720
    ring = PolynomialRing(ModularRing(n), "t")
    ctx = QContext(ring, ring.element(q))
    multiples = []
    from_int = ring._from_int
    monkeypatch.setattr(ring, "_from_int", lambda k: multiples.append(k) or from_int(k))
    res = q_characteristic(ctx)
    assert res.p == p and len(multiples) == tried, (res, multiples)


def test_qchar_json_names_the_rule(capsys):
    assert main(["qchar", "--ring", "Z/8", "--q", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == {"p": 4, "certified": True, "bound": None}
    assert payload["certificate"] == {"rule": "matrix-order"}
    assert main(["qchar", "--ring", "Z/8", "--q", "3"]) == 0
    assert capsys.readouterr().out == "4\n"


# --- quotients: units, inverses, annihilators -----------------------------------


@pytest.mark.parametrize("n,mu", QUOTIENTS)
def test_quotient_inverse_and_annihilator_match_enumeration(n, mu):
    ring, model = quotient(n, mu), Model(n, mu)
    elems = list(model.elements())
    for v in elems:
        products = [model.mul(v, w) for w in elems]
        inverses = {w for w, vw in zip(elems, products) if vw == model.one}
        killers = {w for w, vw in zip(elems, products) if vw == model.zero and w != model.zero}
        payload = ring.normalize(v)
        inv = ring._invert(payload)
        assert (inv is not None) == bool(inverses), (n, mu, v)
        if inv is not None:
            inv = model.pad(inv)
            assert inv in inverses
            assert model.mul(v, inv) == model.one and model.mul(inv, v) == model.one
        ann = ring._annihilator(payload)
        assert (ann is not None) == bool(killers), (n, mu, v)
        if ann is not None:
            assert model.pad(ann) in killers
        assert is_zero_divisor(ring.element(v)) == (v != model.zero and bool(killers))


@pytest.mark.parametrize("n,mu", QUOTIENTS)
def test_quotient_flatness_and_characteristic_match_enumeration(n, mu):
    ring, model = quotient(n, mu), Model(n, mu)
    elems = list(model.elements())
    units = model_units(n, mu)
    for q in elems:
        ctx = QContext(ring, ring.element(q))
        cert = certify_flatness(ctx)
        expected = model.flatness(q, units.__contains__)
        assert (cert.flat, cert.divisible, cert.nonunit_witness) == expected, (n, mu, q)
        if cert.witness is not None:
            m, a = cert.witness
            a = model.pad(a.payload)
            assert m == expected[2] and a != model.zero
            assert model.mul(model.state(q, m), a) == model.zero
        res = q_characteristic(ctx)
        assert res.certified and res.p == _plain_quotient_qchar(model, q), (n, mu, q)
        assert res.rule == ("matrix-order" if q in units else "non-unit q")


@pytest.mark.parametrize("n,mu", QUOTIENTS)
def test_unit_group_order_and_unit_orders_match_enumeration(n, mu):
    # |R^*| from the degrees of the distinct factors of mu mod each p | n,
    # against the unit count; ord(q) by dividing primes out of |R^*|,
    # against walking q^m, for every unit q
    ring, model = quotient(n, mu), Model(n, mu)
    units = model_units(n, mu)
    count, factors = ring.unit_group()
    assert count == len(units), (n, mu)
    assert factors == ntheory.factorize(count), (n, mu)
    for q in units:
        assert ring.unit_order(ring.normalize(q)) == plain_unit_order(model, q), (n, mu, q)


def _poly_mul_mod(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


@pytest.mark.filterwarnings("ignore::DeprecationWarning:sympy.*")
def test_factor_degrees_match_sympy():
    # monic f over Z/p drawn as products of powers of monic factors of degree
    # 1 to 3, up to p-th powers so that f' can vanish; sympy (which never
    # calls qarith) gives the degrees of the distinct irreducible factors
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(21)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        f = [1]
        for _ in range(rng.randint(1, 4)):
            g = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
            for _ in range(rng.randint(1, p + 1)):
                f = _poly_mul_mod(f, g, p)
        expr = sum(c * x**i for i, c in enumerate(f))
        _, factors = sympy.factor_list(expr, modulus=p)
        expected = sorted(sympy.degree(h, x) for h, _ in factors)
        assert sorted(_factor_degrees(ModularRing(p), tuple(f))) == expected, (p, f)


def plain_power(model, q, k):
    acc = model.one
    while k:
        if k & 1:
            acc = model.mul(acc, q)
        q, k = model.mul(q, q), k >> 1
    return acc


def test_cubic_over_a_large_prime_by_structure(capsys):
    # X^3 + 2 is irreducible mod n = 1000003 (sympy), so R = F_(n^3) is a
    # field, flat and divisible, and |R^*| = n^3 - 1.  d = 1500003 is ord(X):
    # X^d = 1 and X^(d/l) != 1 for each prime l | d, by plain-int powering.
    # In a field (d)_X = (X^d - 1)/(X - 1) = 0, so p = d.
    sympy = pytest.importorskip("sympy")
    n, mu, d = 1000003, (2, 0, 0, 1), 1500003
    x = sympy.symbols("x")
    _, factors = sympy.factor_list(x**3 + 2, modulus=n)
    assert [(sympy.degree(h, x), e) for h, e in factors] == [(3, 1)]
    model, q = Model(n, mu), (0, 1, 0)
    assert plain_power(model, q, d) == model.one
    assert all(plain_power(model, q, d // ell) != model.one for ell in sympy.factorint(d))
    ring = quotient(n, mu)
    assert ring.unit_group()[0] == n**3 - 1
    assert main(["qflat", "--ring", "Z/1000003[X]/(X^3+2)", "--q", "X"]) == 0
    assert capsys.readouterr().out == "flat=true divisible=true\n"
    assert main(["qchar", "--ring", "Z/1000003[X]/(X^3+2)", "--q", "X", "--bound", str(10**19), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == {"p": d, "certified": True, "bound": None}
    assert payload["certificate"] == {"rule": "matrix-order"}


def test_unit_group_that_resists_factoring_falls_back_to_the_walk(monkeypatch):
    # |R^*| = (7 - 1)(7^3 - 1) = 2^2 3^3 19 for Z/7[X]/(X^4 + X + 3): the
    # order test takes at most 6 powers of up to 12 squarings, so q^m is
    # walked for 6 * 12 = 72 steps first; ord(X) is above that, so it comes
    # from |R^*|.  When those pieces cannot
    # be factored the characteristic and flatness walk the period instead,
    # and answer as the enumeration does.
    n, mu = 7, (3, 1, 0, 0, 1)
    model, q = Model(n, mu), (0, 1, 0, 0)
    d = plain_unit_order(model, q)
    p = d if model.state(q, d) == model.zero else d * n
    expected = model.flatness(q, model.is_unit_by_rank)
    ring = quotient(n, mu)
    assert ring.unit_group() == (2052, {2: 2, 3: 3, 19: 1}) and d > 72
    res = q_characteristic(QContext(ring, ring.generator), bound=10**4)
    assert (res.p, res.certified, res.rule) == (p, True, "matrix-order")
    cert = certify_flatness(QContext(ring, ring.generator))
    assert (cert.flat, cert.divisible, cert.nonunit_witness) == expected

    factorize = ntheory.factorize

    def resist(m):  # only the piece 7 - 1 of |R^*|
        if m == n - 1:
            raise UnsupportedError(f"{m} resists")
        return factorize(m)

    monkeypatch.setattr(ntheory, "factorize", resist)
    ring = quotient(n, mu)
    with pytest.raises(UnsupportedError):
        ring.unit_group()
    res = q_characteristic(QContext(ring, ring.generator), bound=10**4)
    assert (res.p, res.certified, res.rule) == (p, True, "period-walk")
    cert = certify_flatness(QContext(ring, ring.generator))
    assert (cert.flat, cert.divisible, cert.nonunit_witness) == expected


def _plain_quotient_qchar(model, q):
    seen = set()
    s, pw, m = model.zero, model.one, 0
    while (s, pw) not in seen:
        seen.add((s, pw))
        s, pw, m = model.add(s, pw), model.mul(pw, q), m + 1
        if s == model.zero:
            return m
    return 0


@pytest.mark.parametrize(
    "spec,q",
    [
        ("Z/2[X]/(X^12+X^3+1)", "X+1"),
        ("Z/2[X]/(X^14+X+1)", "X+1"),
        ("Z/7[X]/(X^4+X+3)", "X"),
        ("Z/7[X]/(X^4+X+3)", "X+1"),
    ],
)
def test_large_prime_quotient_flatness(spec, q):
    # rings of 2401 to 16384 elements, decided without enumerating them;
    # the oracle walks the orbit and tests units by rank over F_p
    ring = parse_ring(spec)
    n, mu = ring.base.n, ring.modulus
    model = Model(n, mu)
    qv = model.pad(parse_element(ring, q).payload)
    cert = certify_flatness(QContext(ring, parse_element(ring, q)))
    expected = model.flatness(qv, model.is_unit_by_rank)
    assert (cert.flat, cert.divisible, cert.nonunit_witness) == expected
    if cert.witness is not None:
        m, a = cert.witness
        assert model.mul(model.state(qv, m), model.pad(a.payload)) == model.zero


def test_unfactorable_modulus_raises_instead_of_hanging():
    big = 1000000000039 * 1000000000061  # two 13-digit primes: beyond the rho budget
    zn = ModularRing(big)
    with pytest.raises(UnsupportedError):
        zn.factors()
    # q = -1 has order 2 and (2)_q = 0, so a walk would answer at once
    for q in (-1, 2):
        with pytest.raises(UnsupportedError):
            certify_flatness(QContext(zn, zn.from_int(q)))
    # the characteristic falls back to the walk, which stays sound
    res = q_characteristic(QContext(zn, zn.from_int(2)), bound=1000)
    assert res.is_unknown and res.bound == 1000
    res = q_characteristic(QContext(zn, zn.from_int(-1)), bound=1000)
    assert (res.p, res.rule) == (2, "period-walk")
    ring = quotient(big, (1, 0, 1))
    with pytest.raises(UnsupportedError):
        ring.generator.try_invert()
    with pytest.raises(UnsupportedError):
        is_zero_divisor(ring.generator)
    with pytest.raises(UnsupportedError):
        certify_flatness(QContext(ring, ring.generator))


# --- verify branches that depend on the ring ----------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        # p = 4 on Z/5 with q = 2: the even case of the sign rule
        ["verify", "sign_rule", "--ring", "Z/5", "--q", "2"],
        # a prime field of more than 64 elements checks h = 1 only
        ["verify", "artin_schreier", "--ring", "Z/67"],
    ],
)
def test_verify_branches_on_finite_rings(capsys, argv):
    assert main(argv) == 0
    assert "cases=1 failures=0" in capsys.readouterr().out


# --- the number-theory helper ---------------------------------------------------


def test_is_prime_against_sieve_and_pseudoprimes():
    limit = 20000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    assert [n for n in range(limit) if ntheory.is_prime(n)] == [n for n in range(limit) if sieve[n]]
    # strong pseudoprimes to the bases 2..7 and to every prime base up to 37
    assert not ntheory.is_prime(3215031751)
    assert not ntheory.is_prime(318665857834031151167461)
    assert ntheory.is_prime(2**61 - 1)
    with pytest.raises(UnsupportedError):
        ntheory.is_prime(2**89 - 1)


def test_factorize_totient_carmichael_against_brute_force():
    for n in range(1, 3000):
        factors = ntheory.factorize(n)
        assert math.prod(p**e for p, e in factors.items()) == n
        assert all(ntheory.is_prime(p) for p in factors)
    for n in range(1, 300):
        units = [a for a in range(n) if math.gcd(a, n) == 1] if n > 1 else [0]
        assert ntheory.totient(n) == len(units)
        exponent = 1
        while any(pow(a, exponent, n) != 1 % n for a in units):
            exponent += 1
        assert ntheory.carmichael(ntheory.factorize(n)) == exponent
        assert ntheory.divisors(ntheory.factorize(n)) == [d for d in range(1, n + 1) if n % d == 0]
    big = (2**61 - 1) * (2**31 - 1) * 1000003**2
    assert ntheory.factorize(big) == {1000003: 2, 2**31 - 1: 1, 2**61 - 1: 1}


# --- package import --------------------------------------------------------------


def test_python_dash_m_qarith_cli_is_silent():
    proc = run_python("-m", "qarith.cli", "qint", "--ring", "Z", "--q", "2", "3")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7"
    assert proc.stderr == ""


def test_star_import_reaches_the_lazy_cli_names():
    namespace = {}
    exec("from qarith import *", namespace)
    for name in ("parse_element", "parse_ring", "run_identity", "q_characteristic"):
        assert callable(namespace[name])
