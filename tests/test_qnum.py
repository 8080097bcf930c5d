"""Quantum integers: states, factorials, binomials, characteristic, flatness."""

import math
import random

import pytest

from qarith import (
    ZI,
    ZZ,
    CyclotomicEmbedding,
    CyclotomicObstruction,
    CyclotomicRing,
    DomainError,
    LaurentRing,
    ModularRing,
    NotInvertibleError,
    QContext,
    RingElement,
    UnsupportedError,
    certify_flatness,
    embed_cyclotomic,
    evaluate_factors,
    factor_q_binomial,
    parse_element,
    parse_ring,
    q_binomial,
    q_characteristic,
    q_factorial,
    q_power_context,
    q_state,
    symmetric_binomial,
    symmetric_state,
)
from qarith.qnum import PASCAL_MAX_ROW
from helpers import count_subspaces


def _ctx(spec, q_int=None):
    ring = parse_ring(spec)
    q = ring.generator if q_int is None else ring.from_int(q_int)
    return QContext(ring, q)


# --- states -----------------------------------------------------------------


def test_state_matches_power_sum(fleet):
    # oracle: the plain sum of powers, no induction
    for ctx in fleet[::7]:
        for m in range(12):
            total = ctx.ring.zero
            for i in range(m):
                total = total + ctx.q**i
            assert q_state(ctx, m) == total


def test_state_examples():
    ctx = _ctx("Z[t]")
    assert str(q_state(ctx, 3)) == "1 + t + t^2"
    assert q_state(ctx, 0).is_zero()
    assert q_state(_ctx("Z/5", 2), 4).is_zero()  # 1+2+4+8 = 15
    assert str(q_state(_ctx("Q(t)"), -2)) == "-(1 + t)/t^2"


def test_negative_state_needs_inverse():
    with pytest.raises(NotInvertibleError):
        q_state(_ctx("Z[t]"), -1)


class ElementLoops:
    """q^k, (m)_q, (m)_q! and [n, k]_q from loops on RingElement operators:
    the element-level caches QContext kept before it kept payloads, pasted
    here as the oracle for the payload caches."""

    def __init__(self, ring, q):
        self.ring, self.q, self.qinv = ring, q, q.try_invert()
        self.pows, self.neg_pows = [ring.one], [ring.one]
        self.states, self.neg_states = [ring.zero], [ring.zero]
        self.rows = [[ring.one]]

    def q_power(self, k):
        if k >= 0:
            pows = self.pows
            while len(pows) <= k:
                pows.append(pows[-1] * self.q)
            return pows[k]
        if self.qinv is None:
            raise NotInvertibleError(f"q = {self.q} is not a unit of {self.ring}")
        pows = self.neg_pows
        while len(pows) <= -k:
            pows.append(pows[-1] * self.qinv)
        return pows[-k]

    def q_state(self, m):
        if m >= 0:
            states = self.states
            while len(states) <= m:
                j = len(states) - 1
                states.append(states[j] + self.q_power(j))
            return states[m]
        states = self.neg_states
        while len(states) <= -m:
            j = len(states)
            states.append(states[j - 1] - self.q_power(-j))
        return states[-m]

    def q_factorial(self, m):
        value = self.ring.one
        for j in range(1, m + 1):
            value = value * self.q_state(j)
        return value

    def q_binomial(self, n, k):
        if k > n:
            return self.ring.zero
        rows = self.rows
        while len(rows) <= n:
            prev = rows[-1]
            inner = [prev[j - 1] + self.q_power(j) * prev[j] for j in range(1, len(prev))]
            rows.append([self.ring.one] + inner + [prev[-1]])
        return rows[n][k]


# (ring, q): unit and non-unit q, None for the ring's generator
CACHE_CONTEXTS = [
    ("Z", "2"),
    ("Z", "-1"),
    ("Q", "2/3"),
    ("Z/12", "5"),
    ("Z/12", "2"),
    ("Z[t]", None),
    ("Cyclo(7)", None),
    ("Z[t,1/t]", None),
    ("Q(t)", None),
    ("Z/9[X]/(X^2+1)", "X+3"),
    ("Z/9[X]/(X^2+1)", "3*X"),
]


def _cache_context(spec, q_text):
    ring = parse_ring(spec)
    q = ring.generator if q_text is None else parse_element(ring, q_text)
    return QContext(ring, q), ElementLoops(ring, q)


def _same(got, expected, ring):
    assert isinstance(got, RingElement) and got.ring is ring
    return got == expected and got.payload == expected.payload


@pytest.mark.parametrize("spec, q_text", CACHE_CONTEXTS)
def test_payload_caches_match_element_loops(spec, q_text):
    ctx, oracle = _cache_context(spec, q_text)
    ring = ctx.ring
    queries = [(name, m) for name in ("power", "state", "factorial") for m in range(-30, 31)]
    queries += [("binomial", (n, k)) for n in range(31) for k in range(n + 2)]
    random.Random(spec + str(q_text)).shuffle(queries)  # out of order, so every cache grows in jumps
    for name, arg in queries:
        if name == "binomial":
            assert _same(q_binomial(ctx, *arg), oracle.q_binomial(*arg), ring), (name, arg)
        elif name == "factorial":
            if arg < 0:
                with pytest.raises(DomainError):
                    q_factorial(ctx, arg)
            else:
                assert _same(q_factorial(ctx, arg), oracle.q_factorial(arg), ring), (name, arg)
        elif arg < 0 and oracle.qinv is None:
            with pytest.raises(NotInvertibleError):
                ctx.q_power(arg) if name == "power" else q_state(ctx, arg)
        elif name == "power":
            assert _same(ctx.q_power(arg), oracle.q_power(arg), ring), (name, arg)
        else:
            assert _same(q_state(ctx, arg), oracle.q_state(arg), ring), (name, arg)


@pytest.mark.parametrize("spec, q_text", [("Z", "2"), ("Z/12", "2"), ("Z[t]", None), ("Z/9[X]/(X^2+1)", "3*X")])
def test_caches_survive_a_refused_negative_index(spec, q_text):
    ctx, oracle = _cache_context(spec, q_text)
    assert oracle.qinv is None
    ring = ctx.ring
    for m in (-1, -7):
        with pytest.raises(NotInvertibleError):
            q_state(ctx, m)
        with pytest.raises(NotInvertibleError):
            ctx.q_power(m)
    for m in range(31):
        assert _same(q_state(ctx, m), oracle.q_state(m), ring), m
        assert _same(ctx.q_power(m), oracle.q_power(m), ring), m
        assert _same(q_factorial(ctx, m), oracle.q_factorial(m), ring), m
        for k in range(m + 1):
            assert _same(q_binomial(ctx, m, k), oracle.q_binomial(m, k), ring), (m, k)


def test_factorial_examples():
    ctx = _ctx("Z[t]")
    assert str(q_factorial(ctx, 3)) == "1 + 2*t + 2*t^2 + t^3"
    assert q_factorial(ctx, 0).is_one()
    assert q_factorial(ctx, 1).is_one()
    assert q_factorial(_ctx("Z/4", 1), 4).is_zero()  # 24 mod 4


def test_binomial_examples():
    ctx = _ctx("Z[t]")
    assert q_binomial(ctx, 0, 0).is_one()
    assert q_binomial(ctx, 0, 3).is_zero()
    assert q_binomial(ctx, 2, 5).is_zero()
    assert q_binomial(ctx, 4, 2) == ctx.ring.element((1, 1, 2, 1, 1))
    assert q_binomial(_ctx("Z", 2), 4, 2) == ZZ.from_int(35)
    assert q_binomial(_ctx("Z/4", 1), 4, 2) == ModularRing(4).from_int(2)
    with pytest.raises(DomainError):
        q_binomial(ctx, -1, 0)


@pytest.mark.parametrize("spec, q_int", [("Z[t]", None), ("Cyclo(7)", None), ("Z/8", 3), ("Z/8", 2), ("Q(t)", None)])
def test_binomial_equals_cyclotomic_product(spec, q_int):
    # [n, k]_q is the product of chi_m(q) over factor_q_binomial(n, k), so the
    # Pascal rows must agree with evaluating those factors at q
    ctx = _ctx(spec, q_int)
    for n in range(41):
        for k in range(n + 1):
            assert q_binomial(ctx, n, k) == evaluate_factors(factor_q_binomial(n, k), ctx.q), (n, k)


def _pascal_only(spec):
    # a context that never takes the cyclotomic route: every row is Pascal
    ctx = _ctx(spec)
    ctx._structural = None
    return ctx


STRUCTURAL_SPECS = ["Z[t]", "Cyclo(2)", "Cyclo(6)", "Cyclo(7)", "Cyclo(12)", "Cyclo(61)", "Q(t)"]


@pytest.mark.parametrize("spec", STRUCTURAL_SPECS)
def test_structural_binomial_matches_pascal(spec):
    ctx, oracle = _ctx(spec), _pascal_only(spec)
    for n in range(41):
        for k in range(n + 1):
            got = q_binomial(ctx, n, k)
            assert got.payload == q_binomial(oracle, n, k).payload, (n, k)
    assert ctx._structural is not None
    assert len(ctx._pascal) == PASCAL_MAX_ROW + 1  # no row above the cap was built


@pytest.mark.parametrize("m", [2, 6, 7, 12])
def test_structural_binomial_vanishes_where_chi_m_divides(m):
    # in Cyclo(m), [n, k]_t = 0 exactly when chi_m is one of its factors
    ctx, oracle = _ctx(f"Cyclo({m})"), _pascal_only(f"Cyclo({m})")
    vanishing = 0
    for n in range(PASCAL_MAX_ROW + 1, 41):
        for k in range(n + 1):
            divides = m in factor_q_binomial(n, k)
            got = q_binomial(ctx, n, k)
            assert got.is_zero() == divides, (n, k)
            assert got == q_binomial(oracle, n, k), (n, k)
            vanishing += divides
    assert vanishing > 0


@pytest.mark.parametrize("spec", STRUCTURAL_SPECS)
def test_structural_binomial_query_order(spec):
    # descending n, shuffled k, then every query again: memoized answers
    # (keyed by min(k, n - k)) must not depend on what came first
    ctx, oracle = _ctx(spec), _pascal_only(spec)
    rng = random.Random(spec)
    queries = []
    for n in range(40, PASCAL_MAX_ROW - 3, -1):
        ks = list(range(n + 1))
        rng.shuffle(ks)
        queries += [(n, k) for k in ks]
    for n, k in queries + queries[::-1]:
        assert q_binomial(ctx, n, k) == q_binomial(oracle, n, k), (n, k)


def test_structural_binomial_large_row():
    ctx = _ctx("Z[t]")
    cs = q_binomial(ctx, 160, 80).payload
    assert len(cs) == 80 * 80 + 1
    assert sum(cs) == math.comb(160, 80)
    assert cs == cs[::-1] and min(cs) == 1


@pytest.mark.parametrize(
    "ring, q",
    [
        (parse_ring("Z[t,1/t]"), None),
        (parse_ring("Q(t^(1/2))"), None),
        (parse_ring("Z"), 2),
        (parse_ring("Z[t]"), 2),
        (parse_ring("Cyclo(5)"), 1),
    ],
)
def test_no_structural_route_without_q_generator(ring, q):
    # q is not the generator t of Z[t], Cyclo(m) or Q(t): Pascal above the cap
    ctx = QContext(ring, ring.generator if q is None else ring.from_int(q))
    q_binomial(ctx, PASCAL_MAX_ROW + 2, 3)
    assert ctx._structural is None
    assert len(ctx._pascal) == PASCAL_MAX_ROW + 3


def _stepwise_factorial(ctx, m):
    # oracle: the product of power sums, no q-state cache, no tree
    acc = ctx.ring.one
    for j in range(1, m + 1):
        state = ctx.ring.zero
        for i in range(j):
            state = state + ctx.q**i
        acc = acc * state
    return acc


@pytest.mark.parametrize("spec, q_int", [("Z[t]", None), ("Z/8", 3), ("Q(t)", None), ("Z[t,1/t]", None)])
def test_factorial_out_of_order(spec, q_int):
    ctx = _ctx(spec, q_int)
    for m in (7, 3, 12, 0, 5, 12, 1, 20, 15, 16, 2, 20):
        assert q_factorial(ctx, m) == _stepwise_factorial(ctx, m), m


def test_binomial_counts_subspaces():
    for q in (2, 3):
        field = ModularRing(q)
        ctx = QContext(ZZ, ZZ.from_int(q))
        for n in range(5):
            for k in range(n + 1):
                assert q_binomial(ctx, n, k) == ZZ.from_int(count_subspaces(field, n, k))


def test_binomial_counts_subspaces_prime_powers():
    # q = 4 needs the four-element field, not Z/4
    gf4 = parse_ring("Z/2[X]/(X^2+X+1)")
    for q, field in ((4, gf4), (5, ModularRing(5))):
        ctx = QContext(ZZ, ZZ.from_int(q))
        for n in range(5):
            for k in range(n + 1):
                assert q_binomial(ctx, n, k) == ZZ.from_int(count_subspaces(field, n, k))


# --- characteristic ----------------------------------------------------------


def test_q_characteristic_paper_cases():
    assert q_characteristic(_ctx("Z/8", 3)).p == 4
    assert q_characteristic(_ctx("Z/2[X]/(X^2-1)")).p == 4
    res = q_characteristic(_ctx("Q[X]/(X^2-1)"))
    assert res.is_zero and res.certified
    assert q_characteristic(QContext(ZI, ZI.generator)).p == 4
    assert q_characteristic(_ctx("Z[t]")).is_zero
    assert q_characteristic(_ctx("Q(t)")).is_zero
    assert q_characteristic(_ctx("Cyclo(12)")).p == 12


def test_q_characteristic_q_one_is_ring_characteristic():
    for n in (2, 5, 9, 12):
        assert q_characteristic(_ctx(f"Z/{n}", 1)).p == n
    assert q_characteristic(QContext(ZZ, ZZ.one)).is_zero


def test_q_characteristic_minimality(fleet):
    for ctx in fleet:
        res = q_characteristic(ctx, bound=10**4)
        if res.is_finite:
            assert q_state(ctx, res.p).is_zero()
            assert all(not q_state(ctx, m).is_zero() for m in range(1, res.p))


def test_q_characteristic_zero_set(fleet):
    for ctx in fleet[::6]:
        res = q_characteristic(ctx, bound=10**4)
        if res.is_finite:
            p = res.p
            zeros = {m for m in range(5 * p + 1) if q_state(ctx, m).is_zero()}
            assert zeros == set(range(0, 5 * p + 1, p))


def test_q_characteristic_modular_unit_criterion():
    # over Z/n with q = m != 1: positive quantum characteristic iff q is a
    # unit, and then it equals the order of m modulo (m-1)n
    for n in range(2, 13):
        ring = ModularRing(n)
        for m in range(n):
            if m == 1:
                continue
            ctx = QContext(ring, ring.from_int(m))
            res = q_characteristic(ctx, bound=10**4)
            is_unit = ring.from_int(m).try_invert() is not None
            assert res.is_finite == is_unit, (n, m)
            if is_unit:
                modulus = (m - 1) * n
                order = 1
                power = m % modulus
                while power != 1 % modulus:
                    power = power * m % modulus
                    order += 1
                assert res.p == order, (n, m)


def test_torsion_free_primitivity():
    # in a ring without integer torsion, finite quantum characteristic p
    # makes q a primitive p-th root of unity
    contexts = [QContext(ZI, ZI.generator)]
    contexts += [_ctx(f"Cyclo({p})") for p in range(2, 13)]
    for ctx in contexts:
        res = q_characteristic(ctx)
        assert res.is_finite
        p = res.p
        assert ctx.q_power(p).is_one()
        assert all(not ctx.q_power(m).is_one() for m in range(1, p))


def test_q_characteristic_str():
    assert str(q_characteristic(_ctx("Z/8", 3))) == "4"
    assert str(q_characteristic(_ctx("Z[t]"))) == "0 (certified)"
    z9 = ModularRing(9)
    assert str(q_characteristic(QContext(z9, z9.from_int(2)), bound=2)) == "unknown (bound=2)"


# --- flatness ----------------------------------------------------------------


def test_flatness_examples():
    cert = certify_flatness(QContext(ZI, ZI.generator))
    assert cert.flat and not cert.divisible and cert.nonunit_witness == 2
    cert = certify_flatness(_ctx("Z/4", -1))
    assert cert.divisible and cert.flat
    cert = certify_flatness(_ctx("Z/4", 1))
    assert not cert.flat and cert.witness is not None
    m, a = cert.witness
    assert m == 2 and a == ModularRing(4).from_int(2)
    assert (q_state(_ctx("Z/4", 1), m) * a).is_zero()


def test_flatness_fields_are_divisible():
    assert certify_flatness(_ctx("Q(t)")).divisible
    assert certify_flatness(_ctx("Q(t^(1/6))")).divisible


def test_flatness_polynomial_ring_not_divisible():
    cert = certify_flatness(_ctx("Z[t]"))
    assert cert.flat and not cert.divisible and cert.nonunit_witness == 2


def test_flatness_brute_force_on_finite_rings(fleet):
    # oracle: scan every (value, element) pair directly over one full period
    for ctx in fleet:
        if not ctx.ring.finite:
            continue
        cert = certify_flatness(ctx)
        ring = ctx.ring
        card = ring.cardinality
        values = {q_state(ctx, m).payload for m in range(2 * card * card + 1)}
        elements = [e.payload for e in ring.elements()]
        zero = ring._zero()
        flat = True
        divisible = True
        for v in values:
            if v == zero:
                continue
            if ring._invert(v) is None:
                divisible = False
            if any(a != zero and ring._mul(v, a) == zero for a in elements):
                flat = False
        assert cert.flat == flat
        assert cert.divisible == divisible


def test_flatness_witness_verifies(fleet):
    for ctx in fleet:
        if not ctx.ring.finite:
            continue
        cert = certify_flatness(ctx)
        if cert.witness is not None:
            m, a = cert.witness
            assert not a.is_zero()
            assert not q_state(ctx, m).is_zero()
            assert (q_state(ctx, m) * a).is_zero()
        if not cert.flat:
            assert cert.witness is not None
        if cert.divisible:
            assert cert.flat


def test_divisibility_unsupported_when_unprovable():
    # Z with q = 1: characteristic 0 domain, all (m)_1 = m nonunits found fast
    cert = certify_flatness(QContext(ZZ, ZZ.one))
    assert cert.flat and not cert.divisible and cert.nonunit_witness == 2


def test_prime_characteristic_divisible():
    for p in (2, 3, 5, 7, 11):
        cert = certify_flatness(_ctx(f"Cyclo({p})"))
        assert cert.divisible, p


def test_binomial_and_factorial_vanish_at_characteristic(fleet):
    # over a q-flat ring with quantum characteristic p: C(p,k) = 0 for
    # 0 < k < p, and (m)_q! = 0 for m >= p
    for ctx in fleet:
        res = q_characteristic(ctx, bound=10**4)
        if not res.is_finite:
            continue
        try:
            cert = certify_flatness(ctx)
        except UnsupportedError:
            continue
        if not cert.flat:
            continue
        p = res.p
        for k in range(p + 1):
            value = q_binomial(ctx, p, k)
            if k in (0, p):
                assert value.is_one()
            else:
                assert value.is_zero()
        for m in range(p, p + 6):
            assert q_factorial(ctx, m).is_zero()


def test_even_characteristic_flat_implies_qk_minus_one(fleet):
    for ctx in fleet:
        res = q_characteristic(ctx, bound=10**4)
        if not res.is_finite or res.p % 2:
            continue
        try:
            cert = certify_flatness(ctx)
        except UnsupportedError:
            continue
        if cert.flat:
            assert ctx.q_power(res.p // 2) == -ctx.ring.one


def test_pqzer_for_positive_m(fleet):
    # without (m)_q-torsion: (m)_q = 0 iff q is a nontrivial m-th root of
    # unity, or q = 1 and the ring characteristic divides m
    for ctx in fleet:
        try:
            cert = certify_flatness(ctx)
        except UnsupportedError:
            continue
        if not cert.flat:
            continue
        ring = ctx.ring
        char = ring.characteristic
        for m in range(1, 21):
            lhs = q_state(ctx, m).is_zero()
            qm_is_one = ctx.q_power(m).is_one()
            q_is_one = ctx.q.is_one()
            rhs = (qm_is_one and not q_is_one) or (q_is_one and char > 0 and m % char == 0)
            assert lhs == rhs, (str(ring), str(ctx.q), m)


# --- symmetric states ---------------------------------------------------------


def _laurent_ctx():
    ring = LaurentRing(ZZ, "v")
    return QContext(ring, ring.generator)


def test_symmetric_state_examples():
    ctx = _laurent_ctx()
    assert symmetric_state(ctx, 1).is_one()
    assert str(symmetric_state(ctx, 2)) == "v^-1 + v"
    assert symmetric_state(ctx, 0).is_zero()
    assert symmetric_state(ctx, -2) == -symmetric_state(ctx, 2)


def test_symmetric_state_relation():
    # [n]_v * v^(n-1) = (n)_{v^2}
    ctx = _laurent_ctx()
    sq = QContext(ctx.ring, ctx.q * ctx.q, q_inverse=ctx.q_inverse**2)
    for n in range(-10, 11):
        assert symmetric_state(ctx, n) * ctx.q_power(n - 1) == q_state(sq, n)


def test_symmetric_state_needs_unit():
    with pytest.raises(NotInvertibleError):
        symmetric_state(_ctx("Z[t]"), 2)


def test_symmetric_binomial_examples():
    ctx = _laurent_ctx()
    assert symmetric_binomial(ctx, 5, 5).is_one()
    assert str(symmetric_binomial(ctx, 2, 1)) == "v^-1 + v"


def test_symmetric_binomial_self_symmetry():
    ctx = _laurent_ctx()
    for n in range(9):
        for k in range(n + 1):
            assert symmetric_binomial(ctx, n, k) == symmetric_binomial(ctx, n, n - k)


def test_symmetric_binomial_invariant_under_v_inverse():
    ring = LaurentRing(ZZ, "v")
    v = ring.generator
    ctx = QContext(ring, v)
    flip = QContext(ring, v**-1)
    for n in range(7):
        for k in range(n + 1):
            assert symmetric_binomial(ctx, n, k) == symmetric_binomial(flip, n, k)


def test_symmetric_bracket_factorial_relation():
    # [n k]_v * [k]_v! * [n-k]_v! = [n]_v!, and [n]_v! = v^(-n(n-1)/2) (n)_{v^2}!
    ctx = _laurent_ctx()
    sq = QContext(ctx.ring, ctx.q * ctx.q, q_inverse=ctx.q_inverse**2)

    def bracket_factorial(n):
        acc = ctx.ring.one
        for i in range(1, n + 1):
            acc = acc * symmetric_state(ctx, i)
        return acc

    for n in range(8):
        assert bracket_factorial(n) == ctx.q_power(-(n * (n - 1) // 2)) * q_factorial(sq, n)
        for k in range(n + 1):
            lhs = symmetric_binomial(ctx, n, k) * bracket_factorial(k) * bracket_factorial(n - k)
            assert lhs == bracket_factorial(n)


# --- cyclotomic embedding ------------------------------------------------------


def test_embed_cyclotomic_success():
    emb = embed_cyclotomic(QContext(ZI, ZI.generator), 4)
    assert isinstance(emb, CyclotomicEmbedding)
    c4 = CyclotomicRing(4)
    assert emb(c4.generator) == ZI.generator
    rng = random.Random(3)
    for _ in range(15):
        a, b = c4.random_element(rng), c4.random_element(rng)
        assert emb(a + b) == emb(a) + emb(b)
        assert emb(a * b) == emb(a) * emb(b)
    assert emb(c4.one).is_one()


def test_embed_cyclotomic_failure_value():
    res = embed_cyclotomic(_ctx("Z/8", 3), 4)
    assert isinstance(res, CyclotomicObstruction)
    assert res.value == ModularRing(8).from_int(2)  # chi_4(3) = 10


def test_embed_cyclotomic_rejects_p_below_two():
    with pytest.raises(DomainError):
        embed_cyclotomic(_ctx("Z/8", 1), 1)


# --- powers of q ---------------------------------------------------------------


def test_q_power_context_identity():
    ctx = QContext(ZI, ZI.generator)
    assert q_power_context(ctx, 1) is ctx


def test_q_power_context_gcd_law():
    ctx = QContext(ZI, ZI.generator)
    sub = q_power_context(ctx, 2)
    assert sub.q == ZI.from_int(-1)
    assert q_characteristic(sub).p == 4 // math.gcd(4, 2)


def test_q_power_breakdown_mod4():
    # divisible for q = -1, but q^2 = 1 is not even flat in Z/4
    ctx = _ctx("Z/4", -1)
    assert certify_flatness(ctx).divisible
    sub = q_power_context(ctx, 2)
    assert sub.q.is_one()
    assert not certify_flatness(sub).flat
