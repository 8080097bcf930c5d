"""finite: quantum characteristic and flatness over finite rings.

Enumeration, brute-force inversion, orbit walks and the per-operation wrapper
cost on tiny payloads do most of the work here; no big dense product or gcd
is formed.  The Z/1000003 orbit walk (10^6 steps) is the memory peak.
"""

from __future__ import annotations

import random
from functools import lru_cache
from types import SimpleNamespace

from . import oracles
from .core import Call

BIG_PRIME = 1000003
BIG_BOUND = 1100000

# Z/n[X]/(mu) with mu monic, constant term first, and the q values certified
# on it; each call takes from about a millisecond to a few tenths of a second
QUOTIENTS = [
    (7, (3, 1, 0, 0, 1), [(1,), (2,), (3,)]),
    (5, (2, 0, 1, 0, 1), [(0, 1), (2,)]),
    (49, (1, 0, 1), [(0, 1), (3,)]),
    (25, (2, 0, 1), [(0, 1), (2,), (1, 1)]),
    (8, (1, 1, 0, 1), [(0, 1), (3,), (1, 1)]),
    (27, (1, 0, 1), [(0, 1), (2,)]),
    (125, (1, 1), [(2,)]),
    (5, (-1, 0, 1), [(0, 1), (2,)]),
    (11, (4, 1, 0, 1), [(2,)]),
    (3, (2, 0, 1, 0, 0, 0, 0, 1), [(2,)]),
]

# (identity, n, mu, q, ranges) on F_25 = Z/5[X]/(X^2+2), q = X of order 8
QUOTIENT_IDENTITIES = [
    ("divp", 5, (2, 0, 1), (0, 1), {"m_max": 20}),
    ("lucas", 5, (2, 0, 1), (0, 1), {"n_max": 3, "k_max": 3}),
    ("qbin_vanish", 5, (2, 0, 1), (0, 1), {}),
]
# identities on prime fields Z/p, which are q-flat with finite quantum
# characteristic for every q != 0, so every hypothesis holds.  The seed draws
# p and q; each identity runs once per listed range, so the spread of call
# costs is the same for every seed.  The 36 addmul and chu_vandermonde calls
# cost about the same and hold the p90 rank in their lower half.
FIELD_IDENTITIES = {
    "divp": [{"m_max": m} for m in (10, 14, 18, 22, 26, 30)],
    "lucas": [{"n_max": 3, "k_max": 3}] * 3 + [{"n_max": 2, "k_max": 2}] * 3,
    "qbin_vanish": [{}] * 6,
    "addmul": [{"m_max": 10}] * 18,
    "chu_vandermonde": [{"nm_max": 10}] * 18,
}
FIELD_PRIMES = [5, 7, 11, 13]
# (p, q) with quantum characteristic 4, for the identities whose cost grows with it
CHAR4 = [(5, 2), (5, 3), (13, 5), (13, 8)]
# every q of each: 128 q_characteristic calls, with residues of prime,
# prime-power and mixed moduli
QCHAR_MODULI = [24, 31, 32, 41]
# primes near 1000, each with seeded primitive roots q: the orbit walk takes
# p - 1 steps whatever q is, so these 160 calls cost about the same for
# every seed (about a third of a millisecond each) and hold the median rank
# between them
PRIMITIVE_PRIMES = [1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061]
ROOTS_PER_PRIME = 16


def _field_identity(rng, name, ranges):
    if name in ("lucas", "qbin_vanish"):
        p, q = rng.choice(CHAR4)
    else:
        p = rng.choice(FIELD_PRIMES)
        q = rng.randrange(1, p)
    return ("identity", name, p, None, (q,), ranges)


def _primitive_roots(rng, p, k):
    roots = []
    while len(roots) < k:
        q = rng.randrange(2, p)
        if q not in roots and oracles.multiplicative_order(q, p) == p - 1:
            roots.append(q)
    return roots


def plan(seed, quick=False):
    rng = random.Random(seed)
    items = [("qchar", n, q) for n in QCHAR_MODULI for q in range(n)]
    items += [("qchar", p, q) for p in PRIMITIVE_PRIMES for q in _primitive_roots(rng, p, ROOTS_PER_PRIME)]
    items += [("flat_zn", n, rng.randrange(n)) for n in (rng.randint(6, 64) for _ in range(16))]
    items += [("flat_quot", i, q) for i, (_, _, qs) in enumerate(QUOTIENTS) for q in qs]
    items += [("identity",) + spec for spec in QUOTIENT_IDENTITIES]
    items += [_field_identity(rng, name, r) for name, ranges in FIELD_IDENTITIES.items() for r in ranges]
    if quick:  # a quarter of the calls, quotients of at most 125 elements
        small = {i for i, (n, mu, _) in enumerate(QUOTIENTS) if n ** (len(mu) - 1) <= 125}
        items = [it for it in items if it[0] != "flat_quot" or it[1] in small][::4]
    else:
        items.append(("qchar_big",))
    rng.shuffle(items)
    return items


def setup(qarith, plan):
    env = SimpleNamespace()
    env.Q = Q = qarith
    env.plan = plan
    env.rings = {}

    def ring(n, mu):
        key = (n, mu)
        if key not in env.rings:
            base = Q.ModularRing(n)
            env.rings[key] = base if mu is None else Q.QuotientRing(Q.PolynomialRing(base, "X"), mu)
        return env.rings[key]

    env.ring = ring
    for item in plan:
        if item[0] in ("qchar", "flat_zn"):
            ring(item[1], None)
        elif item[0] == "flat_quot":
            n, mu, _ = QUOTIENTS[item[1]]
            ring(n, mu)
        elif item[0] == "identity":
            ring(item[2], item[3])
        else:
            ring(BIG_PRIME, None)
    return env


def _elem(ring, cs):
    return ring.from_int(cs[0]) if len(cs) == 1 else ring.element(cs)


def _qchar(Q, ring, q, bound):
    return Q.q_characteristic(Q.QContext(ring, q), bound=bound)


def _flat(Q, ring, q):
    return Q.certify_flatness(Q.QContext(ring, q))


def _identity(Q, name, ring, q, ranges):
    return Q.run_identity(name, ring, q, ranges=ranges)


_qchar_mod = lru_cache(maxsize=None)(oracles.qchar_mod)


def _check_qchar(expected, what):
    def check(got, _):
        if not got.certified or got.p != expected:
            return f"{what}: got {got}, expected {expected}"
        return None

    return check


@lru_cache(maxsize=None)
def _model(n, mu):
    return oracles.FiniteModel(n, mu)


def _check_flat(n, mu, q, what):
    model = _model(n, mu)
    q = model.elem(q)

    def check(got, _):
        witness = None
        if got.witness is not None:
            m, a = got.witness
            witness = (m, [a.payload] if isinstance(a.payload, int) else a.payload)
        problem = model.certificate_problem(q, got.flat, got.divisible, got.nonunit_witness, witness)
        return problem and f"{what}: {problem}"

    return check


@lru_cache(maxsize=None)
def _char_and_unit(n, mu, q):
    model = _model(n, mu)
    q = model.elem(q)
    return model.q_characteristic(q), model.is_unit(q)


def _check_identity(name, ranges, p, invertible):
    return lambda got, _: oracles.identity_problem(name, ranges, got.failures, got.cases, p, invertible)


def bind(env):
    Q = env.Q
    calls = []
    for item in env.plan:
        kind = item[0]
        if kind == "qchar":
            _, n, q = item
            ring = env.ring(n, None)
            calls.append(Call(f"qchar Z/{n} q={q}", _qchar, (Q, ring, ring.from_int(q), 10**6),
                              _check_qchar(_qchar_mod(n, q), f"qchar Z/{n} q={q}")))
        elif kind == "qchar_big":
            ring = env.ring(BIG_PRIME, None)
            calls.append(Call(f"qchar Z/{BIG_PRIME} q=2", _qchar, (Q, ring, ring.from_int(2), BIG_BOUND),
                              _check_qchar(oracles.qchar_prime(2, BIG_PRIME), "qchar Z/1000003")))
        elif kind == "flat_zn":
            _, n, q = item
            ring = env.ring(n, None)
            calls.append(Call(f"qflat Z/{n} q={q}", _flat, (Q, ring, ring.from_int(q)),
                              _check_flat(n, (0, 1), (q,), f"qflat Z/{n} q={q}")))
        elif kind == "flat_quot":
            _, idx, q = item
            n, mu, _ = QUOTIENTS[idx]
            ring = env.ring(n, mu)
            calls.append(Call(f"qflat {ring} q={q}", _flat, (Q, ring, _elem(ring, q)),
                              _check_flat(n, mu, q, f"qflat {ring} q={q}")))
        elif kind == "identity":
            _, name, n, mu, q, ranges = item
            ring = env.ring(n, mu)
            p, invertible = _char_and_unit(n, mu or (0, 1), q)
            calls.append(Call(f"verify {name} {ring}", _identity, (Q, name, ring, _elem(ring, q), ranges),
                              _check_identity(name, ranges, p, invertible)))
        else:
            raise ValueError(f"unknown call kind {kind!r}")
    return calls
