"""symbolic: a library session over infinite rings.

Calls share a few QContexts, so later calls find earlier work in the
context caches.  Each shared context gets one stream of calls with growing
index, so every call extends the caches by a step; the streams and the
single calls are interleaved at random.  The dense polynomial kernels (Z[t],
Cyclo(p)) and the Q(t) normalize/gcd do most of the work; no ring is
enumerated.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from . import oracles
from .core import Call
from .textexpr import same_value

# (shared context, largest index, grid step); the last step of each stream is
# a jump of a few grid steps, about a second of work on its own
STREAMS = {
    "zt_binom": (80, 4, 64),
    "zt_fact": (60, 5, 50),
    "c61_binom": (80, 5, 80),
    "c97_binom": (120, 8, 104),
}
CYCLO = {"c61_binom": 61, "c97_binom": 97}
# twisted powers (x + c)^(24) for sigma(x) = x - 1 and seeded c in [-4, 4]: no
# cache serves them, so these 120 calls cost about the same for every seed and
# every order, and hold the p50 rank in their lower third
PLATEAU_N, PLATEAU_CALLS, PLATEAU_SHIFT = 24, 120, 4
IDENTITIES = [
    ("rational_state", "qt6", {"r_max": 1}),
    ("cyclo_binom", "zt", {"n_max": 14}),
    ("cyclo_fact", "zt", {"n_max": 16}),
    ("chu_vandermonde", "zt", {"nm_max": 10}),
    ("twisted_binomial", "zt", {"n_max": 6}),
    ("mov", "zz", {"nm_max": 12}),
]


def _grid(top, step, last_regular, scale):
    top = max(4, int(top * scale))
    last_regular = min(top - 1, int(last_regular * scale))
    return list(range(step, last_regular + 1, step)) + [top]


def _stratified(rng, lo, hi, count):
    """One value drawn from each of ``count`` equal slices of [lo, hi]."""
    width = (hi - lo + 1) / count
    return [int(lo + width * i) + rng.randrange(max(1, int(width))) for i in range(count)]


def _interleave(rng, streams):
    """A uniformly random merge that keeps each stream's order."""
    streams = [list(s) for s in streams if s]
    out = []
    while streams:
        weights = [len(s) for s in streams]
        s = rng.choices(streams, weights)[0]
        out.append(s.pop(0))
        if not s:
            streams.remove(s)
    return out


def plan(seed, quick=False):
    """Streams on fixed grids with seeded k; single calls drawn by strata, so
    every seed gets the same spread of call costs."""
    rng = random.Random(seed)
    scale = 0.3 if quick else 1.0
    streams = []
    for kind, (top, step, last) in STREAMS.items():
        grid = _grid(top, step, last, scale)
        if kind == "zt_fact":
            streams.append([(kind, m) for m in grid])
        else:
            streams.append([(kind, n, rng.randint(0, n)) for n in grid])
    singles = (
        [("laurent_state", m) for m in _stratified(rng, -60, 60, 24)]
        + [("laurent_sym", n) for n in _stratified(rng, 1, 40, 10)]
        + [("qt_state", m) for m in _stratified(rng, -24, 40, 20)]
        + [("qt_sym", n) for n in _stratified(rng, 1, 20, 8)]
        + [("qsr", 6, Fraction(a, 6)) for a in _stratified(rng, -24, 24, 20)]
        + [("qsr", 12, Fraction(a, 12)) for a in _stratified(rng, -24, 24, 20)]
        + [("tpow", n, 0) for n in _stratified(rng, 4, 40, 12)]
        + [("tpow", PLATEAU_N, rng.randint(-PLATEAU_SHIFT, PLATEAU_SHIFT)) for _ in range(PLATEAU_CALLS)]
        + [("identity", name, ring, ranges) for name, ring, ranges in IDENTITIES]
    )
    if quick:
        singles = singles[::6]
    return _interleave(rng, streams + [[s] for s in singles])


def setup(qarith, plan):
    env = SimpleNamespace()
    env.Q = Q = qarith
    env.plan = plan
    env.zt = Q.PolynomialRing(Q.ZZ, "t")
    env.laurent = Q.LaurentRing(Q.ZZ, "t")
    env.qt = Q.RationalFunctionField("t")
    env.cyclo = {kind: Q.CyclotomicRing(p) for kind, p in CYCLO.items()}
    env.systems = {L: Q.standard_root_system(Q.cyclotomic.divisors(L)) for L in (6, 12)}
    env.falling = Q.TwistedAlgebra.univariate_affine(Q.ZZ, 1, -1)
    for m in range(1, max(CYCLO.values()) + 1):
        Q.cyclotomic_poly(m)
    return env


# --- the calls; they look qarith up at call time, so a tracer sees them ---


def _binomial(Q, ctx, n, k):
    return Q.q_binomial(ctx, n, k)


def _factorial(Q, ctx, m):
    return Q.q_factorial(ctx, m)


def _state(Q, ctx, m):
    return Q.q_state(ctx, m)


def _symmetric(Q, ctx, n):
    return Q.symmetric_state(ctx, n)


def _rational(Q, system, r):
    return Q.q_state_rational(system, r)


def _twisted(Q, alg, f, n):
    return Q.twisted_power(alg, f, n)


def _identity(Q, name, ring, q, ranges, sigma_text):
    return Q.run_identity(name, ring, q, ranges=ranges, sigma_text=sigma_text)


# --- the checks, against oracles that do not use qarith ---


@lru_cache(maxsize=None)
def _gaussian_value(n, k):
    bound = math.comb(n, k)
    return oracles.gaussian_at(n, k, 1 << oracles.hex_base(bound)), bound


@lru_cache(maxsize=None)
def _factorial_value(m):
    bound = math.factorial(m)
    return oracles.qfactorial_at(m, 1 << oracles.hex_base(bound)), bound


@lru_cache(maxsize=None)
def _cyclo_binomial(p, n, k):
    return tuple(oracles.reduce_cyclotomic_prime(oracles.gaussian_coeffs(n, k), p))


def _dense(cs):
    return {i: c for i, c in enumerate(cs) if c}


def _expect(ok, what):
    return None if ok else what


def _check_zt_binom(n, k):
    value, bound = _gaussian_value(n, k)
    return lambda got, _: _expect(oracles.matches_at_base(got.payload, value, bound), f"[{n} {k}]_t wrong")


def _check_zt_fact(m):
    value, bound = _factorial_value(m)
    return lambda got, _: _expect(oracles.matches_at_base(got.payload, value, bound), f"({m})_t! wrong")


def _check_cyclo(p, n, k):
    return lambda got, _: _expect(got.payload == _cyclo_binomial(p, n, k), f"[{n} {k}] in Cyclo({p}) wrong")


def _check_sparse(expected, what):
    return lambda got, _: _expect(dict(got.payload) == expected, what)


def _check_qt(expected, what):
    def check(got, _):
        num, den = got.payload
        return _expect(same_value((_dense(num), _dense(den)), (expected, {0: 1})), what)

    return check


def _check_rational(L, r):
    def check(got, _):
        num, den = got.payload
        value = Fraction(oracles.poly_at(num, 2), oracles.poly_at(den, 2))
        return _expect(value == oracles.rational_state_at_2(r, L), f"({r})_q in Q(t^(1/{L})) wrong")

    return check


def _check_twisted(n, c):
    expected = oracles.shifted_falling(n, c)
    return lambda got, _: _expect({e[0]: a for e, a in got.payload} == expected, f"(x{c:+d})^({n}) wrong")


def _check_identity(name, ranges):
    return lambda got, _: oracles.identity_problem(name, ranges, got.failures, got.cases)


def bind(env):
    Q = env.Q
    t = env.zt.generator
    ctx = {
        "zt_binom": Q.QContext(env.zt, t),
        "laurent": Q.QContext(env.laurent, env.laurent.generator),
        "qt": Q.QContext(env.qt, env.qt.generator),
    }
    ctx["zt_fact"] = ctx["zt_binom"]
    for kind, ring in env.cyclo.items():
        ctx[kind] = Q.QContext(ring, ring.generator)
    systems = {
        L: Q.RootSystem(Q.QContext(s.ctx.ring, s.ctx.q), s.dset, s.roots, s.admissible)
        for L, s in env.systems.items()
    }
    rings = {"zt": (env.zt, t), "zz": (Q.ZZ, None), "qt6": (env.systems[6].ctx.ring, env.systems[6].ctx.q)}
    calls = []
    for item in env.plan:
        kind = item[0]
        if kind == "zt_binom":
            _, n, k = item
            calls.append(Call(f"zt_binom({n},{k})", _binomial, (Q, ctx[kind], n, k), _check_zt_binom(n, k)))
        elif kind == "zt_fact":
            _, m = item
            calls.append(Call(f"zt_fact({m})", _factorial, (Q, ctx[kind], m), _check_zt_fact(m)))
        elif kind in CYCLO:
            _, n, k = item
            p = CYCLO[kind]
            calls.append(Call(f"cyclo{p}_binom({n},{k})", _binomial, (Q, ctx[kind], n, k), _check_cyclo(p, n, k)))
        elif kind == "laurent_state":
            m = item[1]
            check = _check_sparse(oracles.laurent_state(m), f"({m})_t in Z[t,1/t] wrong")
            calls.append(Call(f"laurent_state({m})", _state, (Q, ctx["laurent"], m), check))
        elif kind == "laurent_sym":
            n = item[1]
            check = _check_sparse(oracles.symmetric_state(n), f"[{n}]_t in Z[t,1/t] wrong")
            calls.append(Call(f"laurent_sym({n})", _symmetric, (Q, ctx["laurent"], n), check))
        elif kind == "qt_state":
            m = item[1]
            check = _check_qt(oracles.laurent_state(m), f"({m})_t in Q(t) wrong")
            calls.append(Call(f"qt_state({m})", _state, (Q, ctx["qt"], m), check))
        elif kind == "qt_sym":
            n = item[1]
            check = _check_qt(oracles.symmetric_state(n), f"[{n}]_t in Q(t) wrong")
            calls.append(Call(f"qt_sym({n})", _symmetric, (Q, ctx["qt"], n), check))
        elif kind == "qsr":
            _, L, r = item
            calls.append(Call(f"qsr{L}({r})", _rational, (Q, systems[L], r), _check_rational(L, r)))
        elif kind == "tpow":
            _, n, c = item
            f = env.falling.gen("x") + c
            calls.append(Call(f"tpow(x{c:+d}, {n})", _twisted, (Q, env.falling, f, n), _check_twisted(n, c)))
        elif kind == "identity":
            _, name, ring_key, ranges = item
            ring, q = rings[ring_key]
            sigma = "x-1" if name == "mov" else None
            calls.append(Call(f"verify {name}", _identity, (Q, name, ring, q, ranges, sigma),
                              _check_identity(name, ranges)))
        else:
            raise ValueError(f"unknown call kind {kind!r}")
    return calls
