"""cli-mix: many small in-process ``qarith.cli.main`` calls.

Each call parses its ring and q, builds a cold QContext and renders its
answer, as a command-line user gets.  The cases are drawn by seed from every
subcommand at small sizes; every case runs with ``--json`` and a fixed share
also runs in text form, which must render the same value.  argparse, parsing,
cold caches and rendering do most of the work; the arithmetic is small.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from . import oracles
from .core import Call
from .textexpr import ONE, padd, read, read_dense, same_value

CASES = 600
TEXT_TWINS = 400  # cases that also run in text form: 1000 calls per pass
CYCLO_PRIMES = [5, 7, 11, 13]
FIELD_PRIMES = [5, 7, 11, 13]
# small quotient rings for qflat: (text, n, mu constant term first)
QUOTIENTS = [
    ("Z/5[X]/(X^2-1)", 5, (-1, 0, 1)),
    ("Z/2[X]/(X^3+X+1)", 2, (1, 1, 0, 1)),
    ("Z/3[X]/(X^2+1)", 3, (1, 0, 1)),
    ("Z/4[X]/(X^2+X+1)", 4, (1, 1, 1)),
    ("Z/9[X]/(X^2+1)", 9, (1, 0, 1)),
    ("Z/5[X]/(X^3+X+1)", 5, (1, 1, 0, 1)),
]
QUOTIENT_QS = {"X": (0, 1), "X+1": (1, 1), "2": (2,), "2*X+1": (1, 2)}
TABLE_HEADERS = {"gauss_triangle": "n,k,polynomial", "qstate_orbit": "m,value", "cyclo_factors": "n,factors"}


# --- drawing cases: (subcommand, options, positionals, expectation) ---


def _mod_q(rng, lo=2, hi=60):
    n = rng.randint(lo, hi)
    return n, rng.randrange(n)


def _t_option(rng):
    """Name the ring's generator as q half the time, else rely on the default."""
    return ["--q", "t"] if rng.random() < 0.5 else []


def _qint(rng):
    kind = rng.randrange(5)
    if kind < 3:
        ring, lo, hi = [("Z[t]", 0, 30), ("Z[t,1/t]", -20, 20), ("Q(t)", -12, 20)][kind]
        m = rng.randint(lo, hi)
        return "qint", ["--ring", ring] + _t_option(rng), [str(m)], ("rf", "state", m)
    if kind == 3:
        p, m = rng.choice(CYCLO_PRIMES), rng.randint(0, 30)
        return "qint", ["--ring", f"Cyclo({p})"], [str(m)], ("cyclo", p, "state", m)
    n, q = _mod_q(rng)
    m = rng.randint(0, 40)
    return "qint", ["--ring", f"Z/{n}", "--q", str(q)], [str(m)], ("mod", n, q, "state", m)


def _qfact(rng):
    if rng.random() < 0.5:
        m = rng.randint(0, 9)
        return "qfact", ["--ring", "Z[t]"], [str(m)], ("rf", "factorial", m)
    n, q = _mod_q(rng)
    m = rng.randint(0, 12)
    return "qfact", ["--ring", f"Z/{n}", "--q", str(q)], [str(m)], ("mod", n, q, "factorial", m)


def _qbinom(rng):
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(0, 12)
        k = rng.randint(0, n)
        return "qbinom", ["--ring", "Z[t]"] + _t_option(rng), [str(n), str(k)], ("rf", "binomial", n, k)
    if kind == 1:
        p, n = rng.choice(CYCLO_PRIMES), rng.randint(0, 14)
        k = rng.randint(0, n)
        return "qbinom", ["--ring", f"Cyclo({p})"], [str(n), str(k)], ("cyclo", p, "binomial", n, k)
    mod, q = _mod_q(rng)
    n = rng.randint(0, 12)
    k = rng.randint(0, n)
    return "qbinom", ["--ring", f"Z/{mod}", "--q", str(q)], [str(n), str(k)], ("mod", mod, q, "binomial", n, k)


def _qsym(rng):
    ring, top = rng.choice([("Z[t,1/t]", 15), ("Q(t)", 10)])
    n = rng.randint(1, top)
    return "qsym", ["--ring", ring], [str(n)], ("rf", "symmetric", n)


def _qrat(rng):
    L = rng.choice([2, 3, 4, 6])
    r = Fraction(rng.randint(-2 * L, 2 * L), L)
    return "qrat", ["--ring", f"Q(t^(1/{L}))"], [str(r)], ("rf", "rational", r)


def _qchar(rng):
    n, q = _mod_q(rng)
    return "qchar", ["--ring", f"Z/{n}", "--q", str(q)], [], ("qchar", n, q)


def _qflat(rng):
    if rng.random() < 0.5:
        n, q = _mod_q(rng, 2, 40)
        return "qflat", ["--ring", f"Z/{n}", "--q", str(q)], [], ("qflat", n, (0, 1), (q,))
    text, n, mu = rng.choice(QUOTIENTS)
    q = rng.choice(sorted(QUOTIENT_QS))
    return "qflat", ["--ring", text, "--q", q], [], ("qflat", n, mu, QUOTIENT_QS[q])


def _tpow(rng):
    sigma = rng.choice(["x-1", "x+1", "2*x"])
    n = rng.randint(0, 10)
    return "tpow", ["--ring", rng.choice(["Z", "Q"]), "--sigma", sigma], [str(n)], ("tpow", sigma, n)


def _expand(rng):
    k = rng.randint(0, 8)
    return "expand", ["--ring", "Q", "--sigma", "x-1"], [f"x^{k}"], ("expand", k)


def _verify(rng):
    kind = rng.randrange(6)
    if kind < 4:
        name, flag, lo, hi = [
            ("pascal", "n_max", 3, 8), ("symmetry", "n_max", 4, 10),
            ("chu_vandermonde", "nm_max", 3, 6), ("cyclo_int", "n_max", 5, 15),
        ][kind]
        ranges = {flag: rng.randint(lo, hi)}
        ring, q = "Z[t]", None
    elif kind == 4:
        name, ranges = "explicit", {"m_max": rng.randint(5, 15)}
        n, q = _mod_q(rng, 2, 30)
        ring = f"Z/{n}"
    else:
        name, ranges = "divp", {"m_max": rng.randint(5, 15)}
        n = rng.choice(FIELD_PRIMES)
        q = rng.randint(1, n - 1)
        ring = f"Z/{n}"
    opts = ["--ring", ring] + ([] if q is None else ["--q", str(q)])
    for key, value in ranges.items():
        opts += ["--" + key.replace("_", "-"), str(value)]
    return "verify", opts, [name], ("verify", name, ring, q, tuple(ranges.items()))


def _table(rng):
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(2, 6)
        return "table", ["--n-max", str(n)], ["gauss_triangle"], ("table", "gauss_triangle", n)
    if kind == 1:
        n = rng.randint(4, 20)
        return "table", ["--n", str(n)], ["cyclo_factors"], ("table", "cyclo_factors", n)
    mod, q = _mod_q(rng, 2, 30)
    m = rng.randint(4, 12)
    return ("table", ["--ring", f"Z/{mod}", "--q", str(q), "--m-max", str(m)], ["qstate_orbit"],
            ("table", "qstate_orbit", (mod, q, m)))


DRAWS = [_qint, _qfact, _qbinom, _qsym, _qrat, _qchar, _qflat, _tpow, _expand, _verify, _table]


def argv(case, as_json):
    cmd, opts, pos, _ = case
    out = [cmd] + opts + (["--json"] if as_json else [])
    if any(p.startswith("-") for p in pos):
        out.append("--")
    return out + pos


def plan(seed, quick=False):
    rng = random.Random(seed)
    n_cases, twins = (CASES, TEXT_TWINS) if not quick else (CASES // 10, TEXT_TWINS // 10)
    cases = [rng.choice(DRAWS)(rng) for _ in range(n_cases)]
    calls = [(i, True) for i in range(n_cases)] + [(i, False) for i in range(twins)]
    rng.shuffle(calls)
    return cases, calls


def setup(qarith, plan):
    env = SimpleNamespace()
    env.Q = qarith
    env.plan = plan
    for m in range(1, max(CYCLO_PRIMES) + 1):
        qarith.cyclotomic_poly(m)
    return env


def _main(Q, args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = Q.cli.main(args)
    return code, out.getvalue(), err.getvalue()


# --- expected values, from the oracles ---


def _mod_state(n, q, m):
    return sum(pow(q, i, n) for i in range(m)) % n


@lru_cache(maxsize=None)
def _expected_rf(what, *args):
    if what == "state":
        return oracles.laurent_state(args[0]), ONE
    if what == "symmetric":
        return oracles.symmetric_state(args[0]), ONE
    if what == "factorial":
        return dict(enumerate(oracles.qfactorial_coeffs(args[0]))), ONE
    if what == "binomial":
        return dict(enumerate(oracles.gaussian_coeffs(*args))), ONE
    if what == "rational":
        return padd({0: 1}, {args[0]: -1}), {0: 1, 1: -1}
    raise ValueError(what)


@lru_cache(maxsize=None)
def _expected_mod(n, q, what, *args):
    if what == "state":
        return _mod_state(n, q, args[0])
    if what == "factorial":
        return math.prod(_mod_state(n, q, i) for i in range(1, args[0] + 1)) % n
    return oracles.gaussian_mod(*args, q, n)


@lru_cache(maxsize=None)
def _expected_cyclo(p, what, *args):
    coeffs = [1] * args[0] if what == "state" else oracles.gaussian_coeffs(*args)
    return oracles.reduce_cyclotomic_prime(coeffs, p)


def _expected_twisted(sigma, n):
    if sigma == "x-1":
        return oracles.stirling1_signed(n)
    if sigma == "x+1":
        return oracles.rising_factorial(n)
    return {n: 2 ** (n * (n - 1) // 2)}


def _check_value(expect, result):
    kind = expect[0]
    if kind == "rf":
        return same_value(read(result, "t"), _expected_rf(*expect[1:]))
    if kind == "cyclo":
        return read_dense(result) == _expected_cyclo(*expect[1:])
    if kind == "mod":
        return int(result) == _expected_mod(*expect[1:])
    if kind == "tpow":
        return same_value(read(result, "x"), (_expected_twisted(*expect[1:]), ONE))
    raise ValueError(kind)


@lru_cache(maxsize=None)
def _model(n, mu):
    return oracles.FiniteModel(n, mu)


def _check_flat(expect, result):
    _, n, mu, q = expect
    model = _model(n, mu)
    witness = result["witness"]
    if witness is not None:
        witness = (witness[0], read_dense(witness[1], "X"))
    return model.certificate_problem(model.elem(q), result["flat"], result["divisible"],
                                     result["nonunit_witness"], witness) is None


def _check_verify(expect, payload):
    _, name, ring, q, ranges = expect
    report = payload["report"]
    p = invertible = None
    if q is not None:
        n = int(ring[2:])
        p, invertible = oracles.qchar_mod(n, q), math.gcd(q, n) == 1
    return oracles.identity_problem(name, dict(ranges), report["failures"], report["cases"], p, invertible) is None


def _check_table(expect, rows):
    _, kind, arg = expect
    if kind == "gauss_triangle":
        want = [(n, k) for n in range(arg + 1) for k in range(n // 2 + 1)]
        return [tuple(r[:2]) for r in rows] == want and all(
            read_dense(r[2]) == oracles.gaussian_coeffs(r[0], r[1]) for r in rows)
    if kind == "cyclo_factors":
        want = [[n, ",".join(str(d) for d in range(2, n + 1) if n % d == 0)] for n in range(1, arg + 1)]
        return rows == want
    n, q, m_max = arg
    return rows == [[m, str(_mod_state(n, q, m))] for m in range(m_max + 1)]


def check_json(expect, payload):
    kind = expect[0]
    result = payload.get("result")
    if kind in ("rf", "cyclo", "mod", "tpow"):
        return _check_value(expect, result)
    if kind == "qchar":
        return result == {"p": oracles.qchar_mod(expect[1], expect[2]), "certified": True, "bound": None}
    if kind == "qflat":
        return _check_flat(expect, result)
    if kind == "expand":
        got = {int(i): Fraction(c) for i, c in result.items()}
        return got == oracles.stirling2(expect[1])
    if kind == "verify":
        return _check_verify(expect, payload)
    return _check_table(expect, result)


def render_text(cmd, payload):
    """The text form a call should print, rebuilt from its JSON form."""
    result = payload.get("result")
    if cmd == "qchar":
        if result["p"] > 0:
            return str(result["p"])
        return "0 (certified)" if result["certified"] else f"unknown (bound={result['bound']})"
    if cmd == "qflat":
        out = f"flat={str(result['flat']).lower()} divisible={str(result['divisible']).lower()}"
        if result["witness"] is not None:
            out += f" torsion_witness=(m={result['witness'][0]}, a={result['witness'][1]})"
        if result["nonunit_witness"] is not None:
            out += f" nonunit_witness=m={result['nonunit_witness']}"
        return out
    if cmd == "expand":
        return "\n".join(f"{i}: {c}" for i, c in sorted((int(i), c) for i, c in result.items()))
    if cmd == "verify":
        report = payload["report"]
        q = "" if payload["q"] is None else f" q={payload['q']}"
        return f"identity={report['identity']} ring={payload['ring']}{q} cases={report['cases']} failures={len(report['failures'])}"
    if cmd == "table":
        lines = [TABLE_HEADERS[payload["args"]["kind"]]]
        lines += [",".join(str(v) for v in row[:-1]) + f',"{row[-1]}"' for row in result]
        return "\n".join(lines)
    return result


def _check_call(case, twin):
    cmd, _, _, expect = case

    def check(got, results):
        code, out, err = got
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        if twin is not None:
            code, twin_out, _ = results[twin]
            if code != 0:
                return "the --json twin failed"
            text = out.rstrip("\n")
            if cmd == "verify":
                text = text.split(" time=")[0]
            if text != render_text(cmd, json.loads(twin_out)):
                return f"text form {text!r} differs from the --json form"
            return None
        payload = json.loads(out)
        if payload.get("schema_version") != 1 or payload.get("op") != cmd:
            return "bad JSON envelope"
        return None if check_json(expect, payload) else f"wrong result {out.strip()[:200]}"

    return check


def bind(env):
    cases, order = env.plan
    json_at = {i: pos for pos, (i, as_json) in enumerate(order) if as_json}
    calls = []
    for i, as_json in order:
        args = argv(cases[i], as_json)
        twin = None if as_json else json_at[i]
        calls.append(Call(" ".join(args), _main, (env.Q, args), _check_call(cases[i], twin)))
    return calls
