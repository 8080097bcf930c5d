"""Quick tests of the benchmark itself: oracles, the text reader, the tracer,
and each workload end to end at reduced size.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import pytest  # noqa: E402

import qarith  # noqa: E402
from perfbench import climix, core, finite, oracles, symbolic, textexpr  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

# s(n, k) for n <= 6, from the classical recurrence tables
STIRLING1 = {
    0: {0: 1},
    1: {1: 1},
    2: {1: -1, 2: 1},
    3: {1: 2, 2: -3, 3: 1},
    4: {1: -6, 2: 11, 3: -6, 4: 1},
    5: {1: 24, 2: -50, 3: 35, 4: -10, 5: 1},
    6: {1: -120, 2: 274, 3: -225, 4: 85, 5: -15, 6: 1},
}
STIRLING2_6 = {1: 1, 2: 31, 3: 90, 4: 65, 5: 15, 6: 1}


def test_gaussian_and_factorial_oracles():
    assert oracles.gaussian_coeffs(4, 2) == [1, 1, 2, 1, 1]
    assert oracles.gaussian_coeffs(5, 0) == [1]
    assert oracles.qfactorial_coeffs(3) == [1, 2, 2, 1]
    for n in range(9):
        for k in range(n + 1):
            assert sum(oracles.gaussian_coeffs(n, k)) == math.comb(n, k)
    assert oracles.matches_at_base((1, 1, 2, 1, 1), oracles.gaussian_at(4, 2, 16), 6)
    assert not oracles.matches_at_base((1, 1, 2, 1, 2), oracles.gaussian_at(4, 2, 16), 6)
    assert not oracles.matches_at_base((1, 1, 2, 1, 1, 0), oracles.gaussian_at(4, 2, 16), 6)


def test_cyclotomic_reduction():
    # 1 + t + ... + t^4 is 0 mod chi_5; t^5 = 1
    assert oracles.reduce_cyclotomic_prime([1] * 5, 5) == []
    assert oracles.reduce_cyclotomic_prime([0, 0, 0, 0, 0, 1], 5) == [1]
    # t^4 = -(1 + t + t^2 + t^3)
    assert oracles.reduce_cyclotomic_prime([0, 0, 0, 0, 1], 5) == [-1, -1, -1, -1]


def test_stirling_numbers():
    for n, row in STIRLING1.items():
        assert oracles.stirling1_signed(n) == row
    assert oracles.stirling2(6) == STIRLING2_6
    assert oracles.rising_factorial(3) == {1: 2, 2: 3, 3: 1}
    for n, row in STIRLING1.items():
        assert oracles.shifted_falling(n, 0) == row
    assert oracles.shifted_falling(3, 1) == {1: -1, 3: 1}  # (x+1)x(x-1)
    assert oracles.shifted_falling(2, 3) == {0: 6, 1: 5, 2: 1}  # (x+3)(x+2)


def test_states():
    assert oracles.laurent_state(3) == {0: 1, 1: 1, 2: 1}
    assert oracles.laurent_state(-2) == {-2: -1, -1: -1}
    assert oracles.symmetric_state(3) == {-2: 1, 0: 1, 2: 1}
    assert oracles.rational_state_at_2(Fraction(1), 6) == 1
    assert oracles.rational_state_at_2(Fraction(0), 6) == 0
    assert oracles.rational_state_at_2(Fraction(1, 2), 2) == Fraction(1, 3)  # 1/(1+s)
    assert oracles.rational_state_at_2(Fraction(2), 1) == 3


def test_quantum_characteristic_oracles():
    assert oracles.qchar_mod(8, 3) == 4
    assert oracles.qchar_mod(7, 2) == 3
    assert oracles.qchar_mod(7, 1) == 7
    assert oracles.qchar_mod(4, 2) == 0
    assert oracles.multiplicative_order(2, 7) == 3
    assert oracles.multiplicative_order(2, 1000003) == 1000002
    for p in (5, 7, 11):
        for q in range(1, p):
            assert oracles.qchar_prime(q, p) == oracles.qchar_mod(p, q)
    for n in range(2, 13):
        for q in range(n):
            assert oracles.FiniteModel(n).q_characteristic((q,)) == oracles.qchar_mod(n, q)


@pytest.mark.parametrize("n,mu", [(8, (0, 1)), (12, (0, 1)), (4, (1, 1, 1)), (2, (1, 1, 0, 1)),
                                  (3, (1, 0, 1)), (4, (0, 0, 1)), (6, (-1, 0, 1))])
def test_unit_rule_matches_brute_force(n, mu):
    model = oracles.FiniteModel(n, mu)
    for a in model.elements():
        assert model.is_unit(a) == model.brute_is_unit(a), a


def test_flatness_oracle():
    z8 = oracles.FiniteModel(8)
    assert z8.flatness((3,)) == (False, False, 2)
    # X^2 + 1 is irreducible over Z/3, so Z/3[X]/(X^2+1) is a field
    assert oracles.FiniteModel(3, (1, 0, 1)).flatness((0, 1)) == (True, True, None)
    assert oracles.fp_gcd_is_one([1, 0, 1], [0, 1], 3)
    assert not oracles.fp_gcd_is_one([1, 0, 1], [1, 1], 2)  # (X+1)^2 = X^2+1 mod 2


def test_identity_case_counts():
    assert oracles.identity_cases("chu_vandermonde", {"nm_max": 16}) == 1785
    assert oracles.identity_cases("divp", {"m_max": 20}, p=3, invertible=True) == 70
    assert oracles.identity_cases("lucas", {"n_max": 3, "k_max": 3}, p=3) == 144
    assert oracles.identity_cases("addmul", {"m_max": 12}, p=3, invertible=True) == 1250
    assert oracles.identity_cases("cyclo_binom", {"n_max": 14}) == 1121
    assert oracles.identity_cases("mov", {"nm_max": 12}) == 120


def test_text_reader():
    assert textexpr.read_dense("1 + t + 2*t^2 + t^3 + t^4") == [1, 1, 2, 1, 1]
    assert textexpr.read_dense("-120*x + 274*x^2 - 225*x^3", "x") == [0, -120, 274, -225]
    num, den = textexpr.read("-(1 + t + t^2)/t^3")
    assert textexpr.same_value((num, den), (oracles.laurent_state(-3), textexpr.ONE))
    r = Fraction(-2, 3)
    expected = (textexpr.padd({0: 1}, {r: -1}), {0: 1, 1: -1})
    assert textexpr.same_value(textexpr.read("-(1 + t^(1/3))/(t^(2/3) + t + t^(4/3))"), expected)
    assert textexpr.read_poly("3/2*x^2", "x") == {2: Fraction(3, 2)}


@pytest.mark.parametrize("module", [symbolic, finite, climix])
def test_workload_end_to_end_at_reduced_size(module):
    env = module.setup(qarith, module.plan(7, quick=True))
    problems = []
    attempted, records = core.run_passes(module, env, 0, problems.append)
    assert attempted == len(records[0].latencies) > 0
    assert problems == []
    metrics = core.end_to_end(records)
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("module", [symbolic, finite, climix])
def test_traced_counts_repeat_and_tracer_uninstalls(module):
    env = module.setup(qarith, module.plan(7, quick=True))
    originals = (qarith.q_state, qarith.qnum.QContext.__init__, qarith.rings.ModularRing._add)
    tracer = Tracer()
    tracer.install(qarith)
    try:
        problems = []
        _, records = core.run_passes(module, env, 0, problems.append, tracer)
        _, again = core.run_passes(module, env, 0, problems.append, tracer)
    finally:
        tracer.uninstall()
    assert problems == []
    assert (qarith.q_state, qarith.qnum.QContext.__init__, qarith.rings.ModularRing._add) == originals
    first, second = records[0].layers, again[0].layers
    counts = {k: v for k, v in first.items() if not k.endswith("ms")}
    assert counts == {k: second[k] for k in counts}
    assert first["qnum.contexts"] > 0 and first["rings.elem_ops.calls"] > 0


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "finite", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_run_prints_result_json():
    out = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "cli-mix",
                          "--seed", "2", "--seconds", "0.1", "--trace", "1"], capture_output=True, text=True,
                         timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2000
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
