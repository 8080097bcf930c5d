"""CLI: grammar round-trips, eval commands, verify exit codes, tables, JSON."""

import json
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith import DomainError, ParseError, QContext, parse_element, parse_ring
from qarith import cli
from qarith.cli import CaseFailure, VerificationReport, main, run_identity
from qarith.twisted import TwistedAlgebra
from conftest import RING_SPECS, run_python


# --- parsing -------------------------------------------------------------------


@pytest.mark.parametrize("spec", RING_SPECS + ["Z[X]/(X^2+X+1)"])
def test_ring_parse_print_parse_identity(spec):
    ring = parse_ring(spec)
    assert parse_ring(str(ring)) == ring


def test_parse_ring_rejects_garbage():
    for bad in ("Z/x", "Spam(3)", "Q(t^(1/))", "Z[tt]"):
        with pytest.raises(ParseError):
            parse_ring(bad)


def test_parse_element_examples():
    z8 = parse_ring("Z/8")
    assert parse_element(z8, "11") == z8.from_int(3)
    zt = parse_ring("Z[t]")
    assert parse_element(zt, "1+t^2").payload == (1, 0, 1)
    zi = parse_ring("Z[i]")
    assert parse_element(zi, "1+i").payload == (1, 1)
    assert parse_element(zi, "(1+i)*(1-i)") == zi.from_int(2)
    qt = parse_ring("Q(t)")
    assert parse_element(qt, "-(1+t)/t^2").payload == ((-1, -1), (0, 0, 1))
    p6 = parse_ring("Q(t^(1/6))")
    assert parse_element(p6, "t^(1/2)") == p6.generator ** __import__("fractions").Fraction(1, 2)


# the tokenizer as it stood before its unreachable branches were dropped
_OLD_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


def _old_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _OLD_TOKEN_RE.match(text, pos)
        if not m or m.end() == pos and not m.group(0).strip():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = pos + len(text[pos:]) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            tokens.append(("int", cli._int_literal(m.group(1), m.start(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        elif m.group(3) is not None:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
        if m.end() == m.start():
            break
    remainder = text[pos:].strip()
    if remainder:
        raise ParseError(f"unexpected character {remainder[0]!r}", pos)
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position


# ASCII atoms and operators, Unicode digits and spaces, and characters no token starts with
_TOKEN_ALPHABET = "0123456789tTx_ab()+-*/^ \t\n\x0b\xa0\u2003\u0663\u096b$#.,é\x00"


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.text(alphabet=_TOKEN_ALPHABET, max_size=12), st.text(max_size=8)))
def test_tokenize_matches_the_old_tokenizer(text):
    assert _tokens_or_error(cli._tokenize, text) == _tokens_or_error(_old_tokenize, text)


def test_parse_element_implicit_multiplication():
    zt = parse_ring("Z[t]")
    assert parse_element(zt, "2t^2") == parse_element(zt, "2*t^2")
    assert parse_element(zt, "3(1+t)") == parse_element(zt, "3*(1+t)")
    q2 = parse_ring("Q[X]/(X^2-1)")
    assert parse_element(q2, "1/2X") == parse_element(q2, "(1/2)*X")


def test_parse_element_errors_carry_position():
    zt = parse_ring("Z[t]")
    with pytest.raises(ParseError) as info:
        parse_element(zt, "1 + %")
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse_element(zt, "1 + x")  # unknown name
    with pytest.raises(ParseError):
        parse_element(zt, "1/t")  # not invertible here


@pytest.mark.parametrize("spec", RING_SPECS)
def test_element_round_trip(spec):
    ring = parse_ring(spec)
    rng = random.Random(hash(spec) & 0xFFFF)
    for _ in range(60):
        x = ring.random_element(rng)
        assert parse_element(ring, str(x)) == x, f"{spec}: {x}"


# --- eval commands ----------------------------------------------------------


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out.strip()


def test_qbinom_example(capsys):
    code, out = run_cli(capsys, ["qbinom", "--ring", "Z[t]", "--q", "t", "4", "2"])
    assert code == 0
    assert out == "1 + t + 2*t^2 + t^3 + t^4"


def test_qchar_example(capsys):
    code, out = run_cli(capsys, ["qchar", "--ring", "Z/8", "--q", "3"])
    assert (code, out) == (0, "4")
    code, out = run_cli(capsys, ["qchar", "--ring", "Q[X]/(X^2-1)", "--q", "X"])
    assert (code, out) == (0, "0 (certified)")
    # q^m != 1 for m <= lcm(2, 4), the largest order of a root of unity in Z[zeta_4]
    code, out = run_cli(capsys, ["qchar", "--ring", "Cyclo(4)", "--q", "2", "--bound", "5"])
    assert (code, out) == (0, "0 (certified)")


def test_qint_negative_example(capsys):
    code, out = run_cli(capsys, ["qint", "--ring", "Q(t)", "--q", "t", "--", "-2"])
    assert (code, out) == (0, "-(1 + t)/t^2")


def test_qfact_and_qsym(capsys):
    code, out = run_cli(capsys, ["qfact", "--ring", "Z[t]", "--q", "t", "3"])
    assert (code, out) == (0, "1 + 2*t + 2*t^2 + t^3")
    code, out = run_cli(capsys, ["qsym", "--ring", "Z[t,1/t]", "--q", "t", "2"])
    assert (code, out) == (0, "t^-1 + t")


def test_qrat_command(capsys):
    code, out = run_cli(capsys, ["qrat", "--ring", "Q(t^(1/6))", "2/3"])
    assert (code, out) == (0, "(1 + t^(1/3))/(1 + t^(1/3) + t^(2/3))")


def test_qflat_command(capsys):
    code, out = run_cli(capsys, ["qflat", "--ring", "Z[i]", "--q", "i"])
    assert code == 0
    assert "flat=true" in out and "divisible=false" in out and "m=2" in out


def test_gaussian_integers_print_as_a_quotient(capsys):
    code, out = run_cli(capsys, ["qint", "--ring", "Z[i]", "--q", "1+2*i", "3"])
    assert (code, out) == (0, "-1 + 6*i")
    code, out = run_cli(capsys, ["qint", "--ring", "Z[i]", "--q", "i", "2", "--json"])
    assert code == 0 and json.loads(out)["ring"] == "Z[i]/(1 + i^2)"


@pytest.mark.parametrize("spec", ["Z[X]/(X^2+X+1)", "Q[X]/(X^2+X+1)"])
def test_qflat_on_a_cyclotomic_quotient(capsys, spec):
    code, out = run_cli(capsys, ["qflat", "--ring", spec, "--q", "X"])
    assert (code, out) == (0, "flat=true divisible=true")


@pytest.mark.parametrize("spec", ["Z", "Z[t]", "Z[X]/(X^2+1)"])
def test_qflat_at_q_zero_on_a_domain(capsys, spec):
    # every (m)_0 = 1 is a unit
    assert run_cli(capsys, ["qflat", "--ring", spec, "--q", "0"]) == (0, "flat=true divisible=true")


def test_quotient_over_z_needs_a_monic_modulus(capsys):
    assert main(["qint", "--ring", "Z[X]/(2*X^2+1)", "3"]) == 1
    assert "unit leading coefficient" in capsys.readouterr().err


def test_tpow_and_expand(capsys):
    code, out = run_cli(capsys, ["tpow", "--ring", "Q", "--sigma", "x-1", "3"])
    assert (code, out) == (0, "2*x - 3*x^2 + x^3")
    code, out = run_cli(capsys, ["expand", "--ring", "Q", "--sigma", "x-1", "x^2"])
    assert (code, out) == (0, "1: 1\n2: 1")


@pytest.mark.parametrize(
    "argv, expected",
    [
        # LaurentRing.root_of_unity_order_bound: the units of Z[t,1/t] are +-t^k
        (["qchar", "--ring", "Z[t,1/t]", "--q=-1"], "2"),
        (["qchar", "--ring", "Z[t,1/t]"], "0 (certified)"),
        # TwistedAlgebra._invert on a constant: x/2 is (1/2)*x, x/3 over Z/7 is 5*x
        (["tpow", "--ring", "Q", "--sigma", "x-1", "--f", "x/2", "3"], "1/4*x - 3/8*x^2 + 1/8*x^3"),
        (["tpow", "--ring", "Z/7", "--sigma", "2*x", "--f", "x/3", "2"], "x^2"),
        # RationalFunctionField._frac_pow with a negative exponent
        (["qint", "--ring", "Q(t^(1/2))", "--q", "t^(-1/2)", "3"], "(1 + t^(1/2) + t)/t"),
        (["qint", "--ring", "Q(t^(1/2))", "--q", "t^(-3/2)", "--", "-2"], "-t^(3/2) - t^3"),
    ],
)
def test_laurent_order_bound_twisted_inverse_and_negative_fractional_power(capsys, argv, expected):
    assert run_cli(capsys, argv) == (0, expected)


def test_tpow_with_sigma_zero(capsys):
    # sigma(x) = 0 makes every factor past the first f(0), here 0
    assert run_cli(capsys, ["tpow", "--ring", "Z", "--sigma", "0", "2"]) == (0, "0")
    assert run_cli(capsys, ["tpow", "--ring", "Z", "--sigma", "0", "--f", "x+1", "5"]) == (0, "1 + x")


def test_option_values_starting_with_minus(capsys):
    # argparse reads "-x" after an option as another option; "--f=-x" binds it
    code, out = run_cli(capsys, ["tpow", "--ring", "Z", "--sigma", "x+1", "--f=-x", "3"])
    assert (code, out) == (0, "-2*x - 3*x^2 - x^3")
    assert main(["tpow", "--ring", "Z", "--sigma", "x+1", "--f", "-x", "3"]) == 3
    assert "expected one argument" in capsys.readouterr().err


def test_eval_domain_error_exit(capsys):
    code = main(["qint", "--ring", "Z[t]", "--q", "t", "--", "-3"])
    assert code == 1
    code = main(["qrat", "--ring", "Z[t]", "1/2"])
    assert code == 1


def test_json_output_stable(capsys):
    argv = ["qbinom", "--ring", "Z[t]", "--q", "t", "--json", "4", "2"]
    code, out1 = run_cli(capsys, argv)
    code, out2 = run_cli(capsys, argv)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema_version"] == 1
    assert payload["ring"] == "Z[t]"
    assert payload["q"] == "t"
    assert payload["op"] == "qbinom"
    assert payload["result"] == "1 + t + 2*t^2 + t^3 + t^4"


def test_printed_values_reparse(capsys, fleet):
    for ctx in fleet[::9]:
        from qarith import q_state

        value = q_state(ctx, 7)
        assert parse_element(ctx.ring, str(value)) == value


# --- verify -----------------------------------------------------------------


def test_verify_lucas_exit_zero(capsys):
    code, out = run_cli(capsys, ["verify", "lucas", "--ring", "Cyclo(5)", "--n-max", "3", "--k-max", "3"])
    assert code == 0
    assert "failures=0" in out


def test_verify_pascal_memo_path(capsys):
    code, out = run_cli(capsys, ["verify", "pascal", "--ring", "Z[t]", "--q", "t", "--n-max", "20"])
    assert code == 0
    assert "failures=0" in out


def test_verify_hypotheses_unmet(capsys):
    code = main(["verify", "qbin_vanish", "--ring", "Z/4", "--q", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "hypotheses unmet" in err


def test_verify_unknown_identity_usage_error(capsys):
    assert main(["verify", "nonsense", "--ring", "Z"]) == 3


def test_verify_missing_q_usage_error(capsys):
    assert main(["verify", "pascal", "--ring", "Z/8"]) == 3


def test_verify_sigmaen_takes_q_from_sigma(capsys):
    # sigma(x) = x - 1 gives q = 1, a unit: 13 orbits, 13 differences, 12 inverse orbits
    code, out = run_cli(capsys, ["verify", "sigmaen", "--ring", "Z", "--sigma", "x-1"])
    assert code == 0
    assert "cases=38 failures=0" in out
    code, out = run_cli(capsys, ["verify", "sigmaen", "--ring", "Z", "--q", "2", "--sigma", "2*x-1"])
    assert code == 0
    assert "cases=26 failures=0" in out


@pytest.mark.parametrize("ring, q", [("Z", "2"), ("Z[t]", "t")])
def test_verify_sigmaen_rejects_a_q_that_disagrees_with_sigma(capsys, ring, q):
    argv = ["verify", "sigmaen", "--ring", ring, "--sigma", "x-1", "--q", q]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"sigma gives q = 1, which disagrees with q = {q}" in captured.err


@pytest.mark.parametrize("identity", ["sigit", "mov"])
def test_verify_sigit_and_mov_check_q_against_sigma(capsys, identity):
    argv = ["verify", identity, "--ring", "Z", "--sigma", "x-1"]
    assert main(argv + ["--q", "2"]) == 3
    assert capsys.readouterr() == ("", "error: sigma gives q = 1, which disagrees with q = 2\n")
    # a q that sigma cannot give, since it is not affine
    assert main(["verify", identity, "--ring", "Z", "--sigma", "x^2", "--q", "1"]) == 3
    assert capsys.readouterr() == ("", "error: sigma is not affine on the generator\n")
    code, out = run_cli(capsys, argv + ["--q", "1"])
    assert code == 0 and " q=1 " in out and "failures=0" in out


@pytest.mark.parametrize("identity, cases", [("sigmaen", 38), ("sigit", 160)])
def test_verify_sigma_fixes_q_on_a_ring_with_a_generator(capsys, identity, cases):
    # without --q, the ring's generator t is not taken as q when --sigma gives q = 1
    code, out = run_cli(capsys, ["verify", identity, "--ring", "Z[t]", "--sigma", "x-1"])
    assert code == 0
    assert out.startswith(f"identity={identity} ring=Z[t] cases={cases} failures=0 ")
    code, out = run_cli(capsys, ["verify", identity, "--ring", "Z[t]", "--sigma", "x-1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] is None and payload["report"]["q"] is None
    assert payload["report"]["cases"] == cases


def test_verify_sigmaen_records_a_wrong_orbit_as_a_counterexample(capsys, monkeypatch):
    # sigma^n(x) from iteration is compared with the closed form case by case,
    # so a disagreement is a counterexample (exit 1), not an internal error
    sigma_iter = TwistedAlgebra.sigma_iter

    def off_at_two(self, f, k):
        out = sigma_iter(self, f, k)
        return out + 1 if k == 2 else out

    monkeypatch.setattr(TwistedAlgebra, "sigma_iter", off_at_two)
    code, out = run_cli(capsys, ["verify", "sigmaen", "--ring", "Z", "--sigma", "x-1"])
    assert code == 1
    assert "cases=38 failures=3" in out
    assert "FAIL n=2 lhs=-1 + x rhs=-2 + x" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sigmaen", "--ring", "Z", "--q", "2", "--sigma", "2*x-1", "--h", "5"],
         "--sigma fixes q and h, so --h cannot be given with it"),
        (["frobenius", "--ring", "Z/5", "--q", "2", "--sigma", "x+1"], "identity frobenius does not read --sigma"),
        (["artin_schreier", "--ring", "Z/5", "--sigma", "x+1"], "identity artin_schreier does not read --sigma"),
        (["pascal", "--ring", "Z[t]", "--h", "2"], "identity pascal does not read --h"),
        (["sign_rule", "--ring", "Cyclo(3)", "--h", "2", "--json"], "identity sign_rule does not read --h"),
    ],
)
def test_verify_rejects_sigma_and_h_it_would_drop(capsys, argv, message):
    assert main(["verify"] + argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sigmaen", "--ring", "Z", "--q", "2", "--h", "5"],
        ["sigit", "--ring", "Z/5", "--q", "2", "--h", "3"],
        ["mov", "--ring", "Z/5", "--q", "2", "--h", "3"],
        ["artin_schreier", "--ring", "Z/5", "--h", "3"],
        ["mov", "--ring", "Z", "--sigma", "x-1"],
    ],
)
def test_verify_sigma_and_h_still_reach_the_identities_that_read_them(capsys, argv):
    code, out = run_cli(capsys, ["verify"] + argv)
    assert code == 0
    assert "failures=0" in out


@pytest.mark.parametrize("identity", ["even", "qbin_vanish", "lucas", "frobenius"])
@pytest.mark.parametrize(
    "ring, q, message",
    [
        ("Z/8", "3", "ring is not q-flat"),
        # neither hypothesis holds: finiteness of the characteristic is checked first
        ("Z/12", "2", "quantum characteristic is 0 (certified), need finite"),
    ],
)
def test_verify_gate_is_flat_with_finite_characteristic(capsys, identity, ring, q, message):
    assert main(["verify", identity, "--ring", ring, "--q", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"hypotheses unmet: {message}\n"


def test_verify_artin_schreier_refuses_a_characteristic_above_the_cap(capsys, monkeypatch):
    # its work grows about as p^2, and its p is the characteristic of the ring
    def refuse(*args):
        raise AssertionError("started work that grows with p")

    monkeypatch.setattr(cli, "twisted_power", refuse)
    for p in (257, 1000003):
        assert main(["verify", "artin_schreier", "--ring", f"Z/{p}"]) == 3
        err = capsys.readouterr().err
        assert err == f"error: characteristic p = {p} is above the cap VERIFY_MAX_P = {cli.VERIFY_MAX_P}\n"
    monkeypatch.undo()
    # 251 is the largest prime under the cap
    code, out = run_cli(capsys, ["verify", "artin_schreier", "--ring", "Z/251"])
    assert code == 0 and "cases=1 failures=0" in out


@pytest.mark.parametrize("identity", ["divp", "qbin_vanish", "lucas", "frobenius", "sign_rule"])
def test_verify_refuses_a_quantum_characteristic_above_the_cap(capsys, monkeypatch, identity):
    def refuse(*args):
        raise AssertionError("started work that grows with p")

    monkeypatch.setattr(cli, "q_binomial", refuse)
    monkeypatch.setattr(cli, "q_state", refuse)
    monkeypatch.setattr(cli, "twisted_power", refuse)
    # ord(3) in Z/1000003 is 333334, and (333334)_3 = 0
    assert main(["verify", identity, "--ring", "Z/1000003", "--q", "3"]) == 3
    err = capsys.readouterr().err
    assert f"p = 333334 is above the cap VERIFY_MAX_P = {cli.VERIFY_MAX_P}" in err
    assert "Traceback" not in err


def test_verify_even_squares_at_a_large_quantum_characteristic(capsys, monkeypatch):
    cached_power = QContext.q_power

    def small_power(ctx, k):
        if abs(k) > cli.VERIFY_MAX_P:
            raise AssertionError(f"filled the power cache up to q^{k}")
        return cached_power(ctx, k)

    monkeypatch.setattr(QContext, "q_power", small_power)
    # 5 is a primitive root of Z/1000000007, so p = 1000000006 and q^(p/2) = -1
    code, out = run_cli(capsys, ["verify", "even", "--ring", "Z/1000000007", "--q", "5", "--bound", "10000000000"])
    assert code == 0 and "cases=1 failures=0" in out


def test_verify_at_the_cap_runs(capsys):
    # 3 is a primitive root of Z/257, so p = 256
    assert cli.VERIFY_MAX_P == 256
    code, out = run_cli(capsys, ["verify", "qbin_vanish", "--ring", "Z/257", "--q", "3"])
    assert code == 0 and "cases=263 failures=0" in out


# a cheap configuration of each identity in which every case holds
_CHEAP = {"n_max": 4, "k_max": 2, "m_max": 4, "nm_max": 4, "r_max": 1, "trials": 2}
_GREEN = {
    "pascal": ("Z[t]", None),
    "explicit": ("Q(t)", None),
    "addmul": ("Z[i]", "i"),
    "divp": ("Cyclo(6)", None),
    "even": ("Cyclo(4)", None),
    "prim": ("Cyclo(5)", None),
    "qbin_vanish": ("Cyclo(4)", None),
    "symmetry": ("Z[t]", None),
    "transitivity": ("Z[t]", None),
    "chu_vandermonde": ("Z[t]", None),
    "lucas": ("Cyclo(3)", None),
    "binomial_formula": ("Z[t]", None),
    "cyclo_int": ("Z[t]", None),
    "cyclo_fact": ("Z[t]", None),
    "cyclo_binom": ("Z[t]", None),
    "rational_state": ("Q(t^(1/2))", None),
    "sigmaen": ("Q(t)", None),
    "sigit": ("Z/5", "2"),
    "mov": ("Z/5", "2"),
    "twisted_binomial": ("Z[q]", "q"),
    "frobenius": ("Cyclo(2)", None),
    "artin_schreier": ("Z/2", None),
    "sign_rule": ("Cyclo(3)", None),
}


def _green(name):
    """Ring, q and the cheap ranges the identity declares, for its green configuration."""
    spec, q_text = _GREEN[name]
    ring = parse_ring(spec)
    q = parse_element(ring, q_text) if q_text else ring.generator
    return ring, q, {k: v for k, v in _CHEAP.items() if k in cli.IDENTITIES[name][1]}


def test_verify_every_identity_has_a_green_configuration():
    # minimal exercise of the whole catalog through the public runner
    from qarith.cli import IDENTITIES

    assert set(_GREEN) == set(IDENTITIES)
    for name in _GREEN:
        report = run_identity(name, *_green(name))
        assert report.failures == [], name
        assert report.cases > 0 or name in ("even", "prim"), name


# a value for each verify option, all past argparse
_OPTION_VALUES = {**{k: "1" for k in cli._RANGES}, "q": "1", "sample": "1", "seed": "1", "sigma": "x+1", "h": "1"}


@pytest.mark.parametrize("name", sorted(cli.IDENTITIES))
def test_verify_reads_exactly_the_options_each_identity_declares(capsys, name):
    _, ranges, reads = cli.IDENTITIES[name]
    spec, q_text = _GREEN[name]
    argv = ["verify", name, "--ring", spec] + (["--q", q_text] if q_text else [])
    for option, value in _OPTION_VALUES.items():
        if option not in ranges and option not in reads:
            flag = "--" + option.replace("_", "-")
            assert main(argv + [flag, value]) == 3, flag
            assert capsys.readouterr() == ("", f"error: identity {name} does not read {flag}\n")
    # each declared range, and --sample, reaches the case loop
    ring, q, cheap = _green(name)
    cases = run_identity(name, ring, q, ranges=cheap).cases
    for k in ranges:
        assert run_identity(name, ring, q, ranges={**cheap, k: cheap[k] + 1}).cases != cases, k
    if "sample" in reads:
        assert run_identity(name, ring, q, ranges=cheap, sample=1).cases != cases


def test_verify_sampling_is_deterministic():
    ring = parse_ring("Z[t]")
    a = run_identity("symmetry", ring, ring.generator, ranges={"n_max": 12}, sample=4, seed=9)
    b = run_identity("symmetry", ring, ring.generator, ranges={"n_max": 12}, sample=4, seed=9)
    assert a.cases == b.cases


def test_verify_json_shape(capsys):
    argv = ["verify", "lucas", "--ring", "Cyclo(3)", "--json"]
    code, out1 = run_cli(capsys, argv)
    assert code == 0
    code, out2 = run_cli(capsys, argv)
    assert out1 == out2  # no timestamps, stable ordering
    payload = json.loads(out1)
    assert payload["op"] == "verify"
    assert payload["report"]["cases"] > 0
    assert payload["report"]["failures"] == []


def test_failure_report_exit_code():
    report = VerificationReport(
        identity="explicit",
        ring="Z",
        q="1",
        ranges={},
        cases=1,
        failures=[CaseFailure({"m": 1}, "1", "2")],
        seconds=0.0,
    )
    assert report.exit_code == 1
    text = report.render_text()
    assert "FAIL" in text and "m=1" in text
    payload = report.to_json_payload()
    assert payload["failures"][0]["inputs"] == {"m": "1"}


# --- tables -------------------------------------------------------------------


def test_gauss_triangle_table(capsys):
    code, out = run_cli(capsys, ["table", "gauss_triangle", "--n-max", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,polynomial"
    assert lines[-1] == '4,2,"1 + t + 2*t^2 + t^3 + t^4"'


def test_qstate_orbit_table(capsys):
    code, out = run_cli(capsys, ["table", "qstate_orbit", "--ring", "Z/5", "--q", "2", "--m-max", "8"])
    assert code == 0
    values = [line.split(",")[1].strip('"') for line in out.splitlines()[1:]]
    assert values == ["0", "1", "3", "2", "0", "1", "3", "2", "0"]


def test_cyclo_factors_table(capsys):
    code, out = run_cli(capsys, ["table", "cyclo_factors", "--n", "6"])
    assert code == 0
    assert out.splitlines()[-1] == '6,"2,3,6"'


def test_table_json_stable(capsys):
    argv = ["table", "cyclo_factors", "--n", "6", "--json"]
    _, out1 = run_cli(capsys, argv)
    _, out2 = run_cli(capsys, argv)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["result"][-1] == [6, "2,3,6"]


def test_usage_error_exit_code(capsys):
    assert main(["table", "unknown_kind"]) == 3
    assert main(["qbinom", "--ring", "Z[t]"]) == 3  # missing positionals
    # counts are non-negative integers
    assert main(["qchar", "--ring", "Z/8", "--q", "3", "--bound", "-5"]) == 3
    assert "--bound: expected a non-negative integer, got '-5'" in capsys.readouterr().err
    assert main(["verify", "pascal", "--ring", "Z/5", "--q", "2", "--sample", "-1"]) == 3
    assert "--sample: expected a non-negative integer, got '-1'" in capsys.readouterr().err


def test_verify_never_passes_vacuously(capsys):
    # a negative range is a usage error, not an empty run
    assert main(["verify", "pascal", "--ring", "Z[t]", "--n-max", "-1"]) == 3
    assert "--n-max: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert main(["verify", "lucas", "--ring", "Cyclo(3)", "--n-max", "-2", "--k-max", "-1"]) == 3
    capsys.readouterr()
    # a run that checks no case verifies nothing, so it does not exit 0
    code, out = run_cli(capsys, ["verify", "pascal", "--ring", "Z[t]", "--n-max", "2", "--sample", "0"])
    assert code == 2
    assert "cases=0" in out
    assert main(["verify", "pascal", "--ring", "Z[t]", "--n-max", "0"]) == 0


def test_table_rejects_options_its_kind_does_not_read(capsys):
    assert main(["table", "gauss_triangle", "--ring", "garbage"]) == 3
    assert "table gauss_triangle does not take --ring" in capsys.readouterr().err
    for argv in (
        ["table", "gauss_triangle", "--q", "2"],
        ["table", "gauss_triangle", "--m-max", "3"],
        ["table", "cyclo_factors", "--n-max", "3"],
        ["table", "qstate_orbit", "--ring", "Z/5", "--n", "3"],
        ["table", "gauss_triangle", "--n-max", "-1"],
    ):
        assert main(argv) == 3, argv
        assert capsys.readouterr().out == ""
    # the option sets each kind declares still work, in text and JSON
    assert main(["table", "qstate_orbit", "--ring", "Z/5", "--q", "2", "--m-max", "3", "--json"]) == 0
    assert main(["table", "cyclo_factors", "--n", "4", "--json"]) == 0


def test_run_identity_rejects_negative_sample():
    ring = parse_ring("Z/5")
    with pytest.raises(DomainError):
        run_identity("pascal", ring, ring.from_int(2), sample=-1)


def test_rational_states_take_q_as_the_carriers_t(capsys):
    assert main(["qrat", "--ring", "Q(t^(1/2))", "--q", "t^2", "1/2"]) == 1
    message = "rational states in Q(t^(1/2)) are taken at q = t, not q = t^2"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert run_cli(capsys, ["qrat", "--ring", "Q(t^(1/2))", "--q", "t", "1/2"]) == (0, "1/(1 + t^(1/2))")
    assert main(["verify", "rational_state", "--ring", "Q(t^(1/2))", "--q", "t^2"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    code, out = run_cli(capsys, ["verify", "rational_state", "--ring", "Q(t^(1/2))", "--q", "t", "--r-max", "1"])
    assert code == 0 and out.startswith("identity=rational_state ring=Q(t^(1/2)) q=t ")


def test_rational_states_keep_the_carriers_variable(capsys):
    ring = parse_ring("Q(s^(1/2))")
    assert cli._carrier_system(ring, ring.generator).ctx.ring == ring
    code, out = run_cli(capsys, ["qrat", "--ring", "Q(s^(1/2))", "--json", "1/2"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["q"], payload["result"]) == ("s", "1/(1 + s^(1/2))")
    code, out = run_cli(capsys, ["verify", "rational_state", "--ring", "Q(s^(1/2))", "--r-max", "1"])
    assert code == 0 and "failures=0" in out


def test_verify_artin_schreier_reads_no_q(capsys):
    # its case loop never reads q: a given --q is refused, and no default q is echoed
    assert main(["verify", "artin_schreier", "--ring", "Z/5", "--q", "3"]) == 3
    assert capsys.readouterr() == ("", "error: identity artin_schreier does not read --q\n")
    code, out = run_cli(capsys, ["verify", "artin_schreier", "--ring", "Z/2[X]/(X^2-1)"])
    assert code == 0 and out.startswith("identity=artin_schreier ring=Z/2[X]/(1 + X^2) cases=4 ")
    code, out = run_cli(capsys, ["verify", "artin_schreier", "--ring", "Z/2[X]/(X^2-1)", "--json"])
    payload = json.loads(out)
    assert code == 0 and payload["q"] is None and payload["report"]["q"] is None


@pytest.mark.parametrize("r", ["1/0", "abc"])
def test_qrat_malformed_rational_is_an_error(capsys, r):
    assert main(["qrat", "--ring", "Q(t)", r]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: expected a rational like 2/3 or -1/2, got {r!r}\n"


def test_qrat_json_echoes_the_rational_as_typed(capsys):
    code, out = run_cli(capsys, ["qrat", "--ring", "Q(t^(1/6))", "--json", "4/6"])
    assert code == 0
    assert json.loads(out)["args"] == {"r": "4/6"}


# --- in-process reuse -----------------------------------------------------------


def test_parser_is_built_once(monkeypatch, capsys):
    seen = []
    parse_args = cli._ArgParser.parse_args

    def spy(self, *args, **kwargs):
        seen.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgParser, "parse_args", spy)
    assert main(["qint", "--ring", "Z[t]", "3"]) == 0
    assert main(["table", "cyclo_factors"]) == 0
    assert len(seen) == 2 and seen[0] is seen[1]


def test_calls_in_one_process_share_no_state(capsys):
    assert main(["qbinom", "--ring", "Z[t]"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "the following arguments are required: n, k" in captured.err
    assert main(["qbinom", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: qarith qbinom") and captured.err == ""
    assert main(["qbinom", "--ring", "Z[t]", "4", "2"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("1 + t + 2*t^2 + t^3 + t^4\n", "")


def test_verify_seed_falls_back_to_default(capsys):
    ring = parse_ring("Z[t]")
    cases = {seed: run_identity("symmetry", ring, ring.generator, sample=3, seed=seed).cases for seed in (0, 5)}
    assert cases[0] != cases[5]
    argv = ["verify", "symmetry", "--ring", "Z[t]", "--sample", "3", "--json"]
    for extra, seed in ((["--seed", "5"], 5), ([], 0)):
        code, out = run_cli(capsys, argv + extra)
        assert code == 0
        assert json.loads(out)["report"]["cases"] == cases[seed]


def test_table_option_falls_back_to_default(capsys):
    _, out = run_cli(capsys, ["table", "gauss_triangle", "--n-max", "2"])
    assert out.splitlines()[-1] == '2,1,"1 + t"'
    _, out = run_cli(capsys, ["table", "gauss_triangle"])
    assert out.splitlines()[-1] == '4,2,"1 + t + 2*t^2 + t^3 + t^4"'


def test_import_builds_no_parser():
    code = (
        "import argparse, gc, qarith.cli\n"
        "print(sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects()))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_python_dash_m_runs_the_cli():
    proc = run_python("-m", "qarith", "qint", "--ring", "Z[t]", "3")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.strip() == "1 + t + t^2"


def test_verify_cyclo_binom_is_independent_of_q_binomial(monkeypatch):
    # above the Pascal cap q_binomial reads [n, k]_t off the cyclotomic
    # product itself, so the identity must check that product against a
    # recursion of its own
    def unused(*args):
        raise AssertionError("cyclo_binom must not call q_binomial")

    monkeypatch.setattr(cli, "q_binomial", unused)
    ring = parse_ring("Cyclo(7)")
    report = run_identity("cyclo_binom", ring, ring.generator, ranges={"n_max": 30})
    # one product check per (n, k) and one floor check per (n, k, m), 2 <= m <= n
    assert report.cases == sum((n + 1) * max(n, 1) for n in range(31))
    assert report.exit_code == 0


_HUGE = "9" * 5000  # past CPython's default int/str limit of 4300 digits


@pytest.mark.parametrize(
    "argv",
    [
        ["qint", "--ring", f"Z/{_HUGE}", "5"],
        ["qint", "--ring", f"Z/{_HUGE}[X]/(X^2+1)", "5"],
        ["qint", "--ring", f"Cyclo({_HUGE})", "5"],
        ["qint", "--ring", f"Q(t^(1/{_HUGE}))", "5"],
        ["qint", "--ring", "Z", "--q", _HUGE, "5"],
    ],
    ids=["Z/n", "Z/n[X]/(mu)", "Cyclo(n)", "Q(t^(1/L))", "--q"],
)
def test_overlong_integer_literal_is_a_parse_error(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "integer literal of 5000 digits is too long" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["qint", "--ring", "Z", "--q", "10", "5000"],
        ["qint", "--ring", "Q", "--q", "10", "5000"],
        ["qbinom", "--ring", "Q", "--q", "2", "400", "200"],
        ["qint", "--ring", "Q(t)", "--q", "10", "5000"],
        ["qint", "--ring", "Z[i]", "--q", "10", "5000"],
        ["qint", "--ring", "Z", "--q", "10^5000", "2", "--json"],
    ],
    ids=["qint Z", "qint Q", "qbinom Q", "qint Q(t)", "qint Z[i]", "--json q"],
)
def test_result_past_the_digit_limit_is_an_error(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"more than {sys.get_int_max_str_digits()} digits" in err


@pytest.mark.parametrize("ring", ["Z[t]", "Q(t^(1/6))"])
def test_zero_exponent_denominator_is_a_parse_error(capsys, ring):
    assert main(["qint", "--ring", ring, "--q", "t^(1/0)", "3"]) == 1
    err = capsys.readouterr().err
    assert "zero denominator in exponent (at position 5)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "n, phi",
    [(1000003, "= 1000002"), (1031, "= 1030"), (10**30 + 57, f">= {math.isqrt((10**30 + 57) // 2)}")],
)
def test_cyclo_above_the_phi_cap_is_refused_before_building(capsys, monkeypatch, n, phi):
    def refuse(n):
        raise AssertionError(f"built Cyclo({n})")

    monkeypatch.setattr(cli, "CyclotomicRing", refuse)
    assert main(["qint", "--ring", f"Cyclo({n})", "3"]) == 1
    err = capsys.readouterr().err
    assert f"phi(n) {phi} is above the cap CYCLO_MAX_PHI = {cli.CYCLO_MAX_PHI}" in err
    assert "Traceback" not in err


def test_cyclo_at_the_phi_cap_is_accepted(capsys):
    # 1021 is the largest prime p with p - 1 <= 1024
    assert cli.CYCLO_MAX_PHI == 1024
    code, out = run_cli(capsys, ["qint", "--ring", "Cyclo(1021)", "3"])
    assert (code, out) == (0, "1 + t + t^2")
    assert parse_ring("Cyclo(4620)").p == 4620  # phi = 960, many prime factors
