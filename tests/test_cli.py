"""CLI: grammar round-trips, eval commands, verify exit codes, tables, JSON."""

import json
import random

import pytest

from qarith import DomainError, ParseError, parse_element, parse_ring
from qarith import cli
from qarith.cli import CaseFailure, VerificationReport, main, run_identity
from conftest import RING_SPECS, run_python


# --- parsing -------------------------------------------------------------------


@pytest.mark.parametrize("spec", RING_SPECS)
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


def test_tpow_and_expand(capsys):
    code, out = run_cli(capsys, ["tpow", "--ring", "Q", "--sigma", "x-1", "3"])
    assert (code, out) == (0, "2*x - 3*x^2 + x^3")
    code, out = run_cli(capsys, ["expand", "--ring", "Q", "--sigma", "x-1", "x^2"])
    assert (code, out) == (0, "1: 1\n2: 1")


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


def test_verify_every_identity_has_a_green_configuration():
    # minimal exercise of the whole catalog through the public runner
    cheap = {"n_max": 4, "k_max": 2, "m_max": 4, "nm_max": 4, "r_max": 1, "trials": 2}
    configs = {
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
    from qarith.cli import IDENTITIES

    assert set(configs) == set(IDENTITIES)
    for name, (spec, q_text) in configs.items():
        ring = parse_ring(spec)
        q = parse_element(ring, q_text) if q_text else ring.generator
        report = run_identity(name, ring, q, ranges=cheap)
        assert report.failures == [], name
        assert report.cases > 0 or name in ("even", "prim"), name


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
