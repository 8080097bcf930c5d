"""Q's normal form: an int when the value is integral, else a Fraction with
denominator > 1, from every operation; and inverses in quotients over Q."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith import QQ, parse_element, parse_ring

fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


def _normal_type(value):
    return int if Fraction(value).denominator == 1 else Fraction


@settings(max_examples=300, deadline=None)
@given(fractions, fractions)
def test_payloads_are_ints_exactly_when_integral(x, y):
    a, b = QQ.element(x), QQ.element(y)
    results = {
        "normalize": (QQ.normalize(x), x),
        "add": ((a + b).payload, x + y),
        "mul": ((a * b).payload, x * y),
        "sub": ((a - b).payload, x - y),
        "neg": ((-a).payload, -x),
        "from_int": (QQ.from_int(x.numerator).payload, Fraction(x.numerator)),
    }
    if x:
        results["inverse"] = (a.inverse().payload, 1 / x)
    for op, (got, want) in results.items():
        assert got == want, op
        assert type(got) is _normal_type(want), op


def test_parsed_and_random_elements_are_in_normal_form():
    q = parse_ring("Q")
    for text, want in (("4/2", 2), ("-6/3", -2), ("3/6", Fraction(1, 2)), ("(1/2)^-2", 4)):
        got = parse_element(q, text).payload
        assert got == want and type(got) is _normal_type(want), text
    assert type(QQ.zero.payload) is type(QQ.one.payload) is int
    rng = random.Random(3)
    for _ in range(300):
        p = QQ.random_element(rng).payload
        assert type(p) is _normal_type(p)


def test_integral_fraction_and_int_give_one_element():
    two = QQ.element(Fraction(4, 2))
    assert two == QQ.from_int(2) == QQ.element(2)
    assert hash(two) == hash(QQ.from_int(2))
    assert len({two, QQ.from_int(2), QQ.element(Fraction(2))}) == 1
    assert str(two) == "2" and str(QQ.element(Fraction(-4, 6))) == "-2/3"


# (ring, element, its text, text of the inverse or None), recorded before Q
# kept integral values as ints
PINNED_INVERSES = [
    ("Q[X]/(X^2+1)", "X", "X", "-X"),
    ("Q[X]/(X^2+1)", "1+X", "1 + X", "1/2 - 1/2*X"),
    ("Q[X]/(X^2+1)", "2 + 13/11*X", "2 + 13/11*X", "242/653 - 143/653*X"),
    ("Q[X]/(X^2+1)", "2/3 + 4*X", "2/3 + 4*X", "3/74 - 9/37*X"),
    ("Q[X]/(X^2+1)", "3/8 - 3/11*X", "3/8 - 3/11*X", "968/555 + 704/555*X"),
    ("Q[X]/(X^2+1)", "15 + 19/3*X", "15 + 19/3*X", "135/2386 - 57/2386*X"),
    ("Q[X]/(X^2+1)", "-7 + 4*X", "-7 + 4*X", "-7/65 - 4/65*X"),
    ("Q[X]/(X^2+1)", "-16/9 + 1/11*X", "-16/9 + 1/11*X", "-17424/31057 - 891/31057*X"),
    ("Q[X]/(X^3-2)", "X", "X", "1/2*X^2"),
    ("Q[X]/(X^3-2)", "4/2", "2", "1/2"),
    ("Q[X]/(X^3-2)", "1-X", "1 - X", "-1 - X - X^2"),
    ("Q[X]/(X^3-2)", "2 + 13/11*X + 2/3*X^2", "2 + 13/11*X + 2/3*X^2",
     "43560/54479 - 26499/54479*X + 2277/108958*X^2"),
    ("Q[X]/(X^3-2)", "4 + 3/8*X - 3/11*X^2", "4 + 3/8*X - 3/11*X^2",
     "5521472/22651745 - 460416/22651745*X + 419628/22651745*X^2"),
    ("Q[X]/(X^3-2)", "19/3 + 4/3*X - 5/3*X^2", "19/3 + 4/3*X - 5/3*X^2",
     "1203/8767 - 78/8767*X + 333/8767*X^2"),
    ("Q[X]/(X^3-2)", "1/11 + 5/2*X - 19*X^2", "1/11 + 5/2*X - 19*X^2",
     "-168608/48588315 - 1280906/48588315*X - 4719/16196105*X^2"),
    ("Q[X]/(X^3-2)", "7/3 + 7/3*X + 19/9*X^2", "7/3 + 7/3*X + 19/9*X^2",
     "-3213/4945 + 2529/4945*X + 378/4945*X^2"),
    ("Q[X]/(X^2-1)", "1+X", "1 + X", None),
    ("Q[X]/(X^2-1)", "2*X", "2*X", "1/2*X"),
]


@pytest.mark.parametrize("spec, text, shown, inverse", PINNED_INVERSES)
def test_pinned_quotient_inverses(spec, text, shown, inverse):
    ring = parse_ring(spec)
    a = parse_element(ring, text)
    assert str(a) == shown
    inv = a.try_invert()
    assert (None if inv is None else str(inv)) == inverse
    if inv is not None:
        assert a * inv == ring.one
        assert all(type(c) is _normal_type(c) for c in inv.payload)
