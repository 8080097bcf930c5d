"""lcm-closed denominator sets and the covered sub-grid of induced root systems."""

import functools
import math
from fractions import Fraction
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith import (
    DenominatorNotCoveredError,
    ModularRing,
    QContext,
    build_root_system,
    close_denominators,
    induced_root_system,
    standard_root_system,
)

# every lcm of a subset divides 72, so the carrier Q(t^(1/L)) stays small
POOL = (1, 2, 3, 4, 6, 8, 9, 12)


@functools.lru_cache(maxsize=None)
def _standard(denominators):
    return standard_root_system(denominators)


def _z13_system():
    # q = 3 in Z/13 with q_4 = 2 (2^4 = 16 = 3): the closure {1, 4} is
    # lcm-closed but not closed under divisors
    z13 = ModularRing(13)
    return build_root_system(QContext(z13, z13.from_int(3)), {1, 4}, {4: z13.from_int(2)})


systems = st.one_of(
    st.frozensets(st.sampled_from(POOL), min_size=1).map(_standard),
    st.just(standard_root_system({1, 4})),
    st.just(_z13_system()),
)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(1, 60), min_size=1, max_size=6))
def test_closure_is_every_lcm_of_a_subset(denominators):
    ds = close_denominators(denominators)
    ordered = sorted(denominators)
    brute = {math.lcm(*s) for k in range(len(ordered) + 1) for s in combinations(ordered, k)}
    assert ds.closure == tuple(sorted(brute))
    assert ds.generator == math.lcm(*denominators)
    assert ds.denominators == frozenset(denominators)


@settings(max_examples=150, deadline=None)
@given(systems, st.data())
def test_induced_closure_is_the_covered_subgrid(sys_, data):
    closure = sys_.dset.closure
    r1 = Fraction(data.draw(st.integers(-8, 12)), data.draw(st.sampled_from(closure)))
    covered = {n for n in closure if any((r1 / n * c).denominator == 1 for c in closure)}
    induced = induced_root_system(sys_, r1)
    assert set(induced.dset.closure) == covered
    assert all(math.lcm(a, b) in covered for a in covered for b in covered)
    assert induced.dset.generator == math.lcm(*covered)


def test_uncovered_exponent_has_no_induced_system():
    with pytest.raises(DenominatorNotCoveredError):
        induced_root_system(_z13_system(), Fraction(1, 8))
