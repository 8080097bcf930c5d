import os
import subprocess
import sys
from pathlib import Path

import pytest

from qarith import (
    ZI,
    ZZ,
    CyclotomicRing,
    ModularRing,
    PolynomialRing,
    QContext,
    RationalFunctionField,
)

RING_SPECS = [
    "Z",
    "Q",
    "Z/8",
    "Z/12",
    "Z[i]",
    "Z[t]",
    "Z[t,1/t]",
    "Q(t)",
    "Cyclo(4)",
    "Cyclo(12)",
    "Z/2[X]/(X^2-1)",
    "Z/4[X]/(X^3-1)",
    "Q[X]/(X^2-1)",
    "Q(t^(1/6))",
]


def fleet_contexts(modulus_max=12, cyclo_max=12):
    """The identity-suite fleet: every q in Z/n for n <= 12, plus the generic
    and cyclotomic carriers with their distinguished q."""
    out = []
    for n in range(2, modulus_max + 1):
        ring = ModularRing(n)
        for a in range(n):
            out.append(QContext(ring, ring.from_int(a)))
    zt = PolynomialRing(ZZ, "t")
    out.append(QContext(zt, zt.generator))
    qt = RationalFunctionField("t")
    out.append(QContext(qt, qt.generator))
    out.append(QContext(ZI, ZI.generator))
    for p in range(2, cyclo_max + 1):
        ring = CyclotomicRing(p)
        out.append(QContext(ring, ring.generator))
    return out


def run_python(*args):
    """Run a fresh interpreter that imports qarith from this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


@pytest.fixture(scope="session")
def fleet():
    return fleet_contexts()
