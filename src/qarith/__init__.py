"""Exact arithmetic for q-analogs over pluggable coefficient rings.

Quantum integers, factorials and binomial coefficients in any supported ring;
quantum characteristic and flatness certification; cyclotomic factorizations;
q-states of rational numbers via compatible root systems; and twisted powers
under ring endomorphisms.  See the ``qarith`` CLI for the command-line surface.
"""

import importlib as _importlib

from .errors import (
    BasisUnavailableError,
    CompatibilityError,
    DenominatorNotCoveredError,
    DomainError,
    EigenvectorError,
    InternalError,
    NotAdmissibleError,
    NotInvertibleError,
    ParseError,
    QArithError,
    RingMismatchError,
    UnsupportedError,
)
from .rings import (
    ZZ,
    QQ,
    ZI,
    CyclotomicRing,
    GaussianRing,
    IntegerRing,
    LaurentRing,
    ModularRing,
    PolynomialRing,
    PuiseuxRing,
    QuotientRing,
    RationalField,
    RationalFunctionField,
    Ring,
    RingElement,
    enumerate_ring,
    is_zero_divisor,
    try_invert,
)
from .qnum import (
    CyclotomicEmbedding,
    CyclotomicObstruction,
    FlatnessCertificate,
    QCharResult,
    QContext,
    certify_flatness,
    embed_cyclotomic,
    q_binomial,
    q_characteristic,
    q_factorial,
    q_power_context,
    q_state,
    symmetric_binomial,
    symmetric_state,
)
from .cyclotomic import (
    cyclotomic_poly,
    eval_cyclotomic,
    evaluate_factors,
    factor_q_binomial,
    factor_q_factorial,
    factor_q_integer,
)
from .qrational import (
    DenominatorSet,
    RootSystem,
    build_root_system,
    close_denominators,
    induced_root_system,
    q_state_rational,
    rational_power,
    standard_root_system,
)
from .twisted import (
    TwistedAlgebra,
    TwistedBinomialReport,
    TwistedPowerBasis,
    affine_orbit,
    artin_schreier_check,
    assemble_from_twisted_basis,
    expand_in_twisted_basis,
    reduce_mod_twisted_ideal,
    twisted_binomial_check,
    twisted_power,
    twisted_power_compose,
    twisted_power_sign_check,
)

__version__ = "0.1.0"

# The command-line module imports argparse and the identity catalog; it is
# loaded on first use (PEP 562), so ``import qarith`` stays light and
# ``python -m qarith.cli`` does not find it imported already.
_CLI_NAMES = ("parse_element", "parse_ring", "run_identity")
__all__ = [name for name in globals() if not name.startswith("_")] + list(_CLI_NAMES)


def __getattr__(name):
    if name == "cli" or name in _CLI_NAMES:
        cli = _importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
