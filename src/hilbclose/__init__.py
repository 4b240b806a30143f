"""Exact Hilbert-Samuel coefficients of closure filtrations for monomial
ideals in affine semigroup rings."""

from .errors import (
    DimensionMismatchError,
    GenerationExhaustedError,
    HilbcloseError,
    NotMPrimaryError,
    NotStabilizedError,
    UncertifiedError,
    UnsupportedRingError,
)
from .hilbert import (
    CoefficientBundle,
    Filtration,
    FiltrationKind,
    HilbertReport,
    coefficient_report,
    fit_polynomial,
    length_sequence,
)
from .ideals import ParameterIdeal, nu_m_mod_q
from .lattice import AffineSemigroup, ExponentVector
from .theorems import (
    ChainVerdict,
    RingProfile,
    check_e1_zero_implies_cm,
    check_nonnegativity_chain,
    check_vanishing,
    fuzz_corpus,
    ring_profile,
    verify_instances,
)

__version__ = "0.1.0"
