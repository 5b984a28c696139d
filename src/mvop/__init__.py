"""Exact construction and verification of matrix-valued discrete orthogonal
polynomials: coupled Charlier/Meixner/Krawtchouk/Hahn weights, their
difference operators, three-term recurrences, and the limit transitions
between families."""

from .construction import (
    A_PROBES,
    TAU_PROBES,
    FamilySpec,
    GramMatrix,
    family_spec_from_json,
    inner_product,
    needs_mass_probe,
    norm_ratio,
    orthogonal_polynomial,
    relative_gram_bound,
    weight_matrix,
)
from .errors import ProbeError, SpecError, TruncationError
from .families import (
    Charlier,
    Hahn,
    Hermite,
    Krawtchouk,
    Laguerre,
    Mass,
    Meixner,
    NormValue,
    ScalarOperator,
    monic_polynomial,
    squared_norm,
    weight_spec_from_json,
)
from .limits import (
    ConvergenceReport,
    TransitionSpec,
    continuous_target,
    run_transition,
    transition_spec_from_json,
)
from .operators import (
    DifferenceOperator,
    EigenvalueMap,
    RecurrenceTriple,
    canonical_operator,
    conjugated_operator,
    extract_recurrence,
)
from .poly import MatrixPoly, ScalarPoly
from .quadext import QuadExt
from .rational import format_rational, rational
from .verification import VerificationReport, run_verification, verify_eigenfunction

__version__ = "0.1.0"

__all__ = [
    "A_PROBES",
    "TAU_PROBES",
    "Charlier",
    "ConvergenceReport",
    "DifferenceOperator",
    "EigenvalueMap",
    "FamilySpec",
    "GramMatrix",
    "Hahn",
    "Hermite",
    "Krawtchouk",
    "Laguerre",
    "Mass",
    "MatrixPoly",
    "Meixner",
    "NormValue",
    "ProbeError",
    "QuadExt",
    "RecurrenceTriple",
    "ScalarOperator",
    "ScalarPoly",
    "SpecError",
    "TransitionSpec",
    "TruncationError",
    "VerificationReport",
    "canonical_operator",
    "conjugated_operator",
    "continuous_target",
    "extract_recurrence",
    "family_spec_from_json",
    "format_rational",
    "inner_product",
    "monic_polynomial",
    "needs_mass_probe",
    "norm_ratio",
    "orthogonal_polynomial",
    "rational",
    "relative_gram_bound",
    "run_transition",
    "run_verification",
    "squared_norm",
    "transition_spec_from_json",
    "verify_eigenfunction",
    "weight_matrix",
    "weight_spec_from_json",
]
