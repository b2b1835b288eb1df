"""frobkit: exact linear algebra over finite fields and rationals.

Rank-one characteristic-polynomial updates, rational canonical forms, and
the conjugation geometry of triples (A, v, phi), all in exact arithmetic
with cross-checking algorithm pairs.
"""

from .errors import (
    AlgorithmDisagreement,
    ConfigError,
    DescriptorMismatch,
    DivisionByZero,
    EvenCharacteristicUnsupported,
    FrobkitError,
    LengthMismatch,
    NonInvertibleDenominator,
    NotCoprime,
    NotFiniteField,
    NotIrreducible,
    NotMonic,
    NotSquare,
    ParseError,
    ShapeMismatch,
    TooLargeForExhaustive,
)
from .fields import GF, QQ, ExtensionField, Field, FieldElem, PrimeField, RationalField
from .poly import (
    Poly,
    RationalFunction,
    factor,
    is_irreducible,
    poly_gcd,
    poly_lcm,
    squarefree_decomposition,
)
from .matrix import (
    Mat,
    SolveResult,
    block_diag,
    charpoly,
    charpoly_berkowitz,
    coeffs_from_charpoly,
    col_vector,
    commutator,
    det,
    inverse,
    kernel_basis,
    minimal_polynomial,
    outer,
    poly_at_matrix,
    poly_from_coeffs,
    principal_minor_sums,
    rank,
    row_vector,
    solve_linear,
    unit_col,
    unit_row,
)
from .rankone import (
    MomentSequence,
    UpdateReport,
    faddeev_chain,
    moments,
    nonzero_corner_conjugator,
    update_coefficients,
    update_report,
)
from .canonical import (
    ElementaryDivisorForm,
    FrobeniusForm,
    centralizer_dimension,
    companion,
    elementary_divisor_form,
    frobenius_form,
    orbit_dimension,
    smith_invariant_factors,
    transpose_conjugator,
)
from .triples import (
    CommutatorRangeCertificate,
    EquivalenceReport,
    Filtration,
    GroupElement,
    MomentNullCertificate,
    Triple,
    act,
    commutator_range,
    direct_sum_check,
    equivalence_report,
    filtration,
    filtration_union_check,
    moment_vanishing,
    pairing,
    rank_one_shift,
    triple_charpoly,
    twist,
)
from .census import ClassRow, classes_with_charpoly, orbit_stats
from .verify import Report, SuiteResult, VerifyConfig, render_report, run_verify

__version__ = "0.1.0"
