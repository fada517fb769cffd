"""Ideal families with extremal projective dimension and regularity.

Construction of the parametrized families, socle-based depth-zero
verification, Groebner bases, Hilbert series, and minimal graded free
resolutions with Betti tables.
"""

from .errors import (
    ArithmeticOverflowError,
    DomainMismatchError,
    IdealfamError,
    InternalError,
    NotDivisibleError,
    ParseError,
    ResourceLimitError,
    ValidationError,
)
from .ring import (
    Monomial,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    PrimeField,
    QQ,
    RationalField,
    VariableTable,
)
from .groebner import (
    GroebnerBasis,
    HilbertNumerator,
    IdealPresentation,
    buchberger,
    hilbert_numerator,
    is_member,
    normal_form,
    s_polynomial,
)
from .family import (
    DEFAULT_PRIME,
    DerivedConstants,
    ExponentMatrix,
    FamilyParams,
    LemmaReport,
    SocleReport,
    SubfamilyMatch,
    build_ideal,
    caviglia_ideal,
    caviglia_witness,
    derived_constants,
    enumerate_A,
    family_table,
    identify_subfamily,
    lemma_targets,
    mccullough_ideal,
    mccullough_witness,
    pd_formula,
    preset_many_generators,
    preset_three_generators,
    socle_witness,
    stage_count,
    variable_count,
    verification_basis,
    verification_degree,
    verify_lemma,
    verify_socle,
    verify_socle_ideal,
)
from .resolution import (
    BettiTable,
    FreeResolution,
    GradedFreeModule,
    PresentationMatrix,
    hilbert_crosscheck,
    minimal_free_resolution,
    pd_of,
    reg_of,
    resolve,
    schreyer_resolution,
    syzygies,
)

__version__ = "0.1.0"
