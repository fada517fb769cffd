"""Ideal families with extremal projective dimension and regularity.

Construction of the parametrized families, socle-based depth-zero
verification, Groebner bases, Hilbert series, and minimal graded free
resolutions with Betti tables.

The resolution layer (``idealfam.resolution`` and the ten names below
that it defines) loads on first use.  Only Betti tables need it, and a
process that never resolves, such as the ``pd``, ``construct``, ``verify``
and ``sweep`` commands, then never compiles it: where no bytecode cache is
written, every fresh import compiles the source again.
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

__version__ = "0.1.0"

_RESOLUTION_EXPORTS = frozenset({
    "BettiTable",
    "FreeResolution",
    "GradedFreeModule",
    "PresentationMatrix",
    "hilbert_crosscheck",
    "minimal_free_resolution",
    "pd_of",
    "reg_of",
    "resolve",
    "schreyer_resolution",
})


def __getattr__(name):
    if name != "resolution" and name not in _RESOLUTION_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``from . import resolution`` would recurse: it asks this hook first.
    from importlib import import_module

    module = import_module(".resolution", __name__)
    globals().update({n: getattr(module, n) for n in _RESOLUTION_EXPORTS}, resolution=module)
    return globals()[name]


def __dir__():
    return sorted(globals().keys() | _RESOLUTION_EXPORTS | {"resolution"})


# ``from idealfam import *`` binds the resolution names too, through the hook.
__all__ = [name for name in __dir__() if not name.startswith("_")]
