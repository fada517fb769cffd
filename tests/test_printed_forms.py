"""Printed forms of the polynomial layer, pinned byte for byte.

Polynomials over F_p and QQ, Hilbert numerators and exponent matrices
print through one term printer and one matrix format; these pins hold
their text, and the error types bad exponents and bad matrices raise.
"""

from fractions import Fraction

import pytest

from idealfam import (
    ArithmeticOverflowError,
    ExponentMatrix,
    FamilyParams,
    HilbertNumerator,
    Monomial,
    PolynomialRing,
    PrimeField,
    QQ,
    ValidationError,
    VariableTable,
    build_ideal,
)
from idealfam.ring import EXPONENT_CAP

XYZ = VariableTable.named(["x", "y", "z"])

# (input text, str over F_101, str over QQ)
POLYNOMIALS = (
    ("3*x^2*y - z + 7", "3*x^2*y + 100*z + 7", "3*x^2*y - z + 7"),
    ("x*y + z^3", "z^3 + x*y", "z^3 + x*y"),
    ("5", "5", "5"),
    ("x - x", "0", "0"),
    ("-x + 1/3", "100*x + 34", "-x + 1/3"),
    ("-3/2*x^2 + y - 1", "49*x^2 + y + 100", "-3/2*x^2 + y - 1"),
    ("-7", "94", "-7"),
    ("x - y", "x + 100*y", "x - y"),
    ("-x^2*y*z + 2/5*y^3 - 1/4", "100*x^2*y*z + 61*y^3 + 25", "-x^2*y*z + 2/5*y^3 - 1/4"),
)


@pytest.mark.parametrize("text, over_fp, over_qq", POLYNOMIALS)
def test_polynomial_str_and_repr(text, over_fp, over_qq):
    for field, want in ((PrimeField(101), over_fp), (QQ, over_qq)):
        p = PolynomialRing(XYZ, field).parse(text)
        assert str(p) == want
        assert repr(p) == f"Polynomial({want})"


def test_polynomial_str_from_terms_and_grid_names():
    R = PolynomialRing(XYZ, QQ)
    assert str(R.poly({(1, 0, 0): Fraction(-1), (0, 0, 0): Fraction(-5, 3)})) == "-x - 5/3"
    assert str(Monomial(XYZ, (2, 1, 0))) == "x^2*y"
    assert repr(Monomial(XYZ, (0, 0, 0))) == "Monomial(1)"
    assert str(build_ideal(FamilyParams(2, (1, 1))).generators[-1]) == (
        "x[1,1]*x[1,2]^2 + x[2,1]*x[2,2]^2"
    )
    assert str(build_ideal(FamilyParams(2, (2, 1))).generators[-1]) == (
        "x[1,1]^2*x[1,2]^2 + x[2,1]^2*x[2,2]^2 + x[1,1]*x[2,1]*x[2,2]*y[[1,0],[1,1]]"
        " + x[1,1]*x[2,1]*x[1,2]*y[[1,1],[1,0]]"
    )


# (coefficients, str, coefficient of t, coefficient of t^4)
NUMERATORS = (
    ({0: 1, 1: -3, 2: 3, 3: -1}, "1 - 3*t + 3*t^2 - t^3", -3, 0),
    ({2: -1}, "-t^2", 0, 0),
    ({}, "0", 0, 0),
    ({0: -2, 1: 1, 5: 4}, "-2 + t + 4*t^5", 1, 0),
    ({1: -1, 4: -7}, "-t - 7*t^4", -1, -7),
)


@pytest.mark.parametrize("coeffs, text, at1, at4", NUMERATORS)
def test_hilbert_numerator_str_and_coefficient(coeffs, text, at1, at4):
    h = HilbertNumerator(coeffs, 3)
    assert str(h) == text
    assert repr(h) == f"HilbertNumerator({text}, nvars=3)"
    assert (h.coefficient(1), h.coefficient(4)) == (at1, at4)


def test_exponent_matrix_format_and_validation():
    mat = ExponentMatrix(((1, 2, 3), (4, 5, 6)))
    assert mat.colmajor() == (1, 4, 2, 5, 3, 6)
    assert str(mat) == "[[1,2,3],[4,5,6]]"
    assert ExponentMatrix(()).colmajor() == ()
    assert str(ExponentMatrix(())) == "[]"
    assert ExponentMatrix([[2, 0]]).rows == ((2, 0),)
    for bad in (((1, 2), (3,)), ((1, -1),), ((1, -1), (2,))):
        with pytest.raises(ValidationError):
            ExponentMatrix(bad)


@pytest.mark.parametrize(
    "exps, error",
    [
        ((1,), ValidationError),
        ((1, -1, 0), ValidationError),
        ((EXPONENT_CAP, 0, 0), ArithmeticOverflowError),
    ],
)
def test_bad_exponents_raise(exps, error):
    R = PolynomialRing(XYZ, PrimeField(101))
    for build in (
        lambda: Monomial(XYZ, exps),
        lambda: R.poly({exps: 1}),
        lambda: R.monomial(exps),
        lambda: R.from_monomial(exps),
    ):
        with pytest.raises(error):
            build()
