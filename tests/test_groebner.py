import pytest

from idealfam import (
    QQ,
    FamilyParams,
    GroebnerBasis,
    IdealPresentation,
    MonomialOrder,
    PolynomialRing,
    PrimeField,
    ResourceLimitError,
    ValidationError,
    VariableTable,
    build_ideal,
    buchberger,
    caviglia_ideal,
    hilbert_numerator,
    is_member,
    lemma_targets,
    mccullough_ideal,
    normal_form,
    s_polynomial,
    socle_witness,
    verification_basis,
    verification_degree,
    verify_lemma,
    verify_socle,
)
from idealfam import groebner

from conftest import random_homogeneous, small_ring, span_membership


def _ideal(R, *polys):
    return IdealPresentation(R, list(polys))


def test_presentation_validation():
    R = small_ring()
    x = R.variable("x")
    with pytest.raises(ValidationError):
        IdealPresentation(R, [])
    with pytest.raises(ValidationError):
        IdealPresentation(R, [R.zero()])
    with pytest.raises(ValidationError):
        IdealPresentation(R, [x + R.one()])  # not homogeneous
    with pytest.raises(ValidationError):
        IdealPresentation(R, [R.one()])  # unit ideal


def test_buchberger_hand_trace():
    # S(x^2, xy+y^2) reduces to y^3; all remaining pairs reduce to zero.
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    G = buchberger(_ideal(R, x * x, x * y + y * y))
    assert {str(g) for g in G} == {"x^2", "x*y + y^2", "y^3"}
    assert G.reduced


def test_buchberger_monomial_ideal_unchanged():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    G = buchberger(_ideal(R, x, y))
    assert {str(g) for g in G} == {"x", "y"}


def test_family_instance_leading_terms():
    # Independent expectation for the 4-variable degree-3 instance.
    ideal = build_ideal(FamilyParams(2, (1, 1)))
    G = buchberger(ideal)
    lms = {str(m) for m in G.leading_monomials()}
    assert "x[1,1]^3" in lms
    assert "x[2,1]^3" in lms
    assert "x[1,1]*x[1,2]^2" in lms


def test_normal_form_contract():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    ideal = _ideal(R, x * x, x * y + y * y)
    G = buchberger(ideal)
    for g in ideal.generators:
        assert not G.normal_form(g)
    assert G.normal_form(R.one()) == R.one()
    # no term of a normal form is divisible by a leading monomial
    p = (x + y) ** 4 + x * y
    nf = G.normal_form(p)
    for mono in nf.monomials():
        assert not any(lm.divides(mono) for lm in G.leading_monomials())


def test_normal_form_idempotent_and_linear(rng):
    R = small_ring(("x", "y", "z"))
    x, y, z = (R.variable(i) for i in range(3))
    G = buchberger(_ideal(R, x * x - y * z, y * y - x * z))
    for _ in range(30):
        p = random_homogeneous(R, rng, rng.randrange(1, 5))
        q = random_homogeneous(R, rng, p.homogeneous_degree())
        nfp, nfq = G.normal_form(p), G.normal_form(q)
        assert G.normal_form(nfp) == nfp
        assert G.normal_form(p + q) == G.normal_form(nfp + nfq)
        assert G.normal_form(17 * p) == 17 * nfp


def test_membership_examples():
    ideal = build_ideal(FamilyParams(2, (2, 2, 2)))
    R = ideal.ring
    G = buchberger(ideal, degree_limit=25, tail_reduce=False, interreduce=False)
    assert is_member(R.zero(), G)
    for mono in lemma_targets(FamilyParams(2, (2, 2, 2)), R.table):
        assert is_member(R.from_monomial(mono), G)
    S = R.from_monomial(socle_witness(FamilyParams(2, (2, 2, 2)), R.table))
    assert not is_member(S, G)


def test_all_s_pairs_reduce_to_zero():
    R = small_ring(("x", "y", "z"))
    x, y, z = (R.variable(i) for i in range(3))
    G = buchberger(_ideal(R, x * y - z * z, y * y - x * z, x * x * x - y * z * z))
    elems = list(G)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            assert not G.normal_form(s_polynomial(elems[i], elems[j]))


def test_reduced_basis_unique_across_strategies():
    R = small_ring(("x", "y", "z"))
    x, y, z = (R.variable(i) for i in range(3))
    ideal = _ideal(R, x * y - z * z, y * y - x * z, z * z * x - y * x * x)
    bases = [
        buchberger(ideal, strategy=s).elements for s in ("normal", "lcm", "fifo")
    ]
    assert bases[0] == bases[1] == bases[2]


def test_lcm_strategy_takes_smallest_lcm_first():
    # Taking the largest lcm first never finished on this ideal.
    ideal = build_ideal(FamilyParams.parse("2:(3,1)"))
    assert buchberger(ideal, strategy="lcm").elements == buchberger(ideal).elements


def test_source_generators_reduce_to_zero():
    ideal = build_ideal(FamilyParams(2, (3, 1)))
    G = buchberger(ideal)
    assert G.source is ideal
    for g in ideal.generators:
        assert G.contains(g)


def test_membership_agrees_with_span_oracle(rng):
    R = small_ring(("x", "y", "z"))
    hits = 0
    for trial in range(40):
        gens = [
            random_homogeneous(R, rng, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))
        ]
        gens = [g for g in gens if g]
        if not gens:
            continue
        ideal = IdealPresentation(R, gens)
        G = buchberger(ideal)
        p = random_homogeneous(R, rng, rng.randrange(1, 6))
        got = is_member(p, G)
        want = span_membership(p, ideal)
        assert got == want
        hits += got
    assert hits  # some positives exercised


def test_truncated_basis_exact_below_limit():
    ideal = build_ideal(FamilyParams(2, (1, 1)))
    full = buchberger(ideal)
    trunc = buchberger(ideal, degree_limit=5)
    full_low = [g for g in full.elements if g.degree() <= 5]
    trunc_low = [g for g in trunc.elements if g.degree() <= 5]
    assert full_low == trunc_low
    assert trunc.truncated_at == 5
    R = ideal.ring
    with pytest.raises(ValidationError):
        trunc.normal_form(ideal.generators[0] * ideal.generators[1])
    with pytest.raises(ValidationError):
        trunc.contains(ideal.generators[0] * ideal.generators[1])


def test_pair_limit_resource_error():
    R = small_ring(("x", "y", "z"))
    x, y, z = (R.variable(i) for i in range(3))
    with pytest.raises(ResourceLimitError):
        buchberger(_ideal(R, x * y - z * z, y * y - x * z), pair_limit=0)


# ---------------------------------------------------------------- hilbert

def test_hilbert_principal():
    R = small_ring(("x",))
    x = R.variable("x")
    H = hilbert_numerator(buchberger(_ideal(R, x)))
    assert H.as_dict() == {0: 1, 1: -1}


def test_hilbert_square_of_maximal():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    H = hilbert_numerator(buchberger(_ideal(R, x * x, x * y, y * y)))
    assert H.as_dict() == {0: 1, 2: -3, 3: 2}
    assert H.dimensions(4) == [1, 2, 0, 0, 0]


def test_hilbert_regular_sequence_koszul():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    for a, b in ((1, 1), (2, 3), (3, 4)):
        H = hilbert_numerator(buchberger(_ideal(R, x**a, y**b)))
        # (1 - t^a)(1 - t^b)
        expect = {0: 1, a: -1}
        expect[b] = expect.get(b, 0) - 1
        expect[a + b] = expect.get(a + b, 0) + 1
        assert H.as_dict() == {k: v for k, v in expect.items() if v}


def test_hilbert_function_counts_standard_monomials(rng):
    from conftest import monomials_of_degree

    R = small_ring(("x", "y", "z"))
    for _ in range(10):
        gens = [random_homogeneous(R, rng, rng.randrange(1, 4)) for _ in range(2)]
        ideal = IdealPresentation(R, gens)
        G = buchberger(ideal)
        H = G.hilbert_numerator()
        lms = [m.exps for m in G.leading_monomials()]
        dims = H.dimensions(6)
        for e in range(7):
            standard = [
                m
                for m in monomials_of_degree(3, e)
                if not any(all(a <= b for a, b in zip(lm, m)) for lm in lms)
            ]
            assert dims[e] == len(standard)
        assert all(d >= 0 for d in dims)


def test_hilbert_requires_reduced_untruncated():
    ideal = build_ideal(FamilyParams(2, (1, 1)))
    trunc = buchberger(ideal, degree_limit=4)
    with pytest.raises(ValidationError):
        trunc.hilbert_numerator()
    loose = buchberger(ideal, interreduce=False)
    assert not loose.reduced
    with pytest.raises(ValidationError):
        loose.hilbert_numerator()


def _size(basis):
    return len(basis), sum(len(p) for p in basis.elements)


def test_basis_sizes_pinned():
    # Element and term counts of known bases; any change to the kernel
    # that alters a basis shows up here.
    assert _size(verification_basis(FamilyParams.parse("2:(2,2,2)"))) == (37, 684)
    assert _size(buchberger(build_ideal(FamilyParams.parse("2:(3,1)")))) == (34, 210)
    assert _size(buchberger(caviglia_ideal(5))) == (7, 8)
    assert _size(buchberger(mccullough_ideal(2, 1, 3))) == (6, 10)
    assert _size(buchberger(caviglia_ideal(4, QQ))) == (6, 7)
    # Without tail reduction and interreduction the tails depend on the
    # order in which pairs are processed.
    for spec, normal, fifo in (
        ("3:(2,1)", (123, 6188), (123, 5876)),
        ("2:(4,3)", (146, 8391), (146, 8308)),
    ):
        params = FamilyParams.parse(spec)
        ideal = build_ideal(params)
        for strategy, want in (("normal", normal), ("fifo", fifo)):
            G = buchberger(
                ideal,
                degree_limit=verification_degree(params),
                strategy=strategy,
                tail_reduce=False,
                interreduce=False,
            )
            assert _size(G) == want, (spec, strategy)


def test_spolynomial_counts_pinned(monkeypatch):
    # Equal bases can hide a pair criterion that keeps extra pairs which
    # then reduce to zero; the number of S-polynomials formed shows it.
    calls = []
    spoly = groebner._spoly

    def counted(f, g, field):
        calls.append(None)
        return spoly(f, g, field)

    monkeypatch.setattr(groebner, "_spoly", counted)

    def count(build):
        calls.clear()
        build()
        return len(calls)

    assert count(lambda: verification_basis(FamilyParams.parse("2:(2,2,2)"))) == 75
    assert count(lambda: verification_basis(FamilyParams.parse("3:(2,1)"))) == 257
    ideal = build_ideal(FamilyParams.parse("2:(3,1)"))
    for strategy, want in (("normal", 162), ("lcm", 162), ("fifo", 169)):
        assert count(lambda: buchberger(ideal, strategy=strategy)) == want, strategy
    assert count(lambda: buchberger(caviglia_ideal(5))) == 13


def test_basis_from_polynomials_matches_computed():
    ideal = build_ideal(FamilyParams(2, (1, 1)))
    G = buchberger(ideal)
    H = GroebnerBasis(ideal.ring, G.elements, reduced=True)
    assert H == G
    assert len(H) == len(G)
    assert H.leading_monomials() == G.leading_monomials()
    assert H.hilbert_numerator() == G.hilbert_numerator()
    for g in ideal.generators:
        assert H.contains(g)
    assert not H.contains(ideal.ring.variable(0))


def _list_order_remainder(basis, p, full):
    # The route the degree-ordered reducers replaced: the first divisor
    # in element order, largest lead first.
    ring = basis.ring
    r, _ = groebner._reduce(
        dict(p.terms), lambda m: basis._gens, ring.order.heapkey_fn(), ring.field,
        full=full,
    )
    return r


def _assert_divisor_order_invisible(basis, polys):
    ring = basis.ring
    for p in polys:
        assert basis.contains(p) == (not _list_order_remainder(basis, p, False)), p
        assert basis.normal_form(p) == ring.poly(_list_order_remainder(basis, p, True)), p


def test_membership_independent_of_divisor_order(rng):
    for spec in ("2:(2,2,2)", "3:(2,1)"):
        params = FamilyParams.parse(spec)
        basis = verification_basis(params)
        R = basis.ring
        w = R.from_monomial(socle_witness(params, R.table))
        polys = [R.from_monomial(m) for m in lemma_targets(params, R.table)]
        polys += [w] + [R.variable(i) * w for i in range(R.nvars)]
        _assert_divisor_order_invisible(basis, polys)

    names = ("x", "y", "z", "w")
    for field in (PrimeField(32003), PrimeField(101), QQ):
        for order in (MonomialOrder("lex"), MonomialOrder("grevlex", (2, 0, 3, 1))):
            R = PolynomialRing(VariableTable.named(names), field, order)
            for _ in range(3):
                gens = [random_homogeneous(R, rng, rng.randrange(2, 4)) for _ in range(3)]
                gens = [g for g in gens if g]
                basis = buchberger(IdealPresentation(R, gens))
                polys = []
                for _ in range(8):
                    p = random_homogeneous(R, rng, rng.randrange(3, 7))
                    g = rng.choice(gens)
                    member = random_homogeneous(R, rng, p.degree() - g.degree()) * g
                    polys += [p, member, member + p]
                _assert_divisor_order_invisible(basis, polys)

    ideal = build_ideal(FamilyParams(2, (1, 1)))
    limit = 5
    basis = buchberger(ideal, degree_limit=limit)
    assert basis.truncated_at == limit
    R = ideal.ring
    polys = []
    for d in range(1, limit + 1):
        p = random_homogeneous(R, rng, d)
        polys.append(p)
        for g in ideal.generators:
            if g.degree() <= d:
                polys.append(random_homogeneous(R, rng, d - g.degree()) * g + p)
                polys.append(random_homogeneous(R, rng, d - g.degree()) * g)
    _assert_divisor_order_invisible(basis, polys)


def test_membership_division_work_pinned(monkeypatch):
    # Divisor tests made by the membership checks of one verification,
    # measured with the reducers lowest lead degree first; the first
    # divisor in element order made 783957 of them.
    params = FamilyParams.parse("2:(2,3,4)")
    basis = verification_basis(params)
    calls = []
    divides = groebner._divides

    def counted(a, b):
        calls.append(None)
        return divides(a, b)

    monkeypatch.setattr(groebner, "_divides", counted)
    assert verify_socle(params, basis).conclusion
    assert verify_lemma(params, basis).ok
    assert len(calls) == 6461
