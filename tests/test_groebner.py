import collections
import functools
import heapq
import inspect
import random
from itertools import chain, islice

import pytest

from idealfam import (
    QQ,
    FamilyParams,
    GroebnerBasis,
    IdealPresentation,
    InternalError,
    MonomialOrder,
    PolynomialRing,
    PrimeField,
    ResourceLimitError,
    ValidationError,
    VariableTable,
    build_ideal,
    buchberger,
    caviglia_ideal,
    caviglia_witness,
    hilbert_numerator,
    is_member,
    lemma_targets,
    mccullough_ideal,
    mccullough_witness,
    minimal_free_resolution,
    normal_form,
    s_polynomial,
    schreyer_resolution,
    socle_witness,
    syzygies,
    verification_basis,
    verification_degree,
    verify_lemma,
    verify_socle,
)
from idealfam import groebner
from idealfam.family import membership_basis

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
    G = buchberger(ideal, degree_limit=25, interreduce=False)
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


def _random_module_vectors(rng, nvars, rank):
    """Homogeneous vectors of R^rank in the kernel's ``exps + (comp,)`` terms."""
    vectors = []
    for _ in range(rng.choice((2, 3, 4, 5))):
        degree = rng.choice((1, 2, 3))
        v = {}
        for comp in range(rank):
            if rng.random() < 0.6:
                for _ in range(rng.randrange(1, 3)):
                    exps = [0] * nvars
                    for _ in range(degree):
                        exps[rng.randrange(nvars)] += 1
                    v[tuple(exps) + (comp,)] = rng.randrange(1, 101)
        if v:
            vectors.append(v)
    return vectors


def test_module_basis_is_groebner(rng):
    # The kernel on module vectors must pair, chain-test, B-filter, prune
    # and divide within one lead component; every same-component S-vector
    # and every input then reduces to zero.
    field = PrimeField(101)
    order = MonomialOrder("grevlex")
    for _ in range(200):
        nvars, rank = rng.choice((2, 3)), rng.choice((2, 3, 4))
        # Term over position, or position over term (every component tagged).
        tagged = rng.choice((None, 0))
        pk = groebner._Packing(order, nvars, 8, components=rank, tagged=tagged)
        vectors = _random_module_vectors(rng, nvars, rank)
        basis, _, pk, _ = groebner._buchberger_kernel(vectors, pk, field)
        reducers = groebner._reducers(basis, pk)

        def remainder(terms):
            return groebner._reduce(terms, reducers, pk, field, full=False)

        for a, f in enumerate(basis):
            for g in basis[a + 1 :]:
                if f.lm & pk.cmask == g.lm & pk.cmask:
                    assert not remainder(groebner._spoly(f, g, pk, field))
        assert not any(remainder(pk.pack_terms(v.items())) for v in vectors)


def _reordered(ideal, rng):
    # The generators shuffled, each scaled by a nonzero constant: new
    # indices, so the kernel takes its pairs in another order.
    gens = [rng.randrange(1, ideal.ring.field.p) * g for g in ideal.generators]
    rng.shuffle(gens)
    return IdealPresentation(ideal.ring, gens)


def test_reduced_basis_invariant_under_input_order():
    # The reduced basis is unique: both routes give the original's from
    # any order and scaling of the generators.  A limit at the basis's top
    # degree takes the signature route.
    rng = random.Random(1991)
    for _ in range(60):
        nvars = rng.randrange(3, 5)
        R = PolynomialRing(
            VariableTable.named(tuple(f"x{i}" for i in range(nvars))),
            PrimeField(rng.choice((101, 32003))),
            MonomialOrder(rng.choice(("grevlex", "grlex", "lex"))),
        )
        gens = [random_homogeneous(R, rng, rng.randrange(2, 4)) for _ in range(rng.randrange(2, 5))]
        ideal = IdealPresentation(R, gens)
        want = buchberger(ideal).elements
        other = _reordered(ideal, rng)
        assert buchberger(other).elements == want, ideal
        top = max(g.degree() for g in want)
        assert buchberger(other, degree_limit=top).elements == want, ideal


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


def test_truncated_basis_exact_below_limit(rng):
    # Below the limit a truncated basis is the full basis.  truncated_at
    # is None only when nothing above the limit was left out, so then the
    # bases are equal; a flagged basis may still be complete, when the
    # pairs left out above the limit would have reduced to zero.
    ideals = [build_ideal(FamilyParams(2, (1, 1)))]
    for field in (PrimeField(101), QQ):
        R = PolynomialRing(VariableTable.named(("x", "y", "z")), field, MonomialOrder())
        for _ in range(14):
            gens = [random_homogeneous(R, rng, rng.randrange(2, 4)) for _ in range(3)]
            ideals.append(IdealPresentation(R, [g for g in gens if g]))
    outcomes = set()
    for ideal in ideals:
        full = buchberger(ideal).elements
        for limit in (4, 5):
            trunc = buchberger(ideal, degree_limit=limit)
            assert [g for g in trunc if g.degree() <= limit] == [
                g for g in full if g.degree() <= limit
            ]
            assert trunc.truncated_at in (None, limit)
            equal = trunc.elements == full
            assert equal or trunc.truncated_at == limit, (ideal, limit)
            outcomes.add((equal, trunc.truncated_at))
    assert {(True, None), (False, 4), (False, 5)} <= outcomes

    ideal = ideals[0]
    trunc = buchberger(ideal, degree_limit=5)
    assert trunc.truncated_at == 5
    with pytest.raises(ValidationError):
        trunc.normal_form(ideal.generators[0] * ideal.generators[1])
    with pytest.raises(ValidationError):
        trunc.contains(ideal.generators[0] * ideal.generators[1])


def test_truncated_at_pinned():
    # truncated_at is set when a signature above the limit, left out when
    # its h arrived, is neither singular nor divisible by a Koszul or
    # syzygy signature of the finished run.  Each unflagged case below
    # but the last left candidates out, so flagging every candidate would
    # flag it.
    grid = (
        (build_ideal(FamilyParams.parse("2:(2,1)")), {4: 4, 8: 8, 12: None}),
        (mccullough_ideal(2, 1, 3), {5: 5, 6: None, 9: None}),
        (build_ideal(FamilyParams.parse("2:(3,1)")), {15: 15, 16: None}),
    )
    for ideal, want in grid:
        bases = {limit: buchberger(ideal, degree_limit=limit) for limit in want}
        assert {limit: b.truncated_at for limit, b in bases.items()} == want
        left_out = {limit for limit, b in bases.items() if b.stats["above_limit"]}
        assert left_out == set(want) - {9}
    # Complete bases: in the first case the Koszul criterion drops every
    # signature above the limit.  The other two keep one live that reduces
    # to zero, so they carry the limit: the flag is conservative.
    R = PolynomialRing(VariableTable.named(("x", "y", "z")), PrimeField(101), MonomialOrder())
    x, y, z = (R.variable(i) for i in range(3))
    R4 = PolynomialRing(
        VariableTable.named(("x", "y", "z", "w")), PrimeField(101), MonomialOrder()
    )
    a, _, c, d = (R4.variable(i) for i in range(4))
    cases = (
        (
            _ideal(
                R,
                52 * x**2,
                71 * x**2 * y + 66 * z**3 + 45 * y**3,
                12 * x * z**2,
                4 * x * z + 64 * x**2 + 40 * y * z,
            ),
            5,
            None,
        ),
        (
            _ideal(R4, 16 * a**2 * d, 76 * c**2 * d, 86 * a * c),
            4,
            4,
        ),
        (
            _ideal(
                R,
                58 * y**3,
                63 * x**2 + x * y + 34 * y * z,
                69 * y * z**2,
                10 * x**2 + 34 * y**2 + 33 * y * z,
            ),
            4,
            4,
        ),
    )
    for ideal, limit, flag in cases:
        full = buchberger(ideal).elements
        trunc = buchberger(ideal, degree_limit=limit)
        assert trunc.truncated_at == flag
        assert trunc.elements == full


def test_buchberger_order_argument():
    # order= computes in the same table under another order; the ring's
    # own order changes nothing.
    params = FamilyParams(2, (1, 1))
    ideal = build_ideal(params)
    lex = MonomialOrder("lex")
    basis = buchberger(ideal, order="lex")
    assert basis.ring == ideal.ring.with_order(lex)
    assert len(basis.elements) == 5
    assert basis.elements == buchberger(build_ideal(params, order=lex)).elements
    same = buchberger(ideal, order=ideal.ring.order)
    assert same.ring is ideal.ring
    assert same.elements == buchberger(ideal).elements


def test_pair_limit_resource_error():
    R = small_ring(("x", "y", "z"))
    x, y, z = (R.variable(i) for i in range(3))
    ideal = _ideal(R, x * y - z * z, y * y - x * z)
    with pytest.raises(ResourceLimitError):
        buchberger(ideal, pair_limit=0)
    # The only pair has lcm x*y^2, above the limit, so it is never stored.
    assert buchberger(ideal, pair_limit=0, degree_limit=2).truncated_at == 2


def test_limits_are_validated():
    # The library refuses, as invalid input, what the CLI refuses: a
    # degree limit that is not an int of at least 1, or a pair limit that
    # is not an int of at least 0.  A bool is not an int here.
    ideal = build_ideal(FamilyParams.parse("2:(1,1)"))
    for bad in (0, -1, 2.5, True, "3"):
        with pytest.raises(ValidationError, match="degree_limit"):
            buchberger(ideal, degree_limit=bad)
        with pytest.raises(ValidationError, match="degree_limit"):
            membership_basis(ideal, bad)
    for bad in (-1, 2.5, None, False):
        with pytest.raises(ValidationError, match="pair_limit"):
            buchberger(ideal, pair_limit=bad)
        with pytest.raises(ValidationError, match="pair_limit"):
            membership_basis(ideal, 4, pair_limit=bad)
    assert buchberger(ideal, degree_limit=1, pair_limit=0).truncated_at == 1


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


def _degree_route(spec):
    # A verification basis, truncated at the verification degree: the
    # kernel pins below were taken on it.
    params = FamilyParams.parse(spec)
    return membership_basis(build_ideal(params), verification_degree(params))


def test_basis_sizes_pinned():
    # Element and term counts of known bases; any change to the kernel
    # that alters a basis shows up here.  The signature route's tails leave
    # out the multiples of lower pure-power inputs.
    for spec, want in (
        ("2:(2,2,2)", (37, 460)),
        ("4:(2)", (151, 2662)),
        ("2:(4,2,1)", (164, 10159)),
        ("2:(2,3,4)", (121, 5447)),
    ):
        assert _size(_degree_route(spec)) == want, spec
    assert _size(buchberger(build_ideal(FamilyParams.parse("2:(3,1)")))) == (34, 210)
    assert _size(buchberger(caviglia_ideal(5))) == (7, 8)
    assert _size(buchberger(mccullough_ideal(2, 1, 3))) == (6, 10)
    assert _size(buchberger(caviglia_ideal(4, QQ))) == (6, 7)
    # Without interreduction the tails depend on the order in which pairs
    # are processed, and on the criteria: with a limit, the signature
    # route's.
    for spec, want in (("3:(2,1)", (123, 2870)), ("2:(4,3)", (146, 3790))):
        params = FamilyParams.parse(spec)
        G = buchberger(
            build_ideal(params), degree_limit=verification_degree(params), interreduce=False
        )
        assert _size(G) == want, spec


def test_spolynomial_counts_pinned():
    # Equal bases can hide a pair criterion that keeps extra pairs which
    # then reduce to zero; the number of reductions shows it.  Under
    # Gebauer-Moeller that is one per S-polynomial formed; the
    # membership bases take the signature route, one per signature.
    for spec, want in (
        ("2:(2,2,2)", 42),
        ("3:(2,1)", 146),
        ("4:(2)", 182),
        ("2:(4,2,1)", 241),
        ("2:(2,3,4)", 165),
    ):
        assert _degree_route(spec).stats["reductions"] == want, spec
    assert buchberger(build_ideal(FamilyParams.parse("2:(3,1)"))).stats["reductions"] == 162
    assert buchberger(caviglia_ideal(5)).stats["reductions"] == 13


def _chain_pairs_any(G, h, pk):
    # The chain test the two plain loops replaced: one `any` over a chain
    # of the later generators and the kept ones.
    mh = h.lm
    guard = pk.guard
    if pk.module:
        c = mh & pk.cmask
        G = [g for g in G if g.lm & pk.cmask == c]
    kept, new = [], []
    chained = 0
    for k, g in enumerate(G):
        lcm = pk.lcm(mh, g.lm)
        if pk.module or lcm != mh + g.lm:
            if any(not (lcm - p.lm) & guard for p in chain(islice(G, k + 1, None), kept)):
                chained += 1
                continue
            new.append((g, lcm))
        kept.append(g)
    return new, len(kept) - len(new), chained


def test_chain_pairs_loops_match_the_any_formulation(monkeypatch):
    # Every (G, h) the kernel passes on the eight bases of the benchmark's
    # resolve workload and a module input of `syzygies` gives the same
    # pairs in the same order and the same two counts on both routes.
    calls = []
    chain_pairs = groebner._chain_pairs

    def recorded(G, h, pk):
        calls.append((G, h, pk))
        return chain_pairs(G, h, pk)

    monkeypatch.setattr(groebner, "_chain_pairs", recorded)
    for ideal in (
        build_ideal(FamilyParams.parse("2:(3,1)")),
        build_ideal(FamilyParams.parse("2:(2,1,2)")),
        mccullough_ideal(3, 1, 3),
        *(caviglia_ideal(d) for d in range(3, 8)),
    ):
        buchberger(ideal)
    syzygies(minimal_free_resolution(build_ideal(FamilyParams.parse("2:(2,1)"))).matrices[1])
    kinds = set()
    for G, h, pk in calls:
        assert chain_pairs(G, h, pk) == _chain_pairs_any(G, h, pk)
        kinds.add(pk.module)
    assert kinds == {False, True}


VERIFY_SPECS = ("2:(2,2,2)", "3:(2,1)", "4:(2)", "2:(4,3)", "2:(4,2,1)", "2:(2,3,4)")


def test_signature_zero_reductions_pinned():
    # The six bases of the benchmark's verify workload: Gebauer-Moeller
    # reduced 1,696 S-polynomials there, 975 of them to zero.
    got = {}
    for spec in VERIFY_SPECS:
        stats = _degree_route(spec).stats
        got[spec] = (stats["reductions"], stats["zero_reductions"])
    assert got == {
        "2:(2,2,2)": (42, 7),
        "3:(2,1)": (146, 18),
        "4:(2)": (182, 0),
        "2:(4,3)": (187, 4),
        "2:(4,2,1)": (241, 35),
        "2:(2,3,4)": (165, 12),
    }
    assert sum(zero for _, zero in got.values()) < 100


def test_stats_count_each_route():
    ideal = build_ideal(FamilyParams.parse("2:(2,1)"))
    gm = buchberger(ideal).stats
    assert set(gm) == {"pairs", "product", "chain", "b_filter", "reductions", "zero_reductions"}
    sig = buchberger(ideal, degree_limit=4).stats
    assert set(sig) == {
        "pairs", "singular_pair", "duplicate", "koszul", "syzygy", "singular",
        "above_limit", "reductions", "zero_reductions",
    }
    limited = verification_basis(FamilyParams.parse("2:(2,1)")).stats
    assert set(limited) == set(sig)
    for stats in (gm, sig, limited):
        assert all(isinstance(v, int) and v >= 0 for v in stats.values())
        assert stats["zero_reductions"] <= stats["reductions"] <= stats["pairs"]
    assert sig["above_limit"] > 0 and limited["above_limit"] > 0
    # A basis built from polynomials has no kernel counters.
    assert GroebnerBasis(ideal.ring, buchberger(ideal).elements, reduced=True).stats is None


def test_signature_above_limit_pinned():
    # Candidates the degree pass dropped over the six verify bases: most
    # come from generators whose lead has the limit's degree.
    got = {spec: _degree_route(spec).stats["above_limit"] for spec in VERIFY_SPECS}
    assert got == {
        "2:(2,2,2)": 571,
        "3:(2,1)": 7661,
        "4:(2)": 15092,
        "2:(4,3)": 10879,
        "2:(4,2,1)": 15668,
        "2:(2,3,4)": 6731,
    }
    assert sum(got.values()) == 56602


def _signature_corpus():
    # The six verify bases and 120 seeded random truncated ideals in 3-5
    # variables over F_101 and F_32003, under three orders at limits 3-7;
    # one input of each random ideal has the limit's degree or one more.
    for spec in VERIFY_SPECS:
        _degree_route(spec)
    rng = random.Random(2012)
    for _ in range(120):
        nvars = rng.randrange(3, 6)
        R = PolynomialRing(
            VariableTable.named(tuple(f"x{i}" for i in range(nvars))),
            PrimeField(rng.choice((101, 32003))),
            MonomialOrder(rng.choice(("grevlex", "grlex", "lex"))),
        )
        limit = rng.randrange(3, 8)
        degrees = [rng.randrange(2, 4) for _ in range(rng.randrange(1, 4))]
        degrees.append(limit + rng.randrange(2))
        ideal = IdealPresentation(R, [random_homogeneous(R, rng, d) for d in degrees])
        buchberger(ideal, degree_limit=limit, interreduce=False)


def test_signature_candidates_match_degree_pass(monkeypatch):
    # Every `_Signatures.add` of the corpus keeps the candidates that
    # `_Packing.within` keeps from all earlier generators, in order, and
    # records h as above the limit exactly when that pass drops one.
    # Leads of the limit's degree take the divisors the reduction that made
    # h found, and an input none.
    add = groebner._Signatures.add
    tops = set()

    def checked(crit, h, divisors=()):
        before = crit.stats["above_limit"]
        add(crit, h, divisors)
        pk, earlier = crit.pk, crit.f[: h.idx]
        want = pk.within(h.lm, earlier, crit.degree_limit)
        got, _ = crit._within(h, divisors)
        assert [g.idx for g in got] == [g.idx for g in want]
        dropped = len(earlier) - len(want)
        assert (bool(crit.above_limit) and crit.above_limit[-1] is h) == (dropped > 0)
        assert crit.stats["above_limit"] - before == dropped
        top = pk.deg(h.lm) - crit.degree_limit
        tops.add((max(-1, min(top, 1)), 0 < len(want) < len(earlier)))

    monkeypatch.setattr(groebner._Signatures, "add", checked)
    _signature_corpus()
    # Leads below, at and above the limit's degree; at it, some with
    # candidates both kept and dropped.
    assert {top for top, _ in tops} == {-1, 0, 1}
    assert (0, True) in tops


def test_signature_pick_matches_linear_scan(monkeypatch):
    # Every pick of the corpus equals a scan of the position's generators
    # in index order: of those whose signature s divides (k, t), the one
    # whose multiple ``(t - s) g`` has the smallest lead (the largest
    # packed int), the first of equal leads.
    pick = groebner._Signatures._pick
    counts = {"picks": 0, "ties": 0}

    def checked(crit, k, t):
        g, shift = pick(crit, k, t)
        guard = crit.pk.guard
        leads = [
            (x.lm + t - x.sig[1], x)
            for x in crit.f
            if x.sig[0] == k and not (t - x.sig[1]) & guard
        ]
        best = None
        for lead, x in leads:
            if best is None or lead > best[0]:
                best = (lead, x)
        assert (g.idx, shift) == (best[1].idx, t - best[1].sig[1])
        counts["picks"] += 1
        counts["ties"] += sum(lead == best[0] for lead, _ in leads) > 1
        return g, shift

    monkeypatch.setattr(groebner._Signatures, "_pick", checked)
    _signature_corpus()
    assert counts["picks"] > 1000
    assert counts["ties"] > 0


def test_signature_take_without_divisor_is_internal_error(monkeypatch):
    # Every queued signature has a generator whose signature divides it
    # (input k has (k, 0)); a corrupted one is a bug, reported as such.
    # The multiplier -1 sets every guard bit, so no monomial divides it.
    take = groebner._Signatures.take
    monkeypatch.setattr(
        groebner._Signatures, "take", lambda crit, key: take(crit, (key[0], key[1], 1))
    )
    with pytest.raises(InternalError, match="no generator's signature divides"):
        verification_basis(FamilyParams.parse("2:(2,1)"))


def test_signature_result_matches_the_pairwise_filter(monkeypatch):
    # `result` tests a lead only against the kept leads of lower degree and
    # those of its own degree for equality; the filter it replaced tested
    # every kept lead.  Over the corpus both keep the same generators in
    # the same order, the first of equal leads among them.
    result = groebner._Signatures.result
    ties = []

    def checked(crit):
        G, truncated = result(crit)
        deg, guard = crit.pk.deg, crit.pk.guard
        want = []
        for g in sorted(crit.f, key=lambda g: (deg(g.lm), g.idx)):
            if all((g.lm - x.lm) & guard for x in want):
                want.append(g)
        assert [g.idx for g in G] == [g.idx for g in want]
        ties.append(len({g.lm for g in crit.f}) < len(crit.f))
        return G, truncated

    monkeypatch.setattr(groebner._Signatures, "result", checked)
    _signature_corpus()
    assert any(ties)


def _level_cases():
    # (name, basis builder) on the signature route: the six verify bases,
    # and seeded random truncated ideals in 3-4 variables over F_101,
    # F_32003 and QQ under grevlex, grlex and lex.  Their inputs have
    # mixed degrees, and the last has degree 4 or 5, above the first
    # pairs of the quadrics before it.
    for spec in VERIFY_SPECS:
        yield spec, functools.partial(_degree_route, spec)
    rng = random.Random(2031)
    for field in (PrimeField(101), PrimeField(32003), QQ):
        for order in ("grevlex", "grlex", "lex"):
            for trial in range(3):
                nvars = rng.randrange(3, 5)
                R = PolynomialRing(
                    VariableTable.named(tuple(f"x{i}" for i in range(nvars))), field,
                    MonomialOrder(order),
                )
                degrees = [2, 2, rng.randrange(2, 4), rng.randrange(4, 6)]
                gens = [random_homogeneous(R, rng, d, 5) for d in degrees]
                build = functools.partial(
                    buchberger, IdealPresentation(R, gens), degree_limit=rng.randrange(5, 7),
                    interreduce=False,
                )
                yield f"random {field} {order} {trial}", build


def _linear_signatures(monkeypatch):
    # The signature route with the linear scans the level replaced: every
    # generator in list order as reducers of every term, a pick over all
    # generators, the pair candidates from all earlier generators and the
    # lead-minimal filter over all pairs.
    take = groebner._Signatures.take

    def take_all(crit, key):
        job = take(crit, key)
        return job and (job[0], lambda m: crit.f, job[2])

    def pick_all(crit, k, t):
        guard, best = crit.pk.guard, None
        for x in crit.f:
            if x.sig[0] == k and not (t - x.sig[1]) & guard:
                if best is None or x.lm - x.sig[1] > best.lm - best.sig[1]:
                    best = x
        if best is None:
            raise InternalError(f"no generator's signature divides the queued ({k}, {t})")
        return best, t - best.sig[1]

    def within_all(crit, h, divisors):
        earlier = crit.f[: h.idx]
        within = crit.pk.within(h.lm, earlier, crit.degree_limit)
        return within, len(earlier) - len(within)

    def result_all(crit):
        deg, guard = crit.pk.deg, crit.pk.guard
        G = []
        for g in sorted(crit.f, key=lambda g: (deg(g.lm), g.idx)):
            if all((g.lm - x.lm) & guard for x in G):
                G.append(g)
        return G, crit._live_above_limit()

    monkeypatch.setattr(groebner._Signatures, "take", take_all)
    monkeypatch.setattr(groebner._Signatures, "_pick", pick_all)
    monkeypatch.setattr(groebner._Signatures, "_within", within_all)
    monkeypatch.setattr(groebner._Signatures, "result", result_all)


def _signature_run(build):
    # Every generator's signature, lead and tail, the basis kept, the
    # counters and the truncation.
    made = []
    result = groebner._Signatures.result

    def recorded(crit):
        G, truncated = result(crit)
        made.append(([(g.sig, g.lm, g.tail) for g in crit.f], [g.idx for g in G]))
        return G, truncated

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner._Signatures, "result", recorded)
        basis = build()
    return made.pop(), basis.stats, basis.truncated_at


def test_signature_level_matches_the_linear_scans(monkeypatch):
    # Each term's reducers from the level are the generators that can
    # divide it: their dividing ones, in order, are all those of the whole
    # list, so the first regular divisor is the same.  The divisors a
    # nonzero reduction skipped are every irregular divisor of its lead.
    # The whole run, records, counters and truncation, equals the route
    # with the linear scans.
    seen = collections.Counter()
    take, done = groebner._Signatures.take, groebner._Signatures.done

    def checked_take(crit, key):
        job = take(crit, key)
        if job is None:
            return None
        terms, level, options = job
        deg, guard, n = crit.pk.deg, crit.pk.guard, crit.inputs
        seen["above"] += any(deg(g.lm) > crit.level for g in crit.f[:n])

        def replayed(m):
            got = list(level(m))
            want = [g for g in crit.f if not (m - g.lm) & guard]
            assert [g for g in got if not (m - g.lm) & guard] == want
            seen["input lead"] += any(g.lm == m for g in crit.f[:n])
            seen["equal lead"] += any(g.lm == m for g in crit.f[n:])
            return got

        return terms, replayed, options

    def checked_done(crit, r):
        if r:
            m, (k, t), guard = min(r), crit.current, crit.pk.guard
            want = [
                g for g in crit.f if not (m - g.lm) & guard
                and not (g.sig[0] < k or (g.sig[0] == k and g.sig[1] + m - g.lm > t))
            ]
            assert crit.skipped == want
        done(crit, r)

    for name, build in _level_cases():
        with monkeypatch.context() as linear:
            _linear_signatures(linear)
            want = _signature_run(build)
        with monkeypatch.context() as replay:
            replay.setattr(groebner._Signatures, "take", checked_take)
            replay.setattr(groebner._Signatures, "done", checked_done)
            got = _signature_run(build)
        assert got == want, name
    # Some input lay above the level, some term was an input's lead, and
    # some was the lead of a generator of the level's degree.
    assert all(seen[what] > 0 for what in ("above", "input lead", "equal lead")), seen


def test_signature_key_below_the_level_is_internal_error(monkeypatch):
    # Signatures come in nondecreasing degree and the level's lookups rely
    # on it: a key of lower degree after the first is a bug.
    take = groebner._Signatures.take

    def lowered(crit, key):
        job = take(crit, key)
        heapq.heappush(crit.heap, (key[0] - 1,) + key[1:])
        return job

    monkeypatch.setattr(groebner._Signatures, "take", lowered)
    with pytest.raises(InternalError, match="below the level"):
        verification_basis(FamilyParams.parse("2:(2,1)"))


def _certificate(ring, witness, params=None):
    # The witness w, each x_v * w and, for a family, its stage monomials.
    w = witness.exps
    monos = [w] + [tuple(e + (u == v) for u, e in enumerate(w)) for v in range(ring.nvars)]
    if params is not None:
        monos += [m.exps for m in lemma_targets(params, ring.table)]
    return monos


def _pure_power_cases():
    # (name, basis builder, monomials to test) on the signature route: the
    # six verify bases and two more family verification bases, Caviglia's
    # and McCullough's membership bases, and seeded random truncated
    # ideals with pure powers at the first, a middle and the last input
    # position over three fields and orders.
    for spec in VERIFY_SPECS + ("2:(3,1)", "2:(2,1,2)"):
        params = FamilyParams.parse(spec)
        table = build_ideal(params).ring.table
        probes = _certificate(build_ideal(params).ring, socle_witness(params, table), params)
        yield spec, functools.partial(_degree_route, spec), probes
    special = [(caviglia_ideal(d), caviglia_witness, (d,)) for d in (2, 3, 4)]
    special += [(mccullough_ideal(*a), mccullough_witness, a) for a in ((2, 1, 3), (3, 1, 3))]
    for ideal, witness, args in special:
        w = witness(*args, ideal.ring.table)
        build = functools.partial(membership_basis, ideal, w.degree + 1)
        yield f"{witness.__name__}{args}", build, _certificate(ideal.ring, w)
    rng = random.Random(2023)
    for field in (PrimeField(101), PrimeField(32003), QQ):
        for order in (MonomialOrder("grevlex"), MonomialOrder("lex"), PACKED_ORDERS[3]):
            R = PolynomialRing(VariableTable.named(("x0", "x1", "x2", "x3")), field, order)
            for trial in range(2):
                gens = [random_homogeneous(R, rng, rng.randrange(2, 4), 6) for _ in range(2)]
                powers = [R.variable(v) ** rng.randrange(3, 5) for v in rng.sample(range(4), 3)]
                for at, power in zip((0, 2, 4), powers):
                    gens.insert(at, power)
                limit = rng.randrange(5, 8)
                build = functools.partial(
                    buchberger, IdealPresentation(R, gens), degree_limit=limit, interreduce=False
                )
                probes = [_random_exps(rng, 4, limit) for _ in range(20)]
                yield f"random {field} {order} {trial}", build, probes


def test_pure_power_filter_keeps_every_signature_and_lead(monkeypatch):
    # The signature route leaves out the multiples of lower pure-power
    # inputs wherever it forms terms.  Against the same route with that
    # filter off ((0, 0) marks nothing) every generator keeps its
    # signature and lead, in the same order, and the counters, the
    # truncation and the membership answers on the leads and the probes
    # stay the same.  Only the tails differ, and not always shorter: a
    # different division path can leave a generator a longer one.
    made = []
    result = groebner._Signatures.result

    def recorded(crit):
        unpack = crit.pk.unpack
        made.append([(g.sig[0], unpack(g.sig[1]), unpack(g.lm)) for g in crit.f])
        return result(crit)

    monkeypatch.setattr(groebner._Signatures, "result", recorded)

    def run(build, probes):
        basis = build()
        leads = [m.exps for m in basis.leading_monomials()]
        answers = basis._contains_monomials(leads + probes)
        return (made.pop(), basis.stats, basis.truncated_at, answers), _size(basis)

    shorter = set()
    for name, build, probes in _pure_power_cases():
        got, size = run(build, probes)
        with monkeypatch.context() as off:
            off.setattr(groebner._Packing, "multiples", lambda pk, powers: (0, 0))
            want, raw = run(build, probes)
        assert got == want, name
        if size < raw:
            shorter.add(name)
    assert set(VERIFY_SPECS) <= shorter
    assert any(name.startswith("random") for name in shorter)


def test_pure_power_filter_marks_exactly_the_multiples(rng):
    # `(x + add) & mask` against divisibility of the exponent tuples and
    # the packed guard test, under every packed order and field width,
    # with exponents and powers up to the field's maximum.
    for order in PACKED_ORDERS:
        for width in (1, 2, 3, 5, 8):
            pk = groebner._Packing(order, 4, width)
            maxdeg = pk.maxdeg
            assert pk.multiples({}) == (0, 0)
            for _ in range(60):
                variables = rng.sample(range(4), rng.randrange(1, 5))
                powers = {v: rng.choice((1, maxdeg, rng.randint(1, maxdeg))) for v in variables}
                add, mask = pk.multiples(powers)
                packed = [pk.pack(tuple(d * (u == v) for u in range(4))) for v, d in powers.items()]
                for _ in range(20):
                    e = _random_exps(rng, 4, maxdeg)
                    x = pk.pack(e)
                    marked = bool((x + add) & mask)
                    assert marked == any(e[v] >= d for v, d in powers.items())
                    assert marked == any(not (x - p) & pk.guard for p in packed)


def _probes(ideal, limit, rng):
    # Forms of degree at most the limit, and at most two above an input:
    # random ones, multiples of an input, and their sums.
    out = []
    for _ in range(4):
        g = rng.choice(ideal.generators)
        d = rng.randrange(2, min(limit, g.degree() + 2) + 1)
        p = random_homogeneous(ideal.ring, rng, d)
        out.append(p)
        if d > g.degree():
            member = random_homogeneous(ideal.ring, rng, d - g.degree()) * g
            out += [member, member + p]
    return out


@functools.cache
def _limit_corpus():
    # (ideal, limit, probes): family, McCullough and Caviglia ideals at
    # limits below, at and above their basis's top degree, and 100 seeded
    # random ideals in 3-5 variables over F_101 and F_32003 under three
    # orders at limits 3-7.
    rng = random.Random(2002)
    named = [
        (build_ideal(FamilyParams.parse("2:(2,1)")), (4, 8, 10, 12)),
        (build_ideal(FamilyParams.parse("2:(3,1)")), (10, 14, 15, 16)),
        (build_ideal(FamilyParams.parse("2:(2,1,2)")), (12, 24, 42)),
        (mccullough_ideal(2, 1, 3), (4, 5, 6)),
    ]
    # The top degrees are 7, 13 and 21.
    named += [(caviglia_ideal(d), (d + 1, d * d - d, d * d - d + 1, d * d)) for d in (3, 4, 5)]
    out = [(ideal, limit, _probes(ideal, limit, rng)) for ideal, limits in named for limit in limits]
    for _ in range(100):
        nvars = rng.randrange(3, 6)
        R = PolynomialRing(
            VariableTable.named(tuple(f"x{i}" for i in range(nvars))),
            PrimeField(rng.choice((101, 32003))),
            MonomialOrder(rng.choice(("grevlex", "grlex", "lex"))),
        )
        gens = [random_homogeneous(R, rng, rng.randrange(2, 4)) for _ in range(rng.randrange(2, 5))]
        ideal = IdealPresentation(R, gens)
        limit = rng.randrange(3, 8)
        out.append((ideal, limit, _probes(ideal, limit, rng)))
    return tuple(out)


def test_truncated_basis_matches_the_full_basis():
    # On the corpus the reduced basis truncated at the limit has the full
    # reduced basis's elements up to the limit, answers every membership
    # probe as it does, and, when not flagged truncated, is the full basis.
    outcomes = set()
    for ideal, limit, probes in _limit_corpus():
        full = buchberger(ideal)
        trunc = buchberger(ideal, degree_limit=limit)
        below = [g for g in full if g.degree() <= limit]
        assert [g for g in trunc if g.degree() <= limit] == below, (ideal, limit)
        for p in probes:
            assert trunc.contains(p) == full.contains(p), p
        if trunc.truncated_at is None:
            assert trunc.elements == full.elements, (ideal, limit)
        outcomes.add(trunc.truncated_at is None)
    assert outcomes == {True, False}

    # A lex case where a regularity test that compared multipliers across
    # input positions lost the lead x2*x3^5; 7 is the basis's top degree.
    R = PolynomialRing(
        VariableTable.named(("x0", "x1", "x2", "x3", "x4")), PrimeField(32003),
        MonomialOrder("lex"),
    )
    x0, x1, x2, x3, x4 = (R.variable(i) for i in range(5))
    ideal = _ideal(
        R,
        11870 * x1 * x2 + 30847 * x3**2,
        23951 * x0 * x3 + 8166 * x1**2 + 16286 * x4**2,
        6067 * x0 * x2 + 2554 * x1**2 + 30360 * x1 * x4 + 14686 * x2 * x4,
        5390 * x0 * x1 * x2 + 31392 * x1 * x3**2,
    )
    basis = buchberger(ideal, degree_limit=7)
    assert basis.elements == buchberger(ideal).elements
    assert (0, 0, 1, 5, 0) in [m.exps for m in basis.leading_monomials()]


def test_tail_reduce_changes_nothing():
    # The input alone picks the route: with a limit or without, the
    # ignored keyword leaves every element, counter and flag as it was,
    # before interreduction too.
    for ideal, limit, _ in _limit_corpus():
        for kw in ({}, {"degree_limit": limit}):
            a, b = (
                buchberger(ideal, tail_reduce=flag, interreduce=False, **kw)
                for flag in (True, False)
            )
            assert (a.elements, a.stats, a.truncated_at) == (b.elements, b.stats, b.truncated_at)


def test_buchberger_signature_pinned():
    # The library surface, as tests/test_cli_pinned.py pins the CLI's.
    assert list(inspect.signature(buchberger).parameters) == [
        "ideal", "order", "degree_limit", "pair_limit", "tail_reduce", "interreduce",
    ]


def test_kernel_rejects_inhomogeneous_input():
    # IdealPresentation refuses such input, so only a kernel caller's bug
    # can pass it: an internal error, not invalid input.
    R = small_ring()
    pk = groebner._Packing(R.order, R.nvars, 8)
    with pytest.raises(InternalError, match="not homogeneous"):
        groebner._buchberger_kernel([{(2, 0): 1, (0, 1): 1}], pk, R.field)


def test_kernel_refuses_a_degree_limit_on_a_module():
    # A limit picks the signature route, which has no module form, and
    # `syzygies` passes none: a module with a limit is a caller's bug.
    R = small_ring()
    pk = groebner._Packing(R.order, R.nvars, 8, components=2)
    with pytest.raises(InternalError, match="no degree limit"):
        groebner._buchberger_kernel([{(1, 0, 0): 1}], pk, R.field, degree_limit=3)


def test_hilbert_kernel_base_cases():
    # No generators: the zero ideal, numerator 1.  A degree-0 generator:
    # the unit ideal, numerator 0.
    assert groebner._hilbert_kernel((), {}) == {0: 1}
    assert groebner._hilbert_kernel(((0, 0),), {}) == {}
    assert groebner._hilbert_kernel(((0, 0), (1, 0)), {}) == {}


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


def test_basis_from_polynomials_rejects_zero_and_mixed_degrees():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    with pytest.raises(ValidationError):
        GroebnerBasis(R, [x * y, R.zero()], reduced=False)
    with pytest.raises(ValidationError):
        GroebnerBasis(R, [x * x + y], reduced=False)


def _list_order_remainder(basis, p, full):
    # The route the degree-ordered reducers replaced: the first divisor
    # in element order, largest lead first.
    pk = basis._pk
    r = groebner._reduce(
        pk.pack_terms(p.terms), lambda m: basis._gens, pk, basis.ring.field, full=full
    )
    return {pk.unpack(e): c for e, c in r.items()}


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


class _CountedReducers(list):
    """A reducer list counting the records `_reduce` tests as divisors.

    `_reduce` tests each record its loop takes from the list, in order,
    until one divides the term, so the records yielded are the packed
    divisibility tests it makes.
    """

    tests = 0

    def __iter__(self):
        for g in list.__iter__(self):
            self.tests += 1
            yield g


def test_membership_division_work_pinned():
    # Every packed divisibility test made by the membership checks of one
    # verification, with the reducers lowest lead degree first, against
    # the same checks dividing by the records in element order.
    params = FamilyParams.parse("2:(2,3,4)")
    basis = _degree_route("2:(2,3,4)")
    assert not basis.contains(basis.ring.one())  # builds the degree-ordered list

    pk, by_degree = basis._by_degree

    def tests(reducers):
        counted = _CountedReducers(reducers)
        basis._by_degree = (pk, counted)
        assert verify_socle(params, basis).conclusion
        assert verify_lemma(params, basis).ok
        return counted.tests

    lowest_degree_first = tests(by_degree)
    in_element_order = tests(basis._gens)
    assert lowest_degree_first == 6421
    assert 100 * lowest_degree_first < in_element_order


# ------------------------------------------------- packed monomials

PACKED_ORDERS = (
    MonomialOrder("grevlex"),
    MonomialOrder("grlex"),
    MonomialOrder("lex"),
    MonomialOrder("grevlex", (2, 0, 3, 1)),
    MonomialOrder("lex", (3, 1, 0, 2)),
)


def _random_exps(rng, nvars, maxdeg):
    """Exponents of total degree at most ``maxdeg``, often at a field's maximum."""
    exps = [0] * nvars
    if rng.random() < 0.2:
        exps[rng.randrange(nvars)] = maxdeg
        return tuple(exps)
    for _ in range(rng.randrange(maxdeg + 1)):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def _schreyer_key(order, t):
    # The tuple route: the ring's heap key of the monomial, then the
    # component, a smaller index being the larger term.
    return order.heapkey(t[:-1]) + (t[-1],)


def _tagged_key(order, tagged, t):
    # The tuple route of `syzygies`: untagged terms term over position,
    # tagged ones position over term and below every untagged one.
    if t[-1] < tagged:
        return (0, order.heapkey(t[:-1]), (t[-1],))
    return (1, (t[-1],), order.heapkey(t[:-1]))


def test_packed_monomials_match_tuples(rng):
    # The packed fast path against the tuple definitions it replaced:
    # round trip, divisibility, lcm, products, the heap order against
    # MonomialOrder.key, and the module orders.
    for order in PACKED_ORDERS:
        for width in (1, 2, 3, 5, 8):
            pk = groebner._Packing(order, 4, width)
            maxdeg = pk.maxdeg
            for _ in range(300):
                a = _random_exps(rng, 4, maxdeg)
                b = _random_exps(rng, 4, maxdeg)
                pa, pb = pk.pack(a), pk.pack(b)
                assert pk.unpack(pa) == a and pk.deg(pa) == sum(a)
                assert pk.sparse({v: e for v, e in enumerate(a) if e}) == pa
                assert (not (pb - pa) & pk.guard) == all(x <= y for x, y in zip(a, b))
                if a != b:
                    assert (pa < pb) == (order.key(a) > order.key(b))
                else:
                    assert pa == pb
                lcm = tuple(map(max, a, b))
                plcm = pk.lcm(pa, pb)
                assert pk.unpack(plcm) == lcm and pk.deg(plcm) == sum(lcm)
                assert pk.quo(pa, pb) == plcm - pa
                if sum(lcm) <= maxdeg:
                    assert plcm == pk.pack(lcm)
                if sum(a) + sum(b) <= maxdeg:
                    assert pa + pb == pk.pack(tuple(map(sum, zip(a, b))))

            mod = groebner._Packing(order, 4, width, components=5)
            tag = groebner._Packing(order, 4, width, components=5, tagged=2)
            for _ in range(300):
                a = _random_exps(rng, 4, maxdeg) + (rng.randrange(5),)
                b = _random_exps(rng, 4, maxdeg) + (rng.choice((a[-1], rng.randrange(5))),)
                for pk, key in (
                    (mod, lambda t: _schreyer_key(order, t)),
                    (tag, lambda t: _tagged_key(order, 2, t)),
                ):
                    pa, pb = pk.pack(a), pk.pack(b)
                    assert pk.unpack(pa) == a and pa & pk.cmask == a[-1]
                    if a != b:
                        assert (pa < pb) == (key(a) < key(b))
                    if a[-1] == b[-1]:
                        divides = all(x <= y for x, y in zip(a[:-1], b[:-1]))
                        assert (not (pb - pa) & pk.guard) == divides
                        lcm = tuple(map(max, a, b))
                        assert pk.unpack(pk.lcm(pa, pb)) == lcm


def test_packing_never_wraps():
    pk = groebner._Packing(MonomialOrder(), 3, 2)
    assert pk.unpack(pk.pack((3, 0, 0))) == (3, 0, 0)
    for exps in ((4, 0, 0), (1, 2, 1)):
        with pytest.raises(groebner._Overflow) as err:
            pk.pack(exps)
        assert isinstance(err.value, InternalError)
    with pytest.raises(groebner._Overflow):
        pk.sparse({0: 2, 2: 2})
    wide = pk.widened(9)
    assert wide.maxdeg >= 9 and wide.unpack(wide.pack((1, 4, 4))) == (1, 4, 4)
    twisted = groebner._Packing(MonomialOrder(), 3, 2, components=2, twists=(0, 2))
    twisted.pack((3, 0, 0, 0))
    with pytest.raises(groebner._Overflow):
        twisted.pack((2, 0, 0, 1))  # degree 2 in the twist-2 component


def test_tiny_fields_repack_to_the_same_answers(monkeypatch):
    # With one-bit fields every kind of computation outgrows its packing;
    # each must rerun wider and give the answers of the default width.
    widened = []
    seen = {}

    def step(name):
        seen[name] = seen.get(name, 0) + len(widened)
        widened.clear()

    def answers():
        out = []
        for ideal in (
            build_ideal(FamilyParams.parse("2:(2,1)")),
            caviglia_ideal(4),
            mccullough_ideal(2, 1, 3),
        ):
            G = buchberger(ideal)
            step("buchberger")
            # A basis from polynomials packs as narrow as its degree allows.
            H = GroebnerBasis(G.ring, G.elements, reduced=True)
            res = schreyer_resolution(H)
            step("tower")
            mres = res.minimalize()
            syz = syzygies(mres.matrices[0])
            step("syzygies")
            out.append((
                G.elements,
                res.betti(),
                [m.rank for m in res.modules],
                [m.columns for m in mres.matrices],
                syz.columns,
            ))
        params = FamilyParams.parse("2:(1,1)")
        basis = verification_basis(params)
        out.append((
            basis.elements,
            verify_socle(params, basis).conclusion,
            verify_lemma(params, basis).ok,
        ))
        ring = basis.ring
        x, y = ring.variable(0), ring.variable(1)
        small = GroebnerBasis(ring, [x * x], reduced=True)
        step("basis")
        out.append((small.normal_form(x**5 + y**5), small.contains(x**5)))
        step("membership")
        return out

    want = answers()
    assert not any(seen.values())
    wider = groebner._Packing.widened

    def counted(self, degree):
        widened.append(degree)
        return wider(self, degree)

    monkeypatch.setattr(groebner._Packing, "widened", counted)
    monkeypatch.setattr(groebner, "_MIN_WIDTH", 1)
    assert answers() == want
    assert all(seen[name] for name in ("buchberger", "tower", "syzygies", "membership"))
