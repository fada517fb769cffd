import functools
import hashlib
import heapq
import random
import warnings
import pytest

from idealfam import (
    BettiTable,
    FamilyParams,
    GradedFreeModule,
    GroebnerBasis,
    IdealPresentation,
    InternalError,
    MonomialOrder,
    PolynomialRing,
    PresentationMatrix,
    PrimeField,
    QQ,
    ResourceLimitError,
    ValidationError,
    VariableTable,
    build_ideal,
    buchberger,
    caviglia_ideal,
    caviglia_witness,
    hilbert_crosscheck,
    mccullough_ideal,
    mccullough_witness,
    minimal_free_resolution,
    pd_formula,
    pd_of,
    reg_of,
    resolve,
    schreyer_resolution,
    socle_witness,
    syzygies,
    variable_count,
    verify_socle,
    verify_socle_ideal,
)
from idealfam import groebner, resolution

from conftest import random_homogeneous, small_ring


def _ideal(R, *polys):
    return IdealPresentation(R, list(polys))


# ------------------------------------------------------------- betti type

def test_betti_table_basics():
    B = BettiTable({(0, 0): 1, (1, 2): 2, (2, 3): 1})
    assert B.entry(1, 2) == 2
    assert B.entry(5, 5) == 0
    assert B.pd == 2
    assert B.reg == 1
    assert B.totals() == [1, 2, 1]
    assert BettiTable.from_triples(B.triples()) == B
    with pytest.raises(ValidationError):
        BettiTable({(0, 0): -1})


def test_betti_render_layout():
    B = BettiTable({(0, 0): 1, (1, 2): 3, (2, 3): 2})
    text = B.render()
    lines = text.splitlines()
    assert lines[0].split() == ["0", "1", "2"]
    assert lines[1].split() == ["total:", "1", "3", "2"]
    assert lines[2].split() == ["0:", "1", "-", "-"]
    assert lines[3].split() == ["1:", "-", "3", "2"]


# ------------------------------------------------------------ resolutions

def test_koszul_two_variables():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    B = resolve(_ideal(R, x, y))
    assert B.triples() == [(0, 0, 1), (1, 1, 2), (2, 2, 1)]
    assert pd_of(B) == 2 and reg_of(B) == 0


def test_koszul_three_variables():
    R = small_ring(("x", "y", "z"))
    B = resolve(_ideal(R, *(R.variable(i) for i in range(3))))
    assert B.totals() == [1, 3, 3, 1]


def test_square_of_maximal_ideal():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    B = resolve(_ideal(R, x * x, x * y, y * y))
    assert B.triples() == [(0, 0, 1), (1, 2, 3), (2, 3, 2)]
    assert B.pd == 2 and B.reg == 1


def test_complete_intersection_twists():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    B = resolve(_ideal(R, x**3, y**4))
    assert B.triples() == [(0, 0, 1), (1, 3, 1), (1, 4, 1), (2, 7, 1)]
    assert B.reg == 3 + 4 - 2


def test_first_column_matches_minimal_generators():
    ideal = build_ideal(FamilyParams(2, (1, 1)))
    B = resolve(ideal)
    degs = ideal.degrees()
    for d in set(degs):
        assert B.entry(1, d) == degs.count(d)
    assert B.total(1) == len(ideal.generators)


def test_complex_and_minimality_invariants_small():
    R = small_ring(("x", "y", "z"))
    x, y, z = (R.variable(i) for i in range(3))
    ideal = _ideal(R, x * y - z * z, y * y * y, x * x * z)
    nonmin = schreyer_resolution(ideal)
    assert nonmin.check_complex()
    mres = nonmin.minimalize()
    assert mres.check_complex()
    assert mres.is_minimal_complex()
    mats = mres.matrices
    for a, b in zip(mats, mats[1:]):
        assert a.composes_to_zero(b)
    # public matrices agree with module data
    assert mats[0].source.rank == mres.modules[1].rank


def test_resolution_length_bounded_by_variables():
    R = small_ring(("x", "y", "z"))
    x, y, z = (R.variable(i) for i in range(3))
    B = resolve(_ideal(R, x * x, y * y, z * z, x * y, y * z))
    assert B.pd <= 3


def test_hilbert_crosscheck_cases():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    ideal = _ideal(R, x, y)
    table = resolve(ideal)
    H = buchberger(ideal).hilbert_numerator()
    assert hilbert_crosscheck(table, H)
    corrupted = BettiTable(dict(table.entries) | {(1, 5): 1})
    assert not hilbert_crosscheck(corrupted, H)

    ideal2 = build_ideal(FamilyParams(2, (1, 1)))
    assert hilbert_crosscheck(resolve(ideal2), buchberger(ideal2).hilbert_numerator())


def test_auslander_buchsbaum_consistency_small():
    for text in ("2:(1,1)", "2:(1,0)", "2:(2,0)"):
        params = FamilyParams.parse(text)
        rep = verify_socle(params)
        assert rep.conclusion
        B = resolve(build_ideal(params))
        assert B.pd == variable_count(params) == rep.implied_pd


def test_caviglia_small_regularity():
    assert reg_of(resolve(caviglia_ideal(2))) == 2
    assert resolve(caviglia_ideal(2)).pd == 4


def test_field_choice_stability_flagged_not_failed():
    # Tables over two different primes should agree at desk scale; a
    # mismatch is flagged as a warning rather than a failure.
    for make in (
        lambda f: caviglia_ideal(3, field=f),
        lambda f: mccullough_ideal(2, 1, 3, field=f),
        lambda f: build_ideal(FamilyParams(2, (1, 1)), field=f),
    ):
        t1 = resolve(make(PrimeField(32003)))
        t2 = resolve(make(PrimeField(31991)))
        if t1 != t2:
            warnings.warn(f"Betti tables differ between characteristics: {t1!r} vs {t2!r}")


def test_degree_truncated_resolution_marks_and_matches():
    ideal = caviglia_ideal(3)
    part = resolve(ideal, degree_limit=6)
    assert part.truncated_at == 6
    assert "truncated" in part.render()

    # A truncated table is the full table up to the limit, with no entry
    # above it, whether the basis is truncated too or full (as `betti
    # --degree-limit` and a passed full basis give it).  Level 1 used to
    # keep the records above the limit with none of the syzygies that
    # cancel them: the cubic of the first ideal lies in the ideal of the
    # two quadrics, and was reported as a generator at limit 2.
    R = PolynomialRing(VariableTable.named(("x", "y", "z")), PrimeField(101), MonomialOrder())
    x, y, z = (R.variable(i) for i in range(3))
    cases = [
        (IdealPresentation(R, [x * y - z * z, y * y - x * z, x * x * z - y * z * z]), (2, 3, 4)),
        (build_ideal(FamilyParams.parse("2:(2,1)")), (2, 4, 6, 8, 10)),
        (build_ideal(FamilyParams.parse("2:(3,1)")), (5, 7, 9, 12)),
        (caviglia_ideal(3), (3, 4, 6, 8)),
    ]
    rng = random.Random(1998)
    for _ in range(20):
        R = small_ring(("x", "y", "z", "w")[: rng.randrange(3, 5)])
        gens = [random_homogeneous(R, rng, rng.randrange(2, 4)) for _ in range(rng.randrange(2, 5))]
        cases.append((IdealPresentation(R, gens), (2, 3, 4, 5)))
    for ideal, limits in cases:
        gb = buchberger(ideal)
        full = resolve(gb)
        for limit in limits:
            want = {(i, j): b for (i, j), b in full.entries.items() if j <= limit}
            for part in (resolve(ideal, degree_limit=limit), resolve(gb, degree_limit=limit)):
                assert part.entries == want, (ideal, limit)
                if part.truncated_at is None:
                    assert part == full
                else:
                    assert part.truncated_at == limit


def test_truncated_basis_resolves_only_within_its_truncation():
    # A basis truncated at degree 5 lacks elements above it: a tower with
    # no limit, or with one above 5, would meet S-vectors that do not
    # reduce to zero, and could mark its result complete.  Both are
    # refused before the tower is built.
    ideal = build_ideal(FamilyParams.parse("2:(3,1)"))
    gb = buchberger(ideal, degree_limit=5)
    assert gb.truncated_at == 5
    for limit in (None, 8):
        with pytest.raises(ValidationError, match="truncated at degree 5"):
            schreyer_resolution(gb, degree_limit=limit)
    part = schreyer_resolution(gb, degree_limit=5)
    assert part.truncated_at == 5
    assert part.betti() == schreyer_resolution(ideal, degree_limit=5).betti()


def test_resolution_limits_are_validated():
    # `schreyer_resolution`, and with it `resolve` and
    # `minimal_free_resolution`, refuse as invalid input a degree limit
    # that is not an int of at least 1 and a level cap that is not an int
    # of at least 0, from an ideal or a basis.
    ideal = build_ideal(FamilyParams.parse("2:(1,1)"))
    gb = buchberger(ideal)
    for make in (schreyer_resolution, minimal_free_resolution, resolve):
        for source in (ideal, gb):
            for bad in (0, -1, 2.5, True):
                with pytest.raises(ValidationError, match="degree_limit"):
                    make(source, degree_limit=bad)
            for bad in (-1, 1.5, False):
                with pytest.raises(ValidationError, match="level_cap"):
                    make(source, level_cap=bad)
    # A cap of 0 is valid input, and level 2 lies past it.
    with pytest.raises(ResourceLimitError):
        resolve(ideal, level_cap=0)


def _counted(res):
    """Betti table counted from the column-operation minimalization."""
    twists, _ = resolution._minimalize_raw(*res._chain(), res.ring.field, res.ring.nvars)
    entries = {}
    for i, tw in enumerate(twists):
        for j in tw.values():
            entries[(i, j)] = entries.get((i, j), 0) + 1
    return BettiTable(entries, truncated_at=res.truncated_at)


def test_betti_of_nonminimal_equals_minimalized():
    ideal = build_ideal(FamilyParams(2, (1, 1)))
    nonmin = schreyer_resolution(ideal)
    table = nonmin.betti()
    assert sum(table.totals()) < sum(m.rank for m in nonmin.modules)
    assert table == _counted(nonmin) == nonmin.minimalize().betti()


def _family(text, **kw):
    return lambda: build_ideal(FamilyParams.parse(text), **kw)


RANK_CASES = {
    "2:(3,1)": (_family("2:(3,1)"), None),
    "mccullough(2,1,3)": (lambda: mccullough_ideal(2, 1, 3), None),
    "caviglia(3)": (lambda: caviglia_ideal(3), None),
    "caviglia(4)": (lambda: caviglia_ideal(4), None),
    "caviglia(5)": (lambda: caviglia_ideal(5), None),
    "caviglia(4) over QQ": (lambda: caviglia_ideal(4, QQ), None),
    "mccullough(2,1,3) over QQ": (lambda: mccullough_ideal(2, 1, 3, QQ), None),
    "caviglia(4) over F_101 to degree 9": (
        lambda: caviglia_ideal(4, PrimeField(101)), 9
    ),
    "2:(3,1) to degree 10": (_family("2:(3,1)"), 10),
    "2:(2,1) lex": (_family("2:(2,1)", order=MonomialOrder("lex")), None),
    "2:(2,1) rescaled, seed 1": (
        lambda: _rescaled(build_ideal(FamilyParams.parse("2:(2,1)")), random.Random(1)),
        None,
    ),
    "2:(2,1) rescaled, seed 2": (
        lambda: _rescaled(build_ideal(FamilyParams.parse("2:(2,1)")), random.Random(2)),
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(RANK_CASES))
def test_rank_route_matches_column_operations(name):
    make, limit = RANK_CASES[name]
    nonmin = schreyer_resolution(make(), degree_limit=limit)
    table = nonmin.betti()
    counted = _counted(nonmin)
    assert table == counted
    assert table.truncated_at == counted.truncated_at == limit
    assert nonmin.minimalize().betti() == table


def test_minimalize_is_lazy(monkeypatch):
    calls = []
    raw = resolution._minimalize_raw

    def counting(*args):
        calls.append(args)
        return raw(*args)

    monkeypatch.setattr(resolution, "_minimalize_raw", counting)
    nonmin = schreyer_resolution(build_ideal(FamilyParams.parse("2:(2,1)")))
    mres = nonmin.minimalize()
    table = mres.betti()
    assert mres.minimal and not calls
    assert len(mres.matrices) == table.pd
    assert len(calls) == 1
    assert mres.check_complex() and mres.is_minimal_complex()
    assert [m.rank for m in mres.modules] == table.totals()
    assert mres.betti() == table
    assert len(calls) == 1


def test_long_family_instance_2_213():
    params = FamilyParams.parse("2:(2,1,3)")
    gb = buchberger(build_ideal(params))
    table = schreyer_resolution(gb).minimalize().betti()
    assert table.totals() == [1, 3, 140, 493, 670, 410, 95]
    assert table.pd == pd_formula(params) == 6
    assert hilbert_crosscheck(table, gb.hilbert_numerator())


# --------------------------------------------------------------- syzygies

def test_syzygy_of_koszul_pair():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    M = PresentationMatrix(
        R, GradedFreeModule((1, 1)), GradedFreeModule((0,)), [{0: x}, {0: y}]
    )
    S = syzygies(M)
    assert S.source.rank == 1
    assert S.source.twists == (2,)
    col = {r: str(S.entry(r, 0)) for r in range(2)}
    assert col in ({0: "y", 1: "32002*x"}, {0: "32002*y", 1: "x"})
    assert M.composes_to_zero(S)


def test_syzygy_composition_identity():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    polys = [x * x, x * y + y * y, y**3]
    M = PresentationMatrix(
        R,
        GradedFreeModule(tuple(p.degree() for p in polys)),
        GradedFreeModule((0,)),
        [{0: p} for p in polys],
    )
    S = syzygies(M)
    assert S.source.rank >= 2
    assert M.composes_to_zero(S)
    # and the syzygies of the syzygies still compose to zero
    S2 = syzygies(S)
    assert S.composes_to_zero(S2)


def test_syzygy_of_nonzerodivisor_is_zero():
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    M = PresentationMatrix(
        R, GradedFreeModule((2,)), GradedFreeModule((0,)), [{0: x * x + y * y}]
    )
    assert syzygies(M).source.rank == 0


def _module_vectors(P):
    """The columns of a presentation matrix as kernel term dicts."""
    return [
        {e + (r,): c for r, p in col.items() for e, c in p.terms} for col in P.columns
    ]


def _generates_within(P, Q):
    """Whether every column of P lies in the submodule Q's columns generate.

    Q's columns go through the groebner kernel under a term-over-position
    order; a column is a member when same-component division by that
    module basis leaves no remainder.
    """
    field = Q.ring.field
    pk = groebner._Packing(
        Q.ring.order, Q.ring.nvars, 8, components=Q.target.rank, twists=Q.target.twists
    )
    basis, _, pk, _ = groebner._buchberger_kernel(_module_vectors(Q), pk, field)
    reducers = groebner._reducers(basis, pk)
    return all(
        not groebner._reduce(pk.pack_terms(v.items()), reducers, pk, field, full=False)
        for v in _module_vectors(P)
    )


def test_syzygies_of_the_2_31_generator_row():
    # The module kernel's pair criteria make this a tier-1 test; plain
    # Buchberger on module vectors ran for minutes here.
    mres = minimal_free_resolution(build_ideal(FamilyParams.parse("2:(3,1)")))
    M, second = mres.matrices[0], mres.matrices[1]
    S = syzygies(M)
    assert M.composes_to_zero(S)
    assert _generates_within(S, second)
    assert _generates_within(second, S)


def test_syzygies_reports_a_non_homogeneous_column_as_a_bug(monkeypatch):
    # Homogeneous entries give homogeneous syzygies, so a mixed-degree
    # column is an internal failure, not invalid input.
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    M = PresentationMatrix(
        R, GradedFreeModule((1, 1)), GradedFreeModule((0,)), [{0: x}, {0: y}]
    )
    kernel = resolution._buchberger_kernel

    def mixed_degrees(*args, **kwargs):
        basis, truncated, pk, stats = kernel(*args, **kwargs)
        basis[-1].tail += ((pk.pack((0, 0, 1)), R.field.one),)
        return basis, truncated, pk, stats

    monkeypatch.setattr(resolution, "_buchberger_kernel", mixed_degrees)
    with pytest.raises(InternalError):
        syzygies(M)


def test_presentation_matrix_validation():
    R = small_ring()
    x = R.variable("x")
    with pytest.raises(ValidationError):
        PresentationMatrix(
            R, GradedFreeModule((1,)), GradedFreeModule((0,)), [{0: x * x}]
        )
    with pytest.raises(ValidationError):
        PresentationMatrix(
            R, GradedFreeModule((1, 1)), GradedFreeModule((0,)), [{0: x}]
        )


# ---------------------------------------------- orders, fields, rescaling

def _permuted_grevlex(nvars):
    perm = list(range(nvars))
    random.Random(5).shuffle(perm)
    return MonomialOrder("grevlex", perm)


ORDER_CASES = {
    "caviglia(4) lex": (lambda order: caviglia_ideal(4, order=order), "lex"),
    "2:(2,1) lex": (lambda order: build_ideal(FamilyParams(2, (2, 1)), order=order), "lex"),
    "mccullough(2,1,3) permuted": (
        lambda order: mccullough_ideal(2, 1, 3, order=order), "permuted"
    ),
    "2:(2,1) permuted": (
        lambda order: build_ideal(FamilyParams(2, (2, 1)), order=order), "permuted"
    ),
}


@pytest.mark.parametrize("name", sorted(ORDER_CASES))
def test_resolution_under_other_orders(name):
    # The tower's Schreyer keys read the component apart from the
    # exponents; under lex or a permuted order a mix-up shows here.
    make, kind = ORDER_CASES[name]
    grevlex = make(None)
    if kind == "permuted":
        order = _permuted_grevlex(grevlex.ring.nvars)
    else:
        order = MonomialOrder(kind)
    ideal = make(order)
    gb = buchberger(ideal)
    nonmin = schreyer_resolution(gb)
    assert nonmin.check_complex()
    mres = nonmin.minimalize()
    assert mres.check_complex()
    assert mres.is_minimal_complex()
    table = mres.betti()
    assert hilbert_crosscheck(table, gb.hilbert_numerator())
    assert table == resolve(grevlex)
    M = mres.matrices[0]
    assert M.composes_to_zero(syzygies(M))


DIFFERENTIAL = {
    "caviglia(4)": lambda field: caviglia_ideal(4, field),
    "mccullough(2,1,3)": lambda field: mccullough_ideal(2, 1, 3, field),
    "2:(1,1)": lambda field: build_ideal(FamilyParams.parse("2:(1,1)"), field),
    "2:(2,1)": lambda field: build_ideal(FamilyParams.parse("2:(2,1)"), field),
}


def _leads_and_table(ideal):
    gb = buchberger(ideal)
    return [m.exps for m in gb.leading_monomials()], resolve(gb)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_rationals_agree_with_prime_field(name):
    make = DIFFERENTIAL[name]
    assert _leads_and_table(make(QQ)) == _leads_and_table(make(PrimeField(32003)))


def _rescaled(ideal, rng):
    """The ideal's image under a random diagonal rescaling x_i -> c_i x_i."""
    ring = ideal.ring
    p = ring.field.p
    scale = [rng.randrange(1, p) for _ in range(ring.nvars)]
    gens = []
    for gen in ideal.generators:
        terms = {}
        for exps, c in gen.terms:
            for s, e in zip(scale, exps):
                c = c * pow(s, e, p) % p
            terms[exps] = c
        gens.append(ring.poly(terms))
    return IdealPresentation(ring, gens)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_diagonal_rescaling_invariance(name, seed):
    ideal = DIFFERENTIAL[name](PrimeField(32003))
    scaled = _rescaled(ideal, random.Random(seed))
    assert scaled.generators != ideal.generators
    assert _leads_and_table(scaled) == _leads_and_table(ideal)


@pytest.mark.parametrize(
    "name, ideal, ranks",
    [
        ("2:(1,1)", lambda: build_ideal(FamilyParams.parse("2:(1,1)")), [1, 5, 9, 7, 2]),
        (
            "2:(2,1)",
            lambda: build_ideal(FamilyParams.parse("2:(2,1)")),
            [1, 12, 39, 59, 47, 19, 3],
        ),
        ("caviglia(5)", lambda: caviglia_ideal(5), [1, 7, 15, 13, 4]),
        ("mccullough(2,1,3)", lambda: mccullough_ideal(2, 1, 3), [1, 6, 12, 11, 5, 1]),
        ("caviglia(4) over QQ", lambda: caviglia_ideal(4, QQ), [1, 6, 12, 10, 3]),
    ],
)
def test_nonminimal_ranks_pinned(name, ideal, ranks):
    # The tower's retained-pair selection and the level-1 order fix the
    # ranks of every level.
    assert [m.rank for m in schreyer_resolution(ideal()).modules] == ranks


# ------------------------------------------------ the Schreyer tower's output

def _chain_digest(res):
    """sha256 of a resolution's stored chain, rows and terms sorted."""
    twists, cols = res._chain()
    parts = [sorted(tw.items()) for tw in twists]
    for level in cols[1:]:
        parts.append(sorted(
            (cid, sorted((rid, sorted(poly.items())) for rid, poly in col.items()))
            for cid, col in level.items()
        ))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# name: (ideal, degree limit, digest of `schreyer_resolution`'s chain,
# digest of the chain `_schreyer_tower` makes from the basis records in
# the `GroebnerBasis` element order).  Both columns were measured when
# the tower's reducers went shortest live tail first: that moved the
# tails of six chains, not their leads or twists.  The element-order
# digests of the two unmoved chains date from before the level-1 sort.
CHAIN_DIGESTS = {
    "2:(2,1)": (
        _family("2:(2,1)"),
        None,
        "cb78746c6e74a65a3542d9d5ee3183da564504b0f4f707f5c53c97c70522eab7",
        "7f6764fb8dd41413686ebf51bb9e67794ba65082df0af8b51e84fb4796a1e07b",
    ),
    "2:(2,1) lex": (
        _family("2:(2,1)", order=MonomialOrder("lex")),
        None,
        "5162061b39a8cf21d8cb475fc5d37fb630f73adf4de07c53298621463b16fc1e",
        "1f42eef816dc9dd43040f40c70a14815c24a29ed8063e645e4148bd64af544d4",
    ),
    "2:(2,1) permuted": (
        _family("2:(2,1)", order=_permuted_grevlex(6)),
        None,
        "8570a585039b429554a78fb2df8b59f0b8d5bea04a6a675438da2c412fe16804",
        "96e0d29b5998801c25400298c66a389c0b0670c0cca1a95986700cf5a5cc3a42",
    ),
    "mccullough(2,1,3) over QQ": (
        lambda: mccullough_ideal(2, 1, 3, QQ),
        None,
        "50635c7790253b2471a8ca6437ea158949ba70c5174bf71e29d58eb477e55b7f",
        "f6fbf1cd09a1c31e2f7bfe6f98806b7a62621d1b3efe013802fee3397a1fde8d",
    ),
    "caviglia(4) over F_101 to degree 9": (
        lambda: caviglia_ideal(4, PrimeField(101)),
        9,
        "47d92bd35b84fbc138e21aaf53292832e410519d151e8f1d2024dabe24b6ae2e",
        "40b209d0bff5c1a69ac7e3a1147f14041b554e030cbe5a9f7caaf14ee4ebfaf5",
    ),
    # The resolve workload's three large chains.
    "2:(3,1)": (
        _family("2:(3,1)"),
        None,
        "0e7454e238b3dee93b49405961cda2742f79ae9d26ce054dff3675669d53acc4",
        "d380524acae4c4a002f014107b9ec7db69b50332fba44185c0f57a03ee626bcf",
    ),
    "2:(2,1,2)": (
        _family("2:(2,1,2)"),
        None,
        "8d0de7e7ab40efa865dec76c7732fbe13db7cbbb351ab8d09000566e7a81bcdf",
        "8e2ed9a52d5f7f22b6559d26d7f046d8d9829f548d58e14b8004f15412bc8bae",
    ),
    "mccullough(3,1,3)": (
        lambda: mccullough_ideal(3, 1, 3),
        None,
        "42bfd9be90cadbb518f3b4c42cdcc85c64ea25f0807a04a1f2b26c7bcded5b6e",
        "e7cd91626cafe29846b10c5858cd4464c5252a4e79ca4b636adf23c749f620f2",
    ),
}


def _tower_in(gb, gens, degree_limit=None):
    """`_schreyer_tower` on ``gens``, ``gb``'s records in any order, as a
    non-minimal resolution: `schreyer_resolution` without its level-1 sort."""
    ring = gb.ring
    pk, (twists, levels, _, stats) = groebner._widening(
        lambda pk: (pk, resolution._schreyer_tower(
            pk.convert(gens, gb._pk), pk, ring.field, degree_limit=degree_limit
        )),
        gb._pk,
    )
    res = resolution.FreeResolution(ring, twists, (pk, levels), minimal=False)
    res.stats = stats
    return res


@pytest.mark.parametrize("name", sorted(CHAIN_DIGESTS))
def test_nonminimal_chain_pinned(name):
    # Every twist, column, quotient term and coefficient of the tower's
    # chain: a changed reducer choice or Schreyer order shows here.
    make, limit, digest, _ = CHAIN_DIGESTS[name]
    assert _chain_digest(schreyer_resolution(make(), degree_limit=limit)) == digest


@pytest.mark.parametrize("name", sorted(CHAIN_DIGESTS))
def test_element_order_tower_keeps_the_earlier_chains(name):
    # Fed the records in the basis's element order, the tower makes the
    # chain pinned for that order: only level 1's numbering differs.
    make, limit, _, digest = CHAIN_DIGESTS[name]
    gb = buchberger(make(), degree_limit=limit)
    assert _chain_digest(_tower_in(gb, gb._gens, limit)) == digest


def _schreyer_leads(res):
    """Each generator's leading term in the order the lower levels induce.

    Level 1 compares the column's monomials by the ring's order.  A term
    ``m e_r`` of level L is expanded through the leads below it: ``m`` times
    the lead ``n e_s`` of r is the level-(L-1) term ``(m n) e_s``, and so on
    down to a monomial.  Terms compare by that monomial, then by the chain
    of components met on the way (level 1 first), a smaller index being the
    larger term.  Returns one ``{id: (exps, component)}`` per level.
    """
    order = res.ring.order
    twists, cols = res._chain()
    leads = [None]

    def weight(level, exps, comp):
        chain = []
        while level >= 1:
            chain.append(comp)
            lead_exps, comp = leads[level][comp]
            exps = tuple(a + b for a, b in zip(exps, lead_exps))
            level -= 1
        return order.key(exps), tuple(-c for c in reversed(chain))

    for level in range(1, len(twists)):
        below = level - 1
        leads.append({
            cid: max(
                ((e, rid) for rid, poly in col.items() for e in poly),
                key=lambda t: weight(below, *t),
            )
            for cid, col in cols[level].items()
        })
    return leads


@pytest.mark.parametrize(
    "order", [MonomialOrder(), _permuted_grevlex(6)], ids=["grevlex", "permuted"]
)
def test_syzygy_leads_follow_the_schreyer_order(order):
    res = schreyer_resolution(_family("2:(2,1)", order=order)())
    field = res.ring.field
    leads = _schreyer_leads(res)
    assert len(leads) > 3
    for level in range(2, len(leads)):
        below = leads[level - 1]
        for cid, col in res._chain()[1][level].items():
            # The lead is mij e_i with coefficient 1, and some later e_j
            # with the lead component of e_i has lcm(lm_i, lm_j) = mij lm_i
            # and carries -lcm/lm_j.
            mij, i = leads[level][cid]
            assert col[i][mij] == field.one
            lm_i, comp = below[i]
            lcm = tuple(a + b for a, b in zip(mij, lm_i))
            assert any(
                j > i
                and comp_j == comp
                and tuple(max(a, b) for a, b in zip(lm_i, lm_j)) == lcm
                and col.get(j, {}).get(tuple(b - a for a, b in zip(lm_j, lcm)))
                == field.neg(field.one)
                for j, (lm_j, comp_j) in below.items()
            )


# ------------------------------------- packed levels and their tuple columns

def _tuple_constant_ranks(twists, cols, field, nvars):
    """The constant ranks read from the tuple columns: the route the packed
    levels replaced, ``{(i, j): rank}`` of each nonzero constant block."""
    zero_exps = (0,) * nvars
    ranks = {}
    for i in range(1, len(twists)):
        blocks = {}
        for cid, col in cols[i].items():
            j = twists[i][cid]
            entries = {
                rid: poly[zero_exps]
                for rid, poly in col.items()
                if twists[i - 1][rid] == j and zero_exps in poly
            }
            if entries:
                blocks.setdefault(j, []).append(entries)
        for j, block in blocks.items():
            ranks[(i, j)] = resolution._rank(block, field)
    return ranks


ORACLE_IDEALS = {
    "2:(2,1)": (lambda f, o: build_ideal(FamilyParams.parse("2:(2,1)"), f, order=o), 12),
    "2:(3,1)": (lambda f, o: build_ideal(FamilyParams.parse("2:(3,1)"), f, order=o), 15),
    "caviglia(4)": (lambda f, o: caviglia_ideal(4, f, order=o), 13),
    "mccullough(2,1,3)": (lambda f, o: mccullough_ideal(2, 1, 3, f, order=o), 7),
}
ORACLE_FIELDS = {"F_32003": PrimeField(32003), "F_101": PrimeField(101), "QQ": QQ}
ORACLE_CASES = [
    (name, field, order, limited)
    for name in sorted(ORACLE_IDEALS)
    for field in sorted(ORACLE_FIELDS)
    for order in ("grevlex", "lex", "permuted")
    for limited in (False, True)
    # The lex basis of 2:(3,1) alone does not finish in a minute.
    if (name, order) != ("2:(3,1)", "lex")
]


@pytest.mark.parametrize("name, field, order, limited", ORACLE_CASES)
def test_packed_constant_ranks_match_tuple_columns(name, field, order, limited):
    # The tower marks a constant entry by one int comparison as it makes
    # the term; the tuple columns look for the zero exponent vector.
    make, limit = ORACLE_IDEALS[name]
    ideal = make(ORACLE_FIELDS[field], None)
    if order == "permuted":
        ideal = make(ORACLE_FIELDS[field], _permuted_grevlex(ideal.ring.nvars))
    elif order == "lex":
        ideal = make(ORACLE_FIELDS[field], MonomialOrder("lex"))
    res = schreyer_resolution(ideal, degree_limit=limit if limited else None)
    assert res.truncated_at == (limit if limited else None)
    packed = resolution._constant_ranks(res._twists, res._packed[1], res.ring.field)
    oracle = _tuple_constant_ranks(*res._chain(), res.ring.field, res.ring.nvars)
    assert packed and packed == oracle


# ------------------------------------------- live components: the reference route

def _tracked_division(terms, reducers, pk, field):
    """Divide a packed term dict as `groebner._reduce` does with ``full``
    false: largest term first, by the first record ``reducers(m)`` offers
    whose lead divides it.  Returns the remainder, empty when every term
    was divided, and one ``(m, idx, c)`` per step: ``c m`` was divided by
    record ``idx``.  No term is divided twice, so no (record, shift)
    repeats."""
    work = dict(terms)
    heap = list(work)
    heapq.heapify(heap)
    steps = []
    while heap:
        m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        red = next((r for r in reducers(m) if not (m - r.lm) & pk.guard), None)
        if red is None:
            work[m] = c
            return work, steps
        steps.append((m, red.idx, c))
        for e, c2 in red.tail:
            e += m - red.lm
            v = field.sub(work.get(e, field.zero), field.mul(c, c2))
            if e not in work:
                heapq.heappush(heap, e)
            if v == field.zero:
                work.pop(e, None)
            else:
                work[e] = v
    return work, steps


def _reference_tower(gens, pk, field, degree_limit=None):
    """The tower's level loop on full records: its S-vectors and reducers
    keep the tail terms in components that hold none of the level's leads.

    Asserts that every full S-vector reduces to zero, which checks the
    cancellation of the terms `_schreyer_tower` leaves out.  The reducers
    of a component run as the tower's do: by the length of the record's
    tail restricted to the level's live components, ties by index.
    Returns ``(twists, levels)`` in the tower's layout.
    """
    one = field.one
    neg_one = field.neg(one)
    lvl = pk.with_components(1)
    basis = [groebner._Gen(g.lm, g.tail, i) for i, g in enumerate(gens)]
    twists = [{0: 0}, {b.idx: pk.deg(b.lm) for b in basis}]
    levels = [(lvl.cw, basis, [(b.idx, {0: one}) for b in basis if not b.lm])]
    while True:
        twist = twists[-1]
        pairs = [
            (i, j, mij)
            for i, j, mij in resolution._retained_pairs(basis, lvl, pk)
            if degree_limit is None or pk.deg(mij) + twist[i] <= degree_limit
        ]
        if not pairs:
            return twists, levels
        pairs.sort(key=lambda t: (t[0], t[2], t[1]))
        nxt = pk.with_components(len(basis))
        cw, cw2, cmask = lvl.cw, nxt.cw, lvl.cmask
        live = {b.lm & cmask for b in basis}
        reducers = groebner._reducers(
            sorted(basis, key=lambda b: sum(t & cmask in live for t, _ in b.tail)), lvl
        )
        lms = [b.lm for b in basis]
        new_basis, new_twists, scalars = [], {}, []
        for i, j, mij in pairs:
            spoly = groebner._spoly(basis[j], basis[i], lvl, field)
            rem, quot = _tracked_division(spoly, reducers, lvl, field)
            assert not rem, "a full S-vector failed to reduce to zero"
            lcm = lms[i] + (mij << cw)
            terms = [(lcm, j, neg_one), *quot]
            tail = tuple((((m >> cw) << cw2) + r, c) for m, r, c in terms)
            k = len(new_basis)
            new_basis.append(groebner._Gen(((lcm >> cw) << cw2) + i, tail, k))
            new_twists[k] = twist[i] + pk.deg(mij)
            units = {r: c for m, r, c in [(lcm, i, one), *terms] if m == lms[r]}
            if units:
                scalars.append((k, units))
        twists.append(new_twists)
        levels.append((cw2, new_basis, scalars))
        basis = new_basis
        lvl = nxt


def _records(levels):
    return [
        (cw, [(g.lm, g.tail, g.idx) for g in records], scalars)
        for cw, records, scalars in levels
    ]


def _oracle_ideal(name, field, order):
    make, limit = ORACLE_IDEALS[name]
    ideal = make(ORACLE_FIELDS[field], None)
    if order == "permuted":
        ideal = make(ORACLE_FIELDS[field], _permuted_grevlex(ideal.ring.nvars))
    elif order == "lex":
        ideal = make(ORACLE_FIELDS[field], MonomialOrder("lex"))
    return ideal, limit


# The eight bases of the benchmark's resolve workload, over F_32003.
RESOLVE_BASES = {
    "2:(3,1)": _family("2:(3,1)"),
    "2:(2,1,2)": _family("2:(2,1,2)"),
    "mccullough(3,1,3)": lambda: mccullough_ideal(3, 1, 3),
    **{f"caviglia({d})": (lambda d=d: caviglia_ideal(d)) for d in range(3, 8)},
}


@functools.cache
def _resolve_base(name):
    gb = buchberger(RESOLVE_BASES[name]())
    return gb, schreyer_resolution(gb)


def _revlex_leads_first(gb):
    """``gb``'s records in the level-1 order, a copy of the tower's key:
    compared from the last variable of the order's ranking to the first,
    the larger exponent first."""
    order, unpack = gb.ring.order, gb._pk.unpack
    return sorted(gb._gens, key=lambda g: tuple(-e for e in order._arrange(unpack(g.lm))[::-1]))


def _assert_matches_reference(gb, res, degree_limit=None):
    pk, levels = res._packed
    twists, ref_levels = _reference_tower(
        pk.convert(_revlex_leads_first(gb), gb._pk), pk, res.ring.field, degree_limit
    )
    assert res._twists == twists
    assert _records(levels) == _records(ref_levels)


@pytest.mark.parametrize(
    "case",
    [("oracle",) + c for c in ORACLE_CASES] + [("resolve", name) for name in RESOLVE_BASES],
    ids=lambda c: "-".join(map(str, c)),
)
def test_tower_matches_reference_route(case):
    # Leaving out the terms in components without a lead of the level
    # changes no quotient: every twist, record and scalar is the same.
    if case[0] == "resolve":
        gb, res = _resolve_base(case[1])
        limit = None
    else:
        gb, res, limit = _oracle_resolution(*case[1:])
    _assert_matches_reference(gb, res, limit)


# ------------------------------------------- a regularity bound from the socle

def _socle_witness_of(ideal, name):
    """The socle witness of a family (``g:(...)``), ``caviglia(d)`` or
    ``mccullough(m,n,d)`` ideal, over its table."""
    table = ideal.ring.table
    if name.startswith("caviglia"):
        return caviglia_witness(int(name[9:-1]), table)
    if name.startswith("mccullough"):
        return mccullough_witness(*map(int, name[11:-1].split(",")), table)
    return socle_witness(FamilyParams.parse(name), table)


@pytest.mark.parametrize("name, want", [
    ("2:(3,1)", (10, 12)), ("2:(2,1,2)", (20, 41)), ("mccullough(3,1,3)", (6, 7)),
    *((f"caviglia({d})", (4 * d - 6, d * d - 2)) for d in range(3, 8)),
    ("2:(2,1)", (8, 9)), ("2:(2,2)", (12, 17)),
])
def test_socle_degree_bounds_the_regularity(name, want):
    # A socle element of degree delta lies in H^0_m(R/I), so reg(R/I) >=
    # delta (Eisenbud, The Geometry of Syzygies, ch. 4): a check on each
    # resolved table with a witness, the witness proved a socle element
    # by the stage induction.
    if name in RESOLVE_BASES:
        ideal = RESOLVE_BASES[name]()
        table = _resolve_base(name)[1].minimalize().betti()
    else:
        ideal = build_ideal(FamilyParams.parse(name))
        table = resolve(ideal)
    witness = _socle_witness_of(ideal, name)
    report = verify_socle_ideal(ideal, witness)
    assert report.conclusion and report.fallbacks == 0
    assert (witness.degree, table.reg) == want
    assert witness.degree <= table.reg


# ------------------------------------------------ the reducer choice

@functools.cache
def _oracle_resolution(name, field, order, limited):
    """The basis, `schreyer_resolution` and degree limit of an oracle case."""
    ideal, limit = _oracle_ideal(name, field, order)
    limit = limit if limited else None
    gb = buchberger(ideal, degree_limit=limit)
    return gb, schreyer_resolution(gb, degree_limit=limit), limit


def _first_in_list_order(monkeypatch, gb, limit=None):
    """The tower under the rule shortest live tails replaced: each bucket
    in index order, so a term goes to the first dividing record."""
    with monkeypatch.context() as m:
        m.setattr(resolution, "_reducer_rank", lambda rec: 0)
        return schreyer_resolution(gb, degree_limit=limit)


def _frame(res):
    """What no reducer choice may move: the twists, every level's retained
    pairs, the ranks and the Betti table."""
    pk, levels = res._packed
    retained, below = [], 1
    for _, records, _ in levels:
        retained.append(resolution._retained_pairs(records, pk.with_components(below), pk))
        below = len(records)
    return res._twists, retained, [m.rank for m in res.modules], res.betti()


def _assert_reducer_choice_invariant(monkeypatch, gb, res, limit=None):
    """The old rule's tower on ``gb`` has ``res``'s frame, and an
    untruncated table passes the Hilbert cross-check; returns whether the
    records differ."""
    old = _first_in_list_order(monkeypatch, gb, limit)
    assert _frame(old) == _frame(res)
    if res.truncated_at is None:
        assert hilbert_crosscheck(res.betti(), gb.hilbert_numerator())
    return _records(old._packed[1]) != _records(res._packed[1])


def test_reducer_choice_moves_no_frame_of_the_resolve_bases(monkeypatch):
    # Any dividing record gives a syzygy with the same lead, so the two
    # rules give the same frame.  The old rule's counters are those the
    # tower had before shortest live tails.
    keys = ("pairs", "steps", "stored_terms", "live_terms")
    old, moved = dict.fromkeys(keys, 0), set()
    for name in RESOLVE_BASES:
        gb, res = _resolve_base(name)
        if _assert_reducer_choice_invariant(monkeypatch, gb, res):
            moved.add(name)
        for key, n in _first_in_list_order(monkeypatch, gb).stats.items():
            old[key] += n
    assert old == {"pairs": 8440, "steps": 63561, "stored_terms": 71359, "live_terms": 41482}
    assert {"2:(3,1)", "2:(2,1,2)", "mccullough(3,1,3)"} <= moved


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_reducer_choice_moves_no_frame_of_the_oracle_cases(monkeypatch, case):
    _assert_reducer_choice_invariant(monkeypatch, *_oracle_resolution(*case))


@pytest.mark.parametrize("field", sorted(ORACLE_FIELDS))
def test_reducer_choice_moves_no_frame_of_random_ideals(monkeypatch, field):
    # Small towers: on most of them the first dividing record already
    # has the shortest live tail.
    rng = random.Random(f"reducer choice {field}")
    moved = 0
    for kind in ("grevlex", "lex", "permuted"):
        for _ in range(16):
            gb = buchberger(_random_ideal(rng, ORACLE_FIELDS[field], kind))
            moved += _assert_reducer_choice_invariant(monkeypatch, gb, schreyer_resolution(gb))
    assert moved >= 4


@pytest.mark.parametrize("name", ["2:(3,1)", "2:(2,1,2)", "mccullough(3,1,3)"])
def test_shortest_tail_chains_are_complexes(name):
    # The chains whose tails the reducer rule changes; a fresh tower, so
    # the cached one keeps no tuple columns.
    res = schreyer_resolution(_resolve_base(name)[0])
    mres = res.minimalize()
    assert res.check_complex() and mres.is_minimal_complex()
    assert [m.rank for m in mres.modules] == res.betti().totals()


@pytest.mark.parametrize("name", sorted(RESOLVE_BASES))
def test_tower_levels_numbered_in_lead_component_order(name):
    # The packed Schreyer tie-break reads a smaller index as a larger
    # term, which is the order of the chains of leads only while each
    # level's records run in nondecreasing lead component and a record's
    # id is its position.
    _, res = _resolve_base(name)
    for cw, records, _ in res._packed[1]:
        comps = [g.lm & ((1 << cw) - 1) for g in records]
        assert comps == sorted(comps), name
        assert [g.idx for g in records] == list(range(len(records))), name


def _minimal_quotient_pairs(leads):
    """The retained pairs of a level from its leads, ``(exps, component)``
    in id order: for each i the quotients lcm(lm_i, lm_j)/lm_i over the
    later same-component j, kept when no other quotient of i divides them,
    an equal one going to the smallest j.  Returns the ``(i, j, quotient)``
    set and whether some i had equal quotients."""
    pairs, tied = set(), False
    for i, (ei, ci) in enumerate(leads):
        first = {}
        for j in range(i + 1, len(leads)):
            ej, cj = leads[j]
            if cj == ci:
                q = tuple(max(a, b) - a for a, b in zip(ei, ej))
                tied |= q in first
                first.setdefault(q, j)
        for q, j in first.items():
            if not any(p != q and all(a <= b for a, b in zip(p, q)) for p in first):
                pairs.add((i, j, q))
    return pairs, tied


def _assert_retained_pairs_minimal(res):
    """`_retained_pairs` on every stored level of ``res`` against
    `_minimal_quotient_pairs`; returns whether some level had a tie."""
    pk, levels = res._packed
    tied = False
    below = 1
    for _, records, _ in levels:
        lvl = pk.with_components(below)
        leads = [(e[:-1], e[-1]) for e in map(lvl.unpack, (g.lm for g in records))]
        want, ties = _minimal_quotient_pairs(leads)
        got = {(i, j, pk.unpack(mij)) for i, j, mij in resolution._retained_pairs(records, lvl, pk)}
        assert got == want
        tied |= ties
        below = len(records)
    return tied


@pytest.mark.parametrize(
    "case",
    [("resolve", name) for name in RESOLVE_BASES]
    + [("oracle", name, order) for name, order in sorted({c[::2] for c in ORACLE_CASES})],
    ids=lambda c: "-".join(c),
)
def test_retained_pairs_are_the_minimal_quotients(case):
    # Exponent tuples, not the packed quotient and guard test.
    if case[0] == "resolve":
        res = _resolve_base(case[1])[1]
    else:
        res = schreyer_resolution(_oracle_ideal(case[1], "F_32003", case[2])[0])
    _assert_retained_pairs_minimal(res)


def test_retained_pairs_keep_the_first_of_equal_quotients():
    rng = random.Random("retained pairs")
    tied = 0
    for kind in ("grevlex", "lex", "permuted"):
        for _ in range(4):
            tied += _assert_retained_pairs_minimal(
                schreyer_resolution(_random_ideal(rng, PrimeField(32003), kind))
            )
    assert tied >= 6


def _level_work(res):
    """The tower's counters recomputed from its stored levels."""
    levels = res._packed[1]
    reduced = levels[:-1]
    stored = live = 0
    for cw, records, _ in reduced:
        cmask = (1 << cw) - 1
        leads = {g.lm & cmask for g in records}
        stored += sum(len(g.tail) for g in records)
        live += sum(t & cmask in leads for g in records for t, _ in g.tail)
    made = [g for _, records, _ in levels[1:] for g in records]
    # A record's tail is the pair's second term and one term per quotient.
    steps = sum(len(g.tail) - 1 for g in made)
    return {"pairs": len(made), "steps": steps, "stored_terms": stored, "live_terms": live}


TOWER_WORK = {
    # pairs, steps, stored_terms, live_terms
    "2:(3,1)": (1605, 17501, 19218, 9464),
    "2:(2,1,2)": (3648, 25670, 28716, 14222),
    "mccullough(3,1,3)": (3027, 20460, 23505, 12517),
    "caviglia(3)": (18, 20, 32, 18),
    "caviglia(4)": (25, 29, 44, 26),
    "caviglia(5)": (32, 38, 56, 34),
    "caviglia(6)": (39, 47, 68, 42),
    "caviglia(7)": (46, 56, 80, 50),
}


def test_tower_work_pinned():
    # The retained pairs and the quotients are those of the full route;
    # the S-vectors and reducers see 36,373 of the 71,719 stored tail terms.
    keys = ("pairs", "steps", "stored_terms", "live_terms")
    total = dict.fromkeys(keys, 0)
    for name, want in TOWER_WORK.items():
        res = _resolve_base(name)[1]
        assert res.stats == dict(zip(keys, want)) == _level_work(res), name
        assert res.minimalize().stats is res.stats
        for key in keys:
            total[key] += res.stats[key]
    assert total == {
        "pairs": 8440, "steps": 63821, "stored_terms": 71719, "live_terms": 36373
    }


def _corrupt_level_two(monkeypatch, live):
    """Double the coefficient of the first level-2 tail term that lies in a
    live component (or in a dead one), as the tower starts that level."""
    retained = resolution._retained_pairs
    seen = []

    def corrupting(basis, lvl, pk):
        seen.append(lvl)
        if len(seen) == 2:
            leads = {b.lm & lvl.cmask for b in basis}
            b, n = next(
                (b, n) for b in basis for n, (t, _) in enumerate(b.tail)
                if (t & lvl.cmask in leads) == live
            )
            t, c = b.tail[n]
            b.tail = b.tail[:n] + ((t, c * 2 % 32003),) + b.tail[n + 1 :]
        return retained(basis, lvl, pk)

    monkeypatch.setattr(resolution, "_retained_pairs", corrupting)


def test_corrupted_live_tail_fails_the_zero_check(monkeypatch):
    # A level-2 record with one wrong live coefficient is no syzygy, and
    # the S-vectors through it no longer reduce to zero.
    _corrupt_level_two(monkeypatch, live=True)
    with pytest.raises(InternalError, match="an S-vector failed to reduce to zero"):
        schreyer_resolution(_family("2:(1,1)")())


def test_corrupted_dead_tail_is_caught_by_the_reference(monkeypatch):
    # A wrong coefficient in a component without a lead of the level is
    # left out of every S-vector and reducer, so the tower's zero check
    # cannot see it; the reference route's full S-vectors do.
    gb = buchberger(_family("2:(2,1)")())
    _corrupt_level_two(monkeypatch, live=False)
    res = schreyer_resolution(gb)
    monkeypatch.undo()
    _corrupt_level_two(monkeypatch, live=False)
    with pytest.raises(AssertionError, match="a full S-vector failed to reduce to zero"):
        _assert_matches_reference(gb, res)


@pytest.mark.parametrize("elements", ["xy, x", "x, xy", "1, x", "1"])
def test_constant_entries_of_a_basis_that_is_not_reduced(elements):
    # A lead that divides another gives a constant entry: the syzygy of xy
    # and x is e_0 - y e_1, a constant lead, and that of x and xy is
    # y e_0 - e_1, a constant second term.  The unit 1 is one in level 1.
    R = small_ring()
    x, y = R.variable("x"), R.variable("y")
    polys = {"x": x, "xy": x * y, "1": R.one()}
    res = schreyer_resolution(
        GroebnerBasis(R, [polys[p] for p in elements.split(", ")], reduced=False)
    )
    ranks = resolution._constant_ranks(res._twists, res._packed[1], R.field)
    assert ranks and ranks == _tuple_constant_ranks(*res._chain(), R.field, R.nvars)
    assert res.betti() == _counted(res)
    want = [] if "1" in elements else [(0, 0, 1), (1, 1, 1)]
    assert res.betti().triples() == want


def test_betti_modules_and_length_leave_the_columns_unbuilt():
    res = schreyer_resolution(_family("2:(2,1)")())
    table = res.betti()
    assert [m.rank for m in res.modules] == [1, 12, 39, 59, 47, 19, 3]
    assert res.length == 6 and "non-minimal" in repr(res)
    assert res._cols is None
    assert res.minimalize().betti() == table and res._cols is None
    assert len(res.matrices) == 6 and res._cols is not None


@pytest.mark.parametrize("cap", [1, 2, 4])
def test_level_cap_raises_with_the_first_levels(cap):
    ideal = _family("2:(2,1)")()
    with pytest.raises(ResourceLimitError) as info:
        schreyer_resolution(ideal, level_cap=cap)
    twists, cols = schreyer_resolution(ideal)._chain()
    assert info.value.partial == (twists[: cap + 1], cols[: cap + 1])
    assert len(schreyer_resolution(ideal, level_cap=6)._chain()[0]) == 7


# ------------------------------------------------ the level-1 order

def _random_ideal(rng, field, kind):
    """Two to four random forms of degree 2 or 3, of at most three terms,
    in 3-5 variables; 3-4 over QQ, where the coefficients of a 5-variable
    tower can reach hundreds of digits and take minutes."""
    nvars = rng.randrange(3, 5 if field == QQ else 6)
    perm = list(range(nvars))
    rng.shuffle(perm)
    order = MonomialOrder("grevlex", perm) if kind == "permuted" else MonomialOrder(kind)
    R = PolynomialRing(VariableTable.named([f"x{k}" for k in range(nvars)]), field, order)
    gens = [
        random_homogeneous(R, rng, rng.randrange(2, 4), max_terms=3)
        for _ in range(rng.randrange(2, 5))
    ]
    return IdealPresentation(R, gens)


@pytest.mark.parametrize("kind", ["grevlex", "lex", "permuted"])
@pytest.mark.parametrize("field", sorted(ORACLE_FIELDS))
def test_betti_table_invariant_under_level_one_order(field, kind):
    # Level 1 lies in one component, so the basis's element order, the
    # tower's reverse-lexicographic order and a random one all resolve
    # the same module: only the frame may differ.
    rng = random.Random(f"level one {field} {kind}")
    checked = 0
    for _ in range(16):
        gb = buchberger(_random_ideal(rng, ORACLE_FIELDS[field], kind))
        shuffled = list(gb._gens)
        rng.shuffle(shuffled)
        towers = [_tower_in(gb, gb._gens), schreyer_resolution(gb), _tower_in(gb, shuffled)]
        table = towers[1].betti()
        assert all(t.betti() == table for t in towers)
        assert hilbert_crosscheck(table, gb.hilbert_numerator())
        if sum(m.rank for m in towers[0].modules) <= 60:
            checked += 1
            for t in towers:
                mres = t.minimalize()
                assert t.check_complex() and mres.check_complex() and mres.is_minimal_complex()
                assert [m.rank for m in mres.modules] == table.totals()
    assert checked >= 8


@pytest.mark.parametrize("name", ["2:(2,1)", "2:(2,1) lex", "mccullough(2,1,3) over QQ"])
def test_chain_independent_of_basis_element_order(name):
    # The tower sorts the records, so the elements of a reduced basis in
    # any order give the pinned chain.
    make, limit, digest, _ = CHAIN_DIGESTS[name]
    gb = buchberger(make(), degree_limit=limit)
    rng = random.Random(name)
    for _ in range(3):
        elements = list(gb.elements)
        rng.shuffle(elements)
        assert elements != list(gb.elements)
        shuffled = GroebnerBasis(gb.ring, elements, reduced=True)
        assert _chain_digest(schreyer_resolution(shuffled)) == digest


# ------------------------------------------------ negative controls

@pytest.mark.parametrize("level", [1, 2, 4])
def test_corrupted_chain_fails_check_complex(level):
    # One coefficient of one column changes the composite by that term
    # times a nonzero column below (or, at level 1, above), so the
    # check must see it.
    res = schreyer_resolution(_family("2:(2,1)")())
    assert res.check_complex()
    cols = res._chain()[1]
    cid = min(cols[level])
    rid, poly = min(cols[level][cid].items())
    e, c = min(poly.items())
    cols[level][cid][rid] = {**poly, e: c * 2 % 32003}
    assert not res.check_complex()


def test_constant_term_in_a_minimal_chain_fails_is_minimal_complex():
    mres = schreyer_resolution(_family("2:(2,1)")()).minimalize()
    assert mres.is_minimal_complex()
    cols = mres._chain()[1]
    cid = min(cols[2])
    rid, poly = min(cols[2][cid].items())
    cols[2][cid][rid] = {**poly, (0,) * mres.ring.nvars: mres.ring.field.one}
    assert not mres.is_minimal_complex()


# ------------------------------------------------ scalar ranks

def _dense_rank(columns, nrows, field):
    """Rank by Gaussian elimination on dense rows with the field's methods."""
    rows = [[col.get(r, field.zero) for col in columns] for r in range(nrows)]
    rank = 0
    for c in range(len(columns)):
        piv = next((r for r in range(rank, nrows) if rows[r][c] != field.zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][c])
        for r in range(nrows):
            if r != rank and rows[r][c] != field.zero:
                f = field.mul(rows[r][c], inv)
                rows[r] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("field", sorted(ORACLE_FIELDS))
def test_rank_matches_dense_elimination(field):
    F = ORACLE_FIELDS[field]
    rng = random.Random(field)
    deficient = 0
    for _ in range(300):
        nrows = rng.randrange(1, 7)
        columns = [
            {r: F.convert(rng.randrange(1, 4)) for r in range(nrows) if rng.random() < 0.5}
            for _ in range(rng.randrange(1, 7))
        ]
        columns = [col for col in columns if col]
        want = _dense_rank(columns, nrows, F)
        deficient += want < len(columns)
        assert resolution._rank(columns, F) == want
    assert deficient > 50
