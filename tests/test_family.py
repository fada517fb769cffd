import functools
import itertools
import random
import re
import time

import pytest

from idealfam import (
    DomainMismatchError,
    ExponentMatrix,
    FamilyParams,
    IdealPresentation,
    InternalError,
    LemmaReport,
    Monomial,
    MonomialOrder,
    PolynomialRing,
    PrimeField,
    QQ,
    ResourceLimitError,
    SocleReport,
    ValidationError,
    VariableTable,
    build_ideal,
    buchberger,
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
    schreyer_resolution,
    socle_witness,
    stage_count,
    variable_count,
    verification_basis,
    verification_degree,
    verify_lemma,
    verify_socle,
    verify_socle_ideal,
)
from idealfam import family
from idealfam.family import membership_basis
from idealfam.groebner import DEFAULT_PAIR_LIMIT, _Packing


def sweep_params(max_g=4, max_n=3, max_m=4):
    out = []
    for n in range(1, max_n + 1):
        ranges = []
        for i in range(n):
            lo = 0 if i == n - 1 else (1 if i == n - 2 else 2)
            ranges.append(range(lo, max_m + 1))
        for m in itertools.product(*ranges):
            for g in range(2, max_g + 1):
                out.append(FamilyParams(g, m))
    return out


# ------------------------------------------------------------ parameters

def test_params_validation():
    FamilyParams(2, (2, 2, 2))
    FamilyParams(2, (0,))        # n = 1 allows m_1 = 0
    FamilyParams(2, (1, 0))
    with pytest.raises(ValidationError):
        FamilyParams(1, (2,))
    with pytest.raises(ValidationError):
        FamilyParams(2, ())
    with pytest.raises(ValidationError):
        FamilyParams(2, (1, 2, 2))   # m_1 >= 2 required for n = 3
    with pytest.raises(ValidationError):
        FamilyParams(2, (2, 0, 2))   # m_(n-1) >= 1
    with pytest.raises(ValidationError):
        FamilyParams(2, (2, -1))


@pytest.mark.parametrize("g, m", [(2, (2.7, 1)), (2, ("3",)), (2, (True,)), (2, "3"),
                                  (2.0, (1,)), (True, (1,))])
def test_params_refuse_non_integers(g, m):
    with pytest.raises(ValidationError, match="integer"):
        FamilyParams(g, m)


@pytest.mark.parametrize("rows", [((1.5, 2),), (("2", 0),), ((True, 0),), ((1, 0), (0, 1.0))])
def test_exponent_matrix_refuses_non_integers(rows):
    with pytest.raises(ValidationError, match="integers"):
        ExponentMatrix(rows)


def test_params_parse_and_str():
    p = FamilyParams.parse("2:(2,2,2)")
    assert p == FamilyParams(2, (2, 2, 2))
    assert str(p) == "2:(2,2,2)"
    assert FamilyParams.parse(" 3 : ( 4 , 0 ) ") == FamilyParams(3, (4, 0))
    with pytest.raises(ValidationError):
        FamilyParams.parse("2:2,2")
    with pytest.raises(ValidationError):
        FamilyParams.parse("1:(2)")


def test_derived_constants_example():
    cs = derived_constants(FamilyParams(2, (2, 2, 2)))
    assert cs.d == (7, 5, 3)
    assert cs.M == (1, 1, 2)
    assert cs.degree == 7


def test_derived_constants_strictly_decreasing():
    for params in sweep_params(3, 3, 3):
        d = derived_constants(params).d
        assert all(a > b for a, b in zip(d, d[1:]))
        assert d[-1] == params.m[-1] + 1
        assert all(x > 0 for x in d)


# ------------------------------------------------------------- stage sets

def test_enumerate_stage_sets_of_2_222():
    params = FamilyParams(2, (2, 2, 2))
    assert [m.rows for m in enumerate_A(params, 0)] == [((0, 0, 0), (0, 0, 0))]
    assert [m.rows for m in enumerate_A(params, 1)] == [((1, 0, 0), (1, 0, 0))]
    assert [m.rows for m in enumerate_A(params, 2)] == [((1, 1, 0), (1, 1, 0))]
    a3 = {m.rows for m in enumerate_A(params, 3)}
    assert a3 == {
        ((1, 1, 2), (1, 1, 0)),
        ((1, 1, 1), (1, 1, 1)),
        ((1, 1, 0), (1, 1, 2)),
    }


def test_enumerate_empty_when_blocked():
    assert enumerate_A(FamilyParams(2, (2, 1, 2)), 3) == []
    assert enumerate_A(FamilyParams(2, (2, 1, 2)), 2) == []


def test_enumerate_membership_invariant():
    for params in sweep_params(3, 2, 3):
        for k in range(params.n + 1):
            mats = enumerate_A(params, k)
            assert len({m.rows for m in mats}) == len(mats)
            for m in mats:
                assert m.in_stage(params, k)
            keys = [m.colmajor() for m in mats]
            assert keys == sorted(keys)


def test_in_stage_rejections():
    # 2:(2,2,2) has M = (1, 1, 2) and A_1 = {((1,0,0),(1,0,0))}.
    params = FamilyParams(2, (2, 2, 2))
    assert ExponentMatrix(((1, 0, 0), (1, 0, 0))).in_stage(params, 1)
    for rows in (
        ((1, 0), (1, 0)),  # wrong shape
        ((2, 0, 0), (0, 0, 0)),  # entry above M_1
        ((1, 0, 0), (0, 0, 0)),  # column sum below m_1
        ((1, 0, 0), (1, 0, 1)),  # a column beyond the stage is nonzero
    ):
        assert not ExponentMatrix(rows).in_stage(params, 1), rows


def test_stage_set_nonempty_conditions():
    # Stages below n-1 are nonempty; the last two are nonempty iff
    # m_(n-1) >= 2.
    for params in sweep_params(4, 3, 4):
        n = params.n
        for k in range(max(n - 1, 0)):
            assert enumerate_A(params, k)
        if n >= 2:
            tail_nonempty = bool(enumerate_A(params, n)) and bool(
                enumerate_A(params, n - 1)
            )
            assert tail_nonempty == (params.m[n - 2] >= 2)


def test_final_stage_column_characterization():
    # Columns before the last are exactly the non-pure-power exponent
    # vectors of their degree; the last column is unconstrained.
    from math import comb

    for params in sweep_params(3, 3, 3):
        g, n = params.g, params.m and len(params.m)
        mats = enumerate_A(params, n)
        for mat in mats:
            for k in range(n - 1):
                col = mat.column(k)
                assert sum(col) == params.m[k]
                assert sum(1 for e in col if e) >= 2
        count = 1
        for k in range(n - 1):
            pure = g if params.m[k] >= 1 else 0
            count *= comb(params.m[k] + g - 1, g - 1) - pure
        count *= comb(params.m[-1] + g - 1, g - 1)
        if any(params.m[k] == 0 for k in range(n - 1)):
            count = 0
        assert len(mats) == count


# ---------------------------------------------------------------- ideals

def test_build_ideal_example_2_222():
    ideal = build_ideal(FamilyParams(2, (2, 2, 2)))
    R = ideal.ring
    assert R.nvars == 9
    assert len(ideal.generators) == 3
    assert str(ideal.generators[0]) == "x[1,1]^7"
    assert str(ideal.generators[1]) == "x[2,1]^7"
    f = ideal.generators[2]
    assert len(f) == 7
    expect = R.parse(
        "x[1,1]^2*x[1,2]^5 + x[2,1]^2*x[2,2]^5"
        " + x[1,1]*x[2,1]*x[1,2]^2*x[1,3]^3 + x[1,1]*x[2,1]*x[2,2]^2*x[2,3]^3"
        " + x[1,1]*x[2,1]*x[1,2]*x[2,2]*x[1,3]^2*y[[1,1,2],[1,1,0]]"
        " + x[1,1]*x[2,1]*x[1,2]*x[2,2]*x[1,3]*x[2,3]*y[[1,1,1],[1,1,1]]"
        " + x[1,1]*x[2,1]*x[1,2]*x[2,2]*x[2,3]^2*y[[1,1,0],[1,1,2]]"
    )
    assert f == expect


def test_build_ideal_example_2_212():
    ideal = build_ideal(FamilyParams(2, (2, 1, 2)))
    R = ideal.ring
    assert R.nvars == 6
    assert str(ideal.generators[0]) == "x[1,1]^6"
    assert ideal.generators[2] == R.parse(
        "x[1,1]^2*x[1,2]^4 + x[2,1]^2*x[2,2]^4"
        " + x[1,1]*x[2,1]*x[1,2]*x[1,3]^3 + x[1,1]*x[2,1]*x[2,2]*x[2,3]^3"
    )


def test_build_ideal_example_2_31():
    ideal = build_ideal(FamilyParams(2, (3, 1)))
    R = ideal.ring
    assert R.nvars == 8
    f = ideal.generators[2]
    expect = R.parse(
        "x[1,1]^3*x[1,2]^2 + x[2,1]^3*x[2,2]^2"
        " + x[1,1]^2*x[1,2]*x[2,1]*y[[2,1],[1,0]]"
        " + x[1,1]*x[2,1]^2*x[2,2]*y[[1,0],[2,1]]"
        " + x[1,1]*x[1,2]*x[2,1]^2*y[[1,1],[2,0]]"
        " + x[1,1]^2*x[2,1]*x[2,2]*y[[2,0],[1,1]]"
    )
    assert f == expect
    assert {g.homogeneous_degree() for g in ideal.generators} == {5}


def test_generator_count_and_term_count_formula():
    for params in sweep_params(3, 3, 3):
        ideal = build_ideal(params)
        g, n = params.g, params.n
        assert len(ideal.generators) == g + 1
        d = derived_constants(params).degree
        assert all(p.homogeneous_degree() == d for p in ideal.generators)
        sizes = [len(enumerate_A(params, k)) for k in range(n + 1)]
        expect_terms = g * sum(sizes[k - 1] for k in range(1, n)) + sizes[n]
        assert len(ideal.generators[-1]) == expect_terms
        assert ideal.ring.nvars == g * n + sizes[n]


# -------------------------------------------------------------- witnesses

def test_socle_witness_examples():
    w = socle_witness(FamilyParams(2, (2, 2, 2)))
    assert str(w) == "x[1,1]^6*x[2,1]^6*x[1,2]^4*x[2,2]^4*x[1,3]^2*x[2,3]^2"
    assert str(socle_witness(FamilyParams(2, (1, 1)))) == \
        "x[1,1]^2*x[2,1]^2*x[1,2]*x[2,2]"
    assert str(socle_witness(FamilyParams(2, (3, 1)))) == \
        "x[1,1]^4*x[2,1]^4*x[1,2]*x[2,2]"


def test_socle_witness_degree_and_support():
    for params in sweep_params(3, 3, 3):
        w = socle_witness(params)
        cs = derived_constants(params)
        assert w.degree == params.g * sum(d - 1 for d in cs.d)
        assert all(
            w.exps[i] == 0
            for i in range(params.g * params.n, len(w.exps))
        )


def test_socle_witness_avoids_generator_leads():
    for params in sweep_params(3, 2, 3):
        ideal = build_ideal(params)
        w = socle_witness(params, ideal.ring.table)
        mono = ideal.ring.from_monomial(w)
        for gpoly in ideal.generators:
            assert not gpoly.lm.divides(mono.lm)


def test_lemma_targets_examples():
    params = FamilyParams(2, (2, 2, 2))
    names = [str(m) for m in lemma_targets(params)]
    assert names[0] == "x[1,1]^7"
    assert names[1] == "x[2,1]^7"
    assert names[2] == "x[1,1]^6*x[2,1]^6*x[1,2]^5"
    assert names[3] == "x[1,1]^6*x[2,1]^6*x[2,2]^5"
    small = [str(m) for m in lemma_targets(FamilyParams(2, (1, 1)))]
    assert small[2:] == [
        "x[1,1]^2*x[2,1]^2*x[1,2]^2",
        "x[1,1]^2*x[2,1]^2*x[2,2]^2",
    ]


# ---------------------------------------------------------------- formula

def test_pd_formula_paper_values():
    assert pd_formula(FamilyParams(2, (2, 2, 2))) == 9
    assert pd_formula(FamilyParams(2, (3, 1))) == 8
    assert pd_formula(FamilyParams(2, (2, 1, 2))) == 6


def test_variable_count_examples():
    assert variable_count(FamilyParams(2, (2, 2, 2))) == 9
    assert variable_count(FamilyParams(2, (2, 1, 2))) == 6
    assert variable_count(FamilyParams(2, (3, 1))) == 8


def test_stage_count_matches_enumeration():
    for params in sweep_params(3, 3, 3):
        for k in range(params.n + 1):
            assert stage_count(params, k) == len(enumerate_A(params, k)), (str(params), k)
    for text in ("2:(1,1)", "3:(2,0)", "2:(2,1,2)", "3:(2,1)"):
        params = FamilyParams.parse(text)
        assert variable_count(params) == build_ideal(params).ring.nvars, text
    with pytest.raises(ValidationError):
        stage_count(FamilyParams(2, (1, 1)), 3)


def test_choice_count_matches_the_built_choices():
    for g in range(1, 6):
        for total in range(-1, 9):
            for bound in range(-1, 9):
                assert family._choice_count(g, total, bound) == len(
                    family._column_choices(g, total, bound)
                ), (g, total, bound)


def test_counts_build_no_column_choice():
    family._column_choices.cache_clear()
    box = sweep_params(4, 3, 4)
    assert [variable_count(p) for p in box] == [pd_formula(p) for p in box]
    for params in box:
        for k in range(params.n + 1):
            stage_count(params, k)
    # Building the column choices of this one takes about 0.3 s and 128 MB.
    big = FamilyParams(3, (1000, 1000))
    assert variable_count(big) == pd_formula(big) == 251_501_748_504
    info = family._column_choices.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_formula_equals_count_sweep():
    params_list = sweep_params(4, 3, 4)
    assert len(params_list) >= 100
    for params in params_list:
        assert pd_formula(params) == variable_count(params)


# ----------------------------------------------------------- verification

def test_verify_socle_small():
    params = FamilyParams(2, (1, 1))
    rep = verify_socle(params)
    assert rep.conclusion
    assert rep.not_in_ideal
    assert all(ok for _, ok in rep.killed_by)
    assert rep.implied_pd == 4
    assert rep.as_dict()["conclusion"] is True


def test_verify_lemma_small():
    for text in ("2:(1,1)", "3:(2,0)", "2:(2,0)"):
        params = FamilyParams.parse(text)
        rep = verify_lemma(params)
        assert rep.ok, text
        assert rep.failures == ()


def test_verify_lemma_negative_control():
    # Against the basis of a smaller ideal the stage-2 monomials fail.
    params = FamilyParams(2, (1, 1))
    ideal = build_ideal(params)
    smaller = IdealPresentation(ideal.ring, ideal.generators[:-1])
    basis = buchberger(smaller, degree_limit=verification_degree(params))
    rep = verify_lemma(params, basis)
    assert not rep.ok
    want = ["x[1,1]^2*x[2,1]^2*x[1,2]^2", "x[1,1]^2*x[2,1]^2*x[2,2]^2"]
    assert [str(m) for m in rep.failures] == want
    assert rep.as_dict() == {"params": "2:(1,1)", "ok": False, "failures": want}


def test_verify_socle_negative_control():
    # A wrong witness must fail: drop one variable power.
    params = FamilyParams(2, (1, 1))
    ideal = build_ideal(params)
    basis = verification_basis(params)
    bad = ideal.ring.monomial([1, 2, 1, 1])
    rep = verify_socle_ideal(ideal, bad, basis, params)
    assert not rep.conclusion


# Every family instance whose verification basis tier-1 builds, except
# 4:(2,2) (over 20 s) and 5:(2); both certify in the reach tests below.
TIER1_FAMILY = (
    "2:(0)", "2:(1,0)", "2:(1,1)", "2:(2,0)", "2:(2,1)", "2:(3,0)", "2:(3,1)", "3:(2)",
    "3:(2,0)", "3:(2,1)", "3:(4,0)", "4:(2)", "3:(2,2)", "2:(4,3)", "2:(2,1,2)",
    "2:(2,1,3)", "2:(2,2,2)", "2:(4,2,1)", "2:(4,4,0)", "2:(2,3,4)",
)

# Instances of the g <= 3, n <= 3, m <= 3 box whose verification basis was
# measured at 1.5 s or more on a shared 2-core host (most ran past 6 s).
SLOW_DEGREE_ROUTE = frozenset((
    "3:(2,3)", "3:(3,2)", "3:(3,3)", "2:(3,3,3)", "3:(2,1,2)", "3:(2,1,3)",
    "3:(3,1,1)", "3:(3,1,2)", "3:(3,1,3)",
    *(f"3:({a},{b},{c})" for a in (2, 3) for b in (2, 3) for c in range(4)),
))

# The special families the induction proves with no basis.
SPECIAL = (
    *(("caviglia", (d,)) for d in range(2, 8)),
    *(("mccullough", a) for a in ((2, 1, 3), (3, 1, 3), (2, 2, 3), (3, 2, 3), (4, 1, 3), (3, 1, 4))),
)


def _special(kind, args, field=None):
    if kind == "caviglia":
        ideal = caviglia_ideal(*args, field)
        return ideal, caviglia_witness(*args, ideal.ring.table)
    ideal = mccullough_ideal(*args, field)
    return ideal, mccullough_witness(*args, ideal.ring.table)


def _reports(params, basis=None, field=None):
    return verify_socle(params, basis, field), verify_lemma(params, basis, field)


@functools.cache
def _basis(spec):
    return verification_basis(FamilyParams.parse(spec))


def _assert_induction_answers_as_basis(specs):
    # Every membership answer: not_in_ideal, each killed_by, each lemma
    # monomial; and no answer came from a fallback basis.
    for spec in specs:
        params = FamilyParams.parse(spec)
        socle, lemma = _reports(params)
        assert (socle, lemma) == _reports(params, _basis(spec)), spec
        assert socle.fallbacks == lemma.fallbacks == 0, spec
        assert socle.conclusion and lemma.ok, spec


def test_induction_matches_basis_route_on_tier1_instances():
    _assert_induction_answers_as_basis(TIER1_FAMILY)


def test_induction_matches_basis_route_on_a_seeded_sweep():
    eligible = [str(p) for p in sweep_params(3, 3, 3) if str(p) not in SLOW_DEGREE_ROUTE]
    assert len(eligible) == 55
    _assert_induction_answers_as_basis(random.Random(1101).sample(eligible, 16))


def test_induction_matches_basis_route_on_the_benchmark_sweep():
    # The 16 rows of `sweep --verify --max-g 2 --max-n 2 --max-m 3`.
    specs = [str(p) for p in sweep_params(2, 2, 3)]
    assert len(specs) == 16
    _assert_induction_answers_as_basis(specs)


def test_induction_matches_basis_route_over_QQ():
    params = FamilyParams.parse("2:(2,1)")
    basis = verification_basis(params, QQ)
    assert basis.ring.field == QQ
    assert _reports(params, field=QQ) == _reports(params, basis)
    assert _reports(params, field=QQ) == _reports(params)


@pytest.mark.parametrize("kind, args", SPECIAL)
def test_induction_matches_basis_route_on_the_special_families(kind, args):
    ideal, witness = _special(kind, args)
    report = verify_socle_ideal(ideal, witness)
    assert report.conclusion and report.fallbacks == 0
    assert report.implied_pd == ideal.ring.nvars
    basis = membership_basis(ideal, witness.degree + 1)
    assert report == verify_socle_ideal(ideal, witness, basis)
    assert verify_socle_ideal(ideal, witness, basis).fallbacks is None


@pytest.mark.parametrize("spec, pd", [
    ("2:(5,5,5,0)", 72), ("3:(3,2)", 48), ("2:(3,3,3)", 22), ("5:(2)", 20),
    ("3:(2,2)", 24), ("3:(3,1)", 27), ("3:(2,1,2)", 9), ("4:(2,2)", 68),
])
def test_induction_certifies_instances_beyond_the_basis(spec, pd):
    # preset_three_generators(4) raised ResourceLimitError on its basis,
    # 3:(3,2) took 26.6 s and 2:(3,3,3) peaked near 1 GB.
    params = FamilyParams.parse(spec)
    t0 = time.perf_counter()
    socle, lemma = _reports(params)
    elapsed = time.perf_counter() - t0
    assert socle.conclusion and lemma.ok, spec
    assert socle.fallbacks == lemma.fallbacks == 0, spec
    assert socle.implied_pd == pd_formula(params) == variable_count(params) == pd, spec
    assert elapsed < 1.0, f"{spec} took {elapsed:.2f}s"


def _verdicts(induction, packed):
    # The induction's own verdicts on packed targets in order (True proved,
    # False outside, None open), with no fallback.
    return [True if induction.prove(u) else False if induction.outside(u) else None for u in packed]


def _induction(ideal, targets):
    # The verdicts of the induction on the ideal's generators, and the
    # induction.
    induction = family._ideal_induction(ideal, max(map(sum, targets)), DEFAULT_PAIR_LIMIT)
    return _verdicts(induction, map(induction.pk.pack, targets)), induction


def _certify(ideal, targets):
    # The answers and open indices of the ideal-fed certificate, with the
    # fallback basis at the largest target degree.
    top = max(map(sum, targets))
    induction = family._ideal_induction(ideal, top, DEFAULT_PAIR_LIMIT)
    packed = [induction.pk.pack(t) for t in targets]
    return family._certify(induction, packed, lambda: ideal, top, DEFAULT_PAIR_LIMIT)


def _family_targets(params, ring):
    # The stage monomials, then w and each x_v * w: the order of the reports.
    return [m.exps for m in lemma_targets(params, ring.table)] + _certificate_monomials(
        ring, socle_witness(params, ring.table)
    )


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _is_step(ring, u, f, e, c, earlier):
    # u = (u/e) f / c - rest in Polynomial arithmetic, where every term of
    # rest is a multiple of an earlier proved monomial.
    quotient = ring.from_monomial(tuple(a - b for a, b in zip(u, e)), ring.field.inv(c))
    rest = quotient * f - ring.from_monomial(u)
    return u not in dict(rest.terms) and all(
        any(_divides(p, t) for p in earlier) for t, _ in rest.terms
    )


def _expand_steps(ideal, induction):
    # Each monomial the induction proved, in proof order, is one step
    # u = (u/e) f / c_e - (the other terms) from the generators and the
    # monomials proved before it.  Returns the proved monomials.
    ring = ideal.ring
    forms = [g for g in ideal.generators if len(g) > 1]
    proved = [induction.pk.unpack(u) for u in induction.proved]
    base = len(ideal.generators) - len(forms)
    assert proved[:base] == [g.terms[0][0] for g in ideal.generators if len(g) == 1]
    for k in range(base, len(proved)):
        u = proved[k]
        assert any(
            _is_step(ring, u, f, e, c, proved[:k])
            for f in forms for e, c in f.terms if _divides(e, u)
        ), u
    return proved


@pytest.mark.parametrize("route", ["ideal", "packed"])
@pytest.mark.parametrize("spec", ["2:(1,1)", "2:(2,1)", "2:(3,1)", "3:(2,1)", "2:(2,1,2)"])
def test_induction_steps_expand_to_identities(spec, route):
    # On the generators of build_ideal, and on the data packed from the
    # stage columns that the reports use.
    params = FamilyParams.parse(spec)
    ideal = build_ideal(params)
    targets = _family_targets(params, ideal.ring)
    if route == "ideal":
        verdicts, induction = _induction(ideal, targets)
    else:
        induction, packed = family._family_induction(
            params, ideal.ring.order, verification_degree(params), DEFAULT_PAIR_LIMIT
        )
        verdicts = _verdicts(induction, packed)
    assert verdicts == [True] * (len(targets) - 1 - ideal.ring.nvars) + [False] + [True] * ideal.ring.nvars
    proved = _expand_steps(ideal, induction)
    # Every target proved is a multiple of a monomial the steps proved.
    for t, v in zip(targets, verdicts):
        assert v == any(_divides(p, t) for p in proved), t


@pytest.mark.parametrize("kind, args", SPECIAL[:3] + SPECIAL[6:8])
def test_induction_steps_expand_on_the_special_families(kind, args):
    ideal, witness = _special(kind, args, QQ)
    verdicts, induction = _induction(ideal, _certificate_monomials(ideal.ring, witness))
    assert verdicts == [False] + [True] * ideal.ring.nvars
    _expand_steps(ideal, induction)


def test_induction_proves_nothing_false_on_the_smaller_ideal():
    # The smaller ideal of test_verify_lemma_negative_control (the pure
    # powers alone): the induction proves only what its basis proves, and
    # the reports' answers flip where the dense generator is needed.
    params = FamilyParams(2, (1, 1))
    ideal = build_ideal(params)
    smaller = IdealPresentation(ideal.ring, ideal.generators[:-1])
    targets = _family_targets(params, ideal.ring)
    basis = membership_basis(smaller, verification_degree(params))
    truth = basis._contains_monomials(targets)
    verdicts, _ = _induction(smaller, targets)
    assert all(truth[k] for k, v in enumerate(verdicts) if v)
    assert not any(truth[k] for k, v in enumerate(verdicts) if v is False)
    full, _ = _induction(ideal, targets)
    assert verdicts != full and not all(truth)
    # With no form left, the two rules decide every target.
    assert _certify(smaller, targets) == (truth, [])


def _random_form(ring, rng, degree, terms):
    monos = [e for e in itertools.product(range(degree + 1), repeat=ring.nvars) if sum(e) == degree]
    return ring.poly({e: rng.choice((1, -1, 2)) for e in rng.sample(monos, terms)})


def test_induction_agrees_with_the_basis_on_random_ideals():
    # Pure powers and two- or three-term forms in four variables: every
    # proved monomial is a member and every outside one is not, and the
    # random ideals leave some monomials open.  Skipping one term of
    # (u/e) f in the one-step rule proves non-members here.
    rng = random.Random(1101)
    ring = PolynomialRing(VariableTable.named(("a", "b", "c", "d")), PrimeField(101))
    counts = {True: 0, False: 0, None: 0}
    for _ in range(40):
        degree = rng.randrange(2, 4)
        gens = [ring.from_monomial(tuple(degree * (v == k) for v in range(4))) for k in rng.sample(range(4), 2)]
        gens += [_random_form(ring, rng, degree, rng.randrange(2, 4)) for _ in range(rng.randrange(1, 3))]
        ideal = IdealPresentation(ring, gens)
        top = degree + rng.randrange(1, 3)
        targets = [e for e in itertools.product(range(top + 1), repeat=4) if sum(e) == top]
        rng.shuffle(targets)
        truth = membership_basis(ideal, top)._contains_monomials(targets)
        verdicts, induction = _induction(ideal, targets)
        for ok, v, t in zip(truth, verdicts, targets):
            assert v is None or v == ok, (gens, t)
            counts[v] += 1
        _expand_steps(ideal, induction)
        assert _certify(ideal, targets)[0] == truth
    assert all(counts.values()), counts


def test_induction_searches_one_intermediate_monomial():
    # In K[a,b,c], ab = (ab + bc) - (bc + c^2) + c^2: the one-step rule
    # leaves ab open (bc is not proved yet), the search proves bc first.
    ring = PolynomialRing(VariableTable.named(("a", "b", "c")), PrimeField(101))
    a, b, c = (ring.variable(i) for i in range(3))
    ideal = IdealPresentation(ring, [c * c, a * b + b * c, b * c + c * c])
    verdicts, induction = _induction(ideal, [(1, 1, 0)])
    assert verdicts == [True]
    assert [induction.pk.unpack(u) for u in induction.proved[1:]] == [(0, 1, 1), (1, 1, 0)]
    _expand_steps(ideal, induction)
    # With two intermediate steps, ab = (ab + bc) - (bc + bd) + (bd + d^2)
    # - d^2, the search stops and the basis answers.
    ring = PolynomialRing(VariableTable.named(("a", "b", "c", "d")), PrimeField(101))
    a, b, c, d = (ring.variable(i) for i in range(4))
    ideal = IdealPresentation(ring, [d * d, a * b + b * c, b * c + b * d, b * d + d * d])
    assert _induction(ideal, [(1, 1, 0, 0)])[0] == [None]
    answers, open_ = _certify(ideal, [(1, 1, 0, 0)])
    assert answers == [True] and open_ == [0]


def test_induction_limits():
    # A target above the degree limit is refused first, with the text a
    # truncated basis gives; the candidates count against pair_limit.
    params = FamilyParams.parse("2:(1,1)")
    ideal = build_ideal(params)

    def reports(**limits):
        return family._family_reports(params, ideal, **limits)

    text = "normal form of degree 6 is not exact against a basis truncated at degree 3"
    with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
        reports(degree_limit=3)
    special = mccullough_ideal(2, 1, 3)
    witness = mccullough_witness(2, 1, 3, special.ring.table)
    with pytest.raises(ValidationError, match="normal form of degree 4 "):
        verify_socle_ideal(special, witness, degree_limit=3)
    with pytest.raises(ResourceLimitError, match=r"\(0\)$"):
        verify_socle_ideal(special, witness, pair_limit=0)
    # 2:(1,1) makes two candidates, one per stage-1 monomial; each x_v * w
    # is then a multiple of a proved one.
    assert reports(pair_limit=2) == _reports(params)
    with pytest.raises(ResourceLimitError, match=r"\(1\)$"):
        reports(pair_limit=1)
    assert reports(degree_limit=7) == _reports(params)


def test_limits_are_validated_before_any_work():
    # Invalid limits are invalid input on every certificate entry, even
    # where the induction would settle every target without them.
    special = mccullough_ideal(2, 1, 3)
    witness = mccullough_witness(2, 1, 3, special.ring.table)
    with pytest.raises(ValidationError, match="degree_limit"):
        verify_socle_ideal(special, witness, degree_limit=7.5, pair_limit=-5)
    with pytest.raises(ValidationError, match="pair_limit"):
        verify_socle_ideal(special, witness, pair_limit=-5)
    params = FamilyParams.parse("2:(1,1)")
    for limits in ({"degree_limit": 7.5}, {"degree_limit": True}, {"pair_limit": None}):
        with pytest.raises(ValidationError, match=next(iter(limits))):
            family._family_reports(params, **limits)
    # A membership basis is always truncated.
    with pytest.raises(ValidationError, match="^degree_limit must be an int of at least 1, not None$"):
        membership_basis(build_ideal(params), None)


# The g <= 4, n <= 3, m <= 3 box up to 500 variables: 114 of its 120
# instances.  The six left out (732 to 5,132 variables) take 1-17 s each
# on either induction route.
BOX = tuple(str(p) for p in sweep_params(4, 3, 3) if variable_count(p) <= 500)
PRESETS = tuple(str(preset_three_generators(p)) for p in (2, 3, 4))
BENCHMARK_ROWS = tuple(str(p) for p in sweep_params(2, 2, 3))
ORDER_KINDS = ("lex", "grlex", "rotated")


def _order(kind, nvars):
    # A non-default order; "rotated" is grevlex with the variables rotated.
    if kind == "rotated":
        return MonomialOrder("grevlex", tuple(range(1, nvars)) + (0,))
    return MonomialOrder(kind)


def _x_exponents(mat, table):
    # The exponent tuple of prod x[j,k]^(entry j,k), each variable found
    # by its name in the table.
    exps = [0] * len(table)
    for j, row in enumerate(mat.rows, start=1):
        for k, e in enumerate(row, start=1):
            if e:
                exps[table.x_index(j, k)] = e
    return tuple(exps)


def _enumerated_ideal(params, field=None, order=None):
    # build_ideal as it was first written: each stage matrix through
    # enumerate_A, each variable by its name in the table.
    table = family_table(params)
    ring = PolynomialRing(table, PrimeField(32003) if field is None else field, order)
    d = derived_constants(params).d
    gens = []
    for j in range(1, params.g + 1):
        exps = [0] * len(table)
        exps[table.x_index(j, 1)] = d[0]
        gens.append(ring.poly({tuple(exps): 1}))
    terms = []
    for k in range(1, params.n):
        for mat in enumerate_A(params, k - 1):
            base = _x_exponents(mat, table)
            for j in range(1, params.g + 1):
                exps = list(base)
                exps[table.x_index(j, k)] += params.m[k - 1]
                exps[table.x_index(j, k + 1)] += d[k]
                terms.append((tuple(exps), 1))
    for mat in enumerate_A(params, params.n):
        exps = list(_x_exponents(mat, table))
        exps[table.y_index(mat.rows)] += 1
        terms.append((tuple(exps), 1))
    gens.append(ring.poly(terms))
    return IdealPresentation(ring, gens)


def test_family_index_matches_the_table():
    for spec in BOX + PRESETS:
        params = FamilyParams.parse(spec)
        table = family_table(params)
        for k in range(1, params.n + 1):
            for j in range(1, params.g + 1):
                assert family._family_index(params, j, k) == table.x_index(j, k), (spec, j, k)
        mats = enumerate_A(params, params.n)
        assert [family._family_index(params, i) for i in range(len(mats))] == [
            table.y_index(mat.rows) for mat in mats
        ], spec
        assert family._family_index(params, len(mats)) == len(table)


def test_trusted_table_matches_the_validated_constructor():
    # family_table skips the checks of VariableTable(descriptors): the
    # checked constructor, on the descriptors of the enumeration route, is
    # the oracle for its descriptors, names and index.
    box = sweep_params(4, 3, 3)  # up to 5,132 variables
    for params in box + [preset_three_generators(p) for p in (2, 3, 4)]:
        table = family_table(params)
        grid = [("x", j, k) for k in range(1, params.n + 1) for j in range(1, params.g + 1)]
        oracle = VariableTable(grid + [("y", mat.rows) for mat in enumerate_A(params, params.n)])
        assert table.descriptors == oracle.descriptors, str(params)
        assert table.names == oracle.names, str(params)
        assert table._index == oracle._index, str(params)
        assert table == oracle and hash(table) == hash(oracle)


def test_build_ideal_matches_the_enumeration_route():
    for spec in BOX + PRESETS:
        params = FamilyParams.parse(spec)
        assert build_ideal(params) == _enumerated_ideal(params), spec
    for spec in ("2:(3,1)", "3:(2,1)", "2:(2,1,2)", "2:(1,0)"):
        params = FamilyParams.parse(spec)
        for kind in ORDER_KINDS:
            order = _order(kind, variable_count(params))
            assert build_ideal(params, QQ, order) == _enumerated_ideal(params, QQ, order), spec


def _ideal_fed_reports(params, ideal, verdicts=None):
    # The reports as the ideal-fed induction gives them, from its
    # ``verdicts`` when given, with the open targets answered by a basis
    # and counted as fallbacks.
    ring = ideal.ring
    witness = socle_witness(params, ring.table)
    stage = [m.exps for m in lemma_targets(params, ring.table)]
    targets = stage + _certificate_monomials(ring, witness)
    if verdicts is None:
        answers, open_ = _certify(ideal, targets)
    else:
        answers, open_ = list(verdicts), [k for k, v in enumerate(verdicts) if v is None]
        if open_:
            basis = membership_basis(ideal, verification_degree(params))
            for k, ok in zip(open_, basis._contains_monomials([targets[k] for k in open_])):
                answers[k] = ok
    k = len(stage)
    socle = SocleReport(
        params, witness, not answers[k], tuple(zip(ring.table.names, answers[k + 1:])),
        not answers[k] and all(answers[k + 1:]), ring.nvars, sum(i >= k for i in open_),
    )
    failures = tuple(Monomial(ring.table, e) for e, ok in zip(stage, answers) if not ok)
    lemma = LemmaReport(params, not failures, failures, sum(i < k for i in open_))
    return socle, lemma


def _assert_packed_route_as_ideal_route(params, ideal, field):
    # The data packed from the stage columns are those packed from the
    # generators, term for term and in order; both prove the same
    # monomials in the same order; the reports agree, fallbacks included.
    top = verification_degree(params)
    packed, targets = family._family_induction(params, ideal.ring.order, top, DEFAULT_PAIR_LIMIT)
    fed = family._ideal_induction(ideal, top, DEFAULT_PAIR_LIMIT)
    pk = fed.pk
    assert (packed.pk.order, packed.pk.nvars, packed.pk.width) == (pk.order, pk.nvars, pk.width)
    assert packed.proved == fed.proved == [
        pk.pack(g.terms[0][0]) for g in ideal.generators if len(g) == 1
    ]
    assert packed.forms == fed.forms == [
        [pk.pack(e) for e, _ in g.terms] for g in ideal.generators if len(g) > 1
    ]
    assert targets == [pk.pack(t) for t in _family_targets(params, ideal.ring)]
    verdicts = _verdicts(fed, targets)
    assert _verdicts(packed, targets) == verdicts
    assert packed.proved == fed.proved and packed.candidates == fed.candidates
    got = family._family_reports(params, field=field)
    want = _ideal_fed_reports(params, ideal, verdicts)
    assert got == want
    assert [r.fallbacks for r in got] == [r.fallbacks for r in want]


@pytest.mark.parametrize("field", [PrimeField(101), QQ], ids=["F101", "QQ"])
def test_packed_certificate_matches_the_ideal_route(field):
    for spec in BOX + PRESETS:
        params = FamilyParams.parse(spec)
        _assert_packed_route_as_ideal_route(params, build_ideal(params, field), field)
    assert set(BENCHMARK_ROWS) <= set(BOX)


def test_packed_certificate_matches_the_ideal_route_under_other_orders():
    for spec in ("2:(3,1)", "3:(2,1)", "2:(2,1,2)", "2:(0)"):
        params = FamilyParams.parse(spec)
        for kind in ORDER_KINDS:
            order = _order(kind, variable_count(params))
            ideal = build_ideal(params, PrimeField(101), order)
            top = verification_degree(params)
            packed, targets = family._family_induction(params, order, top, DEFAULT_PAIR_LIMIT)
            fed = family._ideal_induction(ideal, top, DEFAULT_PAIR_LIMIT)
            assert packed.forms == fed.forms and packed.proved == fed.proved, (spec, kind)
            assert _verdicts(packed, targets) == _verdicts(fed, targets)
            assert packed.proved == fed.proved, (spec, kind)
            assert family._family_reports(params, ideal) == _ideal_fed_reports(params, ideal)


def test_pure_power_mask_matches_the_scan(rng):
    # `_covered`'s one add and one mask, and `_closes`'s window sums for
    # q + t, against the scan of the pure powers on seeded random packed
    # monomials, under several orders and field widths.
    nvars = 6
    for kind in ("grevlex",) + ORDER_KINDS:
        for width in (2, 3, 8):
            pk = _Packing(_order(kind, nvars), nvars, width)
            for _ in range(40):
                variables = rng.sample(range(nvars), rng.randrange(1, nvars + 1))
                powers = {v: rng.randint(1, pk.maxdeg) for v in variables}
                base = [pk.sparse({v: d}) for v, d in powers.items()]
                induction = family._Induction(pk, base, [], powers, DEFAULT_PAIR_LIMIT)
                assert induction.others == []
                lo, window = induction.lo, induction.window
                add, mask = induction.add >> lo, induction.mask >> lo
                for _ in range(20):
                    a, b = (_random_monomial(rng, nvars, pk.maxdeg) for _ in range(2))
                    for e in (a, b):
                        scan = any(e[v] >= d for v, d in powers.items())
                        assert induction._covered(pk.pack(e)) == scan
                    if sum(a) + sum(b) <= pk.maxdeg:
                        qa, tb = (((pk.pack(e) >> lo) & window) for e in (a, b))
                        scan = any(a[v] + b[v] >= d for v, d in powers.items())
                        assert bool((qa + tb + add) & mask) == scan


def _random_monomial(rng, nvars, top):
    exps = [0] * nvars
    for _ in range(rng.randint(0, top)):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def test_certificate_builds_the_ideal_only_for_a_fallback(monkeypatch):
    params = FamilyParams.parse("2:(2,1)")
    want = _reports(params, _basis(str(params)))
    built = []
    real = family.build_ideal

    def spy(params, field=None, order=None):
        built.append(field)
        return real(params, field, order)

    monkeypatch.setattr(family, "build_ideal", spy)
    assert _reports(params, field=QQ) == want and built == []
    # With the one-step rule switched off every target but the pure powers
    # and w stays open: the ideal is built over the given field, once per
    # report, and its basis answers them.
    monkeypatch.setattr(family._Induction, "_closes", lambda self, u, search: False)
    socle, lemma = _reports(params, field=QQ)
    assert (socle, lemma) == want and built == [QQ, QQ]
    # Open: every x_v * w but the g pure powers, every stage monomial past
    # stage 0.
    assert socle.fallbacks == variable_count(params) - params.g
    assert lemma.fallbacks == params.g * (params.n - 1)


def _certificate_monomials(ring, witness, params=None):
    # The witness w, each x_v * w and, for a family, each stage monomial,
    # as exponent tuples.
    w = witness.exps
    monos = [w] + [tuple(e + (u == v) for u, e in enumerate(w)) for v in range(ring.nvars)]
    if params is not None:
        monos += [m.exps for m in lemma_targets(params, ring.table)]
    return monos


def _kernel_form_answers(basis, monomials):
    # The kernel-form entry's answers, each checked against `contains` of
    # the monomial's public polynomial.
    ring = basis.ring
    got = basis._contains_monomials(monomials)
    assert got == [basis.contains(ring.from_monomial(e)) for e in monomials]
    return got


def test_kernel_form_membership_matches_contains():
    for spec in TIER1_FAMILY:
        params = FamilyParams.parse(spec)
        basis = _basis(spec)
        ring = basis.ring
        monos = _certificate_monomials(ring, socle_witness(params, ring.table), params)
        assert len(monos) == 1 + ring.nvars + params.g * params.n, spec
        answers = _kernel_form_answers(basis, monos)
        assert answers == [False] + [True] * (len(monos) - 1), spec
        _kernel_form_answers(basis, [m.exps for m in basis.leading_monomials()])


def test_kernel_form_membership_on_the_special_families():
    cases = []
    for d in (2, 3, 4):
        ideal = caviglia_ideal(d)
        cases.append((ideal, caviglia_witness(d, ideal.ring.table)))
    for args in ((2, 1, 3), (3, 1, 3), (2, 2, 2)):
        ideal = mccullough_ideal(*args)
        cases.append((ideal, mccullough_witness(*args, ideal.ring.table)))
    for ideal, witness in cases:
        basis = membership_basis(ideal, witness.degree + 1)
        answers = _kernel_form_answers(basis, _certificate_monomials(ideal.ring, witness))
        assert answers == [False] + [True] * ideal.ring.nvars, witness
        # A lead divides each of these, yet not every one is a member.
        leads = _kernel_form_answers(basis, [m.exps for m in basis.leading_monomials()])
        assert not all(leads), witness
        report = verify_socle_ideal(ideal, witness, basis)
        assert [report.not_in_ideal] + [ok for _, ok in report.killed_by] == [
            not answers[0], *answers[1:]
        ]


def test_kernel_form_membership_negative_control():
    # The smaller ideal of test_verify_lemma_negative_control: its
    # membership basis and the reduced one that test uses answer alike,
    # and some of the full ideal's members are not members here.
    params = FamilyParams(2, (1, 1))
    ideal = build_ideal(params)
    smaller = IdealPresentation(ideal.ring, ideal.generators[:-1])
    limit = verification_degree(params)
    monos = _certificate_monomials(ideal.ring, socle_witness(params, ideal.ring.table), params)
    full = _kernel_form_answers(_basis(str(params)), monos)
    small = _kernel_form_answers(membership_basis(smaller, limit), monos)
    assert small == _kernel_form_answers(buchberger(smaller, degree_limit=limit), monos)
    assert small != full
    assert all(full[k] for k, ok in enumerate(small) if ok)


def test_kernel_form_membership_refusals():
    params = FamilyParams.parse("2:(2,1)")
    basis = verification_basis(params)
    ring, table = basis.ring, basis.ring.table
    w = socle_witness(params, table).exps
    # One degree above the truncation: the text `contains` gives.
    above = list(w)
    above[table.x_index(1, 2)] += basis.truncated_at + 1 - sum(w)
    above = tuple(above)
    text = (
        f"normal form of degree {basis.truncated_at + 1} is not exact against "
        f"a basis truncated at degree {basis.truncated_at}"
    )
    for call in (
        lambda: basis._contains_monomials([w, above]),
        lambda: basis.contains(ring.from_monomial(above)),
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
            call()
    # A witness over another variable table, on both routes.
    other = socle_witness(FamilyParams.parse("2:(1,1)"))
    with pytest.raises(DomainMismatchError):
        verify_socle_ideal(build_ideal(params), other, basis, params)
    with pytest.raises(DomainMismatchError):
        verify_socle_ideal(build_ideal(params), other)


def test_shared_basis_matches_fresh_runs():
    params = FamilyParams(2, (2, 0))
    basis = verification_basis(params)
    assert verify_socle(params, basis).conclusion == verify_socle(params).conclusion
    assert verify_lemma(params, basis).ok == verify_lemma(params).ok


# ------------------------------------------------------- special families

def test_mccullough_generators():
    ideal = mccullough_ideal(2, 1, 3)
    R = ideal.ring
    assert R.nvars == 5
    assert [str(g) for g in ideal.generators] == [
        "x[1]^3",
        "x[2]^3",
        "x[1]^2*y[1,1] + x[1]*x[2]*y[2,1] + x[2]^2*y[3,1]",
    ]


def test_mccullough_complete_intersection():
    ideal = mccullough_ideal(3, 0, 4)
    assert len(ideal.generators) == 3
    assert ideal.ring.nvars == 3
    assert {str(g) for g in ideal.generators} == {"x[1]^4", "x[2]^4", "x[3]^4"}


def test_mccullough_expected_pd_value():
    # m + n*p with p = 3 degree-2 monomials in 2 variables
    assert 2 + 1 * 3 == 5
    rep = verify_socle_ideal(
        mccullough_ideal(2, 1, 3),
        mccullough_witness(2, 1, 3, mccullough_ideal(2, 1, 3).ring.table),
    )
    assert rep.conclusion
    assert rep.implied_pd == 5


def test_caviglia_witness_is_a_socle_element():
    for d in (2, 3):
        ideal = caviglia_ideal(d)
        witness = caviglia_witness(d, ideal.ring.table)
        assert witness.exps == (d - 2, d - 1, d - 1, d - 2)
        assert verify_socle_ideal(ideal, witness).conclusion, d
    assert str(caviglia_witness(3, caviglia_ideal(3).ring.table)) == "w*x^2*y^2*z"


def test_caviglia_generators():
    i3 = caviglia_ideal(3)
    assert [str(g) for g in i3.generators] == ["x^3", "y^3", "w^2*x + 32002*y*z^2"]
    i2 = caviglia_ideal(2)
    assert [str(g) for g in i2.generators] == ["x^2", "y^2", "w*x + 32002*y*z"]
    with pytest.raises(ValidationError):
        caviglia_ideal(1)


def test_identify_subfamily_caviglia():
    match = identify_subfamily(FamilyParams(2, (1, 1)))
    assert match is not None
    assert match.constructor == "caviglia"
    assert match.arguments == (3,)
    assert match.verification == "groebner"
    signs = dict(match.sign_map)
    assert sorted(signs.values()).count(-1) >= 1  # a genuine flip was needed
    assert match.as_dict() == {
        "label": "caviglia d=3",
        "constructor": "caviglia",
        "arguments": [3],
        "variable_map": dict(match.variable_map),
        "sign_map": signs,
        "verification": "groebner",
    }


def test_identify_subfamily_mccullough():
    match = identify_subfamily(FamilyParams(3, (2,)))
    assert match is not None
    assert match.constructor == "mccullough"
    assert match.arguments == (3, 1, 3)
    assert match.verification == "groebner"


def test_identify_subfamily_none():
    assert identify_subfamily(FamilyParams(2, (2, 2, 2))) is None
    # m_1 = 0 is a valid choice whose one-column family would need degree 1.
    for g in (2, 3):
        assert identify_subfamily(FamilyParams(g, (0,))) is None


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["QQ", "F101"])
@pytest.mark.parametrize("q", [1, 2])
def test_identify_subfamily_caviglia_by_groebner(q, field):
    match = identify_subfamily(FamilyParams(2, (1, q)), field)
    assert match.constructor == "caviglia"
    assert match.arguments == (q + 2,)
    assert match.verification == "groebner"


def test_identify_subfamily_computes_the_target_basis_once(monkeypatch):
    import idealfam.family as family

    targets, calls = [], []
    real_target, real_buchberger = family.caviglia_ideal, family.buchberger

    def target(*args, **kwargs):
        targets.append(real_target(*args, **kwargs))
        return targets[-1]

    def counted(ideal, *args, **kwargs):
        calls.append(ideal is targets[0])
        return real_buchberger(ideal, *args, **kwargs)

    monkeypatch.setattr(family, "caviglia_ideal", target)
    monkeypatch.setattr(family, "buchberger", counted)
    match = identify_subfamily(FamilyParams(2, (1, 1)))
    # 2:(1,1) needs the third sign vector, so three mapped bases are made
    assert dict(match.sign_map)["y"] == -1
    assert calls.count(True) == 1 and calls.count(False) == 3


def test_identify_subfamily_failed_match_is_a_bug(monkeypatch):
    import idealfam.family as family

    monkeypatch.setattr(family, "_mapped_basis", lambda *args: [])
    for params in (FamilyParams(2, (1, 1)), FamilyParams(3, (2,))):
        with pytest.raises(InternalError):
            identify_subfamily(params)


# ----------------------------------------------------------- preset bounds

def test_three_generator_presets():
    for p in (2, 3):
        params = preset_three_generators(p)
        cs = derived_constants(params)
        assert cs.degree == p * p
        assert len(build_ideal(params).generators) == 3 if p == 2 else True
        assert pd_formula(params) >= p ** (p - 1)
    assert preset_three_generators(2) == FamilyParams(2, (3, 0))
    assert preset_three_generators(3) == FamilyParams(2, (4, 4, 0))
    assert preset_three_generators(4) == FamilyParams(2, (5, 5, 5, 0))
    assert pd_formula(FamilyParams(2, (4, 4, 0))) == 15


def test_many_generator_presets():
    params = preset_many_generators(2)
    assert params == FamilyParams(4, (2, 2))
    cs = derived_constants(params)
    assert cs.degree == 5
    assert len(build_ideal(params).generators) == 5
    assert pd_formula(params) == 68
    assert pd_formula(params) >= 2 ** 4
