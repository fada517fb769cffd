"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass line.  Heavy objects are computed once per module and
shared between criteria."""

import itertools
import random
import time

import pytest

from idealfam import (
    FamilyParams,
    IdealPresentation,
    buchberger,
    build_ideal,
    caviglia_ideal,
    caviglia_witness,
    derived_constants,
    hilbert_crosscheck,
    is_member,
    mccullough_ideal,
    mccullough_witness,
    pd_formula,
    pd_of,
    preset_many_generators,
    preset_three_generators,
    reg_of,
    resolve,
    s_polynomial,
    schreyer_resolution,
    socle_witness,
    variable_count,
    verification_basis,
    verify_lemma,
    verify_socle,
    verify_socle_ideal,
)
from idealfam.resolution import BettiTable

from conftest import random_homogeneous, small_ring, span_membership

# Published Betti tables, transcribed row by row: {row r: {column i: beta}}
# with beta_{i, r+i} the stored value.
GOLDEN_ROWS_31 = {
    0: {0: 1},
    4: {1: 3},
    8: {2: 3},
    9: {2: 3, 3: 4},
    10: {2: 13, 3: 46, 4: 68, 5: 56, 6: 28, 7: 8, 8: 1},
    11: {2: 33, 3: 132, 4: 218, 5: 192, 6: 96, 7: 26, 8: 3},
    12: {2: 1, 3: 2, 4: 1},
}
GOLDEN_ROWS_212 = {
    0: {0: 1},
    5: {1: 3},
    10: {2: 3},
    13: {2: 2, 3: 3},
    16: {2: 3, 3: 6, 4: 3},
    18: {2: 1, 3: 4, 4: 5, 5: 2},
    19: {2: 4, 3: 8, 4: 4},
    20: {2: 1, 3: 4, 4: 6, 5: 4, 6: 1},
    21: {2: 2, 3: 8, 4: 10, 5: 4},
    22: {2: 6, 3: 14, 4: 11, 5: 4, 6: 1},
    23: {2: 2, 3: 8, 4: 12, 5: 8, 6: 2},
    24: {2: 4, 3: 16, 4: 21, 5: 10, 6: 1},
    25: {2: 8, 3: 20, 4: 18, 5: 8, 6: 2},
    26: {2: 3, 3: 12, 4: 18, 5: 12, 6: 3},
    27: {2: 6, 3: 24, 4: 32, 5: 16, 6: 2},
    28: {2: 3, 3: 12, 4: 18, 5: 12, 6: 3},
    29: {2: 4, 3: 16, 4: 24, 5: 16, 6: 4},
    30: {2: 3, 3: 12, 4: 18, 5: 12, 6: 3},
    31: {2: 4, 3: 16, 4: 24, 5: 16, 6: 4},
    32: {2: 1, 3: 4, 4: 6, 5: 4, 6: 1},
    33: {2: 4, 3: 16, 4: 24, 5: 16, 6: 4},
    34: {2: 1, 3: 4, 4: 6, 5: 4, 6: 1},
    35: {2: 2, 3: 8, 4: 12, 5: 8, 6: 2},
    36: {2: 1, 3: 4, 4: 6, 5: 4, 6: 1},
    37: {2: 2, 3: 8, 4: 12, 5: 8, 6: 2},
    38: {2: 1, 3: 4, 4: 6, 5: 4, 6: 1},
    39: {2: 2, 3: 8, 4: 12, 5: 8, 6: 2},
    41: {2: 2, 3: 8, 4: 12, 5: 8, 6: 2},
}


def rows_to_table(rows):
    return BettiTable(
        {(i, r + i): b for r, cols in rows.items() for i, b in cols.items()}
    )


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


A3_FAMILY = ("2:(1,1)", "2:(2,0)", "2:(3,1)", "2:(2,1,2)", "2:(2,2,2)", "3:(2,2)")


@pytest.fixture(scope="module")
def family_bases():
    return {
        text: verification_basis(FamilyParams.parse(text)) for text in A3_FAMILY
    }


@pytest.fixture(scope="module")
def mccullough_213():
    ideal = mccullough_ideal(2, 1, 3)
    witness = mccullough_witness(2, 1, 3, ideal.ring.table)
    basis = buchberger(ideal, degree_limit=witness.degree + 1, interreduce=False)
    return ideal, witness, basis


def _pipeline(ideal):
    gb = buchberger(ideal)
    nonmin = schreyer_resolution(gb)
    minres = nonmin.minimalize()
    return {"ideal": ideal, "gb": gb, "nonmin": nonmin, "min": minres}


@pytest.fixture(scope="module")
def resolved():
    out = {
        "2:(3,1)": _pipeline(build_ideal(FamilyParams.parse("2:(3,1)"))),
        "2:(2,1,2)": _pipeline(build_ideal(FamilyParams.parse("2:(2,1,2)"))),
    }
    for d in (3, 4, 5):
        out[f"caviglia {d}"] = _pipeline(caviglia_ideal(d))
    for d in (3, 4):
        out[f"mccullough 2 1 {d}"] = _pipeline(mccullough_ideal(2, 1, d))
    return out


def test_a1_formula_count_identity():
    t0 = time.time()
    params_list = sweep_params(4, 3, 4)
    assert len(params_list) >= 100
    for params in params_list:
        assert pd_formula(params) == variable_count(params), str(params)
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"sweep took {elapsed:.2f}s"
    print(
        f"\n[PASS] A1 - pd_formula == variable_count on {len(params_list)} "
        f"instances in {elapsed:.2f}s"
    )


def test_a2_paper_pd_values():
    values = {
        "2:(2,2,2)": 9,
        "2:(3,1)": 8,
        "2:(2,1,2)": 6,
    }
    for text, expect in values.items():
        assert pd_formula(FamilyParams.parse(text)) == expect
    print("\n[PASS] A2 - closed-form pd gives 9, 8, 6 on the quoted instances")


def test_a3_depth_zero_verification(family_bases, mccullough_213):
    for text in A3_FAMILY:
        params = FamilyParams.parse(text)
        report = verify_socle(params, family_bases[text])
        assert report.not_in_ideal, text
        assert all(ok for _, ok in report.killed_by), text
        assert report.conclusion, text
        assert report.implied_pd == variable_count(params)
    ideal, witness, basis = mccullough_213
    report = verify_socle_ideal(ideal, witness, basis)
    assert report.conclusion
    assert report.implied_pd == 5
    print("\n[PASS] A3 - depth zero verified on all seven instances")


def test_a4_lemma_verification(family_bases):
    for text in A3_FAMILY:
        params = FamilyParams.parse(text)
        report = verify_lemma(params, family_bases[text])
        assert report.ok, (text, report.failures)
    # the one-column special ideal: its stage monomials are the pure powers
    ideal = mccullough_ideal(2, 1, 3)
    gb = buchberger(ideal)
    for g in ideal.generators[:2]:
        assert is_member(g, gb)
    print("\n[PASS] A4 - stage-monomial membership verified on all instances")


def test_a5_golden_betti_tables(resolved):
    table31 = resolved["2:(3,1)"]["min"].betti()
    expect31 = rows_to_table(GOLDEN_ROWS_31)
    assert table31 == expect31
    assert table31.totals() == [1, 3, 53, 184, 287, 248, 124, 34, 4]
    assert table31.pd == 8 and table31.reg == 12

    table212 = resolved["2:(2,1,2)"]["min"].betti()
    expect212 = rows_to_table(GOLDEN_ROWS_212)
    assert table212 == expect212
    assert table212.totals() == [1, 3, 75, 247, 320, 188, 42]
    assert table212.pd == 6 and table212.reg == 41
    print("\n[PASS] A5 - both published Betti tables reproduced entry for entry")


def test_a6_caviglia_regularity(resolved):
    for d, expect in ((3, 7), (4, 14), (5, 23)):
        table = resolved[f"caviglia {d}"]["min"].betti()
        assert reg_of(table) == expect == d * d - 2
    print("\n[PASS] A6 - reg(R/C_d) = d^2 - 2 for d = 3, 4, 5")


def test_a7_mccullough_pd(resolved):
    for d in (3, 4):
        table = resolved[f"mccullough 2 1 {d}"]["min"].betti()
        assert pd_of(table) == d + 2
    print("\n[PASS] A7 - special-family pd equals d + 2 for d = 3, 4")


def test_a7_socle_degree_bounds_the_regularity(resolved):
    # A socle element of degree delta gives reg(R/I) >= delta (Eisenbud,
    # The Geometry of Syzygies, ch. 4), on every resolution with a witness.
    for label, bundle in resolved.items():
        ideal, table = bundle["ideal"], bundle["min"].betti()
        kind, *args = label.split()
        if kind == "caviglia":
            witness = caviglia_witness(int(args[0]), ideal.ring.table)
        elif kind == "mccullough":
            witness = mccullough_witness(*map(int, args), ideal.ring.table)
        else:
            witness = socle_witness(FamilyParams.parse(kind), ideal.ring.table)
        assert verify_socle_ideal(ideal, witness).conclusion, label
        assert witness.degree <= reg_of(table), label
    print("\n[PASS] A7 - the socle witness degree bounds reg(R/I) on every resolution")


def test_a8_property_suites(resolved):
    rng = random.Random(7_2024)

    # Groebner axioms: every S-pair of a computed basis reduces to zero.
    R = small_ring(("x", "y", "z"))
    x, y, z = (R.variable(i) for i in range(3))
    checked = 0
    for gens in (
        [x * y - z * z, y * y - x * z],
        [x * x, x * y + y * y],
        [x * x - y * y, y * y * z - x * z * z, z**3 - x * y * z],
    ):
        G = buchberger(IdealPresentation(R, gens))
        elems = list(G)
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                assert not G.normal_form(s_polynomial(elems[i], elems[j]))
                checked += 1
    assert checked

    # Reduced-basis uniqueness: both routes give the same basis from any
    # order and scaling of the generators (a stream of its own, so the
    # draws below stay as they were).  A limit at the basis's top degree
    # takes the signature route.
    ideal = IdealPresentation(R, [x * y - z * z, y * y - x * z, x**3 - y * z * z])
    want = buchberger(ideal).elements
    top = max(g.degree() for g in want)
    order_rng = random.Random(1991)
    for _ in range(6):
        gens = [order_rng.randrange(1, R.field.p) * g for g in ideal.generators]
        order_rng.shuffle(gens)
        other = IdealPresentation(R, gens)
        assert buchberger(other).elements == want
        assert buchberger(other, degree_limit=top).elements == want

    # Normal-form idempotence and linearity.
    G = buchberger(ideal)
    for _ in range(50):
        p = random_homogeneous(R, rng, rng.randrange(1, 5))
        q = random_homogeneous(R, rng, p.homogeneous_degree())
        nfp = G.normal_form(p)
        assert G.normal_form(nfp) == nfp
        assert G.normal_form(p + q) == G.normal_form(nfp + G.normal_form(q))
        assert G.normal_form(11 * p) == 11 * nfp

    # Brute-force membership oracle agreement, at least 200 cases.
    cases = 0
    agreements_positive = 0
    while cases < 200:
        gens = [
            random_homogeneous(R, rng, rng.randrange(1, 4))
            for _ in range(rng.randrange(1, 4))
        ]
        gens = [g for g in gens if g]
        if not gens:
            continue
        ideal = IdealPresentation(R, gens)
        G = buchberger(ideal)
        p = random_homogeneous(R, rng, rng.randrange(1, 6))
        got = is_member(p, G)
        assert got == span_membership(p, ideal)
        agreements_positive += got
        cases += 1
    assert agreements_positive > 0

    # Complex, minimality, and Hilbert-series invariants on every
    # resolution computed for A5-A7.
    for label, bundle in resolved.items():
        nonmin, minres = bundle["nonmin"], bundle["min"]
        assert nonmin.check_complex(), label
        assert minres.check_complex(), label
        assert minres.is_minimal_complex(), label
        table = minres.betti()
        numerator = bundle["gb"].hilbert_numerator()
        assert hilbert_crosscheck(table, numerator), label
    print(
        f"\n[PASS] A8 - axioms, uniqueness, NF laws, {cases} oracle cases, "
        f"and invariants on {len(resolved)} resolutions"
    )


def test_a9_corollary_bounds():
    for p in (2, 3):
        params = preset_three_generators(p)
        cs = derived_constants(params)
        assert cs.degree == p * p
        assert len(build_ideal(params).generators) == 3
        assert pd_formula(params) >= p ** (p - 1)
    params = preset_many_generators(2)
    cs = derived_constants(params)
    assert len(build_ideal(params).generators) == 2 * 2 + 1
    assert cs.degree == 2 * 2 + 1
    assert pd_formula(params) >= 2 ** (2 * 2)
    print("\n[PASS] A9 - preset degrees and lower bounds hold exactly")
