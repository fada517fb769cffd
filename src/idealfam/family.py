"""Construction of the parametrized ideal families and their verification.

A parameter choice ``g:(m_1,...,m_n)`` fixes a grid of variables x[j,k],
a set of admissible exponent matrices per stage, one dense generator
built from those matrices, and the pure powers x[j,1]^d.  The quotient
has depth zero, certified here by an explicit socle witness, so its
projective dimension equals the number of ring variables, for which a
closed product formula is also provided.  The classical three-generator
and m+n-generator special families are exposed as separate constructors
together with a recognizer mapping parameters onto them.

The certificate follows the paper's induction over the stage monomials
(`_Induction`): each is the dense generator times a monomial less terms
already shown to lie in the ideal, and the witness lies outside it
because no generator and no term of the dense generator divides it.  It
needs no Groebner basis and divides only by units, so it holds in every
characteristic.  Its data -- the pure powers, the dense generator's
terms, the witness and the targets -- are packed ints made straight from
the parameters' stage columns (`_family_induction`), with no ring or
polynomial.  The ideal is built only when a target stays open: it goes
to a degree-truncated Groebner basis (:func:`membership_basis`), and the
reports count those.  Invalid limits are refused before any work, as
:func:`~idealfam.groebner.buchberger` refuses them.  A caller that passes
its own basis gets every answer from that basis, an independent check of
the induction.
"""

from __future__ import annotations

import dataclasses
import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

from .errors import InternalError, ResourceLimitError, ValidationError
from .groebner import (
    DEFAULT_PAIR_LIMIT,
    GroebnerBasis,
    IdealPresentation,
    _check_limits,
    _Packing,
    _width,
    buchberger,
)
from .ring import (
    Monomial,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    PrimeField,
    VariableTable,
    _colmajor,
    _format_rows,
    _integers,
    _matrix_rows,
)

DEFAULT_PRIME = 32003

_PARAMS_RE = re.compile(r"^\s*(\d+)\s*:\s*\(\s*(\d+(?:\s*,\s*\d+)*)\s*,?\s*\)\s*$")


def default_field():
    return PrimeField(DEFAULT_PRIME)


@dataclass(frozen=True)
class FamilyParams:
    """Family parameters g and (m_1, ..., m_n).

    Constraints: g >= 2; m_n >= 0; m_{n-1} >= 1 when n >= 2; and
    m_i >= 2 for 1 <= i <= n-2.  n = 1 is allowed with just m_1 >= 0.
    """

    g: int
    m: tuple[int, ...]

    def __post_init__(self):
        if type(self.g) is not int or self.g < 2:
            raise ValidationError(f"g must be an integer >= 2, got {self.g!r}")
        m = _integers(self.m, "m values")
        object.__setattr__(self, "m", m)
        n = len(m)
        if n < 1:
            raise ValidationError("at least one m value is required")
        if m[-1] < 0:
            raise ValidationError(f"m_n must be >= 0, got {m[-1]}")
        if n >= 2 and m[-2] < 1:
            raise ValidationError(f"m_(n-1) must be >= 1, got {m[-2]}")
        for i in range(n - 2):
            if m[i] < 2:
                raise ValidationError(
                    f"m_{i + 1} must be >= 2 for positions 1..n-2, got {m[i]}"
                )

    @property
    def n(self) -> int:
        return len(self.m)

    @classmethod
    def parse(cls, text: str) -> "FamilyParams":
        got = _PARAMS_RE.match(text)
        if not got:
            raise ValidationError(
                f"expected parameters like '2:(2,2,2)', got {text!r}"
            )
        g = int(got.group(1))
        m = tuple(int(x) for x in got.group(2).split(","))
        return cls(g, m)

    def __str__(self):
        return f"{self.g}:({','.join(str(x) for x in self.m)})"


@dataclass(frozen=True)
class DerivedConstants:
    """Stage bounds M_k and stage degrees d_k derived from the parameters."""

    params: FamilyParams
    M: tuple[int, ...]
    d: tuple[int, ...]

    @property
    def degree(self) -> int:
        return self.d[0]


def _stage_bound(m: tuple[int, ...], k: int) -> int:
    """M_k, the entry bound of column k (0-based): m_k - 1, but m_k in the last column."""
    return m[k] - 1 if k < len(m) - 1 else m[k]


def derived_constants(params: FamilyParams) -> DerivedConstants:
    m = params.m
    n = len(m)
    M = tuple(_stage_bound(m, k) for k in range(n))
    d = tuple(sum(m[k:]) + 1 for k in range(n))
    return DerivedConstants(params, M, d)


@dataclass(frozen=True)
class ExponentMatrix:
    """A g x n matrix of nonnegative integers, stored as row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", _matrix_rows(self.rows))

    @property
    def g(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, k: int) -> tuple[int, ...]:
        return tuple(r[k] for r in self.rows)

    def colmajor(self) -> tuple[int, ...]:
        return _colmajor(self.rows)

    def in_stage(self, params: FamilyParams, k: int) -> bool:
        """Membership in the stage-k admissible set."""
        cs = derived_constants(params)
        if self.g != params.g or self.n != params.n:
            return False
        for kk in range(params.n):
            col = self.column(kk)
            if kk < k:
                if any(e > cs.M[kk] for e in col) or sum(col) != params.m[kk]:
                    return False
            else:
                if any(col):
                    return False
        return True

    def __str__(self):
        return _format_rows(self.rows)


@lru_cache(maxsize=None)
def _column_choices(g: int, total: int, bound: int):
    """All (a_1..a_g) with sum == total and 0 <= a_i <= bound, in lex order."""
    if total < 0:
        return ()
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            if 0 <= remaining <= bound:
                out.append(prefix + (remaining,))
            return
        for a in range(min(bound, remaining) + 1):
            rec(prefix + (a,), remaining - a, slots - 1)

    rec((), total, g)
    return tuple(out)


@lru_cache(maxsize=None)
def _choice_count(g: int, total: int, bound: int) -> int:
    """``len(_column_choices(g, total, bound))``, counted entry by entry
    with no tuple built: after each of the g entries, ``ways[t]`` is the
    number of choices so far that sum to t: the sum of the last bound + 1
    entries of the previous list, read off its prefix sums."""
    if total < 0:
        return 0
    ways = [1] + [0] * total
    for _ in range(g):
        sums = list(itertools.accumulate(ways, initial=0))
        ways = [sums[t + 1] - sums[max(t - bound, 0)] for t in range(total + 1)]
    return ways[total]


def _fast_matrix(rows):
    # Constructor bypass for enumeration output that is canonical already.
    mat = object.__new__(ExponentMatrix)
    object.__setattr__(mat, "rows", rows)
    return mat


def _stage_args(params: FamilyParams, k: int):
    """The (g, column sum, entry bound) of columns 1..k of a stage-k matrix."""
    if not 0 <= k <= params.n:
        raise ValidationError(f"stage must lie in 0..{params.n}, got {k}")
    g, m = params.g, params.m
    return [(g, m[kk], _stage_bound(m, kk)) for kk in range(k)]


def _stage_columns(params: FamilyParams, k: int):
    """The bounded column choices for columns 1..k of a stage-k matrix."""
    return [_column_choices(*args) for args in _stage_args(params, k)]


def enumerate_A(params: FamilyParams, k: int) -> list[ExponentMatrix]:
    """Stage-k admissible matrices, ordered by their column-major entry list.

    Columns 1..k carry bounded nonnegative entries with the prescribed
    column sums, columns beyond k vanish; stage 0 holds only the zero
    matrix.  The empty list is a legal result.
    """
    zeros = ((0,) * params.g,) * (params.n - k)
    columns = itertools.product(*_stage_columns(params, k))
    return [_fast_matrix(tuple(zip(*cols, *zeros))) for cols in columns]


def _family_index(params: FamilyParams, j: int, k: int = 0) -> int:
    """Position in `family_table` of x[j,k] (1-based j and k): the grid
    lies column by column, so at (k-1)*g + (j-1).  With no k, that of the y
    of the j-th (from 0) stage-n matrix of `enumerate_A`: at g*n + j."""
    g = params.g
    return (k - 1) * g + j - 1 if k else g * params.n + j


def family_table(params: FamilyParams) -> VariableTable:
    """Variable table for the family ring: the x grid plus one y per matrix.

    The y's come from one product over the stage columns, the loop of
    :func:`build_ideal` and `_family_induction`, with no `ExponentMatrix`:
    a matrix's rows are its columns transposed, and its name joins the
    entry texts of its columns, made once per column choice.  The product
    yields the matrices in table order, so the descriptors and names are
    right by construction and `VariableTable._trusted` skips the checks of
    the constructor, which cost as much as the rest of a small
    certificate.
    """
    g, n = params.g, params.n
    cells = [(j, k) for k in range(1, n + 1) for j in range(1, g + 1)]
    descriptors = [("x", j, k) for j, k in cells]
    names = [f"x[{j},{k}]" for j, k in cells]
    per_column = _stage_columns(params, n)
    texts = [[tuple(map(str, col)) for col in choices] for choices in per_column]
    for cols, strs in zip(itertools.product(*per_column), itertools.product(*texts)):
        descriptors.append(("y", tuple(zip(*cols))))
        names.append("y[[" + "],[".join(map(",".join, zip(*strs))) + "]]")
    return VariableTable._trusted(descriptors, names)


def build_ideal(params: FamilyParams, field=None, order=None) -> IdealPresentation:
    """The g+1 generators x[j,1]^d and the dense stage-sum generator.

    Every generator is homogeneous of the top stage degree d_1.  A stage-k
    matrix's x monomial is its columns laid end to end (`_family_index`),
    so each term is that head and a fixed tail.
    """
    if field is None:
        field = default_field()
    d = derived_constants(params).d
    g, n, m = params.g, params.n, params.m
    table = family_table(params)
    ring = PolynomialRing(table, field, order)
    nv = len(table)
    gens = []
    for j in range(1, g + 1):
        exps = [0] * nv
        exps[_family_index(params, j, 1)] = d[0]
        gens.append(ring.poly({tuple(exps): 1}))
    terms = []
    per_column = _stage_columns(params, n)
    for k in range(1, n):
        # x[j,k]^(m_k) x[j,k+1]^(d_(k+1)) after the head of columns 1..k-1.
        tails = []
        for j in range(1, g + 1):
            exps = [0] * nv
            exps[_family_index(params, j, k)] = m[k - 1]
            exps[_family_index(params, j, k + 1)] += d[k]
            tails.append(tuple(exps[_family_index(params, 1, k):]))
        for cols in itertools.product(*per_column[: k - 1]):
            head = sum(cols, ())
            terms += [(head + tail, 1) for tail in tails]
    ys = nv - _family_index(params, 0)
    for i, cols in enumerate(itertools.product(*per_column)):
        terms.append((sum(cols, ()) + (0,) * i + (1,) + (0,) * (ys - i - 1), 1))
    gens.append(ring.poly(terms))
    return IdealPresentation(ring, gens)


def socle_witness(params: FamilyParams, table: VariableTable | None = None) -> Monomial:
    """The witness monomial prod x[j,k]^(d_k - 1); no y variables occur."""
    if table is None:
        table = family_table(params)
    exps = [0] * len(table)
    for k, dk in enumerate(derived_constants(params).d, start=1):
        start = _family_index(params, 1, k)
        exps[start:start + params.g] = [dk - 1] * params.g
    return Monomial(table, exps)


def lemma_targets(params: FamilyParams, table: VariableTable | None = None) -> list[Monomial]:
    """The stage monomials prod_{k' <= k} x[.,k']^(d_k'-1) * x[j,k+1]^(d_{k+1}).

    Listed for every stage k in 0..n-1 and row j; stage 0 gives the pure
    powers x[j,1]^d.  :func:`verify_lemma` tests the same monomials as
    exponent tuples.
    """
    if table is None:
        table = family_table(params)
    return [Monomial(table, e) for e in _stage_exponents(params, table)]


def _stage_exponents(params, table):
    """The exponent tuples of `lemma_targets`, in its order."""
    g, d = params.g, derived_constants(params).d
    base = [0] * len(table)
    for k in range(params.n):
        for j in range(1, g + 1):
            exps = list(base)
            exps[_family_index(params, j, k + 1)] = d[k]
            yield tuple(exps)
        start = _family_index(params, 1, k + 1)
        base[start:start + g] = [d[k] - 1] * g


def _target_degrees(params):
    """The degrees of the stage monomials, in `lemma_targets` order, and
    of the witness."""
    g, d = params.g, derived_constants(params).d
    below = [g * sum(dk - 1 for dk in d[:k]) for k in range(params.n + 1)]
    return [below[k] + d[k] for k in range(params.n) for _ in range(g)], below[-1]


def pd_formula(params: FamilyParams) -> int:
    """Closed product formula for the projective dimension of the quotient."""
    g, m = params.g, params.m
    n = len(m)
    value = 1
    for i in range(n - 1):
        value *= comb(m[i] + g - 1, g - 1) - g
    value *= comb(m[-1] + g - 1, g - 1)
    return value + g * n


def stage_count(params: FamilyParams, k: int) -> int:
    """Number of stage-k admissible matrices, counted without building them.

    The product over the first k columns of their bounded column choices
    (the product ``enumerate_A(params, k)`` iterates), each counted by
    `_choice_count`, so no choice is built.
    """
    return prod(_choice_count(*args) for args in _stage_args(params, k))


def variable_count(params: FamilyParams) -> int:
    """Ring size by direct count: the x grid plus the stage-n matrices.

    The matrices are counted from their bounded column choices, not from
    the binomial expression in ``pd_formula``, so comparing the two is a
    real check of the formula.
    """
    return params.g * params.n + stage_count(params, params.n)


@dataclass(frozen=True)
class SocleReport:
    """Outcome of the depth-zero verification for one parameter choice.

    ``fallbacks`` counts the membership answers a Groebner basis gave
    because the stage induction left them open; it is None when the
    caller's basis gave every answer, and no comparison reads it.
    """

    params: FamilyParams
    witness: Monomial
    not_in_ideal: bool
    killed_by: tuple[tuple[str, bool], ...]
    conclusion: bool
    implied_pd: int
    fallbacks: int | None = dataclasses.field(default=None, compare=False)

    def as_dict(self):
        return {
            "params": str(self.params),
            "witness": str(self.witness),
            "not_in_ideal": self.not_in_ideal,
            "killed_by": {name: ok for name, ok in self.killed_by},
            "conclusion": self.conclusion,
            "implied_pd": self.implied_pd,
        }


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of the stage-monomial membership check; ``fallbacks`` as
    in :class:`SocleReport`."""

    params: FamilyParams
    ok: bool
    failures: tuple[Monomial, ...]
    fallbacks: int | None = dataclasses.field(default=None, compare=False)

    def as_dict(self):
        return {
            "params": str(self.params),
            "ok": self.ok,
            "failures": [str(m) for m in self.failures],
        }


def verification_degree(params: FamilyParams) -> int:
    """Largest degree any socle or stage-monomial membership test reaches."""
    stage, witness = _target_degrees(params)
    return max(witness + 1, *stage)


def membership_basis(
    ideal: IdealPresentation, degree_limit: int, *, pair_limit=DEFAULT_PAIR_LIMIT
) -> GroebnerBasis:
    """Groebner basis truncated at ``degree_limit``, for membership tests.

    The reports of this module need it only for the targets the stage
    induction leaves open (see `_Induction`), or as an independent check
    when a caller passes it in.  Homogeneous reduction never raises
    degree, so membership of elements at or below the truncation degree
    is exact.  No pair whose lcm lies above that degree is formed, and on
    this family those are most of the candidates: 2,693 of the 59,295 of
    the six ``verify`` bases lie within it.  The limit takes the kernel's
    signature criteria, which leave few reductions to zero (see
    `~idealfam.groebner._Signatures`).  Tails are only top-reduced, less
    the multiples of pure-power inputs, and the final interreduction is
    skipped: the bases stay sparser and no membership answer changes.
    ``pair_limit`` bounds the queued signatures as it bounds the pair
    queue in :func:`~idealfam.groebner.buchberger`.  The limit is
    required: ``degree_limit`` must be an int of at least 1 and
    ``pair_limit`` one of at least 0, else
    :class:`~idealfam.errors.ValidationError`.
    """
    if degree_limit is None:
        raise ValidationError("degree_limit must be an int of at least 1, not None")
    return buchberger(
        ideal, degree_limit=degree_limit, pair_limit=pair_limit, interreduce=False
    )


def verification_basis(
    params: FamilyParams, field=None, *, pair_limit=DEFAULT_PAIR_LIMIT
) -> GroebnerBasis:
    """:func:`membership_basis` of the family ideal at
    :func:`verification_degree`: a basis to pass to :func:`verify_socle`
    and :func:`verify_lemma` when their answers should come from Groebner
    division instead of the stage induction."""
    return membership_basis(
        build_ideal(params, field), verification_degree(params), pair_limit=pair_limit
    )


class _Induction:
    """The paper's stage induction on packed monomials.

    Write I = P + (f_1, ..., f_r), where P is generated by the monomial
    generators and the forms f_i are the others; on the family, P holds the
    pure powers x[j,1]^d and f is the one dense generator.  Two facts
    decide a monomial:
      - u lies outside I when no generator of P and no term of any f_i
        divides u: every element of I then has coefficient 0 at u;
      - u lies in I when some term e of some f_i divides u and every other
        term of (u/e) f_i is a multiple of a proved monomial, for then u is
        (u/e) f_i less those terms, divided by the unit coefficient of e.
    The proved set starts at P and grows with each monomial `prove`
    proves, in the caller's order.  When no term e closes u at once, a
    depth-one search tries, term by term, to prove each uncovered monomial
    of (u/e) f_i by the second rule before closing u.  Only units are
    divided by, so one proof holds in every characteristic.

    The induction sees only packed ints of one `~idealfam.groebner._Packing`
    wide enough for every target: ``base`` holds P's generators, ``forms``
    each f_i's terms, and ``powers`` maps v to d for the pure powers x_v^d
    among them.  The family's data are packed straight from its stage
    columns (`_family_induction`), any other ideal's from its generators
    (`_ideal_induction`).  Divisibility is the guard-bit test; a multiple
    of a pure power is found with one add and one mask
    (`~idealfam.groebner._Packing.multiples`), and only the other proved
    monomials are scanned.  ``proved`` lists P's generators, then each
    proved monomial in proof order.  Each (monomial, dividing term)
    candidate counts against ``pair_limit``.
    """

    def __init__(self, pk, base, forms, powers, pair_limit):
        self.pk, self.forms = pk, forms
        self.add, self.mask = add, mask = pk.multiples(powers)
        # The mask reads only the bits from the lowest power field up, and
        # below the degree bound a product's fields add without carries:
        # `_closes` tests q + t by adding these windows of q and t.
        self.lo = lo = min((pk.offsets[v] for v in powers), default=0)
        self.window = window = (1 << max(mask.bit_length() - lo, 0)) - 1
        self.windows = [[(t >> lo) & window for t in form] for form in forms]
        self.proved = list(base)
        # The proved monomials the mask does not cover, scanned one by one.
        self.others = [p for p in base if not (p + add) & mask]
        self.pair_limit, self.candidates = pair_limit, 0

    def _covered(self, t):
        """Whether a proved monomial divides t."""
        return bool((t + self.add) & self.mask) or self._scan(t)

    def _scan(self, t):
        """Whether a proved monomial the mask does not cover divides t."""
        guard = self.pk.guard
        for p in self.others:
            if not (t - p) & guard:
                return True
        return False

    def outside(self, u):
        # A proved monomial is a multiple of a generator of P or of a term
        # of a form, so testing the proved set instead of P is the same test.
        guard = self.pk.guard
        return not self._covered(u) and all(
            (u - e) & guard for form in self.forms for e in form
        )

    def _closes(self, u, search):
        """Prove u from a dividing term; with ``search``, through one-step
        proofs of the other terms left uncovered."""
        guard, scan, lo, window = self.pk.guard, self._scan, self.lo, self.window
        add, mask = self.add >> lo, self.mask >> lo
        for form, windows in zip(self.forms, self.windows):
            for e in form:
                q = u - e
                if q & guard:
                    continue
                self.candidates += 1
                if self.candidates > self.pair_limit:
                    raise ResourceLimitError(
                        f"pair queue exceeded the configured bound ({self.pair_limit})"
                    )
                # The other terms of (u/e) f no proved monomial divides.
                qa, open_ = ((q >> lo) & window) + add, []
                for t, tw in zip(form, windows):
                    if t != e and not (qa + tw) & mask:
                        x = q + t
                        if not scan(x):
                            open_.append(x)
                if open_ and not (search and all(self._closes(x, False) for x in open_)):
                    continue
                self.proved.append(u)
                self.others.append(u)
                return True
        return False

    def prove(self, u):
        """Whether u is proved to lie in I; a proved u joins the proved set."""
        return self._covered(u) or self._closes(u, True)


def _ideal_induction(ideal, degree, pair_limit):
    """`_Induction` on the generators of ``ideal``, packed in its ring's
    order with fields that hold ``degree``."""
    ring = ideal.ring
    pk = _Packing(ring.order, ring.nvars, _width(max(degree, *ideal.degrees())))
    monomials = [g.terms[0][0] for g in ideal.generators if len(g) == 1]
    # Any pure powers will do for the mask: the scan takes the rest.
    supports = [[(v, x) for v, x in enumerate(e) if x] for e in monomials]
    powers = dict(s[0] for s in supports if len(s) == 1)
    forms = [[pk.pack(e) for e, _ in g.terms] for g in ideal.generators if len(g) > 1]
    return _Induction(pk, [pk.pack(e) for e in monomials], forms, powers, pair_limit)


def _family_induction(params, order, degree, pair_limit):
    """`_Induction` on the family ideal of ``params`` under ``order``, with
    fields that hold ``degree``, and its packed targets: the stage
    monomials, w, then each ``x_v * w``.

    The packing is linear, so all is sums of the packed variables X[j,k]
    and Y_i (`_Packing.sparse`): the pure powers are d_1 X[j,1]; a matrix's
    x monomial grows one column at a time, in enumeration order; a term of
    f is a stage-(k-1) matrix's plus m_k X[j,k] + d_(k+1) X[j,k+1] for
    k < n, or the i-th stage-n matrix's plus Y_i.  f's terms are sorted
    into the ideal's term order (a smaller packed int is a larger
    monomial), so the data equal those `_ideal_induction` packs from
    :func:`build_ideal`.  No ring, polynomial or exponent tuple is built.
    """
    g, n, m = params.g, params.n, params.m
    d = derived_constants(params).d
    per_column = _stage_columns(params, n)
    nv = _family_index(params, prod(map(len, per_column)))  # one past the last y
    pk = _Packing(order, nv, _width(max(degree, d[0])))
    unit = [pk.sparse({v: 1}) for v in range(nv)]
    X = [unit[_family_index(params, 1, k):_family_index(params, 1, k + 1)] for k in range(1, n + 1)]

    def column(k):
        return [sum(e * x for e, x in zip(col, X[k])) for col in per_column[k]]

    heads, terms = [0], []
    for k in range(1, n):
        tails = [m[k - 1] * X[k - 1][j] + d[k] * X[k][j] for j in range(g)]
        terms += [h + t for h in heads for t in tails]
        heads = [h + c for h in heads for c in column(k - 1)]
    heads = [h + c for h in heads for c in column(n - 1)]
    terms += [h + y for h, y in zip(heads, unit[_family_index(params, 0):])]
    terms.sort()
    base, forms = [d[0] * x for x in X[0]], [terms]
    if len(terms) == 1:  # f = y on g:(0), a monomial generator
        base, forms = base + terms, []
    targets, below = [], 0
    for k in range(n):
        targets += [below + d[k] * x for x in X[k]]
        below += (d[k] - 1) * sum(X[k])
    targets.append(below)
    targets += [below + u for u in unit]
    powers = {_family_index(params, j, 1): d[0] for j in range(1, g + 1)}
    return _Induction(pk, base, forms, powers, pair_limit), targets


def _refuse_above(degrees, degree_limit):
    """Refuse the first target degree above ``degree_limit``, when one is
    given, with the text a basis truncated there gives."""
    if degree_limit is None:
        return
    for t in degrees:
        if t > degree_limit:
            raise ValidationError(
                f"normal form of degree {t} is not exact against a basis "
                f"truncated at degree {degree_limit}"
            )


def _certify(induction, targets, make_ideal, degree_limit, pair_limit):
    """Membership of each packed target, and the indices of those a
    Groebner basis answered.

    The targets are proved in order, each joining the proved set of the
    induction (True); one left unproved is answered False when the outside
    test holds, else left open.  Only then is ``make_ideal()`` called: the
    open targets go to :func:`membership_basis` of it at ``degree_limit``, and
    only that basis or the outside test answers that a target is not a
    member.
    """
    prove, outside = induction.prove, induction.outside
    answers = [True if prove(u) else False if outside(u) else None for u in targets]
    open_ = [k for k, ok in enumerate(answers) if ok is None]
    if open_:
        unpack = induction.pk.unpack
        basis = membership_basis(make_ideal(), degree_limit, pair_limit=pair_limit)
        for k, ok in zip(open_, basis._contains_monomials([unpack(targets[k]) for k in open_])):
            answers[k] = ok
    return answers, open_


def _witness_targets(ring, witness):
    """The witness w as an exponent tuple, then w times each variable."""
    w = ring.monomial(witness).exps
    return [w] + [w[:v] + (w[v] + 1,) + w[v + 1:] for v in range(ring.nvars)]


def _socle_report(params, table, witness, answers, fallbacks=None):
    """The report of the membership answers of w and each ``x_v * w``."""
    return SocleReport(
        params=params,
        witness=witness,
        not_in_ideal=not answers[0],
        killed_by=tuple(zip(table.names, answers[1:])),
        conclusion=not answers[0] and all(answers[1:]),
        implied_pd=len(table),
        fallbacks=fallbacks,
    )


def _lemma_report(params, table, failures, fallbacks=None):
    """The report of the stage monomials ``failures`` (exponent tuples)
    not found in the ideal."""
    failures = tuple(Monomial(table, e) for e in failures)
    return LemmaReport(params=params, ok=not failures, failures=failures, fallbacks=fallbacks)


def _family_reports(
    params, ideal=None, *, field=None, degree_limit=None, pair_limit=DEFAULT_PAIR_LIMIT
):
    """The socle and lemma reports of the family ideal of ``params`` from
    one stage induction on data packed from the stage columns
    (`_family_induction`): the stage monomials, then w, then each
    ``x_v * w``.

    The limits are checked before any work, as
    :func:`~idealfam.groebner.buchberger` checks them (None is no degree
    limit), and a target above ``degree_limit`` is refused.  The ideal is
    needed only when a target stays open: ``ideal`` when the caller has
    built it (its ring's order then packs the data), else
    :func:`build_ideal` over ``field``, built then.  The open targets go
    to :func:`membership_basis` at ``degree_limit``, by default
    :func:`verification_degree`; ``pair_limit`` bounds both the
    induction's (monomial, dividing term) candidates and that basis's
    queue."""
    _check_limits(degree_limit=degree_limit, pair_limit=pair_limit)
    stage, wdeg = _target_degrees(params)
    _refuse_above([*stage, wdeg, wdeg + 1], degree_limit)
    top = max(wdeg + 1, *stage)
    order = MonomialOrder() if ideal is None else ideal.ring.order
    induction, targets = _family_induction(params, order, top, pair_limit)
    answers, open_ = _certify(
        induction, targets, lambda: build_ideal(params, field) if ideal is None else ideal,
        degree_limit or top, pair_limit,
    )
    table = family_table(params) if ideal is None else ideal.ring.table
    k, unpack = len(stage), induction.pk.unpack
    witness = Monomial(table, unpack(targets[k]))
    failures = [unpack(u) for u, ok in zip(targets, answers[:k]) if not ok]
    return (
        _socle_report(params, table, witness, answers[k:], sum(i >= k for i in open_)),
        _lemma_report(params, table, failures, sum(i < k for i in open_)),
    )


def verify_socle(
    params: FamilyParams,
    basis: GroebnerBasis | None = None,
    field=None,
) -> SocleReport:
    """Check the witness lies outside the ideal while every variable kills it.

    A true conclusion verifies depth zero for this instance, so the
    projective dimension equals the number of ring variables.  With no
    basis the answers come from the paper's stage induction
    (`_Induction`) on the family's generators, packed straight from the
    parameters (`_family_induction`): the stage monomials of
    :func:`lemma_targets` are proved in order, then each ``x_v * w``, and
    the witness w lies outside the ideal because no generator and no term
    of the dense generator divides it.  No ring, polynomial or Groebner
    basis is built unless a target stays open; only then is the ideal
    built over ``field``, and those targets go to :func:`membership_basis`
    at :func:`verification_degree`; the report's ``fallbacks`` counts
    them.  With a basis, w and each ``x_v * w`` are tested as exponent
    tuples in its kernel form, with the checks of
    :meth:`GroebnerBasis.contains`.
    """
    if basis is None:
        return _family_reports(params, field=field)[0]
    return _socle_report_for(params, basis, socle_witness(params, basis.ring.table))


def _socle_report_for(params, basis, witness):
    targets = _witness_targets(basis.ring, witness)
    return _socle_report(params, basis.ring.table, witness, basis._contains_monomials(targets))


def verify_socle_ideal(
    ideal: IdealPresentation,
    witness: Monomial,
    basis=None,
    params=None,
    *,
    degree_limit=None,
    pair_limit=DEFAULT_PAIR_LIMIT,
) -> SocleReport:
    """Socle verification for an explicit ideal and witness monomial.

    The limits are checked first, as `_family_reports` checks them.  With
    no basis, as :func:`verify_socle`, on the ideal's generators packed in
    its ring (`_ideal_induction`): every generator of more than one term
    takes the dense generator's place, and the open targets go to
    :func:`membership_basis` at ``degree_limit``, by default one above the
    witness degree.  With a basis, on the kernel-form route of
    :func:`verify_socle`.  A witness over another variable table raises
    :class:`~idealfam.errors.DomainMismatchError`.
    """
    _check_limits(degree_limit=degree_limit, pair_limit=pair_limit)
    if basis is not None:
        return _socle_report_for(params, basis, witness)
    targets = _witness_targets(ideal.ring, witness)
    top = sum(targets[0]) + 1
    _refuse_above([top - 1, top], degree_limit)
    induction = _ideal_induction(ideal, top, pair_limit)
    answers, open_ = _certify(
        induction, [induction.pk.pack(t) for t in targets], lambda: ideal,
        degree_limit or top, pair_limit,
    )
    return _socle_report(params, ideal.ring.table, witness, answers, len(open_))


def verify_lemma(
    params: FamilyParams,
    basis: GroebnerBasis | None = None,
    field=None,
) -> LemmaReport:
    """Check that every stage monomial is an ideal member.

    With no basis the monomials of :func:`lemma_targets` are proved by the
    stage induction of :func:`verify_socle`, on the same packed data, with
    its fallback (the ideal built over ``field`` only for an open target)
    and ``fallbacks`` count.  With a basis they are tested as exponent
    tuples in its kernel form.  Only the failures become `Monomial`s.
    """
    if basis is None:
        return _family_reports(params, field=field)[1]
    table = basis.ring.table
    stage = list(_stage_exponents(params, table))
    answers = basis._contains_monomials(stage)
    return _lemma_report(params, table, [e for e, ok in zip(stage, answers) if not ok])


def _monomials_of_degree(nvars: int, degree: int):
    """Exponent tuples of total degree ``degree``, descending in grevlex."""
    order = MonomialOrder("grevlex")
    combos = []
    for bars in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in bars:
            exps[i] += 1
        combos.append(tuple(exps))
    combos.sort(key=order.heapkey)
    return combos


def mccullough_ideal(m: int, n: int, d: int, field=None, order=None) -> IdealPresentation:
    """Pure powers x_i^d plus one bilinear-in-y generator per column.

    The ring has m + p*n variables where p counts the degree d-1
    monomials Z_1 > Z_2 > ... in x_1..x_m; column k contributes the
    generator sum_j Z_j * y[j,k].
    """
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    if d < 2:
        raise ValidationError(f"d must be >= 2, got {d}")
    if field is None:
        field = default_field()
    zs = _monomials_of_degree(m, d - 1)
    p = len(zs)
    names = [f"x[{i}]" for i in range(1, m + 1)]
    names += [f"y[{j},{k}]" for k in range(1, n + 1) for j in range(1, p + 1)]
    table = VariableTable.named(names)
    ring = PolynomialRing(table, field, order)
    nv = len(table)
    gens = []
    for i in range(m):
        exps = [0] * nv
        exps[i] = d
        gens.append(ring.poly({tuple(exps): 1}))
    for k in range(1, n + 1):
        terms = []
        for j, z in enumerate(zs, start=1):
            exps = [0] * nv
            exps[: m] = z
            exps[table.index(f"y[{j},{k}]")] = 1
            terms.append((tuple(exps), 1))
        gens.append(ring.poly(terms))
    return IdealPresentation(ring, gens)


def mccullough_witness(m: int, n: int, d: int, table: VariableTable) -> Monomial:
    """Witness prod x_i^(d-1) for the m + p*n variable special family."""
    exps = [0] * len(table)
    for i in range(m):
        exps[i] = d - 1
    return Monomial(table, exps)


def caviglia_ideal(d: int, field=None, order=None) -> IdealPresentation:
    """The three generators x^d, y^d, x*w^(d-1) - y*z^(d-1) in K[w,x,y,z]."""
    if d < 2:
        raise ValidationError(f"d must be >= 2, got {d}")
    if field is None:
        field = default_field()
    table = VariableTable.named(["w", "x", "y", "z"])
    ring = PolynomialRing(table, field, order)
    w, x, y, z = (ring.variable(i) for i in range(4))
    gens = [x**d, y**d, x * w ** (d - 1) - y * z ** (d - 1)]
    return IdealPresentation(ring, gens)


def caviglia_witness(d: int, table: VariableTable) -> Monomial:
    """Witness x^(d-1) y^(d-1) w^(d-2) z^(d-2) over the table (w, x, y, z)."""
    return Monomial(table, (d - 2, d - 1, d - 1, d - 2))


@dataclass(frozen=True)
class SubfamilyMatch:
    """A recognized special form of a parameter choice."""

    label: str
    constructor: str
    arguments: tuple[int, ...]
    variable_map: tuple[tuple[str, str], ...]
    sign_map: tuple[tuple[str, int], ...]
    verification: str

    def as_dict(self):
        return {
            "label": self.label,
            "constructor": self.constructor,
            "arguments": list(self.arguments),
            "variable_map": {a: b for a, b in self.variable_map},
            "sign_map": {a: s for a, s in self.sign_map},
            "verification": self.verification,
        }


def _transplant(poly: Polynomial, target_ring: PolynomialRing, index_map) -> Polynomial:
    """Rebuild a polynomial over another ring along a variable index map."""
    terms = []
    for e, c in poly.terms:
        exps = [0] * target_ring.nvars
        for i, x in enumerate(e):
            if x:
                exps[index_map[i]] += x
        terms.append((tuple(exps), c))
    return target_ring.poly(terms)


def _mapped_basis(family_ideal, ring, index_map, signs):
    """Reduced basis of the family ideal renamed into ``ring``, then sign-flipped."""
    mapped = [
        _transplant(gen, ring, index_map).substitute_signs(dict(enumerate(signs)))
        for gen in family_ideal.generators
    ]
    return buchberger(IdealPresentation(ring, mapped)).elements


def identify_subfamily(params: FamilyParams, field=None) -> SubfamilyMatch | None:
    """Recognize parameter choices matching a special constructor.

    ``2:(1,q)`` matches the four-variable three-generator family of
    degree q+2; ``g:(q)`` with q >= 1 matches the m + p*n family with one
    column and degree q+1 (``g:(0)`` would need degree 1, which that family
    does not have).  Equality of ideals is proved by reduced-basis comparison
    after renaming (and, for the first family, a searched sign flip).
    Both equalities always hold.  For ``2:(1,q)``, M_1 = 0 leaves stage 2
    empty, so the ring is exactly the four grid variables, and flipping
    one variable's sign maps the generators onto Caviglia's.  For
    ``g:(q)``, the stage-1 matrices are the degree-q monomials in g
    variables, so renaming alone suffices.  A failed comparison is
    therefore a bug and raises :class:`InternalError`.
    """
    if field is None:
        field = default_field()
    g, m = params.g, params.m

    if g == 2 and params.n == 2 and m[0] == 1:
        d = m[1] + 2
        family = build_ideal(params, field)
        target = caviglia_ideal(d, field)
        ftab, ttab = family.ring.table, target.ring.table
        pairs = [("x[1,1]", "x"), ("x[2,1]", "y"), ("x[1,2]", "w"), ("x[2,2]", "z")]
        index_map = {ftab.index(a): ttab.index(b) for a, b in pairs}
        want = buchberger(target).elements
        for signs in itertools.product((1, -1), repeat=4):
            if _mapped_basis(family, target.ring, index_map, signs) == want:
                return SubfamilyMatch(
                    label=f"caviglia d={d}",
                    constructor="caviglia",
                    arguments=(d,),
                    variable_map=tuple(pairs),
                    sign_map=tuple(zip(ttab.names, signs)),
                    verification="groebner",
                )
        raise InternalError(f"{params} matches caviglia_ideal({d}) under no sign flip")

    if params.n == 1 and m[0] >= 1:
        d = m[0] + 1
        family = build_ideal(params, field)
        target = mccullough_ideal(g, 1, d, field)
        ftab, ttab = family.ring.table, target.ring.table
        pairs = [(f"x[{j},1]", f"x[{j}]") for j in range(1, g + 1)]
        zs = _monomials_of_degree(g, d - 1)
        z_pos = {z: j for j, z in enumerate(zs, start=1)}
        for mat in enumerate_A(params, 1):
            col = mat.column(0)
            pairs.append((f"y{mat}", f"y[{z_pos[col]},1]"))
        index_map = {ftab.index(a): ttab.index(b) for a, b in pairs}
        signs = (1,) * target.ring.nvars
        if _mapped_basis(family, target.ring, index_map, signs) != buchberger(target).elements:
            raise InternalError(f"{params} does not rename onto mccullough_ideal({g}, 1, {d})")
        return SubfamilyMatch(
            label=f"mccullough m={g} n=1 d={d}",
            constructor="mccullough",
            arguments=(g, 1, d),
            variable_map=tuple(pairs),
            sign_map=tuple(zip(ttab.names, signs)),
            verification="groebner",
        )

    return None


def preset_three_generators(p: int) -> FamilyParams:
    """Parameters with three generators of degree p^2 (for p >= 2)."""
    if p < 2:
        raise ValidationError(f"p must be >= 2, got {p}")
    return FamilyParams(2, (p + 1,) * (p - 1) + (0,))


def preset_many_generators(p: int) -> FamilyParams:
    """Parameters with 2p+1 generators of degree 2p+1 (for p >= 1)."""
    if p < 1:
        raise ValidationError(f"p must be >= 1, got {p}")
    return FamilyParams(2 * p, (2,) * p)
