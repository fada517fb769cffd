"""Buchberger's algorithm, normal forms, ideal membership, Hilbert numerators.

The kernel works on raw data.  A polynomial is a dict mapping exponent
tuples to nonzero coefficients, and a basis element is a monic `_Gen`
record; inputs are homogeneous, so it keeps no degree or sugar.  A term
of a free module is its exponent tuple with the component index
appended, ``exps + (comp,)``, and a module vector is a `_Gen` whose
``lm`` ends in its component.  A term and any reducer of it share the
component (and the Schreyer tower's shift of ``exps``), so divisibility,
bit masks, shifts and S-polynomials treat both kinds alike; only the
order key and the list of candidate reducers differ, and `_reduce` takes
both from its caller.  An order key for module terms must not hand the
component to a monomial order.

`_buchberger_kernel` is the one Buchberger loop, for ideals and for
submodules of free modules.  `_divides` and `_lcm` read the component slot
as one more exponent, so for modules it compares leads only within one
component, and it uses no product criterion there.

A :class:`GroebnerBasis` keeps the kernel's records as its one stored
form: membership, normal forms, leading monomials and Hilbert numerators
read them directly, and the :class:`~idealfam.ring.Polynomial` elements
are built only when asked for.
"""

from __future__ import annotations

import heapq
from itertools import chain, islice
from operator import add, sub

from .errors import ResourceLimitError, ValidationError
from .ring import Monomial, MonomialOrder, Polynomial, PolynomialRing, PrimeField

DEFAULT_PAIR_LIMIT = 1_000_000

_STRATEGIES = ("normal", "lcm", "fifo")


class _Gen:
    """Monic polynomial or module vector in kernel form; degree is the lead's."""

    __slots__ = ("lm", "mask", "tail", "idx")

    def __init__(self, lm, mask, tail, idx):
        self.lm = lm
        self.mask = mask
        self.tail = tail      # tuple of (exps, coeff), lead term excluded
        self.idx = idx


def _mask(exps):
    m = 0
    for i, e in enumerate(exps):
        if e:
            m |= 1 << i
    return m


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm(a, b):
    return tuple([x if x >= y else y for x, y in zip(a, b)])


def _ascending(hk):
    """Sort key, smallest monomial first, from a heapkey (largest first)."""
    return tuple(_ascending(x) if type(x) is tuple else -x for x in hk)


def _make_gen(terms, key, field, idx):
    """Monic kernel record from a nonzero term dict."""
    ordered = sorted(terms, key=key)
    lm = ordered[0]
    lc = terms[lm]
    if lc != field.one:
        inv = field.inv(lc)
        mul = field.mul
        tail = tuple((e, mul(terms[e], inv)) for e in ordered[1:])
    else:
        tail = tuple((e, terms[e]) for e in ordered[1:])
    return _Gen(lm, _mask(lm), tail, idx)


def _reduce(terms, reducers, key, field, *, full=True, track=False):
    """Divide a term dict by monic records, largest term first.

    ``reducers(m)`` lists the candidate records for the term ``m`` in a
    fixed order and the first whose lead divides ``m`` is used, so the
    result is deterministic and the caller picks the reducer order.
    Against a Groebner basis membership and the full remainder do not
    depend on that order, so `GroebnerBasis` offers its records lowest
    lead degree first, which finds a divisor after far fewer tests.
    Buchberger's kernel and `_interreduce` keep list order because they
    divide by records that are not yet a Groebner basis, and the Schreyer
    tower because it keeps the quotients: there the divisor chosen shows
    in non-canonical bases, in the S-polynomials formed and in syzygy
    columns; only its ``key`` reads the Schreyer shift of its terms.
    Returns ``(remainder, quotients)``; quotients maps a record's ``idx``
    to a term dict of shifts, and is None unless ``track``.
    """
    work = dict(terms)
    heap = [key(e) + (e,) for e in work]
    heapq.heapify(heap)
    remainder = {}
    quotients = {} if track else None
    prime = field.p if isinstance(field, PrimeField) else None
    while heap:
        m = heapq.heappop(heap)[-1]
        c = work.pop(m, None)
        if not c:
            continue
        mm = _mask(m)
        for red in reducers(m):
            if red.mask & mm == red.mask and _divides(red.lm, m):
                break
        else:
            remainder[m] = c
            if full:
                continue
            break
        shift = tuple(map(sub, m, red.lm))
        if track:
            q = quotients.setdefault(red.idx, {})
            q[shift] = field.add(q.get(shift, field.zero), c)
        if prime is not None:
            for e2, c2 in red.tail:
                e = tuple(map(add, e2, shift))
                prev = work.get(e)
                if prev is None:
                    v = -c * c2 % prime
                    if v:
                        work[e] = v
                        heapq.heappush(heap, key(e) + (e,))
                else:
                    v = (prev - c * c2) % prime
                    if v:
                        work[e] = v
                    else:
                        del work[e]
        else:
            for e2, c2 in red.tail:
                e = tuple(map(add, e2, shift))
                prev = work.get(e)
                if prev is None:
                    v = field.neg(field.mul(c, c2))
                    if v != field.zero:
                        work[e] = v
                        heapq.heappush(heap, key(e) + (e,))
                else:
                    v = field.sub(prev, field.mul(c, c2))
                    if v != field.zero:
                        work[e] = v
                    else:
                        del work[e]
    remainder.update(work)
    return remainder, quotients


def _spoly(f, g, field):
    """S-polynomial term dict of two monic kernel generators."""
    lcm = _lcm(f.lm, g.lm)
    u = tuple(map(sub, lcm, f.lm))
    v = tuple(map(sub, lcm, g.lm))
    acc = {}
    zero = field.zero
    for e, c in f.tail:
        acc[tuple(map(add, e, u))] = c
    for e, c in g.tail:
        key = tuple(map(add, e, v))
        val = field.sub(acc.get(key, zero), c)
        if val == zero:
            acc.pop(key, None)
        else:
            acc[key] = val
    return acc


def _reducers(gens, component):
    """`_reduce`'s lookup over ``gens`` in list order: all of them for an
    ideal term, those whose lead shares its component for a module term."""
    if component is None:
        return lambda m: gens
    buckets = {}
    for g in gens:
        buckets.setdefault(g.lm[component], []).append(g)
    return lambda m: buckets.get(m[component], ())


def _interreduce(gens, heapkey, field, component=None):
    """One pass of mutual reduction in place; returns whether it changed.

    Each record is divided by all the others in list order, the earlier
    ones already replaced by their reductions; a record is rebuilt only
    when its reduction changed it, and dropped when it reduced to zero.
    When no lead divides another, the leads stay fixed and one pass
    leaves every tail fully reduced.
    """
    one = field.one
    changed = False
    a = 0
    while a < len(gens):
        g = gens[a]
        t = {g.lm: one}
        t.update(g.tail)
        others = _reducers(gens[:a] + gens[a + 1 :], component)
        r, _ = _reduce(t, others, heapkey, field)
        if r == t:
            a += 1
            continue
        changed = True
        if r:
            gens[a] = _make_gen(r, heapkey, field, g.idx)
            a += 1
        else:
            del gens[a]
    return changed


def _chain_pairs(G, h, degree_limit=None, component=None):
    """The pairs (g, h), g in G, that the chain and product criteria keep.

    G lists the current generators in index order, leads pairwise
    non-dividing.  A pair (g, h) goes when lead(p) divides lcm(g, h) for a
    p later in G or kept before g; this equals lcm(h, p) dividing
    lcm(g, h).  A coprime g makes no pair but is kept as a chain witness.
    For module terms only the g in h's lead component take part, and a
    coprime g makes a pair too: the product criterion does not hold there.
    A candidate whose lcm degree exceeds ``degree_limit`` is kept as a
    witness untested and reported only by the returned flag.  It never
    witnesses against a pair within the limit: if its lead divided that
    pair's lcm, its own lcm with h would divide that lcm too.  Returns
    ``([(g, lcm, mask), ...], any_above_limit)``.
    """
    mh = h.lm
    mask_h = h.mask
    if component is not None:
        c = mh[component]
        G = [g for g in G if g.lm[component] == c]
    kept = []
    new = []
    above = False
    for k, g in enumerate(G):
        if mask_h & g.mask or component is not None:
            lcm = _lcm(mh, g.lm)
            if degree_limit is not None and sum(lcm) > degree_limit:
                above = True
            else:
                mask = mask_h | g.mask
                if any(
                    p.mask & mask == p.mask and _divides(p.lm, lcm)
                    for p in chain(islice(G, k + 1, None), kept)
                ):
                    continue
                new.append((g, lcm, mask))
        kept.append(g)
    return new, above


def _b_filters(x, i, j, lcm, mask, component=None):
    """Whether generator x's arrival drops the pair (i, j) with that lcm."""
    return (
        x.mask & mask == x.mask
        and _divides(x.lm, lcm)
        and (component is None or x.lm[component] == lcm[component])
        and _lcm(i.lm, x.lm) != lcm
        and _lcm(j.lm, x.lm) != lcm
    )


def _buchberger_kernel(
    inputs,
    heapkey,
    field,
    *,
    component=None,
    degree_limit=None,
    pair_limit=DEFAULT_PAIR_LIMIT,
    strategy="normal",
    tail_reduce=True,
    interreduce=True,
):
    """Groebner basis of homogeneous term dicts; returns (gens, truncated).

    Pairs go through the Gebauer-Moeller update: when a generator h
    arrives, the product criterion drops a new pair (g, h) of an ideal
    whose leads are coprime, the chain criterion drops a new pair (g, h)
    when another generator's lead divides lcm(g, h) (`_chain_pairs`), and
    the B-filter drops an old pair (i, j) when lead(h) divides lcm(i, j)
    and that lcm differs from both lcm(i, h) and lcm(j, h) (`_b_filters`).
    Each pair's lcm and its bit mask are computed once, when the pair is
    made, and stored with the pair; a bit-mask test runs before every
    divisibility test.  Pairs are selected by minimal lcm degree
    (``normal``), smallest lcm in the monomial order first (``lcm``), or
    in creation order (``fifo``).  The input is homogeneous, so minimal
    lcm degree is the sugar strategy, and records keep no sugar.

    A pair whose lcm degree exceeds ``degree_limit`` never yields a
    generator, so it is neither chain-tested, stored nor B-filtered, and
    ``pair_limit`` counts only the stored pairs within the limit.  No pair
    within the limit is decided differently, since an above-limit
    candidate is never its chain witness.

    ``truncated`` is true exactly when a run that also queued the pairs
    above the limit would select one of them while it is live: the pair
    passed the chain test when its h arrived, and no generator that
    arrived before its turn B-filtered it.  A generator made after that pair arrived before its
    turn when the pair that made the generator has the smaller selection
    key and was itself made before that turn.  Under ``normal`` selection,
    or ``lcm`` in a degree-compatible order, every pair within the limit
    is selected before every pair above it, so every later generator
    counts.  When the queue is empty, the chain test is replayed over the
    recorded ``(G, h)`` of each h that had candidates above the limit,
    latest h first, until one such pair is found.

    With ``interreduce`` the result is the unique reduced basis; without
    it the basis is only lead-minimal, which membership tests do not
    notice but is cheaper on large inputs.

    For module vectors ``component`` is the position of a term's component
    (-1 in the ``exps + (comp,)`` encoding); it is None for ideals.  Pairs,
    chain witnesses, B-filters, the pruning of G and every division stay
    within one lead component, and coprime leads still make a pair: the
    product criterion is unsound for modules.  An lcm's degree counts the
    component index, so module callers pass no ``degree_limit``.
    """
    if strategy not in _STRATEGIES:
        raise ValidationError(f"unknown selection strategy {strategy!r}")
    # Input leads may divide each other, so reduce until nothing changes.
    f = [_make_gen(t, heapkey, field, 0) for t in inputs if t]
    while _interreduce(f, heapkey, field, component):
        pass
    for k, g in enumerate(f):
        g.idx = k

    # Each selection key ends in its pair (i, j); pairs are made in the
    # order of (j, i), which ``fifo`` follows.
    if strategy == "normal":
        def select_key(pair, lcm):
            return (sum(lcm), heapkey(lcm), pair)
    elif strategy == "lcm":
        def select_key(pair, lcm):
            return (_ascending(heapkey(lcm)), pair)
    else:
        def select_key(pair, lcm):
            return (pair[1], pair)

    # Live pairs (i, j), i < j, each mapped to its (lcm, lcm mask).  The
    # heap may hold pairs the B-filter has since dropped; they are skipped.
    pairs = {}
    heap = []
    # (G, h) for every h that had candidates above the limit, and the
    # selection key of the pair each generator came from.
    above_limit = []
    origin = {}

    def update(G, h):
        new, above = _chain_pairs(G, h, degree_limit, component)
        if above:
            above_limit.append((G, h))
        dropped = [
            pair
            for pair, (lcm, mask) in pairs.items()
            if _b_filters(h, f[pair[0]], f[pair[1]], lcm, mask, component)
        ]
        for pair in dropped:
            del pairs[pair]
        for g, lcm, mask in new:
            pair = (g.idx, h.idx)
            pairs[pair] = (lcm, mask)
            heapq.heappush(heap, select_key(pair, lcm))
        # A new list: the (G, h) records above keep the old one.
        G = [
            g
            for g in G
            if g.mask & h.mask != h.mask
            or not _divides(h.lm, g.lm)
            or component is not None and g.lm[component] != h.lm[component]
        ]
        G.append(h)
        return G

    G = []
    for g in f:
        G = update(G, g)

    while heap:
        if len(pairs) > pair_limit:
            raise ResourceLimitError(
                f"pair queue exceeded the configured bound ({pair_limit})"
            )
        key = heapq.heappop(heap)
        pair = key[-1]
        if pairs.pop(pair, None) is None:
            continue
        i, j = pair
        s = _spoly(f[i], f[j], field)
        if not s:
            continue
        r, _ = _reduce(s, _reducers(G, component), heapkey, field, full=tail_reduce)
        if not r:
            continue
        h = _make_gen(r, heapkey, field, len(f))
        f.append(h)
        origin[h.idx] = key
        G = update(G, h)

    def arrived_before(x, j, key):
        # Whether x arrived before the turn of the pair with selection key
        # ``key``, made when f[j] arrived.
        while x.idx > j and x.idx in origin:
            made_by = origin[x.idx]
            if made_by > key:
                return False
            x = f[made_by[-1][1]]
        return True

    def live_above_limit():
        for Gh, h in reversed(above_limit):
            for g, lcm, mask in _chain_pairs(Gh, h, None, component)[0]:
                if sum(lcm) <= degree_limit:
                    continue
                key = select_key((g.idx, h.idx), lcm)
                if not any(
                    _b_filters(x, g, h, lcm, mask, component)
                    and arrived_before(x, h.idx, key)
                    for x in islice(f, h.idx + 1, None)
                ):
                    return True
        return False

    truncated = live_above_limit()

    # The input leads are interreduced, each new lead is irreducible by G
    # and update drops its multiples, so the leads of G are minimal, and
    # one pass of tail reduction gives the unique reduced basis.
    if interreduce:
        _interreduce(G, heapkey, field, component)
    G.sort(key=lambda g: heapkey(g.lm))
    return G, truncated


class IdealPresentation:
    """Homogeneous generators of a proper ideal in a fixed ring."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: PolynomialRing, generators):
        gens = tuple(generators)
        if not gens:
            raise ValidationError("an ideal presentation needs at least one generator")
        for g in gens:
            if not isinstance(g, Polynomial) or g.ring != ring:
                raise ValidationError("generators must be polynomials in the given ring")
            if not g:
                raise ValidationError("generators must be nonzero")
            d = g.homogeneous_degree()
            if d is None:
                raise ValidationError(f"generator {g} is not homogeneous")
            if d == 0:
                raise ValidationError("degree-0 generators give the unit ideal")
        self.ring = ring
        self.generators = gens

    def degrees(self):
        return tuple(g.homogeneous_degree() for g in self.generators)

    def __eq__(self, other):
        return (
            isinstance(other, IdealPresentation)
            and other.ring == self.ring
            and other.generators == self.generators
        )

    def __repr__(self):
        return f"IdealPresentation({len(self.generators)} generators, {self.ring!r})"


class GroebnerBasis:
    """A monic Groebner basis with a fixed deterministic element order.

    The basis is stored as the kernel's monic records; ``elements`` builds
    the public polynomials on first access.  Membership and normal forms
    divide by the records lowest lead degree first (ties in element
    order), a list built once on first use.  The constructor trusts its
    input to be a Groebner basis and does not check it; for any other
    input ``normal_form`` depends on that reducer order.
    """

    __slots__ = (
        "ring", "reduced", "truncated_at", "source", "_gens", "_elements", "_by_degree"
    )

    def __init__(self, ring, elements, *, reduced, truncated_at=None, source=None):
        """A basis from given polynomials, turned into monic records once."""
        self.ring = ring
        self.reduced = reduced
        self.truncated_at = truncated_at
        self.source = source
        self._elements = tuple(elements)
        self._by_degree = None
        heapkey = ring.order.heapkey_fn()
        self._gens = [
            _make_gen(dict(p.terms), heapkey, ring.field, k)
            for k, p in enumerate(self._elements)
        ]

    @classmethod
    def _from_kernel(cls, ring, gens, **flags):
        """A basis that keeps the kernel records ``buchberger`` computed."""
        basis = cls(ring, (), **flags)
        basis._gens = gens
        basis._elements = None
        return basis

    @property
    def elements(self):
        if self._elements is None:
            one = self.ring.field.one
            self._elements = tuple(
                Polynomial(self.ring, ((g.lm, one),) + g.tail) for g in self._gens
            )
        return self._elements

    def _remainder(self, p, full):
        if p.ring != self.ring:
            raise ValidationError("polynomial is not in the basis ring")
        if self.truncated_at is not None and p and p.degree() > self.truncated_at:
            raise ValidationError(
                f"normal form of degree {p.degree()} is not exact against a "
                f"basis truncated at degree {self.truncated_at}"
            )
        if self._by_degree is None:
            self._by_degree = sorted(self._gens, key=lambda g: sum(g.lm))
        by_degree = self._by_degree
        r, _ = _reduce(
            dict(p.terms), lambda m: by_degree, self.ring.order.heapkey_fn(),
            self.ring.field, full=full,
        )
        return r

    def normal_form(self, p: Polynomial) -> Polynomial:
        return self.ring.poly(self._remainder(p, full=True))

    def contains(self, p: Polynomial) -> bool:
        return not self._remainder(p, full=False)

    __contains__ = contains

    def leading_monomials(self):
        return tuple(Monomial(self.ring.table, g.lm) for g in self._gens)

    def hilbert_numerator(self) -> "HilbertNumerator":
        if not self.reduced:
            raise ValidationError("Hilbert numerator needs a reduced basis")
        if self.truncated_at is not None:
            raise ValidationError("Hilbert numerator needs an untruncated basis")
        lms = [g.lm for g in self._gens]
        coeffs = _hilbert_kernel(_minimal_monomials(lms), {})
        return HilbertNumerator(coeffs, self.ring.nvars)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self._gens)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and other.ring == self.ring
            and other.elements == self.elements
        )

    def __repr__(self):
        return f"GroebnerBasis({len(self)} elements, reduced={self.reduced})"


def buchberger(
    ideal: IdealPresentation,
    order=None,
    *,
    degree_limit=None,
    pair_limit=DEFAULT_PAIR_LIMIT,
    strategy="normal",
    tail_reduce=True,
    interreduce=True,
) -> GroebnerBasis:
    """Reduced Groebner basis of an ideal presentation.

    With ``degree_limit`` no S-pair whose lcm lies above the limit is
    formed, and the basis is exact in all degrees up to the limit.
    ``truncated_at`` is then the limit when such a pair survived the pair
    criteria, and None when none did, so that the basis is complete.
    ``pair_limit`` bounds the queued pairs; pairs above ``degree_limit``
    are never queued and do not count.  ``interreduce=False`` skips the
    final tail interreduction; the result still yields correct normal
    forms but is not the canonical reduced basis.
    """
    ring = ideal.ring
    if order is not None:
        if isinstance(order, str):
            order = MonomialOrder(order)
        if order != ring.order:
            ring = ring.with_order(order)
    heapkey = ring.order.heapkey_fn()
    field = ring.field
    inputs = [dict(g.terms) for g in ideal.generators]
    gens, truncated = _buchberger_kernel(
        inputs,
        heapkey,
        field,
        degree_limit=degree_limit,
        pair_limit=pair_limit,
        strategy=strategy,
        tail_reduce=tail_reduce,
        interreduce=interreduce,
    )
    return GroebnerBasis._from_kernel(
        ring,
        gens,
        reduced=interreduce,
        truncated_at=degree_limit if truncated else None,
        source=ideal,
    )


def normal_form(p: Polynomial, basis: GroebnerBasis) -> Polynomial:
    return basis.normal_form(p)


def is_member(p: Polynomial, basis: GroebnerBasis) -> bool:
    return basis.contains(p)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of two nonzero polynomials in a common ring."""
    if f.ring != g.ring:
        raise ValidationError("polynomials live in different rings")
    if not f or not g:
        raise ValidationError("S-polynomial of zero is undefined")
    ring = f.ring
    heapkey = ring.order.heapkey
    field = ring.field
    gf = _make_gen(dict(f.terms), heapkey, field, 0)
    gg = _make_gen(dict(g.terms), heapkey, field, 1)
    return ring.poly(_spoly(gf, gg, field))


def _minimal_monomials(exps_list):
    """Minimal generators of the monomial ideal spanned by the input."""
    uniq = sorted(set(exps_list), key=lambda e: (sum(e), e))
    out = []
    for e in uniq:
        if not any(_divides(m, e) for m in out):
            out.append(e)
    return out


def _support_masks_disjoint(gens):
    seen = 0
    for e in gens:
        m = _mask(e)
        if m & seen:
            return False
        seen |= m
    return True


def _poly_mul_1mt(coeffs, d):
    """Multiply an integer t-polynomial (dict) by (1 - t^d)."""
    out = dict(coeffs)
    for k, v in coeffs.items():
        out[k + d] = out.get(k + d, 0) - v
    return {k: v for k, v in out.items() if v}


def _hilbert_kernel(gens, memo):
    """Numerator coefficients for a minimally generated monomial ideal.

    Standard splitting recursion: pick the most frequent variable v and
    use N(M) = N(M + (v)) + t * N(M : v); disjoint supports terminate
    with the Koszul product.
    """
    if not gens:
        return {0: 1}
    key = frozenset(gens)
    got = memo.get(key)
    if got is not None:
        return got
    if any(sum(e) == 0 for e in gens):
        return {}
    if _support_masks_disjoint(gens):
        out = {0: 1}
        for e in gens:
            out = _poly_mul_1mt(out, sum(e))
        memo[key] = out
        return out
    nvars = len(gens[0])
    counts = [0] * nvars
    for e in gens:
        for i, x in enumerate(e):
            if x:
                counts[i] += 1
    pivot = max(range(nvars), key=lambda i: (counts[i], -i))
    # M + (x_pivot): drop generators containing the pivot, add the pivot.
    plus = [e for e in gens if not e[pivot]]
    unit = tuple(1 if i == pivot else 0 for i in range(nvars))
    plus = _minimal_monomials(plus + [unit])
    # M : x_pivot: lower the pivot exponent by one where positive.
    colon = [
        tuple(x - 1 if i == pivot and x else x for i, x in enumerate(e)) for e in gens
    ]
    colon = _minimal_monomials(colon)
    a = _hilbert_kernel(tuple(plus), memo)
    b = _hilbert_kernel(tuple(colon), memo)
    out = dict(a)
    for k, v in b.items():
        out[k + 1] = out.get(k + 1, 0) + v
    out = {k: v for k, v in out.items() if v}
    memo[key] = out
    return out


class HilbertNumerator:
    """Numerator N(t) with Hilb_{R/I}(t) = N(t) / (1 - t)^nvars."""

    __slots__ = ("coeffs", "nvars")

    def __init__(self, coeffs, nvars: int):
        self.coeffs = tuple(sorted((int(d), int(c)) for d, c in dict(coeffs).items() if c))
        self.nvars = nvars

    def coefficient(self, d: int) -> int:
        for deg, c in self.coeffs:
            if deg == d:
                return c
        return 0

    def as_dict(self):
        return dict(self.coeffs)

    def dimensions(self, upto: int):
        """Graded dimensions of R/I in degrees 0..upto."""
        from math import comb

        n = self.nvars
        out = []
        for e in range(upto + 1):
            total = 0
            for d, c in self.coeffs:
                if d <= e:
                    total += c * comb(n - 1 + e - d, n - 1)
            out.append(total)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, HilbertNumerator)
            and other.coeffs == self.coeffs
            and other.nvars == self.nvars
        )

    def __hash__(self):
        return hash((self.coeffs, self.nvars))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in self.coeffs:
            body = "1" if d == 0 else ("t" if d == 1 else f"t^{d}")
            if d == 0:
                text = str(abs(c))
            elif abs(c) == 1:
                text = body
            else:
                text = f"{abs(c)}*{body}"
            if not parts:
                parts.append(text if c > 0 else f"-{text}")
            else:
                parts.append(f" + {text}" if c > 0 else f" - {text}")
        return "".join(parts)

    def __repr__(self):
        return f"HilbertNumerator({self}, nvars={self.nvars})"


def hilbert_numerator(basis: GroebnerBasis) -> HilbertNumerator:
    return basis.hilbert_numerator()
