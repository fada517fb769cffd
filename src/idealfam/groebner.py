"""Buchberger's algorithm, normal forms, ideal membership, Hilbert numerators.

The kernel works on raw data.  A polynomial is a dict mapping exponent
tuples to nonzero coefficients, and a basis element is a monic `_Gen`
record.  A term of a free module is its exponent tuple with the component
index appended, ``exps + (comp,)``, and a module vector is a `_Gen` whose
``lm`` ends in its component and whose ``sugar`` holds its twist.  A term
and any reducer of it share the component, so divisibility, bit masks,
shifts and S-polynomials treat both kinds alike; only the order key and
the list of candidate reducers differ, and `_reduce` takes both from its
caller.  An order key for module terms must not hand the component to a
monomial order.

A :class:`GroebnerBasis` keeps the kernel's records as its one stored
form: membership, normal forms, leading monomials and Hilbert numerators
read them directly, and the :class:`~idealfam.ring.Polynomial` elements
are built only when asked for.
"""

from __future__ import annotations

import heapq
from itertools import chain, count, islice

from .errors import ResourceLimitError, ValidationError
from .ring import Monomial, MonomialOrder, Polynomial, PolynomialRing, PrimeField

DEFAULT_PAIR_LIMIT = 1_000_000

_STRATEGIES = ("normal", "lcm", "fifo")


class _Gen:
    """Monic basis polynomial or module vector in kernel form."""

    __slots__ = ("lm", "mask", "tail", "sugar", "idx")

    def __init__(self, lm, mask, tail, sugar, idx):
        self.lm = lm
        self.mask = mask
        self.tail = tail      # tuple of (exps, coeff), lead term excluded
        self.sugar = sugar
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
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _ascending(hk):
    """Sort key, smallest monomial first, from a heapkey (largest first)."""
    return tuple(_ascending(x) if type(x) is tuple else -x for x in hk)


def _make_gen(terms, key, field, sugar, idx):
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
    return _Gen(lm, _mask(lm), tail, sugar, idx)


def _reduce(terms, reducers, key, field, *, full=True, track=False):
    """Divide a term dict by monic records, largest term first.

    ``reducers(m)`` lists the candidate records for the term ``m`` in a
    fixed order and the first whose lead divides ``m`` is used, so the
    result is deterministic.  Returns ``(remainder, quotients)``;
    quotients maps a record's ``idx`` to a term dict of shifts, and is
    None unless ``track``.
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
        shift = tuple(a - b for a, b in zip(m, red.lm))
        if track:
            q = quotients.setdefault(red.idx, {})
            q[shift] = field.add(q.get(shift, field.zero), c)
        if prime is not None:
            for e2, c2 in red.tail:
                e = tuple(a + b for a, b in zip(e2, shift))
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
                e = tuple(a + b for a, b in zip(e2, shift))
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
    u = tuple(a - b for a, b in zip(lcm, f.lm))
    v = tuple(a - b for a, b in zip(lcm, g.lm))
    acc = {}
    zero = field.zero
    for e, c in f.tail:
        acc[tuple(a + b for a, b in zip(e, u))] = c
    for e, c in g.tail:
        key = tuple(a + b for a, b in zip(e, v))
        val = field.sub(acc.get(key, zero), c)
        if val == zero:
            acc.pop(key, None)
        else:
            acc[key] = val
    return acc


def _interreduce(gens, heapkey, field):
    """Full mutual reduction of monic records until stable; drops zeros.

    Each record is divided by all the others in list order, the earlier
    ones already replaced by their reductions; a record is rebuilt only
    when its reduction changed it.
    """
    gens = list(gens)
    one = field.one
    while True:
        changed = False
        a = 0
        while a < len(gens):
            g = gens[a]
            t = {g.lm: one}
            t.update(g.tail)
            others = gens[:a] + gens[a + 1 :]
            r, _ = _reduce(t, lambda m: others, heapkey, field)
            if r == t:
                a += 1
                continue
            changed = True
            if r:
                gens[a] = _make_gen(r, heapkey, field, g.sugar, g.idx)
                a += 1
            else:
                del gens[a]
        if not changed:
            return gens


def _buchberger_kernel(
    inputs,
    heapkey,
    field,
    *,
    degree_limit=None,
    pair_limit=DEFAULT_PAIR_LIMIT,
    strategy="normal",
    tail_reduce=True,
    interreduce=True,
):
    """Groebner basis of term dicts; returns (gens, truncated).

    Pairs go through the Gebauer-Moeller update: when a generator h
    arrives, the product criterion drops a new pair (g, h) whose leads are
    coprime, the chain criterion drops a new pair (g, h) when another
    generator's lead divides lcm(g, h), and the B-filter drops an old pair
    (i, j) when lead(h) divides lcm(i, j) and that lcm differs from both
    lcm(i, h) and lcm(j, h).  Each pair's lcm and its bit mask are computed
    once, when the pair is made, and stored with the pair; a bit-mask test
    runs before every divisibility test.  Pairs are selected by minimal
    lcm degree with a sugar tie-break (``normal``), smallest lcm in the
    monomial order first (``lcm``), or in creation order (``fifo``).
    With ``interreduce`` the result is the unique reduced basis; without
    it the basis is only lead-minimal, which membership tests do not
    notice but is cheaper on large inputs.
    """
    if strategy not in _STRATEGIES:
        raise ValidationError(f"unknown selection strategy {strategy!r}")
    f = _interreduce(
        [_make_gen(t, heapkey, field, 0, 0) for t in inputs if t], heapkey, field
    )
    for k, g in enumerate(f):
        g.sugar = max(sum(g.lm), max((sum(e) for e, _ in g.tail), default=0))
        g.idx = k

    if strategy == "normal":
        def select_key(pair, meta):
            return meta[:3] + (pair,)
    elif strategy == "lcm":
        def select_key(pair, meta):
            return (_ascending(meta[2]), pair)
    else:
        def select_key(pair, meta):
            return (meta[3], pair)

    # Live pairs (i, j), i < j, each mapped to its (lcm degree, sugar,
    # heapkey of the lcm, creation serial, lcm, lcm mask).  The heap may
    # hold pairs the B-filter has since dropped; they are skipped.
    pairs = {}
    heap = []
    serial = count()

    def update(G, h):
        # Gebauer-Moeller update for the new generator h; G lists the
        # current generators in index order, leads pairwise non-dividing.
        mh = h.lm
        mask_h = h.mask
        # Chain criterion: (g, h) goes when lead(p) divides lcm(g, h) for
        # a p later in G or kept before g; this equals lcm(h, p) dividing
        # lcm(g, h).  Product criterion: a coprime g is kept as a chain
        # witness but makes no pair.
        kept = []
        new = []
        for k, g in enumerate(G):
            if mask_h & g.mask:
                lcm = _lcm(mh, g.lm)
                mask = mask_h | g.mask
                if any(
                    p.mask & mask == p.mask and _divides(p.lm, lcm)
                    for p in chain(islice(G, k + 1, None), kept)
                ):
                    continue
                new.append((g, lcm, mask))
            kept.append(g)

        # B-filter on the old pairs, reading each pair's stored lcm.
        dropped = [
            pair
            for pair, meta in pairs.items()
            if meta[5] & mask_h == mask_h
            and _divides(mh, meta[4])
            and _lcm(f[pair[0]].lm, mh) != meta[4]
            and _lcm(f[pair[1]].lm, mh) != meta[4]
        ]
        for pair in dropped:
            del pairs[pair]

        for g, lcm, mask in new:
            deg = sum(lcm)
            sugar = max(g.sugar + deg - sum(g.lm), h.sugar + deg - sum(mh))
            pair = (g.idx, h.idx)
            meta = (deg, sugar, heapkey(lcm), next(serial), lcm, mask)
            pairs[pair] = meta
            heapq.heappush(heap, (select_key(pair, meta), pair))

        G = [g for g in G if g.mask & mask_h != mask_h or not _divides(mh, g.lm)]
        G.append(h)
        return G

    G = []
    for g in f:
        G = update(G, g)

    truncated = False
    while heap:
        if len(pairs) > pair_limit:
            raise ResourceLimitError(
                f"pair queue exceeded the configured bound ({pair_limit})"
            )
        pair = heapq.heappop(heap)[1]
        meta = pairs.pop(pair, None)
        if meta is None:
            continue
        i, j = pair
        sugar = meta[1]
        if degree_limit is not None and sugar > degree_limit:
            truncated = True
            continue
        s = _spoly(f[i], f[j], field)
        if not s:
            continue
        r, _ = _reduce(s, lambda m: G, heapkey, field, full=tail_reduce)
        if not r:
            continue
        h = _make_gen(r, heapkey, field, sugar, len(f))
        f.append(h)
        G = update(G, h)

    # The input leads are interreduced, each new lead is irreducible by G
    # and update drops its multiples, so the leads of G are minimal.
    if interreduce:
        # Full tail interreduction until stable gives the unique reduced basis.
        G = _interreduce(G, heapkey, field)
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
    the public polynomials on first access.
    """

    __slots__ = ("ring", "reduced", "truncated_at", "source", "_gens", "_elements")

    def __init__(self, ring, elements, *, reduced, truncated_at=None, source=None):
        """A basis from given polynomials, turned into monic records once."""
        self.ring = ring
        self.reduced = reduced
        self.truncated_at = truncated_at
        self.source = source
        self._elements = tuple(elements)
        heapkey = ring.order.heapkey_fn()
        self._gens = [
            _make_gen(dict(p.terms), heapkey, ring.field, 0, k)
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
        r, _ = _reduce(
            dict(p.terms), lambda m: self._gens, self.ring.order.heapkey_fn(),
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

    With ``degree_limit`` the computation discards S-pairs above the limit
    and returns a basis that is exact in all degrees up to the limit
    (generators are processed degree by degree for homogeneous input).
    ``interreduce=False`` skips the final tail interreduction; the result
    still yields correct normal forms but is not the canonical reduced
    basis.
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
    gf = _make_gen(dict(f.terms), heapkey, field, 0, 0)
    gg = _make_gen(dict(g.terms), heapkey, field, 0, 1)
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
