"""Buchberger's algorithm, normal forms, ideal membership, Hilbert numerators.

The kernel works on raw data.  A monomial is one int, packed by a
`_Packing`: products are sums, divisibility is one subtraction and a
mask, and a smaller int is a larger monomial, so a heap of plain ints
pops the largest term first.  A polynomial is a dict from packed
monomials to nonzero coefficients, and a basis element is a monic `_Gen`
record; inputs are homogeneous, so it keeps no degree or sugar.  A term
of a free module carries its component in the lowest bits, and a module
vector is a `_Gen` whose ``lm`` carries its component.  A term and any
reducer of it share the component (and the Schreyer tower's shift of
the monomial), so divisibility, shifts and S-polynomials treat both
kinds alike.  Monomials are packed where kernel records are made from
exponent tuples and unpacked only where they leave the kernel.

`_buchberger_kernel` is the one Buchberger loop, for ideals and for
submodules of free modules, with two sets of pair criteria; the input
picks one.  Without a degree limit (the full bases of the Betti tables,
and every module) it takes Gebauer and Moeller's (`_GebauerMoeller`),
which act on leading terms and leave full remainders; for modules they
compare leads only within one component and use no product criterion.
With a limit (the membership bases, truncated Betti tables) it takes the
signature criteria (`_Signatures`, after F5 and GVW), which also use the
syzygies the input is known to have and reduce once per signature, only
the top term.  Each route measured faster on its side of that rule (see
`_buchberger_kernel`).

A :class:`GroebnerBasis` keeps the kernel's records as its one stored
form: membership, normal forms, leading monomials and Hilbert numerators
read them directly, and the :class:`~idealfam.ring.Polynomial` elements
are built only when asked for.
"""

from __future__ import annotations

import heapq
from bisect import insort
from itertools import chain, takewhile

from .errors import InternalError, ResourceLimitError, ValidationError
from .ring import Monomial, MonomialOrder, Polynomial, PolynomialRing, PrimeField
from .ring import _signed_sum, _term_text, format_monomial

DEFAULT_PAIR_LIMIT = 1_000_000

# The narrowest exponent field: computations whose degrees are not known
# up front then seldom outgrow their fields and rerun wider.
_MIN_WIDTH = 8


class _Overflow(InternalError):
    """A monomial of degree ``args[0]`` does not fit the packing's fields."""


def _width(bound):
    return max(_MIN_WIDTH, bound.bit_length())


class _Packing:
    """Monomials of one order packed into single ints (Bachmann and
    Schoenemann, "Monomial representations for Groebner bases
    computations", ISSAC 1998).

    Each exponent gets a ``width``-bit field under a guard bit; the fields
    read as one int ``low`` of ``LW`` bits, and the packed int is ``low``
    less a multiple of ``2**LW`` that makes a smaller int a larger
    monomial: ``low - (deg << LW)`` for grevlex (the variable compared
    last on top), ``low - (low << LW) - (deg << 2*LW)`` for grlex and
    ``low - (low << LW)`` for lex (the first on top).  The map is linear:
    a product is ``a + b``, a quotient ``b - a``, and ``a`` divides ``b``
    exactly when ``(b - a) & guard`` is 0.  A module term ``m e_c`` is
    ``(pack(m) << cw) + c``, so a smaller component is larger among equal
    monomials (the Schreyer tie-break); from component ``tagged`` on, a
    copy of ``c`` above the monomial and a tag bit above all order terms
    position over term, below every untagged term.  ``bound(x)`` bounds the
    exponents of a homogeneous vector with term ``x`` (for a module, graded
    by ``twists``), and ``pack`` refuses a term whose bound exceeds
    ``2**width - 1``; ``sparse({v: e})`` packs a ring monomial from its
    nonzero exponents alone.
    """

    __slots__ = (
        "order", "nvars", "width", "components", "tagged", "twists", "module",
        "maxdeg", "cw", "cmask", "guard", "offsets", "pack", "sparse", "unpack", "deg", "bound",
        "quo", "lcm", "within",
    )

    def __init__(self, order, nvars, width, components=None, tagged=None, twists=None):
        self.order, self.nvars, self.width = order, nvars, width
        self.components, self.tagged, self.twists = components, tagged, twists
        self.module = module = components is not None
        self.maxdeg = maxdeg = (1 << width) - 1
        f = width + 1
        lw = nvars * f
        perm = order.perm if order.perm is not None else range(nvars)
        slots = {v: k if order.kind == "grevlex" else nvars - 1 - k for k, v in enumerate(perm)}
        offsets = [slots[v] * f for v in range(nvars)]
        lowmask, fmask = (1 << lw) - 1, (1 << f) - 1
        ones = sum(1 << (k * f) for k in range(nvars))
        guard, top = ones << width, max(nvars - 1, 0) * f
        self.cw = cw = (components - 1).bit_length() if components else 0
        self.cmask = cmask = (1 << cw) - 1
        self.guard = guard << cw
        self.offsets = offsets
        # Above every monomial (under 2*LW + width + 2 bits with its sign)
        # the tagged components' copy, then the tag.
        tagshift = cw + 2 * lw + f + 2
        tag = 1 << (tagshift + cw + 1)
        least = min(twists) if twists else 0
        excess = [t - least for t in twists] if twists else None

        # The order terms of fields ``low``: `place` is given their total,
        # `item` sums them.  The fields' sum collects in the top field: no
        # partial sum carries while the total stays below 2**(width + 1).
        if order.kind == "grevlex":
            def place(low, total):
                return low - (total << lw)

            def item(low):
                return low - (((low * ones >> top) & fmask) << lw)
        elif order.kind == "grlex":
            def place(low, total):
                return low - (low << lw) - (total << 2 * lw)

            def item(low):
                return low - (low << lw) - (((low * ones >> top) & fmask) << 2 * lw)
        else:
            def place(low, total):
                return low - (low << lw)

            def item(low):
                return low - (low << lw)

        def pack(t):
            """Packed exponent tuple, ``exps + (comp,)`` for a module."""
            exps, c = (t[:-1], t[-1]) if module else (t, 0)
            if not 0 <= c <= cmask:
                raise InternalError(f"component {c} outside the packing")
            total = sum(exps)
            bound = total + (excess[c] if excess else 0)
            if bound > maxdeg:
                raise _Overflow(bound)
            x = place(sum(e << off for e, off in zip(exps, offsets)), total)
            if not module:
                return x
            if tagged is not None and c >= tagged:
                c += (c << tagshift) + tag
            return (x << cw) + c

        def sparse(powers):
            """Packed ring monomial ``{v: e}``: the time and the ints it makes
            follow the packed size, not one step per variable as `pack`."""
            total = sum(powers.values())
            if total > maxdeg:
                raise _Overflow(total)
            return place(sum(e << offsets[v] for v, e in powers.items()), total)

        def unpack(x):
            low = (x >> cw) & lowmask
            exps = tuple((low >> off) & fmask for off in offsets)
            return exps + (x & cmask,) if module else exps

        def deg(x):
            return (((x >> cw) & lowmask) * ones >> top) & fmask

        def bound(x):
            return deg(x) + excess[x & cmask] if excess else deg(x)

        def quo(a, b):
            """Packed monomial lcm(a, b) / a of two terms of one component."""
            la = (a >> cw) & lowmask
            lb = (b >> cw) & lowmask
            # Fieldwise max: a field's guard survives a - b when a >= b.
            ge = (((la | guard) - lb) & guard) >> width
            ge = (ge << width) - ge
            return item((lb ^ ((la ^ lb) & ge)) - la)

        def lcm(a, b):
            return a + (quo(a, b) << cw)

        def within(a, gens, limit):
            """The records whose lead's lcm with ``a`` has degree at most
            ``limit``, in order; `quo`'s max inline."""
            la = (a >> cw) & lowmask
            out = []
            for g in gens:
                lb = (g.lm >> cw) & lowmask
                ge = (((la | guard) - lb) & guard) >> width
                mx = lb ^ ((la ^ lb) & ((ge << width) - ge))
                if (mx * ones >> top) & fmask <= limit:
                    out.append(g)
            return out

        self.pack, self.sparse, self.unpack, self.deg, self.bound = pack, sparse, unpack, deg, bound
        self.quo, self.lcm, self.within = quo, lcm, within

    def with_components(self, components):
        return _Packing(self.order, self.nvars, self.width, components)

    def multiples(self, powers):
        """``(add, mask)`` for pure powers ``{v: d}``: a packed term x is a
        multiple of some ``x_v^d`` exactly when ``(x + add) & mask`` is not 0.
        Field v gets ``2**width - d`` and its guard bit: an exponent e carries
        into that bit exactly when e >= d, and never past it (``e + 2**width
        - d <= 2**(width + 1) - 2``); the order terms leave the fields alone."""
        w, off = self.width, self.offsets
        add = sum(((1 << w) - d) << off[v] for v, d in powers.items())
        return add << self.cw, sum(1 << off[v] + w for v in powers) << self.cw

    def widened(self, degree):
        """A packing like this one whose fields hold ``degree``."""
        return _Packing(
            self.order, self.nvars, max(2 * self.width, degree.bit_length()),
            self.components, self.tagged, self.twists,
        )

    def pack_terms(self, terms):
        """A term dict with packed monomials from ``(exps, coeff)`` pairs."""
        pack = self.pack
        return {pack(e): c for e, c in terms}

    def convert(self, gens, src):
        """Records of packing ``src`` in this one."""
        if src is self:
            return gens
        pack, unpack = self.pack, src.unpack
        return [
            _Gen(pack(unpack(g.lm)), tuple((pack(unpack(e)), c) for e, c in g.tail), g.idx)
            for g in gens
        ]


def _widening(run, pk):
    """``run(pk)``, rerun on a wider packing while a monomial overflows."""
    while True:
        try:
            return run(pk)
        except _Overflow as exc:
            pk = pk.widened(exc.args[0])


class _Gen:
    """Monic polynomial or module vector in kernel form; degree is the lead's."""

    __slots__ = ("lm", "tail", "idx", "sig")

    def __init__(self, lm, tail, idx):
        self.lm = lm
        self.tail = tail      # tuple of (packed term, coeff), lead term excluded
        self.idx = idx
        self.sig = None       # (input position, packed multiplier), signature route only


def _make_gen(terms, field, idx):
    """Monic kernel record from a nonzero term dict."""
    ordered = sorted(terms)
    lm = ordered[0]
    lc = terms[lm]
    if lc != field.one:
        inv = field.inv(lc)
        # The operators on ints mod p or on Fractions, as in `_reduce`.
        if isinstance(field, PrimeField):
            p = field.p
            tail = tuple((e, terms[e] * inv % p) for e in ordered[1:])
        else:
            tail = tuple((e, terms[e] * inv) for e in ordered[1:])
    else:
        tail = tuple((e, terms[e]) for e in ordered[1:])
    return _Gen(lm, tail, idx)


def _reduce(terms, reducers, pk, field, *, full=True, sig=None, skipped=None, drop=None):
    """Divide a term dict, packed in ``pk``, by monic records, largest term first.

    ``reducers(m)`` lists the candidate records for the term ``m`` in a
    fixed order and the first whose lead divides ``m`` is used, so the
    caller picks the reducer order.  Against a Groebner basis membership
    and the full remainder do not depend on it, so `GroebnerBasis` offers
    its records lowest lead degree first, which finds a divisor after far
    fewer tests.  Buchberger's kernel and `_interreduce` use the first
    divisor in list order: there the divisor chosen shows in non-canonical
    bases and in the S-polynomials formed, and shortest tails first made
    neither faster.  The signature route lists fewer records but finds the
    same first divisor, for it leaves out only records that cannot divide
    the term (see `_Signatures`).  Records are homogeneous, so every term
    formed has the degree of a term of the input, and the caller's degree
    bound holds for all of them.
    With ``sig = (k, t)`` a dividing record ``r`` is used only when it is
    regular, ``(m / lead r) sig r`` below ``(k, t)``; the dividing records
    that fail that test are left in the list ``skipped``, those of the
    last term scanned.  A term a step forms is left out when ``drop``
    (`_Packing.multiples`) marks it.  Both serve the signature route's
    reductions.  Returns the remainder; with ``full`` false the division
    stops at the first term no record divides, and the terms below it
    stay undivided.
    """
    guard = pk.guard
    add, mask = drop or (0, 0)
    k, t = sig or (None, None)
    work = dict(terms)
    heap = list(work)
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    remainder = {}
    # Prime field elements are ints reduced mod p, rationals are Fractions;
    # both take the arithmetic operators.
    prime = field.p if isinstance(field, PrimeField) else None
    while heap:
        m = heappop(heap)
        c = work.pop(m, None)
        if not c:
            continue
        if sig is None:
            for red in reducers(m):
                if not (m - red.lm) & guard:
                    break
            else:
                red = None
        else:
            skipped.clear()
            for red in reducers(m):
                shift = m - red.lm
                if not shift & guard:
                    p, u = red.sig
                    if p < k or (p == k and u + shift > t):
                        break
                    skipped.append(red)
            else:
                red = None
        if red is None:
            remainder[m] = c
            if full:
                continue
            break
        shift = m - red.lm
        if not mask:
            for e, c2 in red.tail:
                e += shift
                prev = work.get(e)
                v = -c * c2 if prev is None else prev - c * c2
                if prime:
                    v %= prime
                if v:
                    if prev is None:
                        heappush(heap, e)
                    work[e] = v
                elif prev is not None:
                    del work[e]
            continue
        # The same step, less the terms ``drop`` marks; a test per term in
        # one loop measured faster than filtering the tail first, and
        # slower than none where nothing is dropped.
        s = shift + add
        for e, c2 in red.tail:
            if (e + s) & mask:
                continue
            e += shift
            prev = work.get(e)
            v = -c * c2 if prev is None else prev - c * c2
            if prime:
                v %= prime
            if v:
                if prev is None:
                    heappush(heap, e)
                work[e] = v
            elif prev is not None:
                del work[e]
    remainder.update(work)
    return remainder


def _spoly(f, g, pk, field, lcm=None):
    """S-polynomial term dict of two monic kernel generators, whose leads'
    lcm the caller may know."""
    if lcm is None:
        lcm = pk.lcm(f.lm, g.lm)
    u = lcm - f.lm
    v = lcm - g.lm
    acc = {e + u: c for e, c in f.tail}
    # The operators on ints mod p or on Fractions, as in `_reduce`.
    prime = field.p if isinstance(field, PrimeField) else None
    for e, c in g.tail:
        e += v
        val = acc.get(e, 0) - c
        if prime:
            val %= prime
        if val:
            acc[e] = val
        else:
            del acc[e]
    return acc


def _reducers(gens, pk):
    """`_reduce`'s lookup over ``gens`` in list order: all of them for an
    ideal term, those whose lead shares its component for a module term."""
    if not pk.module:
        return lambda m: gens
    cmask = pk.cmask
    buckets = {}
    for g in gens:
        buckets.setdefault(g.lm & cmask, []).append(g)
    return lambda m: buckets.get(m & cmask, ())


def _interreduce(gens, pk, field):
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
        others = _reducers(gens[:a] + gens[a + 1 :], pk)
        r = _reduce(t, others, pk, field)
        if r == t:
            a += 1
            continue
        changed = True
        if r:
            gens[a] = _make_gen(r, field, g.idx)
            a += 1
        else:
            del gens[a]
    return changed


def _chain_pairs(G, h, pk):
    """The pairs (g, h), g in G, that the chain and product criteria keep.

    G lists the current generators in index order, leads pairwise
    non-dividing.  A pair (g, h) goes when lead(p) divides lcm(g, h) for a
    p later in the list or kept before g; this equals lcm(h, p) dividing
    lcm(g, h).  A coprime g makes no pair but is kept as a chain witness.
    For module terms only the g in h's lead component take part, and a
    coprime g makes a pair too: the product criterion does not hold there.
    Returns ``([(g, lcm), ...], product, chain)``: ``product`` and
    ``chain`` count the candidates each criterion dropped.
    """
    mh = h.lm
    guard, lcm_of, module = pk.guard, pk.lcm, pk.module
    if module:
        c = mh & pk.cmask
        G = [g for g in G if g.lm & pk.cmask == c]
    # The witnesses' leads: those later in G, then those kept before g.
    leads = [g.lm for g in G]
    kept, new = [], []
    chained = 0
    for k, g in enumerate(G):
        lm = leads[k]
        lcm = lcm_of(mh, lm)
        if module or lcm != mh + lm:
            for p in leads[k + 1 :]:
                if not (lcm - p) & guard:
                    break
            else:
                for p in kept:
                    if not (lcm - p) & guard:
                        break
                else:
                    new.append((g, lcm))
                    kept.append(lm)
                    continue
            chained += 1
            continue
        kept.append(lm)
    return new, len(kept) - len(new), chained


def _b_filters(x, i, j, lcm, pk):
    """Whether generator x's arrival drops the pair (i, j) with that lcm."""
    return (
        not (lcm - x.lm) & pk.guard
        and (x.lm & pk.cmask) == (lcm & pk.cmask)
        and pk.lcm(i.lm, x.lm) != lcm
        and pk.lcm(j.lm, x.lm) != lcm
    )


class _GebauerMoeller:
    """Pairs (i, j) of generators under the Gebauer-Moeller criteria.

    When a generator h arrives, the product criterion drops a new pair
    (g, h) of an ideal whose leads are coprime, the chain criterion drops
    a new pair (g, h) when another generator's lead divides lcm(g, h)
    (`_chain_pairs`), and the B-filter drops an old pair (i, j) when
    lead(h) divides lcm(i, j) and that lcm differs from both lcm(i, h) and
    lcm(j, h) (`_b_filters`).  Each pair's lcm is computed once, when the
    pair is made, and stored with the pair.  Pairs are selected by least
    lcm degree, then smallest lcm in the monomial order, then pair; a
    pair yields its S-polynomial, fully divided by the current
    lead-minimal generators G in list order.  No degree limit reaches
    this route, so every pair is queued and the basis is complete.

    For a module packing, pairs, chain witnesses, B-filters, the pruning
    of G and every division stay within one lead component, and coprime
    leads still make a pair: the product criterion is unsound for
    modules.  An lcm's degree for selection counts the component index.
    """

    COUNTERS = ("pairs", "product", "chain", "b_filter", "reductions", "zero_reductions")
    FULL = True

    def __init__(self, f, pk, field):
        self.f, self.pk, self.field = f, pk, field
        self.stats = dict.fromkeys(self.COUNTERS, 0)
        # Live pairs (i, j), i < j, each mapped to its lcm.  The heap holds
        # each pair's selection key, which ends in the pair, and may hold
        # pairs the B-filter has since dropped; they are skipped.
        self.pairs = {}
        self.heap = []
        self.G = []

    def queued(self):
        return len(self.pairs)

    def add(self, h):
        pk, pairs, stats = self.pk, self.pairs, self.stats
        G = self.G
        new, product, chained = _chain_pairs(G, h, pk)
        stats["product"] += product
        stats["chain"] += chained
        hl, guard, cmask, deg = h.lm, pk.guard, pk.cmask, pk.deg
        f = self.f
        # Most live pairs fail the divisibility test that opens the B-filter.
        dropped = [
            pair
            for pair, lcm in pairs.items()
            if not (lcm - hl) & guard and _b_filters(h, f[pair[0]], f[pair[1]], lcm, pk)
        ]
        stats["b_filter"] += len(dropped)
        for pair in dropped:
            del pairs[pair]
        stats["pairs"] += len(new)
        for g, lcm in new:
            pair = (g.idx, h.idx)
            pairs[pair] = lcm
            heapq.heappush(self.heap, (deg(lcm) + (lcm & cmask), lcm, pair))
        G = [g for g in G if (g.lm - hl) & guard or (g.lm & cmask) != (hl & cmask)]
        G.append(h)
        self.G = G

    def take(self, key):
        """The S-polynomial of the pair with selection ``key``, its reducers
        and no further `_reduce` options; None when the B-filter dropped the
        pair."""
        lcm = self.pairs.pop(key[-1], None)
        if lcm is None:
            return None
        pk = self.pk
        bound = pk.bound(lcm)
        if bound > pk.maxdeg:
            raise _Overflow(bound)
        i, j = key[-1]
        return _spoly(self.f[i], self.f[j], pk, self.field), _reducers(self.G, pk), {}

    def done(self, r):
        """Add the remainder ``r`` of the last pair taken, unless it is zero."""
        if r:
            h = _make_gen(r, self.field, len(self.f))
            self.f.append(h)
            self.add(h)

    def result(self):
        """The lead-minimal generators, and False: no pair was left out."""
        # The input leads are interreduced, each new lead is irreducible by
        # G and `add` drops its multiples, so the leads of G are minimal.
        return self.G, False


class _Signatures:
    """Signatures of an ideal's generators, one reduction per signature.

    A signature ``(k, t)`` is the leading term ``t e_k`` of a
    representation by the interreduced inputs f_0, f_1, ...; input k has
    ``(k, 0)``, a packed 0 being the monomial 1.  Signatures compare by
    degree, then position, then multiplier (a smaller packed int is a
    larger multiplier); every signature compared within one reduction has
    the reduction's degree, so position first and multiplier second
    decide.  Every generator carries its signature in ``sig``.  A new
    generator h, lead-minimal or not, pairs with each earlier generator
    whose lead's lcm with h's lies within ``degree_limit`` (`_within`).
    The S-polynomial of g and h with lcm L has the larger of
    ``(L / lead g) sig g`` and ``(L / lead h) sig h``; the queue holds
    each such signature once, smallest first (Faugere, "A new efficient
    algorithm for computing Groebner bases without reduction to zero
    (F5)", ISSAC 2002; Gao, Volny and Wang, "A new framework for computing
    Groebner bases", Math. Comp. 85, 2016).

    A signature goes, uncomputed, when (the first two are tested when
    its pair is made, the last two at its turn)
      - both sides of its pair have it (counted ``singular_pair``);
      - it was queued or reduced before (``duplicate``);
      - its multiplier is divisible by the lead of a generator of lower
        position (``koszul``): g e_k less f_k times g's representation is
        a syzygy with leading term ``(lead g) e_k``; this drops every pair
        of coprime leads from different positions;
      - it is divisible by the signature of an earlier reduction to zero
        (``syzygy``).
    Otherwise (GVW) the multiple ``(t / s) g`` of smallest lead among the
    generators g whose signature s divides ``(k, t)``, the first of equal
    leads, is top-reduced by regular reducers only, r with ``(m / lead r)
    sig r`` below ``(k, t)``.  That lead is t times ``lead g / s``, so
    each position keeps its generators sorted by that ratio, and the first
    whose signature divides ``(k, t)`` is the one (`_pick`).  A zero
    result records a syzygy.  A result with lead m is dropped when some
    ``(m / lead r) r`` has its signature (``singular``), for that multiple
    already stands for it.  Otherwise it becomes a generator of that
    signature.

    Signatures are taken in nondecreasing degree (sugar selection on
    homogeneous input), and a generator's lead has its signature's degree.
    `take` keeps the current degree d as a level and refuses a signature
    below it.  A record of degree d divides a term of degree d only when
    its lead equals the term, and a signature of degree d divides (k, t)
    only when it is (k, t), which only input k can have (then t is 0).
    So when d is first seen the level lists the inputs of degree at most d,
    then the other generators, all of lower degree, in list order; a dict
    maps each lead to the generators of degree d made since, which the
    level cannot know in advance.  A term m's reducers are that list, then
    the generators with lead m: the same first regular divisor as a scan
    of every generator.  `_pick` ranks the generators below the level
    only.  The last term a reduction scans, the lead of a nonzero result,
    had every dividing generator tested and none regular; `_reduce` hands
    those back (``skipped``).  They are the earlier generators whose lead
    divides the new one, which `_within` needs at the limit's degree, and
    the new generator is lead-minimal exactly when there are none, for
    every later one has a lead of no lower degree.  An input is
    lead-minimal when no generator of lower degree divides its lead.

    The multiples of a pure-power input are regular reducers of every
    signature of a later position and have no tail, so the terms they
    divide go where they are formed: in the multiple `take` builds and
    in each step of `_reduce` (``drop``).  Subtracting multiples of
    elements of smaller signature keeps every signature and lead (Eder
    and Faugere, "A survey on signature-based algorithms for computing
    Groebner bases", J. Symb. Comput. 80, 2017): only the tails change.

    Signatures of degree above ``degree_limit`` are never queued: a lead
    of the limit's degree pairs only with the leads that divide it, and a
    lead above the limit with none (``above_limit`` counts the candidates
    left out).  ``truncated`` is true when one of them, left out when its
    h arrived, is neither singular nor divisible by a Koszul or syzygy
    signature of the finished run: the pairs above the limit are replayed,
    latest h first, until one such pair is found.  When none is, the
    basis is complete.
    """

    COUNTERS = (
        "pairs", "singular_pair", "duplicate", "koszul", "syzygy", "singular", "above_limit",
        "reductions", "zero_reductions",
    )
    FULL = False

    def __init__(self, f, pk, field, degree_limit):
        self.f, self.pk, self.field = f, pk, field
        self.degree_limit = degree_limit
        self.stats = dict.fromkeys(self.COUNTERS, 0)
        self.inputs = len(f)
        positions = range(len(f))
        for k in positions:
            f[k].sig = (k, 0)
        # Per position: ``(t - lead, idx, g)`` of its generators g of
        # signature (k, t) below the level, sorted; the leads of the
        # generators of lower position; the multipliers of its reductions
        # to zero.
        self.ranked = [[] for _ in positions]
        self.koszul = [[] for _ in positions]
        self.syz = [[] for _ in positions]
        # (k, t - lead) of each generator of signature (k, t).
        self.by_ratio = {}
        self.seen = set()
        self.heap = []
        self.above_limit = []
        self.current = None
        # The level: its degree, its reducer list, the generators made at
        # it by lead, and the generators not yet ranked.
        self.level, self.reducers, self.equal, self.unranked = -1, [], {}, []
        # The dividing records the last reduction skipped as irregular, and
        # the lead-minimal generators that are not inputs.
        self.skipped, self.minimal = [], []
        # Per position, `_Packing.multiples` of the pure-power inputs below it.
        powers, self.drop = {}, []
        for g in f:
            self.drop.append(pk.multiples(powers))
            e = pk.unpack(g.lm)
            if not g.tail and max(e) == sum(e):
                powers[e.index(max(e))] = max(e)

    def queued(self):
        return len(self.heap)

    def add(self, h, divisors=()):
        """Queue h's pairs; ``divisors`` are the earlier generators whose
        lead divides h's, none for an input (the inputs are interreduced)."""
        pk, stats, seen = self.pk, self.stats, self.seen
        k, t = h.sig
        self.unranked.append(h)
        self.by_ratio.setdefault((k, t - h.lm), []).append(h)
        for leads in self.koszul[k + 1 :]:
            leads.append(h.lm)
        within, dropped = self._within(h, divisors)
        if dropped:
            self.above_limit.append(h)
            stats["above_limit"] += dropped
        deg, maxdeg = pk.deg, pk.maxdeg
        for g in within:
            lcm = pk.lcm(h.lm, g.lm)
            d = deg(lcm)
            if d > maxdeg:
                raise _Overflow(d)
            sig = self._signature(g, h, lcm)
            if sig is None:
                stats["singular_pair"] += 1
            elif sig in seen:
                stats["duplicate"] += 1
            else:
                seen.add(sig)
                stats["pairs"] += 1
                heapq.heappush(self.heap, (d, sig[0], -sig[1]))

    def _within(self, h, divisors):
        """The generators before h whose lead's lcm with h's lies within
        the limit, in order, and the number above it."""
        limit = self.degree_limit
        # A lead of degree ``limit`` has an lcm within it only with the
        # leads that divide it, h's ``divisors``; a lead above has none.
        top = self.pk.deg(h.lm) - limit
        if top < 0:
            within = self.pk.within(h.lm, self.f[: h.idx], limit)
        else:
            within = divisors if top == 0 else []
        return within, h.idx - len(within)

    @staticmethod
    def _signature(g, h, lcm):
        """The signature of the S-polynomial of g and h, None when both
        sides have the same one."""
        a = (g.sig[0], g.sig[1] + lcm - g.lm)
        b = (h.sig[0], h.sig[1] + lcm - h.lm)
        if a == b:
            return None
        return a if (a[0], -a[1]) > (b[0], -b[1]) else b

    def _killed(self, k, t):
        """The syzygy criterion that drops signature ``(k, t)``, or None."""
        guard = self.pk.guard
        if any(not (t - m) & guard for m in self.koszul[k]):
            return "koszul"
        if any(not (t - m) & guard for m in self.syz[k]):
            return "syzygy"
        return None

    def take(self, key):
        """The multiple of smallest lead with signature ``key``'s, less the
        terms the position's filter marks, the level's reducers and
        `_reduce`'s options (the signature, the list for the divisors it
        skips and that filter); None when a syzygy criterion drops the
        signature."""
        d, k, t = key[0], key[1], -key[2]
        if d != self.level:
            self._rise(d)
        killed = self._killed(k, t)
        if killed:
            self.stats[killed] += 1
            return None
        g, shift = self._pick(k, t)
        add, mask = drop = self.drop[k]
        s, one = shift + add, self.field.one
        terms = {e + shift: c for e, c in chain(((g.lm, one),), g.tail) if not (e + s) & mask}
        self.current = (k, t)
        reducers, equal = self.reducers, self.equal

        def level(m):
            return chain(reducers, equal[m]) if m in equal else reducers

        return terms, level, {"sig": self.current, "skipped": self.skipped, "drop": drop}

    def _rise(self, d):
        """Make d the level: its reducer list, and rank what lies below it."""
        if d < self.level:
            raise InternalError(f"a signature of degree {d} came below the level {self.level}")
        self.level = d
        f, n, deg = self.f, self.inputs, self.pk.deg
        # Every generator made so far has a degree below d.
        self.reducers = [g for g in f[:n] if deg(g.lm) <= d] + f[n:]
        self.equal = {}
        unranked = []
        for g in self.unranked:
            if deg(g.lm) < d:
                k, t = g.sig
                insort(self.ranked[k], (t - g.lm, g.idx, g))
            else:
                unranked.append(g)
        self.unranked = unranked

    def _pick(self, k, t):
        """The generator g of signature s dividing ``(k, t)`` whose multiple
        ``(t - s) g`` has the smallest lead, the first of equal leads, and
        its shift ``t - s``."""
        # That lead is ``t - ratio``, so the first g in rank is the one.
        # Those of the level's degree are unranked: of them only input k's
        # (k, 0) divides a signature there, and only (k, 0).
        guard = self.pk.guard
        for _, _, g in self.ranked[k]:
            shift = t - g.sig[1]
            if not shift & guard:
                return g, shift
        if t == 0:
            return self.f[k], 0
        raise InternalError(f"no generator's signature divides the queued ({k}, {t})")

    def done(self, r):
        """Record the last signature taken as a syzygy when ``r`` is zero,
        drop ``r`` when singular, else add it with that signature."""
        k, t = self.current
        if not r:
            self.syz[k].append(t)
            return
        m = min(r)
        guard = self.pk.guard
        if any(not (m - g.lm) & guard for g in self.by_ratio.get((k, t - m), ())):
            self.stats["singular"] += 1
            return
        h = _make_gen(r, self.field, len(self.f))
        h.sig = self.current
        self.f.append(h)
        self.equal.setdefault(m, []).append(h)
        # The skipped records are every earlier one whose lead divides m.
        if not self.skipped:
            self.minimal.append(h)
        self.add(h, self.skipped)

    def result(self):
        """The generators with minimal leads, the first of equal leads, and
        whether a signature above the limit is live."""
        deg, guard = self.pk.deg, self.pk.guard
        f, n = self.f, self.inputs
        G, later = list(self.minimal), f[n:]
        for g in f[:n]:
            # The inputs' leads divide no other's, and the later generators
            # come in nondecreasing degree.
            d = deg(g.lm)
            if all((g.lm - x.lm) & guard for x in takewhile(lambda x: deg(x.lm) < d, later)):
                G.append(g)
        G.sort(key=lambda g: (deg(g.lm), g.idx))
        return G, self._live_above_limit()

    def _live_above_limit(self):
        pk = self.pk
        for h in reversed(self.above_limit):
            for g in self.f[: h.idx]:
                lcm = pk.lcm(h.lm, g.lm)
                if pk.deg(lcm) > self.degree_limit:
                    sig = self._signature(g, h, lcm)
                    if sig is not None and not self._killed(*sig):
                        return True
        return False


def _buchberger_kernel(
    inputs, pk, field, *, degree_limit=None, pair_limit=DEFAULT_PAIR_LIMIT, interreduce=True
):
    """Groebner basis of homogeneous term dicts; returns (gens, truncated, pk, stats).

    The inputs map exponent tuples (``exps + (comp,)`` for module vectors)
    to coefficients and are packed in ``pk``.  Every term a pair's
    reduction forms has the degree of the pair's lcm, so one bound check
    per selected pair keeps every exponent in its field; a pair above the
    bound raises `_Overflow`, and callers rerun the kernel on a wider
    packing (`_widening`).

    One loop takes the next queued entry, divides what it yields with
    `_reduce` and hands the remainder back; the input picks the criteria
    that make, drop and answer the entries.  Without ``degree_limit`` they
    are Gebauer and Moeller's (`_GebauerMoeller`), with full remainders.
    With one, which only an ideal may have, they are the signature
    criteria (`_Signatures`): one reduction per signature, top term only,
    by regular reducers.  Each route measured faster on its side, with
    equal reduced bases (raw, a shared 2-core host): without a limit the
    eight ``resolve`` bases take 48-49 ms in all on Gebauer-Moeller
    against 63-66 ms on signatures at their top degree and interreduction
    (best of 11); with one, 3:(2,1) at 13 took 200 ms on signatures
    against 298 on a truncated Gebauer-Moeller, and 2:(4,2,1) at 23 1.43 s
    against 2.24 (medians).  Those two now take 187-193 ms and 1.43-1.45 s,
    nearly all of it the final interreduction: the loop alone takes 9 and
    28 ms.  A limit at or above a basis's top degree trades back:
    2:(2,1,2) at 42 or 60 takes 48-58 ms on signatures, 36-42 on
    Gebauer-Moeller (best of 11).  Both select by least lcm degree; the
    input is homogeneous, so that is sugar selection (Giovini et al., "One
    sugar cube, please", ISSAC 1991), and records keep no sugar.
    ``pair_limit`` bounds the queued pairs or signatures.  ``truncated``
    has one rule, `_Signatures`': a signature above the limit was left out
    that no criterion drops in the finished run.

    With ``interreduce`` the result is the unique reduced basis; without
    it the basis is only lead-minimal, which membership tests do not
    notice but is cheaper on large inputs.  ``stats`` counts the
    reductions, those to zero, the pairs or signatures queued and dropped
    by each criterion, and the candidates above ``degree_limit`` (the
    route's ``COUNTERS``).
    """
    if degree_limit is not None and pk.module:
        raise InternalError("a module basis takes no degree limit")
    f = []
    for t in inputs:
        if t:
            terms = pk.pack_terms(t.items())
            if len({pk.bound(x) for x in terms}) != 1:
                raise InternalError("a kernel input is not homogeneous")
            f.append(_make_gen(terms, field, 0))
    # Input leads may divide each other, so reduce until nothing changes.
    while _interreduce(f, pk, field):
        pass
    for k, g in enumerate(f):
        g.idx = k

    if degree_limit is None:
        crit = _GebauerMoeller(f, pk, field)
    else:
        crit = _Signatures(f, pk, field, degree_limit)
    stats, full = crit.stats, crit.FULL
    for h in f[:]:
        crit.add(h)

    heap = crit.heap
    while heap:
        if crit.queued() > pair_limit:
            raise ResourceLimitError(
                f"pair queue exceeded the configured bound ({pair_limit})"
            )
        job = crit.take(heapq.heappop(heap))
        if job is None:
            continue
        terms, reducers, options = job
        r = _reduce(terms, reducers, pk, field, full=full, **options)
        stats["reductions"] += 1
        stats["zero_reductions"] += not r
        crit.done(r)
    G, truncated = crit.result()

    # The leads of G are minimal, so one pass of tail reduction gives the
    # unique reduced basis.
    if interreduce:
        _interreduce(G, pk, field)
    G.sort(key=lambda g: g.lm)
    return G, truncated, pk, stats


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

    The basis is stored as the kernel's monic records and their packing;
    ``elements`` builds the public polynomials on first access.
    Membership and normal forms divide by the records lowest lead degree
    first (ties in element order), a list built on first use and again,
    repacked wider, for a polynomial above its packing's degree bound.
    The constructor takes nonzero homogeneous polynomials and
    trusts them to be a Groebner basis; for any other input
    ``normal_form`` depends on that reducer order.  ``stats`` holds the
    kernel's counters for a computed basis (see `_buchberger_kernel`) and
    is None for one built from polynomials.  A ``truncated_at`` that is
    not None is the degree up to which normal forms are exact; a
    polynomial above it is refused.  A signature above the limit that
    survived the criteria sets it though it may reduce to zero, so a
    complete basis can carry it.
    """

    __slots__ = (
        "ring", "reduced", "truncated_at", "source", "stats", "_gens", "_pk",
        "_elements", "_by_degree",
    )

    def __init__(self, ring, elements, *, reduced, truncated_at=None, source=None):
        """A basis from given polynomials, turned into monic records once."""
        self.ring = ring
        self.reduced = reduced
        self.truncated_at = truncated_at
        self.source = source
        self.stats = None
        self._elements = tuple(elements)
        self._by_degree = None
        degrees = [p.homogeneous_degree() for p in self._elements]
        if "any" in degrees:
            raise ValidationError("Groebner basis elements must be nonzero")
        if None in degrees:
            raise ValidationError("Groebner basis elements must be homogeneous")
        self._pk = _Packing(ring.order, ring.nvars, _width(max(degrees, default=0)))
        self._gens = [
            _make_gen(self._pk.pack_terms(p.terms), ring.field, k)
            for k, p in enumerate(self._elements)
        ]

    @classmethod
    def _from_kernel(cls, ring, gens, pk, stats, **flags):
        """A basis that keeps the kernel records and counters ``buchberger`` computed."""
        basis = cls(ring, (), **flags)
        basis.stats = stats
        basis._gens = gens
        basis._pk = pk
        basis._elements = None
        return basis

    @property
    def elements(self):
        if self._elements is None:
            one = self.ring.field.one
            unpack = self._pk.unpack
            self._elements = tuple(
                Polynomial(
                    self.ring,
                    ((unpack(g.lm), one),) + tuple((unpack(e), c) for e, c in g.tail),
                )
                for g in self._gens
            )
        return self._elements

    def _guarded(self, degree, terms):
        """The packing, the degree-ordered records and the packed ``(exps,
        coeff)`` ``terms`` of at most ``degree``, after the truncation
        refusal."""
        if self.truncated_at is not None and degree > self.truncated_at:
            raise ValidationError(
                f"normal form of degree {degree} is not exact against a "
                f"basis truncated at degree {self.truncated_at}"
            )
        # The records sorted by lead degree, in a packing that holds the
        # degree: they are homogeneous, so no term formed exceeds it.
        packed = self._by_degree
        if packed is None or degree > packed[0].maxdeg:
            pk = self._pk if degree <= self._pk.maxdeg else self._pk.widened(degree)
            gens = sorted(pk.convert(self._gens, self._pk), key=lambda g: pk.deg(g.lm))
            self._by_degree = packed = (pk, gens)
        pk, by_degree = packed
        return pk, by_degree, pk.pack_terms(terms)

    def _remainder(self, p, full):
        """Remainder of ``p`` and the packing it is in."""
        if p.ring != self.ring:
            raise ValidationError("polynomial is not in the basis ring")
        if not p:
            return {}, self._pk
        pk, by_degree, terms = self._guarded(p.degree(), p.terms)
        r = _reduce(terms, lambda m: by_degree, pk, self.ring.field, full=full)
        return r, pk

    def _contains_monomials(self, monomials):
        """`contains` of each monomial, an exponent tuple of the basis ring,
        in order: one packed term each, with the same checks and reducers."""
        field = self.ring.field
        out = []
        for e in monomials:
            pk, by_degree, terms = self._guarded(sum(e), ((e, field.one),))
            out.append(not _reduce(terms, lambda m: by_degree, pk, field, full=False))
        return out

    def normal_form(self, p: Polynomial) -> Polynomial:
        r, pk = self._remainder(p, full=True)
        return self.ring.poly({pk.unpack(e): c for e, c in r.items()})

    def contains(self, p: Polynomial) -> bool:
        """Whether ``p`` lies in the ideal: no remainder term is left.  The
        reports of `idealfam.family` test their monomials against a basis
        as exponent tuples in kernel form, through `_contains_monomials`."""
        return not self._remainder(p, full=False)[0]

    __contains__ = contains

    def leading_monomials(self):
        unpack = self._pk.unpack
        return tuple(Monomial(self.ring.table, unpack(g.lm)) for g in self._gens)

    def hilbert_numerator(self) -> "HilbertNumerator":
        if not self.reduced:
            raise ValidationError("Hilbert numerator needs a reduced basis")
        if self.truncated_at is not None:
            raise ValidationError("Hilbert numerator needs an untruncated basis")
        lms = [self._pk.unpack(g.lm) for g in self._gens]
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


def _check_limits(**limits):
    """Refuse, as invalid input, a ``degree_limit`` that is not an int of
    at least 1, or a ``pair_limit`` or ``level_cap`` that is not an int of
    at least 0 (a bool is not an int here); None passes where the caller
    takes it as no limit."""
    for name, value in limits.items():
        if value is None and name != "pair_limit":
            continue
        least = 1 if name == "degree_limit" else 0
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ValidationError(f"{name} must be an int of at least {least}, not {value!r}")


def buchberger(
    ideal: IdealPresentation,
    order=None,
    *,
    degree_limit=None,
    pair_limit=DEFAULT_PAIR_LIMIT,
    tail_reduce=True,
    interreduce=True,
) -> GroebnerBasis:
    """Reduced Groebner basis of an ideal presentation.

    With ``degree_limit`` no S-pair whose lcm lies above the limit is
    formed, and the basis is exact in all degrees up to the limit.  The
    limit picks the route: with one the kernel takes the signature
    criteria, without one Gebauer and Moeller's, each the faster on its
    side where measured (see `_buchberger_kernel`).  The result's
    ``truncated_at`` is the limit when a signature above it survived the
    signature criteria, and None when none did, so that the basis is
    complete; without a limit it is always None.  It is conservative: a
    surviving signature can still reduce to zero, so a complete basis can
    carry the limit too.  ``pair_limit`` bounds the queued pairs or
    signatures; those above ``degree_limit`` are never queued and do not
    count.  A ``degree_limit`` below 1, a negative ``pair_limit`` or one
    that is not an int raises `ValidationError`.  ``interreduce=False``
    skips the final tail interreduction; the result still yields correct
    normal forms but is not the canonical reduced basis.  The result's
    ``stats`` counts the reductions, those to zero, and the pairs each
    criterion dropped.

    ``tail_reduce`` is accepted and ignored: the route decides how far
    remainders are divided.  It stays only because the benchmark's
    ``verify`` workload passes it, and goes once that call drops it.
    """
    _check_limits(degree_limit=degree_limit, pair_limit=pair_limit)
    ring = ideal.ring
    if order is not None:
        if isinstance(order, str):
            order = MonomialOrder(order)
        if order != ring.order:
            ring = ring.with_order(order)
    # With a limit no pair above it is reduced, so its fields always fit.
    bound = max(max(ideal.degrees()), degree_limit or 0)
    inputs = [dict(g.terms) for g in ideal.generators]
    gens, truncated, pk, stats = _widening(
        lambda pk: _buchberger_kernel(
            inputs, pk, ring.field, degree_limit=degree_limit, pair_limit=pair_limit,
            interreduce=interreduce,
        ),
        _Packing(ring.order, ring.nvars, _width(bound)),
    )
    return GroebnerBasis._from_kernel(
        ring, gens, pk, stats, reduced=interreduce,
        truncated_at=degree_limit if truncated else None, source=ideal,
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
    field = ring.field
    # A term of the S-polynomial is a term of one times part of the other's lead.
    pk = _Packing(ring.order, ring.nvars, _width(f.degree() + g.degree()))
    gf = _make_gen(pk.pack_terms(f.terms), field, 0)
    gg = _make_gen(pk.pack_terms(g.terms), field, 1)
    return ring.poly({pk.unpack(e): c for e, c in _spoly(gf, gg, pk, field).items()})


def _minimal_monomials(exps_list):
    """Minimal generators of the monomial ideal spanned by the input."""
    uniq = sorted(set(exps_list), key=lambda e: (sum(e), e))
    out = []
    for e in uniq:
        for m in out:
            for x, y in zip(m, e):
                if x > y:
                    break
            else:
                break  # m divides e
        else:
            out.append(e)
    return out


def _support_masks_disjoint(gens):
    seen = 0
    for e in gens:
        mask = sum(1 << i for i, x in enumerate(e) if x)
        if mask & seen:
            return False
        seen |= mask
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
        return self.as_dict().get(d, 0)

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
        return _signed_sum([
            (c < 0, _term_text(abs(c), format_monomial(("t",), (d,)))) for d, c in self.coeffs
        ])

    def __repr__(self):
        return f"HilbertNumerator({self}, nvars={self.nvars})"


def hilbert_numerator(basis: GroebnerBasis) -> HilbertNumerator:
    return basis.hilbert_numerator()
