"""Minimal graded free resolutions, Betti tables, and syzygies.

The resolution pipeline: a reduced Groebner basis of the ideal seeds a
chain of syzygy modules.  Reducing the S-vector of a pair of basis
elements to zero and collecting the division quotients yields one syzygy
whose leading term is known in advance under the order induced by the
previous level's leading terms, so each level is again a Groebner basis
and the chain continues by plain division, no basis completion needed.
Level 1 numbers the basis in reverse-lexicographic order of its leads:
the highest power of the order's last variable first, ties broken by the
variable before it, and so on.  Level 1 lies in one component, so every
numbering gives a Schreyer order and the same Betti table; the numbering
sets the size of the frame, the retained pairs of every level (La Scala
and Stillman, "Strategies for computing minimal free resolutions", 1998).
On the eight bases of the benchmark's ``resolve`` workload this order
gives 8,692 non-minimal ranks where the basis's own descending order
gave 9,844, for the same 3,680 minimal ones.
Module vectors are the groebner kernel's records, divided by its
`_reduce`: each term is one packed int of its Schreyer-shifted monomial
and its component, whose order is the induced order, and a generator's
twist is its lead's degree.  S-vectors and reducers keep only the tail
terms in components holding a lead of the level; no other term is ever
divided, so the quotients are the full records'.  `syzygies` of an
arbitrary presentation matrix runs the groebner module's one Buchberger
loop, `_buchberger_kernel`, on module vectors.  The tower's packed records
are the chain a resolution keeps; exponent tuples are made on demand.
The resulting graded complex F is generally non-minimal.  Its Betti
numbers are the graded dimensions of the homology of F tensored with the
residue field: the differential d_i reduces there to its scalar blocks
between generators of equal twist, so beta_{i,j} is the count of twist-j
generators of F_i less the ranks of those blocks of d_i and d_{i+1} in
degree j (as in Erocal-Motsak-Schreyer-Steenpass, "Refined algorithms to
compute syzygies", 2016).  Only small scalar eliminations are needed.
The minimal complex itself, obtained by eliminating the degree-zero
entries with polynomial column operations, is built only when its
modules or matrices are asked for.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import InternalError, ResourceLimitError, ValidationError
from .groebner import (
    GroebnerBasis,
    HilbertNumerator,
    IdealPresentation,
    _buchberger_kernel,
    _Gen,
    _Overflow,
    _Packing,
    _reduce,
    _reducers,
    _spoly,
    _widening,
    _width,
    buchberger,
)
from .ring import Polynomial, PolynomialRing, PrimeField

DEFAULT_LEVEL_MARGIN = 6


# ---------------------------------------------------------------------------
# raw polynomial-dict helpers

def _sub_product(a, f, b, field):
    """a - f*b for term dicts (a may be None)."""
    out = dict(a) if a else {}
    # Prime field elements are ints reduced mod p, rationals are Fractions.
    prime = field.p if isinstance(field, PrimeField) else None
    for e1, c1 in f.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, 0) - c1 * c2
            if prime:
                v %= prime
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


# ---------------------------------------------------------------------------
# Schreyer tower

def _retained_pairs(basis, lvl, pk):
    """Pairs whose syzygy leading terms minimally generate the lead module.

    For each vector i the monomials lcm(lm_i, lm_j)/lm_i over the later
    same-component vectors j are filtered down to a divisibility-minimal
    set (ties keep the smallest j).  The surviving syzygies still generate
    the full syzygy module and remain a Groebner basis for the induced
    order, because their leading terms span the same monomial module.
    The vectors are packed in the level's module packing ``lvl``; returns
    ``(i, j, mij)`` with ``mij`` packed in the ideal packing ``pk``.
    """
    cmask = lvl.cmask
    by_comp = {}
    for b in basis:
        by_comp.setdefault(b.lm & cmask, []).append(b)
    quo, deg, guard = lvl.quo, pk.deg, pk.guard
    pairs = []
    for comp in sorted(by_comp):
        bucket = by_comp[comp]
        for a, bi in enumerate(bucket):
            cands = []
            for bj in bucket[a + 1 :]:
                mij = quo(bi.lm, bj.lm)
                cands.append((deg(mij), mij, bj.idx))
            cands.sort()
            kept = []
            for _, mij, jidx in cands:
                if all((mij - k) & guard for k, _ in kept):
                    kept.append((mij, jidx))
            for mij, jidx in kept:
                pairs.append((bi.idx, jidx, mij))
    return pairs


def _schreyer_tower(gens, pk, field, *, degree_limit=None, level_cap=None):
    """Iterated syzygy bases starting from a reduced Groebner basis.

    ``gens`` are the basis records, packed in ``pk``, in the order level 1
    numbers them (`schreyer_resolution` chooses it).  Each level is a
    list of `_Gen` module vectors; the ideal's basis is the first, in
    component 0.  A term ``m e_c`` is stored Schreyer-shifted: its
    monomial is ``m mu[c]``, ``mu[c]`` being the product of the leads down
    the chain of ``c``, packed with ``c`` in the level's module packing.
    So the packed order compares the stored monomial, then ``c``, a
    smaller index being larger: records are made in the order of their
    lead components, so index order is the order of those chains of
    leads.  A term and its reducers share ``mu[c]``, which division never
    sees.  The S-vector of a retained pair (i, j) reduces to zero and
    gives one syzygy with lead ``mij e_i``, stored as ``lcm(lm_i, lm_j)``
    in component i: each level is again a Groebner basis, its leads are
    the next ``mu``, and a twist is a lead's degree.  Every term of a
    level has its twist's degree, so twists within ``pk``'s bound keep
    every exponent in its field; a larger one raises `_Overflow`.

    S-vectors and reducers use copies of the level's records that keep
    only the tail terms in live components, those holding a lead of the
    level; a record that loses no term is reused.  Division buckets by
    component, so a term in a dead component is never divided: it gives
    no quotient and cancels, the full S-vector reducing to zero.  So every
    quotient, tail, scalar and twist is the full records', and the zero
    check covers the live part.  The stored records keep every term.

    Returns ``(twists, levels, truncated, stats)``: ``twists[i]`` maps each
    level-i id, its position, to its twist, and ``levels[i - 1]`` is
    ``(cw, records, scalars)``: level i's records with components in the
    low ``cw`` bits, and ``(id, {row: coeff})`` for each record with
    constant entries, the terms equal to their row's shifted lead.
    ``stats`` sums over the levels that reduce: ``pairs`` reduced,
    ``steps`` (quotients), ``stored_terms`` (the records' tail terms) and
    ``live_terms`` (those the S-vectors and reducers keep).  Past
    ``level_cap`` the `ResourceLimitError` carries the levels so far as
    ``partial``, in `_columns`' ``(twists, cols)`` layout.
    """
    if level_cap is None:
        level_cap = pk.nvars + DEFAULT_LEVEL_MARGIN
    one = field.one
    neg_one = field.neg(one)

    lvl = pk.with_components(1)
    basis = [_Gen(g.lm, g.tail, i) for i, g in enumerate(gens)]
    twists = [{0: 0}, {b.idx: pk.deg(b.lm) for b in basis}]
    # The ring's lead is the packed 1, 0.
    levels = [(lvl.cw, basis, [(b.idx, {0: one}) for b in basis if not b.lm])]

    truncated = False
    stats = dict.fromkeys(("pairs", "steps", "stored_terms", "live_terms"), 0)

    while True:
        twist = twists[-1]
        pairs = _retained_pairs(basis, lvl, pk)
        if degree_limit is not None:
            kept = []
            for (i, j, mij) in pairs:
                if pk.deg(mij) + twist[i] > degree_limit:
                    truncated = True
                else:
                    kept.append((i, j, mij))
            pairs = kept
        if not pairs:
            break
        if len(twists) > level_cap:
            raise ResourceLimitError(
                f"resolution exceeded {level_cap} levels",
                partial=(twists, _columns(levels, pk, one)),
            )
        pairs.sort(key=lambda t: (t[0], t[2], t[1]))
        top = max(pk.deg(mij) + twist[i] for i, _, mij in pairs)
        if top > pk.maxdeg:
            raise _Overflow(top)

        # The S-vectors' and reducers' copies: live tail terms only.
        cw, cmask = lvl.cw, lvl.cmask
        live = {b.lm & cmask for b in basis}
        work = basis
        if len(live) < lvl.components:
            work = []
            for b in basis:
                tail = tuple([t for t in b.tail if t[0] & cmask in live])
                work.append(b if len(tail) == len(b.tail) else _Gen(b.lm, tail, b.idx))
        stats["pairs"] += len(pairs)
        stats["stored_terms"] += sum(len(b.tail) for b in basis)
        stats["live_terms"] += sum(len(b.tail) for b in work)

        # The S-vector of (j, i) is minus that of (i, j), so its quotients
        # are the syzygy's coefficients.  A quotient q e_k is stored as q lm_k,
        # the divided term's monomial, in component k; it is below the lcm,
        # so it meets neither term of the pair and none cancels.  A term is
        # constant when that monomial is lm_k; the pair's are when one lead
        # divides the other, as in a basis that is not reduced.
        nxt = pk.with_components(len(basis))
        cw2 = nxt.cw
        reducers = _reducers(work, lvl)
        lms = [b.lm for b in basis]
        new_basis = []
        new_twists = {}
        scalars = []
        for (i, j, mij) in pairs:
            rem, quot = _reduce(
                _spoly(work[j], work[i], lvl, field), reducers, lvl, field, full=False, track=True
            )
            if rem:
                raise InternalError("an S-vector failed to reduce to zero")
            stats["steps"] += len(quot)
            lcm = lms[i] + (mij << cw)
            terms = [(lcm, j, neg_one), *quot]
            tail = tuple([(((m >> cw) << cw2) + r, c) for m, r, c in terms])
            k = len(new_basis)
            new_basis.append(_Gen(((lcm >> cw) << cw2) + i, tail, k))
            new_twists[k] = twist[i] + pk.deg(mij)
            units = {r: c for m, r, c in [(lcm, i, one), *terms] if m == lms[r]}
            if units:
                scalars.append((k, units))

        twists.append(new_twists)
        levels.append((cw2, new_basis, scalars))
        basis = new_basis
        lvl = nxt

    return twists, levels, truncated, stats


def _columns(levels, pk, one):
    """Tuple columns of packed levels: ``cols[i]`` maps each level-i id to
    a dict from level i-1 id to term dict.  ``t >> cw`` of a term in row r
    is its monomial times r's shifted lead; the ring's lead is 0.
    """
    unpack = pk.unpack
    cols = [None]
    below = [0]
    for cw, records, _ in levels:
        cmask = (1 << cw) - 1
        level = {}
        for g in records:
            col = {}
            for t, c in ((g.lm, one),) + g.tail:
                r = t & cmask
                col.setdefault(r, {})[unpack((t >> cw) - below[r])] = c
            level[g.idx] = col
        cols.append(level)
        below = [g.lm >> cw for g in records]
    return cols


# ---------------------------------------------------------------------------
# minimalization

def _minimalize_raw(twists, cols, field, nvars):
    """Eliminate degree-zero differential entries by column operations.

    Takes and returns :class:`FreeResolution`'s layout.  Works on copies of
    the id maps and columns (term dicts are never changed in place, so
    they are shared), ascending through the levels; a pivot at (row, col)
    folds the pivot column into the other columns meeting that row, then
    removes the row and column everywhere.  The scan order is fixed for
    reproducibility.
    """
    zero_exps = (0,) * nvars
    L = len(twists) - 1
    alive = [dict(tw) for tw in twists]
    cols = [None] + [
        {cid: dict(col) for cid, col in cols[i].items()} for i in range(1, L + 1)
    ]
    rowadj = [None]
    for i in range(1, L + 1):
        adj = {}
        for cid, col in cols[i].items():
            for rid in col:
                adj.setdefault(rid, set()).add(cid)
        rowadj.append(adj)

    for i in range(1, L + 1):
        twist_src = alive[i]
        twist_tgt = alive[i - 1]
        level = cols[i]
        adj = rowadj[i]
        units = []
        for cid in sorted(level):
            tc = twist_src[cid]
            for rid, poly in level[cid].items():
                if twist_tgt.get(rid) == tc and zero_exps in poly:
                    units.append((cid, rid))
        heapq.heapify(units)
        while units:
            cid, rid = heapq.heappop(units)
            col = level.get(cid)
            if col is None or rid not in col or rid not in twist_tgt:
                continue
            poly = col[rid]
            u = poly.get(zero_exps)
            if not u:
                continue
            uinv = field.inv(u)
            for c2 in sorted(adj.get(rid, ()) - {cid}):
                col2 = level.get(c2)
                if col2 is None or rid not in col2:
                    continue
                factor = {e: field.mul(c, uinv) for e, c in col2[rid].items()}
                tc2 = twist_src[c2]
                for r2, p0 in col.items():
                    newp = _sub_product(col2.get(r2), factor, p0, field)
                    if newp:
                        if r2 not in col2:
                            adj.setdefault(r2, set()).add(c2)
                        col2[r2] = newp
                        if twist_tgt.get(r2) == tc2 and zero_exps in newp:
                            heapq.heappush(units, (c2, r2))
                    elif r2 in col2:
                        del col2[r2]
                        a2 = adj.get(r2)
                        if a2:
                            a2.discard(c2)
            for r2 in col:
                a2 = adj.get(r2)
                if a2:
                    a2.discard(cid)
            del level[cid]
            del twist_src[cid]
            adj.pop(rid, None)
            del twist_tgt[rid]
            if i + 1 <= L:
                nadj = rowadj[i + 1]
                for c3 in nadj.pop(cid, set()):
                    cols[i + 1][c3].pop(cid, None)
            if i - 1 >= 1:
                col0 = cols[i - 1].pop(rid, None)
                if col0 is not None:
                    padj = rowadj[i - 1]
                    for r0 in col0:
                        a0 = padj.get(r0)
                        if a0:
                            a0.discard(rid)
    while len(alive) > 1 and not alive[-1]:
        alive.pop()
        cols.pop()
    return alive, cols


# ---------------------------------------------------------------------------
# Betti numbers from scalar ranks

def _rank(columns, field):
    """Rank of a scalar matrix given as columns {row: nonzero coefficient}.

    Each column is reduced by the pivots at its smallest row until it
    vanishes or gives a new pivot; a pivot's other rows are all larger,
    so every step raises the smallest row and the loop ends.
    """
    # The operators on ints mod p or on Fractions, as in `_reduce`.
    prime = field.p if isinstance(field, PrimeField) else None
    pivots = {}
    for col in columns:
        v = dict(col)
        while v:
            r = min(v)
            piv = pivots.get(r)
            if piv is None:
                inv = field.inv(v[r])
                if prime:
                    pivots[r] = {k: c * inv % prime for k, c in v.items()}
                else:
                    pivots[r] = {k: c * inv for k, c in v.items()}
                break
            c = v[r]
            for k, pc in piv.items():
                x = v.get(k, 0) - c * pc
                if prime:
                    x %= prime
                if x:
                    v[k] = x
                else:
                    v.pop(k, None)
    return len(pivots)


def _constant_ranks(twists, levels, field):
    """Ranks of the differentials tensored with the residue field.

    Returns ``{(i, j): rank}`` for `_schreyer_tower`'s twists and levels:
    the rank of the block of the constant entries the tower marked in d_i
    between twist-j generators, for every nonzero block.
    """
    ranks = {}
    for i, (_, _, scalars) in enumerate(levels, 1):
        blocks = {}
        for k, entries in scalars:
            blocks.setdefault(twists[i][k], []).append(entries)
        for j, block in blocks.items():
            ranks[(i, j)] = _rank(block, field)
    return ranks


# ---------------------------------------------------------------------------
# public graded types

@dataclass(frozen=True)
class GradedFreeModule:
    """A free module with one integer twist per generator."""

    twists: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.twists)


class PresentationMatrix:
    """A graded matrix of homogeneous polynomials between free modules.

    Entry (r, c) is zero or homogeneous of degree
    ``source.twists[c] - target.twists[r]``.
    """

    __slots__ = ("ring", "source", "target", "columns")

    def __init__(self, ring, source, target, columns):
        columns = tuple({r: p for r, p in col.items() if p} for col in columns)
        if len(columns) != source.rank:
            raise ValidationError("one column per source generator is required")
        for c, col in enumerate(columns):
            for r, p in col.items():
                if not 0 <= r < target.rank:
                    raise ValidationError(f"row {r} outside the target module")
                d = p.homogeneous_degree()
                if d is None or d != source.twists[c] - target.twists[r]:
                    raise ValidationError(
                        f"entry ({r},{c}) is not homogeneous of degree "
                        f"{source.twists[c] - target.twists[r]}"
                    )
        self.ring = ring
        self.source = source
        self.target = target
        self.columns = columns

    def entry(self, r: int, c: int) -> Polynomial:
        return self.columns[c].get(r, self.ring.zero())

    def apply(self, vector):
        """Image of a source vector given as {column index: Polynomial}."""
        out = {}
        for c, coeff in vector.items():
            for r, p in self.columns[c].items():
                cur = out.get(r)
                v = p * coeff if cur is None else cur + p * coeff
                if v:
                    out[r] = v
                else:
                    out.pop(r, None)
        return {r: p for r, p in out.items() if p}

    def composes_to_zero(self, nxt: "PresentationMatrix") -> bool:
        """True when self applied after ``nxt`` vanishes."""
        if nxt.target != self.source:
            raise ValidationError("matrices are not composable")
        for col in nxt.columns:
            if self.apply(col):
                return False
        return True

    def __repr__(self):
        return f"PresentationMatrix({self.target.rank} x {self.source.rank})"


class BettiTable:
    """Graded ranks of a minimal free resolution.

    ``entries`` maps (homological degree i, internal degree j) to a
    positive multiplicity.
    """

    __slots__ = ("entries", "truncated_at")

    def __init__(self, entries, truncated_at=None):
        clean = {}
        for (i, j), b in dict(entries).items():
            b = int(b)
            if b < 0:
                raise ValidationError("Betti numbers must be nonnegative")
            if b:
                clean[(int(i), int(j))] = b
        for (i, j) in clean:
            if i == 0 and (j != 0 or clean[(0, 0)] != 1):
                raise ValidationError("column 0 must be a single rank-one entry")
            if j < i:
                raise ValidationError("entries below the diagonal are not allowed")
        self.entries = clean
        self.truncated_at = truncated_at

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    @property
    def pd(self) -> int:
        return max((i for (i, _) in self.entries), default=0)

    @property
    def reg(self) -> int:
        return max((j - i for (i, j) in self.entries), default=0)

    def total(self, i: int) -> int:
        return sum(b for (ii, _), b in self.entries.items() if ii == i)

    def totals(self):
        return [self.total(i) for i in range(self.pd + 1)]

    def triples(self):
        return sorted((i, j, b) for (i, j), b in self.entries.items())

    @classmethod
    def from_triples(cls, triples, truncated_at=None):
        return cls({(i, j): b for i, j, b in triples}, truncated_at)

    def render(self) -> str:
        cols = range(self.pd + 1)
        rows = range(self.reg + 1)
        grid = [["", *[str(i) for i in cols]]]
        grid.append(["total:", *[str(self.total(i)) for i in cols]])
        for r in rows:
            line = [f"{r}:"]
            for i in cols:
                b = self.entry(i, r + i)
                line.append(str(b) if b else "-")
            grid.append(line)
        widths = [max(len(row[k]) for row in grid) for k in range(len(grid[0]))]
        lines = [
            " ".join(cell.rjust(widths[k]) for k, cell in enumerate(row))
            for row in grid
        ]
        if self.truncated_at is not None:
            lines.append(f"(truncated at internal degree {self.truncated_at})")
        return "\n".join(lines)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and other.entries == self.entries

    def __hash__(self):
        return hash(tuple(self.triples()))

    def __repr__(self):
        return f"BettiTable(pd={self.pd}, reg={self.reg})"


def pd_of(table: BettiTable) -> int:
    """Largest homological degree carrying a nonzero entry."""
    return table.pd


def reg_of(table: BettiTable) -> int:
    """Largest j - i over nonzero entries."""
    return table.reg


class FreeResolution:
    """A chain of graded free modules over a polynomial ring.

    Levels are numbered 0..length with level 0 the ring itself; matrix i
    maps level i into level i-1.  ``_twists[i]`` maps each level-i
    generator id to its twist.  A Schreyer resolution keeps the tower's
    ``(pk, levels)`` in ``_packed``; ``modules``, ``length`` and
    ``betti()`` read them, and the layout minimalization keeps,
    ``_cols[i]`` mapping each level-i id to a dict from level i-1 id to
    term dict, is built only for matrices, the complex checks and
    minimalization.  Ids are stable, so a minimalized chain keeps the
    surviving ids; ``matrices`` materializes public objects on demand.

    ``betti()`` subtracts the ranks of the scalar blocks of the packed
    differentials from the generator counts.  The resolution
    :meth:`minimalize` returns is lazy: it holds its source in ``_source``
    and no chain (``_twists`` is None) until ``modules``, ``length``,
    ``matrices``, ``check_complex``, ``is_minimal_complex`` or ``repr``
    needs one; until then its ``betti()`` is the source's.
    """

    __slots__ = (
        "ring", "minimal", "truncated_at", "stats", "_twists", "_packed", "_cols",
        "_matrices", "_source",
    )

    def __init__(self, ring, twists, packed, *, minimal, truncated_at=None):
        self.ring = ring
        self._twists = twists    # list of dict id -> twist
        self._packed = packed    # the Schreyer tower's (pk, levels), or None
        self._cols = None        # [None] + list of dict cid -> dict rid -> termdict
        self.minimal = minimal
        self.truncated_at = truncated_at
        self._matrices = None
        self._source = None      # the resolution a lazy minimalization came from
        self.stats = None        # the Schreyer tower's counters, see `schreyer_resolution`

    def _chain(self):
        """The ``(twists, cols)`` tuple layout, built on first use.

        A lazy minimalization minimalizes its source and releases it; its
        chain has no scalar entries, so its ``betti()`` counts generators.
        """
        if self._twists is None:
            twists, cols = self._source._chain()
            self._twists, self._cols = _minimalize_raw(
                twists, cols, self.ring.field, self.ring.nvars
            )
            self._source = None
        elif self._cols is None:
            pk, levels = self._packed
            self._cols = _columns(levels, pk, self.ring.field.one)
        return self._twists, self._cols

    def _twist_maps(self):
        return self._chain()[0] if self._twists is None else self._twists

    @property
    def length(self) -> int:
        return len(self._twist_maps()) - 1

    @property
    def modules(self):
        return tuple(
            GradedFreeModule(tuple(tw[i] for i in sorted(tw))) for tw in self._twist_maps()
        )

    @property
    def matrices(self):
        if self._matrices is None:
            twists, cols = self._chain()
            mats = []
            modules = self.modules
            for i in range(1, len(twists)):
                tgt_pos = {rid: k for k, rid in enumerate(sorted(twists[i - 1]))}
                columns = [
                    {tgt_pos[rid]: self.ring.poly(p) for rid, p in cols[i].get(cid, {}).items()}
                    for cid in sorted(twists[i])
                ]
                mats.append(PresentationMatrix(self.ring, modules[i], modules[i - 1], columns))
            self._matrices = tuple(mats)
        return self._matrices

    def betti(self) -> BettiTable:
        """Betti table: generator counts less the scalar ranks beside them."""
        if self._source is not None:
            return self._source.betti()
        entries = {}
        for i, tw in enumerate(self._twists):
            for j in tw.values():
                entries[(i, j)] = entries.get((i, j), 0) + 1
        if self._packed is not None:
            ranks = _constant_ranks(self._twists, self._packed[1], self.ring.field)
            for (i, j), r in ranks.items():
                entries[(i, j)] -= r
                entries[(i - 1, j)] -= r
        return BettiTable(entries, truncated_at=self.truncated_at)

    def check_complex(self) -> bool:
        """True when consecutive differentials compose to zero."""
        field = self.ring.field
        cols = self._chain()[1]
        for i in range(2, self.length + 1):
            prev = cols[i - 1]
            for col in cols[i].values():
                # Minus the composite column, which is zero exactly when it is.
                acc = {}
                for rid, p in col.items():
                    for r2, q in prev.get(rid, {}).items():
                        acc[r2] = _sub_product(acc.get(r2), p, q, field)
                if any(acc.values()):
                    return False
        return True

    def is_minimal_complex(self) -> bool:
        """True when no differential entry has a degree-zero term."""
        zero_exps = (0,) * self.ring.nvars
        return not any(
            zero_exps in p
            for level in self._chain()[1][1:] for col in level.values() for p in col.values()
        )

    def minimalize(self) -> "FreeResolution":
        """The minimal resolution, built lazily from this one.

        Its ``betti()`` reads this resolution's scalar ranks; the
        column operations of `_minimalize_raw` run on first use of its
        modules or matrices.
        """
        out = FreeResolution(self.ring, None, None, minimal=True, truncated_at=self.truncated_at)
        out._source = self
        out.stats = self.stats
        return out

    def __repr__(self):
        ranks = ", ".join(str(len(t)) for t in self._twist_maps())
        kind = "minimal" if self.minimal else "non-minimal"
        return f"FreeResolution({kind}; ranks {ranks})"


def schreyer_resolution(source, *, degree_limit=None, level_cap=None) -> FreeResolution:
    """Non-minimal free resolution built from iterated syzygy bases; its
    ``stats``, shared by its minimalization, are `_schreyer_tower`'s.

    Level 1 numbers the basis records in reverse-lexicographic lead order
    in the ring's variable ranking, not in the basis's element order: the
    highest power of the last variable first, ties broken by the variable
    before it.  The choice is exact: level 1 has one component, so any
    numbering of it is a Schreyer order, and only the index tie-break of
    later levels moves.  The chain, its ranks and the retained pairs
    depend on the numbering; the Betti table does not.  Equal leads,
    which only a basis that is not reduced has, keep their element order.
    """
    if isinstance(source, GroebnerBasis):
        gb = source
    elif isinstance(source, IdealPresentation):
        gb = buchberger(source, degree_limit=degree_limit)
    else:
        raise ValidationError("expected an IdealPresentation or GroebnerBasis")
    ring = gb.ring
    arrange, unpack = ring.order._arrange, gb._pk.unpack
    gens = sorted(gb._gens, key=lambda g: [-e for e in reversed(arrange(unpack(g.lm)))])
    pk, (twists, levels, truncated, stats) = _widening(
        lambda pk: (pk, _schreyer_tower(
            pk.convert(gens, gb._pk), pk, ring.field,
            degree_limit=degree_limit, level_cap=level_cap,
        )),
        gb._pk,
    )
    truncated_at = (
        degree_limit if (truncated or gb.truncated_at is not None) else None
    )
    res = FreeResolution(ring, twists, (pk, levels), minimal=False, truncated_at=truncated_at)
    res.stats = stats
    return res


def minimal_free_resolution(ideal, *, degree_limit=None, level_cap=None) -> FreeResolution:
    """Minimal graded free resolution of R/I for a homogeneous ideal.

    Lazy, as :meth:`FreeResolution.minimalize` returns it: the Betti table
    is read without minimalizing, the minimal matrices are built on first use.
    """
    return schreyer_resolution(
        ideal, degree_limit=degree_limit, level_cap=level_cap
    ).minimalize()


def resolve(ideal, *, degree_limit=None, level_cap=None) -> BettiTable:
    """Betti table of the minimal graded free resolution of R/I."""
    return minimal_free_resolution(
        ideal, degree_limit=degree_limit, level_cap=level_cap
    ).betti()


def hilbert_crosscheck(table: BettiTable, numerator: HilbertNumerator) -> bool:
    """True when the alternating Betti sums match the numerator coefficients."""
    acc = {}
    for (i, j), b in table.entries.items():
        acc[j] = acc.get(j, 0) + (b if i % 2 == 0 else -b)
    acc = {j: c for j, c in acc.items() if c}
    return acc == numerator.as_dict()


# ---------------------------------------------------------------------------
# general syzygies of an arbitrary presentation matrix

def syzygies(M: PresentationMatrix) -> PresentationMatrix:
    """Generators of the kernel of a homogeneous presentation matrix.

    The columns, each augmented with a unit tag, go through the groebner
    kernel as module vectors, under an order in which every untagged term
    dominates every tagged one: the packing's tag (`_Packing`).  The basis
    vectors supported entirely on the tags generate the syzygies.  They
    are a generating set, not a basis: their number depends on the
    kernel's pair criteria.
    """
    ring = M.ring
    field = ring.field
    t = M.target.rank
    zero_exps = (0,) * ring.nvars

    elements = []
    for c, col in enumerate(M.columns):
        el = {}
        for r, p in col.items():
            for e, cf in p.terms:
                el[e + (r,)] = cf
        el[zero_exps + (t + c,)] = field.one
        elements.append(el)

    pk = _Packing(
        ring.order, ring.nvars, _width(0), components=t + M.source.rank, tagged=t,
        twists=M.target.twists + M.source.twists,
    )
    basis, _, pk, _ = _widening(lambda pk: _buchberger_kernel(elements, pk, field), pk)
    # A basis vector whose lead is tagged is all tagged: every untagged
    # term comes before every tagged one.
    syz = [b for b in basis if b.lm & pk.cmask >= t]

    twists = []
    columns = []
    for b in syz:
        grouped = {}
        for m, cf in ((b.lm, field.one),) + b.tail:
            m = pk.unpack(m)
            grouped.setdefault(m[-1] - t, {})[m[:-1]] = cf
        degset = {
            M.source.twists[comp] + sum(e) for comp, p in grouped.items() for e in p
        }
        if len(degset) != 1:
            # The entries are homogeneous (PresentationMatrix checks them)
            # and S-vectors and reductions keep that, so this is a bug.
            raise InternalError("syzygy column is not homogeneous")
        twists.append(degset.pop())
        columns.append({comp: ring.poly(p) for comp, p in grouped.items()})
    return PresentationMatrix(
        ring, GradedFreeModule(tuple(twists)), M.source, columns
    )
