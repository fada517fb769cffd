"""Minimal graded free resolutions, Betti tables, and syzygies.

The resolution pipeline: a reduced Groebner basis of the ideal seeds a
chain of syzygy modules.  Reducing the S-vector of a pair of basis
elements to zero and collecting the division quotients yields one syzygy
whose leading term is known in advance under the order induced by the
previous level's leading terms, so each level is again a Groebner basis
and the chain continues by plain division, no basis completion needed.
The resulting graded complex is generally non-minimal; eliminating
degree-zero differential entries by column operations leaves the minimal
complex, whose graded ranks are the Betti numbers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import InternalError, ResourceLimitError, ValidationError
from .groebner import (
    GroebnerBasis,
    HilbertNumerator,
    IdealPresentation,
    _divides,
    _mask,
    buchberger,
)
from .ring import Polynomial, PolynomialRing, PrimeField

DEFAULT_LEVEL_MARGIN = 6


# ---------------------------------------------------------------------------
# raw polynomial-dict helpers

def _pmul(a, b, field):
    """Product of two term dicts."""
    out = {}
    if isinstance(field, PrimeField):
        p = field.p
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                v = (out.get(e, 0) + c1 * c2) % p
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
    else:
        zero = field.zero
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                v = field.add(out.get(e, zero), field.mul(c1, c2))
                if v == zero:
                    out.pop(e, None)
                else:
                    out[e] = v
    return out


def _psub(a, b, field):
    """a - b for term dicts (a may be None)."""
    out = dict(a) if a else {}
    if isinstance(field, PrimeField):
        p = field.p
        for e, c in b.items():
            v = (out.get(e, 0) - c) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    else:
        zero = field.zero
        for e, c in b.items():
            v = field.sub(out.get(e, zero), c)
            if v == zero:
                out.pop(e, None)
            else:
                out[e] = v
    return out


def _padd(a, b, field):
    """a + b for term dicts (a may be None)."""
    out = dict(a) if a else {}
    if isinstance(field, PrimeField):
        p = field.p
        for e, c in b.items():
            v = (out.get(e, 0) + c) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    else:
        zero = field.zero
        for e, c in b.items():
            v = field.add(out.get(e, zero), c)
            if v == zero:
                out.pop(e, None)
            else:
                out[e] = v
    return out


def _pscale(a, c, field):
    if isinstance(field, PrimeField):
        p = field.p
        out = {}
        for e, v in a.items():
            vc = v * c % p
            if vc:
                out[e] = vc
        return out
    out = {}
    for e, v in a.items():
        vc = field.mul(v, c)
        if vc != field.zero:
            out[e] = vc
    return out


# ---------------------------------------------------------------------------
# module kernel

class _MGen:
    """Monic module basis vector with a known leading term."""

    __slots__ = ("comp", "lm", "mask", "tail", "twist", "idx")

    def __init__(self, comp, lm, mask, tail, twist, idx):
        self.comp = comp
        self.lm = lm
        self.mask = mask
        self.tail = tail      # tuple of ((comp, exps), coeff), lead excluded
        self.twist = twist
        self.idx = idx


def _mreduce(element, buckets, mkey, field, *, full, track):
    """Divide a module element (dict (comp, exps) -> coeff) by monic vectors.

    ``buckets`` maps a component to its basis vectors in fixed order.
    Returns (remainder, quotients); quotients maps basis index -> term dict.
    """
    work = dict(element)
    heap = [mkey(c, e) + ((c, e),) for (c, e) in work]
    heapq.heapify(heap)
    remainder = {}
    quotients = {} if track else None
    prime = field.p if isinstance(field, PrimeField) else None
    while heap:
        term = heapq.heappop(heap)[-1]
        c = work.get(term)
        if not c:
            continue
        comp, m = term
        mm = _mask(m)
        red = None
        for g in buckets.get(comp, ()):
            if g.mask & mm == g.mask and _divides(g.lm, m):
                red = g
                break
        if red is None:
            del work[term]
            remainder[term] = c
            if full:
                continue
            break
        del work[term]
        shift = tuple(a - b for a, b in zip(m, red.lm))
        if track:
            q = quotients.setdefault(red.idx, {})
            if prime is not None:
                q[shift] = (q.get(shift, 0) + c) % prime
            else:
                q[shift] = field.add(q.get(shift, field.zero), c)
        if prime is not None:
            for (c2, e2), cc in red.tail:
                key = (c2, tuple(a + b for a, b in zip(e2, shift)))
                prev = work.get(key)
                if prev is None:
                    v = -c * cc % prime
                    if v:
                        work[key] = v
                        heapq.heappush(heap, mkey(*key) + (key,))
                else:
                    v = (prev - c * cc) % prime
                    if v:
                        work[key] = v
                    else:
                        del work[key]
        else:
            for (c2, e2), cc in red.tail:
                key = (c2, tuple(a + b for a, b in zip(e2, shift)))
                prev = work.get(key)
                if prev is None:
                    v = field.neg(field.mul(c, cc))
                    if v != field.zero:
                        work[key] = v
                        heapq.heappush(heap, mkey(*key) + (key,))
                else:
                    v = field.sub(prev, field.mul(c, cc))
                    if v == field.zero:
                        del work[key]
                    else:
                        work[key] = v
    remainder.update(work)
    return remainder, quotients


def _spoly_from(bi, bj, mij, mji, field):
    """S-vector of two monic module vectors; the lead terms cancel."""
    acc = {}
    zero = field.zero
    for (cmp_, e), c in bi.tail:
        acc[(cmp_, tuple(a + b for a, b in zip(e, mij)))] = c
    for (cmp_, e), c in bj.tail:
        key = (cmp_, tuple(a + b for a, b in zip(e, mji)))
        v = field.sub(acc.get(key, zero), c)
        if v == zero:
            acc.pop(key, None)
        else:
            acc[key] = v
    return acc


def _retained_pairs(basis, heapkey):
    """Pairs whose syzygy leading terms minimally generate the lead module.

    For each vector i the monomials lcm(lm_i, lm_j)/lm_i over the later
    same-component vectors j are filtered down to a divisibility-minimal
    set (ties keep the smallest j).  The surviving syzygies still generate
    the full syzygy module and remain a Groebner basis for the induced
    order, because their leading terms span the same monomial module.
    """
    by_comp = {}
    for b in basis:
        by_comp.setdefault(b.comp, []).append(b)
    pairs = []
    for comp in sorted(by_comp):
        bucket = by_comp[comp]
        for a in range(len(bucket)):
            bi = bucket[a]
            cands = []
            for bb in range(a + 1, len(bucket)):
                bj = bucket[bb]
                lcm = tuple(x if x >= y else y for x, y in zip(bi.lm, bj.lm))
                mij = tuple(l - x for l, x in zip(lcm, bi.lm))
                cands.append((sum(mij), heapkey(mij), mij, bj.idx, lcm))
            cands.sort(key=lambda t: (t[0], t[1], t[3]))
            kept = []
            for _, _, mij, jidx, lcm in cands:
                if any(_divides(k, mij) for k, _, _ in kept):
                    continue
                kept.append((mij, jidx, lcm))
            for mij, jidx, lcm in kept:
                pairs.append((bi.idx, jidx, mij, lcm))
    return pairs


def _schreyer_tower(gb_gens, nvars, heapkey, field, *, degree_limit=None, level_cap=None):
    """Iterated syzygy bases starting from a reduced Groebner basis.

    Every level, the first included, is reduced with the module kernel:
    the ideal's basis is the single-component case.  Returns ``(twists,
    cols, truncated)`` in :class:`FreeResolution`'s layout: ``twists[i]``
    maps each level-i generator id to its twist, and ``cols[i]`` (i >= 1)
    maps each level-i id to its differential column, a dict from level
    i-1 id to term dict.  Ids are positions within their level.
    """
    if level_cap is None:
        level_cap = nvars + DEFAULT_LEVEL_MARGIN
    one = field.one
    neg_one = field.neg(one)

    basis = [
        _MGen(0, g.lm, g.mask, tuple(((0, e), c) for e, c in g.tail), sum(g.lm), i)
        for i, g in enumerate(gb_gens)
    ]
    twists = [{0: 0}, {b.idx: b.twist for b in basis}]
    cols = [None, {i: {0: {g.lm: one, **dict(g.tail)}} for i, g in enumerate(gb_gens)}]

    # Schreyer data for the component space of `basis` (one level below).
    comp_mu = [(0,) * nvars]
    comp_chain = [()]
    truncated = False

    while True:
        pairs = _retained_pairs(basis, heapkey)
        if degree_limit is not None:
            kept = []
            for (i, j, mij, lcm) in pairs:
                if sum(mij) + basis[i].twist > degree_limit:
                    truncated = True
                else:
                    kept.append((i, j, mij, lcm))
            pairs = kept
        if not pairs:
            break
        if len(twists) > level_cap:
            raise ResourceLimitError(
                f"resolution exceeded {level_cap} levels", partial=(twists, cols)
            )
        pairs.sort(key=lambda t: (t[0], heapkey(t[2]), t[1]))

        def mkey(comp, exps, _mu=comp_mu, _chain=comp_chain, _hk=heapkey):
            prod = tuple(a + b for a, b in zip(exps, _mu[comp]))
            return _hk(prod) + (_chain[comp],)

        buckets = {}
        for b in basis:
            buckets.setdefault(b.comp, []).append(b)

        new_basis = []
        new_cols = {}
        for (i, j, mij, lcm) in pairs:
            mji = tuple(l - x for l, x in zip(lcm, basis[j].lm))
            svec = _spoly_from(basis[i], basis[j], mij, mji, field)
            rem, quot = _mreduce(svec, buckets, mkey, field, full=False, track=True)
            if rem:
                raise InternalError("an S-vector failed to reduce to zero")
            syz = {(i, mij): one, (j, mji): neg_one}
            for k, q in quot.items():
                for e, c in q.items():
                    key = (k, e)
                    prev = syz.get(key)
                    nc = field.sub(prev, c) if prev is not None else field.neg(c)
                    if nc == field.zero:
                        syz.pop(key, None)
                    else:
                        syz[key] = nc
            idx = len(new_basis)
            twist = sum(mij) + basis[i].twist
            tail = tuple((term, c) for term, c in syz.items() if term != (i, mij))
            new_basis.append(_MGen(i, mij, _mask(mij), tail, twist, idx))
            grouped = {}
            for (cmp_, e), c in syz.items():
                grouped.setdefault(cmp_, {})[e] = c
            new_cols[idx] = grouped

        twists.append({b.idx: b.twist for b in new_basis})
        cols.append(new_cols)
        # The next component space is the current basis.
        comp_mu, comp_chain = (
            [tuple(a + b for a, b in zip(b.lm, comp_mu[b.comp])) for b in basis],
            [comp_chain[b.comp] + (b.idx,) for b in basis],
        )
        basis = new_basis

    return twists, cols, truncated


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
                factor = _pscale(col2[rid], uinv, field)
                tc2 = twist_src[c2]
                for r2, p0 in col.items():
                    newp = _psub(col2.get(r2), _pmul(factor, p0, field), field)
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
    maps level i into level i-1.  The chain is stored in the layout the
    Schreyer tower emits and minimalization keeps: ``_twists[i]`` maps
    each level-i generator id to its twist, ``_cols[i]`` maps each level-i
    id to its column, a dict from level i-1 id to term dict.  Ids are
    stable, so a minimalized chain keeps the surviving ids;
    ``matrices`` materializes public objects on demand.
    """

    __slots__ = ("ring", "minimal", "truncated_at", "_twists", "_cols", "_matrices")

    def __init__(self, ring, twists, cols, *, minimal, truncated_at=None):
        self.ring = ring
        self._twists = twists    # list of dict id -> twist
        self._cols = cols        # [None] + list of dict cid -> dict rid -> termdict
        self.minimal = minimal
        self.truncated_at = truncated_at
        self._matrices = None

    @property
    def length(self) -> int:
        return len(self._twists) - 1

    @property
    def modules(self):
        out = []
        for tw in self._twists:
            out.append(GradedFreeModule(tuple(tw[i] for i in sorted(tw))))
        return tuple(out)

    @property
    def matrices(self):
        if self._matrices is None:
            mats = []
            modules = self.modules
            for i in range(1, self.length + 1):
                src_ids = sorted(self._twists[i])
                tgt_ids = sorted(self._twists[i - 1])
                tgt_pos = {rid: k for k, rid in enumerate(tgt_ids)}
                columns = []
                for cid in src_ids:
                    col = self._cols[i].get(cid, {})
                    columns.append(
                        {tgt_pos[rid]: self.ring.poly(p) for rid, p in col.items()}
                    )
                mats.append(
                    PresentationMatrix(self.ring, modules[i], modules[i - 1], columns)
                )
            self._matrices = tuple(mats)
        return self._matrices

    def betti(self) -> BettiTable:
        if not self.minimal:
            raise ValidationError("Betti numbers require a minimalized resolution")
        entries = {}
        for i, tw in enumerate(self._twists):
            for j in tw.values():
                entries[(i, j)] = entries.get((i, j), 0) + 1
        return BettiTable(entries, truncated_at=self.truncated_at)

    def check_complex(self) -> bool:
        """True when consecutive differentials compose to zero."""
        field = self.ring.field
        for i in range(2, self.length + 1):
            prev = self._cols[i - 1]
            for col in self._cols[i].values():
                acc = {}
                for rid, p in col.items():
                    for r2, q in prev.get(rid, {}).items():
                        acc[r2] = _padd(acc.get(r2), _pmul(p, q, field), field)
                if any(acc.values()):
                    return False
        return True

    def is_minimal_complex(self) -> bool:
        """True when no differential entry has a degree-zero term."""
        zero_exps = (0,) * self.ring.nvars
        for i in range(1, self.length + 1):
            for col in self._cols[i].values():
                for p in col.values():
                    if zero_exps in p:
                        return False
        return True

    def minimalize(self) -> "FreeResolution":
        twists, cols = _minimalize_raw(
            self._twists, self._cols, self.ring.field, self.ring.nvars
        )
        return FreeResolution(
            self.ring, twists, cols, minimal=True, truncated_at=self.truncated_at
        )

    def __repr__(self):
        ranks = ", ".join(str(len(t)) for t in self._twists)
        kind = "minimal" if self.minimal else "non-minimal"
        return f"FreeResolution({kind}; ranks {ranks})"


def schreyer_resolution(source, *, degree_limit=None, level_cap=None) -> FreeResolution:
    """Non-minimal free resolution built from iterated syzygy bases."""
    if isinstance(source, GroebnerBasis):
        gb = source
    elif isinstance(source, IdealPresentation):
        gb = buchberger(source, degree_limit=degree_limit)
    else:
        raise ValidationError("expected an IdealPresentation or GroebnerBasis")
    ring = gb.ring
    twists, cols, truncated = _schreyer_tower(
        gb._gens,
        ring.nvars,
        ring.order.heapkey_fn(),
        ring.field,
        degree_limit=degree_limit,
        level_cap=level_cap,
    )
    truncated_at = (
        degree_limit if (truncated or gb.truncated_at is not None) else None
    )
    return FreeResolution(ring, twists, cols, minimal=False, truncated_at=truncated_at)


def minimal_free_resolution(ideal, *, degree_limit=None, level_cap=None) -> FreeResolution:
    """Minimal graded free resolution of R/I for a homogeneous ideal."""
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

    Buchberger completion runs on the columns augmented with unit tags,
    under an order that makes every untagged term dominate every tagged
    one; basis vectors supported entirely on the tags are the syzygies.
    """
    ring = M.ring
    field = ring.field
    base = ring.order.heapkey_fn()
    t = M.target.rank
    nvars = ring.nvars
    zero_exps = (0,) * nvars

    def akey(comp, exps):
        if comp < t:
            return (0, base(exps), (comp,))
        return (1, (comp,), base(exps))

    elements = []
    for c, col in enumerate(M.columns):
        el = {}
        for r, p in col.items():
            for e, cf in p.terms:
                el[(r, e)] = cf
        el[(t + c, zero_exps)] = field.one
        elements.append(el)

    basis = _module_buchberger(elements, akey, field)

    syz_cols = []
    for b in basis:
        flat = {(b.comp, b.lm): field.one}
        flat.update(dict(b.tail))
        if all(comp >= t for (comp, _) in flat):
            syz_cols.append({(comp - t, e): c for (comp, e), c in flat.items()})
    syz_cols.sort(
        key=lambda el: min(akey(c + t, e) for (c, e) in el)
    )

    twists = []
    columns = []
    for el in syz_cols:
        degset = {M.source.twists[comp] + sum(e) for (comp, e) in el}
        if len(degset) != 1:
            raise ValidationError("syzygy column is not homogeneous")
        twists.append(degset.pop())
        grouped = {}
        for (comp, e), cf in el.items():
            grouped.setdefault(comp, {})[e] = cf
        columns.append({comp: ring.poly(p) for comp, p in grouped.items()})
    return PresentationMatrix(
        ring, GradedFreeModule(tuple(twists)), M.source, columns
    )


def _module_buchberger(elements, mkey, field, pair_limit=200_000):
    """Groebner basis of a submodule of a free module, plain Buchberger.

    Every pair with a shared leading component is reduced; coprime-lead
    skipping is not sound for modules, so no product criterion is used.
    """
    basis = []
    buckets = {}

    def add(el):
        ordered = sorted(el, key=lambda term: mkey(*term))
        comp, lm = ordered[0]
        lc = el[ordered[0]]
        if lc != field.one:
            inv = field.inv(lc)
            el = {k: field.mul(v, inv) for k, v in el.items()}
        tail = tuple((k, el[k]) for k in ordered[1:])
        g = _MGen(comp, lm, _mask(lm), tail, 0, len(basis))
        basis.append(g)
        buckets.setdefault(comp, []).append(g)
        return g

    heap = []

    def push_pairs(g):
        for h in buckets[g.comp]:
            if h.idx == g.idx:
                continue
            i, j = (h.idx, g.idx) if h.idx < g.idx else (g.idx, h.idx)
            lcm = tuple(
                x if x >= y else y for x, y in zip(basis[i].lm, basis[j].lm)
            )
            heapq.heappush(heap, ((sum(lcm), mkey(g.comp, lcm), (i, j)), (i, j)))

    for el in elements:
        if el:
            g = add(el)
            push_pairs(g)

    seen = set()
    count = 0
    while heap:
        count += 1
        if count > pair_limit:
            raise ResourceLimitError("module pair queue exceeded its bound")
        _, pr = heapq.heappop(heap)
        if pr in seen:
            continue
        seen.add(pr)
        i, j = pr
        bi, bj = basis[i], basis[j]
        lcm = tuple(x if x >= y else y for x, y in zip(bi.lm, bj.lm))
        mij = tuple(l - x for l, x in zip(lcm, bi.lm))
        mji = tuple(l - x for l, x in zip(lcm, bj.lm))
        svec = _spoly_from(bi, bj, mij, mji, field)
        rem, _ = _mreduce(svec, buckets, mkey, field, full=False, track=False)
        if rem:
            g = add(rem)
            push_pairs(g)
    return basis
