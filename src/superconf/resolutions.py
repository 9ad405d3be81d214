"""Minimal free resolutions, graded Betti tables, and Koszul homology.

Resolutions are built by iterated syzygy computation with unit-splitting
("pruning") after every step, so the matrices that survive have all entries
in the maximal ideal and the Betti numbers can be read off directly.  The
Koszul-complex routines are independent of the Gröbner resolution path and
serve as the Tor oracle demanded by the acceptance suite.

Every graded rank system outside `koszul_tor` (the low Betti numbers, the
Koszul homology of a sequence, the syzygetic defect) is the degree-j piece of
a map between graded free modules, taken by one routine, `_degree_slice`,
from the map's columns; each Koszul differential is built once, as columns,
by `_koszul_step_columns`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from math import comb
from operator import add
from typing import Sequence

from .groebner import (
    GroebnerBasis,
    StepBudgetExceeded,
    buchberger,
    default_module_order,
    krull_dim,
    schreyer_syzygies,
    standard_monomials,
    syzygy_module,
)
from .linalg import sparse_rank
from .rings import FreeModule, GradedRing, ModuleElement, Polynomial, mon_mul


@dataclass
class PresentedModule:
    """Finitely presented graded module: generator degrees plus relations."""

    ring: GradedRing
    gen_degrees: list[int]
    relations: list[ModuleElement] = field(default_factory=list)

    def __post_init__(self):
        self.free = FreeModule(self.ring, self.gen_degrees)
        for rel in self.relations:
            if rel.module.rank != len(self.gen_degrees):
                raise ValueError("relation lives in a module of the wrong rank")
            if not rel.is_homogeneous():
                raise ValueError("relations must be homogeneous")
        self._gb: GroebnerBasis | None = None

    def relation_gb(self) -> GroebnerBasis:
        if self._gb is None:
            gens = [r for r in self.relations if not r.is_zero()]
            if not gens:
                gens = [self.free.zero()]
            self._gb = buchberger(gens, default_module_order(self.free))
        return self._gb

    def graded_basis(self, degree: int) -> list:
        """Standard monomial basis of the module in one internal degree."""
        return standard_monomials(self.relation_gb(), degree)

    def graded_dim(self, degree: int) -> int:
        return len(self.graded_basis(degree))


@dataclass
class BettiTable:
    """(homological index, internal degree) -> multiplicity."""

    entries: dict[tuple[int, int], int]
    complete: bool = True

    def __post_init__(self):
        self.entries = {k: v for k, v in self.entries.items() if v}

    def total(self) -> int:
        return sum(self.entries.values())

    def column_total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def max_index(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    def max_degree(self) -> int:
        return max((j for _, j in self.entries), default=0)

    def restrict(self, degree_window: tuple[int, int]) -> "BettiTable":
        lo, hi = degree_window
        return BettiTable(
            {k: v for k, v in self.entries.items() if lo <= k[1] <= hi}, self.complete
        )

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries


@dataclass
class GradedDims:
    """Internal degree -> dimension, zero entries omitted."""

    dims: dict[int, int]

    def __post_init__(self):
        self.dims = {d: v for d, v in self.dims.items() if v}

    def __getitem__(self, d: int) -> int:
        return self.dims.get(d, 0)

    def total(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return not self.dims

    def __eq__(self, other):
        return isinstance(other, GradedDims) and self.dims == other.dims


# ---------------------------------------------------------------------------
# Minimal free resolution via iterated syzygies and sparse unit pruning
# ---------------------------------------------------------------------------

# A differential is a sparse matrix {column id: {row id: entry}}; while
# pruning, an entry is a term dict monomial -> nonzero Fraction.  Generator
# ids never change, and degrees[i] maps the live ids of F_i to their degrees.


def _columns(elements: Sequence[ModuleElement]) -> dict[int, dict[int, dict]]:
    mat: dict[int, dict[int, dict]] = {}
    for c, elt in enumerate(elements):
        col: dict[int, dict] = {}
        for (r, mon), coeff in elt.terms.items():
            col.setdefault(r, {})[mon] = coeff
        mat[c] = col
    return mat


def _add_product(acc: dict, f: dict, g: dict) -> None:
    """acc += f * g on term dicts, in place."""
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(map(add, m1, m2))
            v = acc.get(m, 0) + c1 * c2
            if v:
                acc[m] = v
            else:
                del acc[m]


def _row_index(mat: dict, row_deg: dict[int, int]) -> dict[int, set[int]]:
    """Row id -> ids of the columns with a nonzero entry in that row."""
    rows: dict[int, set[int]] = {r: set() for r in row_deg}
    for c, col in mat.items():
        for r in col:
            rows[r].add(c)
    return rows


def _prune(degrees: list[dict[int, int]], mats: list[dict]) -> None:
    """Split off trivial two-term subcomplexes until no unit entries remain.

    mats[i] is the matrix of F_{i+1} -> F_i.  Entries are homogeneous of
    degree deg(column) - deg(row), so units sit exactly where the two degrees
    agree.  Eliminating a unit (r, c) of mats[i] changes mats[i] by column
    operations; in the neighbours it only cancels row c of mats[i+1] and
    column r of mats[i-1], which are checked to vanish.  So one pass left to
    right, each matrix until it has no unit left, makes the complex minimal.
    Mutates both arguments in place.
    """
    for idx, mat in enumerate(mats):
        row_deg, col_deg = degrees[idx], degrees[idx + 1]
        nxt = mats[idx + 1] if idx + 1 < len(mats) else None
        rows = _row_index(mat, row_deg)
        nxt_rows = _row_index(nxt, col_deg) if nxt is not None else None
        unit_degrees = set(row_deg.values())
        pending = [c for c in sorted(mat) if col_deg[c] in unit_degrees]
        queued = set(pending)
        while pending:
            c = heappop(pending)
            queued.discard(c)
            col, d = mat[c], col_deg[c]
            r = min((r for r in col if row_deg[r] == d), default=None)
            if r is None:
                continue
            inv_a = 1 / next(iter(col[r].values()))
            # column operations col c2 -= (u_c2 / a) col c clear row r
            factors = {}
            for c2 in rows.pop(r):
                if c2 == c:
                    continue
                tgt = mat[c2]
                f2 = factors[c2] = {m: v * inv_a for m, v in tgt.pop(r).items()}
                neg = {m: -v for m, v in f2.items()}
                for r2, e in col.items():
                    if r2 == r:
                        continue
                    acc = tgt.get(r2)
                    if acc is None:
                        acc = tgt[r2] = {}
                        rows[r2].add(c2)
                    _add_product(acc, neg, e)
                    if not acc:
                        del tgt[r2]
                        rows[r2].discard(c2)
                if col_deg[c2] == d and c2 not in queued:
                    heappush(pending, c2)
                    queued.add(c2)
            if nxt is not None:
                # the matching row operation cancels row c of the next matrix
                accs = {cc: dict(nxt[cc][c]) for cc in nxt_rows[c]}
                for c2, f2 in factors.items():
                    for cc in nxt_rows[c2]:
                        _add_product(accs.setdefault(cc, {}), f2, nxt[cc][c2])
                if any(accs.values()):
                    raise AssertionError("pruning: cancelled row of next matrix not zero")
                for cc in nxt_rows.pop(c):
                    del nxt[cc][c]
            if idx > 0:
                # the matching column operation cancels column r of the previous one
                prv = mats[idx - 1]
                acc_col = {rr: dict(e) for rr, e in prv[r].items()}
                for r2, e in col.items():
                    if r2 != r:
                        f2 = {m: v * inv_a for m, v in e.items()}
                        for rr, e2 in prv[r2].items():
                            _add_product(acc_col.setdefault(rr, {}), f2, e2)
                if any(acc_col.values()):
                    raise AssertionError("pruning: cancelled column of previous matrix not zero")
                del prv[r]
            for r2 in col:
                if r2 != r:
                    rows[r2].discard(c)
            del mat[c], row_deg[r], col_deg[c]
    # Zero columns of the last matrix are split summands the next syzygy
    # step would cancel anyway; drop them now.
    if mats:
        last = mats[-1]
        for c in [c for c, col in last.items() if not col]:
            del last[c], degrees[-1][c]
    while mats and not mats[-1]:
        mats.pop()
        degrees.pop()


def minimal_free_resolution(
    m: PresentedModule,
    max_steps: int | None = None,
    truncate_at: int | None = None,
) -> tuple[list[dict[int, dict[int, Polynomial]]], BettiTable]:
    """Minimal graded free resolution over the polynomial ring.

    Built as an iterated-syzygy chain: one Gröbner run on the relations, then
    each step's syzygies come from S-pair reductions alone, because the
    previous step's output is already a basis for its induced order.  The
    resulting (generally non-minimal) complex is minimalized by unit pruning.
    Returns the matrices (matrix i maps F_{i+1} to F_i, sparse as
    {column id: {row id: Polynomial}} over the surviving generator ids) and
    the Betti table read off the surviving generator degrees.

    With `truncate_at = n` the chain stops after homological index n even if
    syzygies remain; the boundary index is dropped (pruning cannot certify
    it) and the table is flagged incomplete.
    """
    ring = m.ring
    if max_steps is None:
        max_steps = ring.nvars + 4
    degrees: list[dict[int, int]] = [dict(enumerate(m.gen_degrees))]
    mats: list[dict] = []
    truncated = False
    cols = [r for r in m.relations if not r.is_zero()]
    if cols:
        gb = m.relation_gb()
        elements = gb.elements
        degrees.append({c: e.degree() for c, e in enumerate(elements)})
        mats.append(_columns(elements))
        current = gb
        steps = 1
        while len(current):
            if truncate_at is not None and steps >= truncate_at:
                truncated = True
                break
            if steps >= max_steps:
                raise StepBudgetExceeded(
                    f"resolution did not terminate within {max_steps} steps"
                )
            syz, syz_order = schreyer_syzygies(current)
            syz = [z for z in syz if not z.is_zero()]
            if not syz:
                break
            # The pair pruning keeps a generating set, not necessarily a
            # basis for the induced order; complete it before recursing.
            current = buchberger(syz, syz_order)
            fresh = current.elements
            degrees.append({c: z.degree() for c, z in enumerate(fresh)})
            mats.append(_columns(fresh))
            steps += 1
        _prune(degrees, mats)
    entries: dict[tuple[int, int], int] = {}
    for i, degs in enumerate(degrees):
        if truncated and i == len(degrees) - 1:
            continue
        for d in degs.values():
            entries[(i, d)] = entries.get((i, d), 0) + 1
    polys = [
        {c: {r: Polynomial(ring, e) for r, e in col.items()} for c, col in mat.items()}
        for mat in mats
    ]
    return polys, BettiTable(entries, complete=not truncated)


# ---------------------------------------------------------------------------
# Degree slices: the degree-j piece of a map of graded free modules
# ---------------------------------------------------------------------------


def _block_index(ring: GradedRing, gen_degrees: Sequence[int], j: int):
    """Column offset of each generator's block and its monomial lookup in degree j."""
    offsets, lookups = [], []
    offset = 0
    for g in gen_degrees:
        mons = ring.monomials_of_degree(j - g)
        offsets.append(offset)
        lookups.append({mon: n for n, mon in enumerate(mons)})
        offset += len(mons)
    return offsets, lookups, offset


def _degree_slice(
    columns: Sequence[tuple[ModuleElement, int]], target: FreeModule, j: int
) -> tuple[list[dict[int, Fraction]], int, int]:
    """Sparse rows of the degree-j piece of a map into `target`.

    `columns` lists each source generator as (its image, its degree).  Rows
    run over the generators in order, each times its monomials in
    `monomials_of_degree` order; a zero image gives empty rows, which still
    count toward the source dimension.  Returns (rows, source dim, target dim).
    """
    ring = target.ring
    offsets, lookups, tgt_dim = _block_index(ring, target.gen_degrees, j)
    rows = []
    for image, deg in columns:
        for mon in ring.monomials_of_degree(j - deg):
            rows.append({
                offsets[c] + lookups[c][mon_mul(mon, m2)]: v
                for (c, m2), v in image.terms.items()
            })
    return rows, len(rows), tgt_dim


def low_betti(m: PresentedModule, max_degree: int) -> dict[tuple[int, int], int]:
    """Certified beta_0 and beta_1 entries up to a degree, no resolution.

    Minimal generator counts come straight off the presentation (relations
    must sit in positive degrees over the generators, which holds for every
    multiplet presentation here); minimal relation counts in each degree are
    dim N_j - dim (m N)_j, both by sparse rank over spanning sets.  Useful
    when the full resolution is out of budget.
    """
    entries: dict[tuple[int, int], int] = {}
    for g in m.gen_degrees:
        entries[(0, g)] = entries.get((0, g), 0) + 1
    rels = [(r, r.degree()) for r in m.relations if not r.is_zero()]
    if not rels:
        return entries
    for j in range(min(dr for _, dr in rels), max_degree + 1):
        lower_rows, _, _ = _degree_slice([c for c in rels if c[1] < j], m.free, j)
        new_rows, _, _ = _degree_slice([c for c in rels if c[1] == j], m.free, j)
        lower = sparse_rank(lower_rows)
        full = sparse_rank(lower_rows + new_rows)
        if full - lower:
            entries[(1, j)] = full - lower
    return entries


def resolution_is_complex(mats: list[dict], ring: GradedRing) -> bool:
    """Consecutive sparse matrices compose to zero (test helper)."""
    for a, b in zip(mats, mats[1:]):
        for col in b.values():
            acc: dict[int, Polynomial] = {}
            for k, e in col.items():
                for r, e2 in a[k].items():
                    acc[r] = acc.get(r, ring.zero()) + e2 * e
            if any(not p.is_zero() for p in acc.values()):
                return False
    return True


# ---------------------------------------------------------------------------
# Koszul homology: the Tor oracle
# ---------------------------------------------------------------------------


def koszul_tor(m: PresentedModule, degree_window: tuple[int, int]) -> BettiTable:
    """Graded Betti numbers via the Koszul complex on the ring variables.

    Exact linear algebra degree by degree inside the window; independent of
    the resolution path.  The completeness flag is False because nothing
    outside the window is examined.  Only for rings whose variables all have
    weight one: the exterior generators here carry degree one.
    """
    ring = m.ring
    if any(w != 1 for w in ring.weights):
        raise ValueError("koszul_tor needs a ring with all variable weights 1")
    k = ring.nvars
    lo, hi = degree_window
    gb = m.relation_gb()
    free = gb.module

    bases: dict[int, list] = {}
    index: dict[int, dict] = {}

    def basis(j: int):
        if j not in bases:
            b = standard_monomials(gb, j)
            bases[j] = b
            index[j] = {t: i for i, t in enumerate(b)}
        return bases[j]

    mult_cache: dict = {}

    def mult(a: int, j: int):
        key = (a, j)
        hit = mult_cache.get(key)
        if hit is not None:
            return hit
        basis(j + 1)
        tgt = index[j + 1]
        cols = []
        for (comp, mon) in basis(j):
            newmon = tuple(e + (1 if i == a else 0) for i, e in enumerate(mon))
            nf = gb.normal_form(ModuleElement(free, {(comp, newmon): Fraction(1)}))
            cols.append({tgt[t]: c for t, c in nf.terms.items()})
        mult_cache[key] = cols
        return cols

    def differential_rows(i: int, j: int):
        """Sparse rows of M_{j-i} (x) Lambda^i -> M_{j-i+1} (x) Lambda^{i-1}."""
        subs = list(combinations(range(k), i))
        subs_prev = {s: n for n, s in enumerate(combinations(range(k), i - 1))}
        nb = len(basis(j - i))
        nb_prev = len(basis(j - i + 1))
        rows = []
        for s in subs:
            for vi in range(nb):
                row: dict[int, Fraction] = {}
                for pos, a in enumerate(s):
                    sg = -1 if pos % 2 else 1
                    rest = tuple(x for x in s if x != a)
                    block = subs_prev[rest] * nb_prev
                    for tgt, cf in mult(a, j - i)[vi].items():
                        col = block + tgt
                        v = row.get(col, Fraction(0)) + sg * cf
                        if v:
                            row[col] = v
                        elif col in row:
                            del row[col]
                rows.append(row)
        return rows

    ranks: dict[tuple[int, int], int] = {}

    def rank(i: int, j: int) -> int:
        """Rank of the differential out of homological index i in degree j."""
        if (i, j) not in ranks:
            nonzero = 0 < i <= k and basis(j - i) and basis(j - i + 1)
            ranks[(i, j)] = sparse_rank(differential_rows(i, j)) if nonzero else 0
        return ranks[(i, j)]

    entries: dict[tuple[int, int], int] = {}
    for j in range(lo, hi + 1):
        for i in range(0, k + 1):
            nb = len(basis(j - i))
            if nb == 0:
                continue
            beta = nb * comb(k, i) - rank(i, j) - rank(i + 1, j)
            if beta:
                entries[(i, j)] = beta
    return BettiTable(entries, complete=False)


# ---------------------------------------------------------------------------
# Koszul homology of a sequence (the superalgebra cohomology groups)
# ---------------------------------------------------------------------------


def _koszul_step_columns(
    ring: GradedRing, elements: Sequence[Polynomial], i: int,
    degs: Sequence[int] | None = None,
) -> tuple[list[ModuleElement], FreeModule, FreeModule]:
    """Columns of the Koszul differential K_i -> K_{i-1} as module elements,
    with the source and target free modules (one generator per subset)."""
    d = len(elements)
    if degs is None:
        degs = [e.degree() for e in elements]
    subs = list(combinations(range(d), i))
    subs_prev = list(combinations(range(d), i - 1))
    prev_pos = {s: n for n, s in enumerate(subs_prev)}
    source = FreeModule(ring, [sum(degs[x] for x in s) for s in subs])
    target = FreeModule(ring, [sum(degs[x] for x in s) for s in subs_prev])
    cols = []
    for s in subs:
        terms: dict = {}
        for pos, mu in enumerate(s):
            sg = Fraction(-1 if pos % 2 else 1)
            comp = prev_pos[s[:pos] + s[pos + 1:]]
            for m2, c2 in elements[mu].terms.items():
                terms[(comp, m2)] = sg * c2
        cols.append(ModuleElement(target, terms))
    return cols, source, target


def koszul_homology_dims(
    ring: GradedRing,
    elements: Sequence[Polynomial],
    k: int,
    degree_window: tuple[int, int],
    element_degrees: Sequence[int] | None = None,
) -> GradedDims:
    """Degreewise dimensions of H_k of the Koszul complex on `elements`.

    Zero elements are legal members of the sequence; their exterior degree
    cannot be read off, so callers with degenerate input pass
    `element_degrees` explicitly.  Each differential is built once and sliced
    degree by degree.
    """
    d = len(elements)
    if k < 0 or k > d:
        return GradedDims({})

    def step(i: int):
        cols, source, target = _koszul_step_columns(ring, elements, i, element_degrees)
        return list(zip(cols, source.gen_degrees)), target

    down = step(k) if k else None
    up = step(k + 1) if k < d else None
    lo, hi = degree_window
    out: dict[int, int] = {}
    for j in range(lo, hi + 1):
        if down is None:
            src, rank_d = len(ring.monomials_of_degree(j)), 0
        else:
            rows, src, _ = _degree_slice(*down, j)
            rank_d = sparse_rank(rows)
        rank_up = sparse_rank(_degree_slice(*up, j)[0]) if up else 0
        val = src - rank_d - rank_up
        if val:
            out[j] = val
    return GradedDims(out)


def koszul_homology_is_zero(
    ring: GradedRing, elements: Sequence[Polynomial], k: int,
    element_degrees: Sequence[int] | None = None,
) -> bool:
    """Certified vanishing of H_k, window-free.

    Generators of ker(d_k) come from the syzygy machinery; H_k vanishes iff
    each generator reduces to zero against the image of d_{k+1}.
    """
    d = len(elements)
    if k <= 0:
        return False
    if k > d:
        return True
    cols, _, _ = _koszul_step_columns(ring, elements, k, element_degrees)
    kernel_gens = [z for z in syzygy_module(cols) if not z.is_zero()]
    if not kernel_gens:
        return True
    if k == d:
        return False
    next_cols, _, _ = _koszul_step_columns(ring, elements, k + 1, element_degrees)
    free_k = kernel_gens[0].module
    image_gens = [ModuleElement(free_k, c.terms) for c in next_cols if not c.is_zero()]
    if not image_gens:
        return False
    gb = buchberger(image_gens, default_module_order(free_k))
    return all(gb.normal_form(ModuleElement(free_k, z.terms)).is_zero() for z in kernel_gens)


def ce_cohomology(alg, k: int, degree_window: tuple[int, int]) -> GradedDims:
    """Weight-graded dimensions of the k-th Koszul homology of the bracket
    quadrics; k = 0 gives the coordinate ring of the nilpotence variety."""
    quadrics = alg.quadrics()
    return koszul_homology_dims(alg.ring(), quadrics, k, degree_window, [2] * len(quadrics))


def is_gorenstein(
    ring: GradedRing, ideal_generators: Sequence[Polynomial]
) -> tuple[bool, bool]:
    """(Cohen-Macaulay, Gorenstein) flags for R/I.

    CM iff the projective dimension equals the codimension; Gorenstein iff CM
    with final total Betti number one.
    """
    free = FreeModule(ring, [0])
    rels = [
        ModuleElement(free, {(0, m): c for m, c in p.terms.items()})
        for p in ideal_generators
        if not p.is_zero()
    ]
    pm = PresentedModule(ring, [0], rels)
    dim = krull_dim(pm.relation_gb())
    if dim == -1:
        raise ValueError("unit ideal has no Gorenstein flag")
    codim = ring.nvars - dim
    _, betti = minimal_free_resolution(pm)
    pd = betti.max_index()
    cm = pd == codim
    gor = cm and betti.column_total(pd) == 1
    return cm, gor


def syzygetic_defect(
    ring: GradedRing, quadrics: Sequence[Polynomial], degree_window: tuple[int, int]
) -> GradedDims:
    """Degreewise dimensions of ker(Sym^2 I -> I^2).

    The kernel of multiplication Sym^2(generator space) (x) R -> I^2 is cut
    down by the relations induced by syzygies of the generators; what is left
    is the defect.
    """
    d = len(quadrics)
    degs = [q.degree() for q in quadrics]
    pair_list = [(mu, nu) for mu in range(d) for nu in range(mu, d)]
    pair_pos = {p: n for n, p in enumerate(pair_list)}
    free = FreeModule(ring, [0])
    gens = [ModuleElement(free, {(0, m): c for m, c in q.terms.items()}) for q in quadrics]
    # multiplication Sym^2 (x) R -> R, one column per product q_mu q_nu
    products = [(gens[mu].mul_poly(quadrics[nu]), degs[mu] + degs[nu]) for mu, nu in pair_list]
    # each syzygy z of the generators induces z (x) e_nu in Sym^2 (x) R
    sym2 = FreeModule(ring, [degs[mu] + degs[nu] for mu, nu in pair_list])
    induced = []
    for z in syzygy_module(gens):
        if z.is_zero():
            continue
        zdeg = z.degree()
        for nu in range(d):
            terms = {
                (pair_pos[(min(mu, nu), max(mu, nu))], mon): c for (mu, mon), c in z.terms.items()
            }
            induced.append((ModuleElement(sym2, terms), zdeg + degs[nu]))
    lo, hi = degree_window
    out: dict[int, int] = {}
    for j in range(lo, hi + 1):
        mult_rows, src_dim, _ = _degree_slice(products, free, j)
        ker_dim = src_dim - sparse_rank(mult_rows)
        rel_rows = [row for row in _degree_slice(induced, sym2, j)[0] if row]
        val = ker_dim - sparse_rank(rel_rows)
        if val:
            out[j] = val
    return GradedDims(out)
