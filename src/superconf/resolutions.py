"""Minimal free resolutions, graded Betti tables, and Koszul homology.

Resolutions are built by iterated syzygy computation with unit-splitting
("pruning") after every step, so the matrices that survive have all entries
in the maximal ideal and the Betti numbers can be read off directly.  The
Koszul-complex routines are independent of the Gröbner resolution path and
serve as the Tor oracle demanded by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .groebner import (
    GroebnerBasis,
    StepBudgetExceeded,
    buchberger,
    default_module_order,
    ideal_gb,
    krull_dim,
    standard_monomials,
    syzygy_module,
)
from .linalg import sparse_rank
from .rings import FreeModule, GradedRing, ModuleElement, Polynomial


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

    def sorted_items(self) -> list[tuple[int, int, int]]:
        return [(i, j, self.entries[(i, j)]) for i, j in sorted(self.entries)]

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


class PolyMatrix:
    """Rectangular matrix of polynomials with explicit shape."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: list | None = None, ring=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            zero = ring.zero()
            rows = [[zero for _ in range(ncols)] for _ in range(nrows)]
        self.rows = rows

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def __setitem__(self, rc, val):
        r, c = rc
        self.rows[r][c] = val

    def delete_row(self, r: int):
        del self.rows[r]
        self.nrows -= 1

    def delete_col(self, c: int):
        for row in self.rows:
            del row[c]
        self.ncols -= 1


# ---------------------------------------------------------------------------
# Minimal free resolution via iterated syzygies and pruning
# ---------------------------------------------------------------------------


def _matrix_from_columns(cols: Sequence[ModuleElement], nrows: int, ring) -> PolyMatrix:
    mat = PolyMatrix(nrows, len(cols), ring=ring)
    for c, elt in enumerate(cols):
        for (r, mon), coeff in elt.terms.items():
            mat.rows[r][c] = mat.rows[r][c] + Polynomial(ring, {mon: coeff})
    return mat


def _columns_from_matrix(mat: PolyMatrix, degrees_prev: list[int], ring) -> list[ModuleElement]:
    free = FreeModule(ring, degrees_prev)
    cols = []
    for c in range(mat.ncols):
        terms = {}
        for r in range(mat.nrows):
            for mon, coeff in mat.rows[r][c].terms.items():
                terms[(r, mon)] = coeff
        cols.append(ModuleElement(free, terms))
    return cols


def _find_unit(mat: PolyMatrix) -> tuple[int, int] | None:
    for r in range(mat.nrows):
        row = mat.rows[r]
        for c in range(mat.ncols):
            p = row[c]
            if p.terms and p.is_constant():
                return (r, c)
    return None


def _prune_complex(degrees: list[list[int]], mats: list[PolyMatrix]) -> None:
    """Split off trivial two-term subcomplexes until no unit entries remain.

    degrees[i] lists the generator degrees of F_i; mats[i] is the matrix of
    F_{i+1} -> F_i (rows F_i, columns F_{i+1}).  Mutates both in place.
    """
    changed = True
    while changed:
        changed = False
        for idx in range(len(mats)):
            mat = mats[idx]
            hit = _find_unit(mat)
            if hit is None:
                continue
            r, c = hit
            inv_a = Fraction(1) / mat.rows[r][c].constant_value()
            u_row = list(mat.rows[r])
            v_col = [mat.rows[r2][c] for r2 in range(mat.nrows)]
            for c2 in range(mat.ncols):
                if c2 == c or u_row[c2].is_zero():
                    continue
                f2 = u_row[c2] * inv_a
                for r2 in range(mat.nrows):
                    mat.rows[r2][c2] = mat.rows[r2][c2] - f2 * mat.rows[r2][c]
            if idx + 1 < len(mats):
                nxt = mats[idx + 1]
                for c2 in range(mat.ncols):
                    if c2 == c or u_row[c2].is_zero():
                        continue
                    f2 = u_row[c2] * inv_a
                    for cc in range(nxt.ncols):
                        nxt.rows[c][cc] = nxt.rows[c][cc] + f2 * nxt.rows[c2][cc]
                for cc in range(nxt.ncols):
                    if not nxt.rows[c][cc].is_zero():
                        raise AssertionError("pruning: cancelled row of next matrix not zero")
                nxt.delete_row(c)
            if idx > 0:
                prv = mats[idx - 1]
                for r2 in range(mat.nrows):
                    if r2 == r or v_col[r2].is_zero():
                        continue
                    f2 = v_col[r2] * inv_a
                    for rr in range(prv.nrows):
                        prv.rows[rr][r] = prv.rows[rr][r] + f2 * prv.rows[rr][r2]
                for rr in range(prv.nrows):
                    if not prv.rows[rr][r].is_zero():
                        raise AssertionError("pruning: cancelled column of previous matrix not zero")
                prv.delete_col(r)
            mat.delete_row(r)
            mat.delete_col(c)
            del degrees[idx][r]
            del degrees[idx + 1][c]
            changed = True
    # Zero columns of the last matrix are split summands the next syzygy
    # step would cancel anyway; drop them now.
    if mats:
        last = mats[-1]
        for c in range(last.ncols - 1, -1, -1):
            if all(last.rows[r][c].is_zero() for r in range(last.nrows)):
                last.delete_col(c)
                del degrees[len(mats)][c]
    while mats and mats[-1].ncols == 0:
        mats.pop()
        degrees.pop()


def minimal_free_resolution(
    m: PresentedModule,
    max_steps: int | None = None,
    truncate_at: int | None = None,
) -> tuple[list[PolyMatrix], BettiTable]:
    """Minimal graded free resolution over the polynomial ring.

    Built as an iterated-syzygy chain: one Gröbner run on the relations, then
    each step's syzygies come from S-pair reductions alone, because the
    previous step's output is already a basis for its induced order.  The
    resulting (generally non-minimal) complex is minimalized by unit pruning.
    Returns the matrices (matrix i maps F_{i+1} to F_i) and the Betti table
    read off the surviving generator degrees.

    With `truncate_at = n` the chain stops after homological index n even if
    syzygies remain; the boundary index is dropped (pruning cannot certify
    it) and the table is flagged incomplete.
    """
    from .groebner import buchberger, schreyer_syzygies

    ring = m.ring
    if max_steps is None:
        max_steps = ring.nvars + 4
    degrees: list[list[int]] = [list(m.gen_degrees)]
    mats: list[PolyMatrix] = []
    truncated = False
    cols = [r for r in m.relations if not r.is_zero()]
    if cols:
        gb = m.relation_gb()
        elements = gb.elements
        degrees.append([e.degree() for e in elements])
        mats.append(_matrix_from_columns(elements, len(degrees[0]), ring))
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
            degrees.append([z.degree() for z in fresh])
            mats.append(_matrix_from_columns(fresh, len(degrees[-2]), ring))
            steps += 1
        _prune_complex(degrees, mats)
    entries: dict[tuple[int, int], int] = {}
    for i, degs in enumerate(degrees):
        if truncated and i == len(degrees) - 1:
            continue
        for d in degs:
            entries[(i, d)] = entries.get((i, d), 0) + 1
    return mats, BettiTable(entries, complete=not truncated)


def low_betti(m: PresentedModule, max_degree: int) -> dict[tuple[int, int], int]:
    """Certified beta_0 and beta_1 entries up to a degree, no resolution.

    Minimal generator counts come straight off the presentation (relations
    must sit in positive degrees over the generators, which holds for every
    multiplet presentation here); minimal relation counts in each degree are
    dim N_j - dim (m N)_j, both by sparse rank over spanning sets.  Useful
    when the full resolution is out of budget.
    """
    ring = m.ring
    entries: dict[tuple[int, int], int] = {}
    for g in m.gen_degrees:
        entries[(0, g)] = entries.get((0, g), 0) + 1
    rels = [r for r in m.relations if not r.is_zero()]
    if not rels:
        return entries

    def degree_rows(j: int, strict_lower: bool):
        index: dict = {}
        rows = []
        for r in rels:
            dr = r.degree()
            if dr > j or (strict_lower and dr == j):
                continue
            for mon in ring.monomials_of_degree(j - dr):
                row: dict[int, Fraction] = {}
                for (c, m2), v in r.terms.items():
                    key = (c, tuple(a + b for a, b in zip(mon, m2)))
                    if key not in index:
                        index[key] = len(index)
                    col = index[key]
                    w = row.get(col, Fraction(0)) + v
                    if w:
                        row[col] = w
                    elif col in row:
                        del row[col]
                if row:
                    rows.append(row)
        return rows

    degs = sorted({r.degree() for r in rels})
    for j in range(min(degs), max_degree + 1):
        full = sparse_rank(degree_rows(j, False))
        lower = sparse_rank(degree_rows(j, True))
        if full - lower:
            entries[(1, j)] = full - lower
    return entries


def resolution_is_complex(mats: list[PolyMatrix], ring: GradedRing) -> bool:
    """Consecutive matrices compose to zero (test helper)."""
    for a, b in zip(mats, mats[1:]):
        for r in range(a.nrows):
            for c in range(b.ncols):
                acc = ring.zero()
                for k in range(a.ncols):
                    acc = acc + a.rows[r][k] * b.rows[k][c]
                if not acc.is_zero():
                    return False
    return True


# ---------------------------------------------------------------------------
# Koszul homology: the Tor oracle
# ---------------------------------------------------------------------------


def koszul_tor(m: PresentedModule, degree_window: tuple[int, int]) -> BettiTable:
    """Graded Betti numbers via the Koszul complex on the ring variables.

    Exact linear algebra degree by degree inside the window; independent of
    the resolution path.  The completeness flag is False because nothing
    outside the window is examined.
    """
    ring = m.ring
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
        w = ring.weights[a]
        basis(j + w)
        cols = []
        for (comp, mon) in basis(j):
            newmon = tuple(e + (1 if i == a else 0) for i, e in enumerate(mon))
            nf = gb.normal_form(ModuleElement(free, {(comp, newmon): Fraction(1)}))
            tgt = index[j + w]
            cols.append({tgt[t]: c for t, c in nf.terms.items()})
        mult_cache[key] = cols
        return cols

    def differential_rows(i: int, j: int):
        """Sparse rows of M_{j-i} (x) Lambda^i -> M_{j-i+1} (x) Lambda^{i-1}.

        Valid for weight-one variables (the exterior generator for variable a
        carries its weight); rings with higher weights fall back to weight
        bookkeeping via ring.weights in `mult`.
        """
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

    entries: dict[tuple[int, int], int] = {}
    for j in range(lo, hi + 1):
        for i in range(0, k + 1):
            nb = len(basis(j - i))
            if nb == 0:
                continue
            from math import comb

            dim_c = nb * comb(k, i)
            rank_d = (
                sparse_rank(differential_rows(i, j))
                if i > 0
                else 0
            )
            rank_up = (
                sparse_rank(differential_rows(i + 1, j))
                if i + 1 <= k and len(basis(j - i - 1)) > 0
                else 0
            )
            beta = dim_c - rank_d - rank_up
            if beta:
                entries[(i, j)] = beta
    return BettiTable(entries, complete=False)


# ---------------------------------------------------------------------------
# Koszul homology of a sequence (the superalgebra cohomology groups)
# ---------------------------------------------------------------------------


def _sequence_block_index(ring, degs: list[int], subsets: list, j: int):
    """Basis offsets for Lambda^(subsets) (x) R in total degree j."""
    offsets = {}
    lookup = {}
    offset = 0
    for s in subsets:
        sdeg = sum(degs[x] for x in s)
        mons = ring.monomials_of_degree(j - sdeg)
        offsets[s] = offset
        lookup[s] = {m: n for n, m in enumerate(mons)}
        offset += len(mons)
    return offsets, lookup, offset


def _sequence_differential_rows(
    ring: GradedRing, elements: Sequence[Polynomial], i: int, j: int,
    degs: Sequence[int] | None = None,
):
    """Sparse rows of the Koszul differential K_i -> K_{i-1} in degree j."""
    d = len(elements)
    if degs is None:
        degs = [e.degree() for e in elements]
    subs = list(combinations(range(d), i))
    subs_prev = list(combinations(range(d), i - 1))
    offsets, lookup, tgt_dim = _sequence_block_index(ring, degs, subs_prev, j)
    rows = []
    src_dim = 0
    for s in subs:
        sdeg = sum(degs[x] for x in s)
        mons = ring.monomials_of_degree(j - sdeg)
        src_dim += len(mons)
        for mon in mons:
            row: dict[int, Fraction] = {}
            for pos, mu in enumerate(s):
                sg = -1 if pos % 2 else 1
                rest = tuple(x for x in s if x != mu)
                block = offsets[rest]
                look = lookup[rest]
                for m2, c2 in elements[mu].terms.items():
                    mm = tuple(a + b for a, b in zip(mon, m2))
                    col = block + look[mm]
                    v = row.get(col, Fraction(0)) + sg * c2
                    if v:
                        row[col] = v
                    elif col in row:
                        del row[col]
            rows.append(row)
    return rows, src_dim, tgt_dim


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
    `element_degrees` explicitly.
    """
    d = len(elements)
    if k < 0 or k > d:
        return GradedDims({})
    degs = list(element_degrees) if element_degrees is not None else None
    lo, hi = degree_window
    out: dict[int, int] = {}
    for j in range(lo, hi + 1):
        if k == 0:
            src = len(ring.monomials_of_degree(j))
            rank_d = 0
        else:
            rows, src, _ = _sequence_differential_rows(ring, elements, k, j, degs)
            rank_d = sparse_rank(rows)
        if k + 1 <= d:
            rows_up, _, _ = _sequence_differential_rows(ring, elements, k + 1, j, degs)
            rank_up = sparse_rank(rows_up)
        else:
            rank_up = 0
        val = src - rank_d - rank_up
        if val:
            out[j] = val
    return GradedDims(out)


def _koszul_step_columns(
    ring: GradedRing, elements: Sequence[Polynomial], i: int,
    degs: Sequence[int] | None = None,
) -> tuple[list[ModuleElement], FreeModule]:
    """Columns of the Koszul differential K_i -> K_{i-1} as module elements."""
    d = len(elements)
    if degs is None:
        degs = [e.degree() for e in elements]
    subs = list(combinations(range(d), i))
    subs_prev = {s: n for n, s in enumerate(combinations(range(d), i - 1))}
    free_prev = FreeModule(
        ring, [sum(degs[x] for x in s) for s in combinations(range(d), i - 1)]
    )
    cols = []
    for s in subs:
        terms: dict = {}
        for pos, mu in enumerate(s):
            sg = Fraction(-1 if pos % 2 else 1)
            rest = tuple(x for x in s if x != mu)
            comp = subs_prev[rest]
            for m2, c2 in elements[mu].terms.items():
                key = (comp, m2)
                v = terms.get(key, Fraction(0)) + sg * c2
                if v:
                    terms[key] = v
                elif key in terms:
                    del terms[key]
        cols.append(ModuleElement(free_prev, terms))
    return cols, free_prev


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
    cols, _ = _koszul_step_columns(ring, elements, k, element_degrees)
    kernel_gens = [z for z in syzygy_module(cols) if not z.is_zero()]
    if not kernel_gens:
        return True
    if k == d:
        return False
    next_cols, _ = _koszul_step_columns(ring, elements, k + 1, element_degrees)
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
    nonzero = [p for p in ideal_generators if not p.is_zero()]
    gb = ideal_gb(ring, nonzero)
    dim = krull_dim(gb)
    if dim == -1:
        raise ValueError("unit ideal has no Gorenstein flag")
    codim = ring.nvars - dim
    free = FreeModule(ring, [0])
    rels = [ModuleElement(free, {(0, m): c for m, c in p.terms.items()}) for p in nonzero]
    pm = PresentedModule(ring, [0], rels)
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
    lo, hi = degree_window
    pair_list = [(mu, nu) for mu in range(d) for nu in range(mu, d)]
    pair_pos = {p: n for n, p in enumerate(pair_list)}
    free = FreeModule(ring, [0])
    gens = [ModuleElement(free, {(0, m): c for m, c in q.terms.items()}) for q in quadrics]
    zgens = [z for z in syzygy_module(gens) if not z.is_zero()]
    out: dict[int, int] = {}
    for j in range(lo, hi + 1):
        pair_degs = [degs[mu] + degs[nu] for mu, nu in pair_list]
        offsets = []
        lookups = []
        offset = 0
        for pd_ in pair_degs:
            mons = ring.monomials_of_degree(j - pd_)
            offsets.append(offset)
            lookups.append({m: n for n, m in enumerate(mons)})
            offset += len(mons)
        src_dim = offset
        mono_index = {m: i for i, m in enumerate(ring.monomials_of_degree(j))}
        mult_rows = []
        for n, (mu, nu) in enumerate(pair_list):
            prod = quadrics[mu] * quadrics[nu]
            for mon in lookups[n]:
                row: dict[int, Fraction] = {}
                for m2, c2 in prod.terms.items():
                    mm = tuple(a + b for a, b in zip(mon, m2))
                    col = mono_index[mm]
                    v = row.get(col, Fraction(0)) + c2
                    if v:
                        row[col] = v
                    elif col in row:
                        del row[col]
                mult_rows.append(row)
        rank_mult = sparse_rank(mult_rows)
        ker_dim = src_dim - rank_mult
        rel_rows = []
        for z in zgens:
            zdeg = z.degree()
            for nu in range(d):
                for mon_extra in ring.monomials_of_degree(j - zdeg - degs[nu]):
                    row = {}
                    for (mu, mon), c in z.terms.items():
                        pair = (min(mu, nu), max(mu, nu))
                        n = pair_pos[pair]
                        mm = tuple(a + b for a, b in zip(mon, mon_extra))
                        col = offsets[n] + lookups[n][mm]
                        v = row.get(col, Fraction(0)) + c
                        if v:
                            row[col] = v
                        elif col in row:
                            del row[col]
                    if row:
                        rel_rows.append(row)
        rank_rel = sparse_rank(rel_rows)
        val = ker_dim - rank_rel
        if val:
            out[j] = val
    return GradedDims(out)
