"""Minimal free resolutions, graded Betti tables, and Koszul homology.

A free resolution is built as a chain of Schreyer frames, each step's
syzygies read off the S-pair reductions of the step before as a Gröbner
basis for the induced order, with no Buchberger run after the relations.  It
is never minimalized: the minimal Betti numbers are the homology of its
constant parts, one small rank per (step, degree) block.  `koszul_tor`, the
Tor oracle of the acceptance suite, shares the relation basis with it (the
monomial basis of each M_d and its multiplication, by normal forms) and
nothing else: the Schreyer frames and their constant-part ranks are not used.

Every graded rank system outside `koszul_tor` (the low Betti numbers, the
Koszul homology of a sequence, the syzygetic defect) is the degree-j piece of
a map between graded free modules, eliminated by one routine, `_slice_ranks`,
from the map's columns, degree by degree, ascending; each Koszul differential
is built once, as columns, by `_koszul_step_columns`.  The columns of a slice
are its packed target terms, which ascend as descending grevlex in each
block, so elimination pivots on grevlex leading terms, which fill in far less
than lex ones (the column order of Faugère's F4 matrices); a degree's target
dimension is counted, not enumerated.

Rows run over the source generators in order, each times its monomials in
ascending tuple order.  A row m*c that reduced to zero is recorded, and no
row u*m*c of a higher degree is built or eliminated: it is counted in the
source dimension only.  The skip is exact (Faugère's F5 criterion on
Macaulay matrices): m*c is a combination of earlier rows, so u*m*c is the
same combination of their u-multiples, and these are earlier rows too,
because the generator order is fixed and tuple (lex) order is
multiplicative.  Once a degree's rank reaches the target dimension, its
remaining rows are counted without elimination.

A row m*c is x_v times the reduced row of (m/x_v)*c when that row is kept
from degree j - 1 (F4's Simplify, Faugère, JPAA 139, 1999), x_v the last
variable dividing m whose predecessor row is kept, and m times the image
otherwise (the first degree of the range, a row past a full-rank stop).  The
reuse is exact by the argument of the skip: red((m/x_v)*c) is a nonzero
multiple of (m/x_v)*c plus earlier rows of degree j - 1, and x_v times an
earlier row is an earlier row of degree j.  So every prefix of the rows spans
what it spans without the reuse, and each zero record, pivot count and
full-rank stop is the same.

A row is a pair (base, shift), the vector {t + shift: v}: base is a
primitive packed-term dict with a positive lead (the stripped image, or a
row the kernel reduced), and x_v times the row raises its shift.  Its lead
is min(base) + shift, as a shift keeps the order of packed terms.  A row
whose lead is no pivot becomes one as it is, and a row is written out only
when a pivot subtraction touches it, as the row `linalg._reduce_row`
reduces or as a pivot it reads (`_Pivots`).  Stripping the image scales a
row by a positive factor, which the kernel's final strip removes, so every
pivot is the vector it would be with every row written out.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .groebner import (
    GroebnerBasis,
    HilbertSeries,
    StepBudgetExceeded,
    buchberger,
    krull_dim,
    module_hilbert_numerator,
    schreyer_syzygies,
    standard_monomials,
    syzygy_module,
)
from .linalg import _int_rows, _reduce_row, _strip, sparse_rank
from .rings import FreeModule, GradedRing, ModuleElement


class VerificationFailed(Exception):
    """Raised when two independent paths to one quantity disagree."""


@dataclass
class PresentedModule:
    """Finitely presented graded module: generator degrees plus relations."""

    ring: GradedRing
    gen_degrees: list[int]
    relations: list[ModuleElement] = field(default_factory=list)

    def __post_init__(self):
        self.free = FreeModule(self.ring, self.gen_degrees)
        for rel in self.relations:
            if rel.module != self.free:
                raise ValueError("relation lives in another module than the generators'")
            rel.degree()  # a ValueError unless homogeneous
        self._gb: GroebnerBasis | None = None

    def relation_gb(self) -> GroebnerBasis:
        if self._gb is None:
            gens = [r for r in self.relations if not r.is_zero()]
            if not gens:
                gens = [self.free.zero()]
            self._gb = buchberger(gens)
        return self._gb

    def graded_dim(self, degree: int) -> int:
        """Dimension in one internal degree, read off the Hilbert numerator of
        the relation basis; the series is shifted to start at the lowest
        generator degree, below which the module is zero."""
        lo = min(self.gen_degrees, default=0)
        if degree < lo:
            return 0
        num = module_hilbert_numerator(self.relation_gb())
        return HilbertSeries({d - lo: c for d, c in num.items()},
                             self.ring.nvars).coefficients(degree - lo)[-1]


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
# Minimal Betti numbers from the constant parts of a syzygy chain
# ---------------------------------------------------------------------------


def _constant_ranks(module: FreeModule, columns: Iterable) -> dict[int, int]:
    """Degree -> rank over Q of the map into `module` with these columns,
    each a list of (packed term, coefficient) pairs.

    Tensored with Q, the map keeps only its constant entries: the packed terms
    whose degree and exponent fields are all zero.  Such an entry joins a
    column to a generator of the column's own degree, so each degree is one
    block, eliminated by one `sparse_rank` call (rank is transpose-invariant,
    so columns enter as rows).
    """
    shift = module.ring.comp_shift
    mask = (1 << shift) - 1
    degrees = module.gen_degrees
    blocks: dict[int, list[dict[int, int]]] = {}
    for packed in columns:
        col = {t >> shift: c for t, c in packed if not t & mask}
        if col:
            blocks.setdefault(degrees[next(iter(col))], []).append(col)
    return {j: sparse_rank(cols) for j, cols in blocks.items()}


def minimal_free_resolution(m: PresentedModule) -> tuple[list[GroebnerBasis], BettiTable]:
    """Graded Betti table of the minimal free resolution over the polynomial ring.

    A free resolution F is built as an iterated-syzygy chain: one Gröbner run
    on the relations, then each step is the Schreyer frame of the one before
    (`schreyer_syzygies`), whose syzygies are already a Gröbner basis for the
    induced order, so no step runs Buchberger.  A frame's tails are not
    reduced, which the count below does not need.  Element c of chain[i] is
    column c of the differential d_{i+1}: F_{i+1} -> F_i; F_0 has the
    presentation's generators.  The chain is generally not a minimal
    resolution, and it is never minimalized: Tor_i(M, Q)_j is
    the degree-j homology of F (x) Q, whose differentials are the constant
    parts of the d_i, so beta_{i,j} = #gens(F_i)_j - rank(d_i (x) Q)_j -
    rank(d_{i+1} (x) Q)_j (La Scala and Stillman, JSC 26, 1998).

    Returns (chain, Betti table).  The chain is the unpruned resolution as
    computed, a list of Gröbner bases, empty when there are no relations.  A
    chain that does not end within nvars + 4 steps raises StepBudgetExceeded.
    """
    max_steps = m.ring.nvars + 4
    chain: list[GroebnerBasis] = []
    gens = [Counter(m.gen_degrees)]  # the generator degrees of F_0, F_1, ...
    if any(not r.is_zero() for r in m.relations):
        current = m.relation_gb()
        chain.append(current)
        while True:
            if len(chain) >= max_steps:
                raise StepBudgetExceeded(
                    f"resolution did not terminate within {max_steps} steps"
                )
            current, _ = schreyer_syzygies(current)
            gens.append(Counter(current.module.gen_degrees))
            if not len(current):
                break
            chain.append(current)
    ranks = [{}] + [
        _constant_ranks(gb.module, (g.packed() for g in gb._internal)) for gb in chain
    ] + [{}]
    entries = {
        (i, j): n - ranks[i].get(j, 0) - ranks[i + 1].get(j, 0)
        for i, count in enumerate(gens)
        for j, n in count.items()
    }
    return chain, BettiTable(entries)


# ---------------------------------------------------------------------------
# Degree slices: the degree-j piece of a map of graded free modules
# ---------------------------------------------------------------------------


def _packed_image(image: ModuleElement) -> dict[int, int]:
    """The image as {packed term: integer}, its denominators cleared."""
    return next(_int_rows([image.terms]))


def _monomial_count(nvars: int, d: int) -> int:
    """The number of monomials of degree d in `nvars` variables."""
    return comb(d + nvars - 1, d) if d >= 0 and nvars else int(d == 0)


class _Pivots(dict):
    """Lead -> pivot row, a dict or a lazy (base, lo, shift) that `get` writes out."""

    def get(self, lead):
        piv = dict.get(self, lead)
        if type(piv) is tuple:  # written out once, in place; base is never mutated
            base, _, shift = piv
            piv = self[lead] = {t + shift: v for t, v in base.items()} if shift else base
        return piv


def _slice_ranks(
    columns: Sequence[tuple[ModuleElement, int]], target: FreeModule, degrees: range
) -> dict[int, tuple[list[int], int]]:
    """Eliminate the degree slices of a map into `target`, ascending in degree.

    `columns` lists each source generator as (its image, its degree); a zero
    image gives zero rows, which still count toward the source dimension.
    The rows of degree j run over the generators in order, each times
    `monomials_of_degree(j - deg)`, skipped, reused and lazy as the module
    docstring says: a row is (base, lo, shift) with lo = min(base).  Returns,
    for each j in `degrees`, the number of pivots each generator's rows give
    (their sum is the rank) and the source dimension.
    """
    ring = target.ring
    guard = ring.guard
    steps = ring.var_terms[::-1]  # packed x_v, the last variable first
    images = [(_strip(_packed_image(im)) if im.terms else None, deg) for im, deg in columns]
    zeros: list[list[int]] = [[] for _ in images]  # packed m with m*c reducing to zero
    kept: list[dict[int, tuple]] = [{} for _ in images]  # m -> the row of m*c, degree j - 1
    degs = {j - deg for j in degrees for _, deg in images}
    mons_of = {d: ring.monomials_of_degree(d) for d in degs}  # packed, in row order
    out = {}
    for j in degrees:
        full = sum(_monomial_count(ring.nvars, j - g) for g in target.gen_degrees)
        pivots = _Pivots()
        counts, src = [], 0
        for n, (image, deg) in enumerate(images):
            zero, stored = zeros[n], kept[n]
            mons = mons_of[j - deg]
            src += len(mons)
            before = len(pivots)
            new: dict[int, tuple] = {}
            if image and before < full:
                for mon in mons:
                    for z in zero:
                        q = mon - z
                        if q >= 0 and not q & guard:
                            break
                    else:
                        # a non-divisor x_v leaves a guard bit in mon - x_v, which no key has
                        for x in steps:
                            row = stored.get(mon - x)
                            if row is not None:
                                base, lo, shift = row
                                shift += x
                                break
                        else:
                            base, lo, shift = image, min(image), mon
                        if lo + shift in pivots:
                            red = _reduce_row({t + shift: v for t, v in base.items()}, pivots)
                            if not red:
                                zero.append(mon)
                                continue
                            base, lo, shift = red, min(red), 0
                        pivots[lo + shift] = new[mon] = base, lo, shift
                        if len(pivots) == full:
                            break
            kept[n] = new
            counts.append(len(pivots) - before)
        out[j] = counts, src
    return out


def low_betti(m: PresentedModule, max_degree: int) -> dict[tuple[int, int], int]:
    """Certified beta_0 and beta_1 entries up to a degree, no resolution.

    From 0 -> N -> F -> M -> 0, with N the span of the relations in the free
    module F, Tor gives beta_{0,j} = #gens_j - C_j and beta_{1,j} = P_j - C_j.
    C_j is the rank of the constant parts of the degree-j relations, the only
    part of N that survives in F (x) Q; P_j counts the minimal generators of
    N in degree j: with the relations ordered by degree, the degree-j
    relation rows that become pivots after every lower relation's multiples,
    by one sparse elimination pass.  Useful when the full resolution is out of
    budget.
    """
    rels = sorted(((r, r.degree()) for r in m.relations if not r.is_zero()), key=lambda c: c[1])
    cranks = _constant_ranks(m.free, (_packed_image(r).items() for r, _ in rels))
    entries = {(0, j): n - cranks.get(j, 0) for j, n in Counter(m.gen_degrees).items()}
    if rels:
        ranks = _slice_ranks(rels, m.free, range(rels[0][1], max_degree + 1))
        for j, (pivots, _) in ranks.items():
            new = sum(n for n, (_, deg) in zip(pivots, rels) if deg == j)
            entries[(1, j)] = new - cranks.get(j, 0)
    return {key: v for key, v in entries.items() if v}


def resolution_is_complex(chain: Sequence[GroebnerBasis]) -> bool:
    """Each syzygy basis of a chain composes to zero with the one before it
    (test helper): every element of chain[i + 1], a combination of the
    elements of chain[i], evaluates to zero."""
    for a, b in zip(chain, chain[1:]):
        if b.module.rank != len(a):
            return False
        shift = a.module.ring.comp_shift
        mask = (1 << shift) - 1
        cols = [g.packed() for g in a._internal]
        for z in b._internal:
            acc: Counter = Counter()
            for t, c in z.packed():
                for u, v in cols[t >> shift]:
                    acc[u + (t & mask)] += c * v
            if any(acc.values()):
                return False
    return True


# ---------------------------------------------------------------------------
# Koszul homology: the Tor oracle
# ---------------------------------------------------------------------------


def koszul_tor(m: PresentedModule, degree_window: tuple[int, int]) -> BettiTable:
    """Graded Betti numbers via the Koszul complex on the ring variables.

    beta_{i,j} = C(k, i) dim M_{j-i} - rank d_i - rank d_{i+1} in degree j,
    with d_i: Lambda^i (x) M_{j-i} -> Lambda^{i-1} (x) M_{j-i+1} and k the
    number of variables, each of exterior degree one (Eisenbud, GTM 229).  M_d
    is read off the relation basis that the resolution starts from: its
    standard monomials, multiplied by normal forms, one per (monomial,
    variable).  The Schreyer frames and their constant-part ranks are not
    used.  The completeness flag is False because nothing outside the window
    is examined.
    """
    ring = m.ring
    k = ring.nvars
    lo, hi = degree_window
    gb = m.relation_gb()
    shift = ring.comp_shift
    mask = (1 << shift) - 1
    bases = {d: standard_monomials(gb, d) for d in range(lo - k, hi + 1)}
    index = {d: {t: n for n, t in enumerate(b)} for d, b in bases.items()}
    variables = [ring.variable(a) for a in range(k)]
    times: dict[tuple[int, int], dict[int, Fraction]] = {}  # (t, x_a) -> nf(x_a t) by position
    ranks: Counter = Counter()  # (i, j) -> rank of d_i in degree j
    for i in range(1, k + 1):
        cols, _, _ = _koszul_step_columns(ring, variables, i, [1] * k)
        for j in range(lo, hi + 1):
            src, tgt = bases[j - i], index[j - i + 1]
            if not (src and tgt):
                continue
            rows = []
            for col in cols:  # a term sign * x_a of a column sits in one target block
                for t in src:
                    row: dict[int, Fraction] = {}
                    for u, sg in col.terms.items():
                        x = u & mask
                        if (t, x) not in times:
                            nf = gb.normal_form(ModuleElement(gb.module, {t + x: Fraction(1)}))
                            times[t, x] = {tgt[v]: c for v, c in nf.terms.items()}
                        block = (u >> shift) * len(tgt)
                        for pos, c in times[t, x].items():
                            row[block + pos] = sg * c
                    rows.append(row)
            ranks[i, j] = sparse_rank(rows)
    return BettiTable({
        (i, j): comb(k, i) * len(bases[j - i]) - ranks[i, j] - ranks[i + 1, j]
        for j in range(lo, hi + 1) for i in range(k + 1)
    }, complete=False)


# ---------------------------------------------------------------------------
# Koszul homology of a sequence (the superalgebra cohomology groups)
# ---------------------------------------------------------------------------


def _koszul_step_columns(
    ring: GradedRing, elements: Sequence[ModuleElement], i: int, degs: Sequence[int]
) -> tuple[list[ModuleElement], FreeModule, FreeModule]:
    """Columns of the Koszul differential K_i -> K_{i-1} as module elements,
    with the source and target free modules (one generator per subset, of the
    summed degrees `degs` of its elements)."""
    d = len(elements)
    subs = list(combinations(range(d), i))
    subs_prev = list(combinations(range(d), i - 1))
    prev_pos = {s: n for n, s in enumerate(subs_prev)}
    source = FreeModule(ring, [sum(degs[x] for x in s) for s in subs])
    target = FreeModule(ring, [sum(degs[x] for x in s) for s in subs_prev])
    shift = ring.comp_shift
    cols = []
    for s in subs:
        terms: dict = {}
        for pos, mu in enumerate(s):
            sg = Fraction(-1 if pos % 2 else 1)
            base = prev_pos[s[:pos] + s[pos + 1:]] << shift
            for t, c2 in elements[mu].terms.items():
                terms[base + t] = sg * c2
        cols.append(ModuleElement(target, terms))
    return cols, source, target


def _koszul_cycles(
    ring: GradedRing, elements: Sequence[ModuleElement], k: int, degs: Sequence[int]
) -> list[ModuleElement]:
    """Generators of ker(d_k), 1 <= k <= len(elements): the syzygies of d_k's
    columns, re-keyed into d_k's source module, so that the degrees `degs`
    hold for zero elements too."""
    cols, source, _ = _koszul_step_columns(ring, elements, k, degs)
    return [ModuleElement(source, z.terms) for z in syzygy_module(cols)]


def koszul_homology_dims(
    ring: GradedRing,
    elements: Sequence[ModuleElement],
    k: int,
    degree_window: tuple[int, int],
    element_degrees: Sequence[int],
) -> GradedDims:
    """Degreewise dimensions of H_k of the Koszul complex on `elements`.

    Zero elements are legal members of the sequence; their exterior degree
    cannot be read off, so every caller passes `element_degrees`.  Each
    differential is built once and sliced degree by degree.
    """
    d = len(elements)
    if k < 0 or k > d:
        return GradedDims({})

    def ranks(i: int):
        cols, source, target = _koszul_step_columns(ring, elements, i, element_degrees)
        return _slice_ranks(list(zip(cols, source.gen_degrees)), target, degrees)

    lo, hi = degree_window
    degrees = range(lo, hi + 1)
    down = ranks(k) if k else None
    up = ranks(k + 1) if k < d else None
    out: dict[int, int] = {}
    for j in degrees:
        if down is None:
            src, rank_d = _monomial_count(ring.nvars, j), 0
        else:
            pivots, src = down[j]
            rank_d = sum(pivots)
        rank_up = sum(up[j][0]) if up is not None else 0
        val = src - rank_d - rank_up
        if val:
            out[j] = val
    return GradedDims(out)


def koszul_homology_is_zero(
    ring: GradedRing, elements: Sequence[ModuleElement], k: int, element_degrees: Sequence[int]
) -> bool:
    """Certified vanishing of H_k, window-free.

    Generators of ker(d_k) come from the syzygy machinery; H_k vanishes iff
    each generator reduces to zero against the image of d_{k+1}, which has no
    columns when k = d.
    """
    d = len(elements)
    if k <= 0:
        return False
    if k > d:
        return True
    cycles = _koszul_cycles(ring, elements, k, element_degrees)
    if not cycles:
        return True
    next_cols, _, _ = _koszul_step_columns(ring, elements, k + 1, element_degrees)
    boundaries = [c for c in next_cols if not c.is_zero()]
    if not boundaries:
        return False
    gb = buchberger(boundaries)
    return all(gb.normal_form(z).is_zero() for z in cycles)


def ce_cohomology(alg, k: int, degree_window: tuple[int, int]) -> GradedDims:
    """Weight-graded dimensions of the k-th Koszul homology of the bracket
    quadrics; k = 0 gives the coordinate ring of the nilpotence variety."""
    quadrics = alg.quadrics()
    return koszul_homology_dims(alg.ring(), quadrics, k, degree_window, [2] * len(quadrics))


def is_gorenstein(pm: PresentedModule) -> tuple[bool, bool]:
    """(Cohen-Macaulay, Gorenstein) flags for a cyclic module R/I.

    CM iff the projective dimension equals the codimension; Gorenstein iff CM
    with final total Betti number one.
    """
    dim = krull_dim(pm.relation_gb())
    if dim == -1:
        raise ValueError("unit ideal has no Gorenstein flag")
    codim = pm.ring.nvars - dim
    _, betti = minimal_free_resolution(pm)
    pd = betti.max_index()
    cm = pd == codim
    gor = cm and betti.column_total(pd) == 1
    return cm, gor


def syzygetic_defect(
    ring: GradedRing, quadrics: Sequence[ModuleElement], degree_window: tuple[int, int]
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
    # multiplication Sym^2 (x) R -> R, one column per product q_mu q_nu
    products = [(quadrics[mu] * quadrics[nu], degs[mu] + degs[nu]) for mu, nu in pair_list]
    # each syzygy z of the generators induces z (x) e_nu in Sym^2 (x) R
    sym2 = FreeModule(ring, [degs[mu] + degs[nu] for mu, nu in pair_list])
    # moves[nu][mu] takes a term of component mu to the component of the pair {mu, nu}
    moves = [[(pair_pos[(min(mu, nu), max(mu, nu))] - mu) << ring.comp_shift for mu in range(d)]
             for nu in range(d)]
    induced = []
    for z in _koszul_cycles(ring, quadrics, 1, degs):
        zdeg = z.degree()
        for nu, move in enumerate(moves):
            terms = {t + move[t >> ring.comp_shift]: c for t, c in z.terms.items()}
            induced.append((ModuleElement(sym2, terms), zdeg + degs[nu]))
    lo, hi = degree_window
    degrees = range(lo, hi + 1)
    mult = _slice_ranks(products, FreeModule(ring, [0]), degrees)
    rels = _slice_ranks(induced, sym2, degrees)
    out: dict[int, int] = {}
    for j in degrees:
        pivots, src_dim = mult[j]
        val = src_dim - sum(pivots) - sum(rels[j][0])
        if val:
            out[j] = val
    return GradedDims(out)
