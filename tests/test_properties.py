"""Structural invariants on randomized inputs.

The 25-algebra cross-oracle suite required by the acceptance criteria lives
in test_acceptance.py; here are the finer-grained properties, run through
hypothesis where generation is cheap.
"""

import hashlib
from copy import deepcopy
from fractions import Fraction
from itertools import permutations
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from superconf import algebras
from superconf.algebras import build_standard
from superconf.groebner import (
    buchberger,
    hilbert_series,
    ideal_gb,
    schreyer_syzygies,
    standard_monomials,
    syzygy_module,
)
from superconf.linalg import SpanSolver, _triangularize, rref, sparse_kernel, sparse_rank
from superconf.prolongation import tanaka_prolongation
from superconf.resolutions import (
    PresentedModule,
    _column_index,
    _koszul_step_columns,
    _packed_image,
    _slice_ranks,
    _slice_row,
    koszul_homology_dims,
    koszul_tor,
    low_betti,
    minimal_free_resolution,
    resolution_is_complex,
)
from superconf.rings import (
    FIELD_LIMIT,
    FreeModule,
    GradedRing,
    ModuleElement,
    ModuleOrder,
    MonomialOrder,
    mon_divides,
    mon_mul,
)


fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def matrices(draw, max_dim=5, entries=fractions):
    """(sparse rows, column count) of a random matrix with the given entries."""
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return [{c: x for c, x in enumerate(row) if x} for row in data], cols


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    rows, _ = m
    red = rref(rows)
    assert rref(red.values()) == red
    assert list(red) == sorted(red)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    rows, cols = m
    basis = sparse_kernel(rows, cols)
    assert sparse_rank(rows) + len(basis) == cols
    for v in basis:
        for row in rows:
            assert sum(x * v.get(c, 0) for c, x in row.items()) == 0


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_row_order_does_not_change_rank_rref_or_kernel(m, data):
    rows, cols = m
    permuted = data.draw(st.permutations(rows))
    assert sparse_rank(permuted) == sparse_rank(rows)
    assert rref(permuted) == rref(rows)
    assert sparse_kernel(permuted, cols) == sparse_kernel(rows, cols)


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_column_order_does_not_change_rank(m, data):
    rows, cols = m
    perm = data.draw(st.permutations(range(cols)))
    assert sparse_rank([{perm[c]: x for c, x in row.items()} for row in rows]) == sparse_rank(rows)


@given(st.one_of(matrices(), matrices(entries=st.integers(-4, 4))))
@settings(max_examples=60, deadline=None)
def test_elimination_leaves_its_input_rows_unchanged(m):
    """The kernel reduces its own integer copies in place, never the caller's
    rows; each row appears twice, so every second copy is reduced to zero."""
    rows, cols = m
    rows = rows + rows
    before = deepcopy(rows)
    sparse_rank(rows)
    rref(rows)
    sparse_kernel(rows, cols)
    assert rows == before
    assert [list(map(type, r.values())) for r in rows] == [
        list(map(type, r.values())) for r in before
    ]


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_pivots_are_primitive_with_positive_leads(m):
    """Forward elimination stores each pivot row at its minimal column, with
    content 1 and a positive lead; rref rows are 1 there."""
    rows, _ = m
    pivots = _triangularize(rows)
    for p, row in pivots.items():
        assert min(row) == p and row[p] > 0
        assert gcd(*row.values()) == 1
    red = rref(rows)
    assert list(red) == sorted(pivots)
    assert all(row[p] == 1 for p, row in red.items())


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_spans_the_input_rows(m):
    rows, _ = m
    red = rref(rows)
    assert len(red) == sparse_rank(rows)
    for p, row in red.items():
        assert row[p] == 1
        assert all(row.get(q, 0) == 0 for q in red if q != p)
    for row in rows:
        rest = dict(row)
        for p, prow in red.items():
            f = rest.get(p, 0)
            for c, x in prow.items():
                rest[c] = rest.get(c, 0) - f * x
        assert not any(rest.values())


def _pulled_from(rows, seen: list):
    """Yield the rows, appending each to `seen` as it is pulled."""
    for row in rows:
        seen.append(row)
        yield row


def _rref_kernel(rows: list, cols: int) -> list:
    """The kernel read off `rref` of every row: for each free column f, the
    vector that is 1 at f and minus column f of the RREF at the pivots."""
    red = rref(rows)
    basis = []
    for f in range(cols):
        if f in red:
            continue
        v = {f: Fraction(1)}
        for c, frow in red.items():
            if frow.get(f):
                v[c] = -frow[f]
        basis.append(v)
    return basis


@st.composite
def systems_with_rows_past_full_rank(draw):
    """(rows, cols) with at most 8 columns; in half the draws a triangular
    block of rank cols sits among random rows, some of them after it."""
    cols = draw(st.integers(1, 8))
    row = st.lists(fractions, min_size=cols, max_size=cols)
    data = draw(st.lists(row, max_size=10))
    if draw(st.booleans()):
        block = []
        for i in range(cols):
            entries = [Fraction(0)] * i + draw(row)[i:]
            entries[i] = entries[i] or Fraction(1)
            block.append(entries)
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + block + data[cut:]
    rows = [{c: x for c, x in enumerate(r) if x} for r in data]
    return draw(st.one_of(st.just(rows), st.permutations(rows))), cols


@given(systems_with_rows_past_full_rank())
@settings(max_examples=100, deadline=None)
def test_kernel_is_the_full_elimination_kernel(system):
    """`sparse_kernel` equals the kernel of the RREF of all rows, entries in
    the same order."""
    rows, cols = system
    basis = sparse_kernel(iter(rows), cols)
    assert [list(v.items()) for v in basis] == [list(v.items()) for v in _rref_kernel(rows, cols)]


@given(systems_with_rows_past_full_rank())
@settings(max_examples=100, deadline=None)
def test_kernel_pulls_no_row_past_full_rank(system):
    rows, cols = system
    pulled = []
    sparse_kernel(_pulled_from(rows, pulled), cols)
    full_at = next((p for p in range(len(rows) + 1) if sparse_rank(rows[:p]) == cols), None)
    assert len(pulled) == (len(rows) if full_at is None else full_at)


def _as_fractions(acts: list) -> list:
    """The actions with every value as a Fraction, so that their repr spells
    an integral value as it did when the layers stored Fractions only."""
    return [[{c: Fraction(v) for c, v in img.items()} for img in per] for per in acts]


def _layers_repr(res) -> str:
    """The layers as (degree, odd actions, even actions), split at k as they
    were stored when the digests were recorded."""
    k = res.algebra.k
    return repr([(m, _as_fractions([act[:k] for act in res.layers[m].act]),
                  _as_fractions([act[k:] for act in res.layers[m].act]))
                 for m in sorted(res.layers)])


@pytest.mark.parametrize("key, max_degree, max_rows, digest", [
    ((6, (2, 0)), 3, 7_400, "601d9e56a80323cbad21fce1e5943c8d1ba6bd608893fd2ed5f9ed62a8229e36"),
    ((10, (1, 0)), 2, 4_300, "06fca772a3bf0dd708c6d6ccec77f19d2a39aa0419ab6441c05822826e2de896"),
], ids=["6d-n20", "10d-n10"])
def test_layer_solves_keep_their_bases_and_stop_early(monkeypatch, key, max_degree, max_rows,
                                                      digest):
    """Each layer's kernel equals the one from eliminating every row of its
    system, the layer actions hash as before the solve stopped at full rank,
    and the rows pulled stay under a bound (8,546 on 10d N=(1,0) when every
    row was built and reduced)."""
    pulled = []

    def counted_kernel(rows, ncols):
        rows, seen = iter(rows), []
        basis = sparse_kernel(_pulled_from(rows, seen), ncols)
        pulled.append(len(seen))
        assert basis == _rref_kernel(seen + list(rows), ncols)
        return basis

    monkeypatch.setattr(algebras, "sparse_kernel", counted_kernel)
    res = tanaka_prolongation(build_standard(*key), max_degree)
    assert hashlib.sha256(_layers_repr(res).encode()).hexdigest() == digest
    assert len(pulled) == max_degree + 1
    assert sum(pulled) <= max_rows


@pytest.mark.parametrize("key, cap, digest", [
    ((1, (1,)), 6, "f7653a708d3fe2a84af9474341ea66f149edbeeff787fd5710f77becf51e68bb"),
    ((3, (1,)), 6, "e2be1fbbd5ade69d56d70f8a0eb91a06bccbf8061a5c267f224204fd24a9976f"),
    ((3, (2,)), 4, "d607bdc6095f4f61c6d2e8b37f5d7c7d6f58ff42c6dfa1625370f38f800a90f1"),
    ((4, (1,)), 4, "1fae9c776bc4d7a05fa94149982dce352c2a2bc688abbd214e60ac20d382756c"),
    ((4, (2,)), 3, "8dd9067d5ddb14e26a89dba0034675ba6836137c6c2e7fb018fdc25e4f67e62c"),
    ((4, (3,)), 2, "9456f89d7adca1dfb830566e015500a74db334c0ae7b0e4bfcfe79abfdb60357"),
    ((4, (4,)), 2, "6076671147ea78f27338a0f108d5b7647f654508cc4bf1ba13e9a87cbe569933"),
    ((6, (1, 0)), 3, "b01429fbca52ea61a9728413faf52664b12d815f5d1f5a37f6cae53e15fd675b"),
    ((6, (2, 0)), 3, "601d9e56a80323cbad21fce1e5943c8d1ba6bd608893fd2ed5f9ed62a8229e36"),
    ((10, (1, 0)), 2, "06fca772a3bf0dd708c6d6ccec77f19d2a39aa0419ab6441c05822826e2de896"),
    ((10, (2, 0)), 2, "db16d315f85928d0d9761370ec9d6911ba627d99109bff282a52b401ca2d28e1"),
    ((11, (1,)), 2, "97f1f0bfa3d4c13e238881af92829756398881a14eb17ddccd19976e13159125"),
], ids=["1d-n1", "3d-n1", "3d-n2", "4d-n1", "4d-n2", "4d-n3", "4d-n4", "6d-n10", "6d-n20",
        "10d-n10", "10d-n20", "11d"])
def test_layer_values_are_ints_unless_they_have_a_denominator(key, cap, digest):
    """Each stored action value is an int, or a Fraction with denominator > 1;
    as numbers and in key order the layers hash as when they stored Fractions
    only (the cap is the fixture's where one sets it)."""
    res = tanaka_prolongation(build_standard(*key), cap)
    for layer in res.layers.values():
        for img in (img for per in layer.act for img in per):
            for v in img.values():
                assert type(v) is int or (type(v) is Fraction and v.denominator > 1), v
    assert hashlib.sha256(_layers_repr(res).encode()).hexdigest() == digest


def _torus(alg) -> list[list]:
    """A basis of the bracket's diagonal torus: weights w, odd a at index a and
    even mu at k + mu, with w_a + w_b = w_mu wherever gamma_ab^mu != 0."""
    k, d = alg.k, alg.d
    rows = []
    for a in range(k):
        for b in range(a, k):
            for mu, g in enumerate(alg.gamma[a][b]):
                if g:
                    row = {k + mu: -1}
                    row[a] = row.get(a, 0) + 1
                    row[b] = row.get(b, 0) + 1
                    rows.append(row)
    return [[w.get(i, 0) for i in range(k + d)] for w in sparse_kernel(rows, k + d)]


def _layer_weights(res, w: list) -> dict:
    """The weight under w of each basis element of each layer: w(c) - w(g)
    over the nonzero act[x][g][c], asserted to be one value per element."""
    k = res.algebra.k
    weights = {-1: w[:k], -2: w[k:]}
    for m in sorted(m for m in res.layers if m >= 0):
        weights[m] = []
        for x, act in enumerate(res.layers[m].act):
            seen = {weights[m - (1 if g < k else 2)][c] - w[g]
                    for g, img in enumerate(act) for c, v in img.items() if v}
            assert len(seen) == 1, (m, x, seen)
            weights[m].append(seen.pop())
    return weights


@pytest.mark.parametrize("key, cap, rank", [
    ((1, (1,)), 6, 1), ((3, (1,)), 6, 2), ((3, (2,)), 4, 3), ((4, (1,)), 4, 4),
    ((4, (2,)), 3, 5), ((4, (3,)), 2, 6), ((4, (4,)), 2, 7), ((6, (1, 0)), 3, 5),
    ((6, (2, 0)), 3, 6), ((10, (1, 0)), 2, 6), ((10, (2, 0)), 2, 7), ((11, (1,)), 2, 6),
], ids=["1d-n1", "3d-n1", "3d-n2", "4d-n1", "4d-n2", "4d-n3", "4d-n4", "6d-n10", "6d-n20",
        "10d-n10", "10d-n20", "11d"])
def test_layer_bases_are_weight_homogeneous(key, cap, rank):
    """Every row of a layer solve is homogeneous under the diagonal torus of
    the bracket, so each basis vector of the RREF kernel is too: a wrong
    coordinate in a stored action shows up as a second weight."""
    res = tanaka_prolongation(build_standard(*key), cap)
    torus = _torus(res.algebra)
    assert len(torus) == rank
    for w in torus:
        _layer_weights(res, w)


def _combination(coeffs: dict, vecs: list) -> dict:
    out: dict = {}
    for t, c in coeffs.items():
        for col, x in vecs[t].items():
            out[col] = out.get(col, 0) + c * x
    return {col: x for col, x in out.items() if x}


@given(matrices(entries=st.integers(-3, 3)), st.data())
@settings(max_examples=60, deadline=None)
def test_span_solver_tracks_rank_and_recovers_combinations(system, data):
    """Over the kernel basis of random integer rows (cols - rank vectors) the
    solver recovers random Fraction combinations exactly, gives None off the
    span, and rejects a basis that is not in kernel echelon form."""
    rows, cols = system
    basis = sparse_kernel(rows, cols)
    assert len(basis) == cols - sparse_rank(rows)
    solver = SpanSolver(basis)
    coeffs = {t: data.draw(fractions) for t in range(len(basis))}
    target = _combination(coeffs, basis)
    assert solver.solve(target) == {t: c for t, c in coeffs.items() if c}
    assert solver.solve({}) == {}
    # +1 at a pivot column (or at a column outside the system) leaves the span
    for col in [*rref(rows), cols]:
        assert solver.solve({**target, col: target.get(col, 0) + 1}) is None
    if len(basis) > 1:
        with pytest.raises(AssertionError):
            SpanSolver([basis[0], _combination({0: 1, 1: 1}, basis), *basis[2:]])


@given(systems_with_rows_past_full_rank())
@settings(max_examples=100, deadline=None)
def test_kernel_vectors_lead_with_their_free_column(system):
    """The `sparse_kernel` contract: each vector's first key is its free
    column, the vector is 1 there, and no other vector has that key."""
    rows, cols = system
    basis = sparse_kernel(rows, cols)
    leads = [next(iter(v)) for v in basis]
    assert leads == [f for f in range(cols) if f not in rref(rows)]
    for x, (vec, lead) in enumerate(zip(basis, leads)):
        assert vec[lead] == 1
        assert all(lead not in other for y, other in enumerate(basis) if y != x)


@st.composite
def quadric_sets(draw):
    nvars = draw(st.integers(1, 3))
    ring = GradedRing([f"x{i}" for i in range(nvars)])
    npolys = draw(st.integers(1, 3))
    polys = []
    mons = ring.monomials_of_degree(2)
    for _ in range(npolys):
        terms = {}
        for mon in mons:
            c = draw(st.integers(-2, 2))
            if c and draw(st.booleans()):
                terms[(0, mon)] = Fraction(c)
        polys.append(ring.element(terms))
    return ring, polys


@given(quadric_sets())
@settings(max_examples=30, deadline=None)
def test_groebner_membership_and_syzygies(data):
    ring, polys = data
    nonzero = [p for p in polys if not p.is_zero()]
    gb = ideal_gb(ring, nonzero)
    # every generator reduces to zero
    for p in nonzero:
        assert gb.normal_form(p).is_zero()
    # normal form is a projection
    probe = ModuleElement(gb.module, {(0, ring.one_monomial()): Fraction(1)})
    nf = gb.normal_form(probe)
    assert gb.normal_form(nf) == nf
    # syzygies annihilate the generators
    if nonzero:
        for z in syzygy_module(nonzero):
            acc = ring.zero()
            for s, p in enumerate(nonzero):
                acc = acc + z.component(s) * p
            assert acc.is_zero()


@given(quadric_sets())
@settings(max_examples=20, deadline=None)
def test_buchberger_order_independent_membership(data):
    from superconf.rings import MonomialOrder

    ring, polys = data
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        return
    gb1 = ideal_gb(ring, nonzero, MonomialOrder("wgrevlex", ring.weights))
    gb2 = ideal_gb(ring, nonzero, MonomialOrder("lex"))
    # each basis reduces to zero against the other
    for src, tgt in ((gb1, gb2), (gb2, gb1)):
        for e in src.elements:
            assert tgt.normal_form(ModuleElement(tgt.module, e.terms)).is_zero()


@given(quadric_sets())
@settings(max_examples=30, deadline=None)
def test_koszul_homology_h0_and_euler_characteristic(data):
    """H_0 is R/I, and in each degree the alternating sum of the homology
    equals that of the Koszul complex itself (zero elements in degree 2)."""
    ring, polys = data
    n, top = len(polys), 8
    h = [koszul_homology_dims(ring, polys, k, (0, top), [2] * n) for k in range(n + 1)]
    nonzero = [p for p in polys if not p.is_zero()]
    assert [h[0][j] for j in range(top + 1)] == hilbert_series(
        ideal_gb(ring, nonzero)
    ).coefficients(top)
    for j in range(top + 1):
        chi = sum((-1) ** k * h[k][j] for k in range(n + 1))
        chain = sum(
            (-1) ** k * comb(n, k) * len(ring.monomials_of_degree(j - 2 * k))
            for k in range(n + 1)
        )
        assert chi == chain


@st.composite
def presented_modules(draw):
    """Random homogeneous presentations over Q[x,y,z], often non-minimal.

    Generators sit in degrees 0 and 1 and relations in degrees 1
    and 2, so with degree-1 generators constant coefficients (which the Betti
    numbers must cancel) are common.
    """
    ring = GradedRing(["x", "y", "z"])
    gen_degrees = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    free = FreeModule(ring, gen_degrees)
    relations = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 2))
        terms = {}
        for comp, g in enumerate(gen_degrees):
            for mon in ring.monomials_of_degree(degree - g):
                c = draw(st.integers(-2, 2))
                if c and draw(st.booleans()):
                    terms[(comp, mon)] = Fraction(c)
        relations.append(ModuleElement(free, terms))
    return PresentedModule(ring, gen_degrees, relations)


@given(presented_modules())
@settings(max_examples=25, deadline=None)
def test_resolution_chain_is_a_complex_and_matches_tor(pm):
    chain, betti = minimal_free_resolution(pm)
    assert resolution_is_complex(chain)
    assert all(len(gb) >= betti.column_total(i + 1) for i, gb in enumerate(chain))
    assert betti.entries == koszul_tor(pm, (0, betti.max_degree() + 1)).entries


@given(presented_modules())
@settings(max_examples=25, deadline=None)
def test_low_betti_matches_resolution(pm):
    _, betti = minimal_free_resolution(pm)
    low = {(i, j): v for (i, j), v in betti.entries.items() if i <= 1 and j <= 3}
    assert low_betti(pm, 3) == low


@given(presented_modules(), st.integers(-2, 1))
@settings(max_examples=25, deadline=None)
def test_graded_dim_counts_the_standard_monomials(pm, shift):
    """The numerator path against a count of standard monomials, with the
    generator degrees shifted, negative ones included, and every degree from
    below the lowest generator up."""
    degrees = [g + shift for g in pm.gen_degrees]
    free = FreeModule(pm.ring, degrees)
    m = PresentedModule(pm.ring, degrees, [ModuleElement(free, r.terms) for r in pm.relations])
    gb = m.relation_gb()
    for j in range(min(degrees) - 2, 7):
        assert m.graded_dim(j) == len(standard_monomials(gb, j)), f"degree {j}"


def _block_positions(ring, gen_degrees, j, order_key=None):
    """{(block, monomial): column} of a degree-j target, each block listed in
    `monomials_of_degree` order, or sorted descending by `order_key`."""
    cols, offset = {}, 0
    for c, g in enumerate(gen_degrees):
        mons = ring.monomials_of_degree(j - g)
        if order_key is not None:
            mons = sorted(mons, key=order_key, reverse=True)
        cols.update({(c, mon): offset + n for n, mon in enumerate(mons)})
        offset += len(mons)
    return cols


def _lex_reference_rows(columns, target, j):
    """Rows of the degree-j slice built by hand: tuple products, Fraction
    entries, columns numbered in `monomials_of_degree` order; one list per
    generator."""
    ring = target.ring
    lex = _block_positions(ring, target.gen_degrees, j)
    return [
        [
            {lex[(c, mon_mul(mon, m2))]: v for (c, m2), v in image.terms.items()}
            for mon in ring.monomials_of_degree(j - deg)
        ]
        for image, deg in columns
    ], len(lex)


def _builder_rows(columns, target, j):
    """Rows of the degree-j slice from the row builder, in elimination order."""
    ring = target.ring
    index = _column_index(ring, target.gen_degrees, j)
    return [
        _slice_row(index, _packed_image(image), ring.pack(0, mon))
        for image, deg in columns
        for mon in ring.monomials_of_degree(j - deg)
    ], len(index)


def _assert_slice_is_lex_reference_relabelled(columns, target, j):
    """The row builder gives the lex-numbered reference rows, each image's
    denominators cleared, with every column moved to its descending grevlex
    position."""
    ring = target.ring
    lex = _block_positions(ring, target.gen_degrees, j)
    grevlex = _block_positions(
        ring, target.gen_degrees, j, MonomialOrder("wgrevlex", ring.weights).key
    )
    relabel = {lex[bm]: grevlex[bm] for bm in lex}
    per_gen, tgt_dim = _lex_reference_rows(columns, target, j)
    expected = []
    for (image, _), rows in zip(columns, per_gen):
        den = lcm(*(v.denominator for v in image.terms.values()))
        expected += [{relabel[c]: v * den for c, v in row.items()} for row in rows]
    rows, dim = _builder_rows(columns, target, j)
    assert dim == tgt_dim == len(lex)
    assert rows == expected
    assert all(type(v) is int for row in rows for v in row.values())


@given(quadric_sets())
@settings(max_examples=30, deadline=None)
def test_koszul_slices_are_the_lex_rows_in_grevlex_columns(data):
    ring, polys = data
    degrees = [2] * len(polys)
    for i in range(1, len(polys) + 1):
        cols, source, target = _koszul_step_columns(ring, polys, i, degrees)
        for j in range(2 * i, 2 * i + 3):
            _assert_slice_is_lex_reference_relabelled(
                list(zip(cols, source.gen_degrees)), target, j
            )


@given(presented_modules())
@settings(max_examples=30, deadline=None)
def test_relation_slices_are_the_lex_rows_in_grevlex_columns(pm):
    rels = [(r, r.degree()) for r in pm.relations if not r.is_zero()]
    for j in range(1, 5):
        _assert_slice_is_lex_reference_relabelled(rels, pm.free, j)


@given(quadric_sets())
@settings(max_examples=30, deadline=None)
def test_single_column_slice_pivots_on_the_grevlex_leading_term(data):
    """Each row m*f of one polynomial's slice has its minimal column at the
    grevlex leading monomial of m*f, so elimination pivots there."""
    ring, polys = data
    order = MonomialOrder("wgrevlex", ring.weights)
    free = FreeModule(ring, [0])
    for f in polys:
        if f.is_zero():
            continue
        for j in range(2, 5):
            rows, _ = _builder_rows([(f, 2)], free, j)
            mons = sorted(ring.monomials_of_degree(j), key=order.key, reverse=True)
            for mon, row in zip(ring.monomials_of_degree(j - 2), rows):
                lead = max((mon_mul(mon, m2) for _, m2 in f.terms), key=order.key)
                assert mons[min(row)] == lead


@st.composite
def weighted_maps(draw):
    """A map of graded free modules over a ring with weights 1 and 2: random
    homogeneous images, some of them zero, for generators of random degree."""
    weights = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    ring = GradedRing([f"x{i}" for i in range(len(weights))], weights)
    target = FreeModule(ring, draw(st.lists(st.integers(0, 1), min_size=1, max_size=2)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 3))
        terms = {}
        for comp, g in enumerate(target.gen_degrees):
            for mon in ring.monomials_of_degree(degree - g):
                c = draw(st.integers(-2, 2))
                if c and draw(st.booleans()):
                    terms[(comp, mon)] = Fraction(c, draw(st.integers(1, 3)))
        columns.append((ModuleElement(target, terms), degree))
    return columns, target


def _assert_slice_ranks_match_full_elimination(columns, target, degrees):
    """Per degree and per generator, `_slice_ranks` counts the pivots that
    eliminating every reference row, none skipped, gives: generator n's count
    is the rank through its rows minus the rank before them."""
    got = _slice_ranks(columns, target, degrees)
    assert list(got) == list(degrees)
    for j in degrees:
        per_gen, _ = _lex_reference_rows(columns, target, j)
        prefix, ranks = [], [0]
        for rows in per_gen:
            prefix += rows
            ranks.append(sparse_rank(prefix))
        pivots, src = got[j]
        assert src == len(prefix)
        assert pivots == [b - a for a, b in zip(ranks, ranks[1:])]


@given(quadric_sets(), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_slice_ranks_on_koszul_steps_match_full_elimination(data, lo):
    ring, polys = data
    degrees = [2] * len(polys)
    for i in range(1, len(polys) + 1):
        cols, source, target = _koszul_step_columns(ring, polys, i, degrees)
        _assert_slice_ranks_match_full_elimination(
            list(zip(cols, source.gen_degrees)), target, range(2 * i + lo, 2 * i + lo + 5)
        )


@given(presented_modules(), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_slice_ranks_on_relations_match_full_elimination(pm, lo):
    rels = [(r, r.degree()) for r in pm.relations]  # zero relations kept
    _assert_slice_ranks_match_full_elimination(rels, pm.free, range(lo, 6))


@given(weighted_maps(), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_slice_ranks_on_weighted_maps_match_full_elimination(data, lo):
    columns, target = data
    _assert_slice_ranks_match_full_elimination(columns, target, range(lo, 7))


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_monomials_of_degree_ascend_as_tuples(weights, degree):
    """`_slice_ranks` skips rows on the strength of this order being lex,
    which is multiplicative; pin it for weighted and unweighted rings."""
    for ring in (GradedRing([f"x{i}" for i in range(len(weights))], weights),
                 GradedRing([f"x{i}" for i in range(len(weights))])):
        mons = ring.monomials_of_degree(degree)
        assert all(a < b for a, b in zip(mons, mons[1:]))
        assert all(ring.degree(m) == degree for m in mons)


# --- packed terms: int order keys and fraction-free reduction ----------------


def _tuple_ring_key(order, mon):
    """The nested-tuple monomial key the int key replaced."""
    if order.kind == "lex":
        return mon
    weights = order.weights or [1] * len(mon)
    return (sum(e * w for e, w in zip(mon, weights)), tuple(-e for e in reversed(mon)))


def _tuple_module_key(order, term):
    """The recursive nested-tuple module key the int key replaced."""
    comp, mon = term
    if order.kind == "TOP":
        return (_tuple_ring_key(order.ring_order, mon), -comp)
    lead_comp, lead_mon = order.schreyer_leads[comp]
    return (_tuple_module_key(order.parent, (lead_comp, mon_mul(mon, lead_mon))), -comp)


def _assert_same_order(terms, key, reference):
    assert sorted(terms, key=key) == sorted(terms, key=reference)


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=4).flatmap(
        lambda ws: st.tuples(
            st.just(ws),
            st.lists(
                st.tuples(*[st.integers(0, FIELD_LIMIT) for _ in ws]),
                min_size=2,
                max_size=12,
            ),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_int_monomial_keys_order_like_tuple_keys(data):
    """Lex, grevlex and weighted grevlex, with exponents up to the field limit."""
    weights, drawn = data
    # permutations keep the unweighted degree, so the exponent fields decide
    mons = sorted({p for m in drawn for p in permutations(m)})
    for order in (
        MonomialOrder("lex"),
        MonomialOrder("wgrevlex"),
        MonomialOrder("wgrevlex", weights),
    ):
        _assert_same_order(mons, order.key, lambda m: _tuple_ring_key(order, m))
        top = ModuleOrder(order, "TOP")
        terms = [(c, m) for m in mons for c in range(3)]
        _assert_same_order(terms, top.key, lambda t: _tuple_module_key(top, t))


@given(presented_modules(), st.sampled_from(["wgrevlex", "lex"]))
@settings(max_examples=25, deadline=None)
def test_int_schreyer_keys_order_like_recursive_tuple_keys(pm, kind):
    """TOP and the Schreyer orders one, two and three levels deep of a syzygy chain."""
    rels = [r for r in pm.relations if not r.is_zero()]
    if not rels:
        return
    gb = buchberger(rels, ModuleOrder(MonomialOrder(kind, pm.ring.weights), "TOP"))
    orders = [(gb.order, pm.free.rank)]
    while len(gb) and len(orders) < 4:
        rank = len(gb)
        gb, order = schreyer_syzygies(gb)
        orders.append((order, rank))
    mons = [m for d in range(4) for m in pm.ring.monomials_of_degree(d)]
    for order, rank in orders:
        terms = [(c, m) for c in range(rank) for m in mons]
        _assert_same_order(terms, order.key, lambda t: _tuple_module_key(order, t))


@given(presented_modules(), st.sampled_from(["wgrevlex", "lex"]))
@settings(max_examples=25, deadline=None)
def test_schreyer_frames_are_groebner_bases_with_exact_keys(pm, kind):
    """Along the chain of frames, Buchberger on a frame's elements finds exactly
    its lead terms, and every stored negated key is the induced order's; the
    Betti table read off the frames still equals the Koszul oracle's."""
    rels = [r for r in pm.relations if not r.is_zero()]
    if not rels:
        return
    gb = buchberger(rels, ModuleOrder(MonomialOrder(kind, pm.ring.weights), "TOP"))
    while len(gb):
        gb, order = schreyer_syzygies(gb)
        if len(gb):
            assert buchberger(gb.elements, order).lead_terms() == gb.lead_terms()
        for g in gb._internal:
            for t, nk in [(g.lt, g.nlt), *((t, k) for t, _, k in g.tail)]:
                assert nk == -order.key(pm.ring.unpack(t))
    _, betti = minimal_free_resolution(pm)
    assert betti.entries == koszul_tor(pm, (0, betti.max_degree() + 1)).entries


_SCALES = st.sampled_from([Fraction(2, 3), Fraction(-5, 2), Fraction(7), Fraction(-3, 4)])


def _fraction_normal_form(elements, key, f):
    """Full reduction with Fraction coefficients and tuple keys only."""
    work, rem = dict(f.terms), {}
    leads = [(max(e.terms, key=key), e) for e in elements]
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        hit = next(
            ((lt, e) for lt, e in leads if lt[0] == t[0] and mon_divides(lt[1], t[1])), None
        )
        if hit is None:
            rem[t] = c
            continue
        lt, e = hit
        q = tuple(a - b for a, b in zip(t[1], lt[1]))
        factor = c / e.terms[lt]
        for (comp, m), v in e.terms.items():
            s = (comp, mon_mul(m, q))
            if s != t:
                w = work.get(s, Fraction(0)) - factor * v
                if w:
                    work[s] = w
                else:
                    work.pop(s, None)
    return rem


@given(quadric_sets(), st.lists(_SCALES, min_size=3, max_size=3), st.data())
@settings(max_examples=30, deadline=None)
def test_fraction_free_reduction_against_fraction_reference(data, scales, draw):
    ring, polys = data
    gens = [p * s for p, s in zip(polys, scales) if not p.is_zero()]
    if not gens:
        return
    gb = ideal_gb(ring, gens)

    def key(t):
        return _tuple_module_key(gb.order, t)

    mons = [m for d in (2, 3) for m in ring.monomials_of_degree(d)]
    coeffs = draw.draw(
        st.lists(_SCALES | st.just(Fraction(0)), min_size=len(mons), max_size=len(mons))
    )
    f = ModuleElement(gb.module, {(0, m): c for m, c in zip(mons, coeffs)})
    nf = gb.normal_form(f)
    assert nf.terms == _fraction_normal_form(gb.elements, key, f)
    # syzygies of inputs with non-unit leads, from the tagged generators
    syz = syzygy_module(gens)
    for z in syz:
        acc = ring.zero()
        for s, g in enumerate(gens):
            acc = acc + z.component(s) * g
        assert acc.is_zero()
    # and they generate: every Koszul syzygy g_j e_i - g_i e_j reduces to zero
    if syz:
        syz_gb = buchberger(syz)
        e = syz_gb.module.gen
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                assert syz_gb.normal_form(e(i) * gens[j] - e(j) * gens[i]).is_zero()


@st.composite
def module_generator_lists(draw):
    """Generators of a submodule of a rank-2 or rank-3 free module over
    Q[x,y,z] with mixed generator degrees, in degrees 1 to 3, plus one zero
    generator and one repeated generator at drawn positions."""
    ring = GradedRing(["x", "y", "z"])
    free = FreeModule(ring, draw(st.lists(st.integers(0, 1), min_size=2, max_size=3)))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 3))
        terms = {}
        for comp, g in enumerate(free.gen_degrees):
            for mon in ring.monomials_of_degree(degree - g):
                c = draw(st.integers(-2, 2))
                if c and draw(st.booleans()):
                    terms[(comp, mon)] = Fraction(c)
        gens.append(ModuleElement(free, terms))
    gens.insert(draw(st.integers(0, len(gens))), free.zero())
    gens.insert(draw(st.integers(0, len(gens))), gens[draw(st.integers(0, len(gens) - 1))])
    return gens


def _degree_rows(elements, degree, ring):
    """The degree-j multiples m*e of homogeneous elements, as sparse rows."""
    cols: dict = {}
    rows = []
    for e in elements:
        if e.is_zero() or e.degree() > degree:
            continue
        for mon in ring.monomials_of_degree(degree - e.degree()):
            rows.append({
                cols.setdefault((c, mon_mul(m, mon)), len(cols)): v for (c, m), v in e.terms.items()
            })
    return rows


@given(module_generator_lists())
@settings(max_examples=100, deadline=None)
def test_syzygy_module_generates_the_syzygies_of_module_elements(gens):
    """Every returned syzygy annihilates the generators, and in each degree of
    a window their multiples span dim(+R(-deg g_s))_j - rank(generator map)_j
    dimensions: the kernel of the degree-j slice, counted by linear algebra."""
    free = gens[0].module
    ring = free.ring
    degrees = [0 if g.is_zero() else g.degree() for g in gens]
    syz = syzygy_module(gens)
    for z in syz:
        assert z.module.gen_degrees == degrees
        assert all(0 <= c < len(gens) for c, _ in z.terms)
        acc = free.zero()
        for s, g in enumerate(gens):
            acc = acc + g * z.component(s)
        assert acc.is_zero()
    for j in range(max(degrees) + 3):
        source = sum(len(ring.monomials_of_degree(j - d)) for d in degrees if d <= j)
        image = sparse_rank(_degree_rows(gens, j, ring))
        assert sparse_rank(_degree_rows(syz, j, ring)) == source - image, j
