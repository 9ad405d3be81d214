"""Structural invariants on randomized inputs.

The 25-algebra cross-oracle suite required by the acceptance criteria lives
in test_acceptance.py; here are the finer-grained properties, run through
hypothesis where generation is cheap.
"""

import hashlib
import random
from copy import deepcopy
from fractions import Fraction
from itertools import permutations, product
from types import SimpleNamespace
from math import comb, gcd, lcm
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from superconf import algebras
from superconf.algebras import SupertranslationAlgebra, build_standard
from superconf.groebner import (
    _gm_update,
    buchberger,
    hilbert_series,
    ideal_gb,
    module_hilbert_numerator,
    schreyer_syzygies,
    standard_monomials,
    syzygy_module,
)
from superconf.linalg import SpanSolver, _triangularize, rref, sparse_kernel, sparse_rank
from superconf.prolongation import tanaka_prolongation
from superconf.resolutions import (
    PresentedModule,
    _koszul_step_columns,
    _packed_image,
    _slice_ranks,
    koszul_homology_dims,
    koszul_tor,
    low_betti,
    minimal_free_resolution,
    resolution_is_complex,
)
from superconf.rings import (
    FIELD_BITS,
    FIELD_LIMIT,
    FreeModule,
    GradedRing,
    ModuleElement,
    ModuleOrder,
)


def mon_divides(a, b):
    """Tuple reference: monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def _tuple_monomials(ring, d):
    """Tuple reference: the exponent tuples of degree d, ascending."""
    if d < 0:
        return []
    return [m for m in product(range(d + 1), repeat=ring.nvars) if sum(m) == d]


def mon_lcm(a, b):
    """Tuple reference: the lcm of two monomials, the fieldwise max."""
    return tuple(map(max, a, b))


def mon_mul(a, b):
    """Tuple reference: the product of two monomials."""
    return tuple(map(add, a, b))


def tuple_terms(e):
    """Tuple view of an element: {(component, exponent tuple): coefficient}."""
    unpack = e.module.ring.unpack
    return {unpack(t): c for t, c in e.terms.items()}


def from_tuples(module, terms):
    """The element of `module` with terms {(component, exponent tuple): coefficient}."""
    pack = module.ring.pack
    return ModuleElement(module, {pack(c, m): v for (c, m), v in terms.items()})


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


@pytest.mark.parametrize("key, max_degree, solves, max_rows, digest", [
    ((6, (2, 0)), 3, 4, 7_400, "601d9e56a80323cbad21fce1e5943c8d1ba6bd608893fd2ed5f9ed62a8229e36"),
    ((10, (1, 0)), 2, 2, 2_800, "06fca772a3bf0dd708c6d6ccec77f19d2a39aa0419ab6441c05822826e2de896"),
], ids=["6d-n20", "10d-n10"])
def test_layer_solves_keep_their_bases_and_stop_early(monkeypatch, key, max_degree, solves,
                                                      max_rows, digest):
    """Each layer's kernel equals the one from eliminating every row of its
    system, the layer actions hash as before the solve stopped at full rank,
    and the rows pulled stay under a bound (8,546 on 10d N=(1,0) when every
    row was built and reduced, 3,976 when its zero degree 1 still had degree 2
    solved above it)."""
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
    assert len(pulled) == solves
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


def _fraction_bracket(seed: int) -> SupertranslationAlgebra:
    """A random symmetric bracket, k <= 4 and d <= 3, sparse, with at least
    one entry of denominator > 1."""
    rng = random.Random(seed)
    k, d = rng.randint(1, 4), rng.randint(1, 3)
    entries = [0] * 6 + [1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]
    gamma = [[None] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            gamma[a][b] = gamma[b][a] = [rng.choice(entries) for _ in range(d)]
    a, b = sorted(rng.sample(range(k), 2)) if k > 1 else (0, 0)
    gamma[a][b][rng.randrange(d)] = Fraction(1, 2)
    gamma[b][a] = gamma[a][b]
    return SupertranslationAlgebra(f"fraction-{seed}", k, d, gamma)


def _scattered_layer_rows(alg, layers: dict, m: int) -> tuple[list, list]:
    """(rows, offsets) of the degree-m derivation identity
    [x, [g, h]] = [[x, g], h] + eps [[x, h], g] over the generator pairs
    g <= h (g = h only for odd g), pair by pair: each term's vectors are
    scattered into one row per target coordinate, summed where they meet."""
    k, d = alg.k, alg.d
    sizes = [layers[m - 1].dim] * k + [layers[m - 2].dim] * d
    offsets = [sum(sizes[:g]) for g in range(k + d + 1)]
    degree = [1] * k + [2] * d
    rows = []
    for g in range(k + d):
        for h in range(g, k + d):
            if g == h and g >= k:
                continue
            by_c: dict = {}

            def scatter(col, vec, sign):
                for c, v in vec.items():
                    row = by_c.setdefault(c, {})
                    row[col] = row.get(col, 0) + sign * v

            if h < k:
                for mu, v in enumerate(alg.gamma[g][h]):
                    for p in range(layers[m - 2].dim if v else 0):
                        scatter(offsets[k + mu] + p, {p: v}, -1)
            for s, t, sign in ((g, h, 1), (h, g, 1 if h < k else -1)):
                for p, y in enumerate(layers[m - degree[s]].act):
                    scatter(offsets[s] + p, y[t], sign)
            rows.extend(by_c.values())
    return rows, offsets


@pytest.mark.parametrize("seed", range(12))
def test_layers_on_fraction_brackets_are_the_kernels_of_the_scattered_rows(seed):
    """On brackets with non-integral entries, each layer's basis is the RREF
    kernel of its derivation-identity rows, built here by a per-pair scatter
    that shares nothing with the engine's row builder."""
    alg = _fraction_bracket(seed)
    res = tanaka_prolongation(alg, 3)
    for m in sorted(d for d in res.layers if d >= 0):
        rows, offsets = _scattered_layer_rows(alg, res.layers, m)
        basis = [{offsets[g] + c: v for g, img in enumerate(act) for c, v in img.items()}
                 for act in res.layers[m].act]
        assert basis == _rref_kernel(rows, offsets[-1]), m


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
    mons = _tuple_monomials(ring, 2)
    for _ in range(npolys):
        terms = {}
        for mon in mons:
            c = draw(st.integers(-2, 2))
            if c and draw(st.booleans()):
                terms[(0, mon)] = Fraction(c)
        polys.append(from_tuples(FreeModule(ring, [0]), terms))
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
    probe = ring.constant(1)
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
            for mon in _tuple_monomials(ring, degree - g):
                c = draw(st.integers(-2, 2))
                if c and draw(st.booleans()):
                    terms[(comp, mon)] = Fraction(c)
        relations.append(from_tuples(free, terms))
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


def _block_positions(ring, gen_degrees, j, grevlex=False):
    """{(block, monomial): column} of a degree-j target, each block listed in
    ascending tuple order, or in descending grevlex."""
    cols, offset = {}, 0
    for c, g in enumerate(gen_degrees):
        mons = _tuple_monomials(ring, j - g)
        if grevlex:
            mons = sorted(mons, key=_tuple_ring_key, reverse=True)
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
            {lex[(c, mon_mul(mon, m2))]: v for (c, m2), v in tuple_terms(image).items()}
            for mon in _tuple_monomials(ring, j - deg)
        ]
        for image, deg in columns
    ], len(lex)


def _builder_rows(columns, target, j):
    """Rows of the degree-j slice as `_slice_ranks` forms them, in elimination
    order: m times the packed image, {m + t: v}, its columns numbered by
    sorted packed term, the order in which `_slice_ranks` picks pivots."""
    ring = target.ring
    terms = sorted((c << ring.comp_shift) + t for c, g in enumerate(target.gen_degrees)
                   for t in ring.monomials_of_degree(j - g))
    index = {t: n for n, t in enumerate(terms)}
    return [
        {index[mon + t]: v for t, v in _packed_image(image).items()}
        for image, deg in columns
        for mon in ring.monomials_of_degree(j - deg)
    ], len(index)


def _assert_slice_is_lex_reference_relabelled(columns, target, j):
    """The row builder gives the lex-numbered reference rows, each image's
    denominators cleared, with every column moved to its descending grevlex
    position."""
    ring = target.ring
    lex = _block_positions(ring, target.gen_degrees, j)
    grevlex = _block_positions(ring, target.gen_degrees, j, grevlex=True)
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
    order = ModuleOrder.top(ring, 1)
    free = FreeModule(ring, [0])
    for f in polys:
        if f.is_zero():
            continue
        for j in range(2, 5):
            rows, _ = _builder_rows([(f, 2)], free, j)
            mons = sorted(ring.monomials_of_degree(j), key=order.key, reverse=True)
            for mon, row in zip(ring.monomials_of_degree(j - 2), rows):
                lead = max((mon + t for t in f.terms), key=order.key)
                assert mons[min(row)] == lead


@st.composite
def graded_maps(draw):
    """A map of graded free modules over a ring in up to 3 variables: random
    homogeneous images, some of them zero, for generators of random degree."""
    ring = GradedRing([f"x{i}" for i in range(draw(st.integers(1, 3)))])
    target = FreeModule(ring, draw(st.lists(st.integers(0, 1), min_size=1, max_size=2)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 3))
        terms = {}
        for comp, g in enumerate(target.gen_degrees):
            for mon in _tuple_monomials(ring, degree - g):
                c = draw(st.integers(-2, 2))
                if c and draw(st.booleans()):
                    terms[(comp, mon)] = Fraction(c, draw(st.integers(1, 3)))
        columns.append((from_tuples(target, terms), degree))
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


def _example_map(nvars, target_degrees, columns):
    """(columns, target) of a map for an `example`: each column is given as
    ({(component, exponent tuple): coefficient}, degree)."""
    ring = GradedRing([f"x{i}" for i in range(nvars)])
    target = FreeModule(ring, target_degrees)
    return [(from_tuples(target, terms), deg) for terms, deg in columns], target


def _example_module(nvars, gen_degrees, relations):
    """The presentation whose relations `_example_map` builds as columns."""
    rels, free = _example_map(nvars, gen_degrees, relations)
    return PresentedModule(free.ring, free.gen_degrees, [rel for rel, _ in rels])


# The relations start in degree 1 and the range at 3, so its first degree has
# no reduced rows of the degree before it.
@example(_example_module(3, [0, 1], [
    ({(0, (1, 0, 0)): 1, (1, (0, 0, 0)): 1}, 1),
    ({(0, (0, 1, 0)): 2}, 1),
    ({(0, (1, 1, 0)): 1, (1, (0, 0, 1)): -1}, 2),
]), 3)
@given(presented_modules(), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_slice_ranks_on_relations_match_full_elimination(pm, lo):
    rels = [(r, r.degree()) for r in pm.relations]  # zero relations kept
    _assert_slice_ranks_match_full_elimination(rels, pm.free, range(lo, 6))


# The target fills in degree 0 on the first generator, so the second, a copy
# of it, enters degree 1 with no reduced rows; its rows reduce to zero there.
@example(_example_map(2, [0, 1], [
    ({(0, (0, 0)): 1}, 0),
    ({(0, (0, 0)): 1}, 0),
    ({(1, (0, 0)): 1, (0, (1, 0)): 1}, 1),
]), 0)
# In degree 2 the image row of x0*x1 + x1^2 leads at x0*x1, whose pivot is
# x1 times the row x0 kept from degree 1, not yet written out.
@example(_example_map(2, [0], [
    ({(0, (1, 0)): 1}, 1),
    ({(0, (1, 1)): 1, (0, (0, 2)): 1}, 2),
]), 1)
# The row x2^2 * (x0 + x1) is kept from degree 1 through degree 2 with no
# subtraction; in degree 3 it meets the pivots x0*x2^2 and x1*x2^2 of the
# rows of x2^2.
@example(_example_map(3, [0], [
    ({(0, (0, 0, 2)): 1}, 2),
    ({(0, (1, 0, 0)): 1, (0, (0, 1, 0)): 1}, 1),
]), 1)
@given(graded_maps(), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_slice_ranks_on_graded_maps_match_full_elimination(data, lo):
    columns, target = data
    _assert_slice_ranks_match_full_elimination(columns, target, range(lo, 7))


@given(st.integers(1, 4), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_monomials_of_degree_ascend_as_tuples(nvars, degree):
    """`_slice_ranks` skips rows, and builds the row m*c from the reduced row
    of (m/x_v)*c, on the strength of this order being lex, which is
    multiplicative; pin it.  The packed terms unpack to the
    `itertools.product` enumeration and are the packs of their monomials,
    degree field included.  The ring is fresh, so this pins the enumeration
    that a ring keeps for each degree."""
    ring = GradedRing([f"x{i}" for i in range(nvars)])
    packed = ring.monomials_of_degree(degree)
    mons = [m for _, m in map(ring.unpack, packed)]
    assert mons == _tuple_monomials(ring, degree)
    assert packed == [ring.pack(0, m) for m in mons]
    assert all(a < b for a, b in zip(mons, mons[1:]))
    assert all(sum(m) == degree for m in mons)


# --- packed terms: int order keys and fraction-free reduction ----------------


def _tuple_ring_key(mon):
    """The nested-tuple grevlex key the int key replaced."""
    return (sum(mon), tuple(-e for e in reversed(mon)))


def _tuple_module_key(chain, term):
    """The recursive nested-tuple module key the int key replaced: TOP when
    `chain` is empty, else the Schreyer order induced by the lead terms
    chain[-1], (component, monomial) pairs, from the order of chain[:-1]."""
    comp, mon = term
    if not chain:
        return (_tuple_ring_key(mon), -comp)
    lead_comp, lead_mon = chain[-1][comp]
    return (_tuple_module_key(chain[:-1], (lead_comp, mon_mul(mon, lead_mon))), -comp)


def _assert_same_order(terms, key, reference):
    assert sorted(terms, key=key) == sorted(terms, key=reference)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(0, FIELD_LIMIT // n)] * n),
            min_size=2,
            max_size=12,
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_int_monomial_keys_order_like_tuple_keys(drawn):
    """Grevlex on packed terms, with exponents up to the most that
    keeps every permutation within the packed degree field (the field limit
    itself in one variable); TOP, and the tagged TOP of `syzygy_module`,
    which puts every term of F above every tag."""
    # permutations keep the degree, so the exponent fields decide
    mons = sorted({p for m in drawn for p in permutations(m)})
    ring = GradedRing([f"x{i}" for i in range(len(drawn[0]))])
    packed = [ring.pack(0, m) for m in mons]
    _assert_same_order(packed, ModuleOrder.top(ring, 1).key,
                       lambda t: _tuple_ring_key(ring.unpack(t)[1]))
    top = ModuleOrder.top(ring, 3)

    def reference(t):
        return _tuple_module_key([], ring.unpack(t))

    terms = [(c << ring.comp_shift) + t for t in packed for c in range(3)]
    _assert_same_order(terms, top.key, reference)
    tagged = ModuleOrder.tagged(ring, 2, 2)
    free, tags = ([(c << ring.comp_shift) + t for t in packed for c in cs]
                  for cs in ((0, 1), (2, 3)))
    assert min(map(tagged.key, free)) > max(map(tagged.key, tags))
    _assert_same_order(free, tagged.key, reference)
    _assert_same_order(tags, tagged.key, reference)


@given(presented_modules())
@settings(max_examples=25, deadline=None)
def test_int_schreyer_keys_order_like_recursive_tuple_keys(pm):
    """TOP and the Schreyer orders one, two and three levels deep of a syzygy chain."""
    rels = [r for r in pm.relations if not r.is_zero()]
    if not rels:
        return
    ring = pm.ring
    gb = buchberger(rels)
    orders = [(gb.order, pm.free.rank, [])]  # (order, rank, lead lists it is induced from)
    while len(gb) and len(orders) < 4:
        rank = len(gb)
        chain = orders[-1][2] + [list(map(ring.unpack, gb.lead_terms()))]
        gb, order = schreyer_syzygies(gb)
        orders.append((order, rank, chain))
    mons = [m for d in range(4) for m in ring.monomials_of_degree(d)]
    for order, rank, chain in orders:
        terms = [(c << ring.comp_shift) + m for c in range(rank) for m in mons]
        _assert_same_order(terms, order.key,
                           lambda t: _tuple_module_key(chain, ring.unpack(t)))


@given(presented_modules())
@settings(max_examples=25, deadline=None)
def test_schreyer_frames_are_groebner_bases_with_exact_keys(pm):
    """Along the chain of frames, Buchberger on a frame's elements finds exactly
    its lead terms, and every stored negated key is the induced order's; the
    Betti table read off the frames still equals the Koszul oracle's."""
    rels = [r for r in pm.relations if not r.is_zero()]
    if not rels:
        return
    gb = buchberger(rels)
    while len(gb):
        gb, order = schreyer_syzygies(gb)
        if len(gb):
            assert buchberger(gb.elements, order).lead_terms() == gb.lead_terms()
        for g in gb._internal:
            for t, nk in [(g.lt, g.nlt), *((t, k) for t, _, k in g.tail)]:
                assert nk == -order.key(t)
    _, betti = minimal_free_resolution(pm)
    assert betti.entries == koszul_tor(pm, (0, betti.max_degree() + 1)).entries


_SCALES = st.sampled_from([Fraction(2, 3), Fraction(-5, 2), Fraction(7), Fraction(-3, 4)])


def _fraction_normal_form(elements, key, f):
    """Full reduction with Fraction coefficients and tuple keys only."""
    work, rem = tuple_terms(f), {}
    elements = [tuple_terms(e) for e in elements]
    leads = [(max(e, key=key), e) for e in elements]
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
        factor = c / e[lt]
        for (comp, m), v in e.items():
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
        return _tuple_module_key([], t)

    mons = [m for d in (2, 3) for m in _tuple_monomials(ring, d)]
    coeffs = draw.draw(
        st.lists(_SCALES | st.just(Fraction(0)), min_size=len(mons), max_size=len(mons))
    )
    f = from_tuples(gb.module, {(0, m): c for m, c in zip(mons, coeffs)})
    nf = gb.normal_form(f)
    assert tuple_terms(nf) == _fraction_normal_form(gb.elements, key, f)
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
            for mon in _tuple_monomials(ring, degree - g):
                c = draw(st.integers(-2, 2))
                if c and draw(st.booleans()):
                    terms[(comp, mon)] = Fraction(c)
        gens.append(from_tuples(free, terms))
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
        for mon in _tuple_monomials(ring, degree - e.degree()):
            rows.append({
                cols.setdefault((c, mon_mul(m, mon)), len(cols)): v
                for (c, m), v in tuple_terms(e).items()
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
        assert all(0 <= c < len(gens) for c, _ in tuple_terms(z))
        acc = free.zero()
        for s, g in enumerate(gens):
            acc = acc + g * z.component(s)
        assert acc.is_zero()
    for j in range(max(degrees) + 3):
        source = sum(len(ring.monomials_of_degree(j - d)) for d in degrees if d <= j)
        image = sparse_rank(_degree_rows(gens, j, ring))
        assert sparse_rank(_degree_rows(syz, j, ring)) == source - image, j


@st.composite
def ideal_generators(draw):
    """One or two homogeneous elements of Q[x,y,z] in degree 1 or 2, possibly zero."""
    ring = GradedRing(["x", "y", "z"])
    one = FreeModule(ring, [0])
    out = []
    for _ in range(draw(st.integers(1, 2))):
        terms = {}
        for mon in _tuple_monomials(ring, draw(st.integers(1, 2))):
            c = draw(st.integers(-2, 2))
            if c and draw(st.booleans()):
                terms[(0, mon)] = Fraction(c)
        out.append(from_tuples(one, terms))
    return out


@given(module_generator_lists(), ideal_generators())
@settings(max_examples=25, deadline=None)
def test_syzygies_modulo_a_known_basis_match_the_tagged_image(gens, ideal):
    """{a : sum a_s g_s in J·F} two ways: modulo the known basis GB(J)·F, and
    as the projection onto the g_s part of the syzygies of the g_s and the
    products f·e_c, f in J, tagged as generators.  Both generate the same
    module, so their reduced bases agree."""
    free = gens[0].module
    ring = free.ring
    modulo = [free.gen(c) * g for g in ideal_gb(ring, ideal).elements for c in range(free.rank)]
    image = [free.gen(c) * f for f in ideal if not f.is_zero() for c in range(free.rank)]
    target = FreeModule(ring, [0 if g.is_zero() else g.degree() for g in gens])
    end = len(gens) << ring.comp_shift
    projected = [ModuleElement(target, {t: v for t, v in z.terms.items() if t < end})
                 for z in syzygy_module(gens + image)]

    def reduced(elems):
        return [g.terms for g in buchberger(elems or [target.zero()]).elements]

    assert reduced(syzygy_module(gens, modulo=modulo)) == reduced(projected)


def _example_ring_product(f, g):
    """(f, g) over Q[x0, x1] for an `example`, each given as {exponent tuple: coefficient}."""
    ring = GradedRing(["x0", "x1"])
    one = FreeModule(ring, [0])
    return (from_tuples(one, {(0, m): c for m, c in f.items()}),
            from_tuples(one, {(0, m): c for m, c in g.items()}))


@st.composite
def ring_products(draw):
    """(f, g): f in a free module of rank 1 or 2 and g a ring element over
    up to 3 variables, with Fraction coefficients on few monomials of low
    degree, so that products of term pairs often fall on one term."""
    ring = _ring(draw(st.integers(1, 3)))
    free = FreeModule(ring, [0] * draw(st.integers(1, 2)))

    def terms(rank):
        mons = st.tuples(*[st.integers(0, 2)] * ring.nvars)
        return draw(st.dictionaries(st.tuples(st.integers(0, rank - 1), mons),
                                    fractions, max_size=4))

    return from_tuples(free, terms(free.rank)), from_tuples(FreeModule(ring, [0]), terms(1))


def _fraction_product(f, g):
    """Term-by-term reference: one Fraction product per term pair, zeros dropped."""
    out = {}
    for s, v in f.terms.items():
        for u, c in g.terms.items():
            out[s + u] = out.get(s + u, Fraction(0)) + Fraction(v) * Fraction(c)
    return {t: c for t, c in out.items() if c}


# (x0 + x1/2)(x0 - x1/2): the two x0*x1 terms cancel
@example(_example_ring_product({(1, 0): Fraction(1), (0, 1): Fraction(1, 2)},
                               {(1, 0): Fraction(1), (0, 1): Fraction(-1, 2)}))
@given(ring_products())
@settings(max_examples=200, deadline=None)
def test_ring_product_is_the_fraction_reference(data):
    f, g = data
    product = f * g
    assert product.module is f.module
    assert product.terms == _fraction_product(f, g)
    assert all(type(c) is Fraction for c in product.terms.values())


# ---------------------------------------------------------------------------
# Packed lead-term arithmetic against tuple references
# ---------------------------------------------------------------------------

_EXPONENTS = st.one_of(st.integers(0, 3), st.integers(FIELD_LIMIT - 2, FIELD_LIMIT),
                       st.integers(0, FIELD_LIMIT))


def _ring(nvars):
    return GradedRing([f"x{i}" for i in range(nvars)])


def _exponent_part(mon):
    """The exponent fields of a packed term, the first exponent lowest."""
    return sum(e << FIELD_BITS * i for i, e in enumerate(mon))


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.tuples(*[_EXPONENTS] * n), st.tuples(*[_EXPONENTS] * n))),
    st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_packed_lcm_divisibility_and_coprimality_against_tuples(data, comp):
    """On exponent parts with fields up to FIELD_LIMIT (the guard-bit edge),
    and on whole packed terms of one component wherever the degree fits."""
    a, b = data
    ring = _ring(len(a))
    lcm_ab = _exponent_part(mon_lcm(a, b))
    coprime = all(x == 0 or y == 0 for x, y in zip(a, b))
    words = [(_exponent_part(a), _exponent_part(b))]
    if sum(a) <= FIELD_LIMIT and sum(b) <= FIELD_LIMIT:
        terms = ring.pack(comp, a), ring.pack(comp, b)
        assert [ring.unpack(t) for t in terms] == [(comp, a), (comp, b)]
        assert [ring.term_degree(t) for t in terms] == [sum(a), sum(b)]
        words.append(terms)
    for pa, pb in words:
        assert ring.lcm(pa, pb) == ring.lcm(pb, pa) == lcm_ab
        assert ring.divides(pa, pb) == mon_divides(a, b)
        assert ring.divides(pb, pa) == mon_divides(b, a)
        assert ring.coprime(pa, pb) == coprime
    assert ring.divides(_exponent_part(a), lcm_ab) and ring.divides(_exponent_part(b), lcm_ab)


def _tuple_minimalize(gens):
    out = []
    for g in sorted(gens, key=lambda m: (sum(m), m)):
        if not any(mon_divides(h, g) for h in out):
            out.append(g)
    return out


def _tuple_numerator(gens, nvars, memo):
    """Bigatti's pivot recursion on exponent tuples, as the engine ran it
    before its monomials were packed."""
    if not gens:
        return {0: 1}
    if gens in memo:
        return memo[gens]
    if any(not any(g) for g in gens):
        memo[gens] = {}
        return {}
    counts = [sum(1 for g in gens if g[i]) for i in range(nvars)]
    vmax = max(range(nvars), key=lambda i: counts[i])
    if counts[vmax] <= 1:
        num = {0: 1}
        for g in gens:
            d = sum(g)
            new = {}
            for dd, c in num.items():
                new[dd] = new.get(dd, 0) + c
                new[dd + d] = new.get(dd + d, 0) - c
            num = {dd: c for dd, c in new.items() if c}
        memo[gens] = num
        return num
    pivot = tuple(1 if i == vmax else 0 for i in range(nvars))
    plus = [g for g in gens if g[vmax] == 0] + [pivot]
    colon = [tuple(max(e - (i == vmax), 0) for i, e in enumerate(g)) for g in gens]
    out = dict(_tuple_numerator(tuple(_tuple_minimalize(plus)), nvars, memo))
    for d, c in _tuple_numerator(tuple(_tuple_minimalize(colon)), nvars, memo).items():
        out[d + 1] = out.get(d + 1, 0) + c
    memo[gens] = out = {d: c for d, c in out.items() if c}
    return out


@st.composite
def monomial_submodules(draw):
    """(free module, monomial terms) over a ring in up to 4 variables."""
    ring = _ring(draw(st.integers(1, 4)))
    free = FreeModule(ring, draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3)))
    terms = draw(st.lists(
        st.tuples(st.integers(0, free.rank - 1),
                  st.tuples(*[st.integers(0, 3)] * ring.nvars)), min_size=1, max_size=8))
    return free, terms


@given(monomial_submodules())
@settings(max_examples=80, deadline=None)
def test_packed_hilbert_numerator_against_tuple_recursion(data):
    free, terms = data
    ring = free.ring
    gb = buchberger([from_tuples(free, {t: Fraction(1)}) for t in terms])
    expected, memo = {}, {}
    for c in range(free.rank):
        gens = tuple(_tuple_minimalize([m for comp, m in terms if comp == c]))
        for d, v in _tuple_numerator(gens, ring.nvars, memo).items():
            d += free.gen_degrees[c]
            expected[d] = expected.get(d, 0) + v
    assert module_hilbert_numerator(gb) == {d: v for d, v in expected.items() if v}


def _tuple_frame_pairs(gb):
    """The pairs (i, lcm_ij / lt_i, j) a Schreyer frame keeps, by the tuple
    rule the engine ran before its quotients were packed: per i the quotients
    of the j > i in its component, the smallest j per quotient, taken by
    (degree, j), each kept unless a kept one divides it."""
    ring, out = gb.module.ring, set()
    leads = [ring.unpack(t) for t in gb.lead_terms()]
    for i, (c, m) in enumerate(leads):
        quotients = {}
        for j in range(i + 1, len(leads)):
            if leads[j][0] == c:
                quotients.setdefault(tuple(max(b - a, 0) for a, b in zip(m, leads[j][1])), j)
        kept = []
        for q, j in sorted(quotients.items(), key=lambda e: (sum(e[0]), e[1])):
            if not any(mon_divides(r, q) for r in kept):
                kept.append(q)
                out.add((i, q, j))
    return out


@given(monomial_submodules())
@settings(max_examples=60, deadline=None)
def test_packed_frame_keeps_the_pairs_of_the_tuple_rule(data):
    """Each frame element leads with (lcm_ij / lt_i) e_i for a pair of the
    tuple rule, and carries the term (lcm_ij / lt_j) e_j of its partner."""
    free, terms = data
    ring = free.ring
    gb = buchberger([from_tuples(free, {t: Fraction(1)}) for t in terms])
    while len(gb):
        pairs = _tuple_frame_pairs(gb)
        leads = [ring.unpack(t) for t in gb.lead_terms()]
        frame, _ = schreyer_syzygies(gb)
        got = set()
        for z in frame._internal:
            i, q = ring.unpack(z.lt)
            j = next(j for i2, q2, j in pairs if (i2, q2) == (i, q))
            lcm = mon_mul(q, leads[i][1])
            assert (j, tuple(a - b for a, b in zip(lcm, leads[j][1]))) in [
                ring.unpack(t) for t, _ in z.packed()]
            got.add((i, q, j))
        assert got == pairs and len(frame) == len(pairs)
        gb = frame


def _tuple_gm_update(leads, t, use_product):
    """Gebauer-Möller on (component, monomial) leads, as the engine ran it
    before its lcms were packed: the set of pairs (i, t, lcm term)."""
    comp_t, mon_t = leads[t]
    cand = [(i, mon_lcm(leads[i][1], mon_t)) for i in range(t) if leads[i][0] == comp_t]
    by_lcm = {}
    for i, m in cand:
        if not any(j != i and mj != m and mon_divides(mj, m) for j, mj in cand):
            by_lcm.setdefault(m, []).append(i)
    return {
        (min(idxs), t, (comp_t, m)) for m, idxs in by_lcm.items()
        if not (use_product and any(all(min(a, b) == 0 for a, b in zip(leads[i][1], mon_t))
                                    for i in idxs))
    }


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(
        st.integers(0, 1),
        st.tuples(*[st.integers(0, 4) | st.integers(1_000, FIELD_LIMIT // 20)] * n)),
        min_size=1, max_size=8)), st.booleans())
@settings(max_examples=150, deadline=None)
def test_packed_gm_update_against_tuple_reference(data, use_product):
    leads = data
    ring = _ring(len(leads[0][1]))
    basis = [SimpleNamespace(lt=ring.pack(c, m)) for c, m in leads]
    for t in range(len(leads)):
        pairs = _gm_update(ring, basis, t, use_product)
        assert len(pairs) == len({m for _, _, m in pairs})
        got = {(i, j, (leads[t][0], ring.unpack(m)[1])) for i, j, m in pairs}
        assert got == _tuple_gm_update(leads, t, use_product)
