"""Structural invariants on randomized inputs.

The 25-algebra cross-oracle suite required by the acceptance criteria lives
in test_acceptance.py; here are the finer-grained properties, run through
hypothesis where generation is cheap.
"""

from fractions import Fraction
from math import comb

from hypothesis import given, settings, strategies as st

from superconf.groebner import (
    buchberger,
    default_module_order,
    hilbert_series,
    ideal_gb,
    syzygy_module,
)
from superconf.linalg import rref, sparse_kernel, sparse_rank
from superconf.resolutions import (
    PresentedModule,
    koszul_homology_dims,
    koszul_tor,
    low_betti,
    minimal_free_resolution,
    resolution_is_complex,
)
from superconf.rings import FreeModule, GradedRing, ModuleElement, Polynomial


fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def matrices(draw, max_dim=5):
    """(sparse rows, column count) of a random rational matrix."""
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(
            st.lists(fractions, min_size=cols, max_size=cols),
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
                terms[mon] = Fraction(c)
        polys.append(Polynomial(ring, terms))
    return ring, polys


@given(quadric_sets())
@settings(max_examples=30, deadline=None)
def test_groebner_membership_and_syzygies(data):
    ring, polys = data
    nonzero = [p for p in polys if not p.is_zero()]
    gb = ideal_gb(ring, nonzero)
    free = FreeModule(ring, [0])
    # every generator reduces to zero
    for p in nonzero:
        elt = ModuleElement(free, {(0, m): c for m, c in p.terms.items()})
        assert gb.normal_form(ModuleElement(gb.module, elt.terms)).is_zero()
    # normal form is a projection
    probe = ModuleElement(gb.module, {(0, ring.one_monomial()): Fraction(1)})
    nf = gb.normal_form(probe)
    assert gb.normal_form(nf) == nf
    # syzygies annihilate the generators
    if nonzero:
        gens = [
            ModuleElement(free, {(0, m): c for m, c in p.terms.items()}) for p in nonzero
        ]
        for z in syzygy_module(gens):
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
def presented_modules(draw, max_gen_degree=1):
    """Random homogeneous presentations over Q[x,y,z], often non-minimal.

    Generators sit in degrees 0 to `max_gen_degree` and relations in degrees 1
    and 2, so with degree-1 generators constant coefficients (units to prune)
    are common.
    """
    ring = GradedRing(["x", "y", "z"])
    gen_degrees = draw(st.lists(st.integers(0, max_gen_degree), min_size=1, max_size=3))
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
def test_pruned_resolution_is_minimal_and_matches_tor(pm):
    mats, betti = minimal_free_resolution(pm)
    assert resolution_is_complex(mats, pm.ring)
    for mat in mats:
        for col in mat.values():
            for entry in col.values():
                assert not entry.is_zero() and not entry.is_constant()
    assert betti.entries == koszul_tor(pm, (0, betti.max_degree() + 1)).entries


@given(presented_modules(max_gen_degree=0))
@settings(max_examples=25, deadline=None)
def test_low_betti_matches_resolution(pm):
    _, betti = minimal_free_resolution(pm)
    low = {(i, j): v for (i, j), v in betti.entries.items() if i <= 1 and j <= 3}
    assert low_betti(pm, 3) == low
