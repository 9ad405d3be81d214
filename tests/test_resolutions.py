import pytest

from superconf.algebras import build_standard
from superconf.fixtures import FIXTURES
from superconf.groebner import hilbert_series, ideal_gb
from superconf.multiplets import conf_module
from superconf.resolutions import (
    _constant_ranks,
    PresentedModule,
    is_gorenstein,
    koszul_homology_dims,
    koszul_homology_is_zero,
    koszul_tor,
    minimal_free_resolution,
    resolution_is_complex,
    syzygetic_defect,
)
from superconf.rings import FreeModule, GradedRing, poly_ring


def m_squared(ring):
    x, y = ring.variable(0), ring.variable(1)
    return [x * x, x * y, y * y]


def euler_numerator(betti):
    out = {}
    for (i, j), mult in betti.entries.items():
        out[j] = out.get(j, 0) + (-1) ** i * mult
    return {j: c for j, c in out.items() if c}


def test_free_module_resolution():
    R = GradedRing(["x", "y"])
    pm = PresentedModule(R, [0], [])
    chain, betti = minimal_free_resolution(pm)
    assert chain == []
    assert betti.entries == {(0, 0): 1}
    assert betti.complete


def test_resolution_m_squared():
    R = GradedRing(["x", "y"])
    pm = PresentedModule(R, [0], m_squared(R))
    chain, betti = minimal_free_resolution(pm)
    assert betti.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert [len(gb) for gb in chain] == [3, 2]
    assert resolution_is_complex(chain)


def test_resolution_nonminimal_presentation():
    # add a redundant generator: F0 = R^2 with e1 = x*e0 forced by a unit relation
    R, x, _y = poly_ring("x", "y")
    free = FreeModule(R, [0, 1])
    rel = free.gen(1) - free.gen(0) * x
    pm = PresentedModule(R, [0, 1], [rel])
    _, betti = minimal_free_resolution(pm)
    assert betti.entries == {(0, 0): 1}


def test_nonminimal_chain_cancels_on_both_sides_4d_n2_conf():
    # The chain of the 4d N=2 conformal-supergravity module has more generators
    # than the minimal resolution at homological indices 1 to 5.  In degree 4,
    # F_3 loses generators to constant entries of both d_3 and d_4, so both
    # rank subtractions of the Betti count act on one entry.
    case = next(c for c in FIXTURES if c.name == "table-4d-n2")
    m = conf_module(build_standard(*case.algebra)).module
    chain, betti = minimal_free_resolution(m)
    assert resolution_is_complex(chain)
    assert [len(gb) for gb in chain] == [21, 39, 33, 13, 2]
    assert [betti.column_total(i) for i in range(1, 6)] == [17, 28, 22, 8, 1]
    assert all(_constant_ranks(gb.module, (g.packed() for g in gb._internal))[4]
               for gb in chain[2:4])
    cells = {(j - i, 2 * i - j): v for (i, j), v in betti.entries.items()}
    assert cells == {(r, c): sum(ms) for r, c, ms in case.expected}
    assert betti.restrict((0, 4)) == koszul_tor(m, (0, 4))


def test_koszul_tor_matches_resolution_m_squared():
    R = GradedRing(["x", "y"])
    pm = PresentedModule(R, [0], m_squared(R))
    _, betti = minimal_free_resolution(pm)
    tor = koszul_tor(pm, (0, 5))
    assert tor.entries == betti.entries


def test_koszul_tor_residue_field():
    from math import comb

    R = GradedRing(["x", "y", "z"])
    polys = [R.variable(i) for i in range(3)]
    pm = PresentedModule(R, [0], polys)
    tor = koszul_tor(pm, (0, 4))
    assert tor.entries == {(i, i): comb(3, i) for i in range(4)}


def _edge_module(name):
    """A module over Q[x, y]: zero, free, a residue field with its generator
    in degree 0 or -1, or a cyclic module generated in degree 3."""
    R, x, y = poly_ring("x", "y")
    gen_degrees = {"zero": [], "R": [0], "R(-1)+R(2)": [1, -2], "k": [0], "k(1)": [-1],
                   "R(-3)/(x^2)": [3]}[name]
    polys = {"k": [x, y], "k(1)": [x, y], "R(-3)/(x^2)": [x * x]}.get(name, [])
    return PresentedModule(R, gen_degrees, [FreeModule(R, gen_degrees).gen(0) * f for f in polys])


@pytest.mark.parametrize("window", [(0, 5), (2, 4), (-3, 3)], ids=str)
@pytest.mark.parametrize("name", ["zero", "R", "R(-1)+R(2)", "k", "k(1)", "R(-3)/(x^2)"])
def test_koszul_tor_at_the_edges_is_the_resolution_table(name, window):
    # negative generator degrees, and windows that start away from 0 or below it
    pm = _edge_module(name)
    _, betti = minimal_free_resolution(pm)
    assert koszul_tor(pm, window) == betti.restrict(window)


def test_koszul_homology_places_a_zero_element_at_its_given_degree():
    # H_1 of (x^2, 0) is R/(x^2) on the exterior generator of the zero
    # element, which sits in the degree passed for it
    R, x, _y = poly_ring("x", "y")
    assert koszul_homology_dims(R, [x * x, R.zero()], 1, (0, 4), [2, 2]) == {
        2: 1, 3: 2, 4: 2}


def test_euler_characteristic_identity():
    R = GradedRing(["x", "y"])
    pm = PresentedModule(R, [0], m_squared(R))
    _, betti = minimal_free_resolution(pm)
    hs = hilbert_series(ideal_gb(R, m_squared(R)))
    assert euler_numerator(betti) == hs.numerator


def test_complete_intersection_koszul_homology_vanishes():
    R, x, y = poly_ring("x", "y")
    quadrics = [x * x, y * y]
    for k in (1, 2):
        assert koszul_homology_is_zero(R, quadrics, k, [2, 2])
    dims = koszul_homology_dims(R, quadrics, 1, (0, 8), [2, 2])
    assert not dims


def test_koszul_homology_nonvanishing_m_squared():
    R, _x, _y = poly_ring("x", "y")
    quadrics = m_squared(R)
    assert not koszul_homology_is_zero(R, quadrics, 1, [2, 2, 2])
    h1 = koszul_homology_dims(R, quadrics, 1, (0, 8), [2, 2, 2])
    assert h1
    # H_0 in degree 0 and 1: dims of R/I
    h0 = koszul_homology_dims(R, quadrics, 0, (0, 4), [2, 2, 2])
    assert h0 == {0: 1, 1: 2}


def test_koszul_homology_abelian_case():
    R, _x, _y = poly_ring("x", "y")
    zero = [R.zero(), R.zero()]
    assert not koszul_homology_is_zero(R, zero, 1, [2, 2])
    assert not koszul_homology_is_zero(R, zero, 2, [2, 2])


def test_gorenstein_complete_intersection():
    R, x, y = poly_ring("x", "y")
    cm, gor = is_gorenstein(PresentedModule(R, [0], [x * x, y * y]))
    assert cm and gor


def test_gorenstein_m_squared_is_cm_not_gorenstein():
    R = GradedRing(["x", "y"])
    cm, gor = is_gorenstein(PresentedModule(R, [0], m_squared(R)))
    assert cm
    assert not gor


def test_syzygetic_defect_principal():
    R, x, y = poly_ring("x", "y")
    d = syzygetic_defect(R, [x * x + y * y], (0, 8))
    assert not d


def test_syzygetic_defect_complete_intersection():
    R, x, y = poly_ring("x", "y")
    d = syzygetic_defect(R, [x * x, y * y], (0, 8))
    assert not d


def test_syzygetic_defect_and_h1_of_m_squared():
    # I = (x^2, xy, y^2): x^2 (x) y^2 - xy (x) xy spans the degree-4 kernel of
    # Sym^2 I -> I^2 and no syzygy induces it (those start in degree 5); H_1 is
    # the two linear syzygies in degree 3 plus that defect class
    R, _x, _y = poly_ring("x", "y")
    assert syzygetic_defect(R, m_squared(R), (0, 8)) == {4: 1}
    assert koszul_homology_dims(R, m_squared(R), 1, (0, 8), [2, 2, 2]) == {3: 2, 4: 1}


def test_graded_dims_container():
    # a Counter over the nonzero degrees: a degree off its support reads 0
    # (as the benchmark's h1[j] and defect[j] read a whole window) and is not
    # stored by the read
    R, _x, _y = poly_ring("x", "y")
    g = koszul_homology_dims(R, m_squared(R), 1, (0, 8), [2, 2, 2])
    assert g[2] == 0 and g[3] == 2 and g[4] == 1 and g[9] == 0
    assert sorted(g) == [3, 4] and sum(g.values()) == 3


def test_ce_cohomology_3d_n1_vanishing_pattern():
    from superconf.algebras import build_standard
    from superconf.resolutions import ce_cohomology

    alg = build_standard(3, 1)
    assert ce_cohomology(alg, 1, (0, 8))
    assert not ce_cohomology(alg, 2, (0, 10))
    assert not ce_cohomology(alg, 3, (0, 10))


def test_koszul_homology_and_defect_pinned_on_catalog_quadrics():
    """Pinned Koszul homology H_k and syzygetic defect of the bracket quadrics,
    degrees 0..8; these are the graded rank systems eliminated by `_slice_ranks`."""
    from superconf.algebras import build_standard

    expected = {
        (3, 1): (
            [{0: 1, 1: 2}, {3: 2, 4: 1}, {}, {}],
            {4: 1},
        ),
        (4, 1): (
            [
                {0: 1, 1: 4, 2: 6, 3: 8, 4: 10, 5: 12, 6: 14, 7: 16, 8: 18},
                {3: 4, 4: 9, 5: 12, 6: 16, 7: 20, 8: 24},
                {6: 2, 7: 4, 8: 6},
                {},
                {},
            ],
            {4: 1},
        ),
    }
    for (dim, n), (homology, defect) in expected.items():
        alg = build_standard(dim, n)
        ring, quadrics = alg.ring(), alg.quadrics()
        degrees = [2] * len(quadrics)
        got = [koszul_homology_dims(ring, quadrics, k, (0, 8), degrees)
               for k in range(len(quadrics) + 1)]
        assert got == homology
        assert syzygetic_defect(ring, quadrics, (0, 8)) == defect


def test_ce_cohomology_degree_zero_is_structure_sheaf():
    from superconf.algebras import build_standard
    from superconf.resolutions import ce_cohomology

    alg = build_standard(3, 1)
    h0 = ce_cohomology(alg, 0, (0, 4))
    assert h0 == {0: 1, 1: 2}


def test_relations_of_another_module_are_rejected():
    """Over generators in degrees (0, 1), a relation of rank 2 with generators
    in degrees (0, 0) used to be accepted and its degrees used silently."""
    R, x, _y = poly_ring("x", "y")
    assert PresentedModule(R, [0, 1], [FreeModule(R, [0, 1]).gen(0) * x]).graded_dim(1) == 2
    for free in (FreeModule(R, [0, 0]), FreeModule(R, [0]), FreeModule(GradedRing(["a", "b"]), [0, 1])):
        with pytest.raises(ValueError, match="another module"):
            PresentedModule(R, [0, 1], [free.gen(0)])
