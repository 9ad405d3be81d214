from fractions import Fraction

import pytest

from superconf.groebner import hilbert_series, ideal_gb
from superconf.resolutions import (
    BettiTable,
    GradedDims,
    PresentedModule,
    is_gorenstein,
    koszul_homology_dims,
    koszul_homology_is_zero,
    koszul_tor,
    minimal_free_resolution,
    resolution_is_complex,
    syzygetic_defect,
)
from superconf.rings import FreeModule, GradedRing, ModuleElement, poly_ring


def m_squared(ring):
    x, y = ring.variable(0), ring.variable(1)
    return [x * x, x * y, y * y]


def relations_from_polys(ring, polys):
    free = FreeModule(ring, [0])
    return [ModuleElement(free, {(0, m): c for m, c in p.terms.items()}) for p in polys]


def euler_numerator(betti):
    out = {}
    for (i, j), mult in betti.entries.items():
        out[j] = out.get(j, 0) + (-1) ** i * mult
    return {j: c for j, c in out.items() if c}


def test_free_module_resolution():
    R = GradedRing(["x", "y"])
    pm = PresentedModule(R, [0], [])
    mats, betti = minimal_free_resolution(pm)
    assert mats == []
    assert betti.entries == {(0, 0): 1}
    assert betti.complete


def test_resolution_m_squared():
    R = GradedRing(["x", "y"])
    pm = PresentedModule(R, [0], relations_from_polys(R, m_squared(R)))
    mats, betti = minimal_free_resolution(pm)
    assert betti.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert resolution_is_complex(mats, R)
    # minimality: no unit entries anywhere
    for mat in mats:
        for col in mat.values():
            for entry in col.values():
                assert not entry.is_constant() or entry.is_zero()


def test_resolution_nonminimal_presentation():
    # add a redundant generator: F0 = R^2 with e1 = x*e0 forced by a unit relation
    R, x, y = poly_ring("x", "y")
    free = FreeModule(R, [0, 1])
    rel = ModuleElement(free, {(1, (0, 0)): Fraction(1), (0, (1, 0)): Fraction(-1)})
    pm = PresentedModule(R, [0, 1], [rel])
    _, betti = minimal_free_resolution(pm)
    assert betti.entries == {(0, 0): 1}


def test_koszul_tor_matches_resolution_m_squared():
    R = GradedRing(["x", "y"])
    pm = PresentedModule(R, [0], relations_from_polys(R, m_squared(R)))
    _, betti = minimal_free_resolution(pm)
    tor = koszul_tor(pm, (0, 5))
    assert tor.entries == betti.entries


def test_koszul_tor_residue_field():
    from math import comb

    R = GradedRing(["x", "y", "z"])
    polys = [R.variable(i) for i in range(3)]
    pm = PresentedModule(R, [0], relations_from_polys(R, polys))
    tor = koszul_tor(pm, (0, 4))
    assert tor.entries == {(i, i): comb(3, i) for i in range(4)}


def test_koszul_tor_rejects_weighted_rings():
    # M = R/(x, y^2) over weights (2, 1) resolves as {(0,0):1, (1,2):2, (2,4):1};
    # weight-one exterior generators would give {(1,1):1, (1,2):1, (2,3):1}
    R, x, y = poly_ring("x", "y", weights=[2, 1])
    pm = PresentedModule(R, [0], relations_from_polys(R, [x, y * y]))
    _, betti = minimal_free_resolution(pm)
    assert betti.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    with pytest.raises(ValueError, match="weights"):
        koszul_tor(pm, (0, 5))


def test_euler_characteristic_identity():
    R = GradedRing(["x", "y"])
    pm = PresentedModule(R, [0], relations_from_polys(R, m_squared(R)))
    _, betti = minimal_free_resolution(pm)
    hs = hilbert_series(ideal_gb(R, m_squared(R)))
    assert euler_numerator(betti) == hs.numerator


def test_complete_intersection_koszul_homology_vanishes():
    R, x, y = poly_ring("x", "y")
    quadrics = [x * x, y * y]
    for k in (1, 2):
        assert koszul_homology_is_zero(R, quadrics, k)
    dims = koszul_homology_dims(R, quadrics, 1, (0, 8))
    assert dims.is_zero()


def test_koszul_homology_nonvanishing_m_squared():
    R, x, y = poly_ring("x", "y")
    quadrics = m_squared(R)
    assert not koszul_homology_is_zero(R, quadrics, 1)
    h1 = koszul_homology_dims(R, quadrics, 1, (0, 8))
    assert not h1.is_zero()
    # H_0 in degree 0 and 1: dims of R/I
    h0 = koszul_homology_dims(R, quadrics, 0, (0, 4))
    assert h0.dims == {0: 1, 1: 2}


def test_koszul_homology_abelian_case():
    R, x, y = poly_ring("x", "y")
    zero = [R.zero(), R.zero()]
    assert not koszul_homology_is_zero(R, zero, 1)
    assert not koszul_homology_is_zero(R, zero, 2)


def test_gorenstein_complete_intersection():
    R, x, y = poly_ring("x", "y")
    cm, gor = is_gorenstein(R, [x * x, y * y])
    assert cm and gor


def test_gorenstein_m_squared_is_cm_not_gorenstein():
    R = GradedRing(["x", "y"])
    cm, gor = is_gorenstein(R, m_squared(R))
    assert cm
    assert not gor


def test_syzygetic_defect_principal():
    R, x, y = poly_ring("x", "y")
    d = syzygetic_defect(R, [x * x + y * y], (0, 8))
    assert d.is_zero()


def test_syzygetic_defect_complete_intersection():
    R, x, y = poly_ring("x", "y")
    d = syzygetic_defect(R, [x * x, y * y], (0, 8))
    assert d.is_zero()


def test_syzygetic_defect_and_h1_of_m_squared():
    # I = (x^2, xy, y^2): x^2 (x) y^2 - xy (x) xy spans the degree-4 kernel of
    # Sym^2 I -> I^2 and no syzygy induces it (those start in degree 5); H_1 is
    # the two linear syzygies in degree 3 plus that defect class
    R, x, y = poly_ring("x", "y")
    assert syzygetic_defect(R, m_squared(R), (0, 8)).dims == {4: 1}
    assert koszul_homology_dims(R, m_squared(R), 1, (0, 8)).dims == {3: 2, 4: 1}


def test_graded_dims_container():
    g = GradedDims({0: 1, 2: 0, 3: 4})
    assert g[0] == 1 and g[2] == 0 and g[3] == 4
    assert g.total() == 5


def test_ce_cohomology_3d_n1_vanishing_pattern():
    from superconf.algebras import build_standard
    from superconf.resolutions import ce_cohomology

    alg = build_standard(3, 1)
    assert not ce_cohomology(alg, 1, (0, 8)).is_zero()
    assert ce_cohomology(alg, 2, (0, 10)).is_zero()
    assert ce_cohomology(alg, 3, (0, 10)).is_zero()


def test_ce_cohomology_degree_zero_is_structure_sheaf():
    from superconf.algebras import build_standard
    from superconf.resolutions import ce_cohomology

    alg = build_standard(3, 1)
    h0 = ce_cohomology(alg, 0, (0, 4))
    assert h0.dims == {0: 1, 1: 2}
