from fractions import Fraction

import pytest

from superconf.algebras import SupertranslationAlgebra, build_standard
from superconf.multiplets import (
    canonical_module,
    component_fields,
    conf_module,
    form_module,
    hdim,
    kaehler_module,
    universal_checks,
)
from superconf.resolutions import (
    ce_cohomology,
    koszul_tor,
    low_betti,
    minimal_free_resolution,
    syzygetic_defect,
)


def abelian(k, d):
    gamma = [[[Fraction(0)] * d for _ in range(k)] for _ in range(k)]
    return SupertranslationAlgebra("abelian", k, d, gamma)


def test_conf_1d_n2_is_residue_field():
    alg = build_standard(1, 2)
    m = conf_module(alg)
    _, betti = minimal_free_resolution(m.module)
    assert betti.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_conf_3d_n1_betti():
    alg = build_standard(3, 1)
    m = conf_module(alg)
    _, betti = minimal_free_resolution(m.module)
    assert betti.entries == {(0, 0): 3, (1, 1): 2, (1, 2): 5, (2, 3): 4}


def test_conf_3d_n1_graded_dims():
    alg = build_standard(3, 1)
    m = conf_module(alg)
    assert [m.graded_dim(j) for j in range(4)] == [3, 4, 0, 0]


def test_conf_koszul_oracle_agrees_3d_n1():
    alg = build_standard(3, 1)
    m = conf_module(alg)
    _, betti = minimal_free_resolution(m.module)
    tor = koszul_tor(m.module, (0, betti.max_degree() + 2))
    assert tor.entries == betti.entries


def test_conf_abelian_is_free():
    alg = abelian(2, 3)
    m = conf_module(alg)
    _, betti = minimal_free_resolution(m.module)
    assert betti.entries == {(0, 0): 3}


def test_canonical_3d_n1_betti():
    alg = build_standard(3, 1)
    m = canonical_module(alg)
    _, betti = minimal_free_resolution(m.module)
    assert betti.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_kaehler_abelian_is_full_dual():
    alg = abelian(2, 3)
    m = kaehler_module(alg)
    _, betti = minimal_free_resolution(m.module)
    assert betti.entries == {(0, 2): 3}


def test_kaehler_3d_n1_comparison_sequence():
    # dims of ker(phi^t) = dims H^(-1) - dims of the defect, degree by degree
    alg = build_standard(3, 1)
    m = kaehler_module(alg)
    ring = alg.ring()
    h1 = ce_cohomology(alg, 1, (0, 8))
    defect = syzygetic_defect(ring, alg.quadrics(), (0, 8))
    for j in range(0, 9):
        assert m.graded_dim(j) == h1[j] - defect[j], f"degree {j}"


def test_kaehler_annihilated_by_ideal():
    alg = build_standard(3, 1)
    m = kaehler_module(alg)
    gb = m.module.relation_gb()
    free = m.module.free
    for q in alg.quadrics():
        for c in range(free.rank):
            elt = free.gen(c) * q
            assert gb.normal_form(elt).is_zero()


def test_form_module_complete_intersection_vanishes():
    # 2d (1,1): two quadrics l1^2, l2^2 form a regular sequence
    alg = build_standard(2, (1, 1))
    m = form_module(alg, 1)
    assert m.module.gen_degrees == [] or all(
        m.graded_dim(j) == 0 for j in range(0, 8)
    )


@pytest.mark.parametrize("key", [(6, (1, 0)), (4, 3)], ids=str)
def test_low_betti_of_two_forms_matches_resolution(key):
    """The two-form presentations carry unit entries (6d N=(1,0): 40
    generators, 18 of them minimal), which low_betti must cancel."""
    m = form_module(build_standard(*key), 2)
    _, betti = minimal_free_resolution(m.module)
    low = {(i, j): v for (i, j), v in betti.entries.items() if i <= 1 and j <= 8}
    assert low_betti(m.module, 8) == low


def test_form_zero_is_canonical():
    alg = build_standard(3, 1)
    m0 = form_module(alg, 0)
    mc = canonical_module(alg)
    assert [m0.graded_dim(j) for j in range(5)] == [mc.graded_dim(j) for j in range(5)]


def test_hdim_fixtures_fast():
    assert hdim(build_standard(3, 1), cross_check=True) == 1
    assert hdim(abelian(2, 3)) == 3  # gamma = 0 gives d


def test_component_fields_coordinate_rule():
    alg = build_standard(3, 1)
    table = component_fields(conf_module(alg))
    assert table.cells == {(0, 0): 3, (0, 1): 2, (1, 0): 5, (1, 1): 4}


def test_component_fields_free_rank_one():
    alg = abelian(1, 1)
    table = component_fields(canonical_module(alg))
    # R/I for the rank-one abelian algebra: single quadric zero, so R itself
    assert table.cells == {(0, 0): 1}


def test_universal_checks_3d_n1():
    alg = build_standard(3, 1)
    report = universal_checks(alg)
    assert report.passed
    named = {name: (lhs, rhs) for name, lhs, rhs in report.checks}
    assert named["cell (1,0) = metric fluctuations"] == (5, 5)  # 9 - 4


def test_universal_checks_4d_n1():
    alg = build_standard(4, 1)
    report = universal_checks(alg)
    assert report.passed
    named = {name: (lhs, rhs) for name, lhs, rhs in report.checks}
    assert named["cell (1,0) = metric fluctuations"] == (9, 9)  # 16 - 7
    assert named["cell (0,2) = R-symmetry dimension"] == (1, 1)


def test_conf_module_annihilated_by_ideal():
    alg = build_standard(3, 1)
    m = conf_module(alg)
    gb = m.module.relation_gb()
    for q in alg.quadrics():
        for c in range(m.module.free.rank):
            elt = m.module.free.gen(c) * q
            assert gb.normal_form(elt).is_zero()
