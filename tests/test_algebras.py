from fractions import Fraction

import pytest

from superconf.algebras import (
    SupertranslationAlgebra,
    build_standard,
    check_conformal_type,
    derivations_deg0,
    is_square_zero,
    jacobian,
)
from superconf.groebner import ideal_gb, krull_dim


def abelian(k, d):
    gamma = [[[Fraction(0)] * d for _ in range(k)] for _ in range(k)]
    return SupertranslationAlgebra("abelian", k, d, gamma)


def test_gamma_symmetry_enforced():
    bad = [[[Fraction(0)], [Fraction(1)]], [[Fraction(0)], [Fraction(0)]]]
    with pytest.raises(ValueError):
        SupertranslationAlgebra("bad", 2, 1, bad)


def test_1d_catalog_quadric():
    alg = build_standard(1, 3)
    qs = alg.quadrics()
    assert len(qs) == 1
    assert str(qs[0]) == "l1^2 + l2^2 + l3^2"


def test_3d_n1_ideal():
    alg = build_standard(3, "N=1")
    qs = alg.quadrics()
    assert len(qs) == 3
    monomials = sorted(str(q) for q in qs)
    assert monomials == ["2*l1*l2", "l1^2", "l2^2"]


def test_4d_n1_quadrics_are_monomial():
    alg = build_standard(4, 1)
    qs = alg.quadrics()
    assert len(qs) == 4
    for q in qs:
        assert len(q.terms) == 1
        mon = next(iter(q.terms))
        # one chiral (index < 2) and one antichiral (index >= 2) variable
        support = [i for i, e in enumerate(mon) if e]
        assert len(support) == 2
        assert (support[0] < 2) != (support[1] < 2)


def test_4d_n1_krull_dim():
    alg = build_standard(4, 1)
    gb = ideal_gb(alg.ring(), alg.quadrics())
    assert krull_dim(gb) == 2


def test_6d_n1_quadrics_are_minors():
    alg = build_standard(6, (1, 0))
    qs = alg.quadrics()
    assert len(qs) == 6
    for q in qs:
        assert len(q.terms) == 2
        assert sorted(c for c in q.terms.values()) == [Fraction(-2), Fraction(2)]
    gb = ideal_gb(alg.ring(), qs)
    assert krull_dim(gb) == 5  # cone over the rank-one locus of 4x2 matrices


def test_quadric_count_matches_even_dim():
    for dim, susy, d in [(1, 2, 1), (2, (1, 1), 2), (3, 2, 3), (4, 2, 4), (6, (2, 0), 6)]:
        alg = build_standard(dim, susy)
        assert len(alg.quadrics()) == d
        assert alg.d == d


def test_derivations_abelian_full_gl():
    alg = abelian(2, 3)
    g0 = derivations_deg0(alg)
    assert g0.dim == 2 * 2 + 3 * 3
    assert g0.contains_grading_element()


def test_derivations_3d_n1():
    alg = build_standard(3, 1)
    g0 = derivations_deg0(alg)
    assert g0.dim == 4  # so(3) plus the grading line
    assert g0.rho2_kernel_dim() == 0
    assert g0.rho2_image_dim() == 4
    assert g0.contains_grading_element()
    assert g0.verify_derivations()


def test_derivations_close_under_bracket():
    alg = build_standard(3, 1)
    g0 = derivations_deg0(alg)
    for i in range(g0.dim):
        for j in range(g0.dim):
            g0.bracket_coords(i, j)  # raises if not in the span


def test_derivations_4d_n1():
    alg = build_standard(4, 1)
    g0 = derivations_deg0(alg)
    assert g0.dim == 8
    assert g0.rho2_image_dim() == 7
    assert g0.rho2_kernel_dim() == 1
    assert g0.verify_derivations()


def test_derivations_6d_n1_r_symmetry():
    alg = build_standard(6, (1, 0))
    g0 = derivations_deg0(alg)
    # sp(1) R-symmetry: dim 3 = N(2N+1) at N=1
    assert g0.rho2_kernel_dim() == 3


def test_jacobian_1d():
    alg = build_standard(1, 2)
    phi = jacobian(alg).phi
    assert len(phi) == 1 and len(phi[0]) == 2
    assert str(phi[0][0]) == "2*l1"
    assert str(phi[0][1]) == "2*l2"


def test_jacobian_columns_contract_to_quadrics():
    alg = build_standard(3, 1)
    ring = alg.ring()
    pair = jacobian(alg)
    lam = [ring.variable(i) for i in range(alg.k)]
    for mu in range(alg.d):
        acc = ring.zero()
        for b in range(alg.k):
            acc = acc + pair.phi[mu][b] * lam[b]
        expect = alg.quadrics()[mu] * 2
        assert acc == expect


def test_jacobian_abelian_zero():
    alg = abelian(2, 2)
    pair = jacobian(alg)
    assert all(p.is_zero() for row in pair.phi for p in row)


def test_square_zero():
    alg = build_standard(3, 1)
    assert is_square_zero(alg, [0, 0])
    assert not is_square_zero(alg, [1, 0])
    alg4 = build_standard(4, 1)
    q = [0] * alg4.k
    q[0] = 1  # chiral weight vector
    assert is_square_zero(alg4, q)


def test_conformal_type_3d_n1():
    alg = build_standard(3, 1)
    report = check_conformal_type(alg)
    assert report.surjective
    assert report.rho2_image_dim == 4 == report.expected_image_dim
    assert report.conformal


def test_conformal_type_abelian_false():
    report = check_conformal_type(abelian(2, 2))
    assert not report.surjective
    assert not report.conformal


def test_derivations_6d_n2_r_symmetry_dimension():
    # sp(2): N(2N+1) = 10 at N=2
    alg = build_standard(6, (2, 0))
    g0 = derivations_deg0(alg)
    assert g0.rho2_kernel_dim() == 10
