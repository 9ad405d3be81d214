from fractions import Fraction

from superconf.algebras import SupertranslationAlgebra, build_standard, derivations_deg0
from superconf.prolongation import (
    ProlongationBrackets,
    derivation_complex_h0,
    tanaka_prolongation,
)


def abelian(k, d):
    gamma = [[[Fraction(0)] * d for _ in range(k)] for _ in range(k)]
    return SupertranslationAlgebra("abelian", k, d, gamma)


def test_3d_n1_prolongation():
    alg = build_standard(3, 1)
    res = tanaka_prolongation(alg, max_degree=6)
    assert res.dims == {-2: 3, -1: 2, 0: 4, 1: 2, 2: 3}
    assert res.status == "terminated"
    assert res.total_even() == 10
    assert res.total_odd() == 4


def test_3d_n1_jacobi():
    alg = build_standard(3, 1)
    res = tanaka_prolongation(alg, max_degree=4)
    br = ProlongationBrackets(alg, res)
    assert br.check_jacobi([-2, -1, 0, 1, 2])


def test_3d_n1_degree_zero_matches_g0():
    alg = build_standard(3, 1)
    g0 = derivations_deg0(alg)
    res = tanaka_prolongation(alg, g0=g0, max_degree=2)
    assert res.dims[0] == g0.dim


def test_4d_n1_prolongation_totals():
    alg = build_standard(4, 1)
    res = tanaka_prolongation(alg, max_degree=4)
    assert res.status == "terminated"
    assert res.total_even() == 16
    assert res.total_odd() == 8


def test_formal_line_never_terminates():
    # formal vector fields on a line, with the coordinate in weight two:
    # one dimension in every even degree, nothing in odd degrees, no cap ends it
    alg = abelian(0, 1)
    for cap in (3, 5):
        res = tanaka_prolongation(alg, max_degree=cap)
        assert res.status == "capped"
        for m in range(1, cap + 1):
            assert res.dims[m] == (1 if m % 2 == 0 else 0)


def test_1d_n1_contact_algebra_capped():
    alg = build_standard(1, 1)
    for cap in (2, 4, 6):
        res = tanaka_prolongation(alg, max_degree=cap)
        assert res.status == "capped"
        assert all(res.dims[m] == 1 for m in range(-2, cap + 1))


def test_1d_n1_oracle_matches_prolongation():
    alg = build_standard(1, 1)
    cap = 4
    res = tanaka_prolongation(alg, max_degree=cap)
    h0 = derivation_complex_h0(alg, cap)
    for m in range(-2, cap + 1):
        expect = res.dims.get(m, 0)
        even, odd = h0.get(m, (0, 0))
        if m % 2 == 0:
            assert (even, odd) == (expect, 0), f"degree {m}"
        else:
            assert (even, odd) == (0, expect), f"degree {m}"


def test_3d_n1_oracle_matches_prolongation():
    alg = build_standard(3, 1)
    res = tanaka_prolongation(alg, max_degree=2)
    h0 = derivation_complex_h0(alg, 2)
    total_even = sum(v[0] for v in h0.values())
    total_odd = sum(v[1] for v in h0.values())
    assert total_even == 10 and total_odd == 4
    for m in range(-2, 3):
        expect = res.dims.get(m, 0)
        even, odd = h0.get(m, (0, 0))
        assert even + odd == expect, f"degree {m}"


def test_polynomial_vector_fields_oracle():
    alg = abelian(0, 2)
    h0 = derivation_complex_h0(alg, 2)
    assert h0 == {-2: (2, 0), 0: (4, 0), 2: (6, 0)}


def test_2d_chiral_prolongation_capped():
    alg = build_standard(2, (1, 1))
    for cap in (2, 4):
        res = tanaka_prolongation(alg, max_degree=cap)
        assert res.status == "capped"
