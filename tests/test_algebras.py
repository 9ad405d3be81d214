import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superconf.algebras import (
    SupertranslationAlgebra,
    _has_invariant_metric,
    build_standard,
    check_conformal_type,
    derivations_deg0,
    is_square_zero,
    jacobian,
)
from superconf.groebner import ideal_gb, krull_dim
from superconf.linalg import sparse_kernel, sparse_rank
from superconf.prolongation import ProlongationBrackets, tanaka_prolongation


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
        _, mon = alg.ring().unpack(next(iter(q.terms)))
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


CATALOG_KEYS = [
    (1, 1), (1, 2), (1, 4), (2, (1, 1)), (2, (2, 0)), (2, (0, 2)),
    (3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3), (4, 4),
    (6, (1, 0)), (6, (2, 0)), (6, (3, 0)), (10, (1, 0)), (10, (2, 0)), (11, 1),
]


def test_catalog_brackets_are_pinned():
    """Every catalog bracket, entry by entry, against one SHA-256.

    The digest covers name, odd and even dimension and every gamma entry,
    so it pins rows that no fixture reaches (1d N=4, 3d N=3/4, 6d N=(3,0)).
    """
    table = {}
    for dim, susy in CATALOG_KEYS:
        alg = build_standard(dim, susy)
        gamma = [[[str(x) for x in alg.gamma[a][b]] for b in range(alg.k)]
                 for a in range(alg.k)]
        table[f"{dim} {susy}"] = [alg.name, alg.k, alg.d, gamma]
    text = json.dumps(table, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c842ddd9a0791ec1a69fad09f97cf9f436edf0e840b2453a8748f8ebd36ffb92"
    )


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
    res = tanaka_prolongation(alg, max_degree=2)
    br = ProlongationBrackets(alg, res)
    for p in range(res.dims[0]):
        for q in range(res.dims[0]):
            # solved in layer 0; raises if the commutator leaves it
            xy = br.bracket(0, {p: Fraction(1)}, 0, {q: Fraction(1)})
            yx = br.bracket(0, {q: Fraction(1)}, 0, {p: Fraction(1)})
            assert xy == {c: -v for c, v in yx.items()}


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
    phi = jacobian(alg)
    assert len(phi) == 1 and len(phi[0]) == 2
    assert str(phi[0][0]) == "2*l1"
    assert str(phi[0][1]) == "2*l2"


def test_jacobian_columns_contract_to_quadrics():
    alg = build_standard(3, 1)
    ring = alg.ring()
    phi = jacobian(alg)
    lam = [ring.variable(i) for i in range(alg.k)]
    for mu in range(alg.d):
        acc = ring.zero()
        for b in range(alg.k):
            acc = acc + phi[mu][b] * lam[b]
        expect = alg.quadrics()[mu] * 2
        assert acc == expect


def test_jacobian_abelian_zero():
    alg = abelian(2, 2)
    assert all(p.is_zero() for row in jacobian(alg) for p in row)


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


def test_invariant_metric_single_forms():
    # sym2 layout for d = 3: (0,0) -> 0, (1,1) -> 3, (2,2) -> 5
    assert _has_invariant_metric([{0: Fraction(1), 3: Fraction(1), 5: Fraction(2)}], 3)
    assert not _has_invariant_metric([{0: Fraction(1), 3: Fraction(1)}], 3)
    assert not _has_invariant_metric([], 3)
    h1 = {0: Fraction(1), 3: Fraction(1)}
    assert _has_invariant_metric([h1, {0: Fraction(2, 3), 3: Fraction(1), 5: Fraction(1)}], 3)


def test_invariant_metric_found_off_the_basis():
    # h1, h2 and h1 + 3 h2 are degenerate, h1 + h2 = diag(2/3, 1, 1) is not
    h1 = {0: Fraction(1), 3: Fraction(1)}  # diag(1, 1, 0)
    h2 = {0: Fraction(-1, 3), 5: Fraction(1)}  # diag(-1/3, 0, 1)
    assert _has_invariant_metric([h1, h2], 3)


def test_invariant_metric_absent_from_a_degenerate_span():
    # every combination of diag(1, 0, 0) and diag(0, 1, 0) kills e_3
    assert not _has_invariant_metric([{0: Fraction(1)}, {3: Fraction(1)}], 3)


def test_derivations_6d_n2_r_symmetry_dimension():
    # sp(2): N(2N+1) = 10 at N=2
    alg = build_standard(6, (2, 0))
    g0 = derivations_deg0(alg)
    assert g0.rho2_kernel_dim() == 10


# --- degree zero against the hand-built system ---------------------------------


def reference_derivations(alg):
    """Kernel of the degree-zero system built by hand: the reference for layer 0.

    Unknowns are A[r][c] at r*k + c and B[r][c] at k*k + r*d + c; the rows are
    B gamma(e_a, e_b) = gamma(A e_a, e_b) + gamma(e_a, A e_b) for a <= b.
    """
    k, d = alg.k, alg.d
    rows = []
    for a in range(k):
        for b in range(a, k):
            for mu in range(d):
                row = {}
                for c in range(k):
                    for idx, v in ((c * k + a, alg.gamma[c][b][mu]),
                                   (c * k + b, alg.gamma[a][c][mu])):
                        row[idx] = row.get(idx, 0) + v
                for nu in range(d):
                    idx = k * k + mu * d + nu
                    row[idx] = row.get(idx, 0) - alg.gamma[a][b][nu]
                rows.append({i: v for i, v in row.items() if v})
    return sparse_kernel(rows, k * k + d * d)


def layer_zero_in_reference_layout(g0):
    """The layer-0 basis rewritten as flat (A, B) vectors in the reference layout."""
    k, d = g0.algebra.k, g0.algebra.d
    out = []
    for act in g0.layers[0].act:
        vec = {c * k + a: v for a, img in enumerate(act[:k]) for c, v in img.items()}
        vec.update({k * k + c * d + mu: v for mu, img in enumerate(act[k:]) for c, v in img.items()})
        out.append(vec)
    return out


def assert_layer_zero_matches_reference(alg):
    g0 = derivations_deg0(alg)
    ref = reference_derivations(alg)
    ours = layer_zero_in_reference_layout(g0)
    assert sparse_rank(ref) == len(ref) == g0.dim
    assert sparse_rank(ours) == g0.dim
    assert sparse_rank(ref + ours) == g0.dim
    assert g0.verify_derivations()


@pytest.mark.parametrize("key", [
    (1, 1), (2, (1, 1)), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (4, 4),
    (6, (1, 0)), (6, (2, 0)), (10, (1, 0)),
], ids=str)
def test_layer_zero_spans_the_reference_derivations(key):
    assert_layer_zero_matches_reference(build_standard(*key))


@st.composite
def symmetric_brackets(draw):
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    gamma = [[None] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            gamma[a][b] = gamma[b][a] = draw(
                st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    return SupertranslationAlgebra("drawn", k, d, gamma)


@given(symmetric_brackets())
@settings(max_examples=40, deadline=None)
def test_layer_zero_spans_the_reference_on_drawn_brackets(alg):
    assert_layer_zero_matches_reference(alg)
