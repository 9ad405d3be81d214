import random
import re
from fractions import Fraction

import pytest

from superconf.algebras import SupertranslationAlgebra, build_standard, is_square_zero
from superconf.groebner import hilbert_series, ideal_gb
from superconf.multiplets import component_fields, conf_module, hdim
from superconf.resolutions import minimal_free_resolution
from superconf.twisting import (
    NotSquareZeroError,
    catalog_twist_vector,
    twist,
    twist_pipeline,
)


def test_twist_by_zero_is_identity():
    alg = build_standard(3, 2)
    tw = twist(alg, [0] * alg.k)
    assert tw.k == alg.k
    assert tw.d == alg.d
    # same ideal up to the recorded (identity) basis
    q0 = sorted(str(p) for p in alg.quadrics())
    q1 = sorted(str(p) for p in tw.quadrics())
    assert q0 == q1


def test_twist_rejects_non_square_zero():
    alg = build_standard(3, 1)
    with pytest.raises(NotSquareZeroError):
        twist(alg, [1, 0])


def test_hdim_invariance_on_twist_fixtures():
    cases = [
        (build_standard(3, 2), "holomorphic"),
        (build_standard(4, 1), "holomorphic"),
        (build_standard(4, 2), "holomorphic"),
        (build_standard(4, 2), "kapustin"),
        (build_standard(6, (1, 0)), "holomorphic"),
        (build_standard(6, (2, 0)), "holomorphic"),
    ]
    for alg, name in cases:
        q = catalog_twist_vector(alg, name)
        tw = twist(alg, q)
        assert hdim(alg) == hdim(tw), (alg.name, name)


def test_4d_n2_holomorphic_twist_dims_and_hdim():
    alg = build_standard(4, 2)
    q = catalog_twist_vector(alg, "holomorphic")
    tw = twist(alg, q)
    # residual superspace of the holomorphic twist: 2 even, 3 odd directions
    assert tw.d == 2
    assert tw.k == 3
    assert hdim(tw) == 1


def test_6d_n20_twisted_conf_degree_zero_dims():
    alg = build_standard(6, (2, 0))
    q = catalog_twist_vector(alg, "holomorphic")
    tw = twist(alg, q)
    _, betti = minimal_free_resolution(conf_module(tw).module)
    # fiber dimensions of the three summands: 3 + 2*3 + 3 = 12 in degree 0..
    table = component_fields(betti)
    row0 = sum(v for (r, _c), v in table.items() if r == 0)
    assert table[(0, 0)] == 3
    assert row0 == 12


def test_twist_pipeline_report():
    alg = build_standard(3, 2)
    q = catalog_twist_vector(alg, "holomorphic")
    report = twist_pipeline(alg, q, targets=("variety", "conf"))
    assert report.hdim_invariant
    assert report.hdim_twisted == 1
    assert "conf" in report.analyses and "variety" in report.analyses


def test_catalog_vectors_are_square_zero():
    for alg, name in [
        (build_standard(4, 4), "kapustin_witten"),
        (build_standard(6, (2, 0)), "nonminimal"),
        (build_standard(10, (2, 0)), "maximal"),
        (build_standard(11, 1), "nonminimal"),
        (build_standard(10, (1, 0)), "holomorphic"),
    ]:
        q = catalog_twist_vector(alg, name)
        assert is_square_zero(alg, q)


def test_twisted_6d_n20_not_conformal_type():
    # the twisted even action is general-linear in character, not orthogonal
    from superconf.algebras import check_conformal_type

    alg = build_standard(6, (2, 0))
    tw = twist(alg, catalog_twist_vector(alg, "holomorphic"))
    report = check_conformal_type(tw)
    assert report.surjective
    assert not report.conformal


def test_random_points_on_varieties_preserve_hdim():
    # coordinate search for rational square-zero points on the monomial and
    # binomial catalog varieties, then the invariance check on each
    import random

    from superconf.algebras import is_square_zero

    rng = random.Random(77)
    for key in [(4, 1), (3, 2), (6, (1, 0))]:
        alg = build_standard(*key)
        base = hdim(alg)
        found = 0
        attempts = 0
        while found < 2 and attempts < 200:
            attempts += 1
            q = [0] * alg.k
            for i in rng.sample(range(alg.k), rng.randint(1, max(1, alg.k // 2))):
                q[i] = rng.choice([1, -1, 2, Fraction(1, 2)])
            if not any(q) or not is_square_zero(alg, q):
                continue
            found += 1
            tw = twist(alg, q)
            assert hdim(tw) == base, (key, q)
        assert found >= 1, f"no rational points found on {key}"


def _change_basis(alg, seed):
    """gamma'(x, y) = Q gamma(P^T x, P^T y), with P (odd) and Q (even) lower
    unitriangular matrices with entries in {-1, 0, 1} drawn from the seed;
    returns gamma' and P."""
    rng = random.Random(seed)

    def unitriangular(n):
        return [[Fraction(int(i == j) if j >= i else rng.choice((0, 0, 1, -1))) for j in range(n)]
                for i in range(n)]

    p, q = unitriangular(alg.k), unitriangular(alg.d)
    entries = {}
    for a in range(alg.k):
        for b in range(a, alg.k):
            v = alg.bracket(p[a], p[b])
            entries[a, b] = {mu: sum(q[mu][nu] * v[nu] for nu in range(alg.d))
                             for mu in range(alg.d)}
    return SupertranslationAlgebra(f"{alg.name} rebased", alg.k, alg.d, entries), p


@pytest.mark.parametrize("dimension, susy, name", [
    (6, (2, 0), "holomorphic"),
    (4, 2, "holomorphic"),
    (4, 4, "kapustin"),
    (4, 3, "kapustin"),
])
def test_twist_after_a_change_of_basis(dimension, susy, name):
    # In the catalog basis no bracket of the twisted representatives lands on a
    # coordinate that the even quotient kills; in the new basis they do, so the
    # projection onto the quotient has to subtract.
    alg = build_standard(dimension, susy)
    q = catalog_twist_vector(alg, name)
    rebased, p = _change_basis(alg, seed=dimension * 10 + alg.k)
    # q' = P^{-T} q, by back substitution in P^T q' = q
    q_new = list(q)
    for i in reversed(range(alg.k)):
        q_new[i] = q[i] - sum(p[j][i] * q_new[j] for j in range(i + 1, alg.k))
    expected, got = twist(alg, q), twist(rebased, q_new)
    assert (got.k, got.d) == (expected.k, expected.d)

    def numerator(twisted):
        return hilbert_series(ideal_gb(twisted.ring(), twisted.quadrics())).numerator

    assert numerator(got) == numerator(expected)


TWIST_NAMES = ("holomorphic", "minimal", "kapustin", "maximal", "nonminimal", "kapustin_witten")
# catalog key -> the slots holding 1 for each name of TWIST_NAMES, None where
# no vector is cataloged; recorded from the branch-by-branch dispatch
_NONE = (None,) * 6
_TWIST_SLOTS = {
    (1, 1): _NONE,
    (1, 2): _NONE,
    (2, (1, 1)): _NONE,
    (2, (2, 0)): _NONE,
    (3, 1): _NONE,
    (3, 2): ([0],) * 6,
    (3, 3): ([0],) * 6,
    (4, 1): ([0], [0], None, None, None, None),
    (4, 2): ([0], [0]) + ([0, 6],) * 4,
    (4, 3): ([0], [0], [0, 8], None, None, None),
    (4, 4): ([0], [0], [0, 10], [0, 3, 12, 15], None, [0, 3, 12, 15]),
    (4, 5): ([0], [0], [0, 12], None, None, None),
    (6, (1, 0)): ([0], [0], None, None, None, None),
    (6, (2, 0)): ([0], [0]) + ([0, 9],) * 4,
    (6, (3, 0)): ([0], [0], None, None, None, None),
    (10, (1, 0)): ([0], [0], None, None, None, None),
    (10, (2, 0)): ([0], [0]) + ([0, 17],) * 4,
    (11, 1): (None, None) + ([0],) * 4,
}


@pytest.mark.parametrize("name", TWIST_NAMES + ("bogus",))
@pytest.mark.parametrize("key", list(_TWIST_SLOTS), ids=str)
def test_catalog_twist_vectors_are_pinned(key, name):
    alg = build_standard(*key)
    if name == "bogus":
        with pytest.raises(ValueError, match="^unknown twist name 'bogus'$"):
            catalog_twist_vector(alg, name)
        return
    slots = _TWIST_SLOTS[key][TWIST_NAMES.index(name)]
    if slots is None:
        message = f"^no {name} twist vector cataloged for {re.escape(alg.name)}$"
        with pytest.raises(ValueError, match=message):
            catalog_twist_vector(alg, name)
    else:
        assert catalog_twist_vector(alg, name) == [Fraction(int(i in slots)) for i in range(alg.k)]
