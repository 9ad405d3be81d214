import random
from fractions import Fraction

import pytest

from superconf.algebras import SupertranslationAlgebra, build_standard, derivations_deg0
from superconf.linalg import rref
from superconf.prolongation import (
    ProlongationBrackets,
    derivation_complex_h0,
    tanaka_prolongation,
)


def abelian(k, d):
    gamma = [[[Fraction(0)] * d for _ in range(k)] for _ in range(k)]
    return SupertranslationAlgebra("abelian", k, d, gamma)


def nonzero(vec):
    return {c: v for c, v in vec.items() if v}


class RrefSolver:
    """Coordinates over independent vectors from one `rref` of the rows
    (vector, tag): tag column (2, x) of vector x sorts after every vector
    column (0, ...) or (1, ...), so each row with a vector pivot records the
    combination of vectors it is."""

    def __init__(self, vecs):
        red = rref({**vec, (2, x): 1} for x, vec in enumerate(vecs))
        self.rows = {p: row for p, row in red.items() if p[0] < 2}
        assert len(self.rows) == len(vecs), "vectors not independent"

    def solve(self, vec):
        rest, coords = dict(vec), {}
        for p, row in self.rows.items():
            f = rest.get(p)
            if f:
                for c, v in row.items():
                    if c[0] == 2:
                        coords[c[1]] = coords.get(c[1], 0) + f * v
                    else:
                        rest[c] = rest.get(c, 0) - f * v
        return None if any(rest.values()) else nonzero(coords)


class RecursiveBrackets:
    """The bracket re-derived recursively on every call: the reference.

    It reads only the stored actions of each layer and solves for coordinates
    with its own `RrefSolver`s, keyed by (0, a, c) for [x, e_a] and (1, mu, c)
    for [x, v_mu], so it shares no table, no flat layout and no solve with the
    engine.
    """

    def __init__(self, res):
        self.alg, self.layers = res.algebra, res.layers
        k = self.alg.k
        self.solvers = {m: RrefSolver([self.keyed(act[:k], act[k:]) for act in layer.act])
                        for m, layer in self.layers.items() if m >= 0}

    @staticmethod
    def keyed(act_s, act_v):
        flat = {(0, a, c): v for a, img in enumerate(act_s) for c, v in img.items()}
        flat.update({(1, mu, c): v for mu, img in enumerate(act_v) for c, v in img.items()})
        return flat

    def act(self, m, x, g):
        """[x, g] for x in layer m and generator g: e_g for g < k, else v_{g-k}."""
        out = {}
        for p, xp in x.items():
            for c, v in self.layers[m].act[p][g].items():
                out[c] = out.get(c, 0) + xp * v
        return nonzero(out)

    def bracket(self, i, x, j, y):
        if i + j < -2 or not x or not y:
            return {}
        sign = 1 if i % 2 and j % 2 else -1  # [x, y] = sign [y, x]
        if i > j:
            return {c: sign * v for c, v in self.bracket(j, y, i, x).items()}
        if i < 0:
            first = 0 if i == -1 else self.alg.k
            out = {}
            for p, xp in x.items():
                for c, v in self.act(j, y, first + p).items():
                    out[c] = out.get(c, 0) + sign * xp * v
            return nonzero(out)
        acts = []
        for first, n, shift in ((0, self.alg.k, 1), (self.alg.k, self.alg.d, 2)):
            acts.append([])
            for a in range(first, first + n):
                out = self.bracket(i, x, j - shift, self.act(j, y, a))
                for c, v in self.bracket(j, y, i - shift, self.act(i, x, a)).items():
                    out[c] = out.get(c, 0) + sign * v
                acts[-1].append(nonzero(out))
        flat = self.keyed(*acts)
        if not flat:
            return {}
        coords = self.solvers[i + j].solve(flat)
        assert coords is not None, "bracket outside its layer"
        return coords


def test_3d_n1_prolongation():
    alg = build_standard(3, 1)
    res = tanaka_prolongation(alg, max_degree=6)
    assert res.dims == {-2: 3, -1: 2, 0: 4, 1: 2, 2: 3}
    assert res.status == "terminated"
    assert res.total_even() == 10
    assert res.total_odd() == 4


@pytest.mark.parametrize("key, cap, degrees", [
    ((3, 1), 4, [-2, -1, 0, 1, 2]),
    ((4, 2), 3, [-2, -1, 0, 1]),
    ((6, (1, 0)), 3, [-2, -1, 0]),
], ids=["3d-n1", "4d-n2", "6d-n10"])
def test_jacobi_identity(key, cap, degrees):
    alg = build_standard(*key)
    res = tanaka_prolongation(alg, max_degree=cap)
    br = ProlongationBrackets(alg, res)
    assert br.check_jacobi(degrees)


def test_jacobi_check_fails_on_a_perturbed_action():
    alg = build_standard(3, 1)
    res = tanaka_prolongation(alg, max_degree=4)
    act = res.layers[1].act[0][0]
    key = min(act)
    act[key] += 1
    assert ProlongationBrackets(alg, res).check_jacobi([-2, -1, 0, 1, 2]) is False


@pytest.mark.parametrize("key", [(3, 1), (4, 1)], ids=["3d-n1", "4d-n1"])
def test_tabulated_bracket_matches_recursive_reference(key):
    alg = build_standard(*key)
    res = tanaka_prolongation(alg, max_degree=4)
    assert res.status == "terminated"
    table, ref = ProlongationBrackets(alg, res), RecursiveBrackets(res)
    rng = random.Random(20261018)
    degrees = sorted(m for m, n in res.dims.items() if n)

    def vector(m):
        return nonzero({p: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for p in range(res.dims[m])})

    for i in degrees:
        for j in degrees:
            for _ in range(2):
                x, y = vector(i), vector(j)
                assert table.bracket(i, x, j, y) == ref.bracket(i, x, j, y), (i, j)


def test_3d_n1_degree_zero_matches_g0():
    alg = build_standard(3, 1)
    g0 = derivations_deg0(alg)
    res = tanaka_prolongation(alg, max_degree=2)
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


@pytest.mark.parametrize("dimension, susy, dims", [
    (2, (1, 1), [2, 2, 2, 2, 2]),
    (3, 2, [3, 4, 5, 4, 3]),
    (4, 1, [4, 4, 8, 4, 4]),
])
def test_oracle_with_lambda_images_matches_prolongation(dimension, susy, dims):
    # unlike 1d N=1, these algebras give the oracle nonzero lambda images,
    # which it decomposes against the derivations of the quotient
    alg = build_standard(dimension, susy)
    res = tanaka_prolongation(alg, max_degree=2)
    h0 = derivation_complex_h0(alg, 2)
    assert [res.dims.get(m, 0) for m in range(-2, 3)] == dims
    assert [sum(h0.get(m, (0, 0))) for m in range(-2, 3)] == dims
