"""Supertranslation algebras: catalog, automorphisms, Jacobians.

An algebra is an odd space of dimension k, an even space of dimension d, and
a symmetric bracket tensor gamma[a][b][mu].  The catalog realizes the
standard physical algebras over Q in split/Weyl-type bases so that several
defining ideals come out monomial or binomial.

Conventions fixed here once and for all:
  * ring variables l1..lk carry weight one, the even space weight two;
  * the quadric generators are q_mu = sum_{a,b} gamma[a][b][mu] la lb, so a
    catalog bracket without 1/2 factors produces cross terms with integer
    coefficient 2;
  * the Jacobian is phi[mu][b] = sum_a 2 gamma[a][b][mu] la, the gradient of
    q_mu, and columns contracted with lambda give back 2 q;
  * for tensor-product odd spaces the flat index is u_index * dim(S) + s_index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import clifford
from .linalg import SpanSolver, sparse_kernel, sparse_rank
from .rings import GradedRing, Polynomial

_F0 = Fraction(0)
_F1 = Fraction(1)


class SupertranslationAlgebra:
    """Two-step graded super Lie algebra: odd space, even space, symmetric bracket."""

    def __init__(self, name: str, odd_dim: int, even_dim: int, gamma):
        self.name = name
        self.k = odd_dim
        self.d = even_dim
        g = tuple(
            tuple(tuple(Fraction(x) for x in gamma[a][b]) for b in range(odd_dim))
            for a in range(odd_dim)
        )
        for a in range(odd_dim):
            for b in range(odd_dim):
                if len(g[a][b]) != even_dim:
                    raise ValueError("gamma entry has wrong even dimension")
                if g[a][b] != g[b][a]:
                    raise ValueError("gamma must be symmetric in its odd indices")
        self.gamma = g
        # (dimension, susy tuple) when the algebra is a catalog entry
        self.catalog_key: tuple | None = None
        self._ring: GradedRing | None = None
        self._quadrics: list[Polynomial] | None = None

    def __repr__(self):
        return f"SupertranslationAlgebra({self.name}: {self.d}|{self.k})"

    def ring(self) -> GradedRing:
        if self._ring is None:
            self._ring = GradedRing([f"l{i + 1}" for i in range(self.k)])
        return self._ring

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
        """gamma(u, v) in even-space coordinates."""
        out = [_F0] * self.d
        for a in range(self.k):
            ua = u[a]
            if not ua:
                continue
            for b in range(self.k):
                vb = v[b]
                if not vb:
                    continue
                gab = self.gamma[a][b]
                for mu in range(self.d):
                    if gab[mu]:
                        out[mu] += gab[mu] * ua * vb
        return out

    def quadrics(self) -> list[Polynomial]:
        """The d generators la gamma lb of the nilpotence ideal (zeros kept)."""
        if self._quadrics is None:
            ring = self.ring()
            polys = []
            for mu in range(self.d):
                terms = {}
                for a in range(self.k):
                    for b in range(a, self.k):
                        c = self.gamma[a][b][mu]
                        if not c:
                            continue
                        mon = tuple(
                            (2 if i == a else 0) if a == b else (1 if i in (a, b) else 0)
                            for i in range(self.k)
                        )
                        terms[mon] = terms.get(mon, _F0) + (c if a == b else 2 * c)
                polys.append(Polynomial(ring, terms))
            self._quadrics = polys
        return self._quadrics


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def _orthogonal_form(n: int) -> list[list[int]]:
    """Split symmetric form: hyperbolic pairs, plus a lone 1 when n is odd."""
    g = [[0] * n for _ in range(n)]
    for m in range(n // 2):
        g[2 * m][2 * m + 1] = g[2 * m + 1][2 * m] = 1
    if n % 2:
        g[n - 1][n - 1] = 1
    return g


def _symplectic_form(n: int) -> list[list[int]]:
    w = [[0] * n for _ in range(n)]
    for m in range(n // 2):
        w[2 * m][2 * m + 1] = 1
        w[2 * m + 1][2 * m] = -1
    return w


def _zeros(k: int, d: int):
    return [[[Fraction(0)] * d for _ in range(k)] for _ in range(k)]


def standard_1d(n: int) -> SupertranslationAlgebra:
    gamma = _zeros(n, 1)
    for a in range(n):
        gamma[a][a][0] = Fraction(1)
    return SupertranslationAlgebra(f"1d N={n}", n, 1, gamma)


def standard_2d(nl: int, nr: int) -> SupertranslationAlgebra:
    k = nl + nr
    gamma = _zeros(k, 2)
    for a in range(nl):
        gamma[a][a][0] = Fraction(1)
    for a in range(nl, k):
        gamma[a][a][1] = Fraction(1)
    return SupertranslationAlgebra(f"2d N=({nl},{nr})", k, 2, gamma)


def _sym2_index(a: int, b: int, n: int) -> int:
    """Index of the unordered pair (a, b) among pairs (i <= j) of n letters."""
    a, b = min(a, b), max(a, b)
    return a * n - a * (a - 1) // 2 + (b - a)


def standard_3d(n: int) -> SupertranslationAlgebra:
    g = _orthogonal_form(n)
    k = 2 * n
    gamma = _zeros(k, 3)
    for i in range(n):
        for j in range(n):
            if not g[i][j]:
                continue
            for a in range(2):
                for b in range(2):
                    x = i * 2 + a
                    y = j * 2 + b
                    mu = _sym2_index(a, b, 2)
                    gamma[x][y][mu] += Fraction(g[i][j])
    return SupertranslationAlgebra(f"3d N={n}", k, 3, gamma)


def standard_4d(n: int) -> SupertranslationAlgebra:
    # odd space: chiral block (i*2 + alpha), then antichiral block offset 2n
    k = 4 * n
    gamma = _zeros(k, 4)
    for i in range(n):
        for alpha in range(2):
            for beta in range(2):
                x = i * 2 + alpha
                y = 2 * n + i * 2 + beta
                mu = alpha * 2 + beta
                gamma[x][y][mu] += Fraction(1)
                gamma[y][x][mu] += Fraction(1)
    return SupertranslationAlgebra(f"4d N={n}", k, 4, gamma)


def standard_6d(n: int) -> SupertranslationAlgebra:
    w = _symplectic_form(2 * n)
    k = 8 * n
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    gamma = _zeros(k, 6)
    for i in range(2 * n):
        for j in range(2 * n):
            if not w[i][j]:
                continue
            for a in range(4):
                for b in range(4):
                    if a == b:
                        continue
                    x = i * 4 + a
                    y = j * 4 + b
                    if a < b:
                        mu = pairs.index((a, b))
                        sgn = 1
                    else:
                        mu = pairs.index((b, a))
                        sgn = -1
                    gamma[x][y][mu] += Fraction(sgn * w[i][j])
    return SupertranslationAlgebra(f"6d N=({n},0)", k, 6, gamma)


def standard_10d(n: int) -> SupertranslationAlgebra:
    g10 = clifford.gamma_10d_chiral()
    if n == 1:
        gamma = _zeros(16, 10)
        for a in range(16):
            for b in range(16):
                for mu in range(10):
                    gamma[a][b][mu] = Fraction(g10[mu][a][b])
        return SupertranslationAlgebra("10d N=(1,0)", 16, 10, gamma)
    if n == 2:
        g = _orthogonal_form(2)
        gamma = _zeros(32, 10)
        for i in range(2):
            for j in range(2):
                if not g[i][j]:
                    continue
                for a in range(16):
                    for b in range(16):
                        x = i * 16 + a
                        y = j * 16 + b
                        for mu in range(10):
                            if g10[mu][a][b]:
                                gamma[x][y][mu] += Fraction(g[i][j] * g10[mu][a][b])
        return SupertranslationAlgebra("10d N=(2,0)", 32, 10, gamma)
    raise ValueError("ten dimensions supports N=(1,0) and N=(2,0)")


def standard_11d() -> SupertranslationAlgebra:
    g11 = clifford.gamma_11d()
    gamma = _zeros(32, 11)
    for a in range(32):
        for b in range(32):
            for mu in range(11):
                gamma[a][b][mu] = Fraction(g11[mu][a][b])
    return SupertranslationAlgebra("11d N=1", 32, 11, gamma)


def _parse_susy(dimension: int, susy) -> tuple:
    """Normalize a supersymmetry specifier to the catalog key tuple."""
    if isinstance(susy, str):
        text = susy.strip().replace(" ", "")
        if text.upper().startswith("N="):
            text = text[2:]
        if text.startswith("(") and text.endswith(")"):
            parts = text[1:-1].split(",")
            return tuple(int(p) for p in parts)
        return (int(text),)
    if isinstance(susy, int):
        return (susy,)
    return tuple(int(x) for x in susy)


def build_standard(dimension: int, susy) -> SupertranslationAlgebra:
    """Catalog lookup; raises ValueError on unsupported keys.

    The result carries `catalog_key` = (dimension, susy tuple), with chiral
    six- and ten-dimensional keys written as (N, 0).
    """
    key = _parse_susy(dimension, susy)
    if dimension in (6, 10) and len(key) == 1:
        key += (0,)
    if dimension == 1 and len(key) == 1 and key[0] >= 1:
        alg = standard_1d(key[0])
    elif dimension == 2 and len(key) == 2:
        alg = standard_2d(*key)
    elif dimension == 3 and len(key) == 1 and key[0] >= 1:
        alg = standard_3d(key[0])
    elif dimension == 4 and len(key) == 1 and key[0] >= 1:
        alg = standard_4d(key[0])
    elif dimension == 6 and key in ((1, 0), (2, 0), (3, 0)):
        alg = standard_6d(key[0])
    elif dimension == 10 and key in ((1, 0), (2, 0)):
        alg = standard_10d(key[0])
    elif dimension == 11 and key == (1,):
        alg = standard_11d()
    else:
        raise ValueError(f"unsupported catalog key: dimension {dimension}, susy {susy!r}")
    alg.catalog_key = (dimension, key)
    return alg


# ---------------------------------------------------------------------------
# Degree-zero derivations
# ---------------------------------------------------------------------------


@dataclass
class AutomorphismAlgebra:
    """Basis of degree-zero derivation pairs (A, B) with derived data."""

    algebra: SupertranslationAlgebra
    basis: list  # list of (A, B); A is k x k, B is d x d, tuples of Fractions

    def __post_init__(self):
        self._solver: SpanSolver | None = None
        self._structure: dict = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def rho1(self, i: int):
        return self.basis[i][0]

    def _flatten(self, pair) -> dict[int, Fraction]:
        k, d = self.algebra.k, self.algebra.d
        A, B = pair
        out: dict[int, Fraction] = {}
        for r in range(k):
            for c in range(k):
                if A[r][c]:
                    out[r * k + c] = A[r][c]
        for r in range(d):
            for c in range(d):
                if B[r][c]:
                    out[k * k + r * d + c] = B[r][c]
        return out

    def solver(self) -> SpanSolver:
        if self._solver is None:
            self._solver = SpanSolver()
            for i, pair in enumerate(self.basis):
                if not self._solver.add(self._flatten(pair), i):
                    raise AssertionError("derivation basis is linearly dependent")
        return self._solver

    def coords_of(self, pair) -> dict | None:
        return self.solver().solve(self._flatten(pair))

    def bracket_coords(self, i: int, j: int) -> dict:
        """Coordinates of [basis_i, basis_j] in the basis; derivations close."""
        key = (i, j)
        hit = self._structure.get(key)
        if hit is not None:
            return hit
        Ai, Bi = self.basis[i]
        Aj, Bj = self.basis[j]
        A = _commutator(Ai, Aj)
        B = _commutator(Bi, Bj)
        coords = self.coords_of((A, B))
        if coords is None:
            raise AssertionError("derivations failed to close under commutator")
        self._structure[key] = coords
        return coords

    def rho2_image_dim(self) -> int:
        k, d = self.algebra.k, self.algebra.d
        rows = []
        for _, B in self.basis:
            row = {}
            for r in range(d):
                for c in range(d):
                    if B[r][c]:
                        row[r * d + c] = B[r][c]
            rows.append(row)
        return sparse_rank(rows)

    def rho2_kernel_dim(self) -> int:
        return self.dim - self.rho2_image_dim()

    def contains_grading_element(self) -> bool:
        k, d = self.algebra.k, self.algebra.d
        A = tuple(tuple(_F1 if r == c else _F0 for c in range(k)) for r in range(k))
        B = tuple(tuple(Fraction(2) if r == c else _F0 for c in range(d)) for r in range(d))
        return self.coords_of((A, B)) is not None

    def verify_derivations(self) -> bool:
        """Recheck B gamma(s,t) = gamma(As,t) + gamma(s,At) on every basis pair."""
        alg = self.algebra
        k, d = alg.k, alg.d
        for A, B in self.basis:
            for a in range(k):
                for b in range(a, k):
                    lhs = [
                        sum(B[mu][nu] * alg.gamma[a][b][nu] for nu in range(d))
                        for mu in range(d)
                    ]
                    rhs = [_F0] * d
                    for c in range(k):
                        if A[c][a]:
                            for mu in range(d):
                                rhs[mu] += A[c][a] * alg.gamma[c][b][mu]
                        if A[c][b]:
                            for mu in range(d):
                                rhs[mu] += A[c][b] * alg.gamma[a][c][mu]
                    if lhs != rhs:
                        return False
        return True


def _commutator(X, Y):
    n = len(X)
    out = [[_F0] * n for _ in range(n)]
    for r in range(n):
        for m in range(n):
            x = X[r][m]
            y = Y[r][m]
            if x:
                for c in range(n):
                    if Y[m][c]:
                        out[r][c] += x * Y[m][c]
            if y:
                for c in range(n):
                    if X[m][c]:
                        out[r][c] -= y * X[m][c]
    return tuple(tuple(row) for row in out)


def derivations_deg0(alg: SupertranslationAlgebra) -> AutomorphismAlgebra:
    """Solve B gamma(s,t) = gamma(As,t) + gamma(s,At) for pairs (A, B)."""
    k, d = alg.k, alg.d
    nunk = k * k + d * d
    rows = []
    for a in range(k):
        for b in range(a, k):
            for mu in range(d):
                row: dict[int, Fraction] = {}
                for c in range(k):
                    v = alg.gamma[c][b][mu]
                    if v:
                        idx = c * k + a
                        row[idx] = row.get(idx, _F0) + v
                    v = alg.gamma[a][c][mu]
                    if v:
                        idx = c * k + b
                        row[idx] = row.get(idx, _F0) + v
                for nu in range(d):
                    v = alg.gamma[a][b][nu]
                    if v:
                        idx = k * k + mu * d + nu
                        row[idx] = row.get(idx, _F0) - v
                if row:
                    rows.append(row)
    vecs = sparse_kernel(rows, nunk)
    basis = []
    for v in vecs:
        A = [[_F0] * k for _ in range(k)]
        B = [[_F0] * d for _ in range(d)]
        for idx, val in v.items():
            if idx < k * k:
                A[idx // k][idx % k] = val
            else:
                r = (idx - k * k) // d
                B[r][(idx - k * k) % d] = val
        basis.append((tuple(tuple(r) for r in A), tuple(tuple(r) for r in B)))
    return AutomorphismAlgebra(alg, basis)


# ---------------------------------------------------------------------------
# Jacobian pair, square-zero test, conformal-type report
# ---------------------------------------------------------------------------


@dataclass
class JacobianPair:
    """phi[mu][b] = sum_a 2 gamma[a][b][mu] la, and its transpose."""

    phi: list
    phi_t: list


def jacobian(alg: SupertranslationAlgebra) -> JacobianPair:
    ring = alg.ring()
    k, d = alg.k, alg.d
    phi = []
    for mu in range(d):
        row = []
        for b in range(k):
            terms = {}
            for a in range(k):
                c = alg.gamma[a][b][mu]
                if c:
                    mon = tuple(1 if i == a else 0 for i in range(k))
                    terms[mon] = terms.get(mon, _F0) + 2 * c
            row.append(Polynomial(ring, terms))
        phi.append(row)
    phi_t = [[phi[mu][b] for mu in range(d)] for b in range(k)]
    return JacobianPair(phi, phi_t)


def is_square_zero(alg: SupertranslationAlgebra, q: Sequence) -> bool:
    vec = [Fraction(x) for x in q]
    if len(vec) != alg.k:
        raise ValueError("point has wrong odd dimension")
    return all(not v for v in alg.bracket(vec, vec))


@dataclass
class ConformalTypeReport:
    surjective: bool
    rho2_image_dim: int
    expected_image_dim: int
    has_invariant_metric: bool
    conformal: bool
    g0_dim: int
    r_symmetry_dim: int


def check_conformal_type(
    alg: SupertranslationAlgebra, g0: AutomorphismAlgebra | None = None
) -> ConformalTypeReport:
    """Surjectivity of the bracket plus the shape test on the even action.

    Conformal type means the even action is exactly an orthogonal algebra
    plus the grading line: there must be a symmetric nondegenerate form h
    with B^T h + h B proportional to h for every B in the image, and the
    image dimension must be d(d-1)/2 + 1.
    """
    if g0 is None:
        g0 = derivations_deg0(alg)
    k, d = alg.k, alg.d
    rows = []
    for a in range(k):
        for b in range(a, k):
            row = {}
            for mu in range(d):
                v = alg.gamma[a][b][mu]
                if v:
                    row[mu] = v
            if row:
                rows.append(row)
    surjective = sparse_rank(rows) == d
    image_dim = g0.rho2_image_dim()
    expected = d * (d - 1) // 2 + 1
    # Solve B^T h + h B = (2 tr B / d) h for symmetric h, over all basis B.
    pair_index = {}
    idx = 0
    for r in range(d):
        for c in range(r, d):
            pair_index[(r, c)] = idx
            idx += 1
    h_rows = []
    for _, B in g0.basis:
        tr = sum(B[i][i] for i in range(d))
        for r in range(d):
            for c in range(r, d):
                row: dict[int, Fraction] = {}

                def bump(i, j, val):
                    if not val:
                        return
                    key = pair_index[(min(i, j), max(i, j))]
                    w = row.get(key, _F0) + val
                    if w:
                        row[key] = w
                    elif key in row:
                        del row[key]

                for m in range(d):
                    bump(m, c, B[m][r])
                    bump(r, m, B[m][c])
                bump(r, c, -2 * tr / d)
                if row:
                    h_rows.append(row)
    nunk = d * (d + 1) // 2
    sols = sparse_kernel(h_rows, nunk)
    has_metric = False
    for trial in _metric_trials(sols):
        h: list[dict[int, Fraction]] = [{} for _ in range(d)]
        for (r, c), i in pair_index.items():
            if trial.get(i):
                h[r][c] = h[c][r] = trial[i]
        if sparse_rank(h) == d:
            has_metric = True
            break
    conformal = surjective and image_dim == expected and has_metric
    return ConformalTypeReport(
        surjective,
        image_dim,
        expected,
        has_metric,
        conformal,
        g0.dim,
        g0.rho2_kernel_dim(),
    )


def _metric_trials(sols):
    for v in sols:
        yield v
    if len(sols) > 1:
        combo: dict[int, Fraction] = {}
        weight = 1
        for v in sols:
            for i, val in v.items():
                combo[i] = combo.get(i, _F0) + weight * val
            weight *= 3
        yield combo
