"""Supertranslation algebras: catalog, derivation layers, Jacobians.

An algebra is an odd space of dimension k, an even space of dimension d, and
a symmetric bracket tensor gamma[a][b][mu].  The catalog realizes the
standard physical algebras over Q in split/Weyl-type bases so that several
defining ideals come out monomial or binomial.

The derivations are graded in layers.  Layers -2 and -1 are the even and odd
spaces; each element of a layer m >= 0 is stored as its action on the
generators, one table, and the layer is solved from the layers below by one
derivation identity over pairs of generators.  Degree zero, the derivations
g0, is solved here and read by the conformal-type report and by twisting;
`prolongation` extends the same layers to positive degrees.

Conventions fixed here once and for all:
  * ring variables l1..lk have degree one, the even space degree two;
  * the quadric generators are q_mu = sum_{a,b} gamma[a][b][mu] la lb, so a
    catalog bracket without 1/2 factors produces cross terms with integer
    coefficient 2;
  * the Jacobian is phi[mu][b] = sum_a 2 gamma[a][b][mu] la, the gradient of
    q_mu, and columns contracted with lambda give back 2 q;
  * for tensor-product odd spaces the flat index is u_index * dim(S) + s_index,
    set once in `_tensor`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, combinations_with_replacement, product
from typing import Sequence

from . import clifford
from .linalg import SpanSolver, sparse_kernel, sparse_rank
from .rings import GradedRing, ModuleElement

_F0 = Fraction(0)
_F1 = Fraction(1)


class SupertranslationAlgebra:
    """Two-step graded super Lie algebra: odd space, even space, symmetric bracket."""

    def __init__(self, name: str, odd_dim: int, even_dim: int, gamma):
        self.name = name
        self.k = odd_dim
        self.d = even_dim
        g = tuple(
            tuple(
                tuple(x if isinstance(x, Fraction) else Fraction(x) for x in gamma[a][b])
                for b in range(odd_dim)
            )
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
        self._quadrics: list[ModuleElement] | None = None

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

    def quadrics(self) -> list[ModuleElement]:
        """The d generators la gamma lb of the nilpotence ideal (zeros kept)."""
        if self._quadrics is None:
            ring = self.ring()
            var = ring.var_terms
            polys = []
            for mu in range(self.d):
                terms = {}
                for a in range(self.k):
                    for b in range(a, self.k):
                        c = self.gamma[a][b][mu]
                        if not c:
                            continue
                        t = var[a] + var[b]
                        terms[t] = terms.get(t, _F0) + (c if a == b else 2 * c)
                polys.append(ring.element(terms))
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
    return [[[_F0] * d for _ in range(k)] for _ in range(k)]


def _tensor(name: str, form, pairing) -> SupertranslationAlgebra:
    """The bracket form (x) pairing on the odd space U (x) S.

    gamma[i*s + a][j*s + b][mu] = form[i][j] * pairing[mu][a][b] with
    s = dim S; each slot receives exactly one product.
    """
    n, d, s = len(form), len(pairing), len(pairing[0])
    entries = [(a, b, mu, v) for mu, m in enumerate(pairing)
               for a, row in enumerate(m) for b, v in enumerate(row) if v]
    gamma = _zeros(n * s, d)
    for i, row in enumerate(form):
        for j, f in enumerate(row):
            if f:
                for a, b, mu, v in entries:
                    gamma[i * s + a][j * s + b][mu] = Fraction(f * v)
    return SupertranslationAlgebra(name, n * s, d, gamma)


def standard_1d(n: int) -> SupertranslationAlgebra:
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return _tensor(f"1d N={n}", identity, [[[1]]])


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
    sym2 = [[[int(_sym2_index(a, b, 2) == mu) for b in range(2)] for a in range(2)]
            for mu in range(3)]
    return _tensor(f"3d N={n}", _orthogonal_form(n), sym2)


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
    wedge2 = [[[0] * 4 for _ in range(4)] for _ in range(6)]
    for mu, (a, b) in enumerate(combinations(range(4), 2)):
        wedge2[mu][a][b], wedge2[mu][b][a] = 1, -1
    return _tensor(f"6d N=({n},0)", _symplectic_form(2 * n), wedge2)


def standard_10d(n: int) -> SupertranslationAlgebra:
    if n not in (1, 2):
        raise ValueError("ten dimensions supports N=(1,0) and N=(2,0)")
    return _tensor(f"10d N=({n},0)", _orthogonal_form(n), clifford.gamma_10d_chiral())


def standard_11d() -> SupertranslationAlgebra:
    return _tensor("11d N=1", _orthogonal_form(1), clifford.gamma_11d())


def _parse_susy(susy) -> tuple:
    """Normalize a supersymmetry specifier to the catalog key tuple, () if malformed."""
    if isinstance(susy, str):
        text = susy.strip().replace(" ", "")
        if text.upper().startswith("N="):
            text = text[2:]
        parts = text[1:-1].split(",") if text.startswith("(") and text.endswith(")") else [text]
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            return ()
    if isinstance(susy, int):
        return (susy,)
    return tuple(int(x) for x in susy)


def build_standard(dimension: int, susy) -> SupertranslationAlgebra:
    """Catalog lookup; raises ValueError on unsupported keys.

    The result carries `catalog_key` = (dimension, susy tuple), with chiral
    six- and ten-dimensional keys written as (N, 0).
    """
    key = _parse_susy(susy)
    if dimension in (6, 10) and len(key) == 1:
        key += (0,)
    if dimension == 1 and len(key) == 1 and key[0] >= 1:
        alg = standard_1d(key[0])
    elif dimension == 2 and len(key) == 2 and min(key) >= 0:
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
# Derivation layers: degree zero here, the positive degrees in `prolongation`
# ---------------------------------------------------------------------------


class _Layer:
    """One graded piece: the action of each basis element on the generators.

    act[x][g] is [x, g] for generator g of the negative part: for g < k the
    odd e_g, in coordinates of the layer one below; for g = k + mu the even
    v_mu, two layers below.  Layers -2 and -1 hold the base algebra, with
    gamma as the action of layer -1 on the odd generators.  A degree-m element
    x is exactly one for which ad x is a derivation:

        [x, [g, h]] = [[x, g], h] + eps [[x, h], g],

    eps = +1 for two odd generators and -1 otherwise, and [g, h] is
    gamma(e_g, e_h) for two odd ones, else 0.  A degree-zero element is a pair
    (A, B) with act[x][a] = {c: A[c][a]} and act[x][k + mu] = {c: B[c][mu]}.
    Values are `int | Fraction`, a Fraction only where the denominator
    exceeds 1.
    """

    __slots__ = ("dim", "act", "solver")

    def __init__(self, dim, act, solver=None):
        self.dim = dim
        self.act = act
        self.solver = solver


def _offsets(layers: dict, m: int) -> list[int]:
    """The flat layout of an element x of degree m >= 0, given by its actions.

    Coordinate c of [x, g] sits at offsets[g] + c: the prefix sums of the
    block sizes, the dimension of layer m-1 for each odd generator and of
    layer m-2 for each even one.  The last entry is the number of
    coordinates.  Layer m's solver holds its basis in this layout.
    """
    sizes = [layers[m - 1].dim] * layers[-1].dim + [layers[m - 2].dim] * layers[-2].dim
    return list(accumulate(sizes, initial=0))


def _flatten(layers: dict, m: int, act: list) -> dict:
    offsets = _offsets(layers, m)
    return {offsets[g] + c: v for g, img in enumerate(act) for c, v in img.items()}


def _exact(v):
    """v as an int when it is integral, else unchanged."""
    return v.numerator if v.denominator == 1 else v


def _negative_layers(alg: SupertranslationAlgebra) -> dict:
    k, d = alg.k, alg.d
    return {
        -2: _Layer(d, [[{} for _ in range(k + d)] for _ in range(d)]),
        -1: _Layer(
            k,
            [[{mu: _exact(g) for mu, g in enumerate(alg.gamma[a][b]) if g} for b in range(k)]
             + [{} for _ in range(d)] for a in range(k)],
        ),
    }


def _solve_layer(alg: SupertranslationAlgebra, layers: dict, m: int) -> _Layer:
    """Linear solve for degree m >= 0 from the layers below.

    The unknowns are the flat coordinates of a degree-m element.  Each pair of
    generators g <= h (g = h only for odd g) gives the derivation identity of
    `_Layer` as one row per target coordinate c of
    [[x, g], h] + eps [[x, h], g] - [x, [g, h]].  At m = 0 only the odd pairs
    give rows, B gamma(s,t) = gamma(As,t) + gamma(s,At), because layers -1 and
    -2 act trivially on the even generators.

    With [x, g] = sum_y x_gy y over the basis y of its layer, row (g, h, c)
    has the entry [y, h]_c at unknown x_gy, eps [y, g]_c at x_hy, and
    -gamma(g, h)_mu at the unknown of [x, v_mu] at c.  So each lower layer's
    action on a generator t is transposed once per solve, into lists
    tr[c] = [(y, [y, t]_c)], and each row is built straight from two of them.
    Rows are built one at a time as `sparse_kernel` pulls them, none after
    every unknown is a pivot.  Odd-even pairs come first, then even-even, then
    odd-odd, to raise the rank sooner; the basis is read off the RREF of the
    row span, whatever the order.
    """
    k, d = alg.k, alg.d
    offsets = _offsets(layers, m)
    shift = [1] * k + [2] * d  # minus the degree of each generator
    pairs = chain(product(range(k), range(k, k + d)), combinations(range(k, k + d), 2),
                  combinations_with_replacement(range(k), 2))
    tables: dict[tuple[int, int], list] = {}

    def transposed(s: int, t: int) -> list:
        """tr[c] = [(y, [y, t]_c)] over the layer that [x, s] lies in."""
        key = (shift[s], t)
        if key not in tables:
            target = layers.get(m - shift[s] - shift[t])
            tables[key] = tr = [[] for _ in range(target.dim if target else 0)]
            for y, per in enumerate(layers[m - shift[s]].act):
                for c, v in per[t].items():
                    tr[c].append((y, v))
        return tables[key]

    def rows():
        for g, h in pairs:
            # -[x, [g, h]], [[x, g], h] and eps [[x, h], g]; the last two coincide if g = h
            gam = ([(offsets[k + mu], -v) for mu, v in layers[-1].act[g][h].items()]
                   if h < k else [])
            og, oh, eps = offsets[g], offsets[h], -1 if h >= k else 1
            for c, (at_g, at_h) in enumerate(zip(transposed(g, h), transposed(h, g))):
                if not (at_g or at_h or gam):
                    continue
                row = {}
                for o, v in gam:
                    row[o + c] = v
                if g == h:
                    for y, v in at_g:
                        row[og + y] = 2 * v
                else:
                    for y, v in at_g:
                        row[og + y] = v
                    for y, v in at_h:
                        row[oh + y] = eps * v
                yield row

    vecs = sparse_kernel(rows(), offsets[-1])
    act = []
    for x, vec in enumerate(vecs):
        act.append([{} for _ in range(k + d)])
        for i in sorted(vec):
            g = bisect_right(offsets, i) - 1
            act[x][g][i - offsets[g]] = _exact(vec[i])
    return _Layer(len(vecs), act, SpanSolver(vecs))


@dataclass
class AutomorphismAlgebra:
    """The degree-zero derivations g0: layer 0 above the layers -2 and -1."""

    algebra: SupertranslationAlgebra
    layers: dict  # degree -> _Layer, degrees -2, -1, 0

    @property
    def dim(self) -> int:
        return self.layers[0].dim

    def odd_orbit(self, q: Sequence[Fraction]) -> list[dict[int, Fraction]]:
        """A q for each basis pair (A, B), sparse; they span the g0-orbit of q."""
        orbit = []
        for act in self.layers[0].act:
            out: dict[int, Fraction] = {}
            for a, img in enumerate(act[:self.algebra.k]):
                for c, v in img.items():
                    out[c] = out.get(c, _F0) + v * q[a]
            orbit.append({c: v for c, v in out.items() if v})
        return orbit

    def rho2_image_dim(self) -> int:
        k = self.algebra.k
        return sparse_rank([_flatten(self.layers, 0, [{}] * k + act[k:])
                            for act in self.layers[0].act])

    def rho2_kernel_dim(self) -> int:
        return self.dim - self.rho2_image_dim()

    def contains_grading_element(self) -> bool:
        k, d = self.algebra.k, self.algebra.d
        grading = _flatten(
            self.layers, 0, [{a: _F1} for a in range(k)] + [{mu: Fraction(2)} for mu in range(d)]
        )
        return self.layers[0].solver.solve(grading) is not None

    def verify_derivations(self) -> bool:
        """Recheck B gamma(s,t) = gamma(As,t) + gamma(s,At) on every basis pair.

        Reads the stored actions against gamma, independently of the solve.
        """
        gamma = self.algebra.gamma
        k, d = self.algebra.k, self.algebra.d
        layer = self.layers[0]
        for act in layer.act:
            for a in range(k):
                for b in range(a, k):
                    lhs = [_F0] * d
                    for mu, g in enumerate(gamma[a][b]):
                        for c, v in act[k + mu].items():
                            lhs[c] += g * v
                    rhs = [_F0] * d
                    for s, t in ((a, b), (b, a)):
                        for c, v in act[s].items():
                            for mu, g in enumerate(gamma[c][t]):
                                rhs[mu] += v * g
                    if lhs != rhs:
                        return False
        return True


def derivations_deg0(alg: SupertranslationAlgebra) -> AutomorphismAlgebra:
    """Solve B gamma(s,t) = gamma(As,t) + gamma(s,At) for pairs (A, B).

    This is the layer solve at degree 0; `prolongation.tanaka_prolongation`
    extends the same layers upward.
    """
    layers = _negative_layers(alg)
    layers[0] = _solve_layer(alg, layers, 0)
    return AutomorphismAlgebra(alg, layers)


# ---------------------------------------------------------------------------
# Jacobian, square-zero test, conformal-type report
# ---------------------------------------------------------------------------


def jacobian(alg: SupertranslationAlgebra) -> list[list[ModuleElement]]:
    """phi[mu][b] = sum_a 2 gamma[a][b][mu] la, the gradient of q_mu."""
    ring = alg.ring()
    k, d = alg.k, alg.d
    var = ring.var_terms
    phi = []
    for mu in range(d):
        row = []
        for b in range(k):
            terms = {}
            for a in range(k):
                c = alg.gamma[a][b][mu]
                if c:
                    terms[var[a]] = terms.get(var[a], _F0) + 2 * c
            row.append(ring.element(terms))
        phi.append(row)
    return phi


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
    r_symmetry_dim: int


def _spans_even(alg: SupertranslationAlgebra) -> bool:
    """Whether the bracket is surjective: the gamma(e_a, e_b) span the even space."""
    rows = []
    for a in range(alg.k):
        for b in range(a, alg.k):
            row = {mu: v for mu, v in enumerate(alg.gamma[a][b]) if v}
            if row:
                rows.append(row)
    return sparse_rank(rows) == alg.d


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
    surjective = _spans_even(alg)
    image_dim = g0.rho2_image_dim()
    expected = d * (d - 1) // 2 + 1
    # Solve B^T h + h B = (2 tr B / d) h for symmetric h, over all basis B.
    h_rows = []
    for even in (act[k:] for act in g0.layers[0].act):
        shift = Fraction(-2 * sum(even[i].get(i, 0) for i in range(d)), d) if d else _F0
        for r in range(d):
            for c in range(r, d):
                row: dict[int, Fraction] = {}

                def bump(i, j, val):
                    if not val:
                        return
                    key = _sym2_index(i, j, d)
                    w = row.get(key, _F0) + val
                    if w:
                        row[key] = w
                    elif key in row:
                        del row[key]

                for m, v in even[r].items():
                    bump(m, c, v)
                for m, v in even[c].items():
                    bump(r, m, v)
                bump(r, c, shift)
                if row:
                    h_rows.append(row)
    has_metric = _has_invariant_metric(sparse_kernel(h_rows, d * (d + 1) // 2), d)
    conformal = surjective and image_dim == expected and has_metric
    return ConformalTypeReport(
        surjective,
        image_dim,
        expected,
        has_metric,
        conformal,
        g0.dim - image_dim,
    )


def _has_invariant_metric(sols: list[dict[int, Fraction]], d: int) -> bool:
    """Whether the invariant symmetric forms, a basis `sols` in the
    `_sym2_index` layout, contain a nondegenerate one.

    Exact.  det(sum t_i h_i) is homogeneous of degree d in the t_i, so it
    vanishes identically iff it vanishes on the hyperplane sum t_i = d, which
    every line through the origin off sum t_i = 0 meets; there it has degree
    <= d, so iff it vanishes at the lattice points t in N^s with sum t_i = d
    (the principal lattice of a simplex is unisolvent for that degree).  Each
    such point is a multiset of d basis indices, C(s + d - 1, d) of them,
    where the full grid {0, ..., d}^s would have (d + 1)^s.
    """
    for picks in combinations_with_replacement(range(len(sols)), d):
        h: list[dict[int, Fraction]] = [{} for _ in range(d)]
        for r in range(d):
            for c in range(r, d):
                key = _sym2_index(r, c, d)
                v = sum(sols[i].get(key, _F0) for i in picks)
                if v:
                    h[r][c] = h[c][r] = v
        if sparse_rank(h) == d:
            return True
    return False
