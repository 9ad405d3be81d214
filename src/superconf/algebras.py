"""Supertranslation algebras: catalog, derivation layers, Jacobians.

An algebra is an odd space of dimension k, an even space of dimension d, and
a symmetric bracket gamma: Sym^2(odd) -> even, stored by its nonzero entries
only: `entries[(a, b)][mu]` is gamma(e_a, e_b)_mu for a <= b, and every
reader walks those entries.  The catalog realizes the standard physical
algebras over Q in split/Weyl-type bases so that several defining ideals
come out monomial or binomial, and their brackets are mostly zeros: in
eleven dimensions 192 of the 11,264 slots gamma[a][b][mu] are nonzero.

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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, combinations_with_replacement, product
from typing import Sequence

from . import clifford
from .linalg import SpanSolver, sparse_kernel, sparse_rank
from .resolutions import PresentedModule
from .rings import GradedRing, ModuleElement, rational

_F0 = Fraction(0)
_F1 = Fraction(1)


class SupertranslationAlgebra:
    """Two-step graded super Lie algebra: odd space, even space, symmetric bracket.

    `entries` maps (a, b) with 0 <= a <= b < odd_dim to {mu: value} with
    0 <= mu < even_dim: gamma(e_a, e_b)_mu, which is also gamma(e_b, e_a)_mu.
    Values are exact rationals (`rings.rational`, TypeError otherwise); a
    zero value is dropped, and an index that is not an int in its range is a
    ValueError.  The stored `entries` hold Fractions, keys and even indices
    ascending.
    """

    def __init__(self, name: str, odd_dim: int, even_dim: int, entries):
        self.name = name
        self.k = odd_dim
        self.d = even_dim
        table = {}
        for (a, b), row in entries.items():
            if not (isinstance(a, int) and isinstance(b, int) and 0 <= a <= b < odd_dim):
                raise ValueError(f"bracket key ({a!r}, {b!r}) is not a pair a <= b of ints"
                                 f" in range({odd_dim})")
            values = {}
            for mu, v in row.items():
                if not (isinstance(mu, int) and 0 <= mu < even_dim):
                    raise ValueError(f"even index {mu!r} of bracket key ({a}, {b}) is not"
                                     f" an int in range({even_dim})")
                v = rational(v)
                if v:
                    values[mu] = v
            if values:
                table[a, b] = dict(sorted(values.items()))
        # sorted only after every index is checked, so a stray type is a ValueError
        self.entries = dict(sorted(table.items()))
        # (dimension, susy tuple) when the algebra is a catalog entry
        self.catalog_key: tuple | None = None
        self._ring: GradedRing | None = None
        self._quadrics: list[ModuleElement] | None = None
        self._coordinate_ring: PresentedModule | None = None

    def __repr__(self):
        return f"SupertranslationAlgebra({self.name}: {self.d}|{self.k})"

    def ring(self) -> GradedRing:
        if self._ring is None:
            self._ring = GradedRing([f"l{i + 1}" for i in range(self.k)])
        return self._ring

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
        """gamma(u, v) in even-space coordinates."""
        out = [_F0] * self.d
        for (a, b), row in self.entries.items():
            c = u[a] * v[b] + u[b] * v[a] if a != b else u[a] * v[a]
            if c:
                for mu, g in row.items():
                    out[mu] += g * c
        return out

    def quadrics(self) -> list[ModuleElement]:
        """The d generators la gamma lb of the nilpotence ideal (zeros kept)."""
        if self._quadrics is None:
            ring = self.ring()
            var = ring.var_terms
            polys: list[dict] = [{} for _ in range(self.d)]
            for (a, b), row in self.entries.items():
                t = var[a] + var[b]
                for mu, c in row.items():
                    polys[mu][t] = c if a == b else 2 * c
            self._quadrics = [ring.element(terms) for terms in polys]
        return self._quadrics

    def coordinate_ring(self) -> PresentedModule:
        """R/I, the coordinate ring of the nilpotence variety: one generator in
        degree zero, presented by the nonzero quadrics in order.  Its lazy
        `relation_gb()` is the one reduced basis of I that every reader shares."""
        if self._coordinate_ring is None:
            self._coordinate_ring = PresentedModule(self.ring(), [0], self.quadrics())
        return self._coordinate_ring


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


def _tensor(name: str, form, pairing: list[dict], s: int) -> SupertranslationAlgebra:
    """The bracket form (x) pairing on the odd space U (x) S, s = dim S.

    pairing[mu] maps (a, b) to the nonzero value of the mu-th bilinear on S,
    both orders listed; gamma[i*s + a][j*s + b][mu] = form[i][j] *
    pairing[mu][a, b], each slot receiving exactly one product, and the
    entries keep the slots with i*s + a <= j*s + b.
    """
    entries: dict = {}
    for i, row in enumerate(form):
        for j, f in enumerate(row):
            if f:
                for mu, m in enumerate(pairing):
                    for (a, b), v in m.items():
                        x, y = i * s + a, j * s + b
                        if x <= y:
                            entries.setdefault((x, y), {})[mu] = f * v
    return SupertranslationAlgebra(name, len(form) * s, len(pairing), entries)


def standard_1d(n: int) -> SupertranslationAlgebra:
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return _tensor(f"1d N={n}", identity, [{(0, 0): 1}], 1)


def standard_2d(nl: int, nr: int) -> SupertranslationAlgebra:
    k = nl + nr
    entries = {(a, a): {int(a >= nl): 1} for a in range(k)}
    return SupertranslationAlgebra(f"2d N=({nl},{nr})", k, 2, entries)


def _sym2_index(a: int, b: int, n: int) -> int:
    """Index of the unordered pair (a, b) among pairs (i <= j) of n letters."""
    a, b = min(a, b), max(a, b)
    return a * n - a * (a - 1) // 2 + (b - a)


def standard_3d(n: int) -> SupertranslationAlgebra:
    sym2 = [{(a, b): 1 for a in range(2) for b in range(2) if _sym2_index(a, b, 2) == mu}
            for mu in range(3)]
    return _tensor(f"3d N={n}", _orthogonal_form(n), sym2, 2)


def standard_4d(n: int) -> SupertranslationAlgebra:
    # odd space: chiral block (i*2 + alpha), then antichiral block offset 2n
    entries = {(i * 2 + alpha, 2 * n + i * 2 + beta): {alpha * 2 + beta: 1}
               for i, alpha, beta in product(range(n), range(2), range(2))}
    return SupertranslationAlgebra(f"4d N={n}", 4 * n, 4, entries)


def standard_6d(n: int) -> SupertranslationAlgebra:
    wedge2 = [{(a, b): 1, (b, a): -1} for a, b in combinations(range(4), 2)]
    return _tensor(f"6d N=({n},0)", _symplectic_form(2 * n), wedge2, 4)


def standard_10d(n: int) -> SupertranslationAlgebra:
    if n not in (1, 2):
        raise ValueError("ten dimensions supports N=(1,0) and N=(2,0)")
    return _tensor(f"10d N=({n},0)", _orthogonal_form(n), clifford.gamma_10d_chiral(), 16)


def standard_11d() -> SupertranslationAlgebra:
    return _tensor("11d N=1", _orthogonal_form(1), clifford.gamma_11d(), 32)


def _parse_susy(susy) -> tuple:
    """Normalize a supersymmetry specifier to the catalog key tuple, () if malformed."""
    if isinstance(susy, str):
        text = susy.strip().replace(" ", "")
        if text.upper().startswith("N="):
            text = text[2:]
        parts = text[1:-1].split(",") if text.startswith("(") and text.endswith(")") else [text]
        # ASCII digits only: int() would also take other scripts' digits, "0_2" and "+2"
        ok = all(p.isascii() and p.isdigit() for p in parts)
        return tuple(int(p) for p in parts) if ok else ()
    counts = (susy,) if isinstance(susy, int) else susy
    # an int or a list of them; a float or a bool is no count, not one to truncate
    if isinstance(counts, (tuple, list)) and all(type(n) is int for n in counts):
        return tuple(counts)
    return ()


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
    odd = [[{} for _ in range(k + d)] for _ in range(k)]
    for (a, b), row in alg.entries.items():
        odd[a][b] = {mu: _exact(g) for mu, g in row.items()}
        odd[b][a] = dict(odd[a][b])
    return {-2: _Layer(d, [[{} for _ in range(k + d)] for _ in range(d)]), -1: _Layer(k, odd)}


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

        Reads the stored actions against the bracket entries, independently of
        the solve.  Both sides are summed over the nonzero entries into
        {(s, t): {c: value}} for s <= t and compared with zeros dropped, so a
        pair where both sides vanish costs nothing.
        """
        entries, k = self.algebra.entries, self.algebra.k
        touching: list[list] = [[] for _ in range(k)]  # [(t, gamma(e_c, e_t))] at c
        for (a, b), row in entries.items():
            touching[a].append((b, row))
            if a != b:
                touching[b].append((a, row))
        for act in self.layers[0].act:
            lhs: dict = {}
            for key, row in entries.items():
                out = lhs.setdefault(key, {})
                for mu, g in row.items():
                    for c, v in act[k + mu].items():
                        out[c] = out.get(c, 0) + g * v
            rhs: dict = {}
            for s in range(k):
                for c, v in act[s].items():  # A e_s has v at e_c
                    for t, row in touching[c]:
                        # gamma(A e_s, e_t) lands on {s, t}; twice when s = t
                        out = rhs.setdefault((s, t) if s <= t else (t, s), {})
                        w = 2 * v if s == t else v
                        for mu, g in row.items():
                            out[mu] = out.get(mu, 0) + w * g
            if _nonzero(lhs) != _nonzero(rhs):
                return False
        return True


def _nonzero(sums: dict) -> dict:
    """{key: {i: v}} with the zero values and then the empty rows dropped."""
    rows = ((key, {i: v for i, v in row.items() if v}) for key, row in sums.items())
    return {key: row for key, row in rows if row}


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
    var = ring.var_terms
    phi: list[list[dict]] = [[{} for _ in range(alg.k)] for _ in range(alg.d)]
    for (a, b), row in alg.entries.items():
        for mu, c in row.items():
            phi[mu][b][var[a]] = phi[mu][a][var[b]] = 2 * c
    return [[ring.element(terms) for terms in row] for row in phi]


def is_square_zero(alg: SupertranslationAlgebra, q: Sequence) -> bool:
    vec = [rational(x) for x in q]
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
    return sparse_rank(alg.entries.values()) == alg.d


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
    # Equation (r, c), r <= c, scaled by d to integers (for an integral B):
    # sum_m d B[m][r] h[m][c] + d B[m][c] h[r][m] - 2 tr B h[r][c] = 0, read
    # off the nonzero entries of columns r and c of B, in (r, c) order.
    sym = [[_sym2_index(r, c, d) for c in range(d)] for r in range(d)]
    h_rows = []
    for even in (act[k:] for act in g0.layers[0].act):
        cols = [[(m, v * d) for m, v in col.items()] for col in even]
        shift = -2 * sum(even[i].get(i, 0) for i in range(d))
        for r in range(d):
            for c in range(r, d):
                row = {sym[r][c]: shift} if shift else {}
                for m, v in cols[r]:
                    j = sym[m][c]
                    row[j] = row.get(j, 0) + v
                for m, v in cols[c]:
                    j = sym[r][m]
                    row[j] = row.get(j, 0) + v
                row = {j: v for j, v in row.items() if v}
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
    where the full grid {0, ..., d}^s would have (d + 1)^s; its form is
    sum m_i h_i over the multiplicities m_i of the multiset.
    """
    cells = [(r, c) for r in range(d) for c in range(r, d)]  # the _sym2_index layout
    for picks in combinations_with_replacement(range(len(sols)), d):
        form: dict[int, Fraction] = {}
        for i, m in Counter(picks).items():
            for key, v in sols[i].items():
                form[key] = form.get(key, 0) + m * v
        h: list[dict[int, Fraction]] = [{} for _ in range(d)]
        for key, v in form.items():
            if v:
                r, c = cells[key]
                h[r][c] = h[c][r] = v
        if sparse_rank(h) == d:
            return True
    return False
