"""Maximal transitive prolongation: positive layers, bracket table, oracle.

The prolongation is pure finite linear algebra: degree m consists of the
elements whose bracket with the generators, layer m-1 on an odd one and
layer m-2 on an even one, is a derivation of the base algebra.  `algebras`
holds the layer table and the one layer solve and computes degree zero, the
derivations g0; `tanaka_prolongation` extends those layers to the positive
degrees with the same solve.  The
bracket of the computed layers is tabulated once per pair of basis elements
and checked against the Jacobi identity.  The oracle builds honest
polynomial-coefficient derivations of the structure sheaf, truncated by the
grading that weights even coordinates twice, applies the commutator with the
structure differential, and takes weight-zero cohomology; on terminating
examples the two computations agree degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .algebras import (
    SupertranslationAlgebra,
    _Layer,
    _flatten,
    _solve_layer,
    _spans_even,
    derivations_deg0,
    jacobian,
)
from .groebner import ideal_gb, standard_monomials
from .linalg import SpanSolver, sparse_kernel, sparse_rank
from .rings import ModuleElement

_F1 = Fraction(1)


def _axpy(acc: dict, scalar, vec: dict) -> dict:
    """acc += scalar * vec on sparse dicts, dropping entries that cancel."""
    for key, v in vec.items():
        w = acc.get(key, 0) + scalar * v
        if w:
            acc[key] = w
        else:
            acc.pop(key, None)
    return acc


@dataclass
class ProlongationResult:
    algebra: SupertranslationAlgebra
    dims: dict[int, int]  # degree -> dimension, degrees -2, -1, 0, 1, ...
    status: str  # "terminated" | "capped"
    layers: dict = field(default_factory=dict, repr=False)

    def total_even(self) -> int:
        return sum(v for m, v in self.dims.items() if m % 2 == 0)

    def total_odd(self) -> int:
        return sum(v for m, v in self.dims.items() if m % 2)


def tanaka_prolongation(alg: SupertranslationAlgebra, max_degree: int = 4) -> ProlongationResult:
    """Degrees -2..max_degree of the maximal transitive prolongation.

    Extends the layers of `derivations_deg0` one degree at a time with the
    same layer solve.  Stops early once two consecutive positive degrees
    vanish (everything above is then forced to vanish); otherwise reports
    status "capped".

    A degree above a zero one is zero without a solve when the bracket is
    surjective (decided once, at the first zero degree): for x of degree m,
    [x, e_a] lies in degree m - 1 = 0 for every odd e_a, so
    [x, gamma(e_a, e_b)] = [[x, e_a], e_b] + [[x, e_b], e_a] = 0, and x
    kills every generator.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    layers = derivations_deg0(alg).layers
    dims = {-2: alg.d, -1: alg.k, 0: layers[0].dim}
    status = "capped"
    surjective = None
    for m in range(1, max_degree + 1):
        if not dims[m - 1] and surjective is None:
            surjective = _spans_even(alg)
        if not dims[m - 1] and surjective:
            layers[m] = _Layer(0, [], SpanSolver([]))
        else:
            layers[m] = _solve_layer(alg, layers, m)
        dims[m] = layers[m].dim
        if m >= 2 and dims[m] == 0 and dims[m - 1] == 0:
            status = "terminated"
            break
    if status == "terminated":
        dims = {m: v for m, v in dims.items() if v or m <= 0}
    return ProlongationResult(alg, dims, status, layers)


class ProlongationBrackets:
    """The bracket of the computed layers, tabulated once, with a Jacobi check.

    ``table[i, j][p][q]`` is [e_p, e_q] for basis element p of layer i and q
    of layer j, in coordinates of layer i + j; a degree pair is tabulated the
    first time a bracket needs it.  With a negative degree the entry is an
    action stored in the layers.  For i, j >= 0 the actions of [x, y] on the
    generators s = e_a, v_mu come from pairs of lower total degree,

        [[x, y], s] = [x, [y, s]] - (-1)^{|x||y|} [y, [x, s]],

    and are solved for coordinates in layer i + j.  A degree pair whose
    brackets leave the computed layers raises AssertionError.  `bracket` is
    the bilinear extension of the table.
    """

    def __init__(self, alg: SupertranslationAlgebra, result: ProlongationResult):
        self.alg = alg
        self.result = result
        self.layers = result.layers
        self.table: dict[tuple[int, int], list[list[dict]]] = {}

    def bracket(self, i: int, x: dict, j: int, y: dict) -> dict:
        """[x, y] for coordinate vectors x in layer i, y in layer j."""
        if i + j < -2 or not x or not y:
            return {}
        entries = self._entries(i, j)
        out: dict = {}
        for p, xp in x.items():
            row = entries[p]
            for q, yq in y.items():
                _axpy(out, xp * yq, row[q])
        return out

    def _entries(self, i: int, j: int) -> list[list[dict]]:
        entries = self.table.get((i, j))
        if entries is None:
            entries = self.table[i, j] = self._tabulate(i, j)
        return entries

    def _tabulate(self, i: int, j: int) -> list[list[dict]]:
        layers = self.layers
        # [x, y] = sign [y, x], sign = -(-1)^{|x||y|}
        sign = 1 if i % 2 and j % 2 else -1
        if i > j:
            flip = self._entries(j, i)
            return [[_axpy({}, sign, flip[q][p]) for q in range(layers[j].dim)]
                    for p in range(layers[i].dim)]
        if i < 0:
            # [e_p, y] = sign [y, e_p], an action stored with y
            first = 0 if i == -1 else self.alg.k
            return [[_axpy({}, sign, layers[j].act[q][first + p]) for q in range(layers[j].dim)]
                    for p in range(layers[i].dim)]
        target = layers.get(i + j)
        shifts = list(enumerate([1] * self.alg.k + [2] * self.alg.d))
        entries = []
        for p in range(layers[i].dim):
            x = {p: 1}
            row = []
            for q in range(layers[j].dim):
                y = {q: 1}
                act = [
                    _axpy(self.bracket(i, x, j - s, layers[j].act[q][g]),
                          sign, self.bracket(j, y, i - s, layers[i].act[p][g]))
                    for g, s in shifts
                ]
                if target is None or target.dim == 0:
                    if any(act):
                        raise AssertionError("bracket result escapes the computed layers")
                    row.append({})
                    continue
                coords = target.solver.solve(_flatten(layers, i + j, act))
                if coords is None:
                    raise AssertionError("bracket result outside the computed layer")
                row.append(coords)
            entries.append(row)
        return entries

    def check_jacobi(self, degrees: list[int]) -> bool:
        """Jacobi identity on all basis triples of the listed degrees."""
        dims = {m: self.layers[m].dim if m in self.layers else 0 for m in degrees}
        for m1, m2, m3 in product(degrees, repeat=3):
            sgn = -1 if m1 % 2 and m2 % 2 else 1
            for p, q, r in product(range(dims[m1]), range(dims[m2]), range(dims[m3])):
                x, y, z = {p: 1}, {q: 1}, {r: 1}
                lhs = self.bracket(m1 + m2, self.bracket(m1, x, m2, y), m3, z)
                rhs = self.bracket(m1, x, m2 + m3, self.bracket(m2, y, m3, z))
                _axpy(rhs, -sgn, self.bracket(m2, y, m1 + m3, self.bracket(m1, x, m3, z)))
                if lhs != rhs:
                    return False
        return True


# ---------------------------------------------------------------------------
# The derivation-complex oracle
# ---------------------------------------------------------------------------
#
# Sheaf elements are dicts (x-monomial, theta-tuple, standard lambda
# monomial) -> Fraction with the lambda part always reduced mod the ideal.


def _theta_mul(s: tuple, t: tuple):
    if set(s) & set(t):
        return None
    merged = tuple(sorted(s + t))
    seq = list(s) + list(t)
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return (-1 if inv % 2 else 1), merged


class _Sheaf:
    """Arithmetic in C[x] (x) Lambda(theta) (x) R/I with cached reduction."""

    def __init__(self, alg: SupertranslationAlgebra):
        self.alg = alg
        self.ring = alg.ring()
        self.gb = ideal_gb(self.ring, [q for q in alg.quadrics() if not q.is_zero()])
        self._nf_cache: dict = {}

    def reduce_lambda(self, mon) -> dict:
        """The normal form of the exponent tuple `mon` as {exponent tuple: coefficient}."""
        hit = self._nf_cache.get(mon)
        if hit is None:
            ring = self.ring
            nf = self.gb.normal_form(ModuleElement(self.gb.module, {ring.pack(0, mon): _F1}))
            hit = {ring.unpack(t)[1]: c for t, c in nf.terms.items()}
            self._nf_cache[mon] = hit
        return hit

    def mul(self, e1: dict, e2: dict) -> dict:
        out: dict = {}
        for (x1, t1, l1), c1 in e1.items():
            for (x2, t2, l2), c2 in e2.items():
                tm = _theta_mul(t1, t2)
                if tm is None:
                    continue
                sgn, th = tm
                xm = tuple(a + b for a, b in zip(x1, x2))
                lam_raw = tuple(a + b for a, b in zip(l1, l2))
                _axpy(out, sgn * c1 * c2, self.monomial(xm, th, lam_raw))
        return out

    def monomial(self, xm, th, lm) -> dict:
        return {(xm, th, lmm): cf for lmm, cf in self.reduce_lambda(lm).items()}


class _Derivation:
    """Images on generators; everything else follows by Leibniz."""

    __slots__ = ("x_img", "th_img", "lam_img", "parity")

    def __init__(self, x_img: dict, th_img: dict, lam_img: dict, parity: int):
        self.x_img = x_img
        self.th_img = th_img
        self.lam_img = lam_img
        self.parity = parity


def _apply_derivation(sheaf: _Sheaf, der: _Derivation, element: dict) -> dict:
    alg = sheaf.alg
    k, d = alg.k, alg.d
    out: dict = {}
    zero_x = (0,) * d
    zero_l = (0,) * k
    for (xm, th, lm), coeff in element.items():
        for mu in range(d):
            e = xm[mu]
            if e and mu in der.x_img:
                rest = sheaf.monomial(
                    tuple(x - (1 if i == mu else 0) for i, x in enumerate(xm)), th, lm
                )
                _axpy(out, coeff * e, sheaf.mul(der.x_img[mu], rest))
        for pos, a in enumerate(th):
            img = der.th_img.get(a)
            if not img:
                continue
            sgn = -1 if (der.parity and pos % 2) else 1
            left = {(zero_x, th[:pos], zero_l): _F1}
            right = sheaf.monomial(xm, th[pos + 1 :], lm)
            _axpy(out, coeff * sgn, sheaf.mul(left, sheaf.mul(img, right)))
        for c in range(k):
            e = lm[c]
            if e and c in der.lam_img:
                sgn = -1 if (der.parity and len(th) % 2) else 1
                rest = sheaf.monomial(
                    xm, th, tuple(x - (1 if i == c else 0) for i, x in enumerate(lm))
                )
                _axpy(out, coeff * e * sgn, sheaf.mul(rest, der.lam_img[c]))
    return out


def _commutator_images(sheaf: _Sheaf, d0: _Derivation, x: _Derivation):
    """Images of [d0, x] on the generators."""
    alg = sheaf.alg
    k, d = alg.k, alg.d
    sign = Fraction(-1 if x.parity else 1)
    x_img = {}
    th_img = {}
    lam_img = {}
    for mu in range(d):
        total = _axpy(_apply_derivation(sheaf, d0, x.x_img.get(mu, {})),
                      -sign, _apply_derivation(sheaf, x, d0.x_img.get(mu, {})))
        if total:
            x_img[mu] = total
    for a in range(k):
        total = _axpy(_apply_derivation(sheaf, d0, x.th_img.get(a, {})),
                      -sign, _apply_derivation(sheaf, x, d0.th_img.get(a, {})))
        if total:
            th_img[a] = total
    for c in range(k):
        first = _apply_derivation(sheaf, d0, x.lam_img.get(c, {}))
        # d0 kills every lambda, so the second term vanishes on lambda images
        if first:
            lam_img[c] = first
    return x_img, th_img, lam_img


def _d0_derivation(sheaf: _Sheaf) -> _Derivation:
    alg = sheaf.alg
    k, d = alg.k, alg.d
    zero_x = (0,) * d
    x_img = {}
    for mu in range(d):
        elt: dict = {}
        for a in range(k):
            for b in range(k):
                g = alg.gamma[a][b][mu]
                if g:
                    lam = tuple(1 if i == a else 0 for i in range(k))
                    _axpy(elt, -g, sheaf.monomial(zero_x, (b,), lam))
        if elt:
            x_img[mu] = elt
    th_img = {}
    for a in range(k):
        lam = tuple(1 if i == a else 0 for i in range(k))
        th_img[a] = sheaf.monomial(zero_x, (), lam)
    return _Derivation(x_img, th_img, {}, parity=1)


def _ideal_derivation_vectors(sheaf: _Sheaf, weight: int) -> list[dict]:
    """Basis of weight-w derivations of R/I along the lambda directions.

    Vectors map (c, standard monomial of degree weight+1) -> Fraction and
    satisfy sum_c f^c dq_mu/dl_c = 0 in R/I for every quadric q_mu.
    """
    alg = sheaf.alg
    k, d = alg.k, alg.d
    deg = weight + 1
    if deg < 0:
        return []
    phi = jacobian(alg)
    mons = [sheaf.ring.unpack(t)[1] for t in standard_monomials(sheaf.gb, deg)]
    if not mons:
        return []
    src = [(c, m) for c in range(k) for m in mons]
    row_map: dict[tuple[int, tuple], dict[int, Fraction]] = {}
    for ci, (c, m) in enumerate(src):
        for mu in range(d):
            col: dict = {}
            for t, cf in phi[mu][c].terms.items():
                m2 = sheaf.ring.unpack(t)[1]
                _axpy(col, cf, sheaf.reduce_lambda(tuple(a + b for a, b in zip(m, m2))))
            for lm, v in col.items():
                row_map.setdefault((mu, lm), {})[ci] = v
    rows = list(row_map.values())
    vecs = sparse_kernel(rows, len(src))
    return [{src[i]: val for i, val in v.items()} for v in vecs]


def derivation_complex_h0(
    alg: SupertranslationAlgebra, x_degree_cutoff: int
) -> dict[int, tuple[int, int]]:
    """Weight-zero cohomology of the truncated derivation complex.

    Returns {grading degree: (even dim, odd dim)} for degrees from -2 up to
    the cutoff; x carries degree two, theta degree one, and directional
    generators the corresponding negatives.  The differential preserves this
    grading, so the truncation is an honest direct summand.
    """
    if x_degree_cutoff < 2:
        raise ValueError("the cutoff must be at least two")
    k, d = alg.k, alg.d
    cutoff = x_degree_cutoff
    sheaf = _Sheaf(alg)
    d0 = _d0_derivation(sheaf)

    der_vectors = {
        w: _ideal_derivation_vectors(sheaf, w) for w in (-1, 0, 1)
    }
    # span solvers for decomposing lambda-direction images at weight w
    der_solvers = {w: SpanSolver(vecs) for w, vecs in der_vectors.items()}

    def xmonos(max_total: int):
        out = []

        def rec(i, rem, acc):
            if i == d:
                out.append(tuple(acc))
                return
            for e in range(rem + 1):
                rec(i + 1, rem - e, acc + [e])

        rec(0, max_total, [])
        return out

    all_x = xmonos((cutoff + 2) // 2)
    all_th = []
    for size in range(k + 1):
        all_th.extend(combinations(range(k), size))
    std = {w: [sheaf.ring.unpack(t)[1] for t in standard_monomials(sheaf.gb, w)] for w in (0, 1)}

    def build_basis(weight: int):
        """(spec list, index map) for the weight-w part within the cutoff."""
        specs = []
        if weight >= 0:
            for xm in all_x:
                for th in all_th:
                    base = 2 * sum(xm) + len(th) + weight
                    for lm in std[weight]:
                        if -2 <= base - 2 <= cutoff:
                            for mu in range(d):
                                specs.append(("x", xm, th, lm, mu, base - 2, len(th) % 2))
                        if -2 <= base - 1 <= cutoff:
                            for a in range(k):
                                specs.append(
                                    ("th", xm, th, lm, a, base - 1, (len(th) + 1) % 2)
                                )
        for xm in all_x:
            for th in all_th:
                base = 2 * sum(xm) + len(th) + weight
                if -2 <= base <= cutoff:
                    for j in range(len(der_vectors[weight])):
                        specs.append(("der", xm, th, None, j, base, len(th) % 2))
        index = {s[:5]: i for i, s in enumerate(specs)}
        return specs, index

    def spec_derivation(spec) -> _Derivation:
        tag, xm, th, lm, idx = spec[:5]
        parity = spec[6]
        if tag == "x":
            return _Derivation({idx: sheaf.monomial(xm, th, lm)}, {}, {}, parity)
        if tag == "th":
            return _Derivation({}, {idx: sheaf.monomial(xm, th, lm)}, {}, parity)
        lam_img = {}
        for (c, mono), cf in der_vectors[spec[5] - 2 * sum(xm) - len(th)][idx].items():
            _axpy(lam_img.setdefault(c, {}), cf, sheaf.monomial(xm, th, mono))
        return _Derivation({}, {}, lam_img, parity)

    def decompose(images, weight: int, index: dict) -> dict[int, Fraction]:
        """Coordinates of a derivation with weight-w coefficients."""
        x_img, th_img, lam_img = images
        coords: dict[int, Fraction] = {}
        for mu, elt in x_img.items():
            for (xm, th, lm), v in elt.items():
                coords[index[("x", xm, th, lm, mu)]] = v
        for a, elt in th_img.items():
            for (xm, th, lm), v in elt.items():
                coords[index[("th", xm, th, lm, a)]] = v
        # lambda part: group by (xm, th) and solve against the kernel vectors
        grouped: dict = {}
        for c, elt in lam_img.items():
            for (xm, th, lm), v in elt.items():
                grouped.setdefault((xm, th), {})[(c, lm)] = v
        solver = der_solvers[weight]
        for (xm, th), vec in grouped.items():
            combo = solver.solve(vec)
            if combo is None:
                raise AssertionError("lambda image is not a derivation of the quotient")
            for j, v in combo.items():
                coords[index[("der", xm, th, None, j)]] = v
        return coords

    basis0, index0 = build_basis(0)
    _, index1 = build_basis(1)
    basism1, _ = build_basis(-1)

    def matrix_rows(specs, target_index, target_weight):
        rows = []
        for spec in specs:
            der = spec_derivation(spec)
            images = _commutator_images(sheaf, d0, der)
            rows.append(decompose(images, target_weight, target_index))
        return rows

    rows0 = matrix_rows(basis0, index1, 1)
    rowsm1 = matrix_rows(basism1, index0, 0)

    out: dict[int, tuple[int, int]] = {}
    for degree in range(-2, cutoff + 1):
        counts = []
        for parity in (0, 1):
            src_ids = [
                i for i, s in enumerate(basis0) if s[5] == degree and s[6] == parity
            ]
            if not src_ids:
                counts.append(0)
                continue
            sub_rows = [rows0[i] for i in src_ids]
            rank_d = sparse_rank(sub_rows)
            km_ids = [
                i
                for i, s in enumerate(basism1)
                if s[5] == degree and s[6] == (parity + 1) % 2
            ]
            in_rows = [rowsm1[i] for i in km_ids]
            # restrict incoming rows to the degree/parity block (they stay there)
            rank_in = sparse_rank(in_rows)
            counts.append(len(src_ids) - rank_d - rank_in)
        if counts[0] or counts[1]:
            out[degree] = (counts[0], counts[1])
    return out
