"""Maximal transitive prolongation, and an independent vector-field oracle.

The prolongation is pure finite linear algebra: degree m consists of pairs
of maps (odd -> layer m-1, even -> layer m-2) satisfying the derivation
conditions against the two nonzero bracket types of the base algebra.  The
oracle builds honest polynomial-coefficient derivations of the structure
sheaf, truncated by the grading that weights even coordinates twice, applies
the commutator with the structure differential, and takes weight-zero
cohomology; on terminating examples the two computations agree degree by
degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .algebras import AutomorphismAlgebra, SupertranslationAlgebra, derivations_deg0, jacobian
from .groebner import ideal_gb, standard_monomials
from .linalg import SpanSolver, sparse_kernel, sparse_rank
from .rings import ModuleElement

_F0 = Fraction(0)
_F1 = Fraction(1)


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


class _Layer:
    """One graded piece: action coordinates of each basis element.

    act_s[x][a] is [x, e_a] in coordinates of the layer one below;
    act_v[x][mu] is [x, v_mu] two layers below.
    """

    __slots__ = ("dim", "act_s", "act_v", "solver")

    def __init__(self, dim, act_s, act_v, solver=None):
        self.dim = dim
        self.act_s = act_s
        self.act_v = act_v
        self.solver = solver


def _base_layers(alg: SupertranslationAlgebra, g0: AutomorphismAlgebra) -> dict:
    k, d = alg.k, alg.d
    layers: dict[int, _Layer] = {}
    layers[-2] = _Layer(
        d,
        [[{} for _ in range(k)] for _ in range(d)],
        [[{} for _ in range(d)] for _ in range(d)],
    )
    act_s_m1 = []
    for a in range(k):
        act_s_m1.append(
            [
                {mu: alg.gamma[a][b][mu] for mu in range(d) if alg.gamma[a][b][mu]}
                for b in range(k)
            ]
        )
    layers[-1] = _Layer(k, act_s_m1, [[{} for _ in range(d)] for _ in range(k)])
    act_s0 = []
    act_v0 = []
    solver0 = SpanSolver()
    for x in range(g0.dim):
        A, B = g0.basis[x]
        act_s0.append([{c: A[c][a] for c in range(k) if A[c][a]} for a in range(k)])
        act_v0.append([{c: B[c][mu] for c in range(d) if B[c][mu]} for mu in range(d)])
        flat = {}
        for a in range(k):
            for c, v in act_s0[-1][a].items():
                flat[a * k + c] = v
        for mu in range(d):
            for c, v in act_v0[-1][mu].items():
                flat[k * k + mu * d + c] = v
        if not solver0.add(flat, x):
            raise AssertionError("degree-zero layer basis not independent")
    layers[0] = _Layer(g0.dim, act_s0, act_v0, solver0)
    return layers


def _solve_layer(alg: SupertranslationAlgebra, layers: dict, m: int) -> _Layer:
    """Linear solve for degree m >= 1 from the layers below."""
    k, d = alg.k, alg.d
    below = layers[m - 1]
    below2 = layers[m - 2]
    n1, n2 = below.dim, below2.dim
    nunk = k * n1 + d * n2

    def f_idx(a, p):
        return a * n1 + p

    def g_idx(mu, p):
        return k * n1 + mu * n2 + p

    rows: list[dict[int, Fraction]] = []

    def flush(row_by_c):
        rows.extend(r for r in row_by_c.values() if r)

    # (1) G(gamma(s,t)) = [F(s), t] + [F(t), s], valued one layer below
    for a in range(k):
        for b in range(a, k):
            row_by_c: dict[int, dict[int, Fraction]] = {}
            for mu in range(d):
                gv = alg.gamma[a][b][mu]
                if not gv:
                    continue
                for p in range(n2):
                    tgt = row_by_c.setdefault(p, {})
                    key = g_idx(mu, p)
                    tgt[key] = tgt.get(key, _F0) + gv
            for p in range(n1):
                for c, v in below.act_s[p][b].items():
                    tgt = row_by_c.setdefault(c, {})
                    key = f_idx(a, p)
                    tgt[key] = tgt.get(key, _F0) - v
                for c, v in below.act_s[p][a].items():
                    tgt = row_by_c.setdefault(c, {})
                    key = f_idx(b, p)
                    tgt[key] = tgt.get(key, _F0) - v
            flush(row_by_c)
    # (2) [F(s), v] = [G(v), s], valued two layers below
    for a in range(k):
        for mu in range(d):
            row_by_c = {}
            for p in range(n1):
                for c, v in below.act_v[p][mu].items():
                    tgt = row_by_c.setdefault(c, {})
                    key = f_idx(a, p)
                    tgt[key] = tgt.get(key, _F0) + v
            for p in range(n2):
                for c, v in below2.act_s[p][a].items():
                    tgt = row_by_c.setdefault(c, {})
                    key = g_idx(mu, p)
                    tgt[key] = tgt.get(key, _F0) - v
            flush(row_by_c)
    # (3) [G(v), v'] = [G(v'), v], valued three layers below
    for mu in range(d):
        for nu in range(mu + 1, d):
            row_by_c = {}
            for p in range(n2):
                for c, v in below2.act_v[p][nu].items():
                    tgt = row_by_c.setdefault(c, {})
                    key = g_idx(mu, p)
                    tgt[key] = tgt.get(key, _F0) + v
                for c, v in below2.act_v[p][mu].items():
                    tgt = row_by_c.setdefault(c, {})
                    key = g_idx(nu, p)
                    tgt[key] = tgt.get(key, _F0) - v
            flush(row_by_c)
    vecs = sparse_kernel(rows, nunk)
    act_s = []
    act_v = []
    solver = SpanSolver()
    for x, vec in enumerate(vecs):
        fs = [dict() for _ in range(k)]
        gs = [dict() for _ in range(d)]
        for idx, val in vec.items():
            if idx < k * n1:
                fs[idx // n1][idx % n1] = val
            else:
                rest = idx - k * n1
                gs[rest // n2][rest % n2] = val
        act_s.append(fs)
        act_v.append(gs)
        if not solver.add(dict(vec), x):
            raise AssertionError("prolongation layer basis not independent")
    return _Layer(len(vecs), act_s, act_v, solver)


def tanaka_prolongation(
    alg: SupertranslationAlgebra,
    g0: AutomorphismAlgebra | None = None,
    max_degree: int = 4,
) -> ProlongationResult:
    """Degrees -2..max_degree of the maximal transitive prolongation.

    Stops early once two consecutive positive degrees vanish (everything
    above is then forced to vanish); otherwise reports status "capped".
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    if g0 is None:
        g0 = derivations_deg0(alg)
    layers = _base_layers(alg, g0)
    dims = {-2: alg.d, -1: alg.k, 0: g0.dim}
    status = "capped"
    for m in range(1, max_degree + 1):
        layers[m] = _solve_layer(alg, layers, m)
        dims[m] = layers[m].dim
        if m >= 2 and dims[m] == 0 and dims[m - 1] == 0:
            status = "terminated"
            break
    if status == "terminated":
        dims = {m: v for m, v in dims.items() if v or m <= 0}
    return ProlongationResult(alg, dims, status, layers)


class ProlongationBrackets:
    """Recursive bracket tensors on the computed layers, with a Jacobi check."""

    def __init__(self, alg: SupertranslationAlgebra, result: ProlongationResult):
        self.alg = alg
        self.result = result
        self.layers = result.layers

    def _dim(self, m: int) -> int:
        if m == -2:
            return self.alg.d
        if m == -1:
            return self.alg.k
        layer = self.layers.get(m)
        return layer.dim if layer else 0

    def bracket(self, i: int, x: dict, j: int, y: dict) -> dict:
        """[x, y] for coordinate vectors x in layer i, y in layer j."""
        if i + j < -2 or not x or not y:
            return {}
        if i > j:
            flip = self.bracket(j, y, i, x)
            sign = Fraction(1 if (i % 2) and (j % 2) else -1)
            return {c: sign * v for c, v in flip.items()}
        if i < 0:
            if j < 0:
                if i == -1 and j == -1:
                    out: dict[int, Fraction] = {}
                    for a, xa in x.items():
                        for b, yb in y.items():
                            for mu in range(self.alg.d):
                                g = self.alg.gamma[a][b][mu]
                                if g:
                                    out[mu] = out.get(mu, _F0) + g * xa * yb
                    return {c: v for c, v in out.items() if v}
                return {}
            # i < 0 <= j: act with y on x (flip with the super sign)
            out: dict[int, Fraction] = {}
            for pos, xval in x.items():
                acted = (
                    self._act_on_s(j, y, pos) if i == -1 else self._act_on_v(j, y, pos)
                )
                for c, v in acted.items():
                    out[c] = out.get(c, _F0) + xval * v
            sign = Fraction(1 if (i % 2) and (j % 2) else -1)
            return {c: sign * v for c, v in out.items() if v}
        # both nonnegative: determine by action, then solve coordinates
        k, d = self.alg.k, self.alg.d
        sign_xy = Fraction(-1 if (i % 2) and (j % 2) else 1)
        act_s_result = []
        for a in range(k):
            term1 = self.bracket(i, x, j - 1, self._act_on_s(j, y, a))
            term2 = self.bracket(j, y, i - 1, self._act_on_s(i, x, a))
            out = dict(term1)
            for c, v in term2.items():
                w = out.get(c, _F0) - sign_xy * v
                if w:
                    out[c] = w
                elif c in out:
                    del out[c]
            act_s_result.append(out)
        act_v_result = []
        for mu in range(d):
            term1 = self.bracket(i, x, j - 2, self._act_on_v(j, y, mu))
            term2 = self.bracket(j, y, i - 2, self._act_on_v(i, x, mu))
            out = dict(term1)
            for c, v in term2.items():
                w = out.get(c, _F0) - sign_xy * v
                if w:
                    out[c] = w
                elif c in out:
                    del out[c]
            act_v_result.append(out)
        return self._coords_from_actions(i + j, act_s_result, act_v_result)

    def _act_on_s(self, m: int, x: dict, a: int) -> dict:
        """[x, e_a] one layer below, x in layer-m coordinates (m >= -1)."""
        if m == -2:
            return {}
        if m == -1:
            out: dict[int, Fraction] = {}
            for b, xb in x.items():
                for mu in range(self.alg.d):
                    g = self.alg.gamma[b][a][mu]
                    if g:
                        out[mu] = out.get(mu, _F0) + g * xb
            return {c: v for c, v in out.items() if v}
        layer = self.layers[m]
        out = {}
        for p, xp in x.items():
            for c, v in layer.act_s[p][a].items():
                w = out.get(c, _F0) + xp * v
                if w:
                    out[c] = w
                elif c in out:
                    del out[c]
        return out

    def _act_on_v(self, m: int, x: dict, mu: int) -> dict:
        if m < 0:
            return {}
        layer = self.layers[m]
        out: dict[int, Fraction] = {}
        for p, xp in x.items():
            for c, v in layer.act_v[p][mu].items():
                w = out.get(c, _F0) + xp * v
                if w:
                    out[c] = w
                elif c in out:
                    del out[c]
        return out

    def _coords_from_actions(self, m: int, act_s, act_v) -> dict:
        k, d = self.alg.k, self.alg.d
        if m < 0 or self._dim(m) == 0:
            if any(act_s) or any(act_v):
                raise AssertionError("bracket result escapes the computed layers")
            return {}
        layer = self.layers[m]
        n1 = self._dim(m - 1)
        n2 = self._dim(m - 2)
        flat: dict[int, Fraction] = {}
        if m == 0:
            for a in range(k):
                for c, v in act_s[a].items():
                    flat[a * k + c] = v
            for mu in range(d):
                for c, v in act_v[mu].items():
                    flat[k * k + mu * d + c] = v
        else:
            for a in range(k):
                for c, v in act_s[a].items():
                    flat[a * n1 + c] = v
            for mu in range(d):
                for c, v in act_v[mu].items():
                    flat[k * n1 + mu * n2 + c] = v
        coords = layer.solver.solve(flat)
        if coords is None:
            raise AssertionError("bracket result outside the computed layer")
        return coords

    def check_jacobi(self, degrees: list[int]) -> bool:
        """Jacobi identity on all basis triples of the listed degrees."""
        import itertools

        basis = {m: [{i: _F1} for i in range(self._dim(m))] for m in degrees}
        for m1, m2, m3 in itertools.product(degrees, repeat=3):
            for x in basis[m1]:
                for y in basis[m2]:
                    for z in basis[m3]:
                        lhs = self.bracket(m1 + m2, self.bracket(m1, x, m2, y), m3, z)
                        r1 = self.bracket(m1, x, m2 + m3, self.bracket(m2, y, m3, z))
                        r2 = self.bracket(m2, y, m1 + m3, self.bracket(m1, x, m3, z))
                        sgn = Fraction(-1 if (m1 % 2) and (m2 % 2) else 1)
                        rhs = dict(r1)
                        for c, v in r2.items():
                            w = rhs.get(c, _F0) - sgn * v
                            if w:
                                rhs[c] = w
                            elif c in rhs:
                                del rhs[c]
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
        hit = self._nf_cache.get(mon)
        if hit is None:
            elt = ModuleElement(self.gb.module, {(0, mon): _F1})
            nf = self.gb.normal_form(elt)
            hit = {m: c for (_, m), c in nf.terms.items()}
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
                for lm, cf in self.reduce_lambda(lam_raw).items():
                    key = (xm, th, lm)
                    v = out.get(key, _F0) + sgn * c1 * c2 * cf
                    if v:
                        out[key] = v
                    elif key in out:
                        del out[key]
        return out

    def monomial(self, xm, th, lm, coeff=_F1) -> dict:
        out = {}
        for lmm, cf in self.reduce_lambda(lm).items():
            out[(xm, th, lmm)] = coeff * cf
        return out


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

    def accumulate(contrib: dict, scalar):
        if not scalar:
            return
        for key, v in contrib.items():
            w = out.get(key, _F0) + scalar * v
            if w:
                out[key] = w
            elif key in out:
                del out[key]

    zero_x = (0,) * d
    zero_l = (0,) * k
    for (xm, th, lm), coeff in element.items():
        for mu in range(d):
            e = xm[mu]
            if e and mu in der.x_img:
                rest = sheaf.monomial(
                    tuple(x - (1 if i == mu else 0) for i, x in enumerate(xm)), th, lm
                )
                accumulate(sheaf.mul(der.x_img[mu], rest), coeff * e)
        for pos, a in enumerate(th):
            img = der.th_img.get(a)
            if not img:
                continue
            sgn = -1 if (der.parity and pos % 2) else 1
            left = {(zero_x, th[:pos], zero_l): _F1}
            right = sheaf.monomial(xm, th[pos + 1 :], lm)
            accumulate(sheaf.mul(left, sheaf.mul(img, right)), coeff * sgn)
        for c in range(k):
            e = lm[c]
            if e and c in der.lam_img:
                sgn = -1 if (der.parity and len(th) % 2) else 1
                rest = sheaf.monomial(
                    xm, th, tuple(x - (1 if i == c else 0) for i, x in enumerate(lm))
                )
                accumulate(sheaf.mul(rest, der.lam_img[c]), coeff * e * sgn)
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
        first = _apply_derivation(sheaf, d0, x.x_img.get(mu, {}))
        second = _apply_derivation(sheaf, x, d0.x_img.get(mu, {}))
        total = dict(first)
        for key, v in second.items():
            w = total.get(key, _F0) - sign * v
            if w:
                total[key] = w
            elif key in total:
                del total[key]
        if total:
            x_img[mu] = total
    for a in range(k):
        first = _apply_derivation(sheaf, d0, x.th_img.get(a, {}))
        second = _apply_derivation(sheaf, x, d0.th_img.get(a, {}))
        total = dict(first)
        for key, v in second.items():
            w = total.get(key, _F0) - sign * v
            if w:
                total[key] = w
            elif key in total:
                del total[key]
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
                    for key, v in sheaf.monomial(zero_x, (b,), lam, -g).items():
                        w = elt.get(key, _F0) + v
                        if w:
                            elt[key] = w
                        elif key in elt:
                            del elt[key]
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
    phi = jacobian(alg).phi
    mons = [m for (_, m) in standard_monomials(sheaf.gb, deg)]
    if not mons:
        return []
    src = [(c, m) for c in range(k) for m in mons]
    row_map: dict[tuple[int, tuple], dict[int, Fraction]] = {}
    for ci, (c, m) in enumerate(src):
        for mu in range(d):
            for m2, cf in phi[mu][c].terms.items():
                raw = tuple(a + b for a, b in zip(m, m2))
                for lm, cf2 in sheaf.reduce_lambda(raw).items():
                    row = row_map.setdefault((mu, lm), {})
                    v = row.get(ci, _F0) + cf * cf2
                    if v:
                        row[ci] = v
                    elif ci in row:
                        del row[ci]
    rows = [r for r in row_map.values() if r]
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
    der_solvers: dict[int, SpanSolver] = {}
    der_keyindex: dict[int, dict] = {}
    for w, vecs in der_vectors.items():
        solver = SpanSolver()
        keyindex: dict = {}

        def keyfor(t, keyindex=keyindex):
            if t not in keyindex:
                keyindex[t] = len(keyindex)
            return keyindex[t]

        for j, vec in enumerate(vecs):
            solver.add({keyfor(t): v for t, v in vec.items()}, j)
        der_solvers[w] = solver
        der_keyindex[w] = keyindex

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
    std = {w: [m for (_, m) in standard_monomials(sheaf.gb, w)] for w in (0, 1)}
    zero_l = (0,) * k

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
            contrib = sheaf.monomial(xm, th, mono, cf)
            if c in lam_img:
                for key, v in contrib.items():
                    w = lam_img[c].get(key, _F0) + v
                    if w:
                        lam_img[c][key] = w
                    elif key in lam_img[c]:
                        del lam_img[c][key]
            else:
                lam_img[c] = dict(contrib)
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
        keyindex = der_keyindex[weight]
        for (xm, th), vec in grouped.items():
            flat = {}
            for t, v in vec.items():
                if t not in keyindex:
                    raise AssertionError("lambda image outside the kernel span")
                flat[keyindex[t]] = v
            combo = solver.solve(flat)
            if combo is None:
                raise AssertionError("lambda image is not a derivation of the quotient")
            for j, v in combo.items():
                coords[index[("der", xm, th, None, j)]] = v
        return coords

    basis0, index0 = build_basis(0)
    basis1, index1 = build_basis(1)
    basism1, indexm1 = build_basis(-1)

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
