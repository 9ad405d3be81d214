"""Twisting by square-zero odd elements.

The twisted algebra is the positive-degree cohomology of the two-sided
complex g0 -> odd -> even with differential bracket-by-q: its odd part is
ker(gamma(q,-)) modulo the g0-orbit of q, its even part is the quotient of
the even space by gamma(q, odd).  Quotients and kernels are realized by
explicit echelonized rational bases so results are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebras import (
    SupertranslationAlgebra,
    check_conformal_type,
    derivations_deg0,
    is_square_zero,
)
from .groebner import hilbert_series, ideal_gb
from .linalg import SpanSolver, rref, sparse_kernel
from .multiplets import component_fields, hdim, multiplet_module

_F0 = Fraction(0)
_F1 = Fraction(1)


class NotSquareZeroError(ValueError):
    pass


@dataclass
class TwistResult:
    source: SupertranslationAlgebra
    q: list
    twisted: SupertranslationAlgebra


def _sparse(vec) -> dict[int, Fraction]:
    return {i: x for i, x in enumerate(vec) if x}


def _dense(row: dict, n: int) -> list[Fraction]:
    return [row.get(i, _F0) for i in range(n)]


def _quotient_data(ambient_dim: int, sub_rows):
    """Representative coordinates for ambient/span(sub_rows), rows sparse.

    Returns (rep_indices, project) where rep_indices picks the non-pivot
    coordinates and project maps an ambient vector to quotient coordinates.
    """
    red = rref(sub_rows)
    reps = [i for i in range(ambient_dim) if i not in red]

    def project(vec):
        out = list(vec)
        for p, row in red.items():
            f = out[p]
            if f:
                for c, x in row.items():
                    out[c] -= f * x
        return [out[i] for i in reps]

    return reps, project


def twist(alg: SupertranslationAlgebra, q) -> TwistResult:
    """Twisted supertranslation algebra for a square-zero odd element."""
    qv = [Fraction(x) for x in q]
    if not is_square_zero(alg, qv):
        raise NotSquareZeroError("the chosen odd element does not square to zero")
    k, d = alg.k, alg.d
    # gamma(q, -): odd -> even; row b is gamma(q, e_b)
    gamma_q = [
        [sum(alg.gamma[a][b][mu] * qv[a] for a in range(k)) for mu in range(d)]
        for b in range(k)
    ]
    ker_rows = [{b: gamma_q[b][mu] for b in range(k) if gamma_q[b][mu]} for mu in range(d)]
    ker_vecs = sparse_kernel(ker_rows, k)
    # odd part of the twist: kernel modulo orbit, in kernel coordinates; the
    # orbit lies inside the kernel as a consequence of q^2 = 0
    ker_solver = SpanSolver()
    for i, v in enumerate(ker_vecs):
        ker_solver.add(v, i)
    orbit_in_ker = []
    for v in derivations_deg0(alg).odd_orbit(qv):
        coords = ker_solver.solve(v)
        if coords is None:
            raise AssertionError("orbit vector not in kernel span")
        orbit_in_ker.append(coords)
    reps_odd, _ = _quotient_data(len(ker_vecs), orbit_in_ker)
    reps_even, project_even = _quotient_data(d, map(_sparse, gamma_q))
    k_new = len(reps_odd)
    d_new = len(reps_even)
    # twisted bracket on representatives
    rep_vectors = [_dense(ker_vecs[i], k) for i in reps_odd]
    gamma_new = [
        [project_even(alg.bracket(rep_vectors[i], rep_vectors[j])) for j in range(k_new)]
        for i in range(k_new)
    ]
    twisted = SupertranslationAlgebra(
        f"{alg.name} twisted", k_new, d_new, gamma_new
    )
    return TwistResult(source=alg, q=qv, twisted=twisted)


# ---------------------------------------------------------------------------
# Catalog twisting vectors
# ---------------------------------------------------------------------------


def catalog_twist_vector(alg: SupertranslationAlgebra, name: str) -> list[Fraction]:
    """Named square-zero elements for the standard algebras.

    'holomorphic' is the minimal rank-one element built from highest-weight
    vectors; 'maximal' picks a point on a stratum of maximal dimension (the
    Kapustin-type combination in four dimensions, rank-two combinations in
    six/ten/eleven).  All vectors are verified square-zero on return; a row
    without one (3d N=1 has no nonzero square-zero element) raises
    ValueError.  Dispatch is on the algebra's catalog key, not on its
    display name.
    """
    label = alg.name
    key = alg.catalog_key
    dim = key[0] if key else None
    k = alg.k
    q = [_F0] * k

    def set_one(idx):
        q[idx] = _F1

    if name in ("holomorphic", "minimal"):
        if dim == 3:
            # u (x) v with v the first hyperbolic basis vector: flat index i*2+a
            set_one(0)
        elif dim == 4:
            set_one(0)  # chiral highest weight: first chiral slot
        elif dim == 6:
            set_one(0)  # u (x) first symplectic basis vector
        elif dim == 10:
            set_one(0)  # scalar component of the even exterior algebra
        else:
            raise ValueError(f"no {name} twist vector cataloged for {label}")
    elif name in ("kapustin", "maximal", "nonminimal", "kapustin_witten"):
        if key == (4, (2,)) or (dim == 4 and name == "kapustin" and 2 * (k // 4) + 2 < k):
            # rank-one chiral plus a compatible antichiral: maximal stratum;
            # 4d N=1 has no antichiral copy 1
            set_one(0)  # e_+ (x) v1  (chiral block, copy 0)
            n = alg.k // 4
            set_one(2 * n + 2 + 0)  # e_- (x) v2^dual (antichiral block, copy 1)
        elif key == (4, (4,)) and name in ("kapustin_witten", "maximal"):
            n = 4
            set_one(0)  # e_+ (x) v1
            set_one(2 + 1)  # f_+ (x) v2
            set_one(2 * n + 2 * 2)  # e_- (x) v3^dual
            set_one(2 * n + 2 * 3 + 1)  # f_- (x) v4^dual
        elif key == (6, (2, 0)):
            set_one(0)  # u (x) v1
            set_one(2 * 4 + 1)  # second spinor direction, omega-orthogonal copy
        elif key == (10, (2, 0)):
            set_one(0)  # scalar spinor (x) first hyperbolic vector
            # a generic second spinor in the other isotropic copy, orthogonal to the first
            q[16 + 1] = _F1
        elif dim in (11, 3):
            set_one(0)
        else:
            raise ValueError(f"no {name} twist vector cataloged for {label}")
    else:
        raise ValueError(f"unknown twist name {name!r}")
    if not is_square_zero(alg, q):
        raise ValueError(f"no {name} twist vector cataloged for {label}")
    return q


@dataclass
class TwistPipelineReport:
    result: TwistResult
    hdim_source: int
    hdim_twisted: int
    analyses: dict

    @property
    def hdim_invariant(self) -> bool:
        return self.hdim_source == self.hdim_twisted


def twist_pipeline(
    alg: SupertranslationAlgebra,
    q,
    targets: tuple = (),
) -> TwistPipelineReport:
    """Twist and re-run the requested analyses on the twisted algebra.

    The homological-dimension invariance check always runs.  `targets` may
    contain 'conf', 'kaehler', 'canonical', 'variety', 'conformal_type'.
    """
    result = twist(alg, q)
    analyses: dict = {}
    for target in targets:
        if target in ("conf", "kaehler", "canonical"):
            mod = multiplet_module(result.twisted, target)
            betti = mod.betti()
            analyses[target] = {
                "betti": betti,
                "table": component_fields(mod, betti),
            }
        elif target == "variety":
            gb = ideal_gb(result.twisted.ring(), result.twisted.quadrics())
            analyses[target] = {"hilbert": hilbert_series(gb), "gb_size": len(gb)}
        elif target == "conformal_type":
            analyses[target] = check_conformal_type(result.twisted)
        else:
            raise ValueError(f"unknown twist analysis {target!r}")
    return TwistPipelineReport(
        result=result,
        hdim_source=hdim(alg),
        hdim_twisted=hdim(result.twisted),
        analyses=analyses,
    )
