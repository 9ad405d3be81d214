"""Twisting by square-zero odd elements.

The twisted algebra is the positive-degree cohomology of the two-sided
complex g0 -> odd -> even with differential bracket-by-q: its odd part is
ker(gamma(q,-)) modulo the g0-orbit of q, its even part is the quotient of
the even space by gamma(q, odd).  Quotients and kernels are realized by
explicit echelonized rational bases so results are reproducible run to run.
`twist` returns the twisted algebra itself, a `SupertranslationAlgebra`, so
every analysis of an algebra runs on it unchanged.
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
from .groebner import hilbert_series
from .linalg import SpanSolver, _reduce_by_leads, rref, sparse_kernel
from .multiplets import component_fields, hdim, multiplet_module
from .resolutions import minimal_free_resolution
from .rings import rational

_F0 = Fraction(0)
_F1 = Fraction(1)


class NotSquareZeroError(ValueError):
    pass


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
        out = _reduce_by_leads(dict(enumerate(vec)), red)
        return [out.get(i, _F0) for i in reps]

    return reps, project


def twist(alg: SupertranslationAlgebra, q) -> SupertranslationAlgebra:
    """Twisted supertranslation algebra for a square-zero odd element."""
    qv = [rational(x) for x in q]
    if not is_square_zero(alg, qv):
        raise NotSquareZeroError("the chosen odd element does not square to zero")
    k, d = alg.k, alg.d
    # gamma(q, -): odd -> even; row b is gamma(q, e_b), sparse
    sums: list[dict] = [{} for _ in range(k)]
    for (a, b), row in alg.entries.items():
        for s, t in ((a, b), (b, a)) if a != b else ((a, b),):
            if qv[s]:
                out = sums[t]
                for mu, g in row.items():
                    out[mu] = out.get(mu, 0) + g * qv[s]
    gamma_q = [{mu: v for mu, v in row.items() if v} for row in sums]
    ker_rows: list[dict] = [{} for _ in range(d)]
    for b, row in enumerate(gamma_q):
        for mu, v in row.items():
            ker_rows[mu][b] = v
    ker_vecs = sparse_kernel(ker_rows, k)
    # odd part of the twist: kernel modulo orbit, in kernel coordinates; the
    # orbit lies inside the kernel as a consequence of q^2 = 0
    ker_solver = SpanSolver(ker_vecs)
    orbit_in_ker = []
    for v in derivations_deg0(alg).odd_orbit(qv):
        coords = ker_solver.solve(v)
        if coords is None:
            raise AssertionError("orbit vector not in kernel span")
        orbit_in_ker.append(coords)
    reps_odd, _ = _quotient_data(len(ker_vecs), orbit_in_ker)
    reps_even, project_even = _quotient_data(d, gamma_q)
    k_new = len(reps_odd)
    d_new = len(reps_even)
    # twisted bracket on representatives
    rep_vectors = [_dense(ker_vecs[i], k) for i in reps_odd]
    entries = {(i, j): dict(enumerate(project_even(alg.bracket(rep_vectors[i], rep_vectors[j]))))
               for i in range(k_new) for j in range(i, k_new)}
    return SupertranslationAlgebra(f"{alg.name} twisted", k_new, d_new, entries)


# ---------------------------------------------------------------------------
# Catalog twisting vectors
# ---------------------------------------------------------------------------


def catalog_twist_vector(alg: SupertranslationAlgebra, name: str) -> list[Fraction]:
    """Named square-zero elements for the standard algebras, as slots that hold 1.

    'holomorphic' (or 'minimal') is slot 0, a rank-one highest-weight element,
    in dimensions 3, 4, 6 and 10.  The maximal names pick a point on a stratum
    of maximal dimension: in four dimensions with N = n, chiral copy 0 plus
    antichiral copy 1 (slots 0 and 2n + 2) on 4d N=2, and under 'kapustin'
    for every n > 1; the Kapustin-Witten slots 0, 3, 2n + 4, 2n + 7 on 4d
    N=4; two orthogonal spinor copies on 6d and 10d N=(2,0); slot 0 in three
    and eleven dimensions.  Every vector is verified square-zero; a row
    without one (3d N=1 has no nonzero square-zero element) raises
    ValueError.  Dispatch is on the catalog key, not on the display name.
    """
    key = alg.catalog_key
    dim = key[0] if key else None
    n = alg.k // 4
    if name in ("holomorphic", "minimal"):
        slots = [0] if dim in (3, 4, 6, 10) else None
    elif name in ("kapustin", "maximal", "nonminimal", "kapustin_witten"):
        if dim == 4 and (n == 2 or name == "kapustin" and n > 1):
            slots = [0, 2 * n + 2]
        elif key == (4, (4,)) and name in ("kapustin_witten", "maximal"):
            slots = [0, 3, 2 * n + 4, 2 * n + 7]
        else:
            slots = {(6, (2, 0)): [0, 9], (10, (2, 0)): [0, 17]}.get(
                key, [0] if dim in (3, 11) else None)
    else:
        raise ValueError(f"unknown twist name {name!r}")
    q = [_F0] * alg.k
    for i in slots or ():
        q[i] = _F1
    if slots is None or not is_square_zero(alg, q):
        raise ValueError(f"no {name} twist vector cataloged for {alg.name}")
    return q


@dataclass
class TwistPipelineReport:
    result: SupertranslationAlgebra  # the twisted algebra
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
    twisted = twist(alg, q)
    analyses: dict = {}
    for target in targets:
        if target in ("conf", "kaehler", "canonical"):
            _, betti = minimal_free_resolution(multiplet_module(twisted, target).module)
            analyses[target] = {"betti": betti, "table": component_fields(betti)}
        elif target == "variety":
            gb = twisted.coordinate_ring().relation_gb()
            analyses[target] = {"hilbert": hilbert_series(gb), "gb_size": len(gb)}
        elif target == "conformal_type":
            analyses[target] = check_conformal_type(twisted)
        else:
            raise ValueError(f"unknown twist analysis {target!r}")
    return TwistPipelineReport(
        result=twisted,
        hdim_source=hdim(alg),
        hdim_twisted=hdim(twisted),
        analyses=analyses,
    )
