"""Multiplet constructions: structure sheaf, surviving translations, one-forms.

Every multiplet is packaged as a module over the polynomial ring with the
nilpotence-ideal relations appended, so resolutions and the Koszul oracle
apply directly.  Component fields are read off the Betti table through the
fixed coordinate rule (row, col) = (j - i, 2i - j), calibrated so the minimal
three-dimensional example lands in the familiar table layout: `component_fields`
maps a complete Betti table to the plain dict {(row, col): dimension}, and
`universal_checks` returns its identities as a list of (name, cell, forced
value) triples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .algebras import SupertranslationAlgebra, derivations_deg0, jacobian
from .groebner import krull_dim, syzygy_module
from .resolutions import (
    BettiTable,
    PresentedModule,
    VerificationFailed,
    _koszul_cycles,
    _koszul_step_columns,
    koszul_homology_is_zero,
    minimal_free_resolution,
)
from .rings import FreeModule, GradedRing, ModuleElement


@dataclass
class MultipletModule:
    """A multiplet presented over the polynomial ring, killed by the ideal."""

    module: PresentedModule

    def graded_dim(self, degree: int) -> int:
        return self.module.graded_dim(degree)


class IncompleteResolutionError(RuntimeError):
    pass


def conf_module(alg: SupertranslationAlgebra) -> MultipletModule:
    """Cokernel of the Jacobian over the variety's coordinate ring.

    Presented over the polynomial ring as the even space tensored with R,
    modulo the Jacobian columns and the ideal times every generator.
    """
    ring = alg.ring()
    d, k = alg.d, alg.k
    free = FreeModule(ring, [0] * d)
    shift = ring.comp_shift
    phi = jacobian(alg)
    rels = [ModuleElement(free, {(mu << shift) + t: c
                                 for mu in range(d) for t, c in phi[mu][b].terms.items()})
            for b in range(k)]
    for q in alg.coordinate_ring().relations:
        for nu in range(d):
            rels.append(free.gen(nu) * q)
    pm = PresentedModule(ring, [0] * d, rels)
    return MultipletModule(pm)


def canonical_module(alg: SupertranslationAlgebra) -> MultipletModule:
    """The structure sheaf of the nilpotence variety as a multiplet: the
    algebra's own R/I, so it shares the one basis of I."""
    return MultipletModule(alg.coordinate_ring())


def kaehler_module(alg: SupertranslationAlgebra) -> MultipletModule:
    """The syzygy part of the first Koszul homology: one-forms on the derived
    superspace.

    Generators are the syzygies of the quadric sequence, living in the even
    dual tensored with R (dual generators in degree two); the quotient by the
    ideal times the ambient free module realizes the two-step subquotient
    whose dimensions complete the comparison sequence against the first
    Koszul homology and the syzygetic defect.  In degrees where the conormal
    map fails to inject this is strictly smaller than the literal kernel of
    the transposed Jacobian on quotient coefficients.  The relations are
    found modulo I times the ambient module, whose reduced basis GB(I)·e_mu
    comes from the algebra's basis of I with no S-pair of its own.
    """
    ring = alg.ring()
    d = alg.d
    quadrics = alg.quadrics()
    v_dual = FreeModule(ring, [2] * d)
    kernel_gens = _koszul_cycles(ring, quadrics, 1, [2] * d) if quadrics else []
    gb = alg.coordinate_ring().relation_gb()
    modulo = [v_dual.gen(mu) * g for g in gb.elements for mu in range(d)]
    return _subquotient(ring, kernel_gens, [], modulo)


def form_module(alg: SupertranslationAlgebra, k: int) -> MultipletModule:
    """The k-th Koszul homology of the bracket quadrics as a multiplet."""
    if k == 0:
        return canonical_module(alg)
    ring = alg.ring()
    quadrics = alg.quadrics()
    d = len(quadrics)
    if k < 0 or k > d:
        raise ValueError(f"form degree {k} out of range 0..{d}")
    kernel_gens = _koszul_cycles(ring, quadrics, k, [2] * d)
    im_cols, _, _ = _koszul_step_columns(ring, quadrics, k + 1, [2] * d)
    return _subquotient(ring, kernel_gens, [c for c in im_cols if not c.is_zero()])


def _subquotient(ring: GradedRing, kernel_gens: list, image: list,
                 modulo: Sequence[ModuleElement] = ()) -> MultipletModule:
    """The span of `kernel_gens` modulo `image` and the submodule N with
    reduced TOP basis `modulo`, presented on the kernel generators.

    All lists live in one free module; the relations are the syzygies of
    kernel_gens + image modulo N (`syzygy_module`), projected onto the kernel
    part.
    """
    if not kernel_gens:
        return MultipletModule(PresentedModule(ring, [], []))
    gen_degs = [g.degree() for g in kernel_gens]
    ngen = len(kernel_gens)
    rel_free = FreeModule(ring, gen_degs)
    end = ngen << ring.comp_shift  # the first term past the kernel part
    rels = [ModuleElement(rel_free, {t: v for t, v in z.terms.items() if t < end})
            for z in syzygy_module(kernel_gens + image, modulo)]
    return MultipletModule(PresentedModule(ring, gen_degs, rels))


def multiplet_module(alg: SupertranslationAlgebra, kind: str) -> MultipletModule:
    if kind == "conf":
        return conf_module(alg)
    if kind == "kaehler":
        return kaehler_module(alg)
    if kind == "canonical":
        return canonical_module(alg)
    # one spelling per degree, so one cache entry per module
    if re.fullmatch(r"form:(0|[1-9][0-9]*)", kind):
        return form_module(alg, int(kind[5:]))
    raise ValueError(f"unknown multiplet kind {kind!r}")


def hdim(alg: SupertranslationAlgebra, cross_check: bool = False) -> int:
    """Homological dimension d - k + dim Y, optionally cross-checked against
    the top nonvanishing Koszul homology of the quadric sequence; a mismatch
    raises `VerificationFailed`."""
    dim_y = krull_dim(alg.coordinate_ring().relation_gb())
    value = alg.d - alg.k + dim_y
    if cross_check:
        ring = alg.ring()
        quadrics = alg.quadrics()
        top = 0
        for kk in range(alg.d, 0, -1):
            if not koszul_homology_is_zero(ring, quadrics, kk, [2] * alg.d):
                top = kk
                break
        if top != value:
            raise VerificationFailed(
                f"hdim mismatch: formula gives {value}, Koszul vanishing gives {top}"
            )
    return value


def component_fields(betti: BettiTable) -> dict[tuple[int, int], int]:
    """The component-field cells {(row, col): dimension}: Betti entry (i, j)
    becomes the cell (j - i, 2i - j)."""
    if not betti.complete:
        raise IncompleteResolutionError("component fields need a complete resolution")
    cells: dict[tuple[int, int], int] = {}
    for (i, j), mult in betti.entries.items():
        key = (j - i, 2 * i - j)
        if key in cells:
            raise AssertionError("coordinate rule collision")
        cells[key] = mult
    return cells


def universal_checks(
    alg: SupertranslationAlgebra,
    table: dict[tuple[int, int], int] | None = None,
) -> list[tuple[str, int, int]]:
    """Exact integer identities tying the low cells of the conf component
    table to the algebra data: smooth vector fields, local supersymmetries,
    R-symmetry, and the metric fluctuations all show up with forced
    dimensions.  Returns every check as (name, cell, forced value)."""
    if table is None:
        _, betti = minimal_free_resolution(conf_module(alg).module)
        table = component_fields(betti)
    g0 = derivations_deg0(alg)
    im_rho2 = g0.rho2_image_dim()
    ker_rho2 = g0.dim - im_rho2
    return [
        ("cell (0,0) = even dimension", table.get((0, 0), 0), alg.d),
        ("cell (0,1) = odd dimension", table.get((0, 1), 0), alg.k),
        ("cell (0,2) = R-symmetry dimension", table.get((0, 2), 0), ker_rho2),
        ("cell (1,0) = metric fluctuations", table.get((1, 0), 0), alg.d * alg.d - im_rho2),
    ]
