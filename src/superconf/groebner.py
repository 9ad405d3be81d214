"""Buchberger Gröbner bases for submodules of graded free modules.

One engine serves ideals (rank-one modules) and genuine submodules.  The
S-pair queue uses the normal strategy with Gebauer-Möller pruning; the
product criterion is applied only in rank one.  Syzygies are produced by a
separate pass over the finished basis (Schreyer's construction), where the
product criterion is never used, because the Koszul syzygy of a coprime pair
is a genuine generator of the syzygy module.

Coefficients stay exact; every basis element is normalized to integer
primitive form with positive lead coefficient, so reduced bases are canonical
and safe to hash for the on-disk cache.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from typing import Sequence

from .rings import (
    FreeModule,
    GradedRing,
    ModuleElement,
    ModuleOrder,
    MonomialOrder,
    Polynomial,
    mon_div,
    mon_divides,
    mon_lcm,
    mon_mul,
)


class StepBudgetExceeded(Exception):
    """Raised when a Gröbner computation exceeds its configured step budget."""


_F0 = Fraction(0)
_F1 = Fraction(1)


def _content_scale(terms: dict) -> Fraction:
    """Fraction s with s*terms integer, content one, ignoring sign."""
    den = 1
    for c in terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    num = 0
    for c in terms.values():
        num = gcd(num, c.numerator * (den // c.denominator))
    return Fraction(den, num)


def _row_scale(row: dict, mon, coeff: Fraction) -> dict:
    return {s: {mon_mul(m, mon): c * coeff for m, c in p.items()} for s, p in row.items()}


def _row_sub(row: dict, other: dict) -> dict:
    out = {s: dict(p) for s, p in row.items()}
    for s, p in other.items():
        tgt = out.setdefault(s, {})
        for m, c in p.items():
            v = tgt.get(m, _F0) - c
            if v:
                tgt[m] = v
            elif m in tgt:
                del tgt[m]
        if not tgt:
            del out[s]
    return out


class _GbElem:
    __slots__ = ("terms", "lt", "lc", "deg", "row")

    def __init__(self, terms: dict, order: ModuleOrder, deg: int, row: dict | None = None):
        scale = _content_scale(terms)
        lt = max(terms, key=order.key)
        if terms[lt] * scale < 0:
            scale = -scale
        if scale != 1:
            terms = {t: c * scale for t, c in terms.items()}
            if row is not None:
                row = {s: {m: c * scale for m, c in p.items()} for s, p in row.items()}
        self.terms = terms
        self.lt = lt
        self.lc = terms[lt]
        self.deg = deg
        self.row = row


def _neg_key(k):
    if isinstance(k, tuple):
        return tuple(_neg_key(x) for x in k)
    return -k


def _heap_key_fn(order: ModuleOrder):
    """Memoized negated order key, for min-heaps acting as max-heaps."""
    memo = getattr(order, "_heap_memo", None)
    if memo is None:
        memo = {}
        order._heap_memo = memo
    key = order.key

    def hk(term):
        v = memo.get(term)
        if v is None:
            v = _neg_key(key(term))
            memo[term] = v
        return v

    return hk


def _reduce_full(
    terms: dict,
    basis: Sequence[_GbElem],
    by_comp: dict,
    order: ModuleOrder,
    row: dict | None = None,
    quotients: list | None = None,
):
    """Full normal form of `terms` against `basis`; returns (rem, row, quotients).

    Terms are consumed from a lazy-deletion heap: stale entries (whose
    coefficient has since cancelled) are skipped on pop.
    """
    work = dict(terms)
    rem: dict = {}
    hk = _heap_key_fn(order)
    heap = [(hk(t), t) for t in work]
    heapq.heapify(heap)
    while heap:
        _, t = heapq.heappop(heap)
        c = work.get(t)
        if not c:
            continue
        comp, mon = t
        hit = None
        for idx in by_comp.get(comp, ()):
            g = basis[idx]
            if mon_divides(g.lt[1], mon):
                hit = (idx, g)
                break
        if hit is None:
            rem[t] = c
            del work[t]
            continue
        idx, g = hit
        q = mon_div(mon, g.lt[1])
        f = c / g.lc
        for (gc, gm), gv in g.terms.items():
            tt = (gc, mon_mul(gm, q))
            old = work.get(tt)
            v = (old if old is not None else _F0) - f * gv
            if v:
                work[tt] = v
                if old is None:
                    heapq.heappush(heap, (hk(tt), tt))
            elif old is not None:
                del work[tt]
        if row is not None and g.row is not None:
            row = _row_sub(row, _row_scale(g.row, q, f))
        if quotients is not None:
            qd = quotients[idx]
            qd[q] = qd.get(q, _F0) + f
    return rem, row, quotients


def _spair_terms(gi: _GbElem, gj: _GbElem, lcm_mon) -> dict:
    mi = mon_div(lcm_mon, gi.lt[1])
    mj = mon_div(lcm_mon, gj.lt[1])
    sterms: dict = {}
    for (c, m), v in gi.terms.items():
        sterms[(c, mon_mul(m, mi))] = v / gi.lc
    for (c, m), v in gj.terms.items():
        t = (c, mon_mul(m, mj))
        w = sterms.get(t, _F0) - v / gj.lc
        if w:
            sterms[t] = w
        elif t in sterms:
            del sterms[t]
    return sterms


def _gm_update(pairs: list, basis: list, t: int, use_product: bool) -> None:
    """Gebauer-Möller pair-set update after appending basis[t].

    A pair is (i, j, (component, lcm monomial)); `pairs` holds pending pairs.
    """
    lt_t = basis[t].lt
    comp_t = lt_t[0]
    kept = []
    for entry in pairs:
        i, j, lcm_ij = entry
        if lcm_ij[0] == comp_t and mon_divides(lt_t[1], lcm_ij[1]):
            lcm_it = mon_lcm(basis[i].lt[1], lt_t[1])
            lcm_jt = mon_lcm(basis[j].lt[1], lt_t[1])
            if lcm_it != lcm_ij[1] and lcm_jt != lcm_ij[1]:
                continue
        kept.append(entry)
    pairs[:] = kept
    cand = [
        (i, mon_lcm(basis[i].lt[1], lt_t[1]))
        for i in range(t)
        if basis[i].lt[0] == comp_t
    ]
    survivors = []
    for i, lcm_i in cand:
        dominated = False
        for j, lcm_j in cand:
            if j != i and lcm_j != lcm_i and mon_divides(lcm_j, lcm_i):
                dominated = True
                break
        if not dominated:
            survivors.append((i, lcm_i))
    by_lcm: dict = {}
    for i, lcm_i in survivors:
        by_lcm.setdefault(lcm_i, []).append(i)
    for lcm_i, idxs in sorted(by_lcm.items()):
        if use_product and any(
            all(min(a, b) == 0 for a, b in zip(basis[i].lt[1], lt_t[1])) for i in idxs
        ):
            continue
        pairs.append((min(idxs), t, (comp_t, lcm_i)))


class GroebnerBasis:
    """Auto-reduced Gröbner basis of a submodule of a graded free module."""

    def __init__(self, module: FreeModule, order: ModuleOrder, internal: list):
        self.module = module
        self.order = order
        self._internal = internal
        self._by_comp: dict = {}
        for idx, g in enumerate(internal):
            self._by_comp.setdefault(g.lt[0], []).append(idx)

    @property
    def elements(self) -> list[ModuleElement]:
        return [ModuleElement(self.module, g.terms) for g in self._internal]

    def lead_terms(self) -> list:
        return [g.lt for g in self._internal]

    def __len__(self):
        return len(self._internal)

    def normal_form(self, f: ModuleElement) -> ModuleElement:
        if f.module.ring != self.module.ring or f.module.rank != self.module.rank:
            raise ValueError("element does not live in the basis module")
        rem, _, _ = _reduce_full(f.terms, self._internal, self._by_comp, self.order)
        return ModuleElement(self.module, rem)

    def reduce_with_quotients(self, f: ModuleElement):
        quotients = [dict() for _ in self._internal]
        rem, _, quotients = _reduce_full(
            f.terms, self._internal, self._by_comp, self.order, quotients=quotients
        )
        return ModuleElement(self.module, rem), quotients


def default_ring_order(ring: GradedRing) -> MonomialOrder:
    return MonomialOrder("wgrevlex", ring.weights)


def default_module_order(module: FreeModule) -> ModuleOrder:
    return ModuleOrder(default_ring_order(module.ring), "TOP")


def buchberger(
    gens: Sequence[ModuleElement],
    order: ModuleOrder | None = None,
    step_budget: int | None = None,
    _track: bool = False,
) -> GroebnerBasis:
    """Auto-reduced Gröbner basis of the submodule generated by `gens`."""
    if not gens:
        raise ValueError("need at least one generator (possibly zero) to fix the module")
    module = gens[0].module
    ring = module.ring
    if order is None:
        order = default_module_order(module)
    use_product = module.rank == 1

    basis: list[_GbElem] = []
    by_comp: dict = {}
    pairs: list = []
    heap: list = []

    def push(terms, deg, row):
        elem = _GbElem(terms, order, deg, row)
        basis.append(elem)
        t = len(basis) - 1
        by_comp.setdefault(elem.lt[0], []).append(t)
        _gm_update(pairs, basis, t, use_product)
        for i, j, lcm in pairs:
            d = ring.degree(lcm[1]) + module.gen_degrees[lcm[0]]
            heapq.heappush(heap, (d, order.key(lcm), i, j, lcm))
        pairs.clear()

    for s, g in enumerate(gens):
        if g.is_zero():
            continue
        if not g.is_homogeneous():
            raise ValueError("Buchberger input must be homogeneous")
        row = {s: {ring.one_monomial(): _F1}} if _track else None
        rem, row, _ = _reduce_full(g.terms, basis, by_comp, order, row=row)
        if rem:
            push(rem, g.degree(), row)

    steps = 0
    seen = set()
    while heap:
        deg, _, i, j, lcm = heapq.heappop(heap)
        if (i, j) in seen:
            continue
        seen.add((i, j))
        # Lazy chain criterion against elements added after the pair was queued.
        skip = False
        for t in range(j + 1, len(basis)):
            lt_t = basis[t].lt
            if lt_t[0] == lcm[0] and mon_divides(lt_t[1], lcm[1]):
                if (
                    mon_lcm(basis[i].lt[1], lt_t[1]) != lcm[1]
                    and mon_lcm(basis[j].lt[1], lt_t[1]) != lcm[1]
                ):
                    skip = True
                    break
        if skip:
            continue
        steps += 1
        if step_budget is not None and steps > step_budget:
            raise StepBudgetExceeded(f"S-pair budget {step_budget} exceeded")
        sterms = _spair_terms(basis[i], basis[j], lcm[1])
        row = None
        if _track:
            gi, gj = basis[i], basis[j]
            row = _row_sub(
                _row_scale(gi.row, mon_div(lcm[1], gi.lt[1]), _F1 / gi.lc),
                _row_scale(gj.row, mon_div(lcm[1], gj.lt[1]), _F1 / gj.lc),
            )
        rem, row, _ = _reduce_full(sterms, basis, by_comp, order, row=row)
        if rem:
            push(rem, deg, row)

    basis = _autoreduce(order, basis, _track)
    return GroebnerBasis(module, order, basis)


def _autoreduce(order: ModuleOrder, basis: list, track: bool) -> list:
    keep = []
    for idx, g in enumerate(basis):
        redundant = False
        for jdx, h in enumerate(basis):
            if jdx == idx:
                continue
            if h.lt[0] == g.lt[0] and mon_divides(h.lt[1], g.lt[1]):
                if h.lt != g.lt or jdx < idx:
                    redundant = True
                    break
        if not redundant:
            keep.append(g)
    keep.sort(key=lambda g: order.key(g.lt))
    final: list = []
    for g in keep:
        others = [h for h in keep if h is not g]
        bc: dict = {}
        for i, h in enumerate(others):
            bc.setdefault(h.lt[0], []).append(i)
        rem, row, _ = _reduce_full(
            dict(g.terms), others, bc, order, row=g.row if track else None
        )
        final.append(_GbElem(rem, order, g.deg, row))
    return final


def ideal_gb(
    ring: GradedRing,
    polys: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    step_budget: int | None = None,
) -> GroebnerBasis:
    """Gröbner basis of an ideal, as a rank-one module computation."""
    module = FreeModule(ring, [0])
    gens = [ModuleElement(module, {(0, m): c for m, c in p.terms.items()}) for p in polys]
    if not gens:
        gens = [module.zero()]
    mod_order = ModuleOrder(order or default_ring_order(ring), "TOP")
    return buchberger(gens, mod_order, step_budget=step_budget)


def ideal_gb_polys(gb: GroebnerBasis) -> list[Polynomial]:
    return [e.component(0) for e in gb.elements]


# ---------------------------------------------------------------------------
# Syzygies
# ---------------------------------------------------------------------------


def schreyer_syzygies(gb: GroebnerBasis) -> tuple[list[ModuleElement], ModuleOrder]:
    """Syzygies of the basis elements; a GB for the induced Schreyer order."""
    basis = gb._internal
    module = gb.module
    order = gb.order
    ring = module.ring
    syz_module = FreeModule(
        ring, [ring.degree(g.lt[1]) + module.gen_degrees[g.lt[0]] for g in basis]
    )
    syz_order = ModuleOrder(
        order.ring_order, "schreyer", schreyer_leads=[g.lt for g in basis], parent=order
    )
    pairs: list = []
    for t in range(len(basis)):
        _gm_update(pairs, basis, t, False)
    syzygies: list[ModuleElement] = []
    by_comp = gb._by_comp
    for i, j, lcm in sorted(
        pairs,
        key=lambda e: (
            ring.degree(e[2][1]) + module.gen_degrees[e[2][0]],
            order.key(e[2]),
            e[0],
            e[1],
        ),
    ):
        gi, gj = basis[i], basis[j]
        sterms = _spair_terms(gi, gj, lcm[1])
        quotients = [dict() for _ in basis]
        rem, _, quotients = _reduce_full(sterms, basis, by_comp, order, quotients=quotients)
        if rem:
            raise AssertionError("S-pair of a Gröbner basis failed to reduce to zero")
        sterms2: dict = {(i, mon_div(lcm[1], gi.lt[1])): _F1 / gi.lc}
        tj = (j, mon_div(lcm[1], gj.lt[1]))
        sterms2[tj] = sterms2.get(tj, _F0) - _F1 / gj.lc
        for idx, q in enumerate(quotients):
            for m, c in q.items():
                tt = (idx, m)
                w = sterms2.get(tt, _F0) - c
                if w:
                    sterms2[tt] = w
                elif tt in sterms2:
                    del sterms2[tt]
        if sterms2:
            scale = _content_scale(sterms2)
            syzygies.append(
                ModuleElement(syz_module, {t: c * scale for t, c in sterms2.items()})
            )
    return syzygies, syz_order


def syzygy_module(
    gens: Sequence[ModuleElement], order: ModuleOrder | None = None
) -> list[ModuleElement]:
    """Generators of the first syzygy module of `gens`.

    Composes the Schreyer syzygies of a transformation-tracked Gröbner basis
    with the change of generators, so the output lives in the free module on
    the original `gens`.
    """
    module = gens[0].module
    if order is None:
        order = default_module_order(module)
    ring = module.ring
    tgt = FreeModule(ring, [0 if g.is_zero() else g.degree() for g in gens])
    out: list[ModuleElement] = []
    nonzero = [(s, g) for s, g in enumerate(gens) if not g.is_zero()]
    for s, g in enumerate(gens):
        if g.is_zero():
            out.append(tgt.gen(s))
    if not nonzero:
        return out
    gb = buchberger([g for _, g in nonzero], order, _track=True)
    basis = gb._internal
    syzygies, _ = schreyer_syzygies(gb)
    U = []
    for _, g in nonzero:
        rem, quotients = gb.reduce_with_quotients(ModuleElement(gb.module, g.terms))
        if not rem.is_zero():
            raise AssertionError("generator failed to reduce against its own basis")
        U.append(quotients)

    def add_terms(terms, s, m, c):
        t = (s, m)
        w = terms.get(t, _F0) + c
        if w:
            terms[t] = w
        elif t in terms:
            del terms[t]

    for z in syzygies:
        terms: dict = {}
        for (t_idx, m), c in z.terms.items():
            for s_local, p in (basis[t_idx].row or {}).items():
                s_orig = nonzero[s_local][0]
                for m2, c2 in p.items():
                    add_terms(terms, s_orig, mon_mul(m, m2), c * c2)
        if terms:
            scale = _content_scale(terms)
            out.append(ModuleElement(tgt, {t: c * scale for t, c in terms.items()}))
    for local_s, (s_orig, g) in enumerate(nonzero):
        terms = {(s_orig, ring.one_monomial()): _F1}
        for t_idx, q in enumerate(U[local_s]):
            for m, c in q.items():
                for s2_local, p in (basis[t_idx].row or {}).items():
                    s2 = nonzero[s2_local][0]
                    for m2, c2 in p.items():
                        add_terms(terms, s2, mon_mul(m, m2), -c * c2)
        if terms:
            scale = _content_scale(terms)
            out.append(ModuleElement(tgt, {t: c * scale for t, c in terms.items()}))
    return out


# ---------------------------------------------------------------------------
# Hilbert series and Krull dimension
# ---------------------------------------------------------------------------


class HilbertSeries:
    """Rational function numerator(t) / prod_i (1 - t^{w_i})."""

    def __init__(self, numerator: dict[int, int], weights: Sequence[int]):
        self.numerator = {d: c for d, c in numerator.items() if c}
        self.weights = list(weights)

    def coefficients(self, upto: int) -> list[int]:
        series = [0] * (upto + 1)
        for d, c in self.numerator.items():
            if 0 <= d <= upto:
                series[d] += c
        for w in self.weights:
            for d in range(w, upto + 1):
                series[d] += series[d - w]
        return series

    def pole_order_at_one(self) -> int:
        num = dict(self.numerator)
        mult = 0
        while num and sum(num.values()) == 0:
            top = max(num)
            q: dict[int, int] = {}
            acc = 0
            for d in range(top):
                acc += num.get(d, 0)
                if acc:
                    q[d] = acc
            num = q
            mult += 1
        return len(self.weights) - mult

    def __eq__(self, other):
        return (
            isinstance(other, HilbertSeries)
            and self.numerator == other.numerator
            and self.weights == other.weights
        )

    def __repr__(self):
        terms = " + ".join(
            f"{c}*t^{d}" if d else f"{c}" for d, c in sorted(self.numerator.items())
        )
        return f"({terms or '0'}) / prod(1-t^w, w in {self.weights})"


def _minimalize_monomials(gens: list) -> list:
    out: list = []
    for g in sorted(gens, key=lambda m: (sum(m), m)):
        if not any(mon_divides(h, g) for h in out):
            out.append(g)
    return out


def _monomial_numerator(gens: tuple, weights: tuple, memo: dict) -> dict[int, int]:
    """Numerator of Hilb(R / monomial ideal); gens assumed minimal."""
    if not gens:
        return {0: 1}
    hit = memo.get(gens)
    if hit is not None:
        return hit
    if any(not any(g) for g in gens):
        memo[gens] = {}
        return {}
    nvars = len(weights)
    counts = [0] * nvars
    for g in gens:
        for i, e in enumerate(g):
            if e:
                counts[i] += 1
    vmax = max(range(nvars), key=lambda i: counts[i])
    if counts[vmax] <= 1:
        # pairwise disjoint supports: a monomial complete intersection
        num = {0: 1}
        for g in gens:
            d = sum(e * w for e, w in zip(g, weights))
            new: dict[int, int] = {}
            for dd, c in num.items():
                new[dd] = new.get(dd, 0) + c
                new[dd + d] = new.get(dd + d, 0) - c
            num = {dd: c for dd, c in new.items() if c}
        memo[gens] = num
        return num
    pivot = tuple(1 if i == vmax else 0 for i in range(nvars))
    plus = [g for g in gens if g[vmax] == 0] + [pivot]
    colon = [tuple(max(e - (1 if i == vmax else 0), 0) for i, e in enumerate(g)) for g in gens]
    n_plus = _monomial_numerator(tuple(_minimalize_monomials(plus)), weights, memo)
    n_colon = _monomial_numerator(tuple(_minimalize_monomials(colon)), weights, memo)
    w = weights[vmax]
    out = dict(n_plus)
    for d, c in n_colon.items():
        v = out.get(d + w, 0) + c
        if v:
            out[d + w] = v
        elif d + w in out:
            del out[d + w]
    memo[gens] = out
    return out


def hilbert_series(gb: GroebnerBasis) -> HilbertSeries:
    """Hilbert series of R/I for a rank-one (ideal) Gröbner basis."""
    if gb.module.rank != 1:
        raise ValueError("hilbert_series expects an ideal (rank-one) basis")
    return HilbertSeries(module_hilbert_numerator(gb), gb.module.ring.weights)


def module_hilbert_numerator(gb: GroebnerBasis) -> dict[int, int]:
    """Numerator of Hilb(F / submodule) over prod(1-t^w), from lead terms."""
    module = gb.module
    ring = module.ring
    by_comp: dict[int, list] = {c: [] for c in range(module.rank)}
    for c, m in gb.lead_terms():
        by_comp[c].append(m)
    out: dict[int, int] = {}
    memo: dict = {}
    for c in range(module.rank):
        num = _monomial_numerator(
            tuple(_minimalize_monomials(by_comp[c])), tuple(ring.weights), memo
        )
        shift = module.gen_degrees[c]
        for d, v in num.items():
            w = out.get(d + shift, 0) + v
            if w:
                out[d + shift] = w
            elif d + shift in out:
                del out[d + shift]
    return out


def krull_dim(gb: GroebnerBasis) -> int:
    """Krull dimension of R/I; the unit ideal maps to -1 by convention."""
    hs = hilbert_series(gb)
    if not hs.numerator:
        return -1
    return hs.pole_order_at_one()


def quotient_dimension(gb: GroebnerBasis, degree: int) -> int:
    """dim_Q of (F/submodule) in one internal degree, via the Hilbert data."""
    if degree < 0:
        return 0
    series = HilbertSeries(module_hilbert_numerator(gb), gb.module.ring.weights)
    return series.coefficients(degree)[degree]


def standard_monomials(gb: GroebnerBasis, degree: int) -> list:
    """Monomial basis of (F/submodule) in one degree: (comp, monomial) pairs."""
    module = gb.module
    ring = module.ring
    by_comp: dict[int, list] = {}
    for c, m in gb.lead_terms():
        by_comp.setdefault(c, []).append(m)
    out = []
    for c in range(module.rank):
        d = degree - module.gen_degrees[c]
        if d < 0:
            continue
        lead_list = by_comp.get(c, [])
        for mon in ring.monomials_of_degree(d):
            if not any(mon_divides(lm, mon) for lm in lead_list):
                out.append((c, mon))
    return out
