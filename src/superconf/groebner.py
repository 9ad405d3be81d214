"""Buchberger Gröbner bases for submodules of graded free modules.

One engine serves ideals (rank-one modules) and genuine submodules.  The
S-pair queue uses the normal strategy with Gebauer-Möller pruning; the
product criterion is applied only in rank one.  `schreyer_syzygies` reads the
syzygies of a finished basis off the reductions of the pairs of Schreyer's
theorem, so they already form a Gröbner basis for the induced order (the
Schreyer frame), with no Buchberger run.  `syzygy_module` needs only
generators and, optionally, the reduced basis of a submodule N to work
modulo: it runs the same S-pair loop on the basis of N, taken as known, and
the generators tagged with their own basis vectors, and collects the
remainders that are all tag.

The core works on packed int terms (see `rings`), the layout a
`ModuleElement` holds too, with int order keys and integer coefficients.  The
pair criteria (Gebauer-Möller, the product criterion, the lazy chain test),
the Schreyer quotients and the Hilbert numerator run on the packed
divisibility test, the fieldwise-max lcm through the guard bits and the
coprimality test of `rings`; an lcm gets its degree field and key once, when
its pair is queued or kept.
Every basis element is primitive with positive lead coefficient, so reduced
bases are canonical and safe to hash for the on-disk cache.  Reduction is
fraction-free: the working polynomial carries a running scale and is
rescaled only when a lead coefficient does not divide, and each step is
recorded as integers (element, quotient, key, factor, scale).  A syzygy is
built from that record in integers and packed terms, so a frame goes from
S-pair to the next step's basis without leaving the core.  `Fraction`s
appear only at the public boundary: `elements`, `normal_form` and the
syzygies of `syzygy_module`.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm as int_lcm
from typing import Sequence

from .rings import (
    COMP_BITS,
    FIELD_BITS,
    FIELD_LIMIT,
    FIELD_MASK,
    FreeModule,
    GradedRing,
    ModuleElement,
    ModuleOrder,
)


class StepBudgetExceeded(Exception):
    """Raised when a computation exceeds its step cap (see `minimal_free_resolution`)."""


def _work(order: ModuleOrder, terms: dict):
    """(work, heap, scale) of {packed term: Fraction}: the integer coefficients
    work with terms = work / scale, and heap entries (-key, t)."""
    scale = int_lcm(*(c.denominator for c in terms.values()))
    work = {t: c.numerator * (scale // c.denominator) for t, c in terms.items()}
    return work, [(-order.key(t), t) for t in work], scale


class _GbElem:
    """A basis element with primitive integer terms and positive lead.

    `lt`, `lc` and `nlt` are the packed lead term, its coefficient and its
    negated order key; `tail` lists the other terms as (term, coefficient,
    negated key) in descending order.
    """

    __slots__ = ("lt", "lc", "nlt", "tail")

    def __init__(self, rem: list, scale: int):
        coeffs = [c * (scale // s) for _, _, c, s in rem]
        content = gcd(*coeffs) if coeffs[0] > 0 else -gcd(*coeffs)
        self.nlt, self.lt = rem[0][:2]
        self.lc = coeffs[0] // content
        self.tail = [(rem[n][1], coeffs[n] // content, rem[n][0]) for n in range(1, len(rem))]

    def work(self):
        """(work, heap, scale) of this element, for reducing it again."""
        items = [(self.lt, self.lc, self.nlt), *self.tail]
        return {t: c for t, c, _ in items}, [(nk, t) for t, _, nk in items], 1

    def packed(self) -> list[tuple[int, int]]:
        """(packed term, integer coefficient) pairs, lead first."""
        return [(self.lt, self.lc), *((t, c) for t, c, _ in self.tail)]


def _reduce_full(work: dict, heap: list, scale: int, by_comp: dict, ring: GradedRing,
                 steps: list | None = None):
    """Full normal form of work / scale against the elements in `by_comp`.

    `work` maps packed terms to integer coefficients and `heap` holds their
    (negated key, term) entries; both are consumed.  Stale heap entries, whose
    coefficient has since cancelled, are skipped on pop.  A step by element g
    at the quotient d = t - g.lt rescales the work only if g.lc does not
    divide the coefficient, and keys each new term as its key in g plus
    key(t) - key(g.lt).  Returns (rem, scale): rem lists (negated key,
    term, c, s) in descending order, the remainder coefficient being c / s.
    Each step is appended to `steps` as (g, d, nk, f, s): it subtracted
    f / s * d * g at the term t = d + g.lt of negated key nk.  Every term is
    reduced at most once, so (g, d) never repeats.
    """
    cshift, guard = ring.comp_shift, ring.guard
    pop, push = heapq.heappop, heapq.heappush
    heapq.heapify(heap)
    rem: list = []
    while heap:
        nk, t = pop(heap)
        c = work.pop(t, 0)
        if not c:
            continue
        for g in by_comp.get(t >> cshift, ()):
            d = t - g.lt
            if d >= 0 and not d & guard:
                break
        else:
            rem.append((nk, t, c, scale))
            continue
        lc = g.lc
        if c % lc:
            m = lc // gcd(c, lc)
            for u in work:
                work[u] *= m
            scale *= m
            c *= m
        f = c // lc
        dk = nk - g.nlt
        for u, v, k in g.tail:
            u += d
            old = work.get(u)
            if old is None:
                work[u] = -f * v
                push(heap, (k + dk, u))
            else:
                old -= f * v
                if old:
                    work[u] = old
                else:
                    del work[u]
        if steps is not None:
            steps.append((g, d, nk, f, scale))
    return rem, scale


def _spair(gi: _GbElem, gj: _GbElem, lcm_t: int, lcm_nk: int):
    """(work, heap, scale) of the S-polynomial of gi and gj at the packed lcm.

    The integer combination (lc_j*mi*gi - lc_i*mj*gj) / gcd(lc_i, lc_j) is
    `scale` times the monic S-polynomial; the lead terms cancel and are left out.
    """
    h = gcd(gi.lc, gj.lc)
    ai, aj = gj.lc // h, gi.lc // h
    work: dict = {}
    heap: list = []
    for g, a in ((gi, ai), (gj, -aj)):
        d, dk = lcm_t - g.lt, lcm_nk - g.nlt
        for u, v, k in g.tail:
            u += d
            old = work.get(u)
            if old is None:
                work[u] = a * v
                heap.append((k + dk, u))
            elif old + a * v:
                work[u] = old + a * v
            else:
                del work[u]
    return work, heap, ai * gi.lc


def _gm_update(ring: GradedRing, basis: list, t: int, use_product: bool) -> list:
    """Gebauer-Möller: the new pairs (i, t, lcm) after appending basis[t], the
    lcm the exponent part of lcm(lt_i, lt_t), one pair per distinct lcm.

    A candidate i of the same component is dropped when another candidate's
    lcm properly divides its own; among equal lcms the smallest i is kept,
    and in rank one the group is dropped when one of its leads is coprime to
    lt_t.  Pairs queued before basis[t] are pruned lazily by the chain test
    in the S-pair loop.
    """
    guard, cshift, lcm = ring.guard, ring.comp_shift, ring.lcm
    lt_t = basis[t].lt
    comp_t = lt_t >> cshift
    cand = [(i, lcm(basis[i].lt, lt_t)) for i in range(t) if basis[i].lt >> cshift == comp_t]
    lcms = [m for _, m in cand]
    by_lcm: dict = {}
    for i, m in cand:
        for other in lcms:
            d = m - other
            if d > 0 and not d & guard:  # other properly divides m
                break
        else:
            by_lcm.setdefault(m, []).append(i)
    return [
        (idxs[0], t, m) for m, idxs in by_lcm.items()
        if not (use_product and any(ring.coprime(basis[i].lt, lt_t) for i in idxs))
    ]


def _by_comp(elems, cshift: int) -> dict:
    out: dict = {}
    for g in elems:
        out.setdefault(g.lt >> cshift, []).append(g)
    return out


class GroebnerBasis:
    """Auto-reduced Gröbner basis of a submodule of a graded free module."""

    def __init__(self, module: FreeModule, order: ModuleOrder, internal: list):
        self.module = module
        self.order = order
        self._internal = internal
        self._by_comp = _by_comp(internal, module.ring.comp_shift)
        self._hilbert: dict[int, int] | None = None  # see module_hilbert_numerator

    @property
    def elements(self) -> list[ModuleElement]:
        return [ModuleElement(self.module, {t: Fraction(c) for t, c in g.packed()})
                for g in self._internal]

    def lead_terms(self) -> list[int]:
        """The packed lead terms, in basis order."""
        return [g.lt for g in self._internal]

    def __len__(self):
        return len(self._internal)

    def normal_form(self, f: ModuleElement) -> ModuleElement:
        if f.module.ring != self.module.ring or f.module.rank != self.module.rank:
            raise ValueError("element does not live in the basis module")
        work, heap, scale = _work(self.order, f.terms)
        rem, _ = _reduce_full(work, heap, scale, self._by_comp, self.module.ring)
        return ModuleElement(self.module, {t: Fraction(c, s) for _, t, c, s in rem})


def buchberger(gens: Sequence[ModuleElement], order: ModuleOrder | None = None) -> GroebnerBasis:
    """Auto-reduced Gröbner basis of the submodule generated by `gens`, by
    default in the TOP order."""
    if not gens:
        raise ValueError("need at least one generator (possibly zero) to fix the module")
    module = gens[0].module
    if order is None:
        order = ModuleOrder.top(module.ring, module.rank)
    if order.ring != module.ring or len(order.base) != module.rank:
        raise ValueError(f"a module order of rank {len(order.base)} over {order.ring} "
                         f"does not fit rank {module.rank} over {module.ring}")
    basis, _ = _spair_loop(gens, order, module.rank)
    return GroebnerBasis(module, order, _autoreduce(module.ring, basis))


def _spair_loop(gens: Sequence[ModuleElement], order: ModuleOrder, tags: int,
                known: int = 0) -> tuple[list, list]:
    """Buchberger's S-pair loop: (basis, set aside), both lists of `_GbElem`.

    Each generator and each S-pair is reduced fully against the basis so far.
    A remainder whose lead lies in a component below `tags` joins the basis;
    one whose lead lies in component `tags` or above is set aside and never
    joins it.  With `tags` the rank of the module nothing is set aside.  A
    generator's degrees are read off its packed terms.

    The first `known` generators are a reduced Gröbner basis, below `tags`.
    Each must come out of its reduction against the ones before it unchanged,
    or `ValueError` is raised; that catches a prefix that is not reduced, but
    does not certify that it is a Gröbner basis.  They join the basis as they
    are and no pair of two of them is queued; their pairs with later elements
    are queued as usual.
    """
    module = gens[0].module
    ring, gen_degrees = module.ring, module.gen_degrees
    use_product = module.rank == 1

    cshift, guard, exps, lcm = ring.comp_shift, ring.guard, ring.exps, ring.lcm
    unit = 1 << cshift
    basis: list[_GbElem] = []
    aside: list[_GbElem] = []
    by_comp: dict = {}
    heap: list = []
    first_tag = tags << cshift

    def push(rem, scale):
        elem = _GbElem(rem, scale)
        if elem.lt >= first_tag:
            aside.append(elem)
            return
        basis.append(elem)
        t = len(basis) - 1
        comp = elem.lt >> cshift
        by_comp.setdefault(comp, []).append(elem)
        if t < known:
            return
        # Heap entries (degree, key, i, j, packed lcm): the degree field and
        # the order key of an lcm are computed once, when its pair is queued.
        for i, j, m in _gm_update(ring, basis, t, use_product):
            lcm_t = (comp << cshift) + ring.with_degree(m)
            d = ring.term_degree(lcm_t) + gen_degrees[comp]
            heapq.heappush(heap, (d, order.key(lcm_t), i, j, lcm_t))

    for n, g in enumerate(gens):
        work, wheap, scale = _work(order, g.terms)
        if len({ring.term_degree(t) + gen_degrees[t >> cshift] for t in work}) > 1:
            raise ValueError("Buchberger input must be homogeneous")
        steps: list | None = [] if n < known else None
        rem, scale = _reduce_full(work, wheap, scale, by_comp, ring, steps)
        if n < known and (steps or not rem):
            raise ValueError("modulo is not a reduced Gröbner basis")
        if rem:
            push(rem, scale)

    while heap:
        _, key, i, j, lcm_t = heapq.heappop(heap)
        # Lazy chain criterion against elements added after the pair was queued:
        # lt_t divides the lcm in its component, and neither lcm(lt_i, lt_t)
        # nor lcm(lt_j, lt_t) is the whole lcm.
        m, lt_i, lt_j = lcm_t & exps, basis[i].lt, basis[j].lt
        skip = False
        for t in range(j + 1, len(basis)):
            lt_t = basis[t].lt
            d = lcm_t - lt_t
            if 0 <= d < unit and not d & guard and lcm(lt_i, lt_t) != m and lcm(lt_j, lt_t) != m:
                skip = True
                break
        if skip:
            continue
        work, wheap, scale = _spair(basis[i], basis[j], lcm_t, -key)
        rem, scale = _reduce_full(work, wheap, scale, by_comp, ring)
        if rem:
            push(rem, scale)
    return basis, aside


def _autoreduce(ring: GradedRing, basis: list) -> list:
    guard, unit = ring.guard, 1 << ring.comp_shift
    keep = []
    for idx, g in enumerate(basis):
        redundant = False
        for jdx, h in enumerate(basis):
            if jdx == idx:
                continue
            d = g.lt - h.lt
            if 0 <= d < unit and not d & guard:
                if d or jdx < idx:
                    redundant = True
                    break
        if not redundant:
            keep.append(g)
    keep.sort(key=lambda g: -g.nlt)
    # Each element is reduced by all the others: take it out of its
    # component's list and put it back at the same place afterwards.
    by_comp = _by_comp(keep, ring.comp_shift)
    final: list = []
    for g in keep:
        same = by_comp[g.lt >> ring.comp_shift]
        at = same.index(g)
        del same[at]
        work, heap, scale = g.work()
        rem, scale = _reduce_full(work, heap, scale, by_comp, ring)
        same.insert(at, g)
        final.append(_GbElem(rem, scale))
    return final


def ideal_gb(ring: GradedRing, polys: Sequence[ModuleElement]) -> GroebnerBasis:
    """Gröbner basis of the ideal generated by ring elements `polys`: the
    rank-one case of `buchberger`."""
    return buchberger(list(polys) or [ring.zero()], ModuleOrder.top(ring, 1))


# ---------------------------------------------------------------------------
# Syzygies
# ---------------------------------------------------------------------------


def _pair_syzygy(gb: GroebnerBasis, index: dict, i: int, j: int, lcm_t: int, lcm_nk: int) -> _GbElem:
    """The syzygy of basis elements i < j read off the reduction of their S-pair.

    With h = gcd(lc_i, lc_j), the S-polynomial (lc_j/h)*m_i*g_i -
    (lc_i/h)*m_j*g_j is `scale0` times the monic one; it is recorded as two
    steps of factors -lc_j/h and lc_i/h, ahead of the reduction's own steps.
    Each step (g, d, nk, f, s) takes f / s * d * g off, and they end at zero,
    so the sum of -f*(S/s)*d*e_g over the steps, S the final scale, is an
    integer syzygy; divided by its content it is returned as a basis element
    of the syzygy module.  A term (idx, d) packs as (idx << comp_shift) + d,
    and its negated Schreyer key is (nk << COMP_BITS) + idx, nk the negated
    key of d + lt_idx, since ring keys are linear with key(1) = 0.  The steps
    run down from the lcm, so m_i*e_i leads and the terms come out sorted.
    """
    basis, ring = gb._internal, gb.module.ring
    cshift = ring.comp_shift
    gi, gj = basis[i], basis[j]
    work, heap, scale0 = _spair(gi, gj, lcm_t, lcm_nk)
    h = gcd(gi.lc, gj.lc)
    steps = [
        (gi, lcm_t - gi.lt, lcm_nk, -(gj.lc // h), scale0),
        (gj, lcm_t - gj.lt, lcm_nk, gi.lc // h, scale0),
    ]
    rem, scale = _reduce_full(work, heap, scale0, gb._by_comp, ring, steps=steps)
    if rem:
        raise AssertionError("S-pair of a Gröbner basis failed to reduce to zero")
    syz = []
    for g, d, nk, f, s in steps:
        idx = index[g]
        syz.append(((nk << COMP_BITS) + idx, (idx << cshift) + d, -f, s))
    return _GbElem(syz, scale)


def schreyer_syzygies(gb: GroebnerBasis) -> tuple[GroebnerBasis, ModuleOrder]:
    """The Schreyer frame of a Gröbner basis: its syzygies as a Gröbner basis.

    In the induced order lower indices win ties, so the S-pair syzygy of
    i < j has lead term (lcm_ij / lt_i) * e_i.  For each i the frame keeps the
    pairs j > i whose quotients lcm_ij / lt_i minimally generate the colon
    ideal (lt_j : lt_i)_{j>i}, the smallest j among equal quotients.  The
    quotients are packed exponent parts, taken in ascending order as ints:
    a proper divisor is a smaller int, so each quotient is tested only
    against kept ones, and the kept set is the colon ideal's minimal
    generators whatever the order among incomparable ones.  Their
    lead terms generate the lead module of all syzygies (Schreyer's theorem),
    so the frame is a Gröbner basis for the induced order: minimal, not
    autoreduced, sorted by ascending lead as `buchberger` sorts its output.
    Returns (frame, induced order).
    """
    basis = gb._internal
    module = gb.module
    order = gb.order
    ring = module.ring
    guard, cshift, lcm = ring.guard, ring.comp_shift, ring.lcm
    syz_module = FreeModule(
        ring, [ring.term_degree(g.lt) + module.gen_degrees[g.lt >> cshift] for g in basis]
    )
    syz_order = ModuleOrder.schreyer(order, [g.lt for g in basis])
    index = {g: n for n, g in enumerate(basis)}
    frame: list[_GbElem] = []
    for i, gi in enumerate(basis):
        lt = gi.lt
        exps = lt & ring.exps
        quotients: dict = {}
        for g in gb._by_comp[lt >> cshift]:
            j = index[g]
            if j > i:
                quotients.setdefault(lcm(lt, g.lt) - exps, j)
        kept: list[int] = []
        for q in sorted(quotients):
            if any(not (q - r) & guard for r in kept):  # r <= q, so r | q
                continue
            kept.append(q)
            lcm_t = (lt >> cshift << cshift) + ring.with_degree(exps + q)
            frame.append(_pair_syzygy(gb, index, i, quotients[q], lcm_t, -order.key(lcm_t)))
    frame.sort(key=lambda z: -z.nlt)
    return GroebnerBasis(syz_module, syz_order, frame), syz_order


def syzygy_module(gens: Sequence[ModuleElement],
                  modulo: Sequence[ModuleElement] = ()) -> list[ModuleElement]:
    """Generators of {a : sum a_s g_s in N}, in the free module with one basis
    vector e_s of degree deg g_s per generator (degree 0 if zero), where N is
    the submodule with reduced TOP basis `modulo` (Singular's `modulo`).  With
    no `modulo`, N is zero and these are the first syzygies of `gens`.

    Each generator g_s in F is tagged as g_s + e_s in F + T, ordered by TOP on
    each part with every term of F above every tag, and one run of the S-pair
    loop of `buchberger`, with the `modulo` elements untagged in front, sets
    aside each remainder whose lead is a tag.  Such a remainder has no F part,
    and every element of the tagged module is f + sum a_s e_s with
    f - sum a_s g_s in N, so its tags lie in the output module.  They generate
    it, by three facts:

    1. Every basis element h = f + tau has F lead, and the F parts reduce as
       in an untagged run, so they form a Gröbner basis of N plus the module
       of the g_s.  The pairs that survive the Gebauer-Möller criteria have
       standard representations whose syzygies generate the syzygies of those
       F parts (Schreyer); the product criterion is off, since F + T has rank
       at least 2, so the Koszul syzygies of coprime pairs are among them.
    2. A pair's standard representation, applied to the tagged elements,
       gives its remainder: zero, a set-aside element, or a new basis
       element h.  In the last case the representation with -h added maps
       to zero in the output module, because h's tag is exactly h's
       expression in the g_s, modulo N.
    3. A generator that reduces to zero gives e_s minus its own expression;
       a zero generator enters as e_s itself.

    The loop queues no pair of two `modulo` elements, and the skip is exact:
    every such pair has a standard representation over the `modulo` elements,
    since they are a Gröbner basis; the Gebauer-Möller and chain criteria need
    only that the pairs they lean on have standard representations; and such
    a pair's syzygy touches only untagged elements, so its image in the tags
    is zero.  TOP on F is the restriction of the tagged order, so a reduced
    TOP basis of N is a reduced basis there, as GB(I)·e_mu is for I·F.

    So an a in the output module, with sum a_s g_s = n in N, gives
    sum a_s (g_s + e_s) - n = sum a_s e_s, an element of the tagged module,
    which is a combination of basis elements and set-aside ones; its basis
    part has zero F part, so by 1 and 2 it is a combination of set-aside
    ones too.

    `ValueError` is raised when the generators and `modulo` do not live in
    one module, and when reducing a `modulo` element against the ones before
    it changes it: a cheap check that catches a `modulo` that is not reduced,
    but does not certify that it is a Gröbner basis.
    """
    if not gens:
        raise ValueError("need at least one generator (possibly zero) to fix the module")
    module = gens[0].module
    if any(g.module != module for g in (*gens, *modulo)):
        raise ValueError("generators and modulo must live in one module")
    ring = module.ring
    rank, cshift = module.rank, ring.comp_shift
    degrees = [0 if g.is_zero() else g.degree() for g in gens]
    tagged = FreeModule(ring, module.gen_degrees + degrees)
    order = ModuleOrder.tagged(ring, rank, len(gens))
    _, aside = _spair_loop(
        [*(ModuleElement(tagged, m.terms) for m in modulo),
         *(ModuleElement(tagged, {**g.terms, (rank + s) << cshift: Fraction(1)})
           for s, g in enumerate(gens))],
        order, rank, known=len(modulo),
    )
    tgt, base = FreeModule(ring, degrees), rank << cshift
    return [ModuleElement(tgt, {t - base: Fraction(c) for t, c in z.packed()}) for z in aside]


# ---------------------------------------------------------------------------
# Hilbert series and Krull dimension
# ---------------------------------------------------------------------------


class HilbertSeries:
    """Rational function numerator(t) / (1 - t)^nvars."""

    def __init__(self, numerator: dict[int, int], nvars: int):
        self.numerator = {d: c for d, c in numerator.items() if c}
        self.nvars = nvars

    def coefficients(self, upto: int) -> list[int]:
        """Coefficients of t^0 .. t^upto, accumulated from the lowest
        numerator degree, so terms of negative degree count too."""
        lo = min(0, min(self.numerator, default=0))
        series = [0] * (upto + 1 - lo)
        for d, c in self.numerator.items():
            if d <= upto:
                series[d - lo] += c
        for _ in range(self.nvars):
            for i in range(1, len(series)):
                series[i] += series[i - 1]
        return series[-lo:]

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
        return self.nvars - mult

    def __eq__(self, other):
        return (
            isinstance(other, HilbertSeries)
            and self.numerator == other.numerator
            and self.nvars == other.nvars
        )

    def __repr__(self):
        terms = " + ".join(
            f"{c}*t^{d}" if d else f"{c}" for d, c in sorted(self.numerator.items())
        )
        return f"({terms or '0'}) / (1-t)^{self.nvars}"


def _minimalize_monomials(gens, guard: int) -> list:
    """The minimal generators of packed monomials of one component, ascending.

    A proper divisor is a smaller int, so each monomial needs testing only
    against the kept ones, all at most itself."""
    out: list = []
    for g in sorted(gens):
        if not any(not (g - h) & guard for h in out):
            out.append(g)
    return out


def _monomial_numerator(gens: tuple, ring: GradedRing, memo: dict) -> dict[int, int]:
    """Numerator of Hilb(R / monomial ideal), by Bigatti's pivot recursion.

    `gens` are the minimal generators as packed monomials of component 0,
    ascending (`_minimalize_monomials`), so their degree field is their top
    field.  The pivot is a variable in the most generators, the first among
    equals; its count per variable is a sum of the nonzero-field bits.  The
    colon by the pivot subtracts it from each generator it divides.
    """
    if not gens:
        return {0: 1}
    hit = memo.get(gens)
    if hit is not None:
        return hit
    if not gens[0]:  # the unit ideal
        memo[gens] = {}
        return {}
    nvars, guard, low, ones = ring.nvars, ring.guard, ring.low, ring.guard >> FIELD_BITS - 1
    counts = [0] * nvars
    for at in range(0, len(gens), FIELD_LIMIT):  # a field holds a count below 2**FIELD_BITS
        total = sum((g + low) >> FIELD_BITS - 1 & ones for g in gens[at:at + FIELD_LIMIT])
        for i in range(nvars):
            counts[i] += total >> FIELD_BITS * i & FIELD_MASK
    vmax = max(range(nvars), key=counts.__getitem__)
    if counts[vmax] <= 1:
        # pairwise disjoint supports: a monomial complete intersection
        num = {0: 1}
        for g in gens:
            d = g >> ring.deg_shift
            new: dict[int, int] = {}
            for dd, c in num.items():
                new[dd] = new.get(dd, 0) + c
                new[dd + d] = new.get(dd + d, 0) - c
            num = {dd: c for dd, c in new.items() if c}
        memo[gens] = num
        return num
    field = FIELD_MASK << FIELD_BITS * vmax
    pivot = ring.var_terms[vmax]
    plus = [g for g in gens if not g & field] + [pivot]
    colon = [g - pivot if g & field else g for g in gens]
    n_plus = _monomial_numerator(tuple(_minimalize_monomials(plus, guard)), ring, memo)
    n_colon = _monomial_numerator(tuple(_minimalize_monomials(colon, guard)), ring, memo)
    out = dict(n_plus)
    for d, c in n_colon.items():  # the colon's numerator times t
        v = out.get(d + 1, 0) + c
        if v:
            out[d + 1] = v
        else:
            out.pop(d + 1, None)
    memo[gens] = out
    return out


def hilbert_series(gb: GroebnerBasis) -> HilbertSeries:
    """Hilbert series of R/I for a rank-one (ideal) Gröbner basis."""
    if gb.module.rank != 1:
        raise ValueError("hilbert_series expects an ideal (rank-one) basis")
    return HilbertSeries(module_hilbert_numerator(gb), gb.module.ring.nvars)


def module_hilbert_numerator(gb: GroebnerBasis) -> dict[int, int]:
    """Numerator of Hilb(F / submodule) over (1-t)^nvars, from lead terms.

    Computed once per basis, so `hilbert_series`, `krull_dim` and
    `is_gorenstein` on one basis share it; each call returns a fresh dict.
    """
    if gb._hilbert is not None:
        return dict(gb._hilbert)
    module = gb.module
    ring = module.ring
    out: dict[int, int] = {}
    memo: dict = {}
    for c in range(module.rank):
        leads = (g.lt - (c << ring.comp_shift) for g in gb._by_comp.get(c, ()))
        num = _monomial_numerator(tuple(_minimalize_monomials(leads, ring.guard)), ring, memo)
        shift = module.gen_degrees[c]
        for d, v in num.items():
            w = out.get(d + shift, 0) + v
            if w:
                out[d + shift] = w
            elif d + shift in out:
                del out[d + shift]
    gb._hilbert = out
    return dict(out)


def krull_dim(gb: GroebnerBasis) -> int:
    """Krull dimension of R/I; the unit ideal maps to -1 by convention."""
    hs = hilbert_series(gb)
    if not hs.numerator:
        return -1
    return hs.pole_order_at_one()


def standard_monomials(gb: GroebnerBasis, degree: int) -> list:
    """The monomial basis of (F/submodule) in one degree: packed terms, by component."""
    module = gb.module
    ring = module.ring
    divides = ring.divides
    out = []
    for c in range(module.rank):
        d = degree - module.gen_degrees[c]
        if d < 0:
            continue
        leads, base = [g.lt for g in gb._by_comp.get(c, ())], c << ring.comp_shift
        for t in ring.monomials_of_degree(d):
            t += base
            if not any(divides(lt, t) for lt in leads):
                out.append(t)
    return out
