"""Weight-graded polynomial rings, monomial orders, and free modules.

Monomials are exponent tuples; module terms are (component, monomial) pairs.
Coefficients are `fractions.Fraction` throughout.  A ring polynomial is just
a rank-one module element, so the Gröbner engine has a single code path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Monomial = tuple  # tuple[int, ...]
ModTerm = tuple  # (component, Monomial)


class GradedRing:
    """Polynomial ring over Q with positive integer weights on the variables."""

    __slots__ = ("names", "weights", "nvars")

    def __init__(self, names: Sequence[str], weights: Sequence[int] | None = None):
        names = list(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        weights = [1] * len(names) if weights is None else list(weights)
        if len(weights) != len(names) or any(w < 1 for w in weights):
            raise ValueError("weights must be positive, one per variable")
        self.names = names
        self.weights = weights
        self.nvars = len(names)

    def degree(self, mon: Monomial) -> int:
        return sum(e * w for e, w in zip(mon, self.weights))

    def one_monomial(self) -> Monomial:
        return (0,) * self.nvars

    def variable(self, i: int) -> "Polynomial":
        mon = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {mon: Fraction(1)})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def constant(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self, {self.one_monomial(): c} if c else {})

    def monomials_of_degree(self, d: int) -> list[Monomial]:
        """All monomials of weighted degree d, in a fixed (lex-ish) order."""
        out: list[Monomial] = []

        def rec(i: int, rem: int, acc: list[int]):
            if i == self.nvars:
                if rem == 0:
                    out.append(tuple(acc))
                return
            w = self.weights[i]
            for e in range(rem // w + 1):
                rec(i + 1, rem - e * w, acc + [e])

        rec(0, d, [])
        return out

    def __eq__(self, other):
        return (
            isinstance(other, GradedRing)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((tuple(self.names), tuple(self.weights)))

    def __repr__(self):
        ws = "" if all(w == 1 for w in self.weights) else f", weights={self.weights}"
        return f"GradedRing({','.join(self.names)}{ws})"


def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mon_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))

def mon_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def mon_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


class MonomialOrder:
    """Total order on ring monomials: grevlex, lex, or weighted grevlex.

    `key` returns a tuple; larger key means larger monomial.
    """

    def __init__(self, kind: str = "wgrevlex", weights: Sequence[int] | None = None):
        if kind not in ("grevlex", "lex", "wgrevlex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.weights = list(weights) if weights is not None else None

    def key(self, mon: Monomial):
        if self.kind == "lex":
            return mon
        if self.kind == "grevlex" or self.weights is None:
            deg = sum(mon)
        else:
            deg = sum(e * w for e, w in zip(mon, self.weights))
        return (deg, tuple(-e for e in reversed(mon)))

    def __repr__(self):
        return f"MonomialOrder({self.kind})"


class ModuleOrder:
    """Order on (component, monomial) pairs.

    kind 'TOP': term over position (ring order first, lower component wins ties).
    kind 'schreyer': induced from lead terms of the previous step's basis;
    ties broken by lower component.
    """

    def __init__(
        self,
        ring_order: MonomialOrder,
        kind: str = "TOP",
        schreyer_leads: Sequence[ModTerm] | None = None,
        parent: "ModuleOrder" | None = None,
    ):
        if kind not in ("TOP", "schreyer"):
            raise ValueError(f"unknown module order kind {kind!r}")
        if kind == "schreyer" and (schreyer_leads is None or parent is None):
            raise ValueError("schreyer order needs the previous leads and parent order")
        self.ring_order = ring_order
        self.kind = kind
        self.schreyer_leads = list(schreyer_leads) if schreyer_leads else None
        self.parent = parent

    def key(self, term: ModTerm):
        comp, mon = term
        if self.kind == "TOP":
            return (self.ring_order.key(mon), -comp)
        lead_comp, lead_mon = self.schreyer_leads[comp]
        return (self.parent.key((lead_comp, mon_mul(mon, lead_mon))), -comp)


class Polynomial:
    """Element of a GradedRing; terms is a dict monomial -> nonzero Fraction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms: Mapping[Monomial, Fraction]):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def degree(self) -> int:
        """Weighted degree; requires homogeneity (checked)."""
        degs = {self.ring.degree(m) for m in self.terms}
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop() if degs else 0

    def is_homogeneous(self) -> bool:
        return len({self.ring.degree(m) for m in self.terms}) <= 1

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, Fraction(0)) + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = mon_mul(m1, m2)
                    v = out.get(m, Fraction(0)) + c1 * c2
                    if v:
                        out[m] = v
                    elif m in out:
                        del out[m]
            return Polynomial(self.ring, out)
        c = Fraction(other)
        return Polynomial(self.ring, {m: v * c for m, v in self.terms.items()})

    __rmul__ = __mul__

    def lead(self, order: MonomialOrder) -> tuple[Monomial, Fraction]:
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=MonomialOrder("wgrevlex", self.ring.weights).key, reverse=True):
            c = self.terms[m]
            factors = [
                self.ring.names[i] + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m)
                if e
            ]
            body = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                parts.append(body)
            elif c == -1 and factors:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}" if factors else f"{c}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    __repr__ = __str__


class FreeModule:
    """Graded free module over a GradedRing with per-generator internal degrees."""

    __slots__ = ("ring", "rank", "gen_degrees")

    def __init__(self, ring: GradedRing, gen_degrees: Sequence[int]):
        self.ring = ring
        self.gen_degrees = list(gen_degrees)
        self.rank = len(self.gen_degrees)

    def zero(self) -> "ModuleElement":
        return ModuleElement(self, {})

    def gen(self, i: int) -> "ModuleElement":
        return ModuleElement(self, {(i, self.ring.one_monomial()): Fraction(1)})

    def __eq__(self, other):
        return (
            isinstance(other, FreeModule)
            and self.ring == other.ring
            and self.gen_degrees == other.gen_degrees
        )

    def __repr__(self):
        return f"FreeModule(rank={self.rank}, degrees={self.gen_degrees})"


class ModuleElement:
    """Element of a FreeModule; terms is a dict (comp, monomial) -> Fraction."""

    __slots__ = ("module", "terms")

    def __init__(self, module: FreeModule, terms: Mapping[ModTerm, Fraction]):
        self.module = module
        self.terms = {t: c for t, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree (generator degree + monomial degree); checks homogeneity."""
        ring = self.module.ring
        degs = {ring.degree(m) + self.module.gen_degrees[c] for c, m in self.terms}
        if len(degs) > 1:
            raise ValueError("module element is not homogeneous")
        return degs.pop() if degs else 0

    def is_homogeneous(self) -> bool:
        ring = self.module.ring
        return len({ring.degree(m) + self.module.gen_degrees[c] for c, m in self.terms}) <= 1

    def component(self, i: int) -> Polynomial:
        return Polynomial(
            self.module.ring, {m: c for (j, m), c in self.terms.items() if j == i}
        )

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        out = dict(self.terms)
        for t, c in other.terms.items():
            v = out.get(t, Fraction(0)) + c
            if v:
                out[t] = v
            elif t in out:
                del out[t]
        return ModuleElement(self.module, out)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(self.module, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + (-other)

    def scale(self, mon: Monomial, coeff: Fraction) -> "ModuleElement":
        return ModuleElement(
            self.module,
            {(c, mon_mul(m, mon)): v * coeff for (c, m), v in self.terms.items()},
        )

    def mul_poly(self, p: Polynomial) -> "ModuleElement":
        out: dict[ModTerm, Fraction] = {}
        for (c, m), v in self.terms.items():
            for m2, c2 in p.terms.items():
                t = (c, mon_mul(m, m2))
                w = out.get(t, Fraction(0)) + v * c2
                if w:
                    out[t] = w
                elif t in out:
                    del out[t]
        return ModuleElement(self.module, out)

    def lead(self, order: ModuleOrder) -> tuple[ModTerm, Fraction]:
        t = max(self.terms, key=order.key)
        return t, self.terms[t]

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.module == other.module
            and self.terms == other.terms
        )

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({self.component(i)})*e{i}"
            for i in range(self.module.rank)
            if not self.component(i).is_zero()
        ).replace("+ -", "- ")

    __repr__ = __str__


def poly_ring(*names: str, weights: Sequence[int] | None = None) -> tuple:
    """Convenience: ring plus its variables, `R, x, y = poly_ring("x", "y")`."""
    ring = GradedRing(list(names), weights)
    return (ring, *[ring.variable(i) for i in range(ring.nvars)])
