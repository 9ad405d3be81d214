"""Graded polynomial rings, their module orders, and free modules.

Every variable has degree one, so the degree of a monomial is the sum of its
exponents.  A module term is one packed int (`GradedRing.pack`): component |
degree | one 16-bit field per exponent, the top bit of each field a guard G.
A `ModuleElement` maps packed terms to `fractions.Fraction` coefficients, and
a ring element is a `ModuleElement` of the rank-one module `FreeModule(ring,
[0])`, whose terms all have component 0: there is no separate polynomial type
and no second term layout, so rings, the Gröbner engine and resolutions share
one representation and one code path.  Exponent tuples (`GradedRing.unpack`)
are built only to print and in the derivation-complex oracle.

Every exponent is at most FIELD_LIMIT, so the term arithmetic runs field by
field with no carry or borrow across fields:

- product: `s + t`, once the sum of the two degree fields is checked
  (`ModuleElement.__mul__` checks the largest of each factor);
- divisibility (`GradedRing.divides`): `d = t - s` is the quotient when
  `d >= 0 and not d & G`, for two terms of one component or two exponent
  parts (`t & ring.exps`);
- lcm (`GradedRing.lcm`), the fieldwise max through the guard bits:
  `fm = ((a | G) - b) & G` has the guard of each field where a >= b, and
  `fm - (fm >> 15)` widens it to that field's mask, so
  `b ^ ((a ^ b) & mask)` takes a's field there and b's elsewhere; the
  result is the exponent part of the lcm (`GradedRing.with_degree` adds
  its degree field);
- coprimality (`GradedRing.coprime`): with L = G - (G >> 15) a field of
  `a + L` has its guard set exactly when a's exponent there is nonzero, so
  a and b share no variable when `(a + L) & (b + L) & G == 0`.

The one ring order is grevlex: no reported invariant (multiplet, Betti table,
Hilbert series) depends on a term order.  A module order keys packed terms by
one formula, base[comp] + (grevlex key << shift), the grevlex key one int
affine in the exponents, with three constructors: `ModuleOrder.top` (term
over position), `ModuleOrder.schreyer` (induced by the lead terms of a basis)
and `ModuleOrder.tagged` (the order of `syzygy_module`).
`monomials_of_degree` enumerates packed terms too, once per ring and degree,
in tuple order, a row order of the degree slices and not a term order.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from struct import Struct
from typing import Mapping, Sequence

FIELD_BITS = 16
FIELD_LIMIT = (1 << FIELD_BITS - 1) - 1  # largest exponent or degree
FIELD_MASK = (1 << FIELD_BITS) - 1
COMP_BITS = 32  # module order keys tell apart components below 2**COMP_BITS


def _check_field(value: int, what: str) -> None:
    if value > FIELD_LIMIT:
        raise ValueError(f"{what} {value} exceeds the packed-field limit {FIELD_LIMIT}")


class GradedRing:
    """The polynomial ring over Q on the named variables, each of degree one."""

    __slots__ = ("names", "nvars", "comp_shift", "deg_shift", "exps", "guard", "low",
                 "words", "var_terms", "_mons")

    def __init__(self, names: Sequence[str]):
        names = list(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        self.names = names
        self.nvars = len(names)
        self.deg_shift = FIELD_BITS * self.nvars
        self.comp_shift = self.deg_shift + FIELD_BITS
        self.exps = (1 << self.deg_shift) - 1  # the exponent fields of a packed term
        ones = self.exps // FIELD_MASK  # 1 in each field
        self.guard = ones << FIELD_BITS - 1
        self.low = self.guard - ones  # FIELD_LIMIT in each field
        self.words = Struct(f"<{self.nvars}H")  # the exponent fields as bytes
        self.var_terms = [(1 << self.deg_shift) + (1 << FIELD_BITS * i)  # x_i, packed
                          for i in range(self.nvars)]
        self._mons: dict[int, list[int]] = {}  # degree -> monomials_of_degree

    def pack(self, comp: int, mon: Sequence[int]) -> int:
        """The packed int of term (comp, mon); a ValueError if a field overflows.

        Every exponent is at most the degree, so the degree check covers
        each field, and a product that keeps within the degree of a packed
        term never overflows either.  The exponent fields are the
        little-endian 16-bit words of `mon`.
        """
        deg = sum(mon)
        _check_field(deg, "degree")
        exps = int.from_bytes(self.words.pack(*mon), "little")
        return (comp << self.comp_shift) + (deg << self.deg_shift) + exps

    def unpack(self, t: int) -> tuple[int, tuple[int, ...]]:
        """(component, exponent tuple) of packed term t."""
        exps = (t & self.exps).to_bytes(2 * self.nvars, "little")
        return t >> self.comp_shift, self.words.unpack(exps)

    def with_degree(self, e: int) -> int:
        """Exponent part e with its degree field set, or a ValueError.
        Field nvars - 1 of `e * ones` sums e's exponents, with no carry while
        such sums are below 2**16, as for an lcm of two terms."""
        ones, top = self.guard >> FIELD_BITS - 1, FIELD_BITS * (self.nvars - 1)
        deg = e * ones >> top & FIELD_MASK
        _check_field(deg, "degree")
        return (deg << self.deg_shift) + e

    def term_degree(self, t: int) -> int:
        """The degree of packed term t, read off its degree field."""
        return t >> self.deg_shift & FIELD_MASK

    def divides(self, s: int, t: int) -> bool:
        """Whether s divides t: two packed terms of one component, or two exponent parts."""
        d = t - s
        return d >= 0 and not d & self.guard

    def lcm(self, a: int, b: int) -> int:
        """The exponent part of the lcm of two packed terms (or exponent parts)."""
        g = self.guard
        fm = ((a | g) - b) & g
        fm -= fm >> FIELD_BITS - 1
        return (b ^ ((a ^ b) & fm)) & self.exps

    def coprime(self, a: int, b: int) -> bool:
        """Whether packed terms (or exponent parts) a and b share no variable."""
        low = self.low
        return not (a + low) & (b + low) & self.guard

    def element(self, terms: Mapping[int, Fraction]) -> "ModuleElement":
        """The ring element with terms {packed term of component 0: coefficient}."""
        return ModuleElement(FreeModule(self, [0]), terms)

    def variable(self, i: int) -> "ModuleElement":
        return self.element({self.var_terms[i]: Fraction(1)})

    def zero(self) -> "ModuleElement":
        return self.element({})

    def constant(self, c) -> "ModuleElement":
        return self.element({0: Fraction(c)})

    def monomials_of_degree(self, d: int) -> list[int]:
        """Monomials of degree d: packed, component 0, ascending as tuples.

        That is lex order, which is multiplicative; `resolutions._slice_ranks`
        relies on it to skip rows known to reduce to zero and to order the
        row m*c after the row (m/x_v)*c that it is built from.  The list is
        enumerated once per ring and degree; each call returns a copy.
        """
        mons = self._mons.get(d)
        if mons is None:
            _check_field(d, "degree")
            level = [(d << self.deg_shift, d)] if d >= 0 else []  # (term so far, degree left)
            for i in range(self.nvars):
                level = [(t + (e << FIELD_BITS * i), rem - e)
                         for t, rem in level for e in range(rem + 1)]
            mons = self._mons[d] = [t for t, rem in level if not rem]
        return list(mons)

    def __eq__(self, other):
        return isinstance(other, GradedRing) and self.names == other.names

    def __hash__(self):
        return hash(tuple(self.names))

    def __repr__(self):
        return f"GradedRing({','.join(self.names)})"


class ModuleOrder:
    """Order on packed module terms over grevlex, the one ring order.

    key(t) = base[comp] + ((e - 2 * (e & ring.exps)) << shift), e the degree
    and exponent fields of t: the grevlex key is the degree above the negated
    exponents, the last variable's highest, one int affine in the exponents,
    key(t*q) = key(t) + key(q) - key(1).  Larger key means larger term, and
    `base` has one entry per component.  Three constructors:

    - `top(ring, rank)`: term over position, base -c: grevlex first, the
      lower component winning ties;
    - `schreyer(parent, leads)`: the order induced by `parent` from the packed
      lead terms of the previous step's basis, base
      (parent.key(lead_c) << COMP_BITS) - c, ties again to the lower component;
    - `tagged(ring, rank, tags)`: TOP on F + T with every term of F above
      every term of T.
    """

    __slots__ = ("ring", "base", "shift", "_cshift", "_fields", "_exps")

    def __init__(self, ring: GradedRing, base: list[int], shift: int):
        self.ring = ring
        self.base = base
        self.shift = shift
        self._cshift = ring.comp_shift
        self._fields = (1 << ring.comp_shift) - 1  # the degree and exponent fields
        self._exps = ring.exps

    @classmethod
    def top(cls, ring: GradedRing, rank: int) -> "ModuleOrder":
        return cls(ring, [-c for c in range(rank)], COMP_BITS)

    @classmethod
    def schreyer(cls, parent: "ModuleOrder", leads: Sequence[int]) -> "ModuleOrder":
        base = [(parent.key(lead) << COMP_BITS) - c for c, lead in enumerate(leads)]
        return cls(parent.ring, base, COMP_BITS + parent.shift)

    @classmethod
    def tagged(cls, ring: GradedRing, rank: int, tags: int) -> "ModuleOrder":
        """F of the given rank and T of `tags` components after it.  A grevlex
        key is below 2**ring.comp_shift, so lowering the base of each tag
        component by 2**(comp_shift + COMP_BITS + 1) puts it under all of F."""
        below = 1 << ring.comp_shift + COMP_BITS + 1
        return cls(ring, [-c - (below if c >= rank else 0) for c in range(rank + tags)],
                   COMP_BITS)

    def key(self, t: int) -> int:
        e = t & self._fields
        return self.base[t >> self._cshift] + ((e - 2 * (e & self._exps)) << self.shift)


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
        return ModuleElement(self, {i << self.ring.comp_shift: Fraction(1)})

    def __eq__(self, other):
        return (
            isinstance(other, FreeModule)
            and self.ring == other.ring
            and self.gen_degrees == other.gen_degrees
        )

    def __repr__(self):
        return f"FreeModule(rank={self.rank}, degrees={self.gen_degrees})"


class ModuleElement:
    """Element of a FreeModule; terms is a dict packed term -> Fraction."""

    __slots__ = ("module", "terms")

    def __init__(self, module: FreeModule, terms: Mapping[int, Fraction]):
        self.module = module
        self.terms = {t: c for t, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree (generator degree + degree field), 0 for zero; checks homogeneity."""
        ring, gen_degrees = self.module.ring, self.module.gen_degrees
        degs = {ring.term_degree(t) + gen_degrees[t >> ring.comp_shift] for t in self.terms}
        if len(degs) > 1:
            raise ValueError("module element is not homogeneous")
        return degs.pop() if degs else 0

    def component(self, i: int) -> "ModuleElement":
        """The i-th coordinate, a ring element."""
        shift = self.module.ring.comp_shift
        base = i << shift
        return self.module.ring.element(
            {t - base: c for t, c in self.terms.items() if t >> shift == i})

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        if other.module is not self.module and other.module != self.module:
            raise ValueError("the summands live in different modules")
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

    def __mul__(self, other) -> "ModuleElement":
        """This element times a scalar or a ring element (a rank-one element)."""
        if not isinstance(other, ModuleElement):
            c = Fraction(other)
            return ModuleElement(self.module, {t: v * c for t, v in self.terms.items()})
        ring = self.module.ring
        if other.module.rank != 1 or other.module.ring is not ring and other.module.ring != ring:
            raise ValueError("the other factor must be a scalar or a ring element of the same ring")
        # every field of a product is at most its degree field, so one check covers them
        top = max(map(ring.term_degree, self.terms), default=0)
        _check_field(top + max(map(ring.term_degree, other.terms), default=0), "degree")
        # clear each factor's denominators once, sum int products, divide once per term
        da = lcm(*(v.denominator for v in self.terms.values()))
        db = lcm(*(c.denominator for c in other.terms.values()))
        right = [(u, c.numerator * (db // c.denominator)) for u, c in other.terms.items()]
        acc: dict[int, int] = {}
        for s, v in self.terms.items():
            n = v.numerator * (da // v.denominator)
            for u, c in right:
                t = s + u
                acc[t] = acc.get(t, 0) + n * c
        den = da * db
        return ModuleElement(self.module, {t: Fraction(n, den) for t, n in acc.items() if n})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.module == other.module
            and self.terms == other.terms
        )

    def __str__(self):
        """A ring element as a polynomial, terms in descending grevlex;
        a higher-rank element as (coordinate)*e_i over its nonzero coordinates."""
        if not self.terms:
            return "0"
        if self.module.rank != 1:
            return " + ".join(
                f"({self.component(i)})*e{i}"
                for i in range(self.module.rank)
                if not self.component(i).is_zero()
            ).replace("+ -", "- ")
        ring = self.module.ring
        parts = []
        for t in sorted(self.terms, key=ModuleOrder.top(ring, 1).key, reverse=True):
            c = self.terms[t]
            factors = [
                ring.names[i] + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(ring.unpack(t)[1])
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


def poly_ring(*names: str) -> tuple:
    """Convenience: ring plus its variables, `R, x, y = poly_ring("x", "y")`."""
    ring = GradedRing(list(names))
    return (ring, *[ring.variable(i) for i in range(ring.nvars)])
