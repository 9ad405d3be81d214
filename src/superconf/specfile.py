"""Text format for algebra specifications.

Two shapes::

    algebra "3dN1" { standard { dimension = 3; supersymmetry = "N=1"; } }

    algebra "custom" {
      odd_dim = 2; even_dim = 3;
      gamma { (1,1) -> [2,0,0]; (1,2) -> [0,1,0]; (2,2) -> [0,0,2]; }
    }

Tokens are ASCII; whitespace and `#` comments are skipped.  A file holds one
algebra and nothing after it; each field appears once; odd_dim and even_dim
are >= 0 and precede gamma.  Gamma indices are one-based; unspecified entries
are zero; (a,b) and (b,a) must agree.  A violation is a SpecError naming its
line and column (the CLI exits 2).  Rendering is canonical, so parse/render
round-trips byte-identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebras import SupertranslationAlgebra, build_standard


class SpecError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")


@dataclass
class AlgebraSpec:
    name: str
    standard: tuple | None = None  # (dimension, susy string)
    odd_dim: int | None = None
    even_dim: int | None = None
    gamma: dict | None = None  # (a, b) 1-based, a <= b -> tuple of Fractions

    def build(self) -> SupertranslationAlgebra:
        if self.standard is not None:
            alg = build_standard(self.standard[0], self.standard[1])
            alg.name = self.name or alg.name
            return alg
        k, d = self.odd_dim, self.even_dim
        gamma = [[[Fraction(0)] * d for _ in range(k)] for _ in range(k)]
        for (a, b), vec in self.gamma.items():
            gamma[a - 1][b - 1] = gamma[b - 1][a - 1] = vec
        return SupertranslationAlgebra(self.name, k, d, gamma)

    def render(self) -> str:
        if self.standard is not None:
            dim, susy = self.standard
            return (f'algebra "{self.name}" {{ standard {{ dimension = {dim}; '
                    f'supersymmetry = "{susy}"; }} }}\n')
        lines = [f'algebra "{self.name}" {{', f"  odd_dim = {self.odd_dim};",
                 f"  even_dim = {self.even_dim};", "  gamma {"]
        for a, b in sorted(self.gamma):
            lines.append(f"    ({a},{b}) -> [{','.join(map(_render_q, self.gamma[a, b]))}];")
        return "\n".join(lines + ["  }", "}"]) + "\n"


def _render_q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_TOKEN = re.compile(
    r"""(?P<skip>[ \t\r\n]+|\#[^\n]*)
      | "(?P<string>[^"]*)"
      | (?P<punct>->|[{}()\[\]=;,])
      | (?P<number>[0-9-][0-9/]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)


def _tokens(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, value, line, column) per token; the line moves only past a newline match."""
    tokens, line, line_start = [], 1, 0
    for m in _TOKEN.finditer(text):
        kind, value, col = m.lastgroup, m.group(m.lastgroup), m.start() - line_start + 1
        if kind == "bad":
            message = "unterminated string" if value == '"' else f"unexpected character {value!r}"
            raise SpecError(message, line, col)
        if kind != "skip":
            tokens.append((kind, value, line, col))
        if "\n" in m.group():
            line += m.group().count("\n")
            line_start = text.rindex("\n", 0, m.end()) + 1
    return tokens


def _parse_q(text: str) -> Fraction:
    """`n` or `n/d` as one number token: ASCII digits after an optional `-`,
    nothing around them.  Raises ValueError, or ZeroDivisionError for `d` = 0."""
    if getattr(_TOKEN.fullmatch(text), "lastgroup", None) != "number":
        raise ValueError(f"not a rational: {text!r}")
    num, slash, den = text.partition("/")
    return Fraction(int(num), int(den) if slash else 1)


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.i = _tokens(text), 0

    def _peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        line, col = self.tokens[-1][2:] if self.tokens else (1, 1)
        raise SpecError("unexpected end of input", line, col)

    def _next(self, kind=None, value=None):
        tok = self._peek()
        if (kind and tok[0] != kind) or (value and tok[1] != value):
            raise SpecError(f"expected {value or kind}, found {tok[1]!r}", tok[2], tok[3])
        self.i += 1
        return tok

    def _int(self) -> int:
        tok = self._next("number")
        try:
            return int(tok[1])
        except ValueError:
            raise SpecError(f"expected an integer, found {tok[1]!r}", tok[2], tok[3])

    def _dim(self) -> int:
        tok, value = self._peek(), self._int()
        if value < 0:
            raise SpecError(f"negative dimension {value}", tok[2], tok[3])
        return value

    def _rational(self) -> Fraction:
        tok = self._next("number")
        try:
            return _parse_q(tok[1])
        except (ValueError, ZeroDivisionError):
            raise SpecError(f"bad rational {tok[1]!r}", tok[2], tok[3])

    def _fields(self, readers: dict, strict: bool) -> dict:
        """Read `name = value;` entries, each name once, through the closing brace
        (`gamma` takes a block).  An unknown name is an unexpected token if `strict`
        (the explicit body), else an unknown field once its `=` is read."""
        self.fields = {}
        while self._peek()[:2] != ("punct", "}"):
            key = self._peek()
            read = readers.get(key[1]) if key[0] == "ident" else None
            if read is None and strict:
                raise SpecError(f"unexpected token {key[1]!r}", key[2], key[3])
            self._next("ident")
            if key[1] in self.fields:
                raise SpecError(f"repeated field {key[1]!r}", key[2], key[3])
            if read == self._gamma:
                self.fields[key[1]] = read()
                continue
            self._next("punct", "=")
            if read is None:
                raise SpecError(f"unknown field {key[1]!r}", key[2], key[3])
            self.fields[key[1]] = read()
            self._next("punct", ";")
        self._next("punct", "}")
        return self.fields

    def _gamma(self) -> dict:
        """A block of entries `(a,b) -> [v_1, ..., v_d];`, each read whole, then checked at
        its `(`: dimensions declared, indices in range, d values, (b,a) agrees."""
        self._next("punct", "{")
        gamma: dict = {}
        while self._peek()[:2] != ("punct", "}"):
            opener = self._next("punct", "(")
            a, _, b = self._int(), self._next("punct", ","), self._int()
            for p in (")", "->", "["):
                self._next("punct", p)
            vec = [self._rational()]
            while self._peek()[:2] == ("punct", ","):
                self._next()
                vec.append(self._rational())
            self._next("punct", "]")
            self._next("punct", ";")
            odd, even = self.fields.get("odd_dim"), self.fields.get("even_dim")
            if odd is None or even is None:
                message = "dimensions must be declared before gamma"
            elif not (1 <= a <= odd and 1 <= b <= odd):
                message = f"gamma index ({a},{b}) out of range"
            elif len(vec) != even:
                message = f"gamma row has {len(vec)} entries, expected {even}"
            elif gamma.setdefault((min(a, b), max(a, b)), tuple(vec)) != tuple(vec):
                message = f"gamma entries ({a},{b}) and ({b},{a}) disagree"
            else:
                continue
            raise SpecError(message, opener[2], opener[3])
        self._next("punct", "}")
        return gamma

    def parse(self) -> AlgebraSpec:
        self._next("ident", "algebra")
        name = self._next("string")[1]
        self._next("punct", "{")
        tok = self._peek()
        if tok[0] == "ident" and tok[1] == "standard":
            self._next()
            self._next("punct", "{")
            readers = {"dimension": self._int, "supersymmetry": lambda: self._next("string")[1]}
            fields = self._fields(readers, False)
            self._next("punct", "}")
            if len(fields) < 2:
                raise SpecError("standard block needs dimension and supersymmetry", tok[2], tok[3])
            spec = AlgebraSpec(name, standard=(fields["dimension"], fields["supersymmetry"]))
        else:
            readers = {"odd_dim": self._dim, "even_dim": self._dim, "gamma": self._gamma}
            fields = self._fields(readers, True)
            if "odd_dim" not in fields or "even_dim" not in fields:
                raise SpecError("odd_dim and even_dim are required", 1, 1)
            spec = AlgebraSpec(name, odd_dim=fields["odd_dim"], even_dim=fields["even_dim"],
                               gamma=fields.get("gamma", {}))
        if self.i < len(self.tokens):
            raise SpecError("unexpected token after the algebra", *self.tokens[self.i][2:])
        return spec


def parse_spec(text: str) -> AlgebraSpec:
    return _Parser(text).parse()


def render_spec(spec: AlgebraSpec) -> str:
    return spec.render()
