"""Text format for algebra specifications.

Two shapes::

    algebra "3dN1" { standard { dimension = 3; supersymmetry = "N=1"; } }

    algebra "custom" {
      odd_dim = 2; even_dim = 3;
      gamma { (1,1) -> [2,0,0]; (1,2) -> [0,1,0]; (2,2) -> [0,0,2]; }
    }

Gamma indices are one-based; unspecified entries are zero; when both (a,b)
and (b,a) appear they must agree.  Rendering is canonical, so parse/render
round-trips byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebras import SupertranslationAlgebra, build_standard


class SpecError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


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
            for mu in range(d):
                gamma[a - 1][b - 1][mu] = vec[mu]
                gamma[b - 1][a - 1][mu] = vec[mu]
        return SupertranslationAlgebra(self.name, k, d, gamma)

    def render(self) -> str:
        if self.standard is not None:
            dim, susy = self.standard
            return (
                f'algebra "{self.name}" {{ standard {{ dimension = {dim}; '
                f'supersymmetry = "{susy}"; }} }}\n'
            )
        lines = [f'algebra "{self.name}" {{']
        lines.append(f"  odd_dim = {self.odd_dim};")
        lines.append(f"  even_dim = {self.even_dim};")
        entries = []
        for (a, b) in sorted(self.gamma):
            vec = self.gamma[(a, b)]
            body = ",".join(_render_q(x) for x in vec)
            entries.append(f"    ({a},{b}) -> [{body}];")
        lines.append("  gamma {")
        lines.extend(entries)
        lines.append("  }")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _render_q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class _Tokenizer:
    PUNCT = ("->", "{", "}", "(", ")", "[", "]", "=", ";", ",")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[tuple[str, str, int, int]] = []
        self._run()

    def _error(self, msg):
        raise SpecError(msg, self.line, self.col)

    def _advance(self, n: int):
        for ch in self.text[self.pos : self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def _run(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
                continue
            if ch == "#":
                end = text.find("\n", self.pos)
                self._advance((end if end != -1 else len(text)) - self.pos)
                continue
            line, col = self.line, self.col
            if ch == '"':
                end = text.find('"', self.pos + 1)
                if end == -1:
                    self._error("unterminated string")
                value = text[self.pos + 1 : end]
                self.tokens.append(("string", value, line, col))
                self._advance(end + 1 - self.pos)
                continue
            matched = False
            for p in self.PUNCT:
                if text.startswith(p, self.pos):
                    self.tokens.append(("punct", p, line, col))
                    self._advance(len(p))
                    matched = True
                    break
            if matched:
                continue
            if ch.isdigit() or ch == "-":
                j = self.pos + 1
                while j < len(text) and (text[j].isdigit() or text[j] == "/"):
                    j += 1
                self.tokens.append(("number", text[self.pos : j], line, col))
                self._advance(j - self.pos)
                continue
            if ch.isalpha() or ch == "_":
                j = self.pos
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[self.pos : j], line, col))
                self._advance(j - self.pos)
                continue
            self._error(f"unexpected character {ch!r}")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _Tokenizer(text).tokens
        self.i = 0

    def _peek(self):
        if self.i >= len(self.tokens):
            last = self.tokens[-1] if self.tokens else ("", "", 1, 1)
            raise SpecError("unexpected end of input", last[2], last[3])
        return self.tokens[self.i]

    def _next(self, kind=None, value=None):
        tok = self._peek()
        if (kind and tok[0] != kind) or (value and tok[1] != value):
            raise SpecError(
                f"expected {value or kind}, found {tok[1]!r}", tok[2], tok[3]
            )
        self.i += 1
        return tok

    def _int(self) -> int:
        tok = self._next("number")
        try:
            return int(tok[1])
        except ValueError:
            raise SpecError(f"expected an integer, found {tok[1]!r}", tok[2], tok[3])

    def _rational(self) -> Fraction:
        tok = self._next("number")
        try:
            if "/" in tok[1]:
                num, den = tok[1].split("/")
                return Fraction(int(num), int(den))
            return Fraction(int(tok[1]))
        except (ValueError, ZeroDivisionError):
            raise SpecError(f"bad rational {tok[1]!r}", tok[2], tok[3])

    def parse(self) -> AlgebraSpec:
        self._next("ident", "algebra")
        name = self._next("string")[1]
        self._next("punct", "{")
        tok = self._peek()
        if tok[0] == "ident" and tok[1] == "standard":
            self._next()
            self._next("punct", "{")
            dimension = susy = None
            while self._peek()[1] != "}":
                key = self._next("ident")
                self._next("punct", "=")
                if key[1] == "dimension":
                    dimension = self._int()
                elif key[1] == "supersymmetry":
                    susy = self._next("string")[1]
                else:
                    raise SpecError(f"unknown field {key[1]!r}", key[2], key[3])
                self._next("punct", ";")
            self._next("punct", "}")
            self._next("punct", "}")
            if dimension is None or susy is None:
                raise SpecError("standard block needs dimension and supersymmetry", tok[2], tok[3])
            return AlgebraSpec(name, standard=(dimension, susy))
        odd = even = None
        gamma: dict = {}
        while self._peek()[1] != "}":
            tok = self._peek()
            if tok[0] == "ident" and tok[1] in ("odd_dim", "even_dim"):
                self._next()
                self._next("punct", "=")
                value = self._int()
                if tok[1] == "odd_dim":
                    odd = value
                else:
                    even = value
                self._next("punct", ";")
            elif tok[0] == "ident" and tok[1] == "gamma":
                self._next()
                self._next("punct", "{")
                while self._peek()[1] != "}":
                    opener = self._next("punct", "(")
                    a = self._int()
                    self._next("punct", ",")
                    b = self._int()
                    self._next("punct", ")")
                    self._next("punct", "->")
                    self._next("punct", "[")
                    vec = [self._rational()]
                    while self._peek()[1] == ",":
                        self._next()
                        vec.append(self._rational())
                    self._next("punct", "]")
                    self._next("punct", ";")
                    if odd is None or even is None:
                        raise SpecError(
                            "dimensions must be declared before gamma",
                            opener[2],
                            opener[3],
                        )
                    if not (1 <= a <= odd and 1 <= b <= odd):
                        raise SpecError(
                            f"gamma index ({a},{b}) out of range", opener[2], opener[3]
                        )
                    if len(vec) != even:
                        raise SpecError(
                            f"gamma row has {len(vec)} entries, expected {even}",
                            opener[2],
                            opener[3],
                        )
                    key = (min(a, b), max(a, b))
                    value = tuple(vec)
                    if key in gamma and gamma[key] != value:
                        raise SpecError(
                            f"gamma entries ({a},{b}) and ({b},{a}) disagree",
                            opener[2],
                            opener[3],
                        )
                    gamma[key] = value
                self._next("punct", "}")
            else:
                raise SpecError(f"unexpected token {tok[1]!r}", tok[2], tok[3])
        self._next("punct", "}")
        if odd is None or even is None:
            raise SpecError("odd_dim and even_dim are required", 1, 1)
        return AlgebraSpec(name, odd_dim=odd, even_dim=even, gamma=gamma)


def parse_spec(text: str) -> AlgebraSpec:
    return _Parser(text).parse()


def render_spec(spec: AlgebraSpec) -> str:
    return spec.render()
