"""Exact sparse linear algebra over the rationals.

Rows are dicts {col: value} with int or Fraction values.  Elimination runs on
integer rows with content stripped, so coefficients stay small; pivot choice
is always the minimal column of each reduced row, which keeps results
independent of input iteration order and of hashing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable


def _int_rows(rows: Iterable[dict]) -> list[dict[int, int]]:
    """Clear denominators rowwise and drop zero entries."""
    out = []
    for row in rows:
        den = 1
        for v in row.values():
            den = lcm(den, v.denominator)
        out.append({c: v.numerator * (den // v.denominator) for c, v in row.items() if v})
    return out


def _strip(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _reduce_row(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> dict[int, int]:
    while row:
        c = min(row)
        piv = pivots.get(c)
        if piv is None:
            return _strip(row)
        a, b = piv[c], row[c]
        g = gcd(a, b)
        ma, mb = a // g, b // g
        new: dict[int, int] = {}
        for col, v in row.items():
            new[col] = v * ma
        for col, v in piv.items():
            w = new.get(col, 0) - v * mb
            if w:
                new[col] = w
            elif col in new:
                del new[col]
        row = new
    return row


def _triangularize(rows: Iterable[dict]) -> dict[int, dict[int, int]]:
    """Forward-eliminate the rows over the integers; returns {pivot col: row}."""
    pivots: dict[int, dict[int, int]] = {}
    for row in _int_rows(rows):
        red = _reduce_row(row, pivots)
        if red:
            pivots[min(red)] = red
    return pivots


def sparse_rank(rows: Iterable[dict]) -> int:
    return len(_triangularize(rows))


def rref(rows: Iterable[dict]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of the row span, as {pivot col: row}.

    Each row is 1 at its pivot and 0 on every other pivot; pivots ascend.  The
    result depends only on the row span.
    """
    pivots = _triangularize(rows)
    reduced: dict[int, dict[int, Fraction]] = {}
    # Back-substitute from the last pivot: the rows subtracted are already
    # reduced, so they touch no pivot column but their own.
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        lead = row[c]
        frow = {col: Fraction(v, lead) for col, v in row.items()}
        for col in list(frow):
            if col in reduced:
                f = frow[col]
                for c2, v2 in reduced[col].items():
                    w = frow.get(c2, 0) - f * v2
                    if w:
                        frow[c2] = w
                    else:
                        del frow[c2]
        reduced[c] = frow
    return dict(reversed(reduced.items()))


def sparse_kernel(rows: Iterable[dict], ncols: int) -> list[dict[int, Fraction]]:
    """Echelonized kernel basis of the row system, as sparse Fraction vectors.

    The basis vector attached to free column f is supported on f (entry 1)
    and on pivot columns.
    """
    red = rref(rows)
    basis = []
    for f in range(ncols):
        if f in red:
            continue
        v: dict[int, Fraction] = {f: Fraction(1)}
        for c, frow in red.items():
            w = frow.get(f)
            if w:
                v[c] = -w
        basis.append(v)
    return basis


class SpanSolver:
    """Incremental row space over Q with combination tracking.

    `add` returns whether the vector enlarged the span; `solve` expresses a
    vector over the added tags, or returns None if it is outside the span.
    """

    def __init__(self):
        self._pivots: dict[int, tuple[dict[int, Fraction], dict]] = {}

    def add(self, vec: dict[int, Fraction], tag) -> bool:
        row = {c: Fraction(v) for c, v in vec.items() if v}
        combo = {tag: Fraction(1)}
        row, combo = self._reduce(row, combo)
        if not row:
            return False
        c = min(row)
        self._pivots[c] = (row, combo)
        return True

    def _reduce(self, row, combo):
        while row:
            c = min(row)
            hit = self._pivots.get(c)
            if hit is None:
                return row, combo
            prow, pcombo = hit
            f = row[c] / prow[c]
            for col, v in prow.items():
                w = row.get(col, Fraction(0)) - f * v
                if w:
                    row[col] = w
                elif col in row:
                    del row[col]
            for tag, v in pcombo.items():
                w = combo.get(tag, Fraction(0)) - f * v
                if w:
                    combo[tag] = w
                elif tag in combo:
                    del combo[tag]
        return row, combo

    def solve(self, vec: dict[int, Fraction]) -> dict | None:
        row = {c: Fraction(v) for c, v in vec.items() if v}
        combo: dict = {}
        row, combo = self._reduce(row, combo)
        if row:
            return None
        return {tag: -v for tag, v in combo.items()}
