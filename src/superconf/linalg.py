"""Exact sparse linear algebra over the rationals.

Rows are dicts {col: value} with int or Fraction values and mutually
comparable column keys.  One integer kernel, `_reduce_row`, serves the rank,
the echelon form and the kernel.  It reduces integer copies of the rows in
place (the input is never touched), with content stripped and leads made
positive, so coefficients stay small; pivot choice is always the minimal
column of each reduced row, which keeps results independent of input
iteration order and of hashing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterable, Iterator


def _int_rows(rows: Iterable[dict]) -> Iterator[dict]:
    """Integer copies of the rows, one at a time: clear denominators, drop zeros."""
    for row in rows:
        den = reduce(lcm, (v.denominator for v in row.values()), 1)
        yield {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}


def _strip(row: dict) -> dict:
    """Divide out the content, signed so the entry at the minimal column is positive."""
    g = reduce(gcd, row.values(), 0)
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _reduce_row(row: dict, pivots: dict) -> dict:
    while row:
        c = min(row)
        piv = pivots.get(c)
        if piv is None:
            return _strip(row)
        a, b = piv[c], row[c]
        if b % a:  # rescale a copy only when the positive lead a does not divide b
            g = gcd(a, b)
            row, a = {col: v * (a // g) for col, v in row.items()}, g
        f = b // a
        for col, v in piv.items():
            w = row.get(col, 0) - f * v
            if w:
                row[col] = w
            else:
                del row[col]
    return row


def _triangularize(rows: Iterable[dict], stop: int = -1) -> dict[int, dict[int, int]]:
    """Forward-eliminate the rows over the integers; returns {pivot col: row}.
    Pulls no more rows once there are `stop` pivots."""
    pivots: dict[int, dict[int, int]] = {}
    for row in _int_rows(rows):
        red = _reduce_row(row, pivots)
        if red:
            pivots[min(red)] = red
            if len(pivots) == stop:
                break
    return pivots


def sparse_rank(rows: Iterable[dict]) -> int:
    return len(_triangularize(rows))


def _back_substitute(pivots: dict[int, dict[int, int]]) -> dict[int, dict[int, Fraction]]:
    """The RREF of the span of triangular pivot rows, pivots ascending."""
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


def rref(rows: Iterable[dict]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of the row span, as {pivot col: row}.

    Each row is 1 at its pivot and 0 on every other pivot; pivots ascend.  The
    result depends only on the row span.
    """
    return _back_substitute(_triangularize(rows))


def sparse_kernel(rows: Iterable[dict], ncols: int) -> list[dict[int, Fraction]]:
    """Echelonized kernel basis of the row system, as sparse Fraction vectors.

    Column keys are 0..ncols-1.  The basis vector attached to free column f is
    supported on f and on pivot columns.  Contract: each vector's first key is
    its free column, its entry there is 1, and no other vector has that key;
    `SpanSolver` reads coordinates off this form.  No row is pulled once every
    column is a pivot, as the kernel is then zero; short of that every row is
    reduced, so the basis is read off the RREF of the whole row span.
    """
    pivots = _triangularize(rows, ncols)
    if len(pivots) == ncols:
        return []
    red = _back_substitute(pivots)
    return [{f: Fraction(1), **{c: -frow[f] for c, frow in red.items() if f in frow}}
            for f in range(ncols) if f not in red]


def _reduce_by_leads(vec: dict, rows: dict) -> dict:
    """vec less vec[lead] * row for each {lead: row}, in place, zeros dropped;
    each row is 1 at its lead and 0 at the other leads (RREF rows, a kernel basis)."""
    for lead, row in rows.items():
        f = vec.get(lead)
        if f:
            for c, x in row.items():
                w = vec.get(c, 0) - f * x
                if w:
                    vec[c] = w
                else:
                    vec.pop(c, None)
    return vec


class SpanSolver:
    """Coordinates over a kernel basis as `sparse_kernel` returns it.

    The tag of a basis vector is its position.  Each vector's first key is 1,
    no other vector has that key, and each vector is 0 at the others' first
    keys, so the coordinates of a vector in the span are its entries at the
    first keys.  The class keeps its name because the benchmark's tracer wraps
    `add` and `solve` by name.
    """

    def __init__(self, basis: Iterable[dict]):
        self._rows: dict = {}  # first key -> basis vector, in tag order
        self._support: set = set()
        for vec in basis:
            self.add(vec)

    def add(self, vec: dict) -> None:
        """Append a basis vector; AssertionError unless the basis stays in that form."""
        lead = next(iter(vec), None)
        if vec.get(lead) != 1 or lead in self._support or not self._rows.keys().isdisjoint(vec):
            raise AssertionError("basis not in kernel echelon form")
        self._rows[lead] = vec
        self._support.update(vec)

    def solve(self, vec: dict) -> dict | None:
        """{tag: coordinate} of vec over the basis, or None off the span."""
        if any(_reduce_by_leads(dict(vec), self._rows).values()):
            return None
        return {t: Fraction(vec[lead]) for t, lead in enumerate(self._rows) if vec.get(lead)}
