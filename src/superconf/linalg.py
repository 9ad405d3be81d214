"""Exact sparse linear algebra over the rationals.

Rows are dicts {col: value} with int or Fraction values and mutually
comparable column keys.  One integer kernel, `_reduce_row`, serves the rank,
the echelon form, the kernel and the span solver.  It reduces integer copies
of the rows in place (the input is never touched), with content stripped and
leads made positive, so coefficients stay small; pivot choice is always the
minimal column of each reduced row, which keeps results independent of input
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
    supported on f (entry 1) and on pivot columns.  No row is pulled once every
    column is a pivot, as the kernel is then zero; short of that every row is
    reduced, so the basis is read off the RREF of the whole row span.
    """
    pivots = _triangularize(rows, ncols)
    if len(pivots) == ncols:
        return []
    red = _back_substitute(pivots)
    return [{f: Fraction(1), **{c: -frow[f] for c, frow in red.items() if f in frow}}
            for f in range(ncols) if f not in red]


_MARK = (2, 0)


class SpanSolver:
    """Incremental row space over Q with combination tracking.

    `add` returns whether the vector enlarged the span; `solve` expresses a
    vector over the added tags, or returns None if it is outside the span.
    Each added row carries its own tag as one more column (1, tag), ordered
    after the vector columns (0, col), so the integer kernel records the
    combination; `solve` carries the marker column (2, 0) instead.
    """

    def __init__(self):
        self._pivots: dict = {}

    def add(self, vec: dict, tag) -> bool:
        row = {(0, c): v for c, v in vec.items()}
        row[(1, tag)] = 1
        red = _reduce_row(next(_int_rows([row])), self._pivots)
        lead = min(red)
        if lead[0]:
            return False
        self._pivots[lead] = red
        return True

    def solve(self, vec: dict) -> dict | None:
        row = {(0, c): v for c, v in vec.items()}
        row[_MARK] = 1
        red = _reduce_row(next(_int_rows([row])), self._pivots)
        if min(red)[0] == 0:
            return None
        # red = m*(vec, marker) - sum_t b_t*(v_t, tag t) with zero vector part
        m = red[_MARK]
        return {t: Fraction(-v, m) for (part, t), v in red.items() if part == 1}
