import random
from fractions import Fraction

import pytest

from superconf.linalg import SpanSolver, _int_rows, rref, sparse_kernel, sparse_rank


def F(x, d=1):
    return Fraction(x, d)


def sparse(data):
    return [{c: x for c, x in enumerate(row) if x} for row in data]


def apply(rows, v):
    return [sum(Fraction(x) * v.get(c, 0) for c, x in row.items()) for row in rows]


def test_rref_identity():
    red = rref(sparse([[1, 0], [0, 1]]))
    assert red == {0: {0: 1}, 1: {1: 1}}
    assert list(red) == [0, 1]


def test_rref_rank_one():
    red = rref(sparse([[2, 4], [1, 2]]))
    assert red == {0: {0: F(1), 1: F(2)}}


def test_rref_idempotent():
    red = rref(sparse([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
    assert rref(red.values()) == red


def test_kernel_zero_matrix():
    assert len(sparse_kernel(sparse([[0, 0, 0]] * 3), 3)) == 3


def test_kernel_identity():
    assert sparse_kernel([{i: 1} for i in range(4)], 4) == []


def test_kernel_explicit():
    basis = sparse_kernel(sparse([[1, 1, 0], [0, 1, 1]]), 3)
    assert len(basis) == 1
    v = basis[0]
    scaled = [v.get(c, 0) / v[0] for c in range(3)]
    assert scaled == [F(1), F(-1), F(1)]


def test_rank_plus_nullity():
    rows = sparse([[1, 2, 3, 1], [2, 4, 6, 2], [0, 1, 1, 0]])
    assert sparse_rank(rows) + len(sparse_kernel(rows, 4)) == 4


def test_kernel_vectors_annihilate():
    rows = sparse([[3, 1, 2], [1, 0, 5]])
    for v in sparse_kernel(rows, 3):
        assert all(x == 0 for x in apply(rows, v))


def combine(coeffs, vecs):
    out = {}
    for t, c in coeffs.items():
        for col, x in vecs[t].items():
            out[col] = out.get(col, 0) + c * x
    return {col: x for col, x in out.items() if x}


def test_solve():
    rng = random.Random(21)
    rows = [{c: x for c in range(6) if (x := rng.randint(-3, 3))} for _ in range(3)]
    basis = sparse_kernel(rows, 6)
    assert len(basis) >= 2
    solver = SpanSolver(basis)
    coeffs = {t: F(t + 1, 3) for t in range(len(basis))}
    target = combine(coeffs, basis)
    assert solver.solve(target) == coeffs
    pivot = min(rref(rows))
    assert solver.solve({**target, pivot: target.get(pivot, 0) + 1}) is None
    with pytest.raises(AssertionError):
        SpanSolver([basis[0], combine({0: 1, 1: 1}, basis), *basis[2:]])


def test_solve_returns_the_entries_of_the_vector_as_they_are():
    """Coordinates are read off the first keys, so an int entry stays an int."""
    solver = SpanSolver([{0: 1, 2: 3}, {1: 1, 2: F(-1, 2)}])
    coords = solver.solve({0: 2, 1: F(5, 3), 2: F(31, 6)})
    assert coords == {0: 2, 1: F(5, 3)}
    assert type(coords[0]) is int and type(coords[1]) is Fraction


def test_sparse_matches_dense():
    rows = [{0: 1, 2: -2}, {1: 3, 2: 1}, {0: 2, 1: 3, 2: -3}]
    assert sparse_rank(rows) == 2
    sk = sparse_kernel(rows, 3)
    assert sk == [{0: F(2), 1: F(-1, 3), 2: F(1)}]
    assert apply(rows, sk[0]) == [0, 0, 0]


def test_rows_with_fractions_clear_denominators():
    rows = [{0: F(1, 2), 3: F(-2, 3)}, {0: 3, 3: -4}, {1: F(0), 2: F(5, 7)}]
    assert sparse_rank(rows) == 2
    assert rref(rows) == {0: {0: F(1), 3: F(-4, 3)}, 2: {2: F(1)}}
    assert sparse_kernel(rows, 4) == [{1: F(1)}, {3: F(1), 0: F(4, 3)}]


def test_int_rows_copies_an_integer_row_without_its_zeros():
    row = {3: 4, 0: 0, 5: -6}
    (out,) = _int_rows([row])
    assert out == {3: 4, 5: -6}
    assert [type(v) for v in out.values()] == [int, int]
    assert out is not row and row == {3: 4, 0: 0, 5: -6}


def test_int_rows_clears_the_denominators_of_a_fraction_row():
    row = {0: F(1, 2), 1: 3, 2: F(-2, 3), 4: F(0)}
    (out,) = _int_rows([row])
    assert out == {0: 3, 1: 18, 2: -4}
    assert [type(v) for v in out.values()] == [int, int, int]
    assert row == {0: F(1, 2), 1: 3, 2: F(-2, 3), 4: F(0)}


def test_kernel_vectors_key_their_free_column_then_pivots_ascending():
    rows = sparse([[1, 2, 0, 0, 3], [0, 0, 1, 0, -1], [0, 0, 0, 1, 2]])
    basis = sparse_kernel(rows, 5)
    assert [list(v.items()) for v in basis] == [[(1, 1), (0, -2)],
                                                [(4, 1), (0, -3), (2, 1), (3, -2)]]
