"""Split-basis spinor data for ten and eleven dimensions.

The even space is polarized as W + W* (plus one extra direction in odd
dimension); spinors are the exterior algebra of W with wedge/contraction as
Clifford multiplication.  The invariant spinor pairing is the top-wedge
pairing twisted by (-1)^{r(r+1)/2} on r-forms: of the sign twists that
depend on form degree alone, it is the one that makes every vector-valued
bilinear symmetric in both ten and eleven dimensions, and `_bilinears`
checks that it does.

The pairing of s and t is nonzero only when s is the complement of t, so
each even direction mu and basis element e_b give at most one nonzero entry,
at the complement of the Clifford image of e_b: a bilinear is built in O(k)
as {(a, b): +-1}, and the bracket in O(k d), with no k x k scan.
"""

from __future__ import annotations

from itertools import combinations

N_SPLIT = 5  # W = C^5 polarizes both the 10d and the 11d even space


def _subsets(n: int) -> list[tuple[int, ...]]:
    out = []
    for size in range(n + 1):
        out.extend(combinations(range(n), size))
    return out


def _wedge(i: int, s: tuple) -> tuple[int, tuple] | None:
    if i in s:
        return None
    before = sum(1 for x in s if x < i)
    sign = -1 if before % 2 else 1
    return sign, tuple(sorted(s + (i,)))


def _contract(i: int, s: tuple) -> tuple[int, tuple] | None:
    if i not in s:
        return None
    before = sum(1 for x in s if x < i)
    sign = -1 if before % 2 else 1
    return sign, tuple(x for x in s if x != i)


def _perm_sign(s: tuple, t: tuple) -> int:
    seq = list(s) + list(t)
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def _pairing(s: tuple, t: tuple, n: int) -> int:
    if len(s) + len(t) != n or set(s) & set(t):
        return 0
    r = len(s)
    return (-1 if (r * (r + 1) // 2) % 2 else 1) * _perm_sign(s, t)


def _clifford_action(mu: int, s: tuple, n: int) -> tuple[int, tuple] | None:
    """Action of the mu-th even basis vector: wedge for mu < n, contraction
    for n <= mu < 2n, parity involution for mu == 2n (11d only)."""
    if mu < n:
        return _wedge(mu, s)
    if mu < 2 * n:
        return _contract(mu - n, s)
    return (-1 if len(s) % 2 else 1), s


def _bilinears(basis: list[tuple], d: int, n: int) -> list[dict[tuple[int, int], int]]:
    """Vector-valued bilinears on the span of `basis`, one {(a, b): +-1} per
    even direction, both orders listed: the twisted top-wedge pairing of e_a
    against the Clifford action on e_b, checked nonzero and symmetric."""
    index = {s: a for a, s in enumerate(basis)}
    letters = set(range(n))
    mats = []
    for mu in range(d):
        m = {}
        for b, sb in enumerate(basis):
            act = _clifford_action(mu, sb, n)
            if act is None:
                continue
            sign, sb2 = act
            complement = tuple(sorted(letters.difference(sb2)))
            a = index.get(complement)
            if a is not None:
                m[a, b] = sign * _pairing(complement, sb2, n)
        if not m or any(m.get((b, a)) != v for (a, b), v in m.items()):
            raise AssertionError("the twisted pairing gives a zero or nonsymmetric bilinear")
        mats.append(m)
    return mats


def gamma_10d_chiral() -> list[dict[tuple[int, int], int]]:
    """{(a, b): gamma[mu][a][b]} per mu, nonzero entries only, for the
    16-dimensional chiral spinor of ten dimensions."""
    basis = [s for s in _subsets(N_SPLIT) if len(s) % 2 == 0]
    return _bilinears(basis, 2 * N_SPLIT, N_SPLIT)


def gamma_11d() -> list[dict[tuple[int, int], int]]:
    """{(a, b): gamma[mu][a][b]} per mu, nonzero entries only, for the
    32-dimensional spinor of eleven dimensions."""
    return _bilinears(_subsets(N_SPLIT), 2 * N_SPLIT + 1, N_SPLIT)
