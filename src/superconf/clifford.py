"""Split-basis spinor data for ten and eleven dimensions.

The even space is polarized as W + W* (plus one extra direction in odd
dimension); spinors are the exterior algebra of W with wedge/contraction as
Clifford multiplication.  The invariant spinor pairing is the top-wedge
pairing twisted by (-1)^{r(r+1)/2} on r-forms: of the sign twists that
depend on form degree alone, it is the one that makes every vector-valued
bilinear symmetric in both ten and eleven dimensions, and `_gamma_matrices`
checks that it does.  All entries land in {0, +1, -1}.
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


def _gamma_matrices(basis: list[tuple], d: int, n: int) -> list[list[list[int]]]:
    """Vector-valued bilinears on the span of `basis`: the twisted top-wedge
    pairing against each Clifford action, checked nonzero and symmetric."""
    k = len(basis)
    mats = []
    for mu in range(d):
        m = [[0] * k for _ in range(k)]
        for b, sb in enumerate(basis):
            act = _clifford_action(mu, sb, n)
            if act is None:
                continue
            sign, sb2 = act
            for a, sa in enumerate(basis):
                v = _pairing(sa, sb2, n)
                if v:
                    m[a][b] = sign * v
        if not any(any(row) for row in m) or any(
            m[a][b] != m[b][a] for a in range(k) for b in range(a + 1, k)
        ):
            raise AssertionError("the twisted pairing gives a zero or nonsymmetric bilinear")
        mats.append(m)
    return mats


def gamma_10d_chiral() -> list[list[list[int]]]:
    """gamma[mu][a][b] for the 16-dimensional chiral spinor of ten dimensions."""
    basis = [s for s in _subsets(N_SPLIT) if len(s) % 2 == 0]
    return _gamma_matrices(basis, 2 * N_SPLIT, N_SPLIT)


def gamma_11d() -> list[list[list[int]]]:
    """gamma[mu][a][b] for the 32-dimensional spinor of eleven dimensions."""
    basis = _subsets(N_SPLIT)
    return _gamma_matrices(basis, 2 * N_SPLIT + 1, N_SPLIT)
