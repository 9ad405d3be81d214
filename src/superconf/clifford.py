"""Split-basis spinor data for ten and eleven dimensions.

The even space is polarized as W + W* (plus one extra direction in odd
dimension); spinors are the exterior algebra of W with wedge/contraction as
Clifford multiplication.  The invariant spinor pairing is the top-wedge
pairing, up to a sign twist depending on form degree; the right twist is
selected programmatically by requiring every vector-valued bilinear to come
out symmetric.  All entries land in {0, +1, -1}.
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


def _pairing(s: tuple, t: tuple, n: int, twist) -> int:
    if len(s) + len(t) != n or set(s) & set(t):
        return 0
    return twist(len(s)) * _perm_sign(s, t)


_TWISTS = (
    lambda r: 1,
    lambda r: -1 if (r * (r - 1) // 2) % 2 else 1,
    lambda r: -1 if (r * (r + 1) // 2) % 2 else 1,
    lambda r: -1 if r % 2 else 1,
    lambda r: -1 if (r // 2) % 2 else 1,
    lambda r: -1 if ((r + 1) // 2) % 2 else 1,
)


def _clifford_action(mu: int, s: tuple, n: int) -> tuple[int, tuple] | None:
    """Action of the mu-th even basis vector: wedge for mu < n, contraction
    for n <= mu < 2n, parity involution for mu == 2n (11d only)."""
    if mu < n:
        return _wedge(mu, s)
    if mu < 2 * n:
        return _contract(mu - n, s)
    return (-1 if len(s) % 2 else 1), s


def _gamma_matrices(basis: list[tuple], d: int, n: int) -> list[list[list[int]]]:
    """Symmetric vector-valued bilinears on the span of `basis`.

    Tries the candidate sign twists of the top-wedge pairing and returns the
    first that makes every matrix symmetric; raises if none works.
    """
    k = len(basis)
    for twist in _TWISTS:
        mats = []
        ok = True
        for mu in range(d):
            m = [[0] * k for _ in range(k)]
            for b, sb in enumerate(basis):
                act = _clifford_action(mu, sb, n)
                if act is None:
                    continue
                sign, sb2 = act
                for a, sa in enumerate(basis):
                    v = _pairing(sa, sb2, n, twist)
                    if v:
                        m[a][b] = sign * v
            for a in range(k):
                for b in range(a + 1, k):
                    if m[a][b] != m[b][a]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
            if not any(any(row) for row in m):
                ok = False
                break
            mats.append(m)
        if ok:
            return mats
    raise AssertionError("no sign twist makes the spinor pairing symmetric")


def gamma_10d_chiral() -> list[list[list[int]]]:
    """gamma[mu][a][b] for the 16-dimensional chiral spinor of ten dimensions."""
    basis = [s for s in _subsets(N_SPLIT) if len(s) % 2 == 0]
    return _gamma_matrices(basis, 2 * N_SPLIT, N_SPLIT)


def gamma_11d() -> list[list[list[int]]]:
    """gamma[mu][a][b] for the 32-dimensional spinor of eleven dimensions."""
    basis = _subsets(N_SPLIT)
    return _gamma_matrices(basis, 2 * N_SPLIT + 1, N_SPLIT)
