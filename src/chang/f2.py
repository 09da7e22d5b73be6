"""Linear algebra over F2 on bitmask rows.

A linear map V -> W is a sequence of masks, one per basis vector of V: bit j
of masks[i] is the coefficient of basis vector j of W in the image of basis
vector i.  Every rank, composite and kernel in the library goes through this
module.  `kernel` and `rank` are its two elimination loops: `kernel` keeps,
with each pivot, the mask of the columns it was reduced from, and `rank`
keeps the pivots only.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["rank", "compose", "kernel"]


def kernel(columns: Sequence[int]) -> list[int]:
    """Basis of the dependencies among the columns: each is the mask of a
    set of columns (bit i for columns[i]) whose sum is zero."""
    # pivots: bit length of a reduced column -> (column, its mask)
    pivots: dict[int, tuple[int, int]] = {}
    out: list[int] = []
    for i, v in enumerate(columns):
        mask = 1 << i
        while v.bit_length() in pivots:
            pv, pmask = pivots[v.bit_length()]
            v, mask = v ^ pv, mask ^ pmask
        if v:
            pivots[v.bit_length()] = (v, mask)
        else:
            out.append(mask)
    return out


def rank(vectors: Sequence[int]) -> int:
    """Dimension of the span of the vectors."""
    # pivots by bit length, as in kernel, without the dependency masks
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            pv = pivots.get(top)
            if pv is None:
                pivots[top] = v
                break
            v ^= pv
    return len(pivots)


def compose(first: Sequence[int], second: Sequence[int]) -> list[int]:
    """Masks of (second o first); first: V -> W, second: W -> U."""
    out = []
    for v in first:
        acc = 0
        while v:
            low = v & -v
            acc ^= second[low.bit_length() - 1]
            v ^= low
        out.append(acc)
    return out
