"""Linear algebra over F2 on bitmask rows.

A linear map V -> W is a sequence of masks, one per basis vector of V: bit j
of masks[i] is the coefficient of basis vector j of W in the image of basis
vector i.  Every rank, composite and kernel in the library goes through this
module, and `kernel` is its one elimination loop.
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
    return len(vectors) - len(kernel(vectors))


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
