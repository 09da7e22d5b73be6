"""Linear algebra over F2 on bitmask rows.

A linear map V -> W is a sequence of masks, one per basis vector of V: bit j
of masks[i] is the coefficient of basis vector j of W in the image of basis
vector i.  Every rank, composite and search over invertible maps in the
library goes through this module.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

__all__ = ["rank", "compose", "invertible"]


def rank(vectors: Iterable[int]) -> int:
    """Dimension of the span of the vectors."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


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


def invertible(n: int) -> Iterator[tuple[int, ...]]:
    """Every invertible n x n matrix, as mask tuples (small n only)."""
    if n == 0:
        yield ()
        return
    for cand in product(range(1, 1 << n), repeat=n):
        if rank(cand) == n:
            yield cand
