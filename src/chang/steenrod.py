"""Mod-2 cohomology as a module over Sq^1, Sq^2 and Sq^4.

Bases are labelled; the operations are F2 matrices stored as bitmask rows
(entry j of the image of basis element i is bit j of masks[i]).  Smash
products get the Cartan formula, with Sq^3 = Sq^1 Sq^2 supplying the odd
cross terms in the Sq^4 expansion.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .complexes import ElementaryComplex, SmashAtom, Summand, WedgeComplex, wedge

__all__ = ["SqModule", "mod2_cohomology", "cartan_smash_sq", "poincare_mod2",
           "f2_rank"]


def f2_rank(vectors: Iterable[int]) -> int:
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def _compose_masks(first: Sequence[int], mid_dim: int,
                   second: Sequence[int]) -> list[int]:
    """Masks of (second o first); first: V->W (dim W = mid_dim), second: W->U."""
    out = []
    for v in first:
        acc = 0
        for j in range(mid_dim):
            if v >> j & 1:
                acc ^= second[j]
        out.append(acc)
    return out


class SqModule:
    """Graded F2 vector space with Sq^1 / Sq^2 / Sq^4 actions."""

    __slots__ = ("basis", "ops")

    def __init__(self,
                 basis: Mapping[int, Sequence[str]] = (),
                 sq1: Mapping[int, Sequence[int]] = (),
                 sq2: Mapping[int, Sequence[int]] = (),
                 sq4: Mapping[int, Sequence[int]] = ()):
        self.basis = {d: tuple(v) for d, v in dict(basis).items() if v}
        self.ops = {1: {}, 2: {}, 4: {}}
        for k, table in ((1, sq1), (2, sq2), (4, sq4)):
            for d, masks in dict(table).items():
                masks = tuple(masks)
                if len(masks) != self.dim(d):
                    raise ValueError(f"Sq^{k} at degree {d}: bad source size")
                if any(m >> self.dim(d + k) for m in masks):
                    raise ValueError(f"Sq^{k} at degree {d}: image out of range")
                if any(masks):
                    self.ops[k][d] = masks
        self._check_relations()

    def _check_relations(self):
        for d in self.degrees():
            one = self.op(1, d)
            if any(_compose_masks(one, self.dim(d + 1), self.op(1, d + 1))):
                raise ValueError(f"Sq^1 Sq^1 != 0 at degree {d}")
            lhs = _compose_masks(self.op(2, d), self.dim(d + 2), self.op(2, d + 2))
            rhs = _compose_masks(
                _compose_masks(one, self.dim(d + 1), self.op(2, d + 1)),
                self.dim(d + 3), self.op(1, d + 3))
            if lhs != rhs:
                raise ValueError(f"Sq^2 Sq^2 != Sq^1 Sq^2 Sq^1 at degree {d}")

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def labels(self, d: int) -> tuple[str, ...]:
        return self.basis.get(d, ())

    def op(self, k: int, d: int) -> tuple[int, ...]:
        table = self.ops[k].get(d)
        if table is None:
            return (0,) * self.dim(d)
        return table

    def sq3(self, d: int) -> list[int]:
        """Sq^3 = Sq^1 Sq^2 (the only decomposition available here)."""
        return _compose_masks(self.op(2, d), self.dim(d + 2), self.op(1, d + 2))

    def rank(self, k: int, d: int) -> int:
        return f2_rank(self.op(k, d))

    def is_iso(self, k: int, d: int) -> bool:
        n = self.dim(d)
        return n == self.dim(d + k) and self.rank(k, d) == n

    def dims(self) -> dict[int, int]:
        return {d: self.dim(d) for d in self.degrees()}

    def shift(self, m: int) -> "SqModule":
        return SqModule({d + m: v for d, v in self.basis.items()},
                        {d + m: v for d, v in self.ops[1].items()},
                        {d + m: v for d, v in self.ops[2].items()},
                        {d + m: v for d, v in self.ops[4].items()})

    def relabel(self, fn) -> "SqModule":
        return SqModule({d: tuple(fn(x) for x in v) for d, v in self.basis.items()},
                        self.ops[1], self.ops[2], self.ops[4])

    def direct_sum(self, other: "SqModule") -> "SqModule":
        basis: dict[int, tuple[str, ...]] = {}
        for d in set(self.basis) | set(other.basis):
            basis[d] = self.labels(d) + other.labels(d)
        ops: dict[int, dict[int, list[int]]] = {1: {}, 2: {}, 4: {}}
        for k in (1, 2, 4):
            for d in basis:
                mine = self.op(k, d)
                theirs = [m << self.dim(d + k) for m in other.op(k, d)]
                masks = list(mine) + theirs
                if any(masks):
                    ops[k][d] = masks
        return SqModule(basis, ops[1], ops[2], ops[4])

    def permuted(self, perms: Mapping[int, Sequence[int]]) -> "SqModule":
        """Reorder the basis in selected degrees (perm[i] = old index of new i)."""
        def remap_mask(m: int, d: int) -> int:
            perm = perms.get(d)
            if perm is None:
                return m
            out = 0
            for new_i, old_i in enumerate(perm):
                if m >> old_i & 1:
                    out |= 1 << new_i
            return out

        basis = {}
        for d, v in self.basis.items():
            perm = perms.get(d)
            basis[d] = tuple(v[i] for i in perm) if perm is not None else v
        ops: dict[int, dict[int, list[int]]] = {1: {}, 2: {}, 4: {}}
        for k in (1, 2, 4):
            for d, masks in self.ops[k].items():
                perm = perms.get(d)
                src = [masks[i] for i in perm] if perm is not None else list(masks)
                ops[k][d] = [remap_mask(m, d + k) for m in src]
        return SqModule(basis, ops[1], ops[2], ops[4])

    def action_lines(self) -> list[str]:
        out = []
        for k in (1, 2, 4):
            for d in sorted(self.ops[k]):
                tgt = self.labels(d + k)
                for i, m in enumerate(self.ops[k][d]):
                    if m:
                        img = " + ".join(tgt[j] for j in range(len(tgt)) if m >> j & 1)
                        out.append(f"Sq^{k}({self.labels(d)[i]}) = {img}")
        return out

    def __eq__(self, other):
        return (isinstance(other, SqModule) and self.basis == other.basis
                and all(self.op(k, d) == other.op(k, d)
                        for k in (1, 2, 4)
                        for d in set(self.basis) | set(other.basis)))

    def __repr__(self):
        return f"SqModule(dims={self.dims()})"


_EMPTY = SqModule()


def _elementary_sq(c: ElementaryComplex) -> SqModule:
    # mod 2, an odd attaching degree cancels both its cells, a degree
    # 2 mod 4 is Sq^1 from its target cell to its source cell, and each
    # eta attachment is Sq^2
    dims = c.cells()
    alive = set(range(len(dims)))
    sq1 = []
    for (a, b), q in c.boundary().items():
        if q % 2:
            alive -= {a, b}
        elif q % 4 == 2:
            sq1.append((b, a))
    basis: dict[int, list[str]] = {}
    index = {}
    for i in sorted(alive):
        d, prefix = dims[i], c.family.cells[i][1]
        index[i] = len(basis.setdefault(d, []))
        basis[d].append(f"{prefix}{d}")
    ops: dict[int, dict[int, list[int]]] = {1: {}, 2: {}}
    for k, edges in ((1, sq1), (2, c.family.eta)):
        for src, tgt in edges:
            masks = ops[k].setdefault(dims[src], [0] * len(basis[dims[src]]))
            masks[index[src]] |= 1 << index[tgt]
    return SqModule(basis, ops[1], ops[2])


def cartan_smash_sq(A: SqModule, B: SqModule) -> SqModule:
    """Tensor module with Sq^n(x@y) = sum of Sq^i x @ Sq^j y over i+j=n."""
    pairs: dict[int, list[tuple[int, int, int, int]]] = {}
    index: dict[tuple[int, int, int, int], int] = {}
    basis: dict[int, list[str]] = {}
    for da in A.degrees():
        for db in B.degrees():
            d = da + db
            for i, la in enumerate(A.labels(da)):
                for j, lb in enumerate(B.labels(db)):
                    key = (da, i, db, j)
                    index[key] = len(pairs.setdefault(d, []))
                    pairs[d].append(key)
                    basis.setdefault(d, []).append(f"{la}⊗{lb}")

    def component(masks_a, ia, da2, masks_b, ib, db2, d_out) -> int:
        """Bit contribution of (Sq^i x)(Sq^j y) to degree d_out."""
        ma = masks_a[ia]
        mb = masks_b[ib]
        out = 0
        for na in range(len(A.labels(da2))):
            if not (ma >> na & 1):
                continue
            for nb in range(len(B.labels(db2))):
                if mb >> nb & 1:
                    out ^= 1 << index[(da2, na, db2, nb)]
        return out

    def identity_masks(m: SqModule, d: int) -> list[int]:
        return [1 << i for i in range(m.dim(d))]

    ops: dict[int, dict[int, list[int]]] = {1: {}, 2: {}, 4: {}}
    for d, keys in pairs.items():
        for n in (1, 2, 4):
            masks = []
            for (da, i, db, j) in keys:
                acc = 0
                splits = [(p, n - p) for p in range(n + 1)]
                for (p, q) in splits:
                    if p == 3:
                        am = A.sq3(da)
                    else:
                        am = A.op(p, da) if p else identity_masks(A, da)
                    if q == 3:
                        bm = B.sq3(db)
                    else:
                        bm = B.op(q, db) if q else identity_masks(B, db)
                    acc ^= component(am, i, da + p, bm, j, db + q, d + n)
                masks.append(acc)
            if any(masks):
                ops[n][d] = masks
    return SqModule({d: tuple(v) for d, v in basis.items()},
                    ops[1], ops[2], ops[4])


def mod2_cohomology(x: Summand | WedgeComplex) -> SqModule:
    """Sq-module of a wedge; labels carry the summand index."""
    if not isinstance(x, WedgeComplex):
        x = wedge(x)
    total = _EMPTY
    solo = len(x.summands) == 1
    for i, c in enumerate(x.summands):
        if isinstance(c, SmashAtom):
            part = cartan_smash_sq(_elementary_sq(c.left),
                                   _elementary_sq(c.right)).shift(c.shift)
        else:
            part = _elementary_sq(c)
        if not solo:
            part = part.relabel(lambda lab, i=i: f"{i}.{lab}")
        total = total.direct_sum(part)
    return total


def sq_module_of_factors(a, b) -> SqModule:
    """Cartan module of a smash given the two factors (wedges allowed)."""
    return cartan_smash_sq(mod2_cohomology(a), mod2_cohomology(b))


def poincare_mod2(x: Summand | WedgeComplex) -> dict[int, int]:
    """Per-degree F2 dimension of the mod-2 cohomology."""
    return mod2_cohomology(x).dims()
