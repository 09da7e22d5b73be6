"""Mod-2 cohomology as a module over Sq^1, Sq^2 and Sq^4.

Bases are labelled; the operations are F2 matrices stored as bitmask rows
(entry j of the image of basis element i is bit j of masks[i]), and their
ranks and composites come from `f2`.  Smash products get the Cartan
formula, with Sq^3 = Sq^1 Sq^2 supplying the odd cross terms in the Sq^4
expansion.  An atom's module is the Cartan product of its pair, shifted.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping, Sequence

from . import f2
from .complexes import ElementaryComplex, SmashAtom, Summand, WedgeComplex

__all__ = ["SqModule", "mod2_cohomology", "cartan_smash_sq", "wedge_sum",
           "module_id", "pair_tensor", "poincare_mod2"]


class SqModule:
    """Graded F2 vector space with Sq^1 / Sq^2 / Sq^4 actions.

    `profile` starts as None; `verify` fills it with the module's invariant
    profile the first time it needs one, so a shared module is profiled
    once per process.
    """

    __slots__ = ("basis", "ops", "profile")

    def __init__(self,
                 basis: Mapping[int, Sequence[str]] = (),
                 sq1: Mapping[int, Sequence[int]] = (),
                 sq2: Mapping[int, Sequence[int]] = (),
                 sq4: Mapping[int, Sequence[int]] = ()):
        self.basis = {d: tuple(v) for d, v in dict(basis).items() if v}
        dims = {d: len(v) for d, v in self.basis.items()}
        self.ops = {1: {}, 2: {}, 4: {}}
        for k, table in ((1, sq1), (2, sq2), (4, sq4)):
            for d, masks in dict(table).items():
                masks = tuple(masks)
                if len(masks) != dims.get(d, 0):
                    raise ValueError(f"Sq^{k} at degree {d}: bad source size")
                width = dims.get(d + k, 0)
                if any(m >> width for m in masks):
                    raise ValueError(f"Sq^{k} at degree {d}: image out of range")
                if any(masks):
                    self.ops[k][d] = masks
        self.profile = None
        self._check_relations()

    def _check_relations(self):
        # only a degree where Sq^1 or Sq^2 is nonzero can break a relation
        for d in sorted(self.ops[1].keys() | self.ops[2].keys()):
            if any(self.composite(d, 1, 1) or ()):
                raise ValueError(f"Sq^1 Sq^1 != 0 at degree {d}")
            lhs = self.composite(d, 2, 2) or [0] * self.dim(d)
            rhs = self.composite(d, 1, 2, 1) or [0] * self.dim(d)
            if lhs != rhs:
                raise ValueError(f"Sq^2 Sq^2 != Sq^1 Sq^2 Sq^1 at degree {d}")

    def composite(self, d: int, *ks: int) -> Sequence[int] | None:
        """Masks on degree d of Sq^ks[0] followed by Sq^ks[1] and so on;
        None when one of the blocks it passes through is zero."""
        masks = None
        for k in ks:
            table = self.ops[k].get(d)
            if table is None:
                return None
            masks = table if masks is None else f2.compose(masks, table)
            d += k
        return masks

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

    def rank(self, k: int, d: int) -> int:
        return f2.rank(self.op(k, d))

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

    def permuted(self, perms: Mapping[int, Sequence[int]]) -> "SqModule":
        """Reorder the basis in selected degrees (perm[i] = old index of new i).

        A test helper: it builds isomorphic copies for the isomorphism
        search to find."""
        # back[d] sends old basis vector i of degree d to its new position;
        # composing with it rewrites images in the new basis of the target
        back = {}
        for d, perm in perms.items():
            back[d] = [0] * len(perm)
            for new, old in enumerate(perm):
                back[d][old] = 1 << new
        basis = {d: tuple(v[i] for i in perms[d]) if d in perms else v
                 for d, v in self.basis.items()}
        ops: dict[int, dict[int, Sequence[int]]] = {1: {}, 2: {}, 4: {}}
        for k in (1, 2, 4):
            for d, masks in self.ops[k].items():
                if d in perms:
                    masks = [masks[i] for i in perms[d]]
                if d + k in back:
                    masks = f2.compose(masks, back[d + k])
                ops[k][d] = masks
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


def _sq_rows(m: SqModule, d: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """(p, its nonzero rows (index, mask)) for each of Sq^0..Sq^4 that is
    nonzero on degree d of m."""
    tables = [(0, [(i, 1 << i) for i in range(m.dim(d))])]
    for p, ks in ((1, (1,)), (2, (2,)), (3, (2, 1)), (4, (4,))):
        masks = m.composite(d, *ks)
        rows = [(i, mask) for i, mask in enumerate(masks or ()) if mask]
        if rows:
            tables.append((p, rows))
    return tables


def cartan_smash_sq(A: SqModule, B: SqModule) -> SqModule:
    """Tensor module with Sq^n(x@y) = sum of Sq^i x @ Sq^j y over i+j=n.

    Degree d of the tensor lists one block per (da, db) with da + db = d,
    da rising; in block (da, db), x_i @ y_j sits at the block's offset plus
    i * dim_B(db) + j.  So Sq^p x_i @ Sq^q y_j is the mask of Sq^q y_j
    shifted into block (da+p, db+q), once for each set bit k of Sq^p x_i.
    Only the nonzero rows of Sq^p on A and of Sq^q on B are visited, so a
    zero product costs nothing.
    """
    dims_b = {db: len(labels) for db, labels in B.basis.items()}
    basis: dict[int, list[str]] = {}
    offset: dict[tuple[int, int], int] = {}
    for da in A.degrees():
        for db in B.degrees():
            labels = basis.setdefault(da + db, [])
            offset[da, db] = len(labels)
            labels.extend(f"{la}⊗{lb}" for la in A.labels(da)
                          for lb in B.labels(db))
    rows_a = {da: _sq_rows(A, da) for da in A.degrees()}
    rows_b = {db: _sq_rows(B, db) for db in B.degrees()}
    ops: dict[int, dict[int, list[int]]] = {1: {}, 2: {}, 4: {}}
    for (da, db), start in offset.items():
        width = dims_b[db]
        for p, ra in rows_a[da]:
            for q, rb in rows_b[db]:
                n = p + q
                if n not in ops:
                    continue
                # Sq^p x and Sq^q y are nonzero, so (da+p, db+q) is a block
                tgt, tgt_width = offset[da + p, db + q], dims_b[db + q]
                masks = ops[n].get(da + db)
                if masks is None:
                    masks = ops[n][da + db] = [0] * len(basis[da + db])
                for i, ma in ra:
                    shifts = [tgt + k * tgt_width
                              for k in range(ma.bit_length()) if ma >> k & 1]
                    row = start + i * width
                    for j, mb in rb:
                        for shift in shifts:
                            masks[row + j] ^= mb << shift
    return SqModule(basis, ops[1], ops[2], ops[4])


def wedge_sum(parts: Sequence[SqModule]) -> SqModule:
    """Direct sum of the parts, built in one pass; the labels of part i get
    the prefix "i." so that the bases stay disjoint."""
    basis: dict[int, list[str]] = {}
    offsets = []
    for i, m in enumerate(parts):
        at = {}
        for d, labels in m.basis.items():
            row = basis.setdefault(d, [])
            at[d] = len(row)
            row.extend(f"{i}.{lab}" for lab in labels)
        offsets.append(at)
    ops: dict[int, dict[int, list[int]]] = {1: {}, 2: {}, 4: {}}
    for k in (1, 2, 4):
        for m, at in zip(parts, offsets):
            for d, masks in m.ops[k].items():
                row = ops[k].setdefault(d, [0] * len(basis[d]))
                row[at[d]:at[d] + len(masks)] = [x << at[d + k] for x in masks]
    return SqModule(basis, ops[1], ops[2], ops[4])


_MODULE_IDS: dict[tuple, int] = {}
# mod-2 class of a piece -> (its Sq-module, the module's id)
_CLASSES: dict[tuple, tuple[SqModule, int]] = {}


def _mod2_class(c: ElementaryComplex) -> tuple[SqModule, int]:
    """The Sq-module of a piece and its id, built once per mod-2 class: the
    kind, the dimension and each attaching degree taken as odd (1), 2 mod 4
    (2) or 0 mod 4 (0), which is all that `_elementary_sq` reads.  The id is
    interned from the module's content, so classes with equal modules (the
    zero module of every odd Moore space) share one."""
    key = (c.kind, c.dim,
           *(1 if q % 2 else q % 4 for q in c.boundary().values()))
    got = _CLASSES.get(key)
    if got is None:
        m = _elementary_sq(c)
        content = (tuple(sorted(m.basis.items())),
                   tuple(tuple(sorted(m.ops[k].items())) for k in (1, 2, 4)))
        got = _CLASSES[key] = (
            m, _MODULE_IDS.setdefault(content, len(_MODULE_IDS)))
    return got


@cache
def _summand_sq(c: Summand) -> SqModule:
    """Sq-module of one summand, built once per process and shared by every
    caller; a piece's is its mod-2 class's, an unshifted atom's module is
    its pair's tensor, and a shifted atom's is that tensor shifted."""
    if isinstance(c, ElementaryComplex):
        return _mod2_class(c)[0]
    if c.shift:
        return _summand_sq(SmashAtom(c.left, c.right)).shift(c.shift)
    return pair_tensor(c.left, c.right)


@cache
def module_id(c: Summand) -> int:
    """Small id of the summand's Sq-module, interned once per process: equal
    ids mean equal modules (labels and masks), so work on a module can be
    shared by every summand that has it.  A piece takes its mod-2 class's
    id, an atom is keyed by its factors' ids and its shift."""
    if isinstance(c, ElementaryComplex):
        return _mod2_class(c)[1]
    key = (module_id(c.left), module_id(c.right), c.shift)
    return _MODULE_IDS.setdefault(key, len(_MODULE_IDS))


_TENSORS: dict[tuple[int, int], SqModule] = {}


def pair_tensor(a: Summand, b: Summand) -> SqModule:
    """H*(a) @ H*(b), built once per process for each ordered pair of module
    ids and shared by every caller, so callers must not mutate it.  Equal
    ids mean equal modules, so the shared tensor is the one the pair itself
    would build, labels included."""
    key = (module_id(a), module_id(b))
    tensor = _TENSORS.get(key)
    if tensor is None:
        tensor = _TENSORS[key] = cartan_smash_sq(_summand_sq(a), _summand_sq(b))
    return tensor


def mod2_cohomology(x: Summand | WedgeComplex) -> SqModule:
    """Sq-module of a wedge; labels carry the summand index when there is
    more than one summand.  A single summand's module is the memoised one,
    so callers must not mutate the result."""
    parts = x.summands if isinstance(x, WedgeComplex) else (x,)
    if len(parts) == 1:
        return _summand_sq(parts[0])
    return wedge_sum([_summand_sq(c) for c in parts])


def poincare_mod2(x: Summand | WedgeComplex) -> dict[int, int]:
    """Per-degree F2 dimension of the mod-2 cohomology."""
    return mod2_cohomology(x).dims()
