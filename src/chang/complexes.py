"""Core model of stable complexes.

The universe is closed: spheres, Moore spaces M(Z/p^r, n), the four Chang
families built from eta and degree maps, finite wedges of these, and the
smash products of two such pieces that are certified indecomposable
("atoms").  Everything is immutable and canonicalized, so equality of
wedges is equality of stable homotopy types within this universe.

FAMILIES states, once, everything known about each kind of piece; the
Chang families are anchored at their top cell k, with bottom cell k-2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Union

from .arith import MAX_DIGITS, PRIME_LIMIT, is_prime, power
from .errors import InputError, WindowError

__all__ = [
    "ElementaryComplex", "SmashAtom", "WedgeComplex", "Summand", "Family",
    "FAMILIES", "POINT", "sphere", "moore", "ceta", "ctop", "cbot", "cfull",
    "piece", "smash_atom", "wedge", "canonicalize", "suspend", "dual",
    "dual_elementary", "cells_of", "base_form", "unshifted", "WindowError",
]


@dataclass(frozen=True)
class Family:
    """Everything the library knows about one kind of elementary piece.

    Cells are (offset from the anchor dimension, cohomology label prefix)
    in chain order; boundary maps (from_cell, to_cell) indices to the degree
    of the attaching map, written "base^exponent" over the parameters; eta
    lists (bottom_cell, top_cell) pairs joined by eta.  The dual is the
    dual's kind plus, per dual parameter, the parameter of this piece it
    takes.  Spelling is the printed and parsed form.
    """

    rank: int                       # position in the canonical wedge order
    min_dim: int                    # smallest anchor in the stable range
    cells: tuple[tuple[int, str], ...]
    dual: tuple[str, dict[str, str]]
    spelling: str
    hom_name: str = ""              # row name in the hom tables
    noun: str = ""                  # used in parameter error messages
    params: dict[str, str] = field(default_factory=dict)  # name -> message word
    boundary: dict[tuple[int, int], str] = field(default_factory=dict)
    eta: tuple[tuple[int, int], ...] = ()


FAMILIES: dict[str, Family] = {
    "sphere": Family(
        rank=0, min_dim=3, cells=((0, "u"),), dual=("sphere", {}),
        spelling="S({dim})", hom_name="S"),
    "moore": Family(
        rank=1, min_dim=3, cells=((0, "u"), (1, "u")), boundary={(1, 0): "p^r"},
        dual=("moore", {"p": "p", "r": "r"}), spelling="M({p}^{r},{dim})",
        hom_name="M{prime}", noun="Moore space",
        params={"p": "prime", "r": "exponent"}),
    "ceta": Family(
        rank=2, min_dim=5, cells=((-2, "u"), (0, "u")), eta=((0, 1),),
        dual=("ceta", {}), spelling="Ceta({dim})", hom_name="Ceta"),
    "ctop": Family(
        rank=3, min_dim=5, cells=((-2, "u"), (-1, "u"), (0, "u")),
        boundary={(2, 1): "2^s"}, eta=((0, 2),), dual=("cbot", {"r": "s"}),
        spelling="Ctop({dim},{s})", hom_name="Ctop", noun="Chang complex",
        params={"s": "exponent s"}),
    "cbot": Family(
        rank=4, min_dim=5, cells=((-2, "u"), (-1, "u"), (0, "u")),
        boundary={(1, 0): "2^r"}, eta=((0, 2),), dual=("ctop", {"s": "r"}),
        spelling="Cbot({r},{dim})", hom_name="Cbot", noun="Chang complex",
        params={"r": "exponent r"}),
    # of the two middle cells, v(k-1) carries the bottom torsion and the
    # top cell attaches to vb(k-1)
    "cfull": Family(
        rank=5, min_dim=5, cells=((-2, "v"), (-1, "v"), (-1, "vb"), (0, "v")),
        boundary={(1, 0): "2^r", (3, 2): "2^s"}, eta=((0, 3),),
        dual=("cfull", {"r": "s", "s": "r"}), spelling="C({r},{dim},{s})",
        hom_name="Cfull", noun="Chang complex",
        params={"r": "exponent r", "s": "exponent s"}),
    "point": Family(rank=6, min_dim=0, cells=(), dual=("point", {}),
                    spelling="*"),
}


# p < 2^64 has at most 20 digits, so only a longer exponent can make an
# order too long to print
_LONG_EXPONENT = MAX_DIGITS // 20


@dataclass(frozen=True, order=False)
class ElementaryComplex:
    """One indecomposable piece: kind plus integer parameters.

    dim is the anchor dimension (n for spheres and Moore spaces, k for the
    Chang families).  p/r/s must be 0 when the kind does not use them, so
    that equal pieces compare equal.  Build pieces with `piece` (or the
    named constructors), which hands out one validated instance per value;
    a piece built here directly is equal to it and hashes alike.  The
    family, sort key, cells and hash are worked out once, at validation,
    and take no part in equality.
    """

    kind: str
    dim: int
    p: int = 0
    r: int = 0
    s: int = 0
    family: Family = field(init=False, repr=False, compare=False)
    sort_key: tuple = field(init=False, repr=False, compare=False)
    _cells: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fam = FAMILIES.get(self.kind)
        if fam is None:
            raise InputError(f"unknown kind {self.kind!r}")
        if not fam.cells and self.dim != fam.min_dim:
            # a point has no cells to place; any dim would make it unequal
            # to POINT
            raise InputError(f"{self.kind} takes no dimension, got {self.dim}")
        if self.dim < fam.min_dim:
            raise InputError(
                f"{self.kind} at dimension {self.dim} is below the stable range")
        for name, word in fam.params.items():
            value = getattr(self, name)
            if name == "p":
                if not is_prime(value):
                    below = " below 2^64" if value >= PRIME_LIMIT else ""
                    raise InputError(
                        f"{fam.noun} needs a {word}{below}, got {value}")
            elif value < 1:
                raise InputError(f"{fam.noun} {word} must be >= 1")
            elif value > _LONG_EXPONENT:
                for spec in fam.boundary.values():
                    self._degree(spec)      # refuses an order too long
        for name in ("p", "r", "s"):
            if name not in fam.params and getattr(self, name):
                raise InputError(f"{self.kind} does not use parameter {name}")
        put = object.__setattr__
        put(self, "family", fam)
        put(self, "sort_key", (fam.rank, self.dim, self.r, self.s, self.p))
        put(self, "_cells", tuple(self.dim + off for off, _ in fam.cells))
        put(self, "_hash", hash((self.kind, self.dim, self.p, self.r, self.s)))

    def __hash__(self):
        return self._hash

    @property
    def bottom(self) -> int:
        """Dimension of the bottom cell."""
        return min(self._cells, default=self.dim)

    @property
    def top(self) -> int:
        return max(self._cells, default=self.dim)

    def cells(self) -> tuple[int, ...]:
        """Cell dimensions with multiplicity, in chain order."""
        return self._cells

    def _degree(self, spec: str) -> int:
        """An attaching degree written "base^exponent" over the parameters."""
        base, exp = spec.split("^")
        base = int(base) if base.isdigit() else getattr(self, base)
        return power(base, getattr(self, exp))

    def boundary(self) -> dict[tuple[int, int], int]:
        """Integral cellular boundary: (from_cell, to_cell) -> degree."""
        return {edge: self._degree(spec)
                for edge, spec in self.family.boundary.items()}

    def __str__(self) -> str:
        return self.family.spelling.format(dim=self.dim, p=self.p, r=self.r,
                                           s=self.s)


def piece(kind: str, dim: int, p: int = 0, r: int = 0,
          s: int = 0) -> ElementaryComplex:
    """The one instance of the piece with this value, validated the first
    time the value is asked for.  A value that fails validation raises on
    every call."""
    return _piece(kind, dim, p, r, s)


_piece = cache(ElementaryComplex)

POINT = piece("point", 0)


def sphere(n: int) -> ElementaryComplex:
    return _piece("sphere", n, 0, 0, 0)


def moore(p: int, r: int, n: int) -> ElementaryComplex:
    return _piece("moore", n, p, r, 0)


def ceta(k: int) -> ElementaryComplex:
    return _piece("ceta", k, 0, 0, 0)


def ctop(k: int, s: int) -> ElementaryComplex:
    return _piece("ctop", k, 0, 0, s)


def cbot(r: int, k: int) -> ElementaryComplex:
    return _piece("cbot", k, 0, r, 0)


def cfull(r: int, k: int, s: int) -> ElementaryComplex:
    return _piece("cfull", k, 0, r, s)


def _moved(c: ElementaryComplex, dim: int) -> ElementaryComplex:
    """c with its anchor at dim."""
    return _piece(c.kind, dim, c.p, c.r, c.s)


@cache
def base_form(c: ElementaryComplex) -> tuple[ElementaryComplex, int]:
    """Desuspend to the table dimension (n=3 resp. k=5); return
    (base, shift)."""
    base_dim = c.family.min_dim
    return _moved(c, base_dim), c.dim - base_dim


@dataclass(frozen=True)
class SmashAtom:
    """Smash of two elementary pieces that does not split further.

    Factors are stored at base dimension with the total suspension in
    shift, and ordered so the pair is canonical.
    """

    left: ElementaryComplex
    right: ElementaryComplex
    shift: int = 0
    sort_key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.shift < 0:
            raise InputError("atom shift must be >= 0")
        for c in (self.left, self.right):
            if c.dim != c.family.min_dim:
                raise InputError(f"atom factor {c} is not in base form")
        if self.left.sort_key > self.right.sort_key:
            raise InputError("atom factors out of canonical order")
        if not smash.stays_whole(self.left, self.right):
            raise InputError(
                f"{self.left} ^ {self.right} splits; it cannot be an atom")
        object.__setattr__(self, "sort_key", (9, self.shift)
                           + self.left.sort_key + self.right.sort_key)
        object.__setattr__(self, "_hash",
                           hash((self.left, self.right, self.shift)))

    def __hash__(self):
        return self._hash

    @property
    def bottom(self) -> int:
        return self.left.bottom + self.right.bottom + self.shift

    @property
    def top(self) -> int:
        return self.left.top + self.right.top + self.shift

    def cells(self) -> list[int]:
        return sorted(x + y + self.shift
                      for x in self.left.cells() for y in self.right.cells())

    def __str__(self) -> str:
        core = f"{self.left}^{self.right}"
        return core if self.shift == 0 else f"susp({self.shift},{core})"


Summand = Union[ElementaryComplex, SmashAtom]


@cache
def unshifted(a: SmashAtom) -> SmashAtom:
    """The atom a with shift 0, built once per atom."""
    return a if a.shift == 0 else SmashAtom(a.left, a.right)


def smash_atom(a: ElementaryComplex, b: ElementaryComplex) -> Summand:
    """The canonical form of the atom a ^ b (any dimensions) for a pair the
    decision table keeps whole."""
    a0, sa = base_form(a)
    b0, sb = base_form(b)
    if a0.sort_key > b0.sort_key:
        a0, b0 = b0, a0
    return wedge(SmashAtom(a0, b0, sa + sb)).summands[0]


@dataclass(frozen=True)
class WedgeComplex:
    """Finite wedge, kept in canonical (sorted, point-free) form."""

    summands: tuple[Summand, ...] = ()

    def cells(self) -> list[int]:
        out: list[int] = []
        for c in self.summands:
            out.extend(c.cells())
        return sorted(out)

    def __str__(self) -> str:
        if not self.summands:
            return "*"
        return " v ".join(str(c) for c in self.summands)


def wedge(*pieces: Summand | WedgeComplex) -> WedgeComplex:
    """Wedge of summands and/or wedges, canonicalized."""
    flat: list[Summand] = []
    for p in pieces:
        if isinstance(p, WedgeComplex):
            flat.extend(p.summands)
        else:
            flat.append(p)
    return canonicalize(WedgeComplex(tuple(flat)))


# M(2,3) ^ M(2,3) stays whole in the decision table but is the four-cell
# C(1,8,1); canonicalize rewrites it, so that atom is transient only.
_M2 = moore(2, 1, 3)


def canonicalize(w: WedgeComplex) -> WedgeComplex:
    """Unique normal form: points absorbed, the torsion square
    M(2,3)^M(2,3) rewritten to C(1,8,1), summands sorted."""
    out: list[Summand] = []
    for c in w.summands:
        if isinstance(c, SmashAtom):
            # sort keys fix a piece's value, and compare without __eq__
            if c.left.sort_key == c.right.sort_key == _M2.sort_key:
                c = cfull(1, 8 + c.shift, 1)
        elif c.kind == "point":
            continue
        out.append(c)
    out.sort(key=lambda c: c.sort_key)
    return WedgeComplex(tuple(out))


def suspend(x: Summand | WedgeComplex, m: int) -> WedgeComplex:
    """m-fold suspension, acting summand-wise."""
    if m < 0:
        raise InputError("suspension count must be >= 0")
    if not isinstance(x, WedgeComplex):
        x = wedge(x)
    out: list[Summand] = []
    for c in x.summands:
        if isinstance(c, ElementaryComplex):
            out.append(_moved(c, c.dim + m))
        else:
            out.append(SmashAtom(c.left, c.right, c.shift + m))
    return canonicalize(WedgeComplex(tuple(out)))


def cells_of(x: Summand | WedgeComplex) -> list[tuple[int, int]]:
    """Cell census as (dimension, count) pairs."""
    if not isinstance(x, WedgeComplex):
        x = wedge(x)
    counts: dict[int, int] = {}
    for d in x.cells():
        counts[d] = counts.get(d, 0) + 1
    return sorted(counts.items())


# --- Spanier-Whitehead duality -------------------------------------------
#
# dual(X, sdim=m) is the m-duality D_m, the contravariant involution with
# X ^ D_m(X) mapping to S^m.  A wedge of pieces from one ambient window
# A_n^2 uses m = 2n+2; a smash of two window-3 pieces (an atom, or any
# decomposition output) lives at m = 16 plus twice the suspension.

def _natural_sdims(c: Summand) -> set[int] | None:
    """Candidate duality dimensions for one summand (None = unconstrained).

    A piece lives in the window A_n^2 (m = 2n+2) when its cells lie in
    degrees n..n+2, and is dualizable there when the dual is in range."""
    if isinstance(c, SmashAtom):
        return {16 + 2 * c.shift}
    if not c.cells():
        return None
    return {2 * n + 2 for n in range(c.top - 2, c.bottom + 1)
            if _dualizable_at(c, 2 * n + 2)}


def _dual_dim(c: ElementaryComplex, m: int) -> int:
    """Anchor of the m-dual: the cells reflect d -> m - d."""
    return m - c.bottom - c.top + c.dim


def _dualizable_at(c: Summand, m: int) -> bool:
    if isinstance(c, SmashAtom):
        _, sl = base_form(dual_elementary(c.left, 8))
        _, sr = base_form(dual_elementary(c.right, 8))
        return m - 16 - c.shift + sl + sr >= 0
    return not c.cells() or _dual_dim(c, m) >= c.family.min_dim


def dual_elementary(c: ElementaryComplex, m: int) -> ElementaryComplex:
    """m-dual of one elementary piece."""
    if not c.cells():
        return c
    kind, params = c.family.dual
    return piece(kind, _dual_dim(c, m),
                 **{k: getattr(c, v) for k, v in params.items()})


def _dual_atom(a: SmashAtom, m: int) -> SmashAtom:
    dl, sl = base_form(dual_elementary(a.left, 8))
    dr, sr = base_form(dual_elementary(a.right, 8))
    shift = (m - 16 - a.shift) + sl + sr
    if dl.sort_key > dr.sort_key:
        dl, dr = dr, dl
    return SmashAtom(dl, dr, shift)


def infer_sdim(x: WedgeComplex) -> int:
    """Smallest duality dimension consistent with every summand."""
    cands: set[int] | None = None
    for c in x.summands:
        s = _natural_sdims(c)
        if s is None:
            continue
        cands = s if cands is None else cands & s
        if not cands:
            raise WindowError(
                "no common duality window; conflicting summands: "
                + ", ".join(str(t) for t in x.summands))
    if cands is None:
        # a point dualizes to itself in any window
        return 8
    return min(cands)


def dual(x: Summand | WedgeComplex, sdim: int | None = None) -> WedgeComplex:
    """Summand-wise m-duality; m inferred when not given."""
    if not isinstance(x, WedgeComplex):
        x = wedge(x)
    m = infer_sdim(x) if sdim is None else sdim
    out: list[Summand] = []
    for c in x.summands:
        if not _dualizable_at(c, m):
            raise WindowError(f"{c} has no dual in the S^{m} window")
        if isinstance(c, SmashAtom):
            out.append(_dual_atom(c, m))
        else:
            out.append(dual_elementary(c, m))
    return canonicalize(WedgeComplex(tuple(out)))


# The decision table in smash says which base pairs stay whole, so it is
# what SmashAtom validates against.  Bound here, after every name smash
# imports from this module exists, so that either module can be imported
# first.
from . import smash  # noqa: E402
