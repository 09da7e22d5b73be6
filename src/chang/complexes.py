"""Core model of stable complexes.

The universe is closed: spheres, Moore spaces M(Z/p^r, n), the four Chang
families built from eta and degree maps, finite wedges of these, and the
smash products of two such pieces that the decision table in `smash`
keeps whole ("atoms"), with no exception.  Everything is immutable and
canonicalized, so equality of wedges is equality of stable homotopy types
within this universe.

FAMILIES states, once, everything known about each kind of piece; the
Chang families are anchored at their top cell k, with bottom cell k-2.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Union

from .arith import MAX_DIGITS, PRIME_LIMIT, is_prime, power
from .errors import InputError, WindowError

__all__ = [
    "ElementaryComplex", "SmashAtom", "WedgeComplex", "Summand", "Family",
    "FAMILIES", "POINT", "sphere", "moore", "ceta", "ctop", "cbot", "cfull",
    "piece", "smash_atom", "wedge", "canonicalize", "suspend", "dual",
    "dual_elementary", "cells_of", "base_form", "WindowError",
]


class Family(NamedTuple):
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
    # the defaults are shared by every family that takes them: never mutated
    params: dict[str, str] = {}     # name -> message word
    boundary: dict[tuple[int, int], str] = {}
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


class _Frozen:
    """Base of the immutable values: every field is set once, when the value
    is built, and the repr names the fields in __match_args__."""

    __slots__ = ()
    __match_args__: tuple[str, ...]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class _FrozenRecord(_Frozen):
    """Base of the immutable records of `matrix` and `homgroups`.  The
    fields are the class annotations, in order, and a class attribute is a
    field's default.  A record is built from its fields by position or
    keyword, and compares and hashes by them, only with records of its own
    class: two classes with the same fields never compare equal."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} "
                            f"fields, got {len(args)}")
        # the fields go into the instance dict in their declared order,
        # which __hash__ reads back
        values = vars(self)
        values.update(zip(names, args))
        if len(args) < len(names):
            defaults = vars(type(self))
            for name in names[len(args):]:
                if name in kwargs:
                    values[name] = kwargs.pop(name)
                elif name in defaults:
                    values[name] = defaults[name]
                else:
                    raise TypeError(f"{type(self).__name__} is missing "
                                    f"field {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected or "
                            f"repeated fields {sorted(kwargs)}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


class ElementaryComplex(_Frozen):
    """One indecomposable piece: kind plus integer parameters.

    dim is the anchor dimension (n for spheres and Moore spaces, k for the
    Chang families).  p/r/s must be 0 when the kind does not use them.
    There is one instance per value: calling the class (or `piece`, or a
    named constructor) hands it out, validating the value the first time it
    is asked for, so equality and hashing are identity.  A value that fails
    validation is not kept and raises on every call.  The family, sort key
    and cells are worked out once, at validation.
    """

    __match_args__ = ("kind", "dim", "p", "r", "s")
    kind: str
    dim: int
    p: int
    r: int
    s: int
    family: Family
    sort_key: tuple
    _cells: tuple[int, ...]

    def __new__(cls, kind: str, dim: int, p: int = 0, r: int = 0, s: int = 0):
        # True == 1 would find 1's instance, and 1.5 is no degree: refuse
        # both before the lookup
        if not type(dim) is type(p) is type(r) is type(s) is int:
            raise InputError(f"{kind} dim, p, r, s must be integers, "
                             f"got {dim!r}, {p!r}, {r!r}, {s!r}")
        return _interned(cls, (kind, dim, p, r, s))

    def __reduce__(self):
        return ElementaryComplex, (self.kind, self.dim, self.p, self.r, self.s)

    def _validate(self):
        fam = FAMILIES.get(self.kind)
        if fam is None:
            raise InputError(f"unknown kind {self.kind!r}")
        if not fam.cells and self.dim != fam.min_dim:
            # a point has no cells to place; any dim would make a second
            # point
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


# pieces and atoms, keyed by the values of their __match_args__ (five for a
# piece, three for an atom, so the two kinds of key never meet)
_INSTANCES: dict[tuple, ElementaryComplex | SmashAtom] = {}


def _interned(cls, value: tuple):
    """The one instance of cls whose __match_args__ hold value: looked up, or
    else built, validated and kept.  A value that fails is not kept."""
    self = _INSTANCES.get(value)
    if self is None:
        self = object.__new__(cls)
        vars(self).update(zip(cls.__match_args__, value))
        self._validate()
        _INSTANCES[value] = self
    return self


# the class hands out the one validated instance per value; the factory name
# stays for callers that read better with it
piece = ElementaryComplex

POINT = ElementaryComplex("point", 0)


def sphere(n: int) -> ElementaryComplex:
    return ElementaryComplex("sphere", n)


def moore(p: int, r: int, n: int) -> ElementaryComplex:
    return ElementaryComplex("moore", n, p, r)


def ceta(k: int) -> ElementaryComplex:
    return ElementaryComplex("ceta", k)


def ctop(k: int, s: int) -> ElementaryComplex:
    return ElementaryComplex("ctop", k, 0, 0, s)


def cbot(r: int, k: int) -> ElementaryComplex:
    return ElementaryComplex("cbot", k, 0, r)


def cfull(r: int, k: int, s: int) -> ElementaryComplex:
    return ElementaryComplex("cfull", k, 0, r, s)


@cache
def base_form(c: ElementaryComplex) -> tuple[ElementaryComplex, int]:
    """Desuspend to the table dimension (n=3 resp. k=5); return
    (base, shift)."""
    base_dim = c.family.min_dim
    return (ElementaryComplex(c.kind, base_dim, c.p, c.r, c.s),
            c.dim - base_dim)


class SmashAtom(_Frozen):
    """Smash of two elementary pieces that does not split further.

    Factors are stored at base dimension with the total suspension in
    shift, and ordered so the pair is canonical.  Like a piece, an atom has
    one instance per value, validated the first time it is built.
    """

    __match_args__ = ("left", "right", "shift")
    left: ElementaryComplex
    right: ElementaryComplex
    shift: int
    sort_key: tuple

    def __new__(cls, left, right, shift: int = 0):
        if type(shift) is not int:
            raise InputError(f"atom shift must be an integer, got {shift!r}")
        return _interned(cls, (left, right, shift))

    def __reduce__(self):
        return SmashAtom, (self.left, self.right, self.shift)

    def _validate(self):
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


def smash_atom(a: ElementaryComplex, b: ElementaryComplex) -> SmashAtom:
    """The atom a ^ b (any dimensions, either order) for a pair the
    decision table keeps whole."""
    a0, sa = base_form(a)
    b0, sb = base_form(b)
    if a0.sort_key > b0.sort_key:
        a0, b0 = b0, a0
    return SmashAtom(a0, b0, sa + sb)


class WedgeComplex(_Frozen):
    """Finite wedge, kept in canonical (sorted, point-free) form.  Two
    wedges are equal when their summands are; a wedge equals nothing else."""

    __slots__ = ("summands",)
    __match_args__ = ("summands",)
    summands: tuple[Summand, ...]

    def __init__(self, summands: tuple[Summand, ...] = ()):
        object.__setattr__(self, "summands", summands)

    def __eq__(self, other):
        if type(other) is not WedgeComplex:
            return NotImplemented
        return self.summands == other.summands

    def __hash__(self) -> int:
        return hash(self.summands)

    def __reduce__(self):
        return WedgeComplex, (self.summands,)

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
    """Wedge of summands and/or wedges in the unique normal form: points
    absorbed, summands sorted."""
    flat = [c for p in pieces
            for c in (p.summands if isinstance(p, WedgeComplex) else (p,))
            if c is not POINT]
    flat.sort(key=lambda c: c.sort_key)
    return WedgeComplex(tuple(flat))


def canonicalize(w: WedgeComplex) -> WedgeComplex:
    """The normal form of w (see `wedge`)."""
    return wedge(w)


def suspend(x: Summand | WedgeComplex, m: int) -> WedgeComplex:
    """m-fold suspension, acting summand-wise."""
    if m < 0:
        raise InputError("suspension count must be >= 0")
    if not isinstance(x, WedgeComplex):
        x = wedge(x)
    return wedge(*(SmashAtom(c.left, c.right, c.shift + m)
                   if isinstance(c, SmashAtom)
                   else ElementaryComplex(c.kind, c.dim + m, c.p, c.r, c.s)
                   for c in x.summands))


def cells_of(x: Summand | WedgeComplex) -> list[tuple[int, int]]:
    """Cell census as (dimension, count) pairs."""
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


def _dualizable_at(c: ElementaryComplex, m: int) -> bool:
    return not c.cells() or _dual_dim(c, m) >= c.family.min_dim


def dual_elementary(c: ElementaryComplex, m: int) -> ElementaryComplex:
    """m-dual of one elementary piece."""
    if not c.cells():
        return c
    kind, params = c.family.dual
    return piece(kind, _dual_dim(c, m),
                 **{k: getattr(c, v) for k, v in params.items()})


def _dual_atom(a: SmashAtom, m: int) -> SmashAtom:
    d = smash_atom(dual_elementary(a.left, 8), dual_elementary(a.right, 8))
    shift = d.shift + m - 16 - a.shift
    if shift < 0:
        raise WindowError(f"{a} has no dual in the S^{m} window")
    return SmashAtom(d.left, d.right, shift)


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
    """Summand-wise m-duality; m inferred when not given (`infer_sdim`).

    At a fixed m it is an involution: dual(dual(x, m), m) == x.  With m
    inferred it is not in general, since each call infers its own window:
    dual(dual(S(5))) is S(3)."""
    if not isinstance(x, WedgeComplex):
        x = wedge(x)
    m = infer_sdim(x) if sdim is None else sdim
    out: list[Summand] = []
    for c in x.summands:
        if isinstance(c, SmashAtom):
            out.append(_dual_atom(c, m))
        elif _dualizable_at(c, m):
            out.append(dual_elementary(c, m))
        else:
            raise WindowError(f"{c} has no dual in the S^{m} window")
    return wedge(*out)


# The decision table in smash says which base pairs stay whole, so it is
# what SmashAtom validates against.  Bound here, after every name smash
# imports from this module exists, so that either module can be imported
# first.
from . import smash  # noqa: E402
