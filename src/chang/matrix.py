"""Formal morphism matrices between wedges and their reduction calculus.

Entries are integer-polynomial combinations of named generators, with
undetermined bits k, k', e, e' (square = itself) as first-class
coefficients; the elementary transformations are exactly the invertible
row/column moves, so the mapping cone class is preserved at every step.
Each move (negate, integer scale-add, compose-add) is written once, on the
lines of a grid: its rows, or the rows of its transpose.  `apply_step` runs
the six step kinds through them; `split_cone` cancels a unit with the same
compose-add move on rows, then drops the unit's row and column.
The mapping cone is built once as a cell complex (cells, integral boundary,
eta attachments).  `homology_of_cone` reads its boundary.  `split_cone`
names a block by that homology when its cells span fewer than 2p - 2
degrees (two at p = 2); any other by the cells, boundary and eta pairs of a
`complexes.FAMILIES` entry, or as one of the few cones with hidden eta.
Each term is spelled once, by `spell`: printed with Greek bits and display
names, or as the ASCII literal that `parse_morphism` reads back, which is
what `matrix_to_json` writes.
Composition goes by the letters of words (i, q, eta, rho) and a partial
relation table; a pair neither decides is an UnknownComposition, not a guess.
Morphisms, matrices, steps and reports are frozen records
(`complexes._FrozenRecord`), equal only to records of their own class: a
step is changed by building it anew, as `inverse_step` does.
"""

from __future__ import annotations

import json
from math import gcd
from functools import lru_cache
from itertools import permutations

from .arith import MAX_DIGITS, integer, power, prime_powers
from .complexes import (FAMILIES, ElementaryComplex, SmashAtom, Summand,
                        WedgeComplex, _FrozenRecord, ceta, cfull, moore,
                        piece, sphere, suspend, wedge)
from .errors import ChangError, InputError, UnknownComposition, UntabulatedHom
from .homgroups import (_Values, _hom_record, _located, _read_expression,
                        _read_table, _table_path)
from .homology import GradedAbelianGroup

__all__ = ["Coef", "FormalMorphism", "MorphismMatrix", "RelationTable",
           "UnknownComposition", "NegateRow", "NegateCol", "ColCompose",
           "RowCompose", "ScaleAddRow", "ScaleAddCol", "apply_step",
           "run_script", "inverse_step", "split_cone", "SplitConeReport",
           "homology_of_cone", "parse_morphism", "matrix_from_json",
           "matrix_to_json", "steps_from_json", "render_matrix",
           "default_table", "smith_normal_form"]

BITS = ("k", "k2", "e", "e2")
_UNPRINTABLE = 10 ** MAX_DIGITS     # coefficients stay below it
_BIT_DISPLAY = {"k": "κ", "k2": "κ'", "e": "ε", "e2": "ε'"}

_ETA_FAMILY = {"eta", "ieta", "etaq", "ietaq", "ietaetaq", "etaeta",
               "ietaeta", "etaetaq", "eta_w1", "1_w_eta", "lambda11",
               "etamix", "xiM", "etaS", "xi", "rhoM", "irho"}

# the words: composites of the letters i (bottom-cell inclusion), q
# (top-cell pinch), eta and rho, the first letter applied last
_WORDS = frozenset({"i", "q", "iq", "eta", "ieta", "etaq", "ietaq", "etaeta",
                    "ietaeta", "etaetaq", "ietaetaq", "rho", "irho"})
_ETA_SMASH = ("eta_w1", "1_w_eta")      # η∧1 and 1∧η: η on each cell

# the display names of the other generators, with {sr} and {tr} standing
# for the exponents of the Moore ends, as in the hom table's generator names
_DISPLAY = {"B": "B(χ)", "eta_w1": "η∧1", "1_w_eta": "1∧η", "lambda11": "λ11",
            "etamix": "η_{tr}^{sr}", "xiM": "ξ_{tr}^{sr}", "xi": "ξ_{tr}",
            "etaS": "η^{sr}", "rhoM": "ρ_{tr}"}


# --- coefficients: Z[k,k2,e,e2] with bit^2 = bit ---------------------------

class Coef:
    """Multilinear integer polynomial in the undetermined bits."""

    __slots__ = ("terms",)

    def __init__(self, terms=1):
        if isinstance(terms, int):
            terms = {frozenset(): terms} if terms else {}
        self.terms = {m: c for m, c in terms.items() if c}
        if any(abs(c) >= _UNPRINTABLE for c in self.terms.values()):
            raise InputError(f"a coefficient has more than {MAX_DIGITS} digits")

    @classmethod
    def bit(cls, name: str) -> "Coef":
        if name not in BITS:
            raise InputError(f"unknown bit {name!r}")
        return cls({frozenset([name]): 1})

    def __add__(self, other: "Coef") -> "Coef":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Coef(out)

    def __neg__(self) -> "Coef":
        return Coef({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Coef") -> "Coef":
        out: dict[frozenset, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 | m2            # bit^2 = bit
                out[m] = out.get(m, 0) + c1 * c2
        return Coef(out)

    def scale(self, k: int) -> "Coef":
        return Coef({m: c * k for m, c in self.terms.items()})

    def reduce_mod(self, n: int) -> "Coef":
        if n == 0:
            return self
        return Coef({m: c % n for m, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def const_value(self) -> int | None:
        """The integer value, if no bits occur."""
        if any(m for m in self.terms):
            return None
        return self.terms.get(frozenset(), 0)

    def bits_used(self) -> set[str]:
        """The bits this coefficient reads; a test helper."""
        out: set[str] = set()
        for m in self.terms:
            out |= m
        return out

    def __eq__(self, other):
        return isinstance(other, Coef) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def spell(self, ascii: bool = False) -> str:
        """Printed with Greek bits, or with ascii as a literal that
        `parse_morphism` reads back: bits k, k2, e, e2 and '*' between
        factors."""
        sep = "*" if ascii else ""
        parts = []
        for m in sorted(self.terms, key=lambda m: (len(m), sorted(m))):
            mono = sep.join(b if ascii else _BIT_DISPLAY[b] for b in sorted(m))
            parts.append(_times(_pretty_int(self.terms[m]), mono, sep))
        return _signed_sum(parts)


def _times(c: str, x: str, sep: str) -> str:
    """The spelling of c times x, sep between them, where x is empty for a
    scalar: a coefficient +-1 is left out, and one that is a sum is
    bracketed."""
    if not x:
        return c
    if c == "1":
        return x
    if c == "-1":
        return "-" + x
    if "+" in c[1:] or "-" in c[1:]:
        c = f"({c})"
    return c + sep + x


def _signed_sum(parts: list[str]) -> str:
    """The terms joined by their signs, '+' where a term has none."""
    if not parts:
        return "0"
    return parts[0] + "".join(p if p.startswith("-") else "+" + p
                              for p in parts[1:])


def _pretty_int(c: int) -> str:
    n = abs(c)
    e = 0
    while n % 2 == 0 and n > 1:
        n //= 2
        e += 1
    if n == 1 and e >= 1:
        body = f"2^{e}" if e > 1 else "2"
        return "-" + body if c < 0 else body
    return str(c)


# --- generators and morphisms ----------------------------------------------

def _moore_exp(c: Summand) -> int | None:
    if isinstance(c, ElementaryComplex) and c.kind == "moore":
        return c.r
    return None


def _template(name: str) -> str:
    """A generator's display name before its ends' exponents fill {sr}
    and {tr}: a word's is its letters, with η for eta and ϱ for rho."""
    if name in _WORDS:
        return name.replace("eta", "η").replace("rho", "ϱ")
    return _DISPLAY.get(name, name)


def _gen_display(name: str, src: Summand, tgt: Summand) -> str:
    return _template(name).format(sr=_moore_exp(src), tr=_moore_exp(tgt))


def _by_letters(f: str, g: str) -> tuple[tuple[Coef, str], ...] | None:
    """The terms of f o g that the letters decide, or None.  The words law:
    f o g is the word f+g, or 0 when f ends in q and g starts with i.  The
    η∧1 law: η∧1 and 1∧η are η on each cell, ieta after a word that starts
    with i and etaq before one that ends in q."""
    if f in _ETA_SMASH and g in _WORDS and g.startswith("i"):
        word = "ieta" + g[1:]
    elif g in _ETA_SMASH and f in _WORDS and f.endswith("q"):
        word = f[:-1] + "etaq"
    elif f in _WORDS and g in _WORDS:
        if f.endswith("q") and g.startswith("i"):
            return ()
        word = f + g
    else:
        return None
    return ((Coef(1), word),) if word in _WORDS else None


class FormalMorphism(_FrozenRecord):
    source: Summand
    target: Summand
    terms: tuple[tuple[Coef, str], ...] = ()

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, k: int) -> "FormalMorphism":
        return FormalMorphism(self.source, self.target,
                              tuple((c.scale(k), g) for c, g in self.terms))

    def negate(self) -> "FormalMorphism":
        return self.scale(-1)

    def spell(self, ascii: bool = False) -> str:
        """Printed with display names (η, ξ_2^1, ...), or with ascii as the
        literal that `parse_morphism` reads back."""
        parts = []
        for c, g in self.terms:
            if g == "id":
                name = ""
            else:
                name = g if ascii else _gen_display(g, self.source, self.target)
            parts.append(_times(c.spell(ascii), name, "*" if ascii else ""))
        return _signed_sum(parts)

    def __str__(self) -> str:
        return self.spell()


# --- the relation table -----------------------------------------------------

class RelationTable:
    """Compositions the letters do not decide and basis rewrites, read from
    relations.txt, and generator orders, read from the hom table."""

    def __init__(self, compose_rules: dict[tuple[str, str], tuple] ):
        self.compose_rules = compose_rules

    @classmethod
    def load(cls) -> "RelationTable":
        def rule(parts, where):
            if len(parts) != 4:
                raise InputError("expected 4 fields separated by ';', "
                                 f"got {len(parts)}")
            return (parts[1], parts[2]), _parse_terms(parts[3])
        return cls(dict(_read_table(_table_path("relations.txt"), rule)))

    def order(self, gen: str, src: Summand, tgt: Summand) -> int:
        """The order of gen in [src, tgt]; 0 means no reduction applies.
        A 2-primary order is read from the hom table, under gen's display
        name (B(χ) for the identity of a Moore space), at any dimension;
        an eta-family name it does not list has order 2.  The table does
        not state the orders of iq, of a map with an odd-prime Moore end
        and of the identity of a four-cell complex."""
        # the orders p^r of the Moore ends; a sphere end adds nothing
        orders = [c.p ** c.r for c in (src, tgt) if _moore_exp(c)]
        if gen == "iq":         # q, then i
            return gcd(*orders)
        if any(o % 2 for o in orders):
            # 24 for iϱ, 2 for the rest of the eta family, else Z
            return gcd(24 if gen == "irho" else 2 if gen in _ETA_FAMILY
                       else 0, *orders)
        if gen == "id" and getattr(src, "kind", None) == "cfull":
            return 2 ** (max(src.r, src.s) + 1)
        name = _template("B" if gen == "id" and orders else gen)
        default = 2 if gen in _ETA_FAMILY else 0
        try:
            rec, env = _hom_record(src, tgt)
        except UntabulatedHom:
            return default
        with _located(rec.where):
            return next((o(env) for n, o in rec.gens if n == name), default)

    def rewrite(self, gen: str, coef: Coef, src: Summand,
                tgt: Summand) -> tuple[Coef, str]:
        """Rewrite a term into the canonical basis of [src, tgt]."""
        se, te = _moore_exp(src), _moore_exp(tgt)
        two_primary = se and te and src.p == tgt.p == 2
        if gen == "B" and not (two_primary and src.dim == tgt.dim):
            raise InputError("B maps between 2-primary Moore spaces of one "
                             f"dimension, not {src} -> {tgt}")
        if not two_primary:     # the rewrites below are 2-primary facts
            return coef, gen
        same_dim = src.dim == tgt.dim
        if same_dim and gen == "B" and se == te:
            return coef, "id"
        if same_dim and se == te == 1 and gen == "ietaq":
            return coef.scale(2), "id"
        if src.dim == tgt.dim + 1 and gen == "ietaetaq":
            if se > 1 and te == 1:
                return coef.scale(2), "xiM"
            if se == 1 and te > 1:
                return coef.scale(2), "etamix"
        return coef, gen

    def normalize(self, m: FormalMorphism) -> FormalMorphism:
        acc: dict[str, Coef] = {}
        for coef, gen in m.terms:
            c2, g2 = self.rewrite(gen, coef, m.source, m.target)
            acc[g2] = acc.get(g2, Coef(0)) + c2
        out = []
        for gen in sorted(acc):
            c = acc[gen].reduce_mod(self.order(gen, m.source, m.target))
            if not c.is_zero():
                out.append((c, gen))
        return FormalMorphism(m.source, m.target, tuple(out))

    def compose(self, f: FormalMorphism, g: FormalMorphism) -> FormalMorphism:
        """f o g (so target(g) = source(f)), bilinear over the table, and
        over the letters (`_by_letters`) for the pairs it does not list."""
        if g.target != f.source:
            raise InputError(f"cannot compose: {g.target} != {f.source}")
        terms: list[tuple[Coef, str]] = []
        for cf, gf in f.terms:
            for cg, gg in g.terms:
                if "id" in (gf, gg):
                    rule = ((Coef(1), gg if gf == "id" else gf),)
                else:
                    rule = self.compose_rules.get((gf, gg),
                                                  _by_letters(gf, gg))
                if rule is None:
                    raise UnknownComposition(f"no rule for {gf!r} o {gg!r}")
                terms += [(cf * cg * cr, gr) for cr, gr in rule]
        return self.normalize(FormalMorphism(g.source, f.target, tuple(terms)))


@lru_cache(maxsize=1)
def default_table() -> RelationTable:
    return RelationTable.load()


# --- morphism literals ------------------------------------------------------

def _vadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for g, c in b.items():
        out[g] = out.get(g, Coef(0)) + c
    return out


def _vmul(a: dict, b: dict) -> dict:
    if list(a) == ["id"]:
        return {g: a["id"] * c for g, c in b.items()}
    if list(b) == ["id"]:
        return {g: c * b["id"] for g, c in a.items()}
    raise InputError("cannot multiply two generators")


def _vint(v: dict) -> int:
    n = v["id"].const_value() if list(v) == ["id"] else None
    if n is None:
        raise InputError("a power in a morphism literal takes integers")
    return n


# a literal reads as {generator: Coef}, "id" holding the scalar part
_LITERAL = _Values(
    "morphism literal", frozenset(),
    num=lambda n: {"id": Coef(n)},
    name=lambda t: {"id": Coef.bit(t)} if t in BITS else {t: Coef(1)},
    call=None, add=_vadd, mul=_vmul,
    neg=lambda v: {g: -c for g, c in v.items()},
    pow=lambda a, b: {"id": Coef(power(_vint(a), _vint(b)))})


def _parse_terms(text: str) -> tuple[tuple[Coef, str], ...]:
    """Parse a morphism literal into (coefficient, generator) terms."""
    value = _read_expression(text, _LITERAL)
    return tuple((c, g) for g, c in value.items() if not c.is_zero())


def parse_morphism(text: str, source: Summand,
                   target: Summand) -> FormalMorphism:
    m = FormalMorphism(source, target, _parse_terms(text))
    for _, gen in m.terms:      # a name that spells a Moore end's exponent
        for key, end in (("{sr}", source), ("{tr}", target)):
            if key in _template(gen) and not _moore_exp(end):
                raise InputError(f"{gen!r} needs a Moore space, not {end}")
    return default_table().normalize(m)


# --- matrices and transformation steps --------------------------------------

class MorphismMatrix(_FrozenRecord):
    """Grid of formal morphisms: entry (i, j) maps cols[j] to rows[i].

    Every entry is normalised: `build` normalises the entries it is given,
    and each move normalises the entries it changes."""

    rows: tuple[Summand, ...]
    cols: tuple[Summand, ...]
    entries: tuple[tuple[FormalMorphism, ...], ...]

    @classmethod
    def build(cls, rows, cols, entry_map) -> "MorphismMatrix":
        table = default_table()
        rows, cols = tuple(rows), tuple(cols)
        grid = []
        for i, r in enumerate(rows):
            line = []
            for j, c in enumerate(cols):
                m = entry_map.get((i, j))
                if m is None:
                    line.append(FormalMorphism(c, r))
                elif isinstance(m, str):
                    line.append(parse_morphism(m, c, r))
                else:
                    line.append(table.normalize(m))
            grid.append(tuple(line))
        return cls(rows, cols, tuple(grid))

    def entry(self, i: int, j: int) -> FormalMorphism:
        return self.entries[i][j]


class NegateRow(_FrozenRecord):
    n: int                  # 1-based, as in the printed grids


class NegateCol(_FrozenRecord):
    n: int


class ColCompose(_FrozenRecord):
    m: int
    f: FormalMorphism | str
    n: int


class RowCompose(_FrozenRecord):
    g: FormalMorphism | str
    m: int
    n: int


class ScaleAddRow(_FrozenRecord):
    k: int
    m: int
    n: int


class ScaleAddCol(_FrozenRecord):
    k: int
    m: int
    n: int


TransformStep = (NegateRow, NegateCol, ColCompose, RowCompose,
                 ScaleAddRow, ScaleAddCol)


def _coerce_morphism(f, source, target, table) -> FormalMorphism:
    if isinstance(f, str):
        return parse_morphism(f, source, target)
    if f.source != source or f.target != target:
        raise InputError(f"morphism {f} does not have type {source} -> {target}")
    return table.normalize(f)


def _index(i, size: int, what: str) -> int:
    """0-based position of a 1-based step index, checked against the grid."""
    if not isinstance(i, int) or not 1 <= i <= size:
        raise InputError(f"{what} index {i!r} is outside 1..{size}")
    return i - 1


# --- the moves: written once on lines, the rows of a grid or its columns ---

def _transpose(grid, width: int) -> list[list[FormalMorphism]]:
    return [[line[x] for line in grid] for x in range(width)]


def _negate(lines, n: int, table: RelationTable) -> None:
    """line n := -(line n)."""
    lines[n] = [table.normalize(e.negate()) for e in lines[n]]


def _add_line(lines, m: int, n: int, image, table: RelationTable) -> None:
    """line n += image(line m), entry by entry: a scale-add when image
    scales, a compose-add when it composes."""
    lines[n] = [table.normalize(FormalMorphism(e.source, e.target,
                                               image(a).terms + e.terms))
                for a, e in zip(lines[m], lines[n])]


def apply_step(M: MorphismMatrix, step) -> MorphismMatrix:
    """One elementary transformation; invertible by construction.  A row
    step moves rows and a column step the columns, by the same moves; only
    the side of a composite differs: g o row, column o f."""
    if not isinstance(step, TransformStep):
        raise TypeError(f"unknown step {step!r}")
    table = default_table()
    on_rows = isinstance(step, (NegateRow, RowCompose, ScaleAddRow))
    heads, what = (M.rows, "row") if on_rows else (M.cols, "column")
    lines = list(M.entries) if on_rows else _transpose(M.entries, len(M.cols))
    try:
        if isinstance(step, (NegateRow, NegateCol)):
            _negate(lines, _index(step.n, len(heads), what), table)
        else:
            m, n = (_index(i, len(heads), what) for i in (step.m, step.n))
            if m == n:
                raise InputError(f"{what} indices must differ")
            if isinstance(step, (ScaleAddRow, ScaleAddCol)):
                if heads[m] != heads[n]:
                    raise InputError(f"integer {what} moves need equal "
                                     f"{what} summands")
                _add_line(lines, m, n, lambda e: e.scale(step.k), table)
            elif on_rows:
                g = _coerce_morphism(step.g, heads[m], heads[n], table)
                _add_line(lines, m, n, lambda e: table.compose(g, e), table)
            else:
                f = _coerce_morphism(step.f, heads[n], heads[m], table)
                _add_line(lines, m, n, lambda e: table.compose(e, f), table)
    except UnknownComposition as exc:
        raise UnknownComposition(f"{exc} while applying {step}") from None
    grid = lines if on_rows else _transpose(lines, len(M.rows))
    return MorphismMatrix(M.rows, M.cols, tuple(map(tuple, grid)))


def inverse_step(step):
    """The step that undoes `step`: the same move with the opposite sign."""
    if isinstance(step, (NegateRow, NegateCol)):
        return step
    if isinstance(step, (ScaleAddRow, ScaleAddCol)):
        return type(step)(-step.k, step.m, step.n)

    def negated(h):
        return "-(" + h + ")" if isinstance(h, str) else h.negate()
    if isinstance(step, RowCompose):
        return RowCompose(negated(step.g), step.m, step.n)
    return ColCompose(step.m, negated(step.f), step.n)


def run_script(M: MorphismMatrix, steps) -> MorphismMatrix:
    for idx, step in enumerate(steps):
        try:
            M = apply_step(M, step)
        except ChangError as exc:
            exc.args = (f"step {idx}: {exc}",)
            raise
    return M


# --- the mapping cone as a cell complex ------------------------------------

# generators whose odd multiples attach the source's top cell to the
# target's bottom cell by eta
_ETA_EDGES = ("eta", "ieta", "etaq", "ietaq")


def _elementary(c: Summand) -> ElementaryComplex:
    """c, or an InputError when it is a smash atom, for which the calculus
    has no cell data."""
    if isinstance(c, SmashAtom):
        raise InputError("matrix summands must be elementary pieces")
    return c


def _summand_chain(c: Summand):
    """(cell dims, boundary dict (from,to)->int) for one wedge summand."""
    c = _elementary(c)
    return c.cells(), c.boundary()


def _gen_chain(gen: str, src: Summand, tgt: Summand):
    """Cellular chain matrix of a generator between elementary pieces, as
    {(src_cell, tgt_cell): int}."""
    sc, tc = src.cells(), tgt.cells()
    if gen == "id":
        if type(src) is not type(tgt) or sc != tc:
            raise InputError(f"no identity chain map {src} -> {tgt}")
        return {(i, i): 1 for i in range(len(sc))}
    if gen == "B":
        s, t = src.r, tgt.r
        return {(0, 0): 2 ** max(t - s, 0), (1, 1): 2 ** max(s - t, 0)}
    if gen == "i":        # bottom-cell inclusion of a sphere
        return {(0, 0): 1}
    # q is the top-cell quotient onto a sphere; iq goes on through that
    # sphere into the next bottom cell
    if gen in ("q", "iq"):
        return {(len(sc) - 1, 0): 1}
    raise InputError(f"no chain data for generator {gen!r}")


class _Cone(_FrozenRecord):
    """A mapping cone as a cell complex: the dimensions of the rows' cells,
    then of the columns' cells one degree up; the integral boundary
    {(from, to): degree}; the eta pairs (bottom, top); and whether every
    term of the map is one of the two."""

    dims: tuple[int, ...]
    boundary: dict[tuple[int, int], int]
    eta: frozenset[tuple[int, int]]
    whole: bool


def _cone(rows, cols, grid) -> _Cone:
    """The cone of the map whose entry grid[i][j] maps cols[j] to rows[i].
    Raises InputError when a term's chain map is unknown or ill-typed."""
    dims: list[int] = []
    first: list[int] = []               # each piece's first cell
    boundary: dict[tuple[int, int], int] = {}
    eta: set[tuple[int, int]] = set()
    for pieces, shift in ((rows, 0), (cols, 1)):
        for piece in pieces:
            cells, bnd = _summand_chain(piece)
            n = len(dims)
            first.append(n)
            dims += [d + shift for d in cells]
            for (a, b), v in bnd.items():
                boundary[(n + a, n + b)] = -v if shift else v
            eta.update((n + a, n + b) for a, b in piece.family.eta)
    whole = True
    for i, line in enumerate(grid):
        for j, entry in enumerate(line):
            r0, c0 = first[i], first[len(rows) + j]
            for coef, gen in entry.terms:
                c = coef.const_value()
                if gen in _ETA_EDGES and c is not None and c % 2:
                    eta ^= {(r0, c0 + len(cols[j].cells()) - 1)}
                    continue
                if gen in _ETA_FAMILY or gen == "rho":
                    whole = False       # no integral chain data
                    continue
                cmat = _gen_chain(gen, cols[j], rows[i])
                if c is None:
                    raise InputError(
                        "cannot take cone homology with undetermined bits on "
                        f"a degree-carrying generator in entry ({i+1},{j+1})")
                for (a, b), v in cmat.items():
                    key = (c0 + a, r0 + b)
                    if dims[key[0]] != dims[key[1]] + 1:
                        raise InputError(f"{gen!r} from {cols[j]} to {rows[i]}"
                                         " does not lower a cell by one degree")
                    boundary[key] = boundary.get(key, 0) + c * v
    return _Cone(tuple(dims), {e: v for e, v in boundary.items() if v},
                 frozenset(eta), whole)


def homology_of_cone(M: MorphismMatrix) -> GradedAbelianGroup:
    """Homology of the mapping cone, from its cellular chain complex."""
    return _cone_homology(_cone(M.rows, M.cols, M.entries))


def _cone_homology(cone: _Cone) -> GradedAbelianGroup:
    """The homology of a cone's chain complex: one Smith normal form per
    degree."""
    by_dim: dict[int, list[int]] = {}
    for n, d in enumerate(cone.dims):
        by_dim.setdefault(d, []).append(n)
    # the diagonal of the boundary out of each degree
    diag = {d: smith_normal_form([[cone.boundary.get((c, r), 0) for c in cells]
                                  for r in by_dim.get(d - 1, [])])
            for d, cells in by_dim.items()}
    groups: dict[int, list[int]] = {}
    for d in sorted(by_dim):
        into = diag.get(d + 1, [])
        free = len(by_dim[d]) - len(diag[d]) - len(into)
        factors = [0] * free + [v for v in into if v > 1]
        if factors:
            groups[d] = factors
    return GradedAbelianGroup(groups)


def smith_normal_form(mat) -> list[int]:
    """Diagonal of the Smith normal form of a small integer matrix."""
    m = [row[:] for row in mat]
    if not m or not m[0]:
        return []
    rows, cols = len(m), len(m[0])
    diag = []
    r = c = 0
    while r < rows and c < cols:
        # find a pivot
        pi, pj = -1, -1
        best = None
        for i in range(r, rows):
            for j in range(c, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pi, pj = v, i, j
        if best is None:
            break
        m[r], m[pi] = m[pi], m[r]
        for row in m:
            row[c], row[pj] = row[pj], row[c]
        while True:
            # clear column c and row r
            done = True
            for i in range(r + 1, rows):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    for j in range(c, cols):
                        m[i][j] -= q * m[r][j]
                    if m[i][c]:
                        m[r], m[i] = m[i], m[r]
                        done = False
            for j in range(c + 1, cols):
                if m[r][j]:
                    q = m[r][j] // m[r][c]
                    for i in range(r, rows):
                        m[i][j] -= q * m[i][c]
                    if m[r][j]:
                        for row in m:
                            row[c], row[j] = row[j], row[c]
                        done = False
            if done:
                break
        diag.append(abs(m[r][c]))
        r += 1
        c += 1
    # enforce divisibility
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if a and b and b % a:
                g = gcd(a, b)
                diag[i], diag[j] = g, a * b // g
    return sorted(diag)


# --- splitting the cone ------------------------------------------------------

class SplitConeReport(_FrozenRecord):
    pieces: WedgeComplex
    residual: tuple[MorphismMatrix, ...]
    log: tuple[str, ...]

    @property
    def irreducible(self) -> bool:
        return bool(self.residual)


def _v2(n: int) -> int:
    """The exponent of 2 in n (0 for n = 0)."""
    return (n & -n).bit_length() - 1 if n else 0


def _const_of(entry: FormalMorphism, gen: str) -> int | None:
    """The integer c when the entry is c times gen, else None."""
    if len(entry.terms) != 1 or entry.terms[0][1] != gen:
        return None
    return entry.terms[0][0].const_value()


def _exponents(edges, boundary) -> dict[str, int] | None:
    """The parameters that give each edge the degree its spec
    "base^exponent" names, when every degree is +-2^e, e >= 1; else None."""
    params: dict[str, int] = {}
    for edge, spec in edges.items():
        e = _v2(boundary[edge])
        if e < 1 or abs(boundary[edge]) != 1 << e:
            return None
        for name, value in zip(spec.split("^"), (2, e)):
            if (int(name) if name.isdigit()
                    else params.setdefault(name, value)) != value:
                return None
    return params


def _family_piece(cone: _Cone) -> ElementaryComplex | None:
    """The piece whose FAMILIES entry has the cone's cell structure: the
    same cell offsets, boundary edges and eta pairs under some reorder of
    the cells that keeps dimensions."""
    for kind, fam in FAMILIES.items():
        if not fam.cells or len(fam.cells) != len(cone.dims):
            continue                    # a point has no cells to match
        anchor = min(cone.dims) - min(off for off, _ in fam.cells)
        for at in permutations(range(len(cone.dims))):   # family cell -> cell
            if any(cone.dims[n] != anchor + off
                   for n, (off, _) in zip(at, fam.cells)):
                continue
            edges = {(at[a], at[b]): spec
                     for (a, b), spec in fam.boundary.items()}
            if edges.keys() != cone.boundary.keys() or \
                    {(at[a], at[b]) for a, b in fam.eta} != cone.eta:
                continue
            params = _exponents(edges, cone.boundary)
            if params is not None:
                return piece(kind, anchor, **params)
    return None


def _special_cone(r: Summand, c: Summand,
                  e: FormalMorphism) -> list[Summand] | None:
    """Name the cone of a 1x1 block that spans three degrees and carries eta
    that its integral chains do not show: c.id on a 2-primary Moore space,
    or the atom M(2^r,3)^Ceta(5)."""
    name = e.terms[0][1] if len(e.terms) == 1 else None
    cv = _const_of(e, name)
    if cv is None:
        return None
    if name == "id" and r == c and r.kind == "moore" and r.p == 2:
        if r.r == 1 and cv % 4 == 2:
            return [cfull(1, r.dim + 2, 1)]
        a = _v2(cv)
        if 0 < a < r.r:
            return [moore(2, a, r.dim), moore(2, a, r.dim + 1)]
        return None
    if cv % 2 == 0:
        return None
    if name in ("eta_w1", "1_w_eta") or (name == "lambda11" and r.r == 1):
        if c.kind == r.kind == "moore" and c.p == r.p == 2 and c.r == r.r \
                and c.dim == r.dim + 1 and r.dim >= 6:
            return [SmashAtom(moore(2, r.r, 3), ceta(5), r.dim - 6)]
    return None


def _recognize_block(rows, cols, grid) -> list[Summand] | None:
    """Name the cone of one connected block.  A cone with integral chains
    and no eta pair is the wedge its homology names, S(k) for each Z and
    M(p^e,k) for each Z/p^e in H_k, when its cells span fewer than 2p - 2
    degrees, p the least prime of its Moore pieces or 2 (the first odd
    p-primary stem is 2p - 3).  Any other cone is named by `_special_cone`,
    or as the piece whose FAMILIES entry has its cell structure."""
    if len(rows) == len(cols) == 1:
        named = _special_cone(rows[0], cols[0], grid[0][0])
        if named is not None:
            return named
    try:
        cone = _cone(rows, cols, grid)
    except InputError:          # the integral boundary is unknown or ill-typed
        return None
    p = min((c.p for c in rows + cols if c.kind == "moore"), default=2)
    if cone.whole and not cone.eta and \
            max(cone.dims) - min(cone.dims) < 2 * p - 2:
        h = _cone_homology(cone)
        return [moore(*prime_powers(q)[0], k) if q else sphere(k)
                for k in h.degrees() for q in h[k]]
    piece = _family_piece(cone) if cone.whole else None
    return None if piece is None else [piece]


def _unit(rows, cols, grid, table: RelationTable):
    """(i, j, u^-1) for the first entry that is a unit: u times an identity
    of order o with gcd(u, o) = 1, so u = +-1 when o is 0; or None."""
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            u = _const_of(grid[i][j], "id") if r == c else None
            if u is not None and gcd(u, o := table.order("id", c, r)) == 1:
                return i, j, u if u in (1, -1) else pow(u, -1, o)
    return None


def split_cone(M: MorphismMatrix) -> SplitConeReport:
    """Greedy reduction of the cone: cancel units, split zero rows/columns,
    and name each connected block whose cone is a known piece."""
    table = default_table()
    rows = [_elementary(r) for r in M.rows]
    cols = [_elementary(c) for c in M.cols]
    grid = [list(line) for line in M.entries]
    log: list[str] = []
    pieces: list[Summand] = []

    # unit cancellation: the row moves row k += (-M[k][j] u^-1) o row i
    # clear the unit's column, and the unit's row and column then bound a
    # contractible cone
    while (unit := _unit(rows, cols, grid, table)) is not None:
        i, j, inv = unit
        log.append(f"cancel unit at ({i+1},{j+1}) on {rows[i]}")
        for k in range(len(rows)):
            if k != i:
                g = grid[k][j].scale(-inv)
                _add_line(grid, i, k, lambda e: table.compose(g, e), table)
        del rows[i], cols[j], grid[i]
        for line in grid:
            del line[j]

    # zero rows and columns split off (null attaching map)
    keep_rows = []
    for i, r in enumerate(rows):
        if all(grid[i][j].is_zero() for j in range(len(cols))):
            pieces.append(r)
            log.append(f"row {r} has zero attaching map; splits off")
        else:
            keep_rows.append(i)
    keep_cols = []
    for j, c in enumerate(cols):
        if all(grid[i][j].is_zero() for i in keep_rows):
            pieces.extend(suspend(wedge(c), 1).summands)
            log.append(f"column {c} maps by zero; its suspension splits off")
        else:
            keep_cols.append(j)
    rows = [rows[i] for i in keep_rows]
    cols = [cols[j] for j in keep_cols]
    grid = [[grid[i][j] for j in keep_cols] for i in keep_rows]

    # connected components of the entry graph, each grown from its first row
    residual: list[MorphismMatrix] = []
    left = list(range(len(rows)))
    while left:
        ri, grown = [], [left[0]]
        while ri != grown:
            ri = grown
            ci = [j for j in range(len(cols))
                  if any(not grid[i][j].is_zero() for i in ri)]
            grown = [i for i in left
                     if any(not grid[i][j].is_zero() for j in ci)]
        left = [i for i in left if i not in ri]
        block_rows = tuple(rows[i] for i in ri)
        block_cols = tuple(cols[j] for j in ci)
        block = tuple(tuple(grid[i][j] for j in ci) for i in ri)
        named = _recognize_block(block_rows, block_cols, block)
        if named is not None:
            pieces.extend(named)
            log.append("block on rows " + "/".join(map(str, block_rows))
                       + " recognized as " + str(wedge(*named)))
        else:
            residual.append(MorphismMatrix(block_rows, block_cols, block))
            log.append("irreducible residual block on rows "
                       + "/".join(map(str, block_rows)))
    return SplitConeReport(wedge(*pieces), tuple(residual), tuple(log))


# --- file formats and rendering ----------------------------------------------

def _field(doc, name: str, where: str, kind=object):
    """doc[name], or an InputError naming the missing or mistyped field."""
    if not isinstance(doc, dict) or name not in doc:
        raise InputError(f"{where} has no {name!r} field")
    return _typed(doc[name], kind, f"{where} field {name!r}")


def _typed(value, kind, what: str):
    """value, or an InputError when it is not of the JSON type kind."""
    if not isinstance(value, kind):
        raise InputError(f"{what} is not a {_JSON_TYPES[kind]}: {value!r}")
    return value


_JSON_TYPES = {list: "list", str: "string"}


def _document(doc):
    """doc, parsed first when it is JSON text."""
    if not isinstance(doc, str):
        return doc
    try:
        return json.loads(doc)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _pieces(doc, name: str) -> list[ElementaryComplex]:
    from .parser import parse_summand
    return [parse_summand(_typed(t, str, f"an item of matrix field {name!r}"))
            for t in _field(doc, name, "matrix", list)]


def matrix_from_json(doc) -> MorphismMatrix:
    doc = _document(doc)
    rows, cols = _pieces(doc, "rows"), _pieces(doc, "cols")
    default_table()     # read first: a malformed table is no entry's error
    entries = {}
    for entry in _typed(doc.get("entries", []), list, "matrix field 'entries'"):
        try:
            i, j, lit = entry
        except (TypeError, ValueError) as exc:      # not three items
            raise InputError(f"matrix entry {entry!r}: {exc}") from None
        try:
            pos = _index(i, len(rows), "row"), _index(j, len(cols), "column")
            if pos in entries:
                raise InputError(f"position ({i}, {j}) already has an entry")
            entries[pos] = parse_morphism(_typed(lit, str, "morphism"),
                                          cols[pos[1]], rows[pos[0]])
        except InputError as exc:
            exc.args = (f"matrix entry {entry!r}: {exc}",)
            raise
    return MorphismMatrix.build(rows, cols, entries)


def matrix_to_json(M: MorphismMatrix) -> dict:
    return {"rows": [str(r) for r in M.rows],
            "cols": [str(c) for c in M.cols],
            "entries": [[i + 1, j + 1, M.entry(i, j).spell(ascii=True)]
                        for i in range(len(M.rows))
                        for j in range(len(M.cols))
                        if not M.entry(i, j).is_zero()]}


def steps_from_json(doc) -> list:
    """Steps from their records; `kind` names the step class, and the
    fields are read in the order the class declares them."""
    out = []
    for pos, rec in enumerate(_typed(_document(doc), list, "a script")):
        where = f"step {pos}"
        kind = _field(rec, "kind", where)
        cls = next((c for c in TransformStep if c.__name__ == kind), None)
        if cls is None:
            raise InputError(f"unknown step kind {kind!r}")
        out.append(cls(*(_step_field(rec, name, where)
                         for name in cls.__match_args__)))
    return out


def _step_field(rec, name: str, where: str):
    """A step's field: a morphism literal f or g is a string, k an integer."""
    if name == "k":
        return integer(_field(rec, name, where))
    return _field(rec, name, where, str if name in ("f", "g") else object)


def render_matrix(M: MorphismMatrix) -> str:
    col_heads = [str(c) for c in M.cols]
    row_heads = [str(r) for r in M.rows]
    body = [[str(M.entry(i, j)) for j in range(len(M.cols))]
            for i in range(len(M.rows))]
    rw = max([len(h) for h in row_heads] + [0])
    widths = [max([len(col_heads[j])] + [len(body[i][j])
                                         for i in range(len(M.rows))])
              for j in range(len(M.cols))]
    lines = [" " * (rw + 3) + "  ".join(col_heads[j].ljust(widths[j])
                                        for j in range(len(M.cols)))]
    for i in range(len(M.rows)):
        lines.append(row_heads[i].ljust(rw) + " | "
                     + "  ".join(body[i][j].ljust(widths[j])
                                 for j in range(len(M.cols))))
    return "\n".join(line.rstrip() for line in lines)
