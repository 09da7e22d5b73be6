"""Formal morphism matrices between wedges and their reduction calculus.

Entries are integer-polynomial combinations of named generators, with
undetermined bits k, k', e, e' (square = itself) as first-class
coefficients; the elementary transformations are exactly the invertible
row/column moves, so the mapping cone class is preserved at every step.
Each move (negate, integer scale-add, compose-add) is written once, on the
lines of a grid: its rows, or the rows of its transpose.  `apply_step` runs
the six step kinds through them; `split_cone` cancels a unit with the same
compose-add move on rows, then drops the unit's row and column.
Composition is resolved through a deliberately partial relation table:
anything it does not know raises UnknownComposition instead of guessing.
"""

from __future__ import annotations

import json
import re
from math import gcd
from dataclasses import dataclass, fields, replace
from functools import lru_cache

from .arith import MAX_DIGITS, integer, power, prime_powers
from .complexes import (ElementaryComplex, SmashAtom, Summand,
                        WedgeComplex, cbot, ceta, cfull, ctop, moore,
                        sphere, suspend, wedge)
from .errors import ChangError, InputError, UnknownComposition
from .homgroups import _read_table, _table_path
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

_DISPLAY = {"eta": "η", "ieta": "iη", "etaq": "ηq",
            "ietaq": "iηq", "ietaetaq": "iηηq",
            "etaeta": "ηη", "ietaeta": "iηη",
            "etaetaq": "ηηq", "B": "B(χ)",
            "eta_w1": "η∧1", "1_w_eta": "1∧η",
            "lambda11": "λ11", "rho": "ϱ", "irho": "iϱ",
            "i": "i", "q": "q"}


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

    def evaluate(self, values: dict[str, int]) -> int:
        total = 0
        for m, c in self.terms.items():
            if all(values.get(b, 0) for b in m):
                total += c
        return total

    def is_zero(self) -> bool:
        return not self.terms

    def const_value(self) -> int | None:
        """The integer value, if no bits occur."""
        if any(m for m in self.terms):
            return None
        return self.terms.get(frozenset(), 0)

    def bits_used(self) -> set[str]:
        out: set[str] = set()
        for m in self.terms:
            out |= m
        return out

    def __eq__(self, other):
        return isinstance(other, Coef) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (len(m), sorted(m))):
            c = self.terms[m]
            mono = "".join(_BIT_DISPLAY[b] for b in sorted(m))
            if not mono:
                parts.append(_pretty_int(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append(f"{_pretty_int(c)}{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def literal(self) -> str:
        """Parseable ASCII spelling (bits as k, k2, e, e2)."""
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (len(m), sorted(m))):
            c = self.terms[m]
            mono = "*".join(sorted(m))
            if not mono:
                parts.append(str(c))
            else:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
        return " + ".join(parts).replace("+ -", "- ")


def _pretty_int(c: int) -> str:
    a, n = abs(c), abs(c)
    e = 0
    while n % 2 == 0 and n > 1:
        n //= 2
        e += 1
    if n == 1 and e >= 1:
        body = f"2^{e}" if e > 1 else "2"
        return "-" + body if c < 0 else body
    return str(c)


_ONE = Coef(1)


# --- generators and morphisms ----------------------------------------------

def _moore_exp(c: Summand) -> int | None:
    if isinstance(c, ElementaryComplex) and c.kind == "moore":
        return c.r
    return None


def _gen_display(name: str, src: Summand, tgt: Summand) -> str:
    if name in _DISPLAY:
        return _DISPLAY[name]
    se, te = _moore_exp(src), _moore_exp(tgt)
    if name == "etamix":
        return f"η_{te}^{se}"
    if name == "xiM":
        return f"ξ_{te}^{se}"
    if name == "xi":
        return f"ξ_{te}"
    if name == "etaS":
        return f"η^{se}"
    if name == "rhoM":
        return f"ρ_{te}"
    return name


@dataclass(frozen=True)
class FormalMorphism:
    source: Summand
    target: Summand
    terms: tuple[tuple[Coef, str], ...] = ()

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate_bits(self, values: dict[str, int]) -> "FormalMorphism":
        return FormalMorphism(self.source, self.target,
                              tuple((Coef(c.evaluate(values)), g)
                                    for c, g in self.terms))

    def scale(self, k: int) -> "FormalMorphism":
        return FormalMorphism(self.source, self.target,
                              tuple((c.scale(k), g) for c, g in self.terms))

    def negate(self) -> "FormalMorphism":
        return self.scale(-1)

    def literal(self) -> str:
        """Parseable spelling with semantic generator names."""
        if not self.terms:
            return "0"
        parts = []
        for c, g in self.terms:
            if g == "id":
                parts.append(c.literal() if len(c.terms) == 1
                             else f"({c.literal()})")
            elif c == _ONE:
                parts.append(g)
            else:
                parts.append(f"({c.literal()})*{g}")
        return " + ".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for c, g in self.terms:
            cs = c.render()
            if g == "id":
                parts.append(cs)
            elif cs == "1":
                parts.append(_gen_display(g, self.source, self.target))
            elif cs == "-1":
                parts.append("-" + _gen_display(g, self.source, self.target))
            else:
                if "+" in cs[1:] or "-" in cs[1:]:
                    cs = f"({cs})"
                parts.append(cs + _gen_display(g, self.source, self.target))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


# --- the relation table -----------------------------------------------------

class RelationTable:
    """Composition fragment, generator orders and basis rewrites."""

    def __init__(self, compose_rules: dict[tuple[str, str], tuple] ):
        self.compose_rules = compose_rules

    @classmethod
    def load(cls, path: str | None = None) -> "RelationTable":
        def rule(parts):
            if len(parts) != 4:
                raise InputError("expected 4 fields separated by ';', "
                                 f"got {len(parts)}")
            return (parts[1], parts[2]), _parse_terms(parts[3])
        return cls(dict(_read_table(path or _table_path("relations.txt"),
                                    rule)))

    def evaluate_bits(self, values: dict[str, int]) -> "RelationTable":
        """The table with the undetermined bits pinned to concrete values."""
        rules = {}
        for key, terms in self.compose_rules.items():
            rules[key] = tuple((Coef(c.evaluate(values)), g)
                               for c, g in terms)
        return RelationTable(rules)

    # generator order in [src, tgt]; 0 means no reduction applies
    def order(self, gen: str, src: Summand, tgt: Summand) -> int:
        se, te = _moore_exp(src), _moore_exp(tgt)
        if gen == "id":
            if isinstance(src, ElementaryComplex):
                if src.kind == "moore":
                    if src.p != 2:
                        return src.p ** src.r
                    return 4 if src.r == 1 else 2 ** src.r
                if src.kind == "cfull":
                    return 2 ** (max(src.r, src.s) + 1)
            return 0
        if gen == "B":
            if se == te == 1:
                return 4
            return 2 ** min(se, te)
        if gen == "rho":
            return 24
        if gen == "irho":
            return 4 if (te or 1) > 1 else 2
        if gen == "etamix":
            return 4 if se == 1 and (te or 0) > 1 else 2
        if gen == "xiM":
            return 4 if te == 1 and (se or 0) > 1 else 2
        if gen == "etaS":
            return 4 if se == 1 else 2
        if gen == "xi":
            return 4 if te == 1 else 2
        if gen == "iq":
            return 2 ** min(se or 1, te or 1)
        if gen in _ETA_FAMILY:
            return 2
        return 0

    def rewrite(self, gen: str, coef: Coef, src: Summand, tgt: Summand):
        """Rewrite a term into the canonical basis of [src, tgt]."""
        se, te = _moore_exp(src), _moore_exp(tgt)
        if se is None or te is None:
            return [(coef, gen)]
        same_dim = src.dim == tgt.dim
        if same_dim and gen == "B" and se == te:
            return [(coef, "id")]
        if same_dim and se == te == 1 and gen == "ietaq":
            return [(coef.scale(2), "id")]
        if src.dim == tgt.dim + 1 and gen == "ietaetaq":
            if se > 1 and te == 1:
                return [(coef.scale(2), "xiM")]
            if se == 1 and te > 1:
                return [(coef.scale(2), "etamix")]
        return [(coef, gen)]

    def normalize(self, m: FormalMorphism) -> FormalMorphism:
        acc: dict[str, Coef] = {}
        for coef, gen in m.terms:
            for c2, g2 in self.rewrite(gen, coef, m.source, m.target):
                acc[g2] = acc.get(g2, Coef(0)) + c2
        out = []
        for gen in sorted(acc):
            c = acc[gen].reduce_mod(self.order(gen, m.source, m.target))
            if not c.is_zero():
                out.append((c, gen))
        return FormalMorphism(m.source, m.target, tuple(out))

    def compose_gens(self, g: str, f: str) -> tuple:
        """Terms of g o f (names only; identity handled by the caller)."""
        if (g, f) in self.compose_rules:
            return self.compose_rules[(g, f)]
        raise UnknownComposition(f"no rule for {g!r} o {f!r}")

    def compose(self, f: FormalMorphism, g: FormalMorphism) -> FormalMorphism:
        """f o g (so target(g) = source(f)), bilinear over the table."""
        if g.target != f.source:
            raise InputError(f"cannot compose: {g.target} != {f.source}")
        terms: list[tuple[Coef, str]] = []
        for cf, gf in f.terms:
            for cg, gg in g.terms:
                c = cf * cg
                if gf == "id":
                    terms.append((c, gg))
                elif gg == "id":
                    terms.append((c, gf))
                else:
                    for cr, gr in self.compose_gens(gf, gg):
                        terms.append((c * cr, gr))
        return self.normalize(FormalMorphism(g.source, f.target, tuple(terms)))


@lru_cache(maxsize=1)
def default_table() -> RelationTable:
    return RelationTable.load()


# --- morphism literals ------------------------------------------------------

_LIT_TOKEN = re.compile(r"\s*([A-Za-z0-9_']+|\^|\*|\+|\-|\(|\))")


def _parse_terms(text: str) -> tuple[tuple[Coef, str], ...]:
    """Parse a morphism literal into (coefficient, generator) terms."""
    text = text.strip()
    if text == "0":
        return ()
    toks, i = [], 0
    while i < len(text):
        m = _LIT_TOKEN.match(text, i)
        if not m:
            raise InputError(f"bad morphism literal {text!r} at offset {i}")
        toks.append(m.group(1))
        i = m.end()

    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take():
        t = peek()
        pos[0] += 1
        return t

    # values are dicts gen -> Coef ("id" holds the scalar part)
    def vadd(a, b):
        out = dict(a)
        for g, c in b.items():
            out[g] = out.get(g, Coef(0)) + c
        return out

    def vmul(a, b):
        if list(a) == ["id"]:
            return {g: a["id"] * c for g, c in b.items()}
        if list(b) == ["id"]:
            return {g: c * b["id"] for g, c in a.items()}
        raise InputError(f"cannot multiply two generators in {text!r}")

    def expr():
        v = term()
        while peek() in ("+", "-"):
            if take() == "+":
                v = vadd(v, term())
            else:
                v = vadd(v, vmul({"id": Coef(-1)}, term()))
        return v

    def term():
        v = factor()
        while peek() == "*":
            take()
            v = vmul(v, factor())
        return v

    def number(t):
        if t is None or not t.isdigit():
            raise InputError(f"bad integer in morphism literal {text!r}")
        return integer(t)

    def factor():
        t = peek()
        if t == "-":
            take()
            return vmul({"id": Coef(-1)}, factor())
        return atom()

    def atom():
        t = take()
        if t is None:
            raise InputError(f"unexpected end of literal {text!r}")
        if t == "(":
            v = expr()
            if take() != ")":
                raise InputError(f"missing ')' in {text!r}")
            return v
        if t.isdigit():
            n = number(t)
            if peek() == "^":
                take()
                n = power(n, number(take()))
            return {"id": Coef(n)}
        if t in BITS:
            return {"id": Coef.bit(t)}
        return {t: _ONE}

    value = expr()
    if pos[0] != len(toks):
        raise InputError(f"trailing input in morphism literal {text!r}")
    return tuple((c, g) for g, c in value.items() if not c.is_zero())


def parse_morphism(text: str, source: Summand, target: Summand,
                   table: RelationTable | None = None) -> FormalMorphism:
    m = FormalMorphism(source, target, _parse_terms(text))
    return (table or default_table()).normalize(m)


# --- matrices and transformation steps --------------------------------------

@dataclass(frozen=True)
class MorphismMatrix:
    """Grid of formal morphisms: entry (i, j) maps cols[j] to rows[i].

    Every entry is normalised: `build` normalises the entries it is given,
    and each move normalises the entries it changes."""

    rows: tuple[Summand, ...]
    cols: tuple[Summand, ...]
    entries: tuple[tuple[FormalMorphism, ...], ...]

    @classmethod
    def build(cls, rows, cols, entry_map,
              table: RelationTable | None = None) -> "MorphismMatrix":
        table = table or default_table()
        rows, cols = tuple(rows), tuple(cols)
        grid = []
        for i, r in enumerate(rows):
            line = []
            for j, c in enumerate(cols):
                m = entry_map.get((i, j))
                if m is None:
                    line.append(FormalMorphism(c, r))
                elif isinstance(m, str):
                    line.append(parse_morphism(m, c, r, table))
                else:
                    line.append(table.normalize(m))
            grid.append(tuple(line))
        return cls(rows, cols, tuple(grid))

    def entry(self, i: int, j: int) -> FormalMorphism:
        return self.entries[i][j]


@dataclass(frozen=True)
class NegateRow:
    n: int                  # 1-based, as in the printed grids


@dataclass(frozen=True)
class NegateCol:
    n: int


@dataclass(frozen=True)
class ColCompose:
    m: int
    f: FormalMorphism | str
    n: int


@dataclass(frozen=True)
class RowCompose:
    g: FormalMorphism | str
    m: int
    n: int


@dataclass(frozen=True)
class ScaleAddRow:
    k: int
    m: int
    n: int


@dataclass(frozen=True)
class ScaleAddCol:
    k: int
    m: int
    n: int


TransformStep = (NegateRow, NegateCol, ColCompose, RowCompose,
                 ScaleAddRow, ScaleAddCol)


def _coerce_morphism(f, source, target, table) -> FormalMorphism:
    if isinstance(f, str):
        return parse_morphism(f, source, target, table)
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


def apply_step(M: MorphismMatrix, step,
               table: RelationTable | None = None) -> MorphismMatrix:
    """One elementary transformation; invertible by construction.  A row
    step moves rows and a column step the columns, by the same moves; only
    the side of a composite differs: g o row, column o f."""
    if not isinstance(step, TransformStep):
        raise TypeError(f"unknown step {step!r}")
    table = table or default_table()
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
        return replace(step, k=-step.k)
    name = "g" if isinstance(step, RowCompose) else "f"
    h = getattr(step, name)
    return replace(step, **{name: "-(" + h + ")" if isinstance(h, str)
                            else h.negate()})


def run_script(M: MorphismMatrix, steps,
               table: RelationTable | None = None) -> MorphismMatrix:
    for idx, step in enumerate(steps):
        try:
            M = apply_step(M, step, table)
        except ChangError as exc:
            exc.args = (f"step {idx}: {exc}",)
            raise
    return M


# --- cellular chain homology of the mapping cone ----------------------------

def _summand_chain(c: Summand):
    """(cell dims, boundary dict (from,to)->int) for one wedge summand."""
    if isinstance(c, SmashAtom):
        raise InputError("matrix summands must be elementary pieces")
    return c.cells(), c.boundary()


def _gen_chain(gen: str, src: Summand, tgt: Summand):
    """Cellular chain matrix of a generator, as {(src_cell, tgt_cell): int}."""
    if gen in _ETA_FAMILY or gen == "rho":
        return {}
    sc, _ = _summand_chain(src)
    tc, _ = _summand_chain(tgt)
    if gen == "id":
        if type(src) is not type(tgt) or sc != tc:
            raise InputError(f"no identity chain map {src} -> {tgt}")
        return {(i, i): 1 for i in range(len(sc))}
    if gen == "B":
        s, t = src.r, tgt.r
        return {(0, 0): 2 ** max(t - s, 0), (1, 1): 2 ** max(s - t, 0)}
    if gen == "i":        # bottom-cell inclusion of a sphere
        return {(0, 0): 1}
    if gen == "q":        # top-cell quotient onto a sphere
        return {(len(sc) - 1, 0): 1}
    if gen == "iq":       # through the top sphere into the next bottom cell
        return {(len(sc) - 1, 0): 1}
    raise InputError(f"no chain data for generator {gen!r}")


def homology_of_cone(M: MorphismMatrix) -> GradedAbelianGroup:
    """Homology of the mapping cone, from the cellular chain complex."""
    cells: list[tuple[int, int]] = []      # (dimension, unique id)
    index: dict[tuple, int] = {}

    def add_cell(tag, dim):
        index[tag] = len(cells)
        cells.append((dim, len(cells)))

    boundaries: dict[tuple[int, int], int] = {}
    for i, r in enumerate(M.rows):
        dims, bnd = _summand_chain(r)
        for ci, d in enumerate(dims):
            add_cell(("r", i, ci), d)
        for (a, b), v in bnd.items():
            boundaries[(index[("r", i, a)], index[("r", i, b)])] = v
    for j, c in enumerate(M.cols):
        dims, bnd = _summand_chain(c)
        for ci, d in enumerate(dims):
            add_cell(("c", j, ci), d + 1)          # cone shift
        for (a, b), v in bnd.items():
            boundaries[(index[("c", j, a)], index[("c", j, b)])] = -v
    for i in range(len(M.rows)):
        for j in range(len(M.cols)):
            entry = M.entry(i, j)
            for coef, gen in entry.terms:
                cmat = _gen_chain(gen, M.cols[j], M.rows[i])
                if not cmat:
                    continue
                c = coef.const_value()
                if c is None:
                    raise InputError(
                        "cannot take cone homology with undetermined bits on "
                        f"a degree-carrying generator in entry ({i+1},{j+1})")
                for (a, b), v in cmat.items():
                    key = (index[("c", j, a)], index[("r", i, b)])
                    boundaries[key] = boundaries.get(key, 0) + c * v

    dims_present = sorted({d for d, _ in cells})
    by_dim = {d: [cid for (dd, cid) in cells if dd == d] for d in dims_present}

    def boundary_matrix(d):
        rows_ = by_dim.get(d - 1, [])
        cols_ = by_dim.get(d, [])
        return [[boundaries.get((c, r), 0) for c in cols_] for r in rows_]

    out: dict[int, list[int]] = {}
    for d in dims_present:
        diag_in = smith_normal_form(boundary_matrix(d + 1))
        rank_out = sum(1 for v in smith_normal_form(boundary_matrix(d)) if v)
        rank_in = sum(1 for v in diag_in if v)
        free = len(by_dim[d]) - rank_out - rank_in
        factors = [0] * free + [abs(v) for v in diag_in if abs(v) > 1]
        if factors:
            out[d] = factors
    return GradedAbelianGroup(out)


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

@dataclass(frozen=True)
class SplitConeReport:
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


def _recognize_block(rows, cols, entries) -> list[Summand] | None:
    """Name the cone of one connected block, when its shape is a known
    cofibre presentation of an elementary piece or atom."""
    def ent(i, j):
        return entries[(i, j)]

    if len(rows) == 1 and len(cols) == 1:
        r, c = rows[0], cols[0]
        e = ent(0, 0)
        cid = _const_of(e, "id")
        if cid is not None and r == c:
            if r.kind == "sphere" and abs(cid) > 1:
                # cone of a degree map is the corresponding Moore space,
                # split into its primary pieces
                return [moore(p, e, r.dim) for p, e in prime_powers(abs(cid))]
            if r.kind == "moore" and r.p == 2:
                if r.r == 1 and cid % 4 == 2:
                    return [cfull(1, r.dim + 2, 1)]
                a = _v2(cid)
                if 0 < a < r.r:
                    return [moore(2, a, r.dim), moore(2, a, r.dim + 1)]
            return None
        name = e.terms[0][1] if len(e.terms) == 1 else None
        cv = _const_of(e, name)
        if cv is None:
            return None
        if name == "eta" and c.kind == "sphere" and r.kind == "sphere" \
                and c.dim == r.dim + 1 and cv % 2 == 1:
            return [ceta(r.dim + 2)]
        if name == "ieta" and c.kind == "sphere" and r.kind == "moore" \
                and r.p == 2 and c.dim == r.dim + 1 and cv % 2 == 1:
            return [cbot(r.r, r.dim + 2)]
        if name == "etaq" and c.kind == "moore" and c.p == 2 \
                and r.kind == "sphere" and c.dim == r.dim + 1 and cv % 2 == 1:
            return [ctop(r.dim + 3, c.r)]
        if name == "ietaq" and c.kind == "moore" and r.kind == "moore" \
                and c.p == r.p == 2 and c.dim == r.dim and cv % 2 == 1:
            return [cfull(r.r, r.dim + 2, c.r)]
        if name in ("eta_w1", "1_w_eta") and c.kind == "moore" \
                and r.kind == "moore" and c.p == r.p == 2 and c.r == r.r \
                and c.dim == r.dim + 1 and cv % 2 == 1 and r.dim >= 6:
            return [SmashAtom(moore(2, r.r, 3), ceta(5), r.dim - 6)]
        if name == "lambda11" and c.kind == "moore" and r.kind == "moore" \
                and c.p == r.p == 2 and c.r == r.r == 1 \
                and c.dim == r.dim + 1 and cv % 2 == 1 and r.dim >= 6:
            return [SmashAtom(moore(2, 1, 3), ceta(5), r.dim - 6)]
        if name == "i" and c.kind == "sphere" and r.kind == "moore" \
                and c.dim == r.dim and cv % 2 == 1:
            return [sphere(r.dim + 1)]
        return None

    if len(rows) == 1 and len(cols) == 2:
        r = rows[0]
        if r.kind != "sphere":
            return None
        d = r.dim
        for j0, j1 in ((0, 1), (1, 0)):
            c0, c1 = cols[j0], cols[j1]
            deg = _const_of(ent(0, j0), "id")
            if deg is None or c0 != r:
                continue
            a = _v2(deg)
            if a < 1 or abs(deg) != 2 ** a:
                continue
            if c1.kind == "sphere" and c1.dim == d + 1 \
                    and _const_of(ent(0, j1), "eta") == 1:
                return [cbot(a, d + 2)]
            if c1.kind == "moore" and c1.p == 2 and c1.dim == d \
                    and _const_of(ent(0, j1), "etaq") == 1:
                return [cfull(a, d + 2, c1.r)]
        return None

    if len(rows) == 2 and len(cols) == 1:
        c = cols[0]
        if c.kind != "sphere":
            return None
        d = c.dim
        for i0, i1 in ((0, 1), (1, 0)):
            r0, r1 = rows[i0], rows[i1]
            deg = _const_of(ent(i1, 0), "id")
            if deg is None or r1 != c:
                continue
            a = _v2(deg)
            if a < 1 or abs(deg) != 2 ** a:
                continue
            if r0.kind == "sphere" and r0.dim == d - 1 \
                    and _const_of(ent(i0, 0), "eta") == 1:
                return [ctop(d + 1, a)]
            if r0.kind == "moore" and r0.p == 2 and r0.dim == d - 1 \
                    and _const_of(ent(i0, 0), "ieta") == 1:
                return [cfull(r0.r, d + 1, a)]
        return None
    return None


def _unit(rows, cols, grid, table: RelationTable):
    """(i, j, u^-1) for the first entry that is a unit u, an odd multiple
    of an identity, or None."""
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            u = _const_of(grid[i][j], "id") if r == c else None
            if u is not None and u % 2:
                if u in (1, -1):
                    return i, j, u
                if o := table.order("id", c, r):
                    return i, j, pow(u, -1, o)
    return None


def split_cone(M: MorphismMatrix,
               table: RelationTable | None = None) -> SplitConeReport:
    """Greedy reduction of the cone: cancel units, split zero rows/columns,
    and name residual blocks that match known cell patterns."""
    table = table or default_table()
    rows, cols = list(M.rows), list(M.cols)
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

    # connected components of the entry graph
    residual: list[MorphismMatrix] = []
    unseen_rows = set(range(len(rows)))
    while unseen_rows:
        ri = [unseen_rows.pop()]
        ci = []
        frontier = list(ri)
        while frontier:
            new_cols = [j for j in range(len(cols)) if j not in ci and
                        any(not grid[i][j].is_zero() for i in frontier)]
            ci.extend(new_cols)
            frontier = [i for i in list(unseen_rows) if
                        any(not grid[i][j].is_zero() for j in new_cols)]
            for i in frontier:
                unseen_rows.discard(i)
            ri.extend(frontier)
        ri.sort()
        ci.sort()
        block_rows = [rows[i] for i in ri]
        block_cols = [cols[j] for j in ci]
        block_entries = {(a, b): grid[i][j]
                         for a, i in enumerate(ri) for b, j in enumerate(ci)}
        named = _recognize_block(block_rows, block_cols, block_entries)
        if named is not None:
            pieces.extend(named)
            log.append("block on rows " + "/".join(map(str, block_rows))
                       + " recognized as " + str(wedge(*named)))
        else:
            sub = MorphismMatrix.build(block_rows, block_cols, block_entries,
                                       table)
            residual.append(sub)
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


def matrix_from_json(doc, table: RelationTable | None = None) -> MorphismMatrix:
    doc = _document(doc)
    rows, cols = _pieces(doc, "rows"), _pieces(doc, "cols")
    table = table or default_table()
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
                                          cols[pos[1]], rows[pos[0]], table)
        except InputError as exc:
            exc.args = (f"matrix entry {entry!r}: {exc}",)
            raise
    return MorphismMatrix.build(rows, cols, entries, table)


def matrix_to_json(M: MorphismMatrix) -> dict:
    return {"rows": [str(r) for r in M.rows],
            "cols": [str(c) for c in M.cols],
            "entries": [[i + 1, j + 1, M.entry(i, j).literal()]
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
        out.append(cls(*(_step_field(rec, f.name, where)
                         for f in fields(cls))))
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
