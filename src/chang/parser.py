"""Surface syntax for complexes.

Grammar (wedge binds loosest, smash tighter):

    wedge  := smash (('+' | 'v') smash)*
    smash  := atom ('^' atom)*
    atom   := S(n) | M(p^r,n) | M(p,n) | Ceta(k) | Ctop(k,s) | Cbot(r,k)
            | C(r,k,s) | susp(m, wedge) | D(wedge) | '*' | '(' wedge ')'

The bracketed forms susp(...), D(...) and (...) nest at most 200 deep.
Printing produces the canonical spelling, with ' v ' between wedge
summands, and parse o print is the identity on printed forms.

`_fold` is the one walk that evaluates a tree: `lower`, `cell_count` and an
expression's homology and Sq-module are each one call of it with their own
steps.  Printing is the only other recursion over an Expr.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import complexes as cx
from .arith import MAX_DIGITS
from .complexes import ElementaryComplex, WedgeComplex, piece
from .errors import InputError, ParseError, SemanticError
from .homology import (GradedAbelianGroup, integral_homology, kunneth,
                       wedge_homology)
from .steenrod import SqModule, cartan_smash_sq, mod2_cohomology, wedge_sum

__all__ = ["parse_expression", "print_expression", "ParseError",
           "SemanticError", "lower", "parse_summand", "Expr", "cell_count",
           "check_cells", "MAX_CELLS"]


class Expr(NamedTuple):
    """AST node: head in {S, M, Ceta, Ctop, Cbot, C, point, susp, dual,
    smash, wedge}; ints in args, children in kids."""
    head: str
    args: tuple[int, ...] = ()
    kids: tuple["Expr", ...] = ()


_TOKEN = re.compile(r"(\d+|[A-Za-z]+|[\^+(),*])")

# surface head -> (kind, spelling after the head as (parameter, literal)
# parts); the parameters come out in spelling order, which is Expr.args
_ATOMS = {
    fam.spelling.split("(")[0]: (kind, re.findall(
        r"\{(\w+)\}|([^{}])", fam.spelling[fam.spelling.index("("):]))
    for kind, fam in cx.FAMILIES.items() if fam.cells
}
_KEYWORDS = set(_ATOMS) | {"D", "susp", "v"}
# brackets, D( and susp( nest at most this deep; each level costs a few
# stack frames in parsing, lowering and printing, and Python's default
# recursion limit of 1000 ends the walk near 330 levels
_MAX_NESTING = 200
# the most cells an expression may name (see `check_cells`): 2^10, ten
# two-cell factors, whose mod-2 cohomology with its Sq actions a cold
# `chang cohomology --sq` call prints in about half a second
MAX_CELLS = 1024


def _tokenize(text: str):
    out, i = [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        tok = m.group(1)
        if tok.isalpha() and tok not in _KEYWORDS:
            raise ParseError(f"unknown name {tok!r}", i,
                             sorted(_KEYWORDS - {"v"}))
        out.append((tok, i))
        i = m.end()
    out.append((None, len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos][0]

    def offset(self):
        return self.toks[self.pos][1]

    def take(self, expect=None):
        tok, off = self.toks[self.pos]
        if expect is not None and tok != expect:
            raise ParseError(f"got {tok!r}", off, (expect,))
        self.pos += 1
        return tok

    def int_(self) -> int:
        tok, off = self.toks[self.pos]
        if tok is None or not tok.isdigit():
            raise ParseError(f"got {tok!r}", off, ("integer",))
        if len(tok) > MAX_DIGITS // 2:
            # dimensions add up as expressions nest; at half the digits
            # Python prints, every sum of them still prints
            raise ParseError(f"got an integer of {len(tok)} digits", off,
                             (f"at most {MAX_DIGITS // 2} digits",))
        self.pos += 1
        return int(tok)

    def wedge(self) -> Expr:
        parts = [self.smash()]
        while self.peek() in ("+", "v"):
            self.take()
            parts.append(self.smash())
        return parts[0] if len(parts) == 1 else Expr("wedge", kids=tuple(parts))

    def smash(self) -> Expr:
        parts = [self.atom()]
        while self.peek() == "^":
            self.take()
            parts.append(self.atom())
        return parts[0] if len(parts) == 1 else Expr("smash", kids=tuple(parts))

    def atom(self) -> Expr:
        tok = self.peek()
        off = self.offset()
        if tok in ("(", "D", "susp"):
            if self.depth == _MAX_NESTING:
                raise ParseError(f"nesting deeper than {_MAX_NESTING}", off)
            self.take()
            args: tuple[int, ...] = ()
            if tok != "(":
                self.take("(")
            if tok == "susp":
                args = (self.int_(),)
                self.take(",")
            self.depth += 1
            e = self.wedge()
            self.depth -= 1
            self.take(")")
            if tok == "(":
                return e
            return Expr("dual" if tok == "D" else "susp", args, (e,))
        if tok == "*":
            self.take()
            return Expr("point")
        if tok in _ATOMS:
            self.take()
            args = []
            parts = iter(_ATOMS[tok][1])
            for name, lit in parts:
                if lit == "^" and self.peek() != "^":
                    next(parts)         # M(p,n) is M(p^1,n)
                    args.append(1)
                elif name:
                    args.append(self.int_())
                else:
                    self.take(lit)
            return Expr(tok, tuple(args))
        raise ParseError(f"got {tok!r}", off,
                         (*_ATOMS, "D", "susp", "*", "("))


def parse_expression(text: str) -> Expr:
    p = _Parser(text)
    e = p.wedge()
    if p.peek() is not None:
        raise ParseError(f"trailing input {p.peek()!r}", p.offset())
    return e


def cell_count(e: Expr) -> int:
    """Cells of the complex e names, read off the tree before anything is
    built: a wedge adds counts, a smash multiplies them and susp and D keep
    them.  A point factor counts as one cell, since the factors before it
    are built first, so the count bounds every complex that evaluating a
    subtree builds.  Counts past MAX_CELLS come out as MAX_CELLS + 1."""
    return _fold(e, *_COUNTING)


def _leaf_cells(e: Expr) -> int:
    if e.head == "dual":
        return _fold(e.kids[0], *_COUNTING)
    if e.head == "point":
        return 0
    return len(cx.FAMILIES[_ATOMS[e.head][0]].cells)


# a capped sum, a capped product where a point factor counts as one cell,
# and susp keeping the count
_COUNTING = (_leaf_cells, lambda counts: min(sum(counts), MAX_CELLS + 1),
             lambda n, m: min((n or 1) * max(m, 1), MAX_CELLS + 1),
             lambda n, m: n)


def check_cells(e: Expr) -> None:
    """Refuse e with an InputError when its cell count is over MAX_CELLS.
    The cells of an n-fold smash grow as 2^n, and so does the time to
    lower it or take its homology."""
    if cell_count(e) > MAX_CELLS:
        raise InputError(f"more than {MAX_CELLS} cells; a smash multiplies "
                         "the cell counts of its factors")


def print_expression(e: Expr) -> str:
    """The spelling of e that `parse_expression` reads back.  As in
    `_fold`, a level of nesting costs one frame here."""
    if e.head == "point":
        return "*"
    if e.head in _ATOMS:
        kind, params = _atom_params(e)
        return cx.FAMILIES[kind].spelling.format(**params)
    if e.head == "susp":
        return f"susp({e.args[0]},{print_expression(e.kids[0])})"
    if e.head == "dual":
        return f"D({print_expression(e.kids[0])})"
    if e.head not in ("smash", "wedge"):
        raise ValueError(f"unknown node {e.head!r}")
    parts = []
    for kid in e.kids:
        s = print_expression(kid)
        parts.append(f"({s})" if e.head == "smash" and kid.head == "wedge"
                     else s)
    return ("^" if e.head == "smash" else " v ").join(parts)


def _atom_params(e: Expr) -> tuple[str, dict[str, int]]:
    kind, parts = _ATOMS[e.head]
    return kind, dict(zip([name for name, _ in parts if name], e.args))


def _atom_complex(e: Expr) -> ElementaryComplex:
    if e.head == "point":
        return cx.POINT
    if e.head in _ATOMS:
        kind, params = _atom_params(e)
        try:
            return piece(kind, **params)
        except InputError as exc:
            raise SemanticError(f"{print_expression(e)}: {exc}") from None
    raise SemanticError(f"{print_expression(e)} is not an elementary piece")


def lower(e: Expr) -> WedgeComplex:
    """Evaluate to a canonical wedge; smash nodes go through the decision
    procedure, so the result is always a wedge of elementary pieces and
    certified atoms."""
    return _fold(e, *_LOWERING)


def _leaf_wedge(e: Expr) -> WedgeComplex:
    if e.head == "dual":
        return cx.dual(_fold(e.kids[0], *_LOWERING))
    return cx.wedge(_atom_complex(e))


def _smash(x: WedgeComplex | None, y: WedgeComplex) -> WedgeComplex:
    # looked up on the module at each call, where a tracer may wrap it
    from .smash import smash_decompose
    return y if x is None else smash_decompose(x, y).output


_LOWERING = (_leaf_wedge, lambda parts: cx.wedge(*parts), _smash, cx.suspend)


def parse_summand(text: str) -> ElementaryComplex:
    """Parse a single elementary piece (used by matrix files)."""
    e = parse_expression(text)
    return _atom_complex(e)


def _fold(e: Expr, leaf, plus, times, shift):
    """Evaluate e: leaf on a piece, a point or a D(...) node, plus on a
    wedge's parts, shift(value, m) for susp(m, ...) and times(product,
    factor) over a smash's factors from the left, product None first.  A
    level of nesting costs one frame here."""
    if e.head == "wedge":
        parts = []
        for kid in e.kids:
            parts.append(_fold(kid, leaf, plus, times, shift))
        return plus(parts)
    if e.head == "smash":
        out = None
        for kid in e.kids:
            out = times(out, _fold(kid, leaf, plus, times, shift))
        return out
    if e.head == "susp":
        return shift(_fold(e.kids[0], leaf, plus, times, shift), e.args[0])
    return leaf(e)


def homology_of_expression(e: Expr) -> GradedAbelianGroup:
    """Integral homology along the structure of the expression: smash nodes
    use the Kunneth formula directly, independent of the decision table."""
    return _fold(e, lambda e: integral_homology(_leaf_wedge(e)),
                 wedge_homology,
                 lambda h, g: g if h is None else kunneth(h, g),
                 GradedAbelianGroup.shift)


def sqmodule_of_expression(e: Expr) -> SqModule:
    """Mod-2 cohomology along the structure: smashes by the Cartan formula."""
    return _fold(e, lambda e: mod2_cohomology(_leaf_wedge(e)), wedge_sum,
                 lambda a, b: b if a is None else cartan_smash_sq(a, b),
                 SqModule.shift)
