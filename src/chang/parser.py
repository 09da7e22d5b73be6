"""Surface syntax for complexes.

Grammar (wedge binds loosest, smash tighter):

    wedge  := smash (('+' | 'v') smash)*
    smash  := atom ('^' atom)*
    atom   := S(n) | M(p^r,n) | M(p,n) | Ceta(k) | Ctop(k,s) | Cbot(r,k)
            | C(r,k,s) | susp(m, wedge) | D(wedge) | '*' | '(' wedge ')'

The bracketed forms susp(...), D(...) and (...) nest at most 200 deep.
Printing produces the canonical spelling, with ' v ' between wedge
summands, and parse o print is the identity on printed forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import complexes as cx
from .arith import MAX_DIGITS
from .complexes import ElementaryComplex, WedgeComplex
from .errors import InputError, ParseError, SemanticError

__all__ = ["parse_expression", "print_expression", "ParseError",
           "SemanticError", "lower", "parse_summand", "Expr", "cell_count",
           "check_cells", "MAX_CELLS"]


@dataclass(frozen=True)
class Expr:
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
    built: a wedge adds its parts' counts, a smash multiplies its factors'
    counts and susp and D keep the count.  A point factor counts as one
    cell, since the factors before it are built first, so the count bounds
    every complex that evaluating a subtree builds.  Counts past MAX_CELLS
    come out as MAX_CELLS + 1."""
    if e.head in _ATOMS:
        return len(cx.FAMILIES[_ATOMS[e.head][0]].cells)
    if e.head == "point":
        return 0
    counts = [cell_count(kid) for kid in e.kids]
    if e.head == "wedge":
        total = sum(counts)
    elif e.head == "smash":
        total = 1
        for n in counts:
            total = min(total * max(n, 1), MAX_CELLS + 1)
    else:
        total = counts[0]
    return min(total, MAX_CELLS + 1)


def check_cells(e: Expr) -> None:
    """Refuse e with an InputError when its cell count is over MAX_CELLS.
    The cells of an n-fold smash grow as 2^n, and so does the time to
    lower it or take its homology."""
    if cell_count(e) > MAX_CELLS:
        raise InputError(f"more than {MAX_CELLS} cells; a smash multiplies "
                         "the cell counts of its factors")


def print_expression(e: Expr) -> str:
    if e.head == "point":
        return "*"
    if e.head in _ATOMS:
        kind, params = _atom_params(e)
        return cx.FAMILIES[kind].spelling.format(**params)
    if e.head == "susp":
        return f"susp({e.args[0]},{print_expression(e.kids[0])})"
    if e.head == "dual":
        return f"D({print_expression(e.kids[0])})"
    if e.head == "smash":
        parts = []
        for kid in e.kids:
            s = print_expression(kid)
            parts.append(f"({s})" if kid.head == "wedge" else s)
        return "^".join(parts)
    if e.head == "wedge":
        return " v ".join(print_expression(k) for k in e.kids)
    raise ValueError(f"unknown node {e.head!r}")


def _atom_params(e: Expr) -> tuple[str, dict[str, int]]:
    kind, parts = _ATOMS[e.head]
    return kind, dict(zip([name for name, _ in parts if name], e.args))


def _atom_complex(e: Expr) -> ElementaryComplex:
    if e.head == "point":
        return cx.POINT
    if e.head in _ATOMS:
        kind, params = _atom_params(e)
        try:
            return ElementaryComplex(kind, **params)
        except InputError as exc:
            raise SemanticError(f"{print_expression(e)}: {exc}") from None
    raise SemanticError(f"{print_expression(e)} is not an elementary piece")


def lower(e: Expr) -> WedgeComplex:
    """Evaluate to a canonical wedge; smash nodes go through the decision
    procedure, so the result is always a wedge of elementary pieces and
    certified atoms."""
    from .smash import smash_decompose
    if e.head == "wedge":
        return cx.wedge(*[lower(k) for k in e.kids])
    if e.head == "smash":
        acc = lower(e.kids[0])
        for kid in e.kids[1:]:
            acc = smash_decompose(acc, lower(kid)).output
        return acc
    if e.head == "susp":
        return cx.suspend(lower(e.kids[0]), e.args[0])
    if e.head == "dual":
        return cx.dual(lower(e.kids[0]))
    return cx.wedge(_atom_complex(e))


def parse_summand(text: str) -> ElementaryComplex:
    """Parse a single elementary piece (used by matrix files)."""
    e = parse_expression(text)
    return _atom_complex(e)


def homology_of_expression(e: Expr):
    """Integral homology along the structure of the expression: smash nodes
    use the Kunneth formula directly, independent of the decision table."""
    from .homology import integral_homology, kunneth
    if e.head == "wedge":
        out = homology_of_expression(e.kids[0])
        for kid in e.kids[1:]:
            out = out.direct_sum(homology_of_expression(kid))
        return out
    if e.head == "smash":
        out = homology_of_expression(e.kids[0])
        for kid in e.kids[1:]:
            out = kunneth(out, homology_of_expression(kid))
        return out
    if e.head == "susp":
        return homology_of_expression(e.kids[0]).shift(e.args[0])
    if e.head == "dual":
        return integral_homology(lower(e))
    return integral_homology(cx.wedge(_atom_complex(e)))


def sqmodule_of_expression(e: Expr):
    """Mod-2 cohomology along the structure: smashes by the Cartan formula."""
    from .steenrod import cartan_smash_sq, mod2_cohomology, wedge_sum
    if e.head == "wedge":
        return wedge_sum([sqmodule_of_expression(kid) for kid in e.kids])
    if e.head == "smash":
        out = sqmodule_of_expression(e.kids[0])
        for kid in e.kids[1:]:
            out = cartan_smash_sq(out, sqmodule_of_expression(kid))
        return out
    if e.head == "susp":
        return sqmodule_of_expression(e.kids[0]).shift(e.args[0])
    if e.head == "dual":
        return mod2_cohomology(lower(e))
    return mod2_cohomology(cx.wedge(_atom_complex(e)))
