"""Lookup service for stable hom groups with named generators.

The table itself ships as a structured text file (data/hom_tables.txt) so
new cells can be added without touching code; set CHANG_TABLE_PATH to a
directory holding replacement table files to override it.  Lookups outside
the table raise UntabulatedHom -- nothing is ever interpolated.
Descriptors and table records are frozen records (`complexes._FrozenRecord`).
"""

from __future__ import annotations

import operator
import os
import re
from contextlib import contextmanager
from functools import lru_cache
from importlib import resources
from typing import Callable, NamedTuple

from .arith import integer, power
from .complexes import (SmashAtom, Summand, WedgeComplex, _FrozenRecord,
                        sphere, suspend, wedge)
from .errors import InputError, ParseError, UntabulatedHom
from .homology import group_label, primary_factors
from .parser import _MAX_NESTING

__all__ = ["HomGroupDescriptor", "UntabulatedHom", "hom_group",
           "atom_homotopy", "wedge_hom_order", "pi9_smash_extension",
           "load_table"]


class HomGroupDescriptor(_FrozenRecord):
    group: tuple[int, ...]          # primary-decomposed cyclic orders (0 = Z)
    cyclic: tuple[int, ...]         # orders as stated in the table
    generators: tuple[tuple[str, int, str], ...]   # (name, order, relation note)
    source: str
    target: str
    stable_from: int
    note: str = ""

    def pretty(self) -> str:
        return group_label(self.cyclic)


# --- the expression reader: table fields and morphism literals ------------

class _Values(NamedTuple):
    """What _read_expression builds from a text: `what` names the language in
    error messages, and a name in `calls` followed by '(' is a call."""
    what: str
    calls: frozenset
    num: Callable
    name: Callable
    call: Callable | None
    add: Callable
    mul: Callable
    neg: Callable
    pow: Callable


_TOKEN = re.compile(r"\s*([A-Za-z0-9_']+|[-+*^(),])")


def _read_expression(text: str, values: _Values):
    """Read text by one grammar -- sum, product, unary minus, right-associative
    '^' (binding tighter than unary minus), then numbers, names, calls and
    brackets -- into what values builds.  Brackets, unary minus and '^'
    nest at most as deep as the expression language allows (`parser`)."""
    text = text.strip()
    toks, starts, i = [], [], 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            raise InputError(f"bad {values.what} {text!r} at offset {i}")
        toks.append(m.group(1))
        starts.append(m.start(1))
        i = m.end()
    toks.append(None)
    pos = depth = 0

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def enter():
        """Go one level deeper, for the opener just taken."""
        nonlocal depth
        if depth == _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING}",
                             starts[pos - 1])
        depth += 1

    def close():
        if take() != ")":
            raise InputError(f"missing ')' in {values.what} {text!r}")

    # a bracket costs two stack frames (sum_, operand) and a unary minus
    # or '^' one, so the deepest expression stays far from Python's limit
    def sum_():
        """Products joined by '+' and '-', left to right."""
        total, negate = None, False
        while True:
            term = operand()
            while toks[pos] == "*":
                take()
                term = values.mul(term, operand())
            if negate:
                term = values.neg(term)
            total = term if total is None else values.add(total, term)
            if toks[pos] not in ("+", "-"):
                return total
            negate = take() == "-"

    def operand():
        """A unary minus, or an atom raised by an optional '^' operand."""
        nonlocal depth
        tok = take()
        if tok == "-":
            enter()
            v = values.neg(operand())
            depth -= 1
            return v
        if tok is None:
            raise InputError(f"unexpected end of {values.what} {text!r}")
        if tok == "(":
            enter()
            v = sum_()
            depth -= 1
            close()
        elif tok.isdigit():
            v = values.num(integer(tok))
        elif tok in values.calls and toks[pos] == "(":
            take()
            enter()
            args = [sum_()]
            while toks[pos] == ",":
                take()
                args.append(sum_())
            depth -= 1
            close()
            v = values.call(tok, args)
        elif tok[0] not in "+*^),":
            v = values.name(tok)
        else:
            raise InputError(f"unexpected {tok!r} in {values.what} {text!r}")
        if toks[pos] == "^":
            take()
            enter()
            v = values.pow(v, operand())
            depth -= 1
        return v

    value = sum_()
    if toks[pos] is not None:
        raise InputError(f"trailing input in {values.what} {text!r}")
    return value


# --- table records ----------------------------------------------------------

_FUNCTIONS = {"min": min, "max": max,
              "delta": lambda args: 0 if args[0] == 1 else 1}


def _exponent(name: str):
    if name not in ("sr", "ss", "tr", "ts"):
        raise InputError(f"unknown name {name!r} in table expression")
    return lambda env: env[name]


# a table expression compiles to a function of the exponent environment
_TABLE = _Values(
    "table expression", frozenset(_FUNCTIONS),
    num=lambda n: lambda env: n,
    name=_exponent,
    call=lambda f, args: lambda env: _FUNCTIONS[f]([a(env) for a in args]),
    add=lambda a, b: lambda env: a(env) + b(env),
    mul=lambda a, b: lambda env: a(env) * b(env),
    neg=lambda a: lambda env: -a(env),
    pow=lambda a, b: lambda env: power(a(env), b(env)))

_COMPARE = {"<=": operator.le, ">=": operator.ge, "!=": operator.ne,
            "=": operator.eq, "<": operator.lt, ">": operator.gt}


def _comparison(text: str, expr):
    m = re.fullmatch(r"(.*?)(<=|>=|!=|=|<|>)(.*)", text)
    if not m:
        raise InputError(f"bad predicate {text.strip()!r}")
    op = _COMPARE[m[2]]
    a, b = expr(m[1]), expr(m[3])
    return lambda env: op(a(env), b(env))


def _predicate(text: str, expr):
    """A WHEN field: '|' of '&' of comparisons; '-' always holds."""
    if text in ("-", ""):
        return lambda env: True
    clauses = [[_comparison(t, expr) for t in c.split("&")]
               for c in text.split("|")]
    return lambda env: any(all(t(env) for t in c) for c in clauses)


def _order(text: str, expr):
    """An order: Z (0), or an expression whose value must be at least 1."""
    if text == "Z":
        return lambda env: 0
    value = expr(text)

    def order(env):
        q = value(env)
        if q < 1:
            raise InputError(f"order {text} is {q}, below 1")
        return q
    return order


def _group(text: str, expr):
    """A GROUP field such as "Z + Z/2^(ts+1)": its cyclic orders (0 = Z)."""
    if text == "0":
        return lambda env: ()
    factors = [f.strip() for f in _split_top(text, "+")]
    for f in factors:
        if f != "Z" and not f.startswith("Z/"):
            raise InputError(f"cyclic factor {f!r} is neither Z nor Z/n")
    orders = [_order(f.removeprefix("Z/"), expr) for f in factors]
    return lambda env: tuple(q(env) for q in orders)


def _generators(text: str, expr) -> tuple:
    """A GENS field: (name, order) for each comma-separated name:order."""
    gens = []
    for item in _split_top(text, ",") if text else ():
        if ":" not in item:
            raise InputError(f"generator {item.strip()!r} has no order")
        name, order = item.rsplit(":", 1)
        gens.append((name.strip(), _order(order.strip(), expr)))
    return tuple(gens)


class _Record(_FrozenRecord):
    when: Callable          # exponent environment -> bool
    group: Callable         # exponent environment -> cyclic orders
    gens: tuple             # (name with {sr}... to substitute, order)
    stable_from: int
    note: str
    where: str              # file and line, for errors met at lookup


def _table_path(name: str) -> str:
    override = os.environ.get("CHANG_TABLE_PATH")
    if override:
        cand = os.path.join(override, name)
        if os.path.exists(cand):
            return cand
    return str(resources.files("chang").joinpath("data", name))


@contextmanager
def _located(where: str):
    """Prefix an InputError raised inside with where it came from."""
    try:
        yield
    except InputError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def _read_table(path: str, parse) -> list:
    """parse(fields, where) for each data line of a ';'-separated table
    file, where naming the file and line; so does an InputError."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{os.path.basename(path)} line {number}"
            with _located(where):
                out.append(parse([p.strip() for p in line.split(";")], where))
    return out


@lru_cache(maxsize=1)
def load_table() -> dict[tuple[str, str, str, int], list[_Record]]:
    """The hom table, its fields compiled once, with the records under each
    (kind, src, tgt, off) in file order.  Each distinct expression text is
    compiled once per load; a malformed one fails on the first line with it."""
    compiled: dict[str, Callable] = {}

    def expr(text: str) -> Callable:
        text = text.strip()
        if text not in compiled:
            compiled[text] = _read_expression(text, _TABLE)
        return compiled[text]

    def record(parts, where):
        parts += [""] * (8 - len(parts))
        kind, src, tgt, off, when, group, gens = parts[:7]
        return (kind, src, tgt, integer(off)), _Record(
            _predicate(when, expr), _group(group, expr),
            _generators(gens, expr), integer(parts[7]) if parts[7] else 3,
            parts[8] if len(parts) > 8 else "", where)
    table: dict = {}
    for key, rec in _read_table(_table_path("hom_tables.txt"), record):
        table.setdefault(key, []).append(rec)
    return table


def _lookup(key: tuple[str, str, str, int], env: dict[str, int]):
    """The first record under key whose WHEN holds at env, or None."""
    for rec in load_table().get(key, ()):
        with _located(rec.where):
            if rec.when(env):
                return rec
    return None


def _classify(c: Summand) -> tuple[str, dict[str, int]] | None:
    """(table kind, exponent environment) for one summand."""
    if isinstance(c, SmashAtom):
        lk, rk = c.left.kind, c.right.kind
        if lk == "moore" and c.left.p == 2 and rk == "ceta":
            return "AME", {"r": c.left.r, "s": 0}
        if lk == "ceta" and rk == "cfull":
            return "AEF", {"r": c.right.r, "s": c.right.s}
        return None
    name = c.family.hom_name.format(prime=2 if c.p == 2 else "p")
    return name, {"r": c.r, "s": c.s}


def _subst(name: str, env: dict[str, int]) -> str:
    for key, val in env.items():
        name = name.replace("{" + key + "}", str(val))
    return name


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep at parenthesis depth zero."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def _hom_record(source: Summand, target: Summand):
    """(record, exponent environment) of [source, target], the record as
    `_lookup` finds it, at any bottom dimension: the stable range is
    `hom_group`'s check."""
    cs, ct = _classify(source), _classify(target)
    if cs is None or ct is None:
        raise UntabulatedHom(f"[{source}, {target}]: untabulated summand shape")
    (skind, senv), (tkind, tenv) = cs, ct
    off = source.bottom - target.bottom
    env = {"sr": senv["r"], "ss": senv["s"], "tr": tenv["r"], "ts": tenv["s"]}
    rec = _lookup(("hom", skind, tkind, off), env)
    if rec is None:
        raise UntabulatedHom(
            f"[{source}, {target}] (offset {off}) is not tabulated")
    return rec, env


def hom_group(source: Summand, target: Summand) -> HomGroupDescriptor:
    """Tabulated [source, target] in the stable range."""
    for c in (source, target):
        if getattr(c, "kind", None) == "point":
            return HomGroupDescriptor((), (), (), str(source), str(target), 0,
                                      "a point kills every hom group")
    rec, env = _hom_record(source, target)
    with _located(rec.where):
        cyclic = rec.group(env)
        gens = tuple((_subst(name, env), order(env), rec.note)
                     for name, order in rec.gens)
    if target.bottom < rec.stable_from:
        raise UntabulatedHom(
            f"[{source}, {target}]: below the stable range of the table "
            f"entry (needs bottom dimension >= {rec.stable_from})")
    primary: list[int] = []
    for q in cyclic:
        primary.extend(primary_factors(q))
    return HomGroupDescriptor(tuple(sorted(primary)), cyclic, gens,
                              str(source), str(target), rec.stable_from,
                              rec.note)


def atom_homotopy(x: SmashAtom, degree: int) -> HomGroupDescriptor:
    """Homotopy group pi_degree of a tabulated atom."""
    return hom_group(sphere(degree), x)


def wedge_hom_order(x, y, degree: int = 0) -> list[int]:
    """Cyclic orders of [suspended X, Y], summed over the summand matrix."""
    X = x if isinstance(x, WedgeComplex) else wedge(x)
    Y = y if isinstance(y, WedgeComplex) else wedge(y)
    if degree:
        X = suspend(X, degree)
    orders: list[int] = []
    for cx in X.summands:
        for cy in Y.summands:
            try:
                orders.extend(hom_group(cx, cy).group)
            except UntabulatedHom as exc:
                raise UntabulatedHom(
                    f"[{X}, {Y}]: missing cell {exc}") from None
    return sorted(orders)


def pi9_smash_extension(r: int, s: int, rp: int, sp: int
                        ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sub, quotient) of the extension presenting the degree-9 homotopy of
    a four-cell smash four-cell product, where tabulated."""
    env = {"sr": r, "ss": s, "tr": rp, "ts": sp}
    rec = _lookup(("ses", "Cfull", "Cfull", 3), env)
    if rec is not None:
        with _located(rec.where):
            return rec.group(env), (2, 2)
    raise UntabulatedHom(
        f"pi_9 extension for parameters ({r},{s},{rp},{sp}) is not tabulated")
