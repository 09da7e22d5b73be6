"""Lookup service for stable hom groups with named generators.

The table itself ships as a structured text file (data/hom_tables.txt) so
new cells can be added without touching code; set CHANG_TABLE_PATH to a
directory holding replacement table files to override it.  Lookups outside
the table raise UntabulatedHom -- nothing is ever interpolated.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .arith import integer, power
from .complexes import (SmashAtom, Summand, WedgeComplex, sphere,
                        suspend, wedge)
from .errors import InputError, UntabulatedHom
from .homology import group_label, primary_factors

__all__ = ["HomGroupDescriptor", "UntabulatedHom", "hom_group",
           "atom_homotopy", "wedge_hom_order", "pi9_smash_extension",
           "load_table"]


@dataclass(frozen=True)
class HomGroupDescriptor:
    group: tuple[int, ...]          # primary-decomposed cyclic orders (0 = Z)
    cyclic: tuple[int, ...]         # orders as stated in the table
    generators: tuple[tuple[str, int, str], ...]   # (name, order, relation note)
    source: str
    target: str
    stable_from: int
    note: str = ""

    def pretty(self) -> str:
        return group_label(self.cyclic)


# --- tiny arithmetic/predicate evaluator for the table file ----------------

_TOK = re.compile(r"\s*(\d+|[A-Za-z_]+|[()+\-*^,]|<=|>=|!=|=|<|>|\||&)")


def _tokenize(text: str) -> list[str]:
    out, i = [], 0
    while i < len(text):
        m = _TOK.match(text, i)
        if not m:
            raise InputError(f"bad table expression {text!r} at {i}")
        out.append(m.group(1))
        i = m.end()
    return out


class _Expr:
    def __init__(self, tokens: list[str], env: dict[str, int]):
        self.toks = tokens
        self.pos = 0
        self.env = env

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, tok=None):
        t = self.peek()
        if t is None or (tok is not None and t != tok):
            raise InputError(f"expected {tok!r}, got {t!r}")
        self.pos += 1
        return t

    def expr(self) -> int:
        v = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                v += self.term()
            else:
                v -= self.term()
        return v

    def term(self) -> int:
        v = self.factor()
        while self.peek() == "*":
            self.take()
            v *= self.factor()
        return v

    def factor(self) -> int:
        v = self.base()
        if self.peek() == "^":
            self.take()
            v = power(v, self.factor())
        return v

    def base(self) -> int:
        t = self.take()
        if t.isdigit():
            return integer(t)
        if t == "(":
            v = self.expr()
            self.take(")")
            return v
        if t == "-":
            return -self.base()
        if t in ("min", "max", "delta"):
            self.take("(")
            args = [self.expr()]
            while self.peek() == ",":
                self.take()
                args.append(self.expr())
            self.take(")")
            if t == "min":
                return min(args)
            if t == "max":
                return max(args)
            return 0 if args[0] == 1 else 1
        if t in self.env:
            return self.env[t]
        raise InputError(f"unknown name {t!r} in table expression")


def _eval_int(text: str, env: dict[str, int]) -> int:
    p = _Expr(_tokenize(text), env)
    v = p.expr()
    if p.peek() is not None:
        raise InputError(f"trailing input in {text!r}")
    return v


def _eval_pred(text: str, env: dict[str, int]) -> bool:
    text = text.strip()
    if text in ("-", ""):
        return True
    for clause in text.split("|"):
        ok = True
        for cmp_ in clause.split("&"):
            m = re.match(r"^(.*?)(<=|>=|!=|=|<|>)(.*)$", cmp_.strip())
            if not m:
                raise InputError(f"bad predicate {cmp_!r}")
            a = _eval_int(m.group(1), env)
            b = _eval_int(m.group(3), env)
            op = m.group(2)
            ok = {"=": a == b, "!=": a != b, "<": a < b, ">": a > b,
                  "<=": a <= b, ">=": a >= b}[op]
            if not ok:
                break
        if ok:
            return True
    return False


# --- table records ----------------------------------------------------------

@dataclass(frozen=True)
class _Record:
    kind: str
    src: str
    tgt: str
    off: int
    when: str
    group: str
    gens: str
    stable_from: int
    note: str


def _table_path(name: str) -> str:
    override = os.environ.get("CHANG_TABLE_PATH")
    if override:
        cand = os.path.join(override, name)
        if os.path.exists(cand):
            return cand
    return str(resources.files("chang").joinpath("data", name))


def _read_table(path: str, parse) -> list:
    """parse(fields) for each data line of a ';'-separated table file; an
    InputError names the file and line it came from."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                out.append(parse([p.strip() for p in line.split(";")]))
            except InputError as exc:
                exc.args = (f"{os.path.basename(path)} line {number}: {exc}",)
                raise
    return out


@lru_cache(maxsize=None)
def load_table(path: str | None = None) -> tuple[_Record, ...]:
    def record(parts):
        parts += [""] * (8 - len(parts))
        kind, src, tgt, off, when, group, gens = parts[:7]
        return _Record(kind, src, tgt, integer(off), when, group, gens,
                       integer(parts[7]) if parts[7] else 3,
                       parts[8] if len(parts) > 8 else "")
    return tuple(_read_table(path or _table_path("hom_tables.txt"), record))


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
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _cyclic_orders(group: str, env: dict[str, int]) -> tuple[int, ...]:
    """Orders stated by a GROUP field such as "Z + Z/2^(ts+1)" (0 = Z)."""
    if group.strip() == "0":
        return ()
    return tuple(0 if p.strip() == "Z" else _eval_int(p.strip()[2:], env)
                 for p in _split_top(group, "+"))


def _build_descriptor(rec: _Record, env: dict[str, int],
                      source: Summand, target: Summand) -> HomGroupDescriptor:
    cyclic = _cyclic_orders(rec.group, env)
    primary: list[int] = []
    for q in cyclic:
        primary.extend(primary_factors(q))
    gens = []
    if rec.gens.strip():
        for item in _split_top(rec.gens, ","):
            if ":" not in item:
                raise InputError(f"generator {item.strip()!r} has no order")
            name, order = item.rsplit(":", 1)
            o = 0 if order.strip() == "Z" else _eval_int(order, env)
            gens.append((_subst(name.strip(), env), o, rec.note))
    return HomGroupDescriptor(tuple(sorted(primary)), cyclic, tuple(gens),
                              str(source), str(target), rec.stable_from,
                              rec.note)


def hom_group(source: Summand, target: Summand) -> HomGroupDescriptor:
    """Tabulated [source, target] in the stable range."""
    for c in (source, target):
        if getattr(c, "kind", None) == "point":
            return HomGroupDescriptor((), (), (), str(source), str(target), 0,
                                      "a point kills every hom group")
    cs, ct = _classify(source), _classify(target)
    if cs is None or ct is None:
        raise UntabulatedHom(f"[{source}, {target}]: untabulated summand shape")
    skind, senv = cs
    tkind, tenv = ct
    off = source.bottom - target.bottom
    env = {"sr": senv["r"], "ss": senv["s"], "tr": tenv["r"], "ts": tenv["s"]}
    for rec in load_table():
        if rec.kind != "hom" or rec.src != skind or rec.tgt != tkind:
            continue
        if rec.off != off or not _eval_pred(rec.when, env):
            continue
        if target.bottom < rec.stable_from:
            raise UntabulatedHom(
                f"[{source}, {target}]: below the stable range of the table "
                f"entry (needs bottom dimension >= {rec.stable_from})")
        return _build_descriptor(rec, env, source, target)
    raise UntabulatedHom(f"[{source}, {target}] (offset {off}) is not tabulated")


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
    for rec in load_table():
        if rec.kind != "ses":
            continue
        if not _eval_pred(rec.when, env):
            continue
        return _cyclic_orders(rec.group, env), (2, 2)
    raise UntabulatedHom(
        f"pi_9 extension for parameters ({r},{s},{rp},{sp}) is not tabulated")
