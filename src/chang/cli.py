"""Command-line front end.

Exit codes: 0 success; 1 a failed cross-check (`VerificationFailure`, or
a mismatch `verify` reports); 2 a usage error, an unreadable file or an
`InputError` (malformed or out-of-range input); 3 an `OutsideTables` error
(unclassified pair, untabulated hom group, unknown composition).  Each
error class in `chang.errors` states its code and stderr label; anything
else that escapes a command is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import sys

from .complexes import dual, sphere
from .errors import ChangError, InputError
from .homology import group_label
from .parser import (Expr, check_cells, homology_of_expression, lower,
                     parse_expression, sqmodule_of_expression)
from .smash import smash_decompose
from .verify import check_decomposition

__all__ = ["main", "run_command", "entry"]

# Only `pi`, `homgroup` and `reduce` run `homgroups` and `matrix`, so their
# names are bound on first use (PEP 562) and a cold call of any other
# command never imports them.  The commands look every such name up on this
# module when they run, so a wrapper set on it is what they call.
_LAZY = {"hom_group": ".homgroups", "wedge_hom_order": ".homgroups",
         "matrix_from_json": ".matrix", "render_matrix": ".matrix",
         "run_script": ".matrix", "split_cone": ".matrix",
         "steps_from_json": ".matrix"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(_LAZY[name], __package__), name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]


def _parse(text: str, *before: Expr) -> Expr:
    """The expression in `text`, refused with an InputError when it names
    too many cells together with the operands `before` it: a command builds
    the smash of its operands (smash, verify) or works over the pairs of
    their summands (homgroup), so their cell counts multiply."""
    e = parse_expression(text)
    check_cells(Expr("smash", kids=(*before, e)))
    return e


def _operands(args):
    """The lowered operands x and y, within the cell budget together."""
    ex = _parse(args.x)
    return lower(ex), lower(_parse(args.y, ex))


def _emit(lines, fmt, pairs):
    """text mode prints `lines`; structured mode prints `key = value` pairs."""
    if fmt == "structured":
        return [f"{k} = {v}" for k, v in pairs]
    return lines


def _cmd_smash(args) -> tuple[int, list[str]]:
    X, Y = _operands(args)
    res = smash_decompose(X, Y)
    v = res.verification
    lines = [str(res.output)]
    for pair, rule in res.branches:
        lines.append(f"branch: {pair} -> {rule}")
    lines.append(f"verified: homology {'ok' if v.homology_match else 'FAIL'},"
                 f" mod2 {'ok' if v.mod2_match else 'FAIL'}")
    pairs = [("command", "smash"), ("input.x", str(X)), ("input.y", str(Y)),
             ("output", str(res.output))]
    pairs += [(f"branch.{i}", f"{p} -> {r}")
              for i, (p, r) in enumerate(res.branches)]
    pairs += [("verify.homology", str(v.homology_match).lower()),
              ("verify.mod2", str(v.mod2_match).lower()),
              ("verify.sq_invariants", str(v.sq_invariants_match).lower())]
    # smash_decompose raises VerificationFailure on any mismatch
    return 0, _emit(lines, args.format, pairs)


def _cmd_homology(args):
    h = homology_of_expression(_parse(args.expr))
    degs = h.degrees()
    lines = [f"H_{d} = " + group_label(h[d]) for d in degs] or ["0"]
    pairs = [("command", "homology"), ("input", args.expr.strip())]
    pairs += [(f"H.{d}", group_label(h[d])) for d in degs]
    return 0, _emit(lines, args.format, pairs)


def _cmd_cohomology(args):
    m = sqmodule_of_expression(_parse(args.expr))
    actions = m.action_lines() if args.sq else []
    lines = [f"H^{d} = " + ", ".join(m.labels(d)) for d in m.degrees()]
    if args.sq:
        lines += actions or ["all Sq actions vanish"]
    lines = lines or ["0"]
    pairs = [("command", "cohomology"), ("input", args.expr.strip())]
    pairs += [(f"dim.{d}", str(m.dim(d))) for d in m.degrees()]
    pairs += [(f"sq.{i}", line) for i, line in enumerate(actions)]
    return 0, _emit(lines, args.format, pairs)


def _cmd_dual(args):
    w = lower(_parse(args.expr))
    d = dual(w, args.sdim)
    lines = [str(d)]
    pairs = [("command", "dual"), ("input", str(w)), ("output", str(d))]
    return 0, _emit(lines, args.format, pairs)


def _generator_lines(gens) -> list[str]:
    """One `generator NAME of order N  [note]` line per generator."""
    return [f"generator {name} of order {order or 'infinite'}"
            + (f"  [{note}]" if note else "") for name, order, note in gens]


def _cmd_pi(args):
    w = lower(_parse(args.expr))
    orders, gens = [], []
    for c in w.summands:
        desc = _cli.hom_group(sphere(args.n), c)
        orders.extend(desc.cyclic)
        gens.extend(desc.generators)
    lines = [group_label(orders)] + _generator_lines(gens)
    pairs = [("command", "pi"), ("degree", str(args.n)), ("input", str(w)),
             ("group", group_label(orders))]
    pairs += [(f"generator.{i}", f"{n}:{o}") for i, (n, o, _) in enumerate(gens)]
    return 0, _emit(lines, args.format, pairs)


def _cmd_homgroup(args):
    X, Y = _operands(args)
    if len(X.summands) == 1 and len(Y.summands) == 1 and not args.deg:
        desc = _cli.hom_group(X.summands[0], Y.summands[0])
        lines = [desc.pretty()] + _generator_lines(desc.generators)
        pairs = [("command", "homgroup"), ("source", str(X)),
                 ("target", str(Y)), ("group", desc.pretty())]
        pairs += [(f"generator.{i}", f"{n}:{o}")
                  for i, (n, o, _) in enumerate(desc.generators)]
        return 0, _emit(lines, args.format, pairs)
    orders = _cli.wedge_hom_order(X, Y, args.deg)
    lines = [group_label(orders)]
    pairs = [("command", "homgroup"), ("source", str(X)), ("target", str(Y)),
             ("degree", str(args.deg)), ("group", group_label(orders))]
    return 0, _emit(lines, args.format, pairs)


def _load_json(path: str):
    """The JSON document in a file; malformed text is an InputError."""
    import json
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:       # not UTF-8, or not JSON
            raise InputError(str(exc)) from None


def _cmd_reduce(args):
    M = _cli.matrix_from_json(_load_json(args.matrix))
    lines = ["input:", _cli.render_matrix(M)]
    pairs = [("command", "reduce"), ("matrix", args.matrix)]
    if args.script:
        M = _cli.run_script(M, _cli.steps_from_json(_load_json(args.script)))
        lines += ["reduced:", _cli.render_matrix(M)]
        for i in range(len(M.rows)):
            for j in range(len(M.cols)):
                pairs.append((f"entry.{i+1}.{j+1}", str(M.entry(i, j))))
    if args.auto:
        rep = _cli.split_cone(M)
        lines.append(f"splits off: {rep.pieces}")
        for note in rep.log:
            lines.append("  " + note)
        if rep.residual:
            lines.append(f"irreducible residual blocks: {len(rep.residual)}")
            for sub in rep.residual:
                lines.append(_cli.render_matrix(sub))
        pairs.append(("splits", str(rep.pieces)))
        pairs.append(("residual_blocks", str(len(rep.residual))))
    return 0, _emit(lines, args.format, pairs)


def _cmd_verify(args):
    X, Y = _operands(args)
    W = lower(_parse(args.w))
    rep = check_decomposition(X, Y, W)
    lines = [f"homology: {'ok' if rep.homology_match else 'FAIL'}",
             f"mod2 dimensions: {'ok' if rep.mod2_match else 'FAIL'}",
             f"sq invariants: {'ok' if rep.sq_invariants_match else 'FAIL'}",
             f"sq isomorphism: {rep.sq_iso_found}"]
    lines += ["note: " + n for n in rep.obstruction_notes]
    pairs = [("command", "verify"), ("x", str(X)), ("y", str(Y)),
             ("w", str(W)),
             ("homology", str(rep.homology_match).lower()),
             ("mod2", str(rep.mod2_match).lower()),
             ("sq_invariants", str(rep.sq_invariants_match).lower()),
             ("sq_iso", str(rep.sq_iso_found).lower())]
    return (1 if rep.first_failure() else 0), _emit(lines, args.format, pairs)


def _cmd_table(args):
    from .smash import _decompose_pair_full, classified_pairs
    counts: dict[str, int] = {}
    grid = classified_pairs()
    for a, b in grid:
        _, branches = _decompose_pair_full(a, b)
        counts[branches[0][1]] = counts.get(branches[0][1], 0) + 1
    lines = [f"{rule}: {n}" for rule, n in sorted(counts.items())]
    lines.append(f"total pairs: {len(grid)}; rules hit: {len(counts)}")
    pairs = [("command", "table")] + [(k, str(v))
                                      for k, v in sorted(counts.items())]
    return 0, _emit(lines, args.format, pairs)


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chang",
        description="smash products, homology and Steenrod data for stable "
                    "two-to-four-cell complexes")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn, *specs, **kw):
        p = sub.add_parser(name, **kw)
        for spec in specs:
            p.add_argument(*spec[0], **spec[1])
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")
        p.set_defaults(fn=fn)
        return p

    add("smash", _cmd_smash, (("x",), {}), (("y",), {}),
        help="decompose X ^ Y")
    add("homology", _cmd_homology, (("expr",), {}),
        help="integral homology of an expression")
    p = add("cohomology", _cmd_cohomology, (("expr",), {}),
            help="mod-2 cohomology, optionally with the Sq action")
    p.add_argument("--sq", action="store_true")
    p = add("dual", _cmd_dual, (("expr",), {}),
            help="Spanier-Whitehead dual")
    p.add_argument("--sdim", type=int, default=None,
                   help="duality dimension m (inferred when omitted)")
    add("pi", _cmd_pi, (("n",), {"type": int}), (("expr",), {}),
        help="stable homotopy group in one degree")
    p = add("homgroup", _cmd_homgroup, (("x",), {}), (("y",), {}),
            help="tabulated hom group [X, Y]")
    p.add_argument("--deg", type=int, default=0)
    p = add("reduce", _cmd_reduce, (("matrix",), {}),
            help="replay a reduction script on a morphism matrix")
    p.add_argument("--script", default=None)
    p.add_argument("--auto", action="store_true")
    add("verify", _cmd_verify, (("x",), {}), (("y",), {}), (("w",), {}),
        help="cross-check the claim X ^ Y ~ W")
    p = add("table", _cmd_table,
            help="decision-table branch coverage over the parameter grid")
    p.add_argument("--branch-coverage", action="store_true",
                   help="accepted and changes nothing: the coverage table "
                        "is always printed")
    return ap


def main(argv=None) -> int:
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, lines = args.fn(args)
    except ChangError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return code


def run_command(argv) -> tuple[int, str]:
    """Run one invocation and capture its stdout (for scripting/tests)."""
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
