"""Smash-product decomposition of wedges of classified complexes.

decompose_pair knows one rule per (unordered, duality-normalized) pair of
elementary pieces; smash_decompose distributes over wedges, reduces every
decomposable summand the rules emit, and will not hand back a result that an
independent cross-check refutes (homology against the Kunneth value, mod-2
dimensions, Sq invariants, or a search that finds no Sq-isomorphism).  The
check goes claim by claim: each summand pair's answer is one claim, checked
once per process (`verify.check_claims`).

The same table decides which atoms exist: a pair it keeps whole
(stays_whole) is the only kind of pair a SmashAtom may hold.

An answer is worked out in three layers, and only the lower two keep it:

    _solve    the uncached seam: orders the pair, guards the depth and
              returns the table's tuples, or the pair's atom, built once
    _table    the rules, evaluated once per ordered base pair
    _placed   the canonical wedge of an answer suspended by the pair's
              shift, built once per (answer, shift)

Nothing above _solve is memoised, so a _solve replaced after every memo is
warm still decides what smash_decompose returns, and the gate still checks
it.

The four-cell ^ four-cell family is normalized so that the largest torsion
exponent sits in the s-slot of the first factor (swapping factors and/or
passing to the dual as needed); the three remaining shapes are

    s > r', s'      ->  C(r',9,s') v  [ Cbot(r,5) ^ C(r',5,s') ]
    s = r', s' >= r ->  C(r,9,s)   v  [ Ctop(5,s') ^ C(r,5,s)  ]
    s = s', r' < s  ->  C(a,9,s)   v  [ Cbot(b,5)  ^ C(a,5,s)  ]   a<=b

where the bracketed smashes reduce further by their own rules.  The middle
line follows the proof-level statement for that case (the flat table form
of it fails the homology check and is rejected).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from itertools import product
from typing import NamedTuple

from .complexes import (POINT, ElementaryComplex, SmashAtom, Summand,
                        WedgeComplex, base_form, cbot, ceta, cfull, ctop,
                        dual, moore, smash_atom, suspend, wedge)
from .errors import UnclassifiedPair, VerificationFailure
# check_decomposition is no longer called here, but
# `chang.smash.check_decomposition` stays a name that bench/tracing.py wraps
from .verify import (Claim, VerificationReport, check_claims,  # noqa: F401
                     check_decomposition)

__all__ = ["smash_decompose", "decompose_pair", "classified_pairs",
           "stays_whole", "DecompositionResult", "UnclassifiedPair",
           "VerificationFailure", "Branch"]

Branch = tuple[str, str]        # (pair description, rule id)
PARAMS = (1, 2, 3)              # the exponent grid of classified_pairs


class DecompositionResult(NamedTuple):
    input: tuple[WedgeComplex, WedgeComplex]
    output: WedgeComplex
    branches: tuple[Branch, ...]
    verification: VerificationReport


def _br(a: Summand, b: Summand, rule: str) -> Branch:
    return (f"({a}, {b})", rule)


def _solve(a: ElementaryComplex, b: ElementaryComplex,
           depth: int = 0) -> tuple[tuple[Summand, ...], tuple[Branch, ...]]:
    """Decompose a ^ b for base-form Moore/Chang pieces (no spheres here).

    The uncached entry: it orders the pair, guards the depth and hands back
    the table's tuples, or the pair's atom when the table keeps it whole."""
    if depth > 6:
        raise RuntimeError("reduction did not terminate")
    if a.sort_key > b.sort_key:
        a, b = b, a
    out, branches = _table(a, b, depth)
    return ((SmashAtom(a, b),) if out is None else out), branches


def stays_whole(a: ElementaryComplex, b: ElementaryComplex) -> bool:
    """Whether the table keeps the base pair a ^ b (a <= b in the canonical
    order, as an atom stores it) in one piece: the only pairs that may be
    stored as atoms."""
    try:
        return _table(a, b, 0)[0] is None
    except UnclassifiedPair:
        return False


@cache
def _table(a: ElementaryComplex, b: ElementaryComplex, depth: int
           ) -> tuple[tuple[Summand, ...] | None, tuple[Branch, ...]]:
    """The table's answer for an ordered base pair, memoised; summands are
    None when a ^ b stays whole, which makes it an atom, and else the
    complex it is (M(2,3)^M(2,3) is C(1,8,1))."""
    out, branches = _rules(a, b, depth)
    return (None if out is None else tuple(out)), tuple(branches)


def _rules(a: ElementaryComplex, b: ElementaryComplex, depth: int
           ) -> tuple[Sequence[Summand] | None, Sequence[Branch]]:
    """The decision table, one rule per ordered base pair."""
    ka, kb = a.kind, b.kind
    if kb == "point":               # points sort last and are no table row
        raise UnclassifiedPair(f"{a} ^ {b} is outside the classified table")

    if ka == "moore" and kb == "moore":
        if a.p != b.p:
            return [], [_br(a, b, "moore-moore/coprime")]
        m = min(a.r, b.r)
        if a.p == 2:
            if a.r == b.r == 1:     # the torsion square is Chang's C(1,8,1)
                return [cfull(1, 8, 1)], [_br(a, b, "moore-moore/2-square")]
            return [moore(2, m, 6), moore(2, m, 7)], [_br(a, b, "moore-moore/2-min")]
        return [moore(a.p, m, 6), moore(a.p, m, 7)], [_br(a, b, "moore-moore/odd-min")]

    if ka == "moore" and a.p != 2:
        # odd torsion against the 2-primary Chang families
        rule = f"odd-moore-{kb}"
        out = {"ceta": [moore(a.p, a.r, 6), moore(a.p, a.r, 8)],
               "cbot": [moore(a.p, a.r, 8)],
               "ctop": [moore(a.p, a.r, 6)],
               "cfull": []}[kb]
        return out, [_br(a, b, rule)]

    if ka == "moore":                       # p = 2 against Chang
        u = a.r
        if kb == "ceta":
            return None, [_br(a, b, "moore2-ceta/atom")]
        if kb == "cbot":
            if u > b.r:
                return None, [_br(a, b, "moore2-cbot/u>r")]
            return ([smash_atom(a, ceta(5)), moore(2, u, 7)],
                    [_br(a, b, "moore2-cbot/r>=u")])
        if kb == "ctop":
            if u > b.s:
                return None, [_br(a, b, "moore2-ctop/u>s")]
            return ([smash_atom(a, ceta(5)), moore(2, u, 7)],
                    [_br(a, b, "moore2-ctop/s>=u")])
        # cfull
        r, s = b.r, b.s
        if u > r and u > s:
            return ([cfull(r, 8, s), cfull(r, 9, s)],
                    [_br(a, b, "moore2-cfull/u>r,s")])
        if r < u <= s:
            sub, brs = _solve(a, cbot(r, 5), depth + 1)
            return ((*sub, moore(2, u, 7)),
                    (_br(a, b, "moore2-cfull/r<u<=s"), *brs))
        if s < u <= r:
            sub, brs = _solve(a, ctop(5, s), depth + 1)
            return ((*sub, moore(2, u, 7)),
                    (_br(a, b, "moore2-cfull/s<u<=r"), *brs))
        return ([smash_atom(a, ceta(5)), moore(2, u, 7), moore(2, u, 7)],
                [_br(a, b, "moore2-cfull/u<=r,s")])

    if ka == "ceta" or (ka, kb) in (("ctop", "ctop"), ("ctop", "cbot"),
                                    ("cbot", "cbot")):
        return None, [_br(a, b, f"{ka}-{kb}/atom")]

    if ka == "cbot" and kb == "cfull":
        u, r, s = a.r, b.r, b.s
        if u >= r and u >= s:
            return ([cfull(r, 9, s), smash_atom(ceta(5), b)],
                    [_br(a, b, "cbot-cfull/u>=r,s")])
        if u == s < r:
            return ([cfull(s, 9, r), smash_atom(ceta(5), cfull(s, 5, s))],
                    [_br(a, b, "cbot-cfull/u=s<r")])
        return None, [_br(a, b, "cbot-cfull/atom")]

    if ka == "ctop" and kb == "cfull":
        u, r, s = a.s, b.r, b.s
        if u >= r and u >= s:
            return ([cfull(r, 9, s), smash_atom(ceta(5), b)],
                    [_br(a, b, "ctop-cfull/u>=r,s")])
        if u == r < s:
            return ([cfull(s, 9, r), smash_atom(ceta(5), cfull(r, 5, r))],
                    [_br(a, b, "ctop-cfull/u=r<s")])
        return None, [_br(a, b, "ctop-cfull/atom")]

    if ka == "cfull" and kb == "cfull":
        return _solve_full_full(a, b, depth)

    raise UnclassifiedPair(f"{a} ^ {b} is outside the classified table")


def _solve_full_full(a: ElementaryComplex, b: ElementaryComplex,
                     depth: int
                     ) -> tuple[tuple[Summand, ...], tuple[Branch, ...]]:
    r, s, rp, sp = a.r, a.s, b.r, b.s
    mx = max(r, s, rp, sp)
    if s == mx and (rp != s or sp >= r):
        if rp < s and sp < s:
            sub, brs = _solve(cbot(r, 5), cfull(rp, 5, sp), depth + 1)
            return ((cfull(rp, 9, sp), *sub),
                    (_br(a, b, "cfull-cfull/s-max-strict"), *brs))
        if rp == s:
            sub, brs = _solve(ctop(5, sp), cfull(r, 5, s), depth + 1)
            return ((cfull(r, 9, s), *sub),
                    (_br(a, b, "cfull-cfull/s=r'"), *brs))
        # sp == s
        lo, hi = sorted((r, rp))
        sub, brs = _solve(cbot(hi, 5), cfull(lo, 5, s), depth + 1)
        return ((cfull(lo, 9, s), *sub),
                (_br(a, b, "cfull-cfull/s=s'"), *brs))
    if sp == mx:
        sub, brs = _solve_full_full(b, a, depth + 1)
        return sub, (_br(a, b, "cfull-cfull/swap"), *brs)
    # the torsion maximum sits in an r-slot (also in s only when r' = s and
    # s' < r): pass to the dual pair
    sub, brs = _solve_full_full(cfull(s, 5, r), cfull(sp, 5, rp), depth + 1)
    out = dual(wedge(*sub), 16)
    return out.summands, (_br(a, b, "cfull-cfull/dual"), *brs)


def classified_pairs() -> list[tuple[ElementaryComplex, ElementaryComplex]]:
    """Every base pair type the rules above classify, over the exponent
    grid PARAMS, one ordering each."""
    pairs = []
    for u, v in product(PARAMS, repeat=2):
        pairs.append((moore(2, u, 3), moore(2, v, 3)))
    for u in PARAMS:
        pairs.append((moore(2, u, 3), ceta(5)))
    for u, r in product(PARAMS, repeat=2):
        pairs.append((moore(2, u, 3), cbot(r, 5)))
        pairs.append((moore(2, u, 3), ctop(5, r)))
    for u, r, s in product(PARAMS, repeat=3):
        pairs.append((moore(2, u, 3), cfull(r, 5, s)))
    pairs.append((ceta(5), ceta(5)))
    for r in PARAMS:
        pairs.append((ceta(5), cbot(r, 5)))
        pairs.append((ceta(5), ctop(5, r)))
    for r, s in product(PARAMS, repeat=2):
        pairs.append((ceta(5), cfull(r, 5, s)))
        pairs.append((cbot(r, 5), cbot(s, 5)))
        pairs.append((cbot(r, 5), ctop(5, s)))
        pairs.append((ctop(5, r), ctop(5, s)))
    for u, r, s in product(PARAMS, repeat=3):
        pairs.append((cbot(u, 5), cfull(r, 5, s)))
        pairs.append((ctop(5, u), cfull(r, 5, s)))
    for r, s, rp, sp in product(PARAMS, repeat=4):
        pairs.append((cfull(r, 5, s), cfull(rp, 5, sp)))
    for p in (3, 5):
        for u in PARAMS:
            for v in PARAMS:
                pairs.append((moore(p, u, 3), moore(p, v, 3)))
                pairs.append((moore(p, u, 3), moore(2, v, 3)))
            pairs.append((moore(p, u, 3), ceta(5)))
            for r in PARAMS:
                pairs.append((moore(p, u, 3), cbot(r, 5)))
                pairs.append((moore(p, u, 3), ctop(5, r)))
            for r, s in product(PARAMS, repeat=2):
                pairs.append((moore(p, u, 3), cfull(r, 5, s)))
    return pairs


def decompose_pair(a: Summand, b: Summand) -> tuple[WedgeComplex, str]:
    """Decompose one pair of summands; returns the wedge and the rule id."""
    w, branches = _decompose_pair_full(a, b)
    return w, branches[0][1]


def _decompose_pair_full(a: Summand, b: Summand
                         ) -> tuple[WedgeComplex, Sequence[Branch]]:
    """Decompose a ^ b for two summands: smashing with a point is a point,
    with a sphere a suspension (of an atom too); elementary pairs go through
    the table."""
    if POINT in (a, b):
        return wedge(), [_br(a, b, "point")]
    for x, y in ((a, b), (b, a)):
        if isinstance(x, ElementaryComplex) and x.kind == "sphere":
            return suspend(y, x.dim), [_br(a, b, "sphere")]
    if isinstance(a, SmashAtom) or isinstance(b, SmashAtom):
        raise UnclassifiedPair(
            f"{a} ^ {b}: smashes with an atom factor are only "
            "classified against spheres")
    a0, sa = base_form(a)
    b0, sb = base_form(b)
    out, branches = _solve(a0, b0)
    return _placed(tuple(out), sa + sb), branches


@cache
def _placed(out: tuple[Summand, ...], shift: int) -> WedgeComplex:
    """The canonical wedge of a table answer, suspended by shift; memoised
    per (answer, shift), below the `_solve` seam, so a patched `_solve` is
    still placed as it answers."""
    w = wedge(*out)
    return suspend(w, shift) if shift else w


def smash_decompose(x, y) -> DecompositionResult:
    """Decompose X ^ Y for wedges of elementary pieces.

    An atom is accepted as input only against spheres (smashing with S^m is
    suspension); anything else outside the table raises UnclassifiedPair.
    Every definite mismatch of the cross-checks raises VerificationFailure;
    an Sq-isomorphism search "skipped" for size does not.
    """
    X = x if isinstance(x, WedgeComplex) else wedge(x)
    Y = y if isinstance(y, WedgeComplex) else wedge(y)
    claims: list[Claim] = []
    branches: list[Branch] = []
    for cx in X.summands:
        for cy in Y.summands:
            w, brs = _decompose_pair_full(cx, cy)
            claims.append((((cx, cy),), w))
            branches.extend(brs)
    output = wedge(*(w for _, w in claims))
    report = check_claims(claims, output)
    failed = report.first_failure()
    if failed:
        raise VerificationFailure(
            f"{failed} mismatch decomposing {X} ^ {Y} -> {output}")
    return DecompositionResult((X, Y), output, tuple(branches), report)
