"""Independent cross-checks for decompositions.

Nothing here trusts the decision table: homology goes through the Kunneth
formula, mod-2 data through the Cartan formula, and module isomorphism is
decided by invariant profiles plus a bounded search of the F2 kernel of
the maps commuting with Sq1, Sq2 and Sq4; `f2` does all the linear algebra.

Certification works summand by summand.  Homology and the invariant
profile (per degree: dimension and the ranks of Sq1, Sq2, Sq4, Sq1Sq2,
Sq2Sq1, Sq2Sq2) add over wedges, and the tensor product distributes over
them, so the values for X ^ Y are sums over the summand pairs of X and Y,
and those for W sums over its summands.  Each pair and summand is worked
out once per process, keyed by Sq-module type (`steenrod.module_id`) where
only the module matters: each pair's tensor is `steenrod.pair_tensor`'s
memoised module, and each module keeps its profile once computed.  The
isomorphism search sums the memoised pair tensors and summand modules,
reads their cached profiles, and its outcome is memoised by the modules of
the summand pairs and of W.  Profiles are summed degree by degree in
place, and the obstruction note of each atom summand is formatted once per
atom.

`check_decomposition` checks any claim X ^ Y ~ W as a whole (`chang
verify`).  `smash_decompose` knows more: the claim w for each summand pair,
with W the wedge of them.  `check_claims` checks each claim a ^ b ~ w once
per process and adds up only mod-2 dimensions per op.  When w's module is
the pair tensor itself, the pair's own atom, the identity is the
isomorphism witness, so such a claim is certified without a profile or a
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import add

from . import f2
from .complexes import SmashAtom, Summand, WedgeComplex, wedge
from .homology import (GradedAbelianGroup, integral_homology, kunneth,
                       wedge_homology)
# cartan_smash_sq is no longer called here, but `chang.verify.cartan_smash_sq`
# stays a name that bench/tracing.py wraps
from .steenrod import (SqModule, cartan_smash_sq, mod2_cohomology,  # noqa: F401
                       module_id, pair_tensor, wedge_sum)

__all__ = ["graded_iso", "sq_module_compare", "moore_split_obstruction",
           "check_decomposition", "check_claims", "VerificationReport",
           "ObstructionReport", "SEARCH_BUDGET_BITS"]

SEARCH_BUDGET_BITS = 24     # isomorphism search cap: maps of 24 entries

Profile = dict[int, tuple[int, ...]]


def graded_iso(g1: GradedAbelianGroup, g2: GradedAbelianGroup) -> bool:
    """Equality of canonical primary-decomposed forms."""
    return g1 == g2


def _rank(masks) -> int:
    return f2.rank(masks) if masks else 0


# the composites whose ranks make up a profile row, after its dimension;
# (2, 1) is Sq^1 Sq^2, Sq^2 applied first
_PROFILE_OPS = ((1,), (2,), (4,), (2, 1), (1, 2), (2, 2))


def _profile(m: SqModule) -> Profile:
    """Per degree of m: (dim, rk Sq1, rk Sq2, rk Sq4, rk Sq1Sq2, rk Sq2Sq1,
    rk Sq2Sq2).  Every entry adds over direct sums.  Computed once per
    module and kept on it; a zero block has rank 0 without elimination."""
    if m.profile is None:
        m.profile = {d: (m.dim(d), *(_rank(m.composite(d, *ks))
                                     for ks in _PROFILE_OPS))
                     for d in m.degrees()}
    return m.profile


def _profile_sum(parts) -> Profile:
    """Profile of the direct sum of modules with the given profiles, each
    degree's row added up in place."""
    out: Profile = {}
    for part in parts:
        for d, row in part.items():
            have = out.get(d)
            out[d] = row if have is None else tuple(map(add, have, row))
    return out


def sq_module_compare(m1: SqModule, m2: SqModule):
    """(invariants_match, iso_found) with iso_found possibly "skipped".

    The invariants are the profiles of the two modules.  When they match
    and a degreewise map m1 -> m2 has at most 24 entries, the maps commuting
    with Sq1, Sq2 and Sq4, an F2 kernel, are searched for an isomorphism.
    """
    if _profile(m1) != _profile(m2):
        return False, None
    dims = m1.dims()
    # one unknown per entry: bit off[d] + n*i + j of a map g is entry j of
    # row i of its block in degree d, which has dimension n
    off, size = {}, 0
    for d, n in dims.items():
        off[d], size = size, size + n * n
    if size > SEARCH_BUDGET_BITS:
        return True, "skipped"

    # column u is the defect Sq^k o g - g o Sq^k of the map g = 1 << u, with
    # the block of each Sq^k: lo -> lo + k at bits of its own
    columns, at = [0] * size, 0
    for k in (1, 2, 4):
        for lo in (d for d in dims if d + k in dims):
            a, b, n, w = m1.op(k, lo), m2.op(k, lo), dims[lo], dims[lo + k]
            for r in range(n):
                for j in range(n):      # entry j of row r in degree lo
                    columns[off[lo] + n * r + j] ^= b[j] << at
                for u in range(w * w):  # entry u % w of row u // w in lo + k
                    if a[r] >> u // w & 1:
                        columns[off[lo + k] + u] ^= 1 << at + u % w
                at += w

    # whether the span of the vectors holds a map invertible on each block
    # (o, n), the n x n block at bit o.  t -> t * odd mod 2**h is a
    # bijection; the odd factor 2**32 / golden ratio spreads the first tries
    # over the span, where counting up would try its first vectors only
    def invertible(part: frozenset, vectors: list[int]) -> bool:
        h = len(vectors)
        for t in range(1 << h):
            g, phi = t * 0x9E3779B9 % (1 << h), 0
            for i, v in enumerate(vectors):
                if g >> i & 1:
                    phi ^= v
            if all(f2.rank([phi >> o + n * i & ~(-1 << n) for i in range(n)])
                   == n for o, n in part):
                return True
        return False

    # kernel vectors whose blocks lie in disjoint sets of degrees are tried
    # apart: each degree's block starts as a part of its own with no
    # vectors, and a vector merges the parts it reaches
    parts = {frozenset([(off[d], n)]): [] for d, n in dims.items()}
    for v in f2.kernel(columns):
        hit = [p for p in parts if any(v >> o & ~(-1 << n * n) for o, n in p)]
        parts[frozenset().union(*hit)] = sum(map(parts.pop, hit), [v])
    return True, all(invertible(p, vs) for p, vs in parts.items())


@dataclass(frozen=True)
class ObstructionReport:
    applicable: bool
    sq4_bottom_to_top: bool = False
    two_classes_hit_top: bool = False
    bottom_class_condition: bool = False
    sq2_middle_iso: bool = False
    excluded_moore_degrees: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()


def moore_split_obstruction(m: SqModule, bottom: int, top: int) -> ObstructionReport:
    """Necessary conditions against splitting, for a complex with single
    bottom/top classes four degrees apart.

    Checks that Sq4 carries the bottom class to the top class, that at
    least two distinct degree-(top-2) classes hit the top class under Sq2,
    and that Sq2 of the bottom class is nonzero with Sq2 Sq2 = 0; when Sq2
    is an isomorphism in a middle degree d, Moore summands with homology in
    degrees d or d+1 are excluded.
    """
    notes: list[str] = []
    excluded: set[int] = set()
    mid_iso = False
    for d in range(bottom, top - 1):
        if m.dim(d) and m.is_iso(2, d):
            mid_iso = True
            excluded.update((d, d + 1))
            notes.append(f"Sq^2: H^{d} -> H^{d+2} is an isomorphism; no Moore "
                         f"summand with homology in degree {d} or {d+1}")
    if top - bottom != 4 or m.dim(bottom) != 1 or m.dim(top) != 1:
        return ObstructionReport(False, sq2_middle_iso=mid_iso,
                                 excluded_moore_degrees=tuple(sorted(excluded)),
                                 notes=("bottom/top shape outside the "
                                        "four-step window",) + tuple(notes))
    sq4_hit = m.op(4, bottom)[0] == 1
    if not sq4_hit:
        return ObstructionReport(False, sq2_middle_iso=mid_iso,
                                 excluded_moore_degrees=tuple(sorted(excluded)),
                                 notes=("Sq^4 bottom -> top vanishes",) + tuple(notes))
    # with H^top one-dimensional, Sq^2 on degree top-2 is a linear form; the
    # classes it sends to the top class are a coset of its kernel, 2^(n-1)
    # of them whenever it is nonzero
    two_hit = m.dim(top - 2) >= 2 and any(m.op(2, top - 2))
    v = m.op(2, bottom)[0]
    bottom_ok = v != 0 and f2.compose((v,), m.op(2, bottom + 2))[0] == 0
    applicable = sq4_hit and two_hit and bottom_ok
    if applicable:
        notes.append("any splitting keeps the bottom, top and top-1 homology "
                     "in one indecomposable piece; the complement is a wedge "
                     f"of three-torsion-cell pieces in degrees "
                     f"{bottom+1}..{top-1}")
    return ObstructionReport(applicable, sq4_hit, two_hit, bottom_ok, mid_iso,
                             tuple(sorted(excluded)), tuple(notes))


@dataclass(frozen=True)
class VerificationReport:
    homology_match: bool
    mod2_match: bool
    sq_invariants_match: bool
    sq_iso_found: object            # True / False / "skipped" / None
    obstruction_notes: tuple[str, ...] = ()

    def all_true(self) -> bool:
        return self.homology_match and self.mod2_match and self.sq_invariants_match

    def first_failure(self) -> str | None:
        """The first check with a definite mismatch ("skipped" is none)."""
        checks = (("homology", self.homology_match),
                  ("mod-2 dimension", self.mod2_match),
                  ("Sq invariant", self.sq_invariants_match),
                  ("Sq isomorphism", self.sq_iso_found is not False))
        return next((name for name, ok in checks if not ok), None)


def _summand_pairs(X: WedgeComplex, Y: WedgeComplex):
    """Each summand pair of X ^ Y, ordered by sort_key as an atom orders its
    factors.  The Kunneth and Cartan formulas are symmetric up to
    isomorphism, so the two orders of a pair share one memo entry."""
    for a in X.summands:
        for b in Y.summands:
            yield (a, b) if a.sort_key <= b.sort_key else (b, a)


@cache
def _pair_homology(a: Summand, b: Summand) -> GradedAbelianGroup:
    return kunneth(integral_homology(a), integral_homology(b))


def _smash_homology(X: WedgeComplex, Y: WedgeComplex) -> GradedAbelianGroup:
    """H(X ^ Y) by the Kunneth formula, summed over the summand pairs."""
    return wedge_homology(_pair_homology(a, b) for a, b in _summand_pairs(X, Y))


# memos keyed by Sq-module ids (`module_id`): obstruction reports per
# (module, bottom, top), search outcomes per (modules of the ordered summand
# pairs, of W)
_OBSTRUCTIONS: dict[tuple[int, int, int], ObstructionReport] = {}
_SEARCHES: dict[tuple[tuple[int, ...], ...], object] = {}


def _direct_sum(parts: list[SqModule]) -> SqModule:
    """The direct sum of shared modules for the search, with its profile
    summed from theirs; a single part is used as it is."""
    if len(parts) == 1:
        return parts[0]
    total = wedge_sum(parts)
    total.profile = _profile_sum(map(_profile, parts))
    return total


def _smash_profile(X: WedgeComplex, Y: WedgeComplex) -> Profile:
    """Profile of H*(X) @ H*(Y), summed over the summand pairs."""
    return _profile_sum(_profile(pair_tensor(a, b))
                        for a, b in _summand_pairs(X, Y))


def _wedge_profile(W: WedgeComplex) -> Profile:
    """Profile of H*(W), summed over its summands."""
    return _profile_sum(_profile(mod2_cohomology(c)) for c in W.summands)


def _search(pairs, W: WedgeComplex) -> object:
    """Outcome of the Sq-isomorphism search for X ^ Y ~ W, given the
    summand pairs of X ^ Y.  It depends only on the modules, so it is kept
    per module ids.  The sum of the pair tensors is isomorphic to
    H*(X) @ H*(Y), and the search is exhaustive, so searching it gives the
    whole-op tensor's outcome."""
    key = (tuple(module_id(c) for pair in pairs for c in pair),
           tuple(module_id(c) for c in W.summands))
    if key not in _SEARCHES:
        tensor = _direct_sum([pair_tensor(a, b) for a, b in pairs])
        module = _direct_sum([mod2_cohomology(c) for c in W.summands])
        _SEARCHES[key] = sq_module_compare(tensor, module)[1]
    return _SEARCHES[key]


def _iso_verdict(dims: dict[int, int], pairs, W: WedgeComplex) -> object:
    """The whole-op search when a degreewise map of the given dimensions
    has at most SEARCH_BUDGET_BITS entries, else "skipped"."""
    if sum(n * n for n in dims.values()) > SEARCH_BUDGET_BITS:
        return "skipped"
    return _search(pairs, W)


@cache
def _obstruction_note(c: SmashAtom) -> str:
    """The obstruction note of one atom summand, formatted once per atom.
    Atoms with one module and cell range share one report."""
    key = (module_id(c), c.bottom, c.top)
    rep = _OBSTRUCTIONS.get(key)
    if rep is None:
        rep = _OBSTRUCTIONS[key] = moore_split_obstruction(
            mod2_cohomology(c), c.bottom, c.top)
    status = "hold" if rep.applicable else "not applicable"
    return (f"{c}: split obstructions {status}; "
            f"excluded Moore degrees {list(rep.excluded_moore_degrees)}")


def check_decomposition(x, y, w) -> VerificationReport:
    """Cross-check the claim X ^ Y ~ W without consulting the rule table."""
    X = x if isinstance(x, WedgeComplex) else wedge(x)
    Y = y if isinstance(y, WedgeComplex) else wedge(y)
    W = w if isinstance(w, WedgeComplex) else wedge(w)
    homology_ok = graded_iso(_smash_homology(X, Y), integral_homology(W))
    tensor, module = _smash_profile(X, Y), _wedge_profile(W)
    dims = {d: row[0] for d, row in tensor.items()}
    mod2_ok = dims == {d: row[0] for d, row in module.items()}
    inv_ok = tensor == module
    iso = _iso_verdict(dims, list(_summand_pairs(X, Y)), W) if inv_ok else None
    return VerificationReport(homology_ok, mod2_ok, inv_ok, iso, _notes(W))


def _notes(W: WedgeComplex) -> tuple[str, ...]:
    return tuple(_obstruction_note(c) for c in W.summands
                 if isinstance(c, SmashAtom))


# --- the smash path's gate: one check per claim ---------------------------
#
# smash_decompose claims a ^ b ~ w for each summand pair (a, b) of X ^ Y,
# and W is the wedge of the claimed w.  Each claim is checked once per
# process, keyed by its ordered pair and its w; its Sq check is shared by
# every claim with the same module ids.  The op itself only adds up mod-2
# dimensions, so that a wedge that drops or merges a summand still fails.

Claim = tuple[Summand, Summand, WedgeComplex]

# (ordered pair, w) -> (homology ok, Sq invariants ok, identity witness,
# mod-2 dimensions of the pair tensor as (degree, dim) items)
_CLAIMS: dict[Claim, tuple[bool, bool, bool, tuple]] = {}
# (module ids of the ordered pair, of w's summands) -> the last three
_SQ_CLAIMS: dict[tuple, tuple[bool, bool, tuple]] = {}


def _sq_claim(a: Summand, b: Summand, w: WedgeComplex
              ) -> tuple[bool, bool, tuple]:
    """The Sq check of the claim a ^ b ~ w, per module ids.  When w is one
    summand whose module is the pair tensor itself (the pair's own atom),
    the identity is an isomorphism; otherwise the tensor's profile is
    compared with the summed profiles of w's summands."""
    key = (module_id(a), module_id(b),
           tuple(module_id(c) for c in w.summands))
    got = _SQ_CLAIMS.get(key)
    if got is None:
        tensor = pair_tensor(a, b)
        parts = [mod2_cohomology(c) for c in w.summands]
        if len(parts) == 1 and parts[0] is tensor:
            inv_ok = identity = True
        else:
            identity = False
            inv_ok = _profile(tensor) == _profile_sum(map(_profile, parts))
        got = _SQ_CLAIMS[key] = (inv_ok, identity,
                                 tuple(tensor.dims().items()))
    return got


def _claim(a: Summand, b: Summand, w: WedgeComplex
           ) -> tuple[bool, bool, bool, tuple]:
    """The checks of one claim a ^ b ~ w, with the pair ordered by sort_key
    as `_summand_pairs` orders it."""
    key = (a, b, w)
    got = _CLAIMS.get(key)
    if got is None:
        got = _CLAIMS[key] = (
            graded_iso(_pair_homology(a, b), integral_homology(w)),
            *_sq_claim(a, b, w))
    return got


@cache
def _summand_dims(c: Summand) -> tuple[tuple[int, int], ...]:
    return tuple(mod2_cohomology(c).dims().items())


def check_claims(claims: list[Claim], W: WedgeComplex
                 ) -> VerificationReport:
    """Cross-check X ^ Y ~ W from the claims (a, b, w), one per summand
    pair (a, b) of X ^ Y, where W is the wedge of the claimed w.

    Homology and Sq invariants are checked per claim; mod-2 dimensions are
    summed over the claims and compared with W's.  sq_iso_found is True
    when every claim has the identity witness; otherwise it is the whole-op
    search's outcome, or "skipped" for size, as in check_decomposition."""
    homology_ok = inv_ok = identity = True
    pairs = []
    dims: dict[int, int] = {}
    for a, b, w in claims:
        if a.sort_key > b.sort_key:
            a, b = b, a
        pairs.append((a, b))
        h_ok, sq_ok, own, tensor_dims = _claim(a, b, w)
        homology_ok &= h_ok
        inv_ok &= sq_ok
        identity &= own
        for d, n in tensor_dims:
            dims[d] = dims.get(d, 0) + n
    have: dict[int, int] = {}
    for c in W.summands:
        for d, n in _summand_dims(c):
            have[d] = have.get(d, 0) + n
    if not inv_ok:
        iso = None
    elif identity:
        iso = True
    else:
        iso = _iso_verdict(dims, pairs, W)
    return VerificationReport(homology_ok, dims == have, inv_ok, iso,
                              _notes(W))
