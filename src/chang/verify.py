"""Independent cross-checks for decompositions.

Nothing here trusts the decision table: homology goes through the Kunneth
formula, mod-2 data through the Cartan formula, and module isomorphism is
decided by invariant vectors plus a bounded exhaustive search.  The F2
ranks, composites and invertible maps behind those come from `f2`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import f2
from .complexes import SmashAtom, WedgeComplex, wedge
from .homology import GradedAbelianGroup, integral_homology, kunneth
from .steenrod import SqModule, cartan_smash_sq, mod2_cohomology

__all__ = ["graded_iso", "sq_module_compare", "moore_split_obstruction",
           "check_decomposition", "VerificationReport", "ObstructionReport",
           "SEARCH_BUDGET_BITS"]

SEARCH_BUDGET_BITS = 24     # exhaustive isomorphism search cap: 2**24 maps


def graded_iso(g1: GradedAbelianGroup, g2: GradedAbelianGroup) -> bool:
    """Equality of canonical primary-decomposed forms."""
    return g1 == g2


def _invariant_vector(m: SqModule):
    degs = m.degrees()
    if not degs:
        return ()
    lo, hi = min(degs), max(degs)
    vec = []
    for d in range(lo, hi + 1):
        one, two = m.op(1, d), m.op(2, d)
        comp12 = m.sq3(d)                                   # Sq1 Sq2
        comp21 = f2.compose(one, m.op(2, d + 1))            # Sq2 Sq1
        comp22 = f2.compose(two, m.op(2, d + 2))            # Sq2 Sq2
        vec.append((d, m.dim(d), f2.rank(one), f2.rank(two), f2.rank(m.op(4, d)),
                    f2.rank(comp12), f2.rank(comp21), f2.rank(comp22)))
    return tuple(vec)


def sq_module_compare(m1: SqModule, m2: SqModule):
    """(invariants_match, iso_found) with iso_found possibly "skipped".

    The invariant vector holds per-degree dimensions and the ranks of Sq1,
    Sq2, Sq4, Sq1Sq2, Sq2Sq1 and Sq2Sq2.  When it matches and the search
    space of degreewise-invertible maps is at most 2**24, an exhaustive
    backtracking search looks for a map commuting with Sq1 and Sq2.
    """
    if _invariant_vector(m1) != _invariant_vector(m2):
        return False, None
    dims = [m1.dim(d) for d in m1.degrees()]
    if sum(n * n for n in dims) > SEARCH_BUDGET_BITS:
        return True, "skipped"
    degs = m1.degrees()

    def extend(idx: int, chosen: dict[int, tuple[int, ...]]) -> bool:
        if idx == len(degs):
            return True
        d = degs[idx]
        for phi in f2.invertible(m1.dim(d)):
            chosen[d] = phi
            # phi must commute with each Sq^k between d and a chosen d -/+ k
            ok = all(f2.compose(m1.op(k, lo), chosen[lo + k])
                     == f2.compose(chosen[lo], m2.op(k, lo))
                     for k in (1, 2) for lo in (d - k, d)
                     if lo in chosen and lo + k in chosen)
            if ok and extend(idx + 1, chosen):
                return True
            del chosen[d]
        return False

    return True, extend(0, {})


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


def check_decomposition(x, y, w) -> VerificationReport:
    """Cross-check the claim X ^ Y ~ W without consulting the rule table."""
    X = x if isinstance(x, WedgeComplex) else wedge(x)
    Y = y if isinstance(y, WedgeComplex) else wedge(y)
    W = w if isinstance(w, WedgeComplex) else wedge(w)
    expected_h = kunneth(integral_homology(X), integral_homology(Y))
    homology_ok = graded_iso(expected_h, integral_homology(W))
    tensor = cartan_smash_sq(mod2_cohomology(X), mod2_cohomology(Y))
    module = mod2_cohomology(W)
    mod2_ok = tensor.dims() == module.dims()
    inv_ok, iso = sq_module_compare(tensor, module)
    notes: list[str] = []
    for c in W.summands:
        if isinstance(c, SmashAtom):
            rep = moore_split_obstruction(mod2_cohomology(wedge(c)),
                                          c.bottom, c.top)
            status = "hold" if rep.applicable else "not applicable"
            notes.append(f"{c}: split obstructions {status}; "
                         f"excluded Moore degrees {list(rep.excluded_moore_degrees)}")
    return VerificationReport(homology_ok, mod2_ok, inv_ok, iso, tuple(notes))
