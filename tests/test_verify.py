import random
from itertools import product

from hypothesis import given, settings, strategies as st

from chang.complexes import (cbot, ceta, cfull, ctop, moore, smash_atom,
                             sphere, wedge)
from chang.homology import GradedAbelianGroup
from chang.smash import smash_decompose
from chang.steenrod import SqModule, cartan_smash_sq, mod2_cohomology
from chang.verify import (check_decomposition, graded_iso,
                          moore_split_obstruction, sq_module_compare)

from conftest import PARAMS, classified_pairs


def G(comps):
    return GradedAbelianGroup(comps)


def test_graded_iso_examples():
    assert graded_iso(G({7: [2, 4]}), G({7: [4, 2]}))
    assert not graded_iso(G({7: [4]}), G({7: [2, 2]}))
    # a true decomposition instance
    from chang.homology import integral_homology, kunneth
    lhs = integral_homology(wedge(cfull(1, 8, 1), cfull(1, 9, 1)))
    rhs = kunneth(integral_homology(wedge(moore(2, 3, 3))),
                  integral_homology(wedge(cfull(1, 5, 1))))
    assert graded_iso(lhs, rhs)


def test_graded_iso_is_equivalence():
    groups = [G({}), G({3: [2]}), G({3: [2]}), G({3: [4]}), G({4: [0, 2]})]
    for a in groups:
        assert graded_iso(a, a)
        for b in groups:
            assert graded_iso(a, b) == graded_iso(b, a)
            for c in groups:
                if graded_iso(a, b) and graded_iso(b, c):
                    assert graded_iso(a, c)


def test_sq_compare_reflexive_and_detects_sq2():
    m = mod2_cohomology(wedge(cfull(1, 5, 2)))
    assert sq_module_compare(m, m) == (True, True)
    a = mod2_cohomology(wedge(ceta(5)))
    b = mod2_cohomology(wedge(sphere(3), sphere(5)))
    ok, iso = sq_module_compare(a, b)
    assert not ok and iso is None


def test_sq_compare_permuted_basis():
    rng = random.Random(7)
    m = cartan_smash_sq(mod2_cohomology(wedge(moore(2, 1, 3))),
                        mod2_cohomology(wedge(cfull(1, 5, 1))))
    perms = {}
    for d in m.degrees():
        p = list(range(m.dim(d)))
        rng.shuffle(p)
        perms[d] = p
    assert sq_module_compare(m, m.permuted(perms)) == (True, True)


def test_sq_compare_skips_oversized_search():
    m = cartan_smash_sq(mod2_cohomology(wedge(cfull(1, 5, 2))),
                        mod2_cohomology(wedge(cfull(2, 5, 1))))
    ok, iso = sq_module_compare(m, m)
    assert ok and iso == "skipped"      # 1+16+36+16+1 > 24 search bits


def test_sq_compare_same_invariants_different_wedge():
    # Moore wedge vs the twisted four-cell complex: the Sq^2 rank differs
    tensor = cartan_smash_sq(mod2_cohomology(wedge(moore(2, 1, 3))),
                             mod2_cohomology(wedge(moore(2, 1, 3))))
    fake = mod2_cohomology(wedge(moore(2, 1, 6), moore(2, 1, 7)))
    ok, _ = sq_module_compare(tensor, fake)
    assert not ok


def test_obstruction_on_bot_bot_smash():
    for r, rp in ((1, 1), (1, 2), (3, 2)):
        m = cartan_smash_sq(mod2_cohomology(wedge(cbot(r, 5))),
                            mod2_cohomology(wedge(cbot(rp, 5))))
        rep = moore_split_obstruction(m, 6, 10)
        assert rep.applicable
        assert rep.sq4_bottom_to_top and rep.two_classes_hit_top
        assert rep.bottom_class_condition
        assert rep.sq2_middle_iso
        assert {7, 8} <= set(rep.excluded_moore_degrees)


def test_obstruction_not_applicable_for_sphere_wedge():
    m = mod2_cohomology(wedge(sphere(6), sphere(10)))
    rep = moore_split_obstruction(m, 6, 10)
    assert not rep.applicable
    assert "Sq^4" in rep.notes[0]


def test_obstruction_census_note_for_bot_full_smash():
    m = cartan_smash_sq(mod2_cohomology(wedge(cbot(2, 5))),
                        mod2_cohomology(wedge(cfull(1, 5, 2))))
    rep = moore_split_obstruction(m, 6, 10)
    assert rep.applicable
    assert any("three-torsion-cell" in n for n in rep.notes)
    assert 7 in rep.excluded_moore_degrees and 8 in rep.excluded_moore_degrees


def test_check_decomposition_positive_instances():
    rep = check_decomposition(wedge(moore(2, 2, 3)), wedge(cfull(1, 5, 1)),
                              wedge(cfull(1, 8, 1), cfull(1, 9, 1)))
    assert rep.homology_match and rep.mod2_match and rep.sq_invariants_match
    rep = check_decomposition(
        wedge(moore(2, 1, 3)), wedge(cbot(2, 5)),
        wedge(moore(2, 1, 7), smash_atom(moore(2, 1, 3), ceta(5))))
    assert rep.homology_match and rep.mod2_match and rep.sq_invariants_match
    assert rep.obstruction_notes        # atoms get obstruction commentary


def test_check_decomposition_negative_controls():
    # wrong homology
    rep = check_decomposition(wedge(cbot(1, 5)), wedge(cbot(2, 5)),
                              wedge(sphere(6), sphere(7)))
    assert not rep.homology_match
    # right homology and mod-2 dimensions, wrong Sq structure
    rep = check_decomposition(wedge(moore(2, 1, 3)), wedge(moore(2, 1, 3)),
                              wedge(moore(2, 1, 6), moore(2, 1, 7)))
    assert rep.homology_match and rep.mod2_match
    assert not rep.sq_invariants_match


def _two_classes_hit_top_by_enumeration(m, bottom, top):
    # the field as the obstruction reports it: False unless the window has
    # single bottom/top classes four apart and Sq^4 joins them
    if (top - bottom != 4 or m.dim(bottom) != 1 or m.dim(top) != 1
            or m.op(4, bottom)[0] != 1):
        return False
    n, masks = m.dim(top - 2), m.op(2, top - 2)
    hits = 0
    for bits in range(1, 1 << n):
        img = 0
        for j in range(n):
            if bits >> j & 1:
                img ^= masks[j]
        hits += img == 1
    return hits >= 2


def test_two_classes_hit_top_matches_enumeration_over_grid_atoms():
    seen = []
    for a, b in classified_pairs():
        for c in smash_decompose(wedge(a), wedge(b)).output.summands:
            m = mod2_cohomology(wedge(c))
            for lo in (c.bottom - 1, c.bottom, c.bottom + 1):
                for hi in (c.top - 1, c.top, c.top + 1):
                    expect = _two_classes_hit_top_by_enumeration(m, lo, hi)
                    rep = moore_split_obstruction(m, lo, hi)
                    assert rep.two_classes_hit_top == expect, (str(c), lo, hi)
                    seen.append(expect)
    assert True in seen and False in seen
    # every Sq^2 from up to three middle classes to the top class, where
    # the grid only has Sq^2 nonzero on two or more classes
    for n in range(4):
        for masks in product((0, 1), repeat=n):
            m = SqModule({0: ["b"], 2: [f"x{i}" for i in range(n)], 4: ["t"]},
                         sq2={2: masks}, sq4={0: [1]})
            assert moore_split_obstruction(m, 0, 4).two_classes_hit_top == \
                _two_classes_hit_top_by_enumeration(m, 0, 4)


@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=9, deadline=None)
def test_obstruction_matches_indecomposable_branches(r, rp):
    # wherever the table says "atom", the middle Sq^2 obstruction holds
    m = cartan_smash_sq(mod2_cohomology(wedge(cbot(r, 5))),
                        mod2_cohomology(wedge(ctop(5, rp))))
    rep = moore_split_obstruction(m, 6, 10)
    assert rep.sq2_middle_iso
