from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from chang.complexes import (POINT, ElementaryComplex, SmashAtom,
                             WedgeComplex, cbot, ceta, cfull, ctop, dual,
                             infer_sdim, moore, smash_atom, sphere, suspend,
                             wedge)
from chang.homology import integral_homology, kunneth
from chang import smash
from chang.smash import (UnclassifiedPair, VerificationFailure, decompose_pair,
                         smash_decompose)
from chang.steenrod import module_id
from chang.verify import check_claims, check_decomposition

from conftest import WIDE_PIECES, classified_pairs


def out(a, b):
    return smash_decompose(wedge(a), wedge(b)).output


def test_sphere_rule_is_suspension():
    assert out(sphere(4), cbot(2, 5)) == wedge(cbot(2, 9))
    assert out(sphere(3), sphere(5)) == wedge(sphere(8))


def test_point_rule():
    assert smash_decompose(wedge(), wedge(cbot(1, 5))).output == wedge()
    assert out(POINT, ceta(5)) == wedge()


def test_a_directly_built_point_is_the_point():
    # the point rule compares sort keys, which fix the value, so a point
    # built without the factory is still the point
    direct = ElementaryComplex("point", 0)
    assert direct is not POINT
    for a, b in ((direct, ceta(5)), (cbot(2, 5), direct), (direct, direct)):
        assert decompose_pair(a, b) == (wedge(), "point")
    atom = smash_atom(cbot(1, 5), cbot(2, 5))
    assert decompose_pair(atom, direct) == (wedge(), "point")
    # a point is no sphere, and a sphere is no point
    assert decompose_pair(sphere(3), ceta(5)) == (wedge(ceta(8)), "sphere")


def test_main_statement_branches():
    # Moore against the three-cell complex with bottom torsion
    assert out(moore(2, 2, 3), cbot(3, 5)) == \
        wedge(smash_atom(moore(2, 2, 3), ceta(5)), moore(2, 2, 7))
    assert out(moore(2, 3, 3), cbot(2, 5)) == \
        wedge(smash_atom(moore(2, 3, 3), cbot(2, 5)))
    # Moore against the full four-cell complex, all four branches
    assert out(moore(2, 3, 3), cfull(2, 5, 1)) == \
        wedge(cfull(2, 8, 1), cfull(2, 9, 1))
    assert out(moore(2, 2, 3), cfull(1, 5, 3)) == \
        wedge(smash_atom(moore(2, 2, 3), cbot(1, 5)), moore(2, 2, 7))
    assert out(moore(2, 2, 3), cfull(3, 5, 1)) == \
        wedge(smash_atom(moore(2, 2, 3), ctop(5, 1)), moore(2, 2, 7))
    assert out(moore(2, 1, 3), cfull(2, 5, 3)) == \
        wedge(smash_atom(moore(2, 1, 3), ceta(5)),
              moore(2, 1, 7), moore(2, 1, 7))
    # three-cell against four-cell
    assert out(cbot(3, 5), cfull(1, 5, 2)) == \
        wedge(cfull(1, 9, 2), smash_atom(ceta(5), cfull(1, 5, 2)))
    assert out(cbot(1, 5), cfull(2, 5, 1)) == \
        wedge(cfull(1, 9, 2), smash_atom(ceta(5), cfull(1, 5, 1)))
    assert out(ctop(5, 1), cfull(1, 5, 2)) == \
        wedge(cfull(2, 9, 1), smash_atom(ceta(5), cfull(1, 5, 1)))
    # indecomposable families stay in one piece
    for a, b in [(ceta(5), ceta(5)), (cbot(2, 5), cbot(3, 5)),
                 (cbot(2, 5), ctop(5, 3)), (ctop(5, 2), ctop(5, 3)),
                 (ceta(5), cfull(2, 5, 3)), (moore(2, 2, 3), ceta(5))]:
        w = out(a, b)
        assert len(w.summands) == 1 and w == wedge(smash_atom(a, b))


def test_odd_primary_branches():
    assert out(moore(3, 2, 3), ceta(5)) == wedge(moore(3, 2, 6), moore(3, 2, 8))
    assert out(moore(3, 1, 3), cbot(2, 5)) == wedge(moore(3, 1, 8))
    assert out(moore(5, 2, 3), ctop(5, 1)) == wedge(moore(5, 2, 6))
    assert out(moore(3, 1, 3), cfull(1, 5, 1)) == wedge()
    assert out(moore(3, 1, 3), moore(5, 1, 3)) == wedge()
    assert out(moore(3, 1, 3), moore(3, 2, 3)) == \
        wedge(moore(3, 1, 6), moore(3, 1, 7))


def test_moore_moore_two_primary():
    assert out(moore(2, 1, 3), moore(2, 1, 3)) == wedge(cfull(1, 8, 1))
    assert out(moore(2, 2, 3), moore(2, 3, 3)) == \
        wedge(moore(2, 2, 6), moore(2, 2, 7))


def test_four_cell_square_family():
    # strict maximum in the s slot
    assert out(cfull(1, 3 + 0, 1) if False else cfull(1, 5, 3),
               cfull(2, 5, 1)) == \
        wedge(cfull(2, 9, 1), cfull(1, 9, 2),
              smash_atom(ceta(5), cfull(1, 5, 1)))
    # s = r' > s' > r keeps one four-cell piece and one mixed atom
    assert out(cfull(1, 5, 3), cfull(3, 5, 2)) == \
        wedge(cfull(1, 9, 3), smash_atom(ctop(5, 2), cfull(1, 5, 3)))
    # s = s' = r' > r
    assert out(cfull(1, 5, 2), cfull(2, 5, 2)) == \
        wedge(cfull(1, 9, 2), cfull(1, 9, 2),
              smash_atom(ceta(5), cfull(1, 5, 2)))
    # everything equal (a self-smash)
    assert out(cfull(2, 5, 2), cfull(2, 5, 2)) == \
        wedge(cfull(2, 9, 2), cfull(2, 9, 2),
              smash_atom(ceta(5), cfull(2, 5, 2)))
    # s = s' > r' > r
    assert out(cfull(1, 5, 3), cfull(2, 5, 3)) == \
        wedge(cfull(1, 9, 3), smash_atom(cbot(2, 5), cfull(1, 5, 3)))
    # max sits in an r slot only: handled through the dual pair
    assert out(cfull(3, 5, 1), cfull(2, 5, 1)) == \
        dual(out(cfull(1, 5, 3), cfull(1, 5, 2)), 16)


def test_suspended_inputs():
    base = out(moore(2, 2, 3), cbot(3, 5))
    assert out(moore(2, 2, 4), cbot(3, 6)) == suspend(base, 2)


def test_distributes_over_wedges():
    X = wedge(moore(2, 1, 3), cbot(2, 5))
    Y = wedge(ceta(5), sphere(4))
    got = smash_decompose(X, Y).output
    expected = wedge(out(moore(2, 1, 3), ceta(5)),
                     out(moore(2, 1, 3), sphere(4)),
                     out(cbot(2, 5), ceta(5)),
                     out(cbot(2, 5), sphere(4)))
    assert got == expected


def test_atom_inputs_only_against_spheres():
    a = smash_atom(moore(2, 1, 3), ceta(5))
    assert smash_decompose(wedge(a), wedge(sphere(3))).output == \
        suspend(wedge(a), 3)
    with pytest.raises(UnclassifiedPair):
        smash_decompose(wedge(a), wedge(moore(2, 1, 3)))


def test_decompose_pair_takes_atoms():
    # the one sphere path serves smash_decompose and decompose_pair alike
    a = smash_atom(moore(2, 1, 3), ceta(5))
    for x, y in ((a, sphere(4)), (sphere(4), a)):
        assert decompose_pair(x, y) == (suspend(a, 4), "sphere")
    assert decompose_pair(a, POINT) == (wedge(), "point")
    for x, y in ((a, moore(2, 1, 3)), (ceta(7), a), (a, a)):
        with pytest.raises(UnclassifiedPair) as err:
            decompose_pair(x, y)
        assert str(err.value) == (f"{x} ^ {y}: smashes with an atom factor "
                                  "are only classified against spheres")


def test_table_is_evaluated_once_per_base_pair(monkeypatch):
    calls = {}
    rules = smash._rules

    def counted(a, b, depth):
        calls[a, b, depth] = calls.get((a, b, depth), 0) + 1
        return rules(a, b, depth)
    monkeypatch.setattr(smash, "_rules", counted)
    smash._table.cache_clear()
    try:
        for _ in range(2):
            for a, b in classified_pairs():
                res = smash_decompose(wedge(a), wedge(b))
                for c in res.output.summands:       # re-validates atoms
                    suspend(c, 1)
    finally:
        smash._table.cache_clear()
    # atom verdicts (depth 0) and decompositions share one answer per key
    assert calls and max(calls.values()) == 1


def test_recursive_reduction_examples():
    # the tail of the strict-maximum rule reduces through the sub-table
    w = out(cfull(1, 5, 3), cfull(2, 5, 1))
    assert w == wedge(cfull(2, 9, 1), cfull(1, 9, 2),
                      smash_atom(ceta(5), cfull(1, 5, 1)))
    assert integral_homology(w) == kunneth(
        integral_homology(wedge(cfull(1, 5, 3))),
        integral_homology(wedge(cfull(2, 5, 1))))


def test_termination_depth_bound():
    for a, b in classified_pairs():
        res = smash_decompose(wedge(a), wedge(b))
        assert len(res.branches) <= 4, (a, b, res.branches)


def test_provenance_names_rules():
    res = smash_decompose(wedge(moore(2, 2, 3)), wedge(cfull(1, 5, 3)))
    rules = [r for _, r in res.branches]
    assert rules[0] == "moore2-cfull/r<u<=s"
    assert "moore2-cbot/u>r" in rules


def test_decomposition_result_fields():
    X, Y = wedge(moore(2, 2, 3)), wedge(cbot(3, 5))
    res = smash_decompose(X, Y)
    assert res.input == (X, Y)
    assert res.verification.homology_match
    assert res.verification.mod2_match
    assert res.output == wedge(smash_atom(moore(2, 2, 3), ceta(5)),
                               moore(2, 2, 7))


def test_decompose_pair_rule_id():
    w, rule = decompose_pair(moore(2, 2, 3), cbot(3, 5))
    assert rule == "moore2-cbot/r>=u"
    assert w == wedge(smash_atom(moore(2, 2, 3), ceta(5)), moore(2, 2, 7))


def test_sq_obstruction_soundness_of_outputs():
    # whenever Sq^2 of the tensor module is an isomorphism in a middle
    # degree d, the output carries no Moore summand with homology in
    # degrees d or d+1
    from chang.steenrod import cartan_smash_sq, mod2_cohomology
    for a, b in classified_pairs():
        res = smash_decompose(wedge(a), wedge(b))
        mod = cartan_smash_sq(mod2_cohomology(wedge(a)),
                              mod2_cohomology(wedge(b)))
        degs = mod.degrees()
        if not degs:
            continue
        excluded = set()
        for d in range(min(degs) + 1, max(degs) - 1):
            if mod.dim(d) and mod.is_iso(2, d):
                excluded.update((d, d + 1))
        for c in res.output.summands:
            if getattr(c, "kind", None) == "moore" and c.p == 2:
                assert c.dim not in excluded, (a, b, c)


def test_commutativity_over_grid():
    for a, b in classified_pairs():
        assert smash_decompose(wedge(a), wedge(b)).output == \
            smash_decompose(wedge(b), wedge(a)).output, (a, b)


def test_smash_decompose_consistent_with_decompose_pair():
    for a, b in classified_pairs()[::7]:
        if a.kind == "point" or b.kind == "point":
            continue
        w, _ = decompose_pair(a, b)
        assert smash_decompose(wedge(a), wedge(b)).output == w


def test_every_rule_fires_over_the_grid():
    seen = set()
    for a, b in classified_pairs():
        res = smash_decompose(wedge(a), wedge(b))
        seen.update(rule for _, rule in res.branches)
    seen.add(decompose_pair(POINT, ceta(5))[1])
    expected = {
        "point", "sphere",
        "moore-moore/coprime", "moore-moore/odd-min", "moore-moore/2-square",
        "moore-moore/2-min",
        "odd-moore-ceta", "odd-moore-cbot", "odd-moore-ctop", "odd-moore-cfull",
        "moore2-ceta/atom", "moore2-cbot/u>r", "moore2-cbot/r>=u",
        "moore2-ctop/u>s", "moore2-ctop/s>=u",
        "moore2-cfull/u>r,s", "moore2-cfull/r<u<=s", "moore2-cfull/s<u<=r",
        "moore2-cfull/u<=r,s",
        "ceta-ceta/atom", "ceta-ctop/atom", "ceta-cbot/atom", "ceta-cfull/atom",
        "ctop-ctop/atom", "ctop-cbot/atom", "cbot-cbot/atom",
        "cbot-cfull/u>=r,s", "cbot-cfull/u=s<r", "cbot-cfull/atom",
        "ctop-cfull/u>=r,s", "ctop-cfull/u=r<s", "ctop-cfull/atom",
        "cfull-cfull/s-max-strict", "cfull-cfull/s=r'", "cfull-cfull/s=s'",
        "cfull-cfull/swap", "cfull-cfull/dual",
    }
    assert seen == expected


def test_gate_rejects_wrong_splits(monkeypatch):
    # same homology and mod-2 dimensions as the true C(1,8,1), wrong Sq^2
    monkeypatch.setattr(smash, "_solve", lambda a, b, depth=0: (
        [moore(2, 1, 6), moore(2, 1, 7)], [("fake", "fake")]))
    with pytest.raises(VerificationFailure, match="^Sq invariant mismatch"):
        smash_decompose(wedge(moore(2, 1, 3)), wedge(moore(2, 1, 3)))
    # wrong homology
    monkeypatch.setattr(smash, "_solve", lambda a, b, depth=0: (
        [sphere(6), sphere(7)], [("fake", "fake")]))
    with pytest.raises(VerificationFailure, match="^homology mismatch"):
        smash_decompose(wedge(cbot(1, 5)), wedge(cbot(2, 5)))


def test_gate_rejects_a_wrong_split_inside_a_wedge(monkeypatch):
    x = wedge(moore(2, 1, 3), cbot(2, 5))
    y = wedge(moore(2, 1, 3), ctop(5, 1))
    right = smash_decompose(x, y)       # fills every memo for these modules
    assert right.verification.all_true()
    solve = smash._solve

    def one_wrong_pair(a, b, depth=0):
        # M(2,3) ^ M(2,3) is C(1,8,1): same homology and mod-2 dimensions
        # as this Moore wedge, different Sq^2
        if a == b == moore(2, 1, 3):
            return [moore(2, 1, 6), moore(2, 1, 7)], [("fake", "fake")]
        return solve(a, b, depth)
    monkeypatch.setattr(smash, "_solve", one_wrong_pair)
    with pytest.raises(VerificationFailure, match="^Sq invariant mismatch"):
        smash_decompose(x, y)


def test_memos_sit_below_the_solve_seam(monkeypatch):
    pairs = list(combinations_with_replacement(WIDE_PIECES, 2))
    first = [smash_decompose(a, b) for a, b in pairs]
    x, y = suspend(moore(2, 1, 3), 2), wedge(moore(2, 1, 3))
    assert smash_decompose(x, y).output == wedge(cfull(1, 10, 1))
    # every memo is warm: a second pass places each answer from its memo
    calls = []
    real = smash.suspend
    monkeypatch.setattr(smash, "suspend",
                        lambda *args: calls.append(args) or real(*args))
    second = [smash_decompose(a, b) for a, b in pairs]
    assert not calls
    assert [(r.output, r.branches) for r in second] == \
        [(r.output, r.branches) for r in first]
    # a wrong answer for a shifted pair still reaches the gate
    monkeypatch.setattr(smash, "_solve", lambda a, b, depth=0: (
        (moore(2, 1, 6), moore(2, 1, 7)), (("fake", "fake"),)))
    with pytest.raises(VerificationFailure, match="^Sq invariant mismatch"):
        smash_decompose(x, y)


def test_claim_gate_fails_an_output_missing_a_summand(monkeypatch):
    x = wedge(moore(2, 2, 3), cbot(1, 5))
    y = wedge(cfull(1, 5, 2), ceta(5))
    claims = [(a, b, decompose_pair(a, b)[0])
              for a in x.summands for b in y.summands]
    w = wedge(*(c for *_, c in claims))
    assert check_claims(claims, w).all_true()
    for i in range(len(w.summands)):
        short = WedgeComplex(w.summands[:i] + w.summands[i + 1:])
        rep = check_claims(claims, short)
        # each claim still holds; only the op-level sum sees the loss
        assert rep.homology_match and rep.sq_invariants_match
        assert rep.first_failure() == "mod-2 dimension"
    # a wedge of the pieces that drops the last claim's summands
    assert smash_decompose(x, y).output == w       # every memo is warm
    real = smash.wedge
    monkeypatch.setattr(smash, "wedge",
                        lambda *parts: real(*parts[:-1] or parts))
    with pytest.raises(VerificationFailure, match="^mod-2 dimension mismatch"):
        smash_decompose(x, y)


def test_wrong_exponent_atom_claim_fails_homology(monkeypatch):
    # Cbot(2,5) and Cbot(3,5) have one Sq-module, so the claimed atom's
    # module is the pair tensor itself and the identity is a Sq witness;
    # the integral homology (Z/4 against Z/8) still refutes the claim
    a, b = cbot(1, 5), cbot(2, 5)
    wrong = SmashAtom(cbot(1, 5), cbot(3, 5))
    assert module_id(b) == module_id(wrong.right)
    rep = check_claims([(a, b, wedge(wrong))], wedge(wrong))
    assert rep.mod2_match and rep.sq_invariants_match
    assert rep.sq_iso_found is True
    assert not rep.homology_match and rep.first_failure() == "homology"
    monkeypatch.setattr(smash, "_solve", lambda a, b, depth=0: (
        (wrong,), (("fake", "fake"),)))
    with pytest.raises(VerificationFailure, match="^homology mismatch"):
        smash_decompose(a, b)


def test_warm_claims_are_not_summed_again(monkeypatch):
    from chang import homology, verify
    pairs = list(combinations_with_replacement(WIDE_PIECES, 2))
    for a, b in pairs:
        smash_decompose(a, b)
    calls = []
    for mod, name in ((homology, "wedge_homology"), (verify, "wedge_homology"),
                      (verify, "_profile_sum")):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *args, _real=real, _name=name:
                            calls.append(_name) or _real(*args))
    for a, b in pairs:
        smash_decompose(a, b)
        smash_decompose(b, a)
    assert calls == []
    # the whole-op oracle sums on every call, through the same names
    a, b = pairs[-1]
    check_decomposition(a, b, smash_decompose(a, b).output)
    assert {"wedge_homology", "_profile_sum"} <= set(calls)


# --- properties over exponents 1..6 and suspensions 0..4 --------------------

@st.composite
def shifted_pieces(draw):
    kind = draw(st.sampled_from(["moore", "ceta", "cbot", "ctop", "cfull"]))
    r, s = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    piece = {"moore": lambda: moore(draw(st.sampled_from([2, 2, 3])), r, 3),
             "ceta": lambda: ceta(5), "cbot": lambda: cbot(r, 5),
             "ctop": lambda: ctop(5, s), "cfull": lambda: cfull(r, 5, s)}[kind]()
    return suspend(piece, draw(st.integers(0, 4)))


PROPERTY = settings(max_examples=100, deadline=None)


@given(shifted_pieces(), shifted_pieces())
@PROPERTY
def test_smash_commutes(x, y):
    res = smash_decompose(x, y)
    assert res.verification.first_failure() is None
    assert smash_decompose(y, x).output == res.output


@given(st.integers(1, 4), shifted_pieces(), shifted_pieces())
@PROPERTY
def test_smash_commutes_with_suspension(k, x, y):
    res = smash_decompose(suspend(x, k), y)
    assert res.verification.first_failure() is None
    assert res.output == suspend(smash_decompose(x, y).output, k)


@given(shifted_pieces(), shifted_pieces())
@PROPERTY
def test_smash_is_duality_equivariant(x, y):
    # D_m(X) ^ D_n(Y) = D_{m+n}(X ^ Y), each piece in its own window
    m, n = infer_sdim(x), infer_sdim(y)
    res = smash_decompose(dual(x, m), dual(y, n))
    assert res.verification.first_failure() is None
    assert res.output == dual(smash_decompose(x, y).output, m + n)
