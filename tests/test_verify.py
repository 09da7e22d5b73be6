import random
from collections import Counter, defaultdict
from itertools import combinations_with_replacement, product

from hypothesis import given, settings, strategies as st

from chang import cli, f2, verify
from chang.complexes import (SmashAtom, cbot, ceta, cfull, ctop, moore,
                             smash_atom, sphere, wedge)
from chang.homology import (GradedAbelianGroup, integral_homology, kunneth,
                            wedge_homology)
from chang.smash import smash_decompose
from chang.steenrod import (SqModule, cartan_smash_sq, mod2_cohomology,
                            pair_tensor)
from chang.verify import (VerificationReport, check_decomposition, graded_iso,
                          moore_split_obstruction, sq_module_compare)

from conftest import PARAMS, WIDE_PIECES, classified_pairs, invertible


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


# --- summed certification against whole-op oracles -------------------------

def _invariant_vector(m: SqModule):
    """Per degree from the lowest to the highest class: (d, dim, rk Sq1,
    rk Sq2, rk Sq4, rk Sq1Sq2, rk Sq2Sq1, rk Sq2Sq2) of the whole module."""
    degs = m.degrees()
    if not degs:
        return ()
    vec = []
    for d in range(min(degs), max(degs) + 1):
        one, two = m.op(1, d), m.op(2, d)
        vec.append((d, m.dim(d), f2.rank(one), f2.rank(two),
                    f2.rank(m.op(4, d)),
                    f2.rank(f2.compose(two, m.op(1, d + 2))),
                    f2.rank(f2.compose(one, m.op(2, d + 1))),
                    f2.rank(f2.compose(two, m.op(2, d + 2)))))
    return tuple(vec)


def _dense(profile):
    """A summed profile laid out like _invariant_vector."""
    if not profile:
        return ()
    return tuple((d,) + profile.get(d, (0,) * 7)
                 for d in range(min(profile), max(profile) + 1))


def _folded_homology(w):
    total = GradedAbelianGroup()
    for c in w.summands:
        total = total.direct_sum(integral_homology(c))
    return total


def _content(m: SqModule):
    return (tuple(sorted(m.basis.items())),
            tuple(tuple(sorted(m.ops[k].items())) for k in (1, 2, 4)))


_WHOLE_OP_SEARCHES: dict = {}


def _whole_op_report(X, Y, W) -> VerificationReport:
    """The claim checked on whole-op modules: one Kunneth over the wedges,
    one tensor module of the wedges, one module of W.  Only identical
    module pairs share a search."""
    expected = kunneth(_folded_homology(X), _folded_homology(Y))
    tensor = cartan_smash_sq(mod2_cohomology(X), mod2_cohomology(Y))
    module = mod2_cohomology(W)
    key = (_content(tensor), _content(module))
    if key not in _WHOLE_OP_SEARCHES:
        _WHOLE_OP_SEARCHES[key] = sq_module_compare(tensor, module)
    inv_ok, iso = _WHOLE_OP_SEARCHES[key]
    assert inv_ok == (_invariant_vector(tensor) == _invariant_vector(module))
    notes = []
    for c in W.summands:
        if isinstance(c, SmashAtom):
            rep = moore_split_obstruction(mod2_cohomology(wedge(c)),
                                          c.bottom, c.top)
            status = "hold" if rep.applicable else "not applicable"
            notes.append(f"{c}: split obstructions {status}; excluded Moore "
                         f"degrees {list(rep.excluded_moore_degrees)}")
    return VerificationReport(expected == _folded_homology(W),
                              tensor.dims() == module.dims(), inv_ok, iso,
                              tuple(notes))


def _assert_sums_match_whole_op(X, Y, W, report=True):
    """The engine's sums over the summand pairs of X ^ Y and the summands of
    W equal the whole-op values, and its report equals the whole-op
    oracle's, isomorphism verdict included."""
    pairs = verify._summand_pairs(X, Y)
    tensor = cartan_smash_sq(mod2_cohomology(X), mod2_cohomology(Y))
    assert _dense(verify._profile_sum(verify._profile(pair_tensor(a, b))
                                      for a, b in pairs)) == \
        _invariant_vector(tensor)
    assert _dense(verify._profile_sum(verify._profile(mod2_cohomology(c))
                                      for c in W.summands)) == \
        _invariant_vector(mod2_cohomology(W))
    assert wedge_homology(verify._pair_homology(a, b) for a, b in pairs) == \
        kunneth(_folded_homology(X), _folded_homology(Y))
    assert integral_homology(W) == _folded_homology(W)
    if report:
        assert repr(check_decomposition(X, Y, W)) == \
            repr(_whole_op_report(X, Y, W))


def test_summed_invariants_match_whole_modules_on_wide_pairs():
    for a, b in combinations_with_replacement(WIDE_PIECES, 2):
        X, Y = wedge(a), wedge(b)
        W = smash_decompose(X, Y).output
        _assert_sums_match_whole_op(X, Y, W)
        _assert_sums_match_whole_op(Y, X, W, report=False)


def test_summed_invariants_match_whole_modules_on_grid():
    # every classified pair, odd-prime Moore spaces included; the search
    # runs on sums of memoised pair tensors, the oracle on whole-op tensors
    pairs = classified_pairs()
    outputs = [smash_decompose(a, b).output for a, b in pairs]
    isos = Counter()
    for i, ((a, b), w) in enumerate(zip(pairs, outputs)):
        _assert_sums_match_whole_op(wedge(a), wedge(b), w)
        isos[check_decomposition(a, b, w).sq_iso_found] += 1
        if i % 10 == 0:             # a wrong claim: another pair's output
            other = outputs[i - 1]
            _assert_sums_match_whole_op(wedge(a), wedge(b), other)
            if other != w:
                assert not check_decomposition(a, b, other).all_true()
    assert len(pairs) == 371 and isos[True] and isos["skipped"]


def test_summed_invariants_match_whole_modules_on_wide_ops():
    rng = random.Random(2016)
    ops = []
    for _ in range(360):
        X, Y = (wedge(*rng.choices(WIDE_PIECES, k=rng.randint(1, 3)))
                for _side in range(2))
        ops.append((X, Y, smash_decompose(X, Y).output))
    isos = Counter()
    for i, (X, Y, W) in enumerate(ops):
        _assert_sums_match_whole_op(X, Y, W)
        isos[check_decomposition(X, Y, W).sq_iso_found] += 1
        if i % 3 == 0:              # a wrong claim: another op's output
            _assert_sums_match_whole_op(X, Y, ops[i - 1][2])
    assert isos[True] and isos["skipped"]
    # mismatching claims, where some profiles agree and others do not
    claims = [(moore(2, 1, 3), ceta(5), wedge(moore(2, 1, 6), moore(2, 1, 8))),
              (moore(2, 1, 3), moore(2, 1, 3),
               wedge(moore(2, 1, 6), moore(2, 1, 7))),
              (cbot(1, 5), cbot(2, 5), wedge(sphere(6), sphere(7))),
              (wedge(moore(2, 2, 3), ceta(5)), cfull(1, 5, 2),
               wedge(cfull(1, 8, 2), cfull(1, 9, 2), cfull(1, 10, 2)))]
    for x, y, w in claims:
        rep = check_decomposition(x, y, w)
        assert not rep.all_true()
        _assert_sums_match_whole_op(wedge(x), wedge(y), w)


def test_cli_verify_verdicts_over_the_grid_claims(capsys):
    # `chang verify` on each grid pair's own output, the bench's 371 verify
    # claims: every verdict is the whole-op oracle's, also where the pair is
    # claimed as its own atom, whose identity witness only the smash path
    # takes
    own_atoms = Counter()
    for a, b in classified_pairs():
        w = smash_decompose(a, b).output
        code = cli.main(["verify", str(a), str(b), str(w),
                         "--format", "structured"])
        out = dict(line.split(" = ", 1)
                   for line in capsys.readouterr().out.splitlines())
        want = _whole_op_report(wedge(a), wedge(b), w)
        assert code == 0 and want.first_failure() is None
        assert out["sq_iso"] == str(want.sq_iso_found).lower()
        if len(w.summands) == 1 and isinstance(w.summands[0], SmashAtom):
            assert w == wedge(smash_atom(a, b))
            own_atoms[out["sq_iso"]] += 1
    assert own_atoms == {"true": 52, "skipped": 20}


def _gate_against_oracle(X, Y, isos: Counter) -> None:
    """smash_decompose's claims, one per summand pair, agree with the
    whole-op oracle, which reads no claim memo, on every invariant; the iso
    verdicts differ only where the identity witness, which only the smash
    path takes, certifies what the capped search skips."""
    res = smash_decompose(X, Y)
    got, want = res.verification, _whole_op_report(X, Y, res.output)
    assert (got.homology_match, got.mod2_match, got.sq_invariants_match) == \
        (want.homology_match, want.mod2_match, want.sq_invariants_match)
    assert got.obstruction_notes == want.obstruction_notes
    if want.sq_iso_found is True:
        assert got.sq_iso_found is True
    if got.sq_iso_found is True:
        assert want.sq_iso_found is not False
    if got.sq_iso_found != want.sq_iso_found:
        assert (got.sq_iso_found, want.sq_iso_found) == (True, "skipped")
    isos[got.sq_iso_found, want.sq_iso_found] += 1


def test_claim_gate_agrees_with_the_whole_op_oracle():
    wide, grid, ops = Counter(), Counter(), Counter()
    for a, b in combinations_with_replacement(WIDE_PIECES, 2):
        _gate_against_oracle(wedge(a), wedge(b), wide)
    for a, b in classified_pairs():
        _gate_against_oracle(wedge(a), wedge(b), grid)
    rng = random.Random(2016)
    for _ in range(360):
        X, Y = (wedge(*rng.choices(WIDE_PIECES, k=rng.randint(1, 3)))
                for _side in range(2))
        _gate_against_oracle(X, Y, ops)
    assert sum(wide.values()) == 861 and sum(grid.values()) == 371
    # the identity witness certifies claims the capped search skips
    for isos in (wide, grid, ops):
        assert isos[True, True] and isos[True, "skipped"]
        assert isos["skipped", "skipped"]


def _search_by_backtracking(m1: SqModule, m2: SqModule) -> bool:
    """Reference: a degree-by-degree search over invertible blocks for a map
    commuting with Sq1, Sq2 and Sq4."""
    degs = m1.degrees()

    def extend(idx, chosen):
        if idx == len(degs):
            return True
        d = degs[idx]
        for phi in invertible(m1.dim(d)):
            chosen[d] = phi
            ok = all(f2.compose(m1.op(k, lo), chosen[lo + k])
                     == f2.compose(chosen[lo], m2.op(k, lo))
                     for k in (1, 2, 4) for lo in (d - k, d)
                     if lo in chosen and lo + k in chosen)
            if ok and extend(idx + 1, chosen):
                return True
            del chosen[d]
        return False
    return extend(0, {})


def _random_modules(rng, count, top=5, ks=(1, 2)):
    """Valid Sq-modules with up to two classes in each of degrees
    0..top-1, with random Sq^k for k in ks."""
    out = []
    while len(out) < count:
        dims = [rng.randint(0, 2) for _ in range(top)]
        basis = {d: [f"x{d}.{i}" for i in range(n)]
                 for d, n in enumerate(dims) if n}
        ops = [{d: [rng.randrange(1 << dims[d + k]) for _ in range(n)]
                for d, n in enumerate(dims) if n and d + k < top}
               if k in ks else {} for k in (1, 2, 4)]
        try:
            out.append(SqModule(basis, *ops))
        except ValueError:
            continue
    return out


def _same_profile_pairs(modules, per_profile=4):
    groups = defaultdict(list)
    for m in modules:
        groups[repr(sorted(verify._profile(m).items()))].append(m)
    return [(a, b) for g in groups.values()
            for a in g[:per_profile] for b in g[:per_profile]]


def test_search_matches_backtracking_oracle():
    rng = random.Random(11)
    cases = _same_profile_pairs(_random_modules(rng, 1500))
    for a, b in classified_pairs()[::3]:
        tensor = cartan_smash_sq(mod2_cohomology(a), mod2_cohomology(b))
        perms = {d: rng.sample(range(tensor.dim(d)), tensor.dim(d))
                 for d in tensor.degrees()}
        cases.append((tensor, tensor.permuted(perms)))
        cases.append((tensor, mod2_cohomology(smash_decompose(a, b).output)))
    cases += _same_profile_pairs(_random_modules(random.Random(5), 1500, top=6,
                                                 ks=(1, 2, 4)))
    outcomes = Counter()
    for m1, m2 in cases:
        ok, iso = sq_module_compare(m1, m2)
        if not ok or iso == "skipped":
            continue
        outcomes[iso] += 1
        assert iso == _search_by_backtracking(m1, m2)
    assert outcomes[True] > 100 and outcomes[False] > 5, outcomes


def test_sq_compare_separates_modules_by_sq4():
    # equal profiles, and Sq^1, Sq^2 alone cannot tell them apart; Sq^4
    # kills ker Sq^1 in degree 0 only in the first
    basis = {0: ["a", "b"], 1: ["c"], 4: ["d"]}
    m1 = SqModule(basis, sq1={0: [1, 1]}, sq4={0: [1, 1]})
    m2 = SqModule(basis, sq1={0: [1, 0]}, sq4={0: [1, 1]})
    assert verify._profile(m1) == verify._profile(m2)
    assert sq_module_compare(m1, m2) == (True, False)
    # degrees with no operations are searched apart from the rest: here
    # the kernel has 20 dimensions, but the two 3 x 3 blocks are free and
    # only the 2^2 maps on degrees 0, 1, 4 need trying
    basis.update({2: ["x", "y", "z"], 3: ["u", "v", "w"]})
    m1 = SqModule(basis, sq1={0: [1, 1]}, sq4={0: [1, 1]})
    m2 = SqModule(basis, sq1={0: [1, 0]}, sq4={0: [1, 1]})
    assert sq_module_compare(m1, m2) == (True, False)
    assert sq_module_compare(m1, m1) == (True, True)
