import re
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from chang.complexes import (POINT, ElementaryComplex, SmashAtom, WedgeComplex,
                             WindowError, canonicalize, cbot, ceta, cells_of,
                             cfull, ctop, dual, dual_elementary, infer_sdim,
                             moore, smash_atom, sphere, suspend, wedge)
from chang.errors import InputError
from chang.homology import integral_homology, kunneth
from chang.smash import decompose_pair

from conftest import WIDE_PIECES, elementary_samples, every_piece, rebuilt


def test_suspend_shifts_dimensions():
    assert suspend(wedge(sphere(3)), 2) == wedge(sphere(5))
    assert suspend(wedge(cfull(1, 5, 1)), 1) == wedge(cfull(1, 6, 1))
    assert suspend(wedge(moore(2, 1, 3), ceta(5)), 3) == \
        wedge(moore(2, 1, 6), ceta(8))


def test_suspend_shifts_homology():
    w = wedge(moore(2, 2, 3), cbot(1, 5))
    assert integral_homology(suspend(w, 4)) == integral_homology(w).shift(4)


def test_canonicalize_absorbs_points_and_sorts():
    assert wedge(sphere(5), POINT) == wedge(sphere(5))
    assert wedge(ceta(5), sphere(3)) == wedge(sphere(3), ceta(5))
    assert canonicalize(wedge(ceta(5), sphere(3))) == \
        canonicalize(wedge(sphere(3), ceta(5)))


def test_torsion_square_rewrites_to_four_cell_complex():
    # the rule table answers M(2,3)^M(2,3) as C(1,8,1); no atom holds it
    assert decompose_pair(moore(2, 1, 3), moore(2, 1, 3)) == \
        (wedge(cfull(1, 8, 1)), "moore-moore/2-square")
    refused = "M(2^1,3) ^ M(2^1,3) splits; it cannot be an atom"
    with pytest.raises(InputError, match=re.escape(refused)):
        SmashAtom(moore(2, 1, 3), moore(2, 1, 3), 0)
    with pytest.raises(InputError, match=re.escape(refused)):
        smash_atom(moore(2, 1, 3), moore(2, 1, 3))
    # shifted copies land at the shifted dimension
    assert decompose_pair(moore(2, 1, 4), moore(2, 1, 5))[0] == \
        wedge(cfull(1, 11, 1))
    with pytest.raises(InputError, match=re.escape(refused)):
        smash_atom(moore(2, 1, 4), moore(2, 1, 5))


def test_hand_built_torsion_square_still_rewrites():
    # factors built by calling the class are the interned instances, so
    # the table sees the torsion square and answers C(1,8,1), and an atom
    # of it is refused
    m2 = ElementaryComplex("moore", 3, 2, 1)
    assert m2 is moore(2, 1, 3)
    for shift in (0, 2):
        with pytest.raises(InputError, match="splits"):
            SmashAtom(m2, ElementaryComplex("moore", 3, 2, 1), shift)
        w, _ = decompose_pair(ElementaryComplex("moore", 3 + shift, 2, 1), m2)
        assert wedge(w, sphere(3)) == wedge(sphere(3), cfull(1, 8 + shift, 1))
    # an atom of another square is not rewritten
    raw = SmashAtom(ElementaryComplex("ceta", 5), ceta(5))
    assert canonicalize(WedgeComplex((raw,))).summands == (raw,)


@pytest.mark.parametrize("a", [3, 4, 5])
@pytest.mark.parametrize("b", [3, 4, 5])
def test_torsion_square_is_one_rule_at_every_dimension(a, b):
    assert decompose_pair(moore(2, 1, a), moore(2, 1, b)) == \
        (wedge(cfull(1, a + b + 2, 1)), "moore-moore/2-square")


def test_atom_factory_rejects_decomposable_pairs():
    with pytest.raises(ValueError):
        smash_atom(moore(2, 1, 3), cbot(2, 5))    # u <= r splits
    with pytest.raises(ValueError):
        SmashAtom(moore(2, 2, 3), moore(2, 2, 3), 0)
    # u > r really is an atom
    a = smash_atom(moore(2, 3, 3), cbot(1, 5))
    assert isinstance(a, SmashAtom)


def test_cells_of():
    assert cells_of(ceta(5)) == [(3, 1), (5, 1)]
    assert cells_of(moore(2, 2, 3)) == [(3, 1), (4, 1)]
    assert cells_of(cfull(1, 5, 2)) == [(3, 1), (4, 2), (5, 1)]
    a = smash_atom(moore(2, 2, 3), ceta(5))
    assert cells_of(a) == [(6, 1), (7, 1), (8, 1), (9, 1)]


def test_dual_table_window5():
    # the involution pairing of the four families at one window
    m = 2 * 5 + 2
    assert dual_elementary(sphere(5), m) == sphere(7)
    assert dual_elementary(sphere(6), m) == sphere(6)
    assert dual_elementary(moore(3, 2, 5), m) == moore(3, 2, 6)
    assert dual_elementary(ceta(7), m) == ceta(7)
    assert dual_elementary(cbot(2, 7), m) == ctop(7, 2)
    assert dual_elementary(ctop(7, 3), m) == cbot(3, 7)
    assert dual_elementary(cfull(2, 7, 3), m) == cfull(3, 7, 2)


def test_dual_atom_factorwise():
    a = smash_atom(ceta(5), cfull(2, 5, 3))
    d = dual(wedge(a), 16)
    assert d == wedge(smash_atom(ceta(5), cfull(3, 5, 2)))
    # homology of the dual matches the Kunneth value of the dual factors
    expected = kunneth(integral_homology(wedge(ceta(5))),
                       integral_homology(wedge(cfull(3, 5, 2))))
    assert integral_homology(d) == expected


def test_dual_window_inference_conflict():
    with pytest.raises(WindowError) as err:
        dual(wedge(ceta(5), ceta(6)))
    assert "Ceta(5)" in str(err.value) and "Ceta(6)" in str(err.value)


def _window_summand(draw, n):
    kind = draw(st.sampled_from(["sphere", "moore", "ceta", "ctop",
                                 "cbot", "cfull"]))
    r = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    if kind == "sphere":
        return sphere(n + draw(st.integers(0, 2)))
    if kind == "moore":
        p = draw(st.sampled_from([2, 3, 5]))
        return moore(p, r, n + draw(st.integers(0, 1)))
    k = n + 2
    if kind == "ceta":
        return ceta(k)
    if kind == "ctop":
        return ctop(k, s)
    if kind == "cbot":
        return cbot(r, k)
    return cfull(r, k, s)


@st.composite
def window_wedges(draw):
    n = draw(st.integers(3, 7))
    count = draw(st.integers(1, 4))
    return n, wedge(*[_window_summand(draw, n) for _ in range(count)])


@given(window_wedges())
@settings(max_examples=200)
def test_dual_is_involution(nw):
    n, w = nw
    m = 2 * n + 2
    assert dual(dual(w, m), m) == w


@given(window_wedges())
@settings(max_examples=100)
def test_dual_homology_reflection(nw):
    # free factors reflect at m-d, torsion at m-1-d
    n, w = nw
    m = 2 * n + 2
    h, hd = integral_homology(w), integral_homology(dual(w, m))
    reflected = {}
    for d in h.degrees():
        for q in h[d]:
            reflected.setdefault(m - d if q == 0 else m - 1 - d, []).append(q)
    assert {d: tuple(sorted(v)) for d, v in reflected.items()} == \
        hd.components


@given(st.integers(0, 4), st.integers(0, 4), window_wedges())
@settings(max_examples=60)
def test_suspend_is_additive(a, b, nw):
    _, w = nw
    assert suspend(suspend(w, a), b) == suspend(w, a + b)


@given(window_wedges())
@settings(max_examples=60)
def test_canonicalize_idempotent(nw):
    _, w = nw
    assert canonicalize(w) == w
    assert canonicalize(canonicalize(w)) == canonicalize(w)


def test_stable_range_enforced():
    with pytest.raises(ValueError):
        sphere(2)
    with pytest.raises(ValueError):
        moore(4, 1, 3)       # not a prime
    with pytest.raises(ValueError):
        cfull(0, 5, 1)
    with pytest.raises(ValueError):
        ceta(4)
    # parameters a family does not use would make equal pieces unequal
    with pytest.raises(ValueError):
        ElementaryComplex("moore", 3, p=2, r=1, s=7)
    with pytest.raises(ValueError):
        ElementaryComplex("sphere", 5, r=2)
    # a point has no dimension: POINT is the only point
    with pytest.raises(ValueError):
        ElementaryComplex("point", 3)


def test_elementary_samples_have_cells_matching_homology_support():
    for c in elementary_samples():
        h = integral_homology(wedge(c))
        dims = {d for d, _ in cells_of(c)}
        assert set(h.degrees()) <= dims


def _reference_pair_is_atom(a, b):
    """Which base pairs (a <= b in the canonical order) stay whole, written
    out by hand as a reference independent of the decision table."""
    ka, kb = a.kind, b.kind
    if ka == "moore":
        if a.p != 2:
            return False
        if kb == "ceta":
            return True
        if kb == "cbot":
            return a.r > b.r
        if kb == "ctop":
            return a.r > b.s
        return False
    if ka == "ceta":
        return kb in ("ceta", "ctop", "cbot", "cfull")
    if ka == "ctop":
        if kb in ("ctop", "cbot"):
            return True
        if kb == "cfull":
            u, r, s = a.s, b.r, b.s
            return not (u >= r and u >= s) and not (u == r < s)
        return False
    if ka == "cbot":
        if kb == "cbot":
            return True
        if kb == "cfull":
            u, r, s = a.r, b.r, b.s
            return not (u >= r and u >= s) and not (u == s < r)
        return False
    return False


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_atom_verdicts_match_the_reference_list():
    E = range(1, 7)
    pieces = ([sphere(3)] + [moore(p, r, 3) for p in (2, 3, 5) for r in E]
              + [ceta(5)] + [cbot(r, 5) for r in E] + [ctop(5, s) for s in E]
              + [cfull(r, 5, s) for r in E for s in E])
    pieces.sort(key=lambda c: c.sort_key)
    pairs = [(a, b) for i, a in enumerate(pieces) for b in pieces[i:]]
    assert len(pairs) == 2346
    # a point splits off nothing: it is never an atom factor
    pairs += [(a, POINT) for a in pieces] + [(POINT, POINT)]
    for a, b in pairs:
        whole = _reference_pair_is_atom(a, b)
        refused = f"ValueError: {a} ^ {b} splits; it cannot be an atom"
        for shift in (0, 2):
            got = _outcome(lambda: SmashAtom(a, b, shift))
            if whole:
                assert isinstance(got, SmashAtom), (a, b, got)
                assert (got.left, got.right, got.shift) == (a, b, shift)
            else:
                assert got == refused, (a, b, got)
        # smash_atom takes the pair in either order and at any dimension
        sa, sb = _up(a, 1), _up(b, 2)
        for x, y in ((a, b), (b, a), (sa, sb), (sb, sa)):
            shift = x.dim + y.dim - a.dim - b.dim
            if whole:
                want = SmashAtom(a, b, shift)
            else:
                want = refused
            got = _outcome(lambda: smash_atom(x, y))
            assert got == want, (x, y, got)
        if a != b:
            assert _outcome(lambda: SmashAtom(b, a)) == \
                "ValueError: atom factors out of canonical order"


def _up(c, m):
    return c if c == POINT else ElementaryComplex(c.kind, c.dim + m, c.p,
                                                  c.r, c.s)


# --- interned pieces -------------------------------------------------------

def test_constructors_hand_out_one_instance_per_value():
    from chang.complexes import base_form, piece
    from chang.parser import lower, parse_expression
    pairs = [(sphere(4), piece("sphere", 4)),
             (moore(3, 2, 5), piece("moore", 5, p=3, r=2)),
             (ceta(6), piece("ceta", 6)),
             (ctop(5, 2), piece("ctop", 5, s=2)),
             (cbot(3, 7), piece("cbot", 7, r=3)),
             (cfull(1, 5, 2), piece("cfull", 5, r=1, s=2)),
             (POINT, piece("point", 0)),
             (suspend(cfull(1, 5, 2), 3).summands[0], cfull(1, 8, 2)),
             (base_form(cbot(3, 7))[0], cbot(3, 5)),
             (base_form(moore(3, 2, 5))[0], moore(3, 2, 3)),
             (dual_elementary(cbot(2, 7), 12), ctop(7, 2)),
             (dual_elementary(cfull(2, 7, 3), 12), cfull(3, 7, 2)),
             (lower(parse_expression("C(1,5,2)")).summands[0], cfull(1, 5, 2)),
             (lower(parse_expression("M(3^2,5)")).summands[0],
              moore(3, 2, 5)),
             (ElementaryComplex("cfull", 5, 0, 1, 2), cfull(1, 5, 2)),
             (ElementaryComplex("moore", 5, p=3, r=2), moore(3, 2, 5)),
             (ElementaryComplex("point", 0), POINT)]
    for got, want in pairs:
        assert got is want, (got, want)


def test_a_directly_built_piece_is_the_interned_value():
    from chang.homology import _summand_homology
    from chang.steenrod import _summand_sq, module_id
    for c in elementary_samples() + [POINT]:
        direct = ElementaryComplex(c.kind, c.dim, c.p, c.r, c.s)
        assert direct is c
        assert direct == c and hash(direct) == hash(c)
        assert {direct: 1}[c] == 1 and direct.sort_key == c.sort_key
        assert _summand_homology(direct) is _summand_homology(c)
        assert _summand_sq(direct) is _summand_sq(c)
        want = module_id(c)
        hits = module_id.cache_info().hits
        assert module_id(direct) == want
        assert module_id.cache_info().hits == hits + 1
    a = smash_atom(moore(2, 3, 4), cbot(1, 7))
    direct = SmashAtom(a.left, a.right, a.shift)
    assert direct is a and hash(direct) == hash(a)
    assert direct.sort_key == a.sort_key


def test_invalid_pieces_raise_on_every_call():
    from chang.complexes import piece
    builds = [lambda: sphere(2), lambda: moore(4, 1, 3),
              lambda: cfull(0, 5, 1), lambda: ceta(4),
              lambda: piece("moore", 3, p=2, r=1, s=7),
              lambda: piece("sphere", 5, r=2), lambda: piece("point", 3),
              lambda: ElementaryComplex("moore", 3, p=2, r=1, s=7),
              # only exact ints: True would share 1's instance, and 1.5 is
              # no exponent
              lambda: cbot(True, 7), lambda: cfull(1.5, 5, 2),
              lambda: sphere(3.0), lambda: moore(2, 1, True),
              lambda: SmashAtom(moore(2, 3, 3), ceta(5), True)]
    for build in builds:
        for _ in range(3):
            with pytest.raises(ValueError):
                build()


def test_stored_keys_follow_the_families():
    from chang.complexes import FAMILIES, piece
    from chang.smash import PARAMS
    pieces = [POINT]
    for k in (5, 6):
        pieces += [sphere(k), ceta(k)]
        for u in PARAMS:
            pieces += [moore(2, u, k), moore(3, u, k), cbot(u, k), ctop(k, u)]
            pieces += [cfull(u, k, s) for s in PARAMS]
    for c in pieces:
        fam = FAMILIES[c.kind]
        assert c.family is fam
        assert c.sort_key == (fam.rank, c.dim, c.r, c.s, c.p)
        assert list(c.cells()) == [c.dim + off for off, _ in fam.cells]
        # the hash follows the value: the value is the instance
        assert hash(piece(c.kind, c.dim, c.p, c.r, c.s)) == hash(c)
    # the stored keys order wedges as before: family rank, then dimension
    assert [str(c) for c in wedge(cfull(1, 5, 2), moore(2, 1, 6), sphere(5),
                                  cbot(1, 5), ctop(5, 1)).summands] == \
        ["S(5)", "M(2^1,6)", "Ctop(5,1)", "Cbot(1,5)", "C(1,5,2)"]


def test_a_refused_bool_does_not_take_the_place_of_an_int():
    with pytest.raises(ValueError, match="must be integers, got 7, 0, True"):
        cbot(True, 7)
    assert str(cbot(1, 7)) == "Cbot(1,7)"
    assert repr(cbot(1, 7)).endswith("r=1, s=0)")


def test_equality_and_hashing_are_identity():
    for cls in (ElementaryComplex, SmashAtom):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    a = smash_atom(moore(2, 3, 4), cbot(1, 7))
    assert SmashAtom(a.left, a.right, a.shift) is a
    assert smash_atom(cbot(1, 6), moore(2, 3, 5)) is a
    assert suspend(smash_atom(moore(2, 3, 3), cbot(1, 5)), 3).summands[0] is a
    m = infer_sdim(wedge(a))
    assert dual(dual(a, m), m).summands[0] is a


def test_dual_is_an_involution_at_a_fixed_window():
    # every piece, and every atom the 861 wide pairs decompose into, comes
    # back at its own inferred window m
    from chang.smash import smash_decompose
    atoms = {c for a, b in combinations_with_replacement(WIDE_PIECES, 2)
             for c in smash_decompose(a, b).output.summands
             if isinstance(c, SmashAtom)}
    assert len(atoms) == 236
    for x in every_piece() + sorted(atoms, key=lambda c: c.sort_key):
        m = infer_sdim(wedge(x))
        assert dual(dual(x, m), m) == wedge(x), (str(x), m)
    # with the window inferred anew by each call it is not an involution
    assert dual(dual(sphere(5))) == wedge(sphere(3))


def test_copies_and_pickles_keep_identity():
    import copy
    import pickle
    base = smash_atom(moore(2, 3, 3), cbot(1, 5))
    atom = suspend(base, 1).summands[0]
    values = [cfull(1, 5, 2), moore(3, 2, 6), POINT, base, atom]
    for x in values:
        for clone in (copy.copy, copy.deepcopy,
                      lambda v: pickle.loads(pickle.dumps(v))):
            assert clone(x) is x, (x, clone)
    w = wedge(*values)
    for clone in (copy.copy(w), copy.deepcopy(w),
                  pickle.loads(pickle.dumps(w))):
        assert clone == w and hash(clone) == hash(w)
        assert all(x is y for x, y in zip(clone.summands, w.summands))
    assert rebuilt(cfull(1, 5, 2), dim=6) is cfull(1, 6, 2)
    assert rebuilt(base, shift=2) is suspend(base, 2).summands[0]
    with pytest.raises(ValueError):
        rebuilt(cfull(1, 5, 2), r=0)
