import json
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from chang.complexes import (SmashAtom, cbot, ceta, cfull, ctop, moore,
                             smash_atom, sphere, suspend, wedge)
from chang.errors import InputError
from chang.homology import GradedAbelianGroup, integral_homology
from chang.matrix import (Coef, ColCompose, FormalMorphism, MorphismMatrix,
                          NegateCol, NegateRow, RowCompose, ScaleAddCol,
                          ScaleAddRow, UnknownComposition, apply_step,
                          default_table, homology_of_cone, inverse_step,
                          matrix_from_json, matrix_to_json, parse_morphism,
                          render_matrix, run_script, smith_normal_form,
                          split_cone, steps_from_json)
from chang.smash import smash_decompose

from conftest import PARAMS

DATA = Path(__file__).resolve().parent.parent / "src" / "chang" / "data" / "scripts"


def load_case(name):
    with open(DATA / f"{name}.matrix.json") as fh:
        M = matrix_from_json(json.load(fh))
    with open(DATA / f"{name}.steps.json") as fh:
        steps = steps_from_json(json.load(fh))
    return M, steps


def M_of(rows, cols, entries):
    return MorphismMatrix.build(rows, cols, entries)


def entry_equals(M, i, j, literal):
    want = parse_morphism(literal, M.cols[j], M.rows[i])
    return M.entry(i, j) == want


def test_compose_relations():
    t = default_table()
    m7, s7, s8 = moore(2, 2, 7), sphere(7), sphere(8)
    etaq = parse_morphism("etaq", m7, s7)
    ieta = parse_morphism("ieta", s8, m7)
    assert t.compose(etaq, ieta).is_zero()            # q after i vanishes
    eta = parse_morphism("eta", sphere(8), sphere(7))
    assert eta.scale(2).terms == () or \
        t.normalize(eta.scale(2)).is_zero()           # 2 eta = 0
    etaS = parse_morphism("etaS", moore(2, 3, 8), s7)
    i = parse_morphism("i", s8, moore(2, 3, 8))
    assert t.compose(etaS, i) == parse_morphism("eta", s8, s7)
    # ieta o eta is the word ietaeta; eta o eta o eta is no word
    assert t.compose(ieta, parse_morphism("eta", sphere(9), s8)) == \
        parse_morphism("ietaeta", sphere(9), m7)
    with pytest.raises(UnknownComposition):
        t.compose(parse_morphism("etaeta", s7, sphere(5)), eta)


# the rules relations.txt stated before the letters decided them, as
# (g, f, g o f); each is a case of the words law or of the η∧1 law
_LETTER_RULES = [
    ("q", "eta_w1", "etaq"), ("q", "1_w_eta", "etaq"),
    ("eta_w1", "i", "ieta"), ("1_w_eta", "i", "ieta"),
    ("eta_w1", "ietaq", "ietaetaq"), ("1_w_eta", "ietaq", "ietaetaq"),
    ("q", "i", "0"), ("q", "ieta", "0"), ("q", "ietaq", "0"),
    ("etaq", "i", "0"), ("etaq", "ieta", "0"), ("etaq", "ietaq", "0"),
    ("ietaq", "i", "0"), ("ietaq", "ieta", "0"), ("ietaq", "ietaq", "0"),
    ("ietaetaq", "i", "0"), ("ietaetaq", "ietaq", "0"),
    ("eta", "eta", "etaeta"),
    ("ietaq", "eta_w1", "ietaetaq"), ("ietaq", "1_w_eta", "ietaetaq"),
    ("etaq", "eta_w1", "etaetaq"), ("etaq", "1_w_eta", "etaetaq")]


def _word_type(gen):
    """(source is a Moore space, target is one, target dimension minus
    source dimension) of a word, or of η∧1 and 1∧η: i maps S(n) to M(n),
    q maps M(n) to S(n+1), eta lowers a sphere by one and rho by three."""
    if gen in ("eta_w1", "1_w_eta"):
        return True, True, -1
    shift = gen.count("q") - gen.count("eta") - 3 * gen.count("rho")
    return gen.endswith("q"), gen.startswith("i"), shift


def _typed_rules():
    """(g, f, g o f, source, middle, target) for each old rule, at every
    2-primary Moore exponent 1..3 of each end; η∧1 keeps its exponent."""
    out = []
    for g, f, gf in _LETTER_RULES:
        (s_m, m_m, fshift), (_, t_m, gshift) = _word_type(f), _word_type(g)
        dims = (9, 9 + fshift, 9 + fshift + gshift)
        for exps in product(*[(1, 2, 3) if m else (0,)
                              for m in (s_m, m_m, t_m)]):
            if any(h in ("eta_w1", "1_w_eta") and exps[a] != exps[a + 1]
                   for a, h in ((0, f), (1, g))):
                continue
            ends = [moore(2, e, d) if e else sphere(d)
                    for e, d in zip(exps, dims)]
            out.append((g, f, gf, *ends))
    return out


def test_the_letters_decide_every_rule_they_replaced():
    # the terms are composed as written: normalising first could rewrite
    # them (ietaq on M(2^1,n) is 2) so that no rule applies
    t = default_table()
    cases = _typed_rules()
    assert len(cases) == 166
    for g, f, gf, src, mid, tgt in cases:
        got = t.compose(FormalMorphism(mid, tgt, ((Coef(1), g),)),
                        FormalMorphism(src, mid, ((Coef(1), f),)))
        assert got == parse_morphism(gf, src, tgt), (g, f, src, mid, tgt)


def test_relations_table_states_only_what_the_letters_do_not_decide():
    from chang.matrix import _WORDS, _by_letters
    rules = default_table().compose_rules
    assert set(rules) == {("eta_w1", "B"), ("1_w_eta", "B"), ("etaS", "i"),
                          ("q", "xi"), ("q", "rhoM"), ("lambda11", "iq")}
    for g, f in rules:
        assert _by_letters(g, f) is None, (g, f)
        assert not {g, f} <= _WORDS, (g, f)


def test_normalization_basis_rewrites():
    t = default_table()
    m = parse_morphism("ietaq", moore(2, 1, 6), moore(2, 1, 6))
    assert m == parse_morphism("2", moore(2, 1, 6), moore(2, 1, 6))
    # ietaetaq folds into twice the order-four generator across a dimension
    m = parse_morphism("ietaetaq", moore(2, 3, 8), moore(2, 1, 7))
    assert m == parse_morphism("2*xiM", moore(2, 3, 8), moore(2, 1, 7))
    m = parse_morphism("B", moore(2, 2, 7), moore(2, 2, 7))
    assert m == parse_morphism("1", moore(2, 2, 7), moore(2, 2, 7))


def test_negate_row_twice_is_identity():
    M, _ = load_case("skeleton_eta_full")
    assert apply_step(apply_step(M, NegateRow(1)), NegateRow(1)) == M


def test_every_step_kind_is_invertible():
    M, _ = load_case("quotient_full_full")
    steps = [NegateRow(2), NegateCol(3),
             ScaleAddRow(4, 3, 1), ScaleAddCol(2, 2, 4),
             ColCompose(2, "ietaq", 4),
             RowCompose("ietaq", 4, 2)]
    for step in steps:
        N = apply_step(M, step)
        back = apply_step(N, inverse_step(step))
        assert back == M, step


def test_homology_preserved_by_steps():
    for name in ("quotient_eta_full", "skeleton_eta_full",
                 "quotient_full_full"):
        M, steps = load_case(name)
        h0 = homology_of_cone(M)
        for step in steps:
            M = apply_step(M, step)
            assert homology_of_cone(M) == h0, (name, step)


def _freeze(M):
    return [[str(M.entry(i, j)) for j in range(len(M.cols))]
            for i in range(len(M.rows))]


def test_replay_quotient_eta_full():
    M, steps = load_case("quotient_eta_full")
    out = run_script(M, steps)
    assert entry_equals(out, 0, 0, "2^2")
    assert out.entry(0, 1).is_zero()             # etaq + q(eta_w1) cancels
    assert entry_equals(out, 1, 0, "eta")
    assert entry_equals(out, 2, 1, "eta_w1")
    rep = split_cone(out)
    assert rep.pieces == wedge(ctop(9, 2), SmashAtom(moore(2, 3, 3), ceta(5), 1))
    assert not rep.residual
    # the named cone pieces are the interned instances
    assert rep.pieces.summands[0] is ctop(9, 2)
    assert rep.pieces.summands[1] is smash_atom(moore(2, 3, 4), ceta(5))


def test_replay_skeleton_eta_full():
    M, steps = load_case("skeleton_eta_full")
    out = run_script(M, steps)
    assert out.entry(0, 2).is_zero()             # ieta + (eta_w1) i cancels
    assert entry_equals(out, 0, 0, "eta_w1")
    assert entry_equals(out, 1, 1, "eta")
    assert entry_equals(out, 1, 2, "2^3")
    rep = split_cone(out)
    assert rep.pieces == wedge(cbot(3, 9), smash_atom(moore(2, 2, 3), ceta(5)))
    assert not rep.residual


def test_replay_moore_blocks_with_symbolic_bits():
    for name, piece in (("moore_block_r_gt_u", cfull(1, 9, 3)),
                        ("moore_block_r_eq_u", cfull(2, 9, 2)),
                        ("moore_block_r_lt_u", cfull(1, 9, 3))):
        M, steps = load_case(name)
        out = run_script(M, steps)
        # the engineered column move cancels the mixed entry exactly
        offdiag = (0, 0) if name == "moore_block_r_gt_u" else (0, 1)
        assert out.entry(*offdiag).is_zero(), name
        rep = split_cone(out)
        r_exp = M.rows[0].r
        assert rep.pieces == wedge(piece,
                                   smash_atom(moore(2, r_exp, 3), ceta(5)))
        assert not rep.residual


def test_replay_quotient_full_full():
    M, steps = load_case("quotient_full_full")
    out = run_script(M, steps)
    assert out.entry(0, 0).is_zero()
    assert entry_equals(out, 0, 1, "etaq")
    assert entry_equals(out, 2, 0, "2")
    assert entry_equals(out, 2, 2, "etaq")
    assert entry_equals(out, 3, 1, "2")
    assert entry_equals(out, 3, 4, "eta_w1")
    assert entry_equals(out, 1, 3, "ietaq")
    assert entry_equals(out, 1, 4, "xiM + k*ietaetaq")
    rep = split_cone(out)
    assert rep.pieces == wedge(cfull(1, 9, 3))
    assert len(rep.residual) == 1               # the deeper block stays put
    L = rep.residual[0]
    assert homology_of_cone(M) == \
        integral_homology(rep.pieces).direct_sum(homology_of_cone(L))


def _pinned(terms, vals):
    """The (coefficient, generator) terms with each bit set to its value in
    vals, 0 when vals has none."""
    return tuple((Coef(sum(c for m, c in coef.terms.items()
                           if all(vals.get(b, 0) for b in m))), g)
                 for coef, g in terms)


def test_symbolic_bits_agree_with_all_valuations(tmp_path, monkeypatch):
    rules = default_table().compose_rules
    cases = []
    for name in ("moore_block_r_gt_u", "moore_block_r_eq_u",
                 "moore_block_r_lt_u", "quotient_full_full"):
        M, steps = load_case(name)
        out = run_script(M, steps)
        bits = set()
        for line in list(M.entries) + list(out.entries):
            for e in line:
                for c, _ in e.terms:
                    bits |= c.bits_used()
        for step in steps:
            if isinstance(step, (ColCompose, RowCompose)):
                lit = step.f if isinstance(step, ColCompose) else step.g
                for b in ("k", "k2", "e", "e2"):
                    if b in lit:
                        bits.add(b)
        bits = sorted(bits | {"k2"})       # relation outputs may mention k'
        cases.append((name, M, steps, out, bits))

    def ev_matrix(mat, vals):
        return MorphismMatrix.build(mat.rows, mat.cols, {
            (i, j): FormalMorphism(c, r, _pinned(mat.entry(i, j).terms, vals))
            for i, r in enumerate(mat.rows) for j, c in enumerate(mat.cols)})

    # each valuation replays under the relation table with its bits pinned
    monkeypatch.setenv("CHANG_TABLE_PATH", str(tmp_path))
    try:
        for name, M, steps, out, bits in cases:
            for mask in range(1 << len(bits)):
                vals = {b: (mask >> i) & 1 for i, b in enumerate(bits)}
                (tmp_path / "relations.txt").write_text("".join(
                    f"compose; {g}; {f}; " + (" + ".join(
                        f"({c.const_value()})*{h}"
                        for c, h in _pinned(terms, vals)) or "0") + "\n"
                    for (g, f), terms in rules.items()), encoding="utf-8")
                default_table.cache_clear()
                ev_steps = []
                for step in steps:
                    if isinstance(step, ColCompose):
                        f = parse_morphism(step.f, M.cols[step.n - 1],
                                           M.cols[step.m - 1])
                        ev_steps.append(ColCompose(
                            step.m, FormalMorphism(f.source, f.target,
                                                   _pinned(f.terms, vals)),
                            step.n))
                    elif isinstance(step, RowCompose):
                        g = parse_morphism(step.g, M.rows[step.m - 1],
                                           M.rows[step.n - 1])
                        ev_steps.append(RowCompose(
                            FormalMorphism(g.source, g.target,
                                           _pinned(g.terms, vals)),
                            step.m, step.n))
                    else:
                        ev_steps.append(step)
                assert run_script(ev_matrix(M, vals), ev_steps) == \
                    ev_matrix(out, vals), (name, vals)
    finally:
        monkeypatch.delenv("CHANG_TABLE_PATH")
        default_table.cache_clear()
    assert default_table().compose_rules == rules


def test_split_identity_cone_is_contractible():
    M = M_of([sphere(6)], [sphere(6)], {(0, 0): "1"})
    rep = split_cone(M)
    assert rep.pieces == wedge() and not rep.residual


def test_split_null_map():
    M = M_of([sphere(6)], [sphere(7)], {})
    rep = split_cone(M)
    assert rep.pieces == wedge(sphere(6), sphere(8))


def test_split_degree_map_on_sphere():
    M = M_of([sphere(6)], [sphere(6)], {(0, 0): "12"})
    rep = split_cone(M)
    assert rep.pieces == wedge(moore(2, 2, 6), moore(3, 1, 6))


def test_moore_smash_oracle_matches_rule(capsys=None):
    # cone of the degree map smashed with the smaller Moore space
    for r, s in product(PARAMS, PARAMS):
        M = M_of([moore(2, s, 6)], [moore(2, s, 6)], {(0, 0): f"{2 ** r}"})
        rep = split_cone(M)
        rule = smash_decompose(wedge(moore(2, r, 3)),
                               wedge(moore(2, s, 3))).output
        assert not rep.residual, (r, s)
        assert rep.pieces == rule, (r, s)
        assert homology_of_cone(M) == integral_homology(rule)


def test_unknown_composition_carries_step():
    M = M_of([sphere(7)], [sphere(10), sphere(11)], {(0, 0): "rho"})
    with pytest.raises(UnknownComposition) as err:
        apply_step(M, ColCompose(1, "eta", 2))
    assert "ColCompose" in str(err.value) and "rho" in str(err.value)


def test_matrix_json_roundtrip():
    M, _ = load_case("quotient_full_full")
    again = matrix_from_json(matrix_to_json(M))
    assert again == M
    # every corpus matrix, before and after its replay, reads back from the
    # JSON text that matrix_to_json writes
    seen = []
    for M, steps in _corpus_cases(1500, 2016):
        seen.append(M)
        try:
            seen.append(run_script(M, steps))
        except (ValueError, UnknownComposition):
            pass
    for M in seen:
        assert matrix_from_json(json.dumps(matrix_to_json(M))) == M
    assert len(seen) == 2295
    # the corpus spells bits and coefficients of more than one term
    coefs = {c for M in seen for line in M.entries for e in line
             for c, _ in e.terms}
    assert any(c.bits_used() for c in coefs)
    assert any(len(c.terms) > 1 for c in coefs)


def test_render_matrix_shape():
    M, _ = load_case("skeleton_eta_full")
    text = render_matrix(M)
    lines = text.splitlines()
    assert len(lines) == 3
    assert "M(2^2,6)" in lines[1] and "η∧1" in lines[1]


def test_smith_normal_form():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[4]]) == [4]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]


def test_homology_of_cone_matches_named_complexes():
    # the standard presentations rebuild their complexes
    M = M_of([sphere(7)], [sphere(7), sphere(8)], {(0, 0): "2^2", (0, 1): "eta"})
    assert homology_of_cone(M) == integral_homology(wedge(cbot(2, 9)))
    M = M_of([sphere(7)], [sphere(7), moore(2, 3, 7)],
             {(0, 0): "2", (0, 1): "etaq"})
    assert homology_of_cone(M) == integral_homology(wedge(cfull(1, 9, 3)))


def test_relation_table_closed_under_negation():
    t = default_table()
    f = parse_morphism("ietaq", moore(2, 2, 7), moore(2, 2, 7))
    g = parse_morphism("eta_w1", moore(2, 2, 7), moore(2, 2, 6))
    assert t.compose(g, f.negate()) == t.normalize(t.compose(g, f).negate())
    ident = parse_morphism("1", moore(2, 2, 7), moore(2, 2, 7))
    assert t.compose(g, ident) == g
    assert t.compose(ident, f) == f


def test_relations_table_path_override(tmp_path, monkeypatch):
    from importlib import resources
    import chang.matrix as mx
    src = resources.files("chang").joinpath("data", "relations.txt")
    text = src.read_text(encoding="utf-8") + \
        "compose; eta; etaeta; rho\n"        # a deliberately fake extra rule
    (tmp_path / "relations.txt").write_text(text, encoding="utf-8")
    monkeypatch.setenv("CHANG_TABLE_PATH", str(tmp_path))
    mx.default_table.cache_clear()
    try:
        t = mx.default_table()
        assert ("eta", "etaeta") in t.compose_rules
    finally:
        monkeypatch.delenv("CHANG_TABLE_PATH")
        mx.default_table.cache_clear()
    assert ("eta", "etaeta") not in mx.default_table().compose_rules


def test_moore_smash_bot_oracle_matches_rule():
    # M(2^u,3) ^ Cbot(r,5) is the cone of (2^r, 1^eta) out of M^6 v M^7;
    # the engine's splitting of that cone must agree with the rule-based
    # decomposition whenever the degree entry dies (r >= u, except the
    # unit-exponent square which needs a genuine basis move)
    for u, r in product(PARAMS, PARAMS):
        if not (r >= u and (u, r) != (1, 1)):
            continue
        M = M_of([moore(2, u, 6)],
                 [moore(2, u, 6), moore(2, u, 7)],
                 {(0, 0): str(2 ** r), (0, 1): "1_w_eta"})
        rep = split_cone(M)
        rule = smash_decompose(wedge(moore(2, u, 3)),
                               wedge(cbot(r, 5))).output
        assert not rep.residual, (u, r)
        assert rep.pieces == rule, (u, r)
        assert homology_of_cone(M) == integral_homology(rule)
    # the unit-exponent square needs the engineered basis move first
    M, steps = load_case("moore_block_unit_exponents")
    out = run_script(M, steps)
    assert out.entry(0, 0).is_zero()
    rep = split_cone(out)
    rule = smash_decompose(wedge(moore(2, 1, 3)), wedge(cbot(1, 5))).output
    assert rep.pieces == rule and not rep.residual
    assert homology_of_cone(M) == integral_homology(rule)
    # for u > r the degree entry survives and the cone stays in one piece,
    # matching the indecomposable branch
    M = M_of([moore(2, 3, 6)],
             [moore(2, 3, 6), moore(2, 3, 7)],
             {(0, 0): "2", (0, 1): "1_w_eta"})
    rep = split_cone(M)
    assert rep.residual and rep.pieces == wedge()
    rule = smash_decompose(wedge(moore(2, 3, 3)), wedge(cbot(1, 5))).output
    assert homology_of_cone(M) == integral_homology(rule)


def test_unit_cancellation_in_split_cone():
    # an identity entry cancels a row/column pair; the correction term is
    # composed through the inverse and the leftovers split as usual
    M = M_of([sphere(7), sphere(7)], [sphere(7), sphere(8)],
             {(0, 0): "1", (0, 1): "eta", (1, 0): "2"})
    rep = split_cone(M)
    assert rep.pieces == wedge(sphere(7), sphere(9))
    assert not rep.residual
    assert homology_of_cone(M) == integral_homology(rep.pieces)
    # odd multiples of the identity on torsion pieces are units too
    M = M_of([moore(2, 2, 6)], [moore(2, 2, 6)], {(0, 0): "3"})
    rep = split_cone(M)
    assert rep.pieces == wedge() and not rep.residual


@pytest.mark.parametrize("rows, cols, entries, pieces, residual", [
    # eta q attaches the column's top cell to the row's cell: Ctop
    (["S(5)"], ["M(2^2,5)"], {(0, 0): "etaq"}, "Ctop(7,2)", 0),
    # one degree up its eta edge spans three degrees: no family's cells
    (["S(5)"], ["M(2^2,6)"], {(0, 0): "etaq"}, "*", 1),
    # an unknown generator has no chain data, so the boundary is unknown
    (["S(5)"], ["S(6)"], {(0, 0): "foo"}, "*", 1),
    # an undetermined bit leaves the eta edge open
    (["S(5)"], ["S(5)", "M(2^3,5)"], {(0, 0): "2^2", (0, 1): "k*etaq"},
     "*", 1),
    # on M(3^2,7), whose identity has order 9, 3 is no unit and 2 is one;
    # the cone of 3 spans three degrees, fewer than 2p - 2 = 4
    (["M(3^2,7)"], ["M(3^2,7)"], {(0, 0): "3"}, "M(3^1,7) v M(3^1,8)", 0),
    (["M(3^2,7)"], ["M(3^2,7)"], {(0, 0): "2"}, "*", 0),
    # a cone in two adjacent degrees is the wedge its Smith form names:
    # [[0, -3], [4, 5]] has determinant 12, and (-4, 3, 3) leaves Z^2
    (["S(7)", "S(7)"], ["S(7)", "S(7)"],
     {(0, 1): "-3", (1, 0): "2^2", (1, 1): "5"}, "M(3^1,7) v M(2^2,7)", 0),
    (["S(10)", "S(10)", "S(10)"], ["S(10)"],
     {(0, 0): "-4", (1, 0): "3", (2, 0): "3"}, "S(10) v S(10)", 0),
], ids=["etaq", "etaq-one-up", "unknown-generator", "undetermined-bit",
        "3-on-M(9)", "2-on-M(9)", "determinant-12", "column-(-4,3,3)"])
def test_split_cone_names_blocks(rows, cols, entries, pieces, residual):
    M = matrix_from_json({"rows": rows, "cols": cols,
                          "entries": [[i + 1, j + 1, lit]
                                      for (i, j), lit in entries.items()]})
    rep = split_cone(M)
    assert (str(rep.pieces), len(rep.residual)) == (pieces, residual)


def test_unit_cancellation_names_the_first_missing_rule_by_rows():
    # two corrections have no rule: eta o rho in row 2, etaeta o eta in
    # row 3; the cancellation works row by row, so the row-2 rule is named
    M = M_of([sphere(7), sphere(6), sphere(5)],
             [sphere(7), sphere(8), sphere(10)],
             {(0, 0): "1", (0, 1): "eta", (0, 2): "rho", (1, 0): "eta",
              (2, 0): "etaeta"})
    with pytest.raises(UnknownComposition) as err:
        split_cone(M)
    assert str(err.value) == "no rule for 'eta' o 'rho'"


def test_unit_cancellation_composes_iq_after_i():
    # cancelling the unit 118 composes 2^3iq with 122i, and iq o i = 0 by
    # the letters; the cone has H_8 = Z + Z/125
    M = M_of([moore(5, 3, 8), moore(5, 3, 7)], [moore(5, 3, 7), sphere(7)],
             {(0, 0): "2^3*iq", (1, 0): "118", (1, 1): "122*i"})
    rep = split_cone(M)
    assert (str(rep.pieces), rep.residual) == ("S(8) v M(5^3,8)", ())
    assert integral_homology(rep.pieces) == homology_of_cone(M)


def test_multiples_of_i_into_moore_spaces_name_only_their_cone():
    # the cone of c.i: S(7) -> M(p^r,7) has H_7 = Z/gcd(c, p^r) and H_8 = Z,
    # and the cone of c.q: M(p^r,7) -> S(8) has H_8 = Z + Z/gcd(c, p^r), so
    # each is S(8) v M(gcd(c, p^r)) in the degree of its torsion, with no
    # Moore piece when c is prime to p
    for p, r, c in product((2, 3, 5), (1, 2), range(10)):
        k = next(k for k in range(r, -1, -1) if c % p ** k == 0)
        for rows, cols, gen, d in (([moore(p, r, 7)], [sphere(7)], "i", 7),
                                   ([sphere(8)], [moore(p, r, 7)], "q", 8)):
            M = M_of(rows, cols, {(0, 0): f"{c}*{gen}"})
            rep = split_cone(M)
            want = wedge(sphere(8), *([moore(p, k, d)] if k else []))
            assert (rep.pieces, rep.residual) == (want, ()), (p, r, c, gen)
            assert integral_homology(rep.pieces) == homology_of_cone(M), \
                (p, r, c, gen)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_null_multiples_of_i_and_q_and_q_itself_split(p, tmp_path):
    # p.i into M(p,6) and p^2.q out of M(p^2,6) are null, and the cone of q
    # is S(7): reduce --auto names every cone, with the homology of the
    # chain complex of the literal as written
    from chang.cli import run_command
    from chang.parser import lower, parse_expression
    for row, col, c, gen, want in (
            (moore(p, 1, 6), sphere(6), p, "i", f"S(7) v M({p}^1,6)"),
            (sphere(7), moore(p, 2, 6), p * p, "q", f"S(7) v M({p}^2,7)"),
            (sphere(7), moore(p, 2, 6), 1, "q", "S(7)")):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": [str(row)], "cols": [str(col)],
                                    "entries": [[1, 1, f"{c}*{gen}"]]}),
                        encoding="utf-8")
        code, out = run_command(["reduce", str(path), "--auto"])
        assert code == 0 and "residual" not in out, (c, gen)
        assert f"splits off: {want}\n" in out, (c, gen)
        raw = MorphismMatrix((row,), (col,), ((FormalMorphism(
            col, row, ((Coef(c), gen),)),),))
        assert homology_of_cone(raw) == \
            integral_homology(lower(parse_expression(want))), (c, gen)


def test_cone_refuses_chain_entries_that_skip_a_degree():
    # each map is of the wrong dimension: its chain entry joins two cells of
    # one degree, or cells two degrees apart, so its cone has no boundary;
    # split_cone leaves the block as it is.  The terms are built as given,
    # since parse_morphism refuses a B between dimensions
    for row, col, gen in ((moore(2, 1, 7), sphere(6), "i"),
                          (sphere(8), moore(2, 1, 6), "q"),
                          (moore(2, 2, 7), moore(2, 1, 8), "B")):
        M = MorphismMatrix((row,), (col,),
                           ((FormalMorphism(col, row, ((Coef(1), gen),)),),))
        with pytest.raises(InputError) as err:
            homology_of_cone(M)
        assert str(err.value) == \
            f"'{gen}' from {col} to {row} does not lower a cell by one degree"
        rep = split_cone(M)
        assert (rep.pieces, rep.residual) == (wedge(), (M,)), gen
        assert rep.log == (f"irreducible residual block on rows {row}",)


def test_moore_exponent_names_need_moore_ends(tmp_path, capsys):
    # a display name that spells a Moore end's exponent has none to spell
    # at a sphere
    from chang.cli import main
    for gen, src, tgt, end in (
            ("etamix", sphere(8), moore(2, 2, 7), "S(8)"),
            ("xiM", moore(2, 1, 8), sphere(7), "S(7)"),
            ("xi", sphere(8), sphere(6), "S(6)"),
            ("etaS", sphere(6), sphere(5), "S(6)"),
            ("rhoM", sphere(9), sphere(6), "S(6)")):
        with pytest.raises(InputError) as err:
            parse_morphism(f"1 + {gen}", src, tgt)
        assert str(err.value) == f"'{gen}' needs a Moore space, not {end}"
    assert str(parse_morphism("xiM", moore(2, 1, 8), moore(2, 2, 7))) == \
        "ξ_2^1"
    assert str(parse_morphism("etaS", moore(2, 3, 6), sphere(5))) == "η^3"
    path = _write(tmp_path, "m.json", {"rows": ["M(2^2,7)"], "cols": ["S(8)"],
                                       "entries": [[1, 1, "etamix"]]})
    assert main(["reduce", path, "--auto"]) == 2
    assert capsys.readouterr().err == ("error: matrix entry [1, 1, 'etamix']:"
                                       " 'etamix' needs a Moore space, not "
                                       "S(8)\n")


# the generators whose integral chains the cone reads, by the shape of their
# type: (source kind, target kind, target dimension minus source dimension);
# the identity only where the source is the target
_SWEEP_GENERATORS = {("sphere", "moore", 0): ("i",),
                     ("moore", "sphere", 1): ("q", "iq"),
                     ("moore", "moore", 1): ("iq",)}
_SWEEP_POOL = [sphere(d) for d in (6, 7, 8)] + [
    moore(p, r, d) for p in (2, 3, 5) for r in (1, 2, 3) for d in (6, 7, 8)]


def _sweep_entry(rng, src, tgt):
    """A random integer combination of the generators that fit src -> tgt,
    as written: not reduced by the generators' orders."""
    gens = ("id",) if src == tgt else _SWEEP_GENERATORS.get(
        (src.kind, tgt.kind, tgt.dim - src.dim), ())
    terms = [(Coef(rng.randint(-9, 9)), g) for g in gens]
    return FormalMorphism(src, tgt,
                          tuple((c, g) for c, g in terms if not c.is_zero()))


def _is_two_degree(M):
    from chang.matrix import _cone
    dims = set(_cone(M.rows, M.cols, M.entries).dims)
    return dims == {min(dims), min(dims) + 1}


def test_seeded_sweep_of_degree_and_inclusion_maps():
    # matrices up to 2x2 of spheres and Moore spaces, each entry an integer
    # combination of the generators that fit its type
    import random
    from functools import reduce
    rng = random.Random(27)
    two_degree = null = 0
    for _ in range(4000):
        rows = rng.sample(_SWEEP_POOL, rng.randint(1, 2))
        cols = rng.sample(_SWEEP_POOL, rng.randint(1, 2))
        raw = tuple(tuple(_sweep_entry(rng, c, r) for c in cols)
                    for r in rows)
        M = M_of(rows, cols, {(i, j): raw[i][j] for i in range(len(rows))
                              for j in range(len(cols))})
        # homotopic maps have equivalent cones: normalising keeps homology
        h = homology_of_cone(M)
        assert homology_of_cone(MorphismMatrix(rows, cols, raw)) == h, \
            render_matrix(M)
        rep = split_cone(M)
        assert reduce(GradedAbelianGroup.direct_sum,
                      map(homology_of_cone, rep.residual),
                      integral_homology(rep.pieces)) == h, render_matrix(M)
        if all(e.is_zero() for line in M.entries for e in line):
            assert rep.pieces == wedge(*rows, suspend(wedge(*cols), 1))
            null += 1
        assert not any(map(_is_two_degree, rep.residual)), render_matrix(M)
        # a cone of spheres and odd-prime Moore spaces is named
        assert all(any(c.p == 2 for c in R.rows + R.cols)
                   for R in rep.residual), render_matrix(M)
        two_degree += _is_two_degree(M)
    assert (two_degree, null) == (435, 3097)


_WORD_NAMES = ("i", "q", "iq", "eta", "ieta", "etaq", "ietaq", "etaeta",
               "ietaeta", "etaetaq", "ietaetaq", "rho", "irho")
_WORDS_BY_TYPE: dict = {}
for _w in _WORD_NAMES:
    _WORDS_BY_TYPE.setdefault(_word_type(_w), []).append(_w)


def _word_entry(rng, src, tgt):
    """A random integer combination of the words that fit src -> tgt, or
    a multiple of the identity where src is tgt."""
    gens = ["id"] if src == tgt else _WORDS_BY_TYPE.get(
        (src.kind == "moore", tgt.kind == "moore", tgt.dim - src.dim), [])
    terms = [(Coef(rng.randint(-3, 3)), g) for g in gens]
    return FormalMorphism(src, tgt,
                          tuple((c, g) for c, g in terms if not c.is_zero()))


def test_seeded_sweep_of_word_entries_and_their_moves():
    # matrices of 2-3 rows and columns over two pieces each, with entries
    # that combine words, eta family included; a random compose-add or
    # scale-add move and its inverse give the matrix back, and the move
    # keeps the cone's homology.  A move fails only where a composite is
    # no word: ietaeta o eta, or a pair with the etamix that 2-primary
    # basis rewrites leave
    import random
    import re
    rng = random.Random(28)
    dims = (5, 6, 7, 8)
    pool = [sphere(d) for d in dims] + [
        moore(p, r, d) for p in (2, 3, 5) for r in (1, 2) for d in dims]
    moves = unknown = 0
    for _ in range(1500):
        rows = rng.choices(rng.sample(pool, 2), k=rng.randint(2, 3))
        cols = rng.choices(rng.sample(pool, 2), k=rng.randint(2, 3))
        M = M_of(rows, cols, {(i, j): _word_entry(rng, c, r)
                              for i, r in enumerate(rows)
                              for j, c in enumerate(cols)})
        kind = rng.choice((RowCompose, ColCompose, ScaleAddRow, ScaleAddCol))
        heads = rows if kind in (RowCompose, ScaleAddRow) else cols
        m, n = rng.sample(range(1, len(heads) + 1), 2)
        a, b = heads[m - 1], heads[n - 1]
        if kind is RowCompose:
            step = RowCompose(_word_entry(rng, a, b), m, n)
        elif kind is ColCompose:
            step = ColCompose(m, _word_entry(rng, b, a), n)
        elif a == b:
            step = kind(rng.choice((-2, -1, 1, 2, 3)), m, n)
        else:
            continue
        try:
            N = apply_step(M, step)
        except UnknownComposition as exc:
            f, g = re.match(r"no rule for '(\w+)' o '(\w+)'",
                            str(exc)).groups()
            assert f + g not in _WORD_NAMES and "qi" not in f + g, str(exc)
            unknown += 1
            continue
        assert apply_step(N, inverse_step(step)) == M, (step, render_matrix(M))
        assert homology_of_cone(N) == homology_of_cone(M), \
            (step, render_matrix(M))
        moves += 1
    assert (moves, unknown) == (1147, 4)


def test_split_cone_refuses_smash_atom_summands():
    a = smash_atom(moore(2, 2, 3), ceta(5))
    M = M_of([a], [a], {(0, 0): "2"})
    for fn in (split_cone, homology_of_cone):
        with pytest.raises(InputError,
                           match="matrix summands must be elementary pieces"):
            fn(M)


def test_step_invertibility_randomized():
    import random
    rng = random.Random(3)
    pool = [sphere(7), sphere(8), moore(2, 1, 7), moore(2, 2, 7)]

    def random_entry(src, tgt):
        cands = ["0"]
        if src == tgt:
            cands += ["1", "2", "-1", "3"]
        if src.kind == "sphere" and tgt.kind == "sphere" \
                and src.dim == tgt.dim + 1:
            cands.append("eta")
        if src.kind == "sphere" and tgt.kind == "moore" \
                and src.dim == tgt.dim + 1:
            cands.append("ieta")
        if src.kind == "moore" and tgt.kind == "sphere" \
                and src.dim == tgt.dim:
            cands.append("etaq")
        if src.kind == "moore" and tgt.kind == "moore" \
                and src.dim == tgt.dim:
            cands.append("ietaq")
        return rng.choice(cands)

    for _ in range(60):
        rows = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        cols = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        entries = {(i, j): random_entry(cols[j], rows[i])
                   for i in range(len(rows)) for j in range(len(cols))}
        M = M_of(rows, cols, entries)
        steps = [NegateRow(rng.randint(1, len(rows))),
                 NegateCol(rng.randint(1, len(cols)))]
        if len(rows) >= 2:
            m, n = rng.sample(range(1, len(rows) + 1), 2)
            if rows[m - 1] == rows[n - 1]:
                steps.append(ScaleAddRow(rng.choice([1, 2, -1]), m, n))
        if len(cols) >= 2:
            m, n = rng.sample(range(1, len(cols) + 1), 2)
            if cols[m - 1] == cols[n - 1]:
                steps.append(ScaleAddCol(rng.choice([1, 2, -1]), m, n))
        for step in steps:
            N = apply_step(M, step)
            assert apply_step(N, inverse_step(step)) == M, (step, entries)
            assert homology_of_cone(N) == homology_of_cone(M), step


def _step_cases(nrows, ncols):
    """Every step kind with one index at 0 or size+1 and the others valid."""
    cases = []
    for bad in (0, nrows + 1):
        cases += [(NegateRow(bad), "row"), (RowCompose("1", bad, 1), "row"),
                  (RowCompose("1", 1, bad), "row"),
                  (ScaleAddRow(1, bad, 1), "row"),
                  (ScaleAddRow(1, 1, bad), "row")]
    for bad in (0, ncols + 1):
        cases += [(NegateCol(bad), "column"),
                  (ColCompose(bad, "1", 1), "column"),
                  (ColCompose(1, "1", bad), "column"),
                  (ScaleAddCol(1, bad, 1), "column"),
                  (ScaleAddCol(1, 1, bad), "column")]
    return cases


def test_step_indices_are_checked():
    # rows of different size from columns, so a row index cannot pass as
    # a column index
    M = M_of([sphere(5), sphere(5)], [sphere(5), sphere(5), sphere(5)],
             {(0, 0): "2", (1, 0): "3"})
    cases = _step_cases(2, 3)
    assert {type(step) for step, _ in cases} == {
        NegateRow, NegateCol, ColCompose, RowCompose, ScaleAddRow,
        ScaleAddCol}
    for step, what in cases:
        size = 2 if what == "row" else 3
        bad = next(i for i in (getattr(step, "m", 1), step.n)
                   if not 1 <= i <= size)
        with pytest.raises(ValueError,
                           match=rf"^{what} index {bad} is outside 1\.\.{size}$"):
            apply_step(M, step)
    # index 0 used to negate the last row through Python's index -1
    N = apply_step(M, NegateRow(1))
    assert entry_equals(N, 0, 0, "-2") and entry_equals(N, 1, 0, "3")


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_cli_rejects_bad_step_indices(tmp_path, capsys):
    from chang.cli import main
    matrix = _write(tmp_path, "m.json", {"rows": ["S(5)", "S(5)"],
                                         "cols": ["S(5)"],
                                         "entries": [[1, 1, "2"],
                                                     [2, 1, "3"]]})
    for n in (0, 3):
        steps = _write(tmp_path, f"s{n}.json", [{"kind": "NegateRow", "n": n}])
        assert main(["reduce", matrix, "--script", steps]) == 2
        assert capsys.readouterr().err == \
            f"error: step 0: row index {n} is outside 1..2\n"
    steps = _write(tmp_path, "s1.json", [{"kind": "NegateRow", "n": 2}])
    assert main(["reduce", matrix, "--script", steps]) == 0
    assert "S(5) | -3" in capsys.readouterr().out


def test_malformed_matrix_files_are_rejected(tmp_path, capsys):
    from chang.cli import main
    with pytest.raises(ValueError, match=r"^matrix entry \[4, 1, '3'\]: "
                                         r"row index 4 is outside 1\.\.1$"):
        matrix_from_json({"rows": ["S(5)"], "cols": ["S(5)"],
                          "entries": [[1, 1, "2"], [4, 1, "3"]]})
    with pytest.raises(ValueError, match=r"^matrix entry \[1, 0, '5'\]: "
                                         r"column index 0 is outside 1\.\.1$"):
        matrix_from_json({"rows": ["S(5)"], "cols": ["S(5)"],
                          "entries": [[1, 0, "5"]]})
    with pytest.raises(ValueError, match=r"^matrix entry \[1, 1\]: "):
        matrix_from_json({"rows": ["S(5)"], "cols": ["S(5)"],
                          "entries": [[1, 1]]})
    for field in ("rows", "cols"):
        doc = {"rows": ["S(5)"], "cols": ["S(5)"]}
        del doc[field]
        with pytest.raises(ValueError, match=f"^matrix has no '{field}' field$"):
            matrix_from_json(doc)
    with pytest.raises(ValueError, match="^step 0 has no 'kind' field$"):
        steps_from_json([{"n": 1}])
    with pytest.raises(ValueError, match="^step 1 has no 'n' field$"):
        steps_from_json([{"kind": "NegateCol", "n": 1},
                         {"kind": "NegateRow"}])
    good = _write(tmp_path, "good.json", {"rows": ["S(5)"], "cols": ["S(5)"],
                                          "entries": [[1, 1, "2"]]})
    bad_matrices = [{"rows": ["S(5)"], "cols": ["S(5)"],
                     "entries": [[1, 1, "2"], [4, 1, "3"], [0, 1, "5"]]},
                    {"cols": ["S(5)"]}]
    for i, doc in enumerate(bad_matrices):
        assert main(["reduce", _write(tmp_path, f"bad{i}.json", doc)]) == 2
    steps = _write(tmp_path, "steps.json", [{"kind": "NegateRow"}])
    assert main(["reduce", good, "--script", steps]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: matrix entry [4, 1, '3']: row index 4 is outside 1..1",
                   "error: matrix has no 'rows' field",
                   "error: step 0 has no 'n' field"]


def test_mistyped_matrix_fields_are_input_errors():
    from chang.errors import InputError
    S5 = ["S(5)"]
    cases = [
        ({"rows": [5], "cols": S5},
         "an item of matrix field 'rows' is not a string: 5"),
        ({"rows": S5, "cols": "S(5)"},
         "matrix field 'cols' is not a list: 'S(5)'"),
        ({"rows": S5, "cols": S5, "entries": 5},
         "matrix field 'entries' is not a list: 5"),
        ({"rows": S5, "cols": S5, "entries": [[1, 1, 2]]},
         "matrix entry [1, 1, 2]: morphism is not a string: 2"),
        ('{"rows": [', "Expecting value: line 1 column 11 (char 10)"),
    ]
    for doc, message in cases:
        with pytest.raises(InputError) as err:
            matrix_from_json(doc)
        assert str(err.value) == message
    for doc, message in [
            ({"kind": "NegateRow"}, "a script is not a list: {'kind': 'NegateRow'}"),
            ([{"kind": "ColCompose", "m": 1, "f": 3, "n": 2}],
             "step 0 field 'f' is not a string: 3"),
            ([{"kind": "ScaleAddCol", "k": None, "m": 1, "n": 2}],
             "int() argument must be a string, a bytes-like object or a "
             "real number, not 'NoneType'")]:
        with pytest.raises(InputError) as err:
            steps_from_json(doc)
        assert str(err.value) == message


GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.name[:-len(".matrix.json")]
               for p in DATA.glob("*.matrix.json"))


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("case", CASES)
def test_reduce_cases_match_golden(case, fmt, monkeypatch, capsys):
    from chang.cli import main
    monkeypatch.chdir(DATA)         # relative paths keep `matrix = ` stable
    code = main(["reduce", f"{case}.matrix.json", "--script",
                 f"{case}.steps.json", "--auto", "--format", fmt])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    want = GOLDEN / "reduce" / f"{case}.{fmt}.txt"
    assert out.out == want.read_text(encoding="utf-8")


# generator literals by the shape of their type: (source kind, target kind,
# target dimension minus source dimension)
_CORPUS_GENERATORS = {
    ("sphere", "sphere", -1): ["eta", "2*eta"],
    ("sphere", "sphere", -3): ["rho"],
    ("sphere", "moore", -1): ["ieta"],
    ("sphere", "moore", 0): ["i", "3*i"],
    ("moore", "sphere", 0): ["etaq"],
    ("moore", "sphere", 1): ["q"],
    ("moore", "moore", 0): ["ietaq", "B"],
    ("moore", "moore", -1): ["eta_w1", "1_w_eta", "ietaetaq",
                             "eta_w1 + k*ietaetaq"],
}
_CORPUS_SCALARS = ["1", "-1", "2", "3", "-3", "4", "5", "k", "1 + 2*k"]
_CORPUS_POOL = [sphere(7), sphere(8), sphere(10), moore(2, 1, 7),
                moore(2, 2, 7), moore(2, 3, 7), moore(2, 2, 8)]


def _corpus_literal(rng, src, tgt):
    """A random morphism literal of type src -> tgt, often zero."""
    cands = list(_CORPUS_GENERATORS.get((src.kind, tgt.kind,
                                         tgt.dim - src.dim), []))
    if src == tgt:
        cands += _CORPUS_SCALARS
    return rng.choice(cands) if cands and rng.random() < 0.6 else "0"


def _corpus_step(rng, rows, cols):
    """A random step; indices are sometimes equal or one past the end."""
    kind = rng.choice([NegateRow, NegateCol, ColCompose, RowCompose,
                       ScaleAddRow, ScaleAddCol])
    heads = rows if kind in (NegateRow, RowCompose, ScaleAddRow) else cols
    index = lambda: rng.randint(1, len(heads) + (rng.random() < 0.05))
    head = lambda x: heads[min(x, len(heads)) - 1]
    if kind in (NegateRow, NegateCol):
        return kind(index())
    m, n = index(), index()
    if len(heads) > 1 and rng.random() < 0.8:
        m, n = rng.sample(range(1, len(heads) + 1), 2)
    if kind in (ScaleAddRow, ScaleAddCol):
        same = [x for x in range(1, len(heads) + 1)
                if x != m and heads[x - 1] == head(m)]
        if same and rng.random() < 0.8:
            n = rng.choice(same)
        return kind(rng.choice([-2, -1, 1, 2, 3]), m, n)
    src, tgt = (head(m), head(n)) if kind is RowCompose else (head(n), head(m))
    lit = _corpus_literal(rng, src, tgt)
    if kind is ColCompose:
        return ColCompose(m, lit, n)
    return RowCompose(lit, m, n)


def _corpus_cases(count, seed):
    """(matrix, steps) for each case: a random matrix over spheres and
    2-primary Moore spaces and 0-3 random steps to replay on it."""
    import random
    rng = random.Random(seed)
    for _case in range(count):
        rows = [rng.choice(_CORPUS_POOL) for _ in range(rng.randint(1, 4))]
        cols = rows[:rng.randint(0, len(rows))] + [
            rng.choice(_CORPUS_POOL) for _ in range(rng.randint(0, 2))]
        cols = cols or [rng.choice(_CORPUS_POOL)]
        rng.shuffle(cols)
        M = M_of(rows, cols, {(i, j): _corpus_literal(rng, c, r)
                              for i, r in enumerate(rows)
                              for j, c in enumerate(cols)})
        yield M, [_corpus_step(rng, rows, cols)
                  for _ in range(rng.randint(0, 3))]


def matrix_corpus(count=400, seed=2016):
    """Replay the steps of each corpus case and split each cone; returns
    the transcript lines and the number of unit cancellations."""
    out, cancels = [], 0
    for case, (M, steps) in enumerate(_corpus_cases(count, seed)):
        out += [f"case {case}", render_matrix(M)] + [repr(s) for s in steps]
        try:
            M = run_script(M, steps)
            out.append(render_matrix(M))
            rep = split_cone(M)
        except (ValueError, UnknownComposition) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
            continue
        cancels += sum(note.startswith("cancel unit") for note in rep.log)
        out += [f"pieces: {rep.pieces}"] + list(rep.log)
        out += [render_matrix(sub) for sub in rep.residual]
    return out, cancels


def test_matrix_corpus_matches_golden():
    lines, cancels = matrix_corpus()
    assert cancels >= 20            # the unit-cancellation path stays covered
    want = (GOLDEN / "matrix_corpus.txt").read_text(encoding="utf-8")
    assert "\n".join(lines) + "\n" == want


def test_named_blocks_have_the_cone_homology(monkeypatch):
    # every block split_cone names has the homology of its cone
    import chang.matrix as mx
    recognize, named = mx._recognize_block, []

    def recording(rows, cols, grid):
        pieces = recognize(rows, cols, grid)
        if pieces is not None:
            named.append((MorphismMatrix(tuple(rows), tuple(cols), grid),
                          wedge(*pieces)))
        return pieces

    monkeypatch.setattr(mx, "_recognize_block", recording)
    matrix_corpus(count=1500, seed=1606)
    assert len(named) >= 150
    for block, pieces in named:
        assert homology_of_cone(block) == integral_homology(pieces), \
            (render_matrix(block), str(pieces))


def test_multiples_of_iq_between_odd_moore_spaces_have_the_chain_homology():
    # the cone of k.iq: M(p^r,6) -> M(p^t,7) has the boundary
    # [[p^t, k], [0, -p^r]] from degree 8 to 7, whose Smith normal form is
    # g, p^(r+t)/g with g = gcd(k, p^min(r,t)): iq has order p^min(r,t)
    for p, r, t in product((3, 5), range(1, 4), range(1, 4)):
        for k in range(p ** max(r, t) + 1):
            M = M_of([moore(p, t, 7)], [moore(p, r, 6)], {(0, 0): f"{k}*iq"})
            g = gcd(k, p ** min(r, t))
            want = GradedAbelianGroup({7: [g, p ** (r + t) // g]})
            assert homology_of_cone(M) == want, (p, r, t, k)


def test_multiples_of_iq_onto_a_sphere_have_the_chain_homology():
    # the cone of k.iq: M(p^r,6) -> S(7) has the boundary [k, -p^r] from
    # degree 8 to 7, so H_7 = Z + Z/gcd(k, p^r): a sphere end adds nothing
    # to the order of iq
    for p, r in product((3, 5), range(1, 4)):
        for k in range(p ** r + 1):
            M = M_of([sphere(7)], [moore(p, r, 6)], {(0, 0): f"{k}*iq"})
            want = GradedAbelianGroup({7: [0, gcd(k, p ** r)]})
            assert homology_of_cone(M) == want, (p, r, k)


# a source and target that each eta-family name with a Moore end fits; M
# and N stand for odd-prime Moore spaces M(p^r,n) and M(p^t,n)
_ETA_TYPES = {
    "ieta": ("S8", "M6"), "etaq": ("M6", "S6"), "ietaq": ("M6", "N6"),
    "ietaetaq": ("M7", "N6"), "ietaeta": ("S8", "M6"),
    "etaetaq": ("M7", "S6"), "eta_w1": ("M7", "M6"), "1_w_eta": ("M7", "M6"),
    "lambda11": ("M7", "M6"), "etamix": ("M7", "N6"), "xiM": ("M7", "N6"),
    "etaS": ("M6", "S5"), "xi": ("S8", "M6"), "rhoM": ("S9", "M6"),
}


def test_eta_family_vanishes_between_odd_moore_ends():
    from chang.matrix import _ETA_FAMILY
    # eta and etaeta map spheres to spheres; irho has order gcd(24, p^t)
    assert set(_ETA_TYPES) == _ETA_FAMILY - {"eta", "etaeta", "irho"}
    for p, r, t in product((3, 5), range(1, 4), range(1, 4)):
        def end(code):
            n = int(code[1:])
            return {"S": sphere(n), "M": moore(p, r, n),
                    "N": moore(p, t, n)}[code[0]]
        for gen, (src, tgt) in _ETA_TYPES.items():
            m = parse_morphism(f"1 * {gen}", end(src), end(tgt))
            assert m.is_zero(), (gen, p, r, t, str(m))


def test_identity_plus_ietaq_on_an_odd_moore_space_is_a_unit():
    for r in range(1, 4):
        a = moore(3, r, 6)
        m = parse_morphism("1+ietaq", a, a)
        assert m == parse_morphism("1", a, a), str(m)
        rep = split_cone(M_of([a], [a], {(0, 0): "1+ietaq"}))
        assert rep.pieces == wedge() and rep.residual == (), rep
        assert rep.log == (f"cancel unit at (1,1) on {a}",), rep.log


def test_irho_into_an_odd_moore_space_has_order_gcd_24():
    for p, t in product((3, 5), range(1, 4)):
        src, tgt = sphere(9), moore(p, t, 6)
        o = gcd(24, p ** t)
        assert default_table().order("irho", src, tgt) == o
        for k in range(2 * o + 2):
            m = parse_morphism(f"{k}*irho", src, tgt)
            assert m.terms == (((Coef(k % o), "irho"),) if k % o else ()), \
                (p, t, k, str(m))


def _records():
    """One value of each record class of `matrix` and `homgroups`, with the
    repr each had as a frozen dataclass (None where a field holds a
    closure or a Coef, whose repr names its address)."""
    from chang.homgroups import hom_group, load_table
    from chang.matrix import _cone
    s, a, b = sphere(3), moore(3, 1, 6), moore(3, 2, 7)
    piece = "ElementaryComplex(kind='sphere', dim=3, p=0, r=0, s=0)"
    N = M_of([b], [a], {(0, 0): "iq"})
    return [
        (FormalMorphism(a, b),
         "FormalMorphism(source=ElementaryComplex(kind='moore', dim=6, p=3, "
         "r=1, s=0), target=ElementaryComplex(kind='moore', dim=7, p=3, r=2, "
         "s=0), terms=())"),
        (N.entry(0, 0), None),
        (M_of([s], [s], {}),
         f"MorphismMatrix(rows=({piece},), cols=({piece},), entries=(("
         f"FormalMorphism(source={piece}, target={piece}, terms=()),),))"),
        (NegateRow(1), "NegateRow(n=1)"),
        (NegateCol(2), "NegateCol(n=2)"),
        (ColCompose(1, "eta", 2), "ColCompose(m=1, f='eta', n=2)"),
        (RowCompose("eta", 2, 1), "RowCompose(g='eta', m=2, n=1)"),
        (ScaleAddRow(3, 1, 2), "ScaleAddRow(k=3, m=1, n=2)"),
        (ScaleAddCol(-2, 2, 1), "ScaleAddCol(k=-2, m=2, n=1)"),
        (_cone(N.rows, N.cols, N.entries),
         "_Cone(dims=(7, 8, 7, 8), boundary={(1, 0): 9, (3, 2): -3, "
         "(3, 0): 1}, eta=frozenset(), whole=True)"),
        (split_cone(M_of([s], [s], {(0, 0): "2"})),
         "SplitConeReport(pieces=WedgeComplex(summands=(ElementaryComplex("
         "kind='moore', dim=3, p=2, r=1, s=0),)), residual=(), "
         "log=('block on rows S(3) recognized as M(2^1,3)',))"),
        (hom_group(moore(2, 1, 5), sphere(5)),
         "HomGroupDescriptor(group=(2,), cyclic=(2,), generators=(('ηq', 2, "
         "''),), source='M(2^1,5)', target='S(5)', stable_from=3, note='')"),
        (next(iter(load_table().values()))[0], None),
    ]


def test_records_keep_their_frozen_dataclass_semantics():
    import copy
    import pickle
    from chang.homgroups import HomGroupDescriptor, _Record
    from chang.matrix import _Cone
    records = _records()
    assert len({type(v) for v, _ in records}) == 12
    for value, text in records:
        if text is not None:
            assert repr(value) == text
        assert copy.copy(value) == value and copy.deepcopy(value) == value
        if type(value) is not _Record:          # its fields are closures
            assert pickle.loads(pickle.dumps(value)) == value, value
        assert value == type(value)(*(getattr(value, name)
                                      for name in value.__match_args__))
        for name in value.__match_args__:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
    # fields in declared order, by position or keyword, with defaults
    assert _Record.__match_args__ == ("when", "group", "gens", "stable_from",
                                      "note", "where")
    assert [cls.__match_args__ for cls in (NegateRow, NegateCol, ColCompose,
                                           RowCompose, ScaleAddRow,
                                           ScaleAddCol)] == \
        [("n",), ("n",), ("m", "f", "n"), ("g", "m", "n"), ("k", "m", "n"),
         ("k", "m", "n")]
    assert ColCompose(f="eta", n=2, m=1) == ColCompose(1, "eta", 2)
    a, b = moore(3, 1, 6), moore(3, 2, 7)
    assert FormalMorphism(a, b).terms == ()
    assert FormalMorphism(target=b, source=a) == FormalMorphism(a, b, ())
    assert HomGroupDescriptor((2,), (2,), (), "S(3)", "S(3)", 3).note == ""
    for bad in (lambda: NegateRow(), lambda: NegateRow(1, 2),
                lambda: NegateRow(1, n=1), lambda: NegateRow(m=1)):
        with pytest.raises(TypeError):
            bad()
    # equal only within a class; equal values hash equal, as field tuples
    assert NegateRow(1) != NegateCol(1)
    assert ScaleAddRow(1, 2, 3) != ScaleAddCol(1, 2, 3)
    assert NegateRow(1) != (1,) and NegateRow(1) == NegateRow(n=1)
    assert hash(ScaleAddRow(1, 2, 3)) == hash(ScaleAddRow(1, 2, 3)) == \
        hash((1, 2, 3))
    cone = next(v for v, _ in records if type(v) is _Cone)
    with pytest.raises(TypeError, match="unhashable"):
        hash(cone)                              # its boundary is a dict
    # every step kind undoes its own inverse
    f = parse_morphism("iq", a, b)
    for step in (NegateRow(1), NegateCol(2), ScaleAddRow(3, 1, 2),
                 ScaleAddCol(-2, 2, 1), ColCompose(1, f, 2),
                 RowCompose(f, 2, 1)):
        assert type(inverse_step(step)) is type(step)
        assert inverse_step(inverse_step(step)) == step
    assert inverse_step(RowCompose("eta", 2, 1)) == \
        RowCompose("-(eta)", 2, 1)
    # steps_from_json fills each field by name, in the declared order
    recs = [{"kind": "ScaleAddCol", "n": 1, "m": 2, "k": -2},
            {"kind": "RowCompose", "n": 1, "m": 2, "g": "eta"},
            {"kind": "ColCompose", "n": 2, "f": "eta", "m": 1},
            {"kind": "NegateCol", "n": 2}]
    assert steps_from_json(recs) == [ScaleAddCol(-2, 2, 1),
                                     RowCompose("eta", 2, 1),
                                     ColCompose(1, "eta", 2), NegateCol(2)]
