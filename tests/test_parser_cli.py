import json
import random
from pathlib import Path

import pytest

from chang import cli
from chang.parser import (Expr, ParseError, SemanticError, lower,
                          parse_expression, print_expression)
from chang.complexes import cbot, ceta, cfull, moore, smash_atom, sphere, wedge

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_grammar_examples():
    e = parse_expression("M(2^3,3) ^ C(2,5,1)")
    assert e.head == "smash"
    assert lower(parse_expression("D(Cbot(2,5))")) == wedge(ctop_(5, 2))


def ctop_(k, s):
    from chang.complexes import ctop
    return ctop(k, s)


def test_precedence_and_wedge_spellings():
    a = parse_expression("S(3) + S(4) ^ S(5)")
    b = parse_expression("S(3) v S(4)^S(5)")
    assert a == b
    assert a.head == "wedge" and a.kids[1].head == "smash"


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_expression("S(3) ^^ S(4)")
    assert err.value.offset == 6
    with pytest.raises(ParseError) as err:
        parse_expression("Q(3)")
    assert err.value.offset == 0
    with pytest.raises(ParseError):
        parse_expression("S(3")


def test_semantic_errors():
    with pytest.raises(SemanticError):
        lower(parse_expression("S(2)"))
    with pytest.raises(SemanticError):
        lower(parse_expression("M(6^1,3)"))
    with pytest.raises(SemanticError):
        lower(parse_expression("Ceta(4)"))


def _random_expr(rng: random.Random, depth: int) -> Expr:
    if depth <= 0 or rng.random() < 0.4:
        kind = rng.choice(["S", "M", "Ceta", "Ctop", "Cbot", "C", "point"])
        if kind == "S":
            return Expr("S", (rng.randint(3, 9),))
        if kind == "M":
            return Expr("M", (rng.choice([2, 3, 5]), rng.randint(1, 4),
                              rng.randint(3, 9)))
        if kind == "Ceta":
            return Expr("Ceta", (rng.randint(5, 9),))
        if kind == "Ctop":
            return Expr("Ctop", (rng.randint(5, 9), rng.randint(1, 4)))
        if kind == "Cbot":
            return Expr("Cbot", (rng.randint(1, 4), rng.randint(5, 9)))
        if kind == "C":
            return Expr("C", (rng.randint(1, 4), rng.randint(5, 9),
                              rng.randint(1, 4)))
        return Expr("point")
    op = rng.choice(["wedge", "smash", "susp", "dual"])
    if op == "susp":
        return Expr("susp", (rng.randint(0, 4),),
                    (_random_expr(rng, depth - 1),))
    if op == "dual":
        return Expr("dual", kids=(_random_expr(rng, depth - 1),))
    kids = tuple(_random_expr(rng, depth - 1)
                 for _ in range(rng.randint(2, 3)))
    return Expr(op, kids=kids)


def test_roundtrip_fuzz():
    # parse o print is the identity on canonical-printed expressions, and
    # printing is stable from the first parse on
    rng = random.Random(20260810)
    for _ in range(300):
        text = print_expression(_random_expr(rng, 3))
        e1 = parse_expression(text)
        canon = print_expression(e1)
        assert parse_expression(canon) == e1
        assert print_expression(parse_expression(canon)) == canon


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    out = capsys.readouterr().out if capsys else ""
    return code, out


def check_golden(name: str, text: str):
    path = GOLDEN / name
    if not path.exists():      # freeze on first run
        path.write_text(text, encoding="utf-8")
    assert path.read_text(encoding="utf-8") == text


def test_cli_golden_smash(capsys):
    code, out = run_cli("smash", "M(2^2,3)", "Cbot(3,5)", capsys=capsys)
    assert code == 0
    check_golden("smash.txt", out)


def test_cli_golden_pi(capsys):
    code, out = run_cli("pi", "9", "Ceta(5)^C(2,5,3)", capsys=capsys)
    assert code == 0
    assert out.splitlines()[0] == "Z/16 ⊕ Z/2"
    check_golden("pi9.txt", out)


def test_cli_golden_reduce(capsys):
    data = Path(__file__).resolve().parent.parent / "src" / "chang" / "data" / "scripts"
    code, out = run_cli("reduce", str(data / "skeleton_eta_full.matrix.json"),
                        "--script", str(data / "skeleton_eta_full.steps.json"),
                        "--auto", capsys=capsys)
    assert code == 0
    check_golden("reduce.txt", out)


def test_cli_structured_output_is_stable(capsys):
    code1, out1 = run_cli("smash", "M(2^2,3)", "C(1,5,3)",
                          "--format", "structured", capsys=capsys)
    code2, out2 = run_cli("smash", "M(2^2,3)", "C(1,5,3)",
                          "--format", "structured", capsys=capsys)
    assert code1 == code2 == 0 and out1 == out2
    assert out1.startswith("command = smash\n")


def test_cli_exit_codes(capsys):
    assert run_cli("homology", "S(2)", capsys=capsys)[0] == 2
    assert run_cli("homology", "S(3", capsys=capsys)[0] == 2
    assert run_cli("pi", "11", "S(3)", capsys=capsys)[0] == 3
    code, _ = run_cli("verify", "Cbot(1,5)", "Cbot(2,5)", "S(6) v S(7)",
                      capsys=capsys)
    assert code == 1
    code, _ = run_cli("verify", "M(2^2,3)", "C(2,5,1)",
                      "C(2,8,1) v C(2,9,1)", capsys=capsys)
    assert code == 0
    # same homology and mod-2 dimensions, but the Sq invariants differ
    code, out = run_cli("verify", "M(2,3)", "Ceta(5)", "M(2,6) v M(2,8)",
                        capsys=capsys)
    assert "sq invariants: FAIL" in out
    assert code == 1
    # smashing an atom against a non-sphere is outside the table
    code, _ = run_cli("smash", "M(2^2,3)^Cbot(3,5)", "M(2,3)", capsys=capsys)
    assert code == 3


def test_cli_homology_and_dual(capsys):
    code, out = run_cli("homology", "C(1,5,2)^C(2,5,3)", capsys=capsys)
    assert code == 0
    assert "H_6 = Z/2" in out
    code, out = run_cli("dual", "Cbot(2,5)", capsys=capsys)
    assert out.strip() == "Ctop(5,2)"
    code, out = run_cli("dual", "M(2^2,3)^Ceta(5)", "--sdim", "16",
                        capsys=capsys)
    assert out.strip() == "susp(1,M(2^2,3)^Ceta(5))"


def test_cli_table_coverage(capsys):
    code, out = run_cli("table", "--branch-coverage", capsys=capsys)
    assert code == 0
    assert "cfull-cfull/dual" in out
    assert "moore-moore/coprime" in out
    assert "total pairs: 367; rules hit: 35" in out.splitlines()


def test_cli_cohomology_sq(capsys):
    code, out = run_cli("cohomology", "--sq", "Cbot(1,5)^Cbot(1,5)",
                        capsys=capsys)
    assert code == 0
    assert "Sq^2(u3⊗u3) = u3⊗u5 + u4⊗u4 + u5⊗u3" in out


def test_run_command_captures_output():
    from chang.cli import run_command
    code, out = run_command(["homgroup", "M(2^3,3)", "S(3)"])
    assert code == 0 and out.splitlines()[0] == "Z/2"


# --- the error table: one input per path to a refusal ------------------------

_DOCS = {
    "bad.json": '{"rows": [',
    "m1.json": {"rows": ["S(5)"], "cols": ["S(5)"], "entries": [[1, 1, "2"]]},
    "m2.json": {"rows": ["S(5)", "S(5)"], "cols": ["S(5)", "S(5)"],
                "entries": [[1, 1, "2"], [2, 1, "3"], [1, 2, "1"]]},
    "dup.json": {"rows": ["S(5)"], "cols": ["S(5)"],
                 "entries": [[1, 1, "2"], [1, 1, "3"]]},
    "rho.json": {"rows": ["S(7)"], "cols": ["S(10)", "S(11)"],
                 "entries": [[1, 1, "rho"]]},
    "big.json": {"rows": ["S(5)"], "cols": ["S(5)"],
                 "entries": [[1, 1, "1000000000000000003"]]},
    # 65537 * 65539: two primes just past the first trial bound
    "pq.json": {"rows": ["S(5)"], "cols": ["S(5)"],
                "entries": [[1, 1, "4295229443"]]},
    # 1000000007 * 998244353: two primes past trial division
    "semi.json": {"rows": ["S(5)"], "cols": ["S(5)"],
                  "entries": [[1, 1, "998244359987710471"]]},
    "k.json": [{"kind": "ScaleAddRow", "k": "x", "m": 1, "n": 2}],
    "index.json": [{"kind": "NegateRow", "n": 0}],
    "same.json": [{"kind": "NegateRow", "n": 1},
                  {"kind": "ColCompose", "m": 1, "f": "eta", "n": 1}],
    "unknown.json": [{"kind": "ColCompose", "m": 1, "f": "eta", "n": 2}],
    "grow.json": [{"kind": "ScaleAddRow", "k": 10 ** 4300 - 1, "m": 1,
                   "n": 2}],
    "lit.json": {"rows": ["S(5)"], "cols": ["S(5)"],
                 "entries": [[1, 1, "x("]]},
    "m3.json": {"rows": ["M(3^2,7)"], "cols": ["M(3^2,7)"],
                "entries": [[1, 1, "3"]]},
    "tables/relations.txt": "compose; eta\n",
    "tables/hom_tables.txt": "# kind; src; tgt; off\n"
                             "hom; S; S; x; -; Z; id:Z; 3;\n",
}


def _bad_relations(monkeypatch):
    from chang.matrix import default_table
    monkeypatch.setenv("CHANG_TABLE_PATH", "tables")
    default_table.cache_clear()


def _bad_hom_tables(monkeypatch):
    from chang.homgroups import load_table
    monkeypatch.setenv("CHANG_TABLE_PATH", "tables")
    load_table.cache_clear()


def _wrong_split(monkeypatch):
    from chang import smash
    monkeypatch.setattr(smash, "_solve", lambda a, b, depth=0: (
        [moore(2, 1, 6), moore(2, 1, 7)], [("fake", "fake")]))


def _row(argv, code, err, setup=None):
    return pytest.param(argv, code, err, setup, id=" ".join(argv)[:60])


ERROR_TABLE = [
    _row(["homology", "S(2)"], 2,
         "error: S(2): sphere at dimension 2 is below the stable range"),
    _row(["homology", "S(3"], 2, "error: got None at offset 3 (expected ))"),
    _row(["dual", "S(3) v S(9)"], 2, "error: no common duality window; "
         "conflicting summands: S(3), S(9)"),
    _row(["pi", "1", "S(3)"], 2,
         "error: sphere at dimension 1 is below the stable range"),
    _row(["homgroup", "susp(0,*)", "Ceta(5)", "--deg", "-3"], 2,
         "error: suspension count must be >= 0"),
    _row(["reduce", "bad.json"], 2,
         "error: Expecting value: line 1 column 11 (char 10)"),
    _row(["reduce", "m2.json", "--script", "k.json"], 2,
         "error: invalid literal for int() with base 10: 'x'"),
    _row(["reduce", "rho.json", "--script", "unknown.json"], 3,
         "outside the classified tables: step 0: no rule for 'rho' o 'eta' "
         "while applying ColCompose(m=1, f='eta', n=2)"),
    _row(["pi", "11", "S(3)"], 3, "outside the classified tables: "
         "[S(11), S(3)] (offset 8) is not tabulated"),
    _row(["smash", "M(2^2,3)^Cbot(3,5)", "M(2,3)"], 3,
         "outside the classified tables: M(2^2,3)^Ceta(5) ^ M(2^1,3): smashes "
         "with an atom factor are only classified against spheres"),
    _row(["smash", "M(2,3)", "M(2,3)"], 1, "verification failure: "
         "Sq invariant mismatch decomposing M(2^1,3) ^ M(2^1,3) -> "
         "M(2^1,6) v M(2^1,7)", setup=_wrong_split),
    # factored, not refused: M(65537,5) v M(65539,5)
    _row(["reduce", "pq.json", "--auto"], 0, ""),
]

# Rows that differ from the previous release on purpose: a step error names
# its step, a duplicate entry is refused, numbers too long to print are
# refused with a typed error, numbers past trial division are factored
# or refused in bounded time instead of hanging, an error in a matrix
# entry or a table line names the entry, or the file and line, and a
# multiple of an identity is a unit only when it is prime to the
# identity's order, nesting deeper than 200 levels is refused instead
# of ending in a RecursionError, and an expression over the cell budget is
# refused instead of running for minutes.
CHANGED_ROWS = [
    _row(["reduce", "m1.json"], 2, "error: relations.txt line 1: expected 4 "
         "fields separated by ';', got 2", setup=_bad_relations),
    _row(["reduce", "lit.json"], 2, "error: matrix entry [1, 1, 'x(']: "
         "trailing input in morphism literal 'x('"),
    _row(["pi", "3", "S(3)"], 2, "error: hom_tables.txt line 2: invalid "
         "literal for int() with base 10: 'x'", setup=_bad_hom_tables),
    _row(["reduce", "dup.json"], 2, "error: matrix entry [1, 1, '3']: "
         "position (1, 1) already has an entry"),
    _row(["reduce", "m2.json", "--script", "index.json"], 2,
         "error: step 0: row index 0 is outside 1..2"),
    _row(["reduce", "m2.json", "--script", "same.json"], 2,
         "error: step 1: column indices must differ"),
    _row(["homology", "M(1000000000000000003,3)"], 0, ""),
    _row(["homology", "M(18446744073709551629,3)"], 2,
         "error: M(18446744073709551629^1,3): Moore space needs a prime "
         "below 2^64, got 18446744073709551629"),
    _row(["homology", "M(2^100000,3)"], 2,
         "error: M(2^100000,3): 2^100000 has more than 4300 digits"),
    # two such dimensions add up to one too long to print
    _row(["homology", f"susp({'9' * 4300},S({'9' * 4300}))"], 2,
         "error: got an integer of 4300 digits at offset 5 (expected at most "
         "2150 digits)"),
    _row(["reduce", "m2.json", "--script", "grow.json"], 2,
         "error: step 0: a coefficient has more than 4300 digits"),
    _row(["reduce", "big.json", "--auto"], 0, ""),
    _row(["reduce", "semi.json", "--auto"], 2,
         "error: cannot factor a 60-bit number in bounded time: it has no "
         "prime factor below 2^20 and is not a power of one prime below 2^64"),
    # 3 on M(3^2,7) is no unit: a residual block, not a traceback
    _row(["reduce", "m3.json", "--auto"], 0, ""),
    _row(["homology", "D(" * 3000 + "S(3)" + ")" * 3000], 2,
         "error: nesting deeper than 200 at offset 400"),
    _row(["homology", "(" * 3000 + "S(3)" + ")" * 3000], 2,
         "error: nesting deeper than 200 at offset 200"),
    _row(["homology", "susp(1," * 3000 + "S(3)" + ")" * 3000], 2,
         "error: nesting deeper than 200 at offset 1400"),
    # 2^40 cells; ran past two minutes at ~1 GB before the cell budget
    _row(["homology", "^".join(["M(2,3)"] * 40)], 2,
         "error: more than 1024 cells; a smash multiplies the cell counts "
         "of its factors"),
]


def test_nesting_at_the_bound_still_runs():
    from chang.cli import run_command
    for head, out in (("D(", "H_3 = Z\n"), ("(", "H_3 = Z\n"),
                      ("susp(1,", "H_203 = Z\n")):
        text = head * 200 + "S(3)" + ")" * 200
        assert run_command(["homology", text]) == (0, out)
        code, _ = run_command(["smash", text, "S(3)"])
        assert code == 0


def test_cell_count_rules():
    from chang.parser import MAX_CELLS, cell_count
    count = lambda text: cell_count(parse_expression(text))
    assert count("S(3) v M(2,3) v Ctop(5,1) v C(1,5,1) v *") == 10
    assert count("(S(3) v M(2,3))^C(1,5,1)^Ceta(5)") == 24
    assert count("susp(3,D(C(1,5,1)^M(3,3)))") == 8
    # a point factor counts as one cell: the factors before it are built
    assert count("M(2,3)^M(2,3)^*") == 4
    assert count("^".join(["M(2,3)"] * 10)) == MAX_CELLS == 1024
    assert count("^".join(["M(2,3)"] * 4000)) == MAX_CELLS + 1


def test_calls_at_the_cell_budget_still_run(capsys):
    ten = "^".join(["M(2,3)"] * 10)
    wide = " v ".join(["C(1,5,1)"] * 16)
    for argv in (["homology", ten], ["cohomology", "--sq", ten],
                 ["smash", wide, " v ".join(["M(2,3)"] * 8)],
                 # the widest benchmark op: three four-cell pieces a side
                 ["smash", "C(1,5,1) v C(2,5,1) v C(3,5,3)",
                  "C(1,5,2) v C(5,5,5) v C(1,5,1)"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    # operands within the budget apiece, over it together
    nine = " v ".join(["M(2,3)"] * 9)
    for argv in (["smash", wide, nine], ["homgroup", wide, nine],
                 ["verify", wide, nine, "*"]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err == ("error: more than 1024 cells; a "
                                           "smash multiplies the cell counts "
                                           "of its factors\n")


@pytest.mark.parametrize("argv, code, err, setup",
                         ERROR_TABLE + CHANGED_ROWS)
def test_cli_error_table(argv, code, err, setup, tmp_path, monkeypatch,
                         capsys):
    from chang.matrix import default_table
    (tmp_path / "tables").mkdir()
    for name, doc in _DOCS.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    if setup:
        setup(monkeypatch)
    try:
        assert cli.main(argv) == code
    finally:
        monkeypatch.undo()
        default_table.cache_clear()     # drop a table read from tmp_path
    assert capsys.readouterr().err == (err + "\n" if err else "")


def test_large_orders_keep_their_output(capsys):
    assert run_cli("homology", "M(1000000000000000003,3)", capsys=capsys) \
        == (0, "H_3 = Z/1000000000000000003\n")
    code, out = run_cli("smash", "M(2^70,3)", "M(2,3)", capsys=capsys)
    assert code == 0 and out.splitlines()[0] == "M(2^1,6) v M(2^1,7)"
    code, out = run_cli("homology", "M(2^5000,3) ^ S(3)", capsys=capsys)
    assert code == 0 and out == f"H_6 = Z/{2 ** 5000}\n"


def test_error_hierarchy_matches_readme():
    """Every error class is a ChangError whose exit code is the one README
    states for it, and keeps the base it had before the hierarchy."""
    import importlib
    import re
    import chang
    from chang import errors
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    stated = {name: int(code)
              for code, names in re.findall(r"^- (\d): (.*?)(?=^- |\n\n)",
                                            readme, re.M | re.S)
              for name in re.findall(r"`(\w+)`", names)}
    homes = {"ParseError": ("parser", ValueError),
             "SemanticError": ("parser", ValueError),
             "WindowError": ("complexes", ValueError),
             "UnclassifiedPair": ("smash", Exception),
             "VerificationFailure": ("smash", Exception),
             "UntabulatedHom": ("homgroups", LookupError),
             "UnknownComposition": ("matrix", Exception)}
    assert set(stated) == set(errors.__all__) - {"ChangError"}
    for name in errors.__all__:
        cls = getattr(errors, name)
        assert issubclass(cls, chang.ChangError)
        if name in stated:
            assert cls.exit_code == stated[name], name
        if name in homes:
            module, base = homes[name]
            assert getattr(importlib.import_module(f"chang.{module}"),
                           name) is cls
            assert issubclass(cls, base)
    assert "ChangError" in chang.__all__


def test_a_bare_value_error_is_a_bug_not_a_usage_error(monkeypatch):
    def broken(expr):
        raise ValueError("internal")
    monkeypatch.setattr(cli, "homology_of_expression", broken)
    with pytest.raises(ValueError, match="^internal$"):
        cli.main(["homology", "S(3)"])
