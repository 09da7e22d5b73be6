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
