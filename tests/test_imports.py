"""Each module of the package imports on its own in a fresh interpreter,
a cold CLI call imports `homgroups` and `matrix` only for the commands
that run them, and no cold CLI call loads `dataclasses` or `inspect`.

complexes and smash import each other on purpose (SmashAtom validates
against the decision table), which in-process tests cannot see: there every
module is already cached.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "chang").glob("*.py")
                 if p.stem != "__init__")

# Import chang.<first> before the package's own __init__ can fix the order,
# then build an atom, which needs the other module of the cycle.
_FIRST = """
import sys, types
pkg = types.ModuleType("chang")
pkg.__path__ = [{path!r}]
sys.modules["chang"] = pkg
import chang.{first}
from chang.complexes import SmashAtom, ceta, moore
SmashAtom(moore(2, 2, 3), ceta(5))
"""

# One command after another in one cold process; after each, the exit code
# and which of the deferred modules are loaded.
_CALLS = """
import sys
import chang.cli
for argv in {argvs!r}:
    code = chang.cli.main(argv)
    print(code, *(m for m in ("chang.matrix", "chang.homgroups", "json")
                  if m in sys.modules), file=sys.stderr)
"""
# One command in a cold process: after each import and after the call,
# which of the slow-to-import modules are loaded; then the package's
# modules the call loaded.
_LEAN = """
import sys
slow = ("dataclasses", "inspect")
for name in ("chang", "chang.smash", "chang.cli"):
    __import__(name)
    print(name, *(m for m in slow if m in sys.modules), file=sys.stderr)
code = sys.modules["chang.cli"].main({argv!r})
print(code, *(m for m in slow if m in sys.modules), file=sys.stderr)
print(*sorted(m for m in sys.modules if m.startswith("chang.")),
      file=sys.stderr)
"""
SCRIPTS = SRC / "chang" / "data" / "scripts"
_CASE = SCRIPTS / "moore_block_r_eq_u"
# one call of each CLI command, each exiting 0
COMMANDS = {
    "smash": ["smash", "M(2,3)", "Ceta(5)"],
    "verify": ["verify", "Cbot(1,5)", "C(1,5,1)",
               "C(1,9,1) v Ceta(5)^C(1,5,1)"],
    "homology": ["homology", "C(1,5,1)"],
    "cohomology": ["cohomology", "--sq", "C(1,5,1)"],
    "dual": ["dual", "C(1,5,1)"],
    "table": ["table", "--branch-coverage"],
    "pi": ["pi", "3", "C(1,5,1)"],
    "homgroup": ["homgroup", "C(1,5,1)", "S(3)"],
    "reduce": ["reduce", f"{_CASE}.matrix.json", "--script",
               f"{_CASE}.steps.json", "--auto"],
}


def _run(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stderr


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    _run(f"import chang.{name}")


@pytest.mark.parametrize("first", ["complexes", "smash"])
def test_atom_cycle_imports_from_either_side(first):
    _run(_FIRST.format(path=str(SRC / "chang"), first=first))


def test_cold_cli_loads_homgroups_and_matrix_only_where_run():
    deferred = {"pi": " chang.homgroups", "homgroup": " chang.homgroups",
                "reduce": " chang.matrix chang.homgroups json"}
    calls = [(argv, "0" + deferred.get(cmd, ""))
             for cmd, argv in COMMANDS.items()]
    seen = _run(_CALLS.format(argvs=[argv for argv, _ in calls])).splitlines()
    assert seen == [want for _, want in calls]


def _cli_commands() -> set[str]:
    import argparse
    from chang.cli import _build_argparser
    sub, = (action for action in _build_argparser()._actions
            if isinstance(action, argparse._SubParsersAction))
    return set(sub.choices)


def test_no_cold_cli_command_loads_dataclasses_or_inspect():
    # together they cost more than the rest of a cold call's set-up; every
    # command the parser offers is run, each in a fresh process
    assert set(COMMANDS) == _cli_commands()
    loaded = set()
    for cmd, argv in COMMANDS.items():
        *seen, modules = _run(_LEAN.format(argv=argv)).splitlines()
        assert seen == ["chang", "chang.smash", "chang.cli", "0"], cmd
        loaded.update(name.removeprefix("chang.") for name in modules.split())
    # so no module of the package imports them at its top
    assert loaded == set(MODULES)


def test_a_wrapper_set_before_the_first_reduce_is_what_it_runs(monkeypatch):
    # the contract bench/tracing.py relies on: it sets its wrappers on
    # chang.cli before any command has bound the deferred names
    import chang.cli as cli
    from chang.matrix import split_cone
    monkeypatch.delitem(vars(cli), "split_cone", raising=False)
    calls = []

    def spy(M):
        calls.append(M)
        return split_cone(M)
    monkeypatch.setattr(cli, "split_cone", spy)
    code, out = cli.run_command(
        ["reduce", str(SCRIPTS / "moore_block_r_eq_u.matrix.json"), "--auto"])
    assert code == 0 and "splits off:" in out
    assert len(calls) == 1
