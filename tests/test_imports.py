"""Each module of the package imports on its own in a fresh interpreter.

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


def _run(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    _run(f"import chang.{name}")


@pytest.mark.parametrize("first", ["complexes", "smash"])
def test_atom_cycle_imports_from_either_side(first):
    _run(_FIRST.format(path=str(SRC / "chang"), first=first))
