"""No check on outside input raises a bare ValueError, RuntimeError or
Exception.

Refusals are typed (`chang.errors`), which is how the CLI maps them to exit
codes.  A bare raise is kept only where it asserts the library's own state;
reaching the user, it is a bug and ends in a traceback.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chang"
BARE = {"ValueError", "RuntimeError", "Exception"}
# (module, enclosing function) of each raise that asserts internal state
ALLOWED = {
    ("smash", "_solve"),                        # depth guard of the rules
    ("parser", "print_expression"),             # a node no parser builds
    ("steenrod", "SqModule.__init__"),          # modules the library builds
    ("steenrod", "SqModule._check_relations"),
}


class _BareRaises(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, int]] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in BARE:
            self.found.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)


def bare_raises() -> dict[tuple[str, str], list[int]]:
    sites: dict[tuple[str, str], list[int]] = {}
    for path in sorted(SRC.glob("*.py")):
        visitor = _BareRaises()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        for scope, line in visitor.found:
            sites.setdefault((path.stem, scope), []).append(line)
    return sites


def test_bare_raises_only_assert_internal_state():
    sites = bare_raises()
    stray = {f"{module}.py:{lines} in {scope}"
             for (module, scope), lines in sites.items()
             if (module, scope) not in ALLOWED}
    assert not stray, "raise a chang.errors class instead: " + ", ".join(
        sorted(stray))
    # the allow-list names live code, so the scan is known to see raises
    assert set(sites) == ALLOWED
