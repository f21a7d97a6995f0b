"""Guards over the source tree itself, read as code rather than run."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "perfbench", "tools")


class _Names(ast.NodeVisitor):
    """The functions and classes a module defines and the names it uses.  A
    use inside a definition of the same name, such as a recursive call, is
    not counted."""

    def __init__(self):
        self.defined, self.used, self._inside = set(), set(), []

    def _definition(self, node):
        self.defined.add(node.name)
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name):
        if name not in self._inside:
            self.used.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        for part in node.name.split("."):
            self._use(part)


def _scan(paths):
    names = _Names()
    for path in paths:
        names.visit(ast.parse(path.read_text(), str(path)))
    return names


def test_every_function_and_class_is_named_outside_its_definition():
    defined = _scan(sorted((ROOT / "src" / "tqftrec").glob("*.py"))).defined
    used = _scan(sorted(p for top in SEARCHED for p in (ROOT / top).rglob("*.py"))).used
    dunder = {name for name in defined if name.startswith("__") and name.endswith("__")}
    assert sorted(defined - dunder - used) == []
