"""Guards over the source tree itself, read as code rather than run."""

import ast
import pathlib
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "perfbench", "tools")


class _Names(ast.NodeVisitor):
    """The functions and classes a module defines and the names it uses.  A
    method, a function defined directly in a class body, is used only
    through attribute access; a bare name of the same spelling, such as a
    parameter, does not count.  A use inside a definition of the same name,
    such as a recursive call, is not counted."""

    def __init__(self):
        self.defined, self.methods = set(), set()
        self.used, self.attributes = set(), set()
        self._inside, self._in_class = [], [False]

    def _definition(self, node):
        in_class = self._in_class[-1] and not isinstance(node, ast.ClassDef)
        (self.methods if in_class else self.defined).add(node.name)
        self._inside.append(node.name)
        self._in_class.append(isinstance(node, ast.ClassDef))
        self.generic_visit(node)
        self._in_class.pop()
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name, found):
        if name not in self._inside:
            found.add(name)

    def visit_Name(self, node):
        self._use(node.id, self.used)

    def visit_Attribute(self, node):
        self._use(node.attr, self.attributes)
        self.generic_visit(node)

    def visit_alias(self, node):
        for part in node.name.split("."):
            self._use(part, self.used)


def _scan(paths):
    names = _Names()
    for path in paths:
        names.visit(ast.parse(path.read_text(), str(path)))
    return names


def _unused(defined, used):
    """The scanned definitions that no scanned use names."""
    names = defined.defined - used.used - used.attributes
    methods = defined.methods - used.attributes
    return sorted(n for n in names | methods if not (n.startswith("__") and n.endswith("__")))


def test_every_function_and_class_is_named_outside_its_definition():
    defined = _scan(sorted((ROOT / "src" / "tqftrec").glob("*.py")))
    used = _scan(sorted(p for top in SEARCHED for p in (ROOT / top).rglob("*.py")))
    assert _unused(defined, used) == []


def test_a_method_is_used_only_through_attribute_access():
    source = (
        "class T:\n"
        "    def var(self, var): return var\n"
        "    def kept(self, kept): return kept\n"
        "T().kept(var)\n"
    )
    names = _Names()
    names.visit(ast.parse(source))
    assert _unused(names, names) == ["var"]


def _package_imports(module):
    """The tqftrec modules that tqftrec.<module> imports, directly or through
    the package modules it imports."""
    reached, todo = set(), [module]
    while todo:
        tree = ast.parse((ROOT / "src" / "tqftrec" / (todo.pop() + ".py")).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                if base in (".", "tqftrec"):
                    found = {alias.name for alias in node.names}
                elif base.startswith((".", "tqftrec.")):
                    found = {base.split(".")[-1]}
                else:
                    continue
            elif isinstance(node, ast.Import):
                found = {alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("tqftrec.")}
            else:
                continue
            todo.extend(found - reached)
            reached |= found
    return reached


def test_cellgraph_oracles_and_the_recursions_share_no_module():
    # the matching counts and the contraction walk check the cut-and-join
    # recursions, so neither side may reach the other's code
    assert "frobenius" in _package_imports("cellgraph")
    assert _package_imports("cellgraph").isdisjoint({"cutjoin", "amodel", "intersect"})
    assert "cellgraph" not in _package_imports("cutjoin")


def test_each_kernel_operator_is_defined_once_in_cutjoin():
    # the operators that C9 checks are the ones the engine builds every table with
    operators = {"delta_star_contract", "delta_star_split", "m_star_contract"}
    where = {name: [] for name in operators}
    for path in sorted(p for top in SEARCHED for p in (ROOT / top).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in where:
                where[node.name].append(path.relative_to(ROOT).as_posix())
    assert where == {name: ["src/tqftrec/cutjoin.py"] for name in operators}


def test_the_kernel_operators_stay_generic_over_the_value_type():
    # the engine runs the operators on ints and bmodel on MultiRatFun, so
    # none may make a Fraction, read a module constant made from one, or
    # call a method that only a Fraction has
    operators = {"delta_star_contract", "delta_star_split", "m_star_contract"}
    tree = ast.parse((ROOT / "src" / "tqftrec" / "cutjoin.py").read_text())
    made = {"Fraction"} | {
        target.id for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
        and any(isinstance(n, ast.Name) and n.id == "Fraction" for n in ast.walk(node.value))}
    assert "_ZERO" in made
    methods = {name for name in dir(Fraction) if not name.startswith("_")} - set(dir(dict))
    found = {
        node.name: sorted({n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in made}
                          | {n.attr for n in ast.walk(node)
                             if isinstance(n, ast.Attribute) and n.attr in methods})
        for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in operators}
    assert found == {name: [] for name in operators}


def test_multiratfun_is_the_one_rational_function_class():
    # a second class with its own division would be a second rational-function
    # arithmetic beside MultiRatFun's
    where = []
    for path in sorted((ROOT / "src" / "tqftrec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            names = {item.name for item in node.body
                     if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
            names |= {t.id for item in node.body if isinstance(item, ast.Assign)
                      for t in item.targets if isinstance(t, ast.Name)}
            if "__truediv__" in names:
                where.append("%s:%s" % (path.name, node.name))
    assert where == ["exact.py:MultiRatFun"]


# the B-model checks (the curve, the kernel and its integral, the w_{0,2}
# identity and the residues), and the recursion's own code, which they
# check and so may not share.  The checks compute in exact's MultiRatFun,
# and the residues on its maps with exact's _times and _plus; the
# recursion multiplies with its own _mul.
BMODEL_CHECKS = {"verify_w02_identity", "residue_check", "_residue", "SpectralCurve",
                 "eo_kernel", "verify_kernel_integral"}
BMODEL_RECURSION = {"_Recursion", "_laurent_wgn", "_mul", "_place", "_pole", "_CUBE",
                    "_substitute"}


def _engine_imports(tree):
    """The names a bmodel module imports from the cut-and-join engine."""
    return {alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == "cutjoin"
            for alias in node.names}


def _names_the_checks_reach(source):
    """The module-level names of a bmodel source, the names it imports from
    the engine among them, other than the checks themselves, that the
    check-side definitions name."""
    tree = ast.parse(source)
    definitions = {node.name: node for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    top = set(definitions) | _engine_imports(tree)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            top |= {t.id for t in ast.walk(node)
                    if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)}
    used = {node.id for name in BMODEL_CHECKS for node in ast.walk(definitions[name])
            if isinstance(node, ast.Name)}
    return (used & top) - BMODEL_CHECKS


def test_bmodel_checks_reach_production_only_through_wgn():
    source = (ROOT / "src" / "tqftrec" / "bmodel.py").read_text()
    engine = _engine_imports(ast.parse(source))
    assert "delta_star_contract" in engine
    reached = _names_the_checks_reach(source)
    assert reached.isdisjoint(BMODEL_RECURSION | engine)
    assert reached == {"wgn", "tvars"}
    # a residue that multiplies with the recursion's _mul fails the guard,
    # and so does one that contracts with the engine's Delta*
    for name in ("_mul", "delta_star_contract"):
        mutated = source.replace("powers.append(_times(", "powers.append(%s(" % name)
        assert mutated != source
        assert not _names_the_checks_reach(mutated).isdisjoint(BMODEL_RECURSION | engine), name
    recursion = [node for node in ast.parse(source).body
                 if getattr(node, "name", None) in BMODEL_RECURSION]
    named = {node.id for definition in recursion for node in ast.walk(definition)
             if isinstance(node, ast.Name)}
    assert named.isdisjoint({"_times", "_plus"})


def test_every_traced_member_is_a_member_of_multiratfun():
    # the tracer wraps each member through MultiRatFun.__dict__, so a renamed
    # or removed one stops every traced run
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (methods,) = [node.value for node in tracing.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "RATFUN_METHODS" for t in node.targets)]
    from tqftrec.exact import MultiRatFun

    assert set(ast.literal_eval(methods)) <= set(MultiRatFun.__dict__)


def test_only_exact_imports_sympy():
    # the symbolic work is exact's; every other module computes without sympy
    importers = set()
    for path in sorted((ROOT / "src" / "tqftrec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "sympy" for name in names):
                importers.add(path.name)
    assert importers == {"exact.py"}


def test_every_hashed_class_refuses_assignment():
    # a value whose fields can be reassigned moves under its hash, and a
    # dict or set keyed on it loses it
    unguarded = []
    for path in sorted((ROOT / "src" / "tqftrec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                names = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                if "__hash__" in names and "__setattr__" not in names:
                    unguarded.append("%s:%s" % (path.name, node.name))
    assert unguarded == []


def test_only_the_engine_reads_the_coproduct_legs():
    # the one Delta* on the coproduct view is cutjoin's; frobenius builds the view
    readers = set()
    for path in sorted((ROOT / "src" / "tqftrec").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if any(isinstance(node, ast.Attribute) and node.attr == "coproduct_by_legs"
               for node in ast.walk(tree)):
            readers.add(path.name)
    assert readers - {"frobenius.py"} == {"cutjoin.py"}
