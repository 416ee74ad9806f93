import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "momt"


def test_library_stays_under_line_budget():
    # one idea, one helper: the library as a whole stays within 2,560 lines
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.glob("*.py"))
    assert lines <= 2560, f"src/momt has {lines} lines"


def test_no_unused_imports():
    # no linter is a dependency, so this is the guard: a name a module imports is
    # used there or listed in its __all__ (the package's __init__ only re-exports)
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used - exported)]
    assert not unused, f"imported but unused: {unused}"


def _referenced_names(node) -> list:
    """Every name read under node, as a bare name or as an attribute."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def test_no_private_helper_only_tests_call():
    # code that nothing calls except its own test goes: every private module-level
    # function or class is read somewhere in src/momt outside its own definition;
    # reads from tests or perfbench do not count
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    reads = Counter(name for tree in trees for name in _referenced_names(tree))
    dead = [node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and reads[node.name] == _referenced_names(node).count(node.name)]
    assert not dead, f"private helpers nothing in src/momt reads: {dead}"


def _momt_lookups(node) -> set:
    """Names a comprehension under node passes to getattr(momt, name, ...) from a literal tuple."""
    found = set()
    for comp in ast.walk(node):
        if not isinstance(comp, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            continue
        looked_up = {call.args[1].id for call in ast.walk(comp) if isinstance(call, ast.Call)
                     and getattr(call.func, "id", None) == "getattr" and len(call.args) > 1
                     and getattr(call.args[0], "id", None) == "momt"
                     and isinstance(call.args[1], ast.Name)}
        found |= {elt.value for gen in comp.generators
                  if getattr(gen.target, "id", None) in looked_up
                  and isinstance(gen.iter, (ast.Tuple, ast.List))
                  for elt in gen.iter.elts if isinstance(elt, ast.Constant)}
    return found


def test_benchmark_names_resolve():
    # perfbench reads public callees with getattr(momt, name, None) and reports a
    # missing one as 0, so a rename there passes silently: every name it imports
    # from momt or looks up on it must resolve
    import importlib

    imported, looked_up = set(), set()
    for path in sorted((SRC.parent.parent / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported |= {(node.module, alias.name) for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     and (node.module or "").split(".")[0] == "momt"
                     for alias in node.names}
        looked_up |= {("momt", name) for name in _momt_lookups(tree)}
    assert imported and looked_up, "the scan found no momt names in perfbench"
    missing = sorted(f"{module}.{name}" for module, name in imported | looked_up
                     if not hasattr(importlib.import_module(module), name))
    assert not missing, f"perfbench reads names momt does not have: {missing}"


def test_star_import_binds_no_module():
    # `from momt import *` takes momt's re-exported names, not its submodules:
    # a bound `io` would shadow the standard library's
    import types

    import momt

    namespace = {}
    exec("from momt import *", namespace)
    modules = sorted(name for name, value in namespace.items()
                     if isinstance(value, types.ModuleType))
    assert not modules, f"the star import binds modules: {modules}"
    assert "optimize_geodesic" in namespace and "SolverConfig" in namespace
    assert set(momt.__all__) == set(namespace) - {"__builtins__"}
