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
    # used there (the package's __init__ only re-exports)
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
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert not unused, f"imported but unused: {unused}"


def test_only_the_package_lists_public_names():
    # momt._EXPORTS is the one list of public names: no submodule assigns __all__
    listing = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py"
                     if any(isinstance(n, ast.Name) and n.id == "__all__"
                            and isinstance(n.ctx, ast.Store)
                            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert not listing, f"modules with their own __all__: {listing}"


def _imports_cli(node) -> bool:
    """node imports momt.cli or a name from it, relatively or absolutely."""
    if isinstance(node, ast.Import):
        return any(alias.name == "momt.cli" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = "." * node.level + (node.module or "")
    return (module in (".cli", "momt.cli")
            or module in (".", "momt") and any(alias.name == "cli" for alias in node.names))


def test_no_module_imports_the_command_line_driver():
    # the command-line driver is the top layer: no other library module imports it
    importers = sorted(path.name for path in SRC.glob("*.py") if path.name != "cli.py"
                       if any(_imports_cli(node)
                              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert not importers, f"modules importing momt.cli: {importers}"


def _referenced_names(node) -> list:
    """Every name read under node, as a bare name or as an attribute."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_private_helper_only_tests_call():
    # code that nothing calls except its own test goes: every private module-level
    # function or class, every method of a private class and every private method
    # of any class is read somewhere in src/momt outside its own definition;
    # reads from tests or perfbench do not count
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    reads = Counter(name for tree in trees for name in _referenced_names(tree))
    helpers = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name)]
    helpers += [node for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                for node in cls.body if isinstance(node, ast.FunctionDef)
                and (_private(node.name) or _private(cls.name) and not node.name.endswith("__"))]
    dead = [node.name for node in helpers
            if reads[node.name] == _referenced_names(node).count(node.name)]
    assert helpers and not dead, f"private helpers nothing in src/momt reads: {dead}"


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


def _loaded_names(node) -> set:
    """Every name loaded under node, as a bare name or as an attribute (no stores)."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_no_public_name_only_tests_read():
    # code that nothing calls except its own test goes, public names too: every name
    # momt exports is read in src/momt outside its own definition and __init__.py, or
    # read, imported from momt or looked up with getattr(momt, name) in demos or perfbench
    import momt

    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            read |= {name for node in ast.parse(path.read_text(encoding="utf-8")).body
                     for name in _loaded_names(node) if name != getattr(node, "name", None)}
    root = SRC.parent.parent
    for path in sorted([*(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _loaded_names(tree) | _momt_lookups(tree)
        read |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "momt" for alias in node.names}
    unread = sorted(set(momt.__all__) - read)
    assert not unread, f"public names only tests read: {unread}"


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


def test_every_exception_class_is_raised():
    # an exception class that no `raise` in src/momt names is an abort path nothing
    # takes: a caller's `except` for it, or its export, is dead code
    import importlib
    import inspect

    defined, raised = set(), set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("momt" if path.stem == "__init__" else f"momt.{path.stem}")
        defined |= {name for name, obj in vars(module).items()
                    if inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
        raised |= {name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Raise) and node.exc is not None
                   for name in _loaded_names(node.exc)}
    assert defined, "the scan found no exception classes in src/momt"
    assert not defined - raised, f"exception classes no raise names: {sorted(defined - raised)}"


def test_only_hermitian_reads_the_raw_accessor():
    # _entries returns a wrapper's array, or any input as a raw array with no
    # check: outside momt.hermitian a matrix enters through a wrapper or a gate
    # (lindblad._square, hermitian._stack_blocks), so no entry takes one ungated
    readers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _referenced_names(tree) + [alias.name for node in ast.walk(tree)
                                           if isinstance(node, ast.ImportFrom)
                                           for alias in node.names]
        if path.name != "hermitian.py" and "_entries" in names:
            readers.append(path.name)
    assert not readers, f"modules reading hermitian._entries: {readers}"
