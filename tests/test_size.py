import ast
import pathlib

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
