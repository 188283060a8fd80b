"""Every module under ``src/repro`` reads every name it imports.

An AST scan, since no linter ships with the project: a name bound by an
``import`` counts as read when the module loads it anywhere (a bare name or
the root of an attribute chain), names it inside a string annotation, or
lists it in ``__all__``.  An import kept only for its side effect says so
with ``# noqa: F401`` on its line, as flake8 would want.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported(tree):
    """``{bound name: line}`` of every import in the module, at any depth."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree):
    """Every name the module reads, including string annotations and
    ``__all__``."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                read |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read |= {element.value for element in node.value.elts}
    return read


def test_every_imported_name_is_read():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    unused = []
    for path in modules:
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        read = _read(tree)
        unused += [
            f"{path.relative_to(SRC.parent)}:{line} imports {name!r}"
            for name, line in _imported(tree).items()
            if name not in read and "# noqa: F401" not in lines[line - 1]
        ]
    assert not unused, "unused imports:\n" + "\n".join(unused)
