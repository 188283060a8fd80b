"""Static checks over ``src/repro``: imports, reachability and doc names.

AST scans, since no linter ships with the project.

- Every module reads every name it imports.  A name bound by an ``import``
  counts as read when the module loads it anywhere (a bare name or the root
  of an attribute chain), names it inside a string annotation, or lists it in
  ``__all__``.  An import kept only for its side effect says so with
  ``# noqa: F401`` on its line, as flake8 would want.
- Every public definition is reached from outside ``tests/``: from
  ``examples/``, ``benchmarks/`` or ``perfbench/``, directly or through other
  reached library code.  A module-level function or class is reached by its
  bare name or as an attribute of a package module (``packing.popcount``),
  never as an attribute of some other object (``outlier.popcount``); a method
  by its name either way.  A name only tests call is deleted, or moved to
  ``tests/reference`` when a test needs it as an oracle.  ``ALLOWED`` names
  each exception with its reason.
- Every backticked ``repro.…`` name in ``README.md`` and ``docs/*.md``
  imports, and every backticked ``Class.attr`` of a public class defined in
  ``repro`` names an attribute its instances carry, so a deletion cannot
  strand a doc.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLERS = tuple(ROOT / name for name in ("examples", "benchmarks", "perfbench"))

#: Public definitions nothing outside ``tests/`` reaches, kept on purpose.
ALLOWED = {
    "repro.serving.server.Server.swap_plan":
        "serving API in docs/serving.md: replace the plan of a running server",
    "repro.serving.server.Server.submit_many":
        "serving API in docs/serving.md: admit a list of requests under one lock",
    "repro.serving.request.ModelRequest.cancel":
        "serving API in docs/serving.md: a client abandons its request",
}


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


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


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
        if _is_all(node):
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


# ------------------------------------------------------------- reachability
def _dotted(node):
    """``"a.b"`` for an attribute chain rooted at a bare name, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _referenced(nodes, modules, names, members):
    """Add what ``nodes`` use to ``names`` and ``members``.

    ``names`` gets every bare name and every attribute read off one of
    ``modules`` (dotted module names, or their trailing parts, such as
    ``packing`` or ``repro.bitslice``); ``members`` every attribute name.
    """
    for node in nodes:
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                members.add(child.attr)
                if _dotted(child.value) in modules:
                    names.add(child.attr)


def _module_names(package):
    """Every package module's dotted name and each of its trailing parts."""
    names = set()
    for path in package.rglob("*.py"):
        parts = path.relative_to(package.parent).with_suffix("").parts
        parts = parts[:-1] if parts[-1] == "__init__" else parts
        names |= {".".join(parts[start:]) for start in range(len(parts))}
    return names


def _definitions(package):
    """The definitions under ``package`` and the statements run on import.

    A definition is ``(qualname, name, owner, body, where)``: each
    module-level function or class, and each method of such a class (dunder
    methods run with their class, so they belong to its body).  ``owner`` is
    the qualname of a method's class, ``None`` otherwise.  Imports and
    ``__all__`` are bindings, not uses, so they are not run-on-import code.
    """
    definitions, on_import = [], []
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        where = path.relative_to(package.parent.parent)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definitions.append((f"{module}.{node.name}", node.name, None, [node],
                                    f"{where}:{node.lineno}"))
            elif isinstance(node, ast.ClassDef):
                owner = f"{module}.{node.name}"
                body = node.bases + node.keywords + node.decorator_list
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        definitions.append((f"{owner}.{item.name}", item.name, owner,
                                            [item], f"{where}:{item.lineno}"))
                    else:
                        body.append(item)
                definitions.append((owner, node.name, None, body, f"{where}:{node.lineno}"))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) and not _is_all(node):
                on_import.append(node)
    return definitions, on_import


def unreached(package, callers, roots=()):
    """``{qualname: "path:line"}`` of the public definitions in ``package``
    that no ``.py`` file under ``callers`` reaches.

    Reach is by name and transitive: a function or class is reached when a
    caller, import-time code or a reached definition uses its bare name or
    reads it off a package module; a method when its class is reached and its
    name is used either way or as any attribute.  The qualnames in ``roots``
    count as reached from the start.  Code that only unreached code uses
    stays unreached.  A method of an unreached class is not listed on its
    own: the class is.
    """
    definitions, on_import = _definitions(package)
    modules = _module_names(package)
    names, members = set(), set()
    _referenced(on_import, modules, names, members)
    for directory in callers:
        for path in directory.rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            _referenced([tree], modules, names, members)
    reached = set()
    grew = True
    while grew:
        grew = False
        for qualname, name, owner, body, _ in definitions:
            if qualname in reached:
                continue
            if owner is None:
                used = name in names
            else:
                used = owner in reached and (name in names or name in members)
            if qualname in roots or used:
                reached.add(qualname)
                _referenced(body, modules, names, members)
                grew = True
    return {
        qualname: where
        for qualname, name, owner, _, where in definitions
        if qualname not in reached
        and not name.startswith("_")
        and (owner is None or owner in reached)
    }


def reachability_problems(package, callers, allowed):
    """Public definitions that neither callers nor the ``allowed`` names
    reach, and stale entries of ``allowed``: one naming no definition, or
    one that callers reach anyway."""
    defined = {qualname for qualname, *_ in _definitions(package)[0]}
    problems = [
        f"{where}: {qualname} is reached from nothing outside tests/"
        for qualname, where in sorted(unreached(package, callers, set(allowed)).items())
    ]
    without_allowed = unreached(package, callers)
    for qualname in sorted(allowed):
        if qualname not in defined:
            problems.append(f"ALLOWED names {qualname}, which is not defined")
        elif qualname not in without_allowed:
            problems.append(f"ALLOWED names {qualname}, which is reached: drop it")
    return problems


def test_every_public_definition_is_reached_outside_tests():
    assert all(reason.strip() for reason in ALLOWED.values())
    problems = reachability_problems(SRC, CALLERS, ALLOWED)
    assert not problems, "\n".join(problems)


class TestReachabilityScan:
    """The scan itself, on a small tree with known answers."""

    @pytest.fixture
    def tree(self, tmp_path):
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("from .mod import Thing, dead, used\n")
        (package / "mod.py").write_text(
            "def used():\n    return _helper()\n\n"
            "def _helper():\n    return shared()\n\n"
            "def shared():\n    return 1\n\n"
            "def dead():\n    return only_from_dead()\n\n"
            "def only_from_dead():\n    return 2\n\n"
            "def kept_api():\n    return kept_helper()\n\n"
            "def kept_helper():\n    return 3\n\n"
            "class Thing:\n"
            "    def __init__(self):\n        self.value = shared()\n\n"
            "    def called(self):\n        return self.value\n\n"
            "    def uncalled(self):\n        return 0\n\n"
            "class Unused:\n"
            "    def called(self):\n        return 0\n"
        )
        examples = tmp_path / "examples"
        examples.mkdir()
        (examples / "demo.py").write_text(
            "from pkg.mod import Thing, used\n\nused()\nThing().called()\n"
        )
        return package, (examples,)

    def test_reports_dead_code_and_what_only_dead_code_reaches(self, tree):
        package, callers = tree
        assert set(unreached(package, callers)) == {
            "pkg.mod.dead",
            "pkg.mod.only_from_dead",
            "pkg.mod.kept_api",
            "pkg.mod.kept_helper",
            "pkg.mod.Thing.uncalled",
            "pkg.mod.Unused",
        }

    def test_a_caller_outside_the_package_reaches_transitively(self, tree):
        package, callers = tree
        flagged = unreached(package, callers)
        for name in ("used", "shared", "Thing", "Thing.called"):
            assert f"pkg.mod.{name}" not in flagged
        assert "pkg.mod.dead" in unreached(package, ())
        assert "pkg.mod.used" in unreached(package, ())

    def test_an_object_attribute_does_not_reach_a_module_function(self, tmp_path):
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "bits.py").write_text(
            "def popcount(value):\n    return bin(value).count('1')\n\n"
            "def parity(value):\n    return popcount(value) & 1\n\n"
            "class Node:\n    def popcount(self):\n        return 1\n"
        )
        examples = tmp_path / "examples"
        examples.mkdir()
        demo = "from pkg import bits\n\nbits.Node().popcount()\n"
        (examples / "demo.py").write_text(demo)
        assert set(unreached(package, (examples,))) == {"pkg.bits.popcount", "pkg.bits.parity"}
        (examples / "demo.py").write_text(demo + "bits.parity(3)\n")
        assert unreached(package, (examples,)) == {}

    def test_allow_list_excuses_a_name_and_what_it_calls(self, tree):
        package, callers = tree
        problems = reachability_problems(package, callers, {
            "pkg.mod.kept_api": "public API",
        })
        assert not any("kept_" in problem for problem in problems)
        assert any("pkg.mod.dead " in problem for problem in problems)

    def test_stale_allow_list_entries_fail(self, tree):
        package, callers = tree
        problems = reachability_problems(package, callers, {
            "pkg.mod.gone": "deleted long ago",
            "pkg.mod.used": "an example calls it",
        })
        assert "ALLOWED names pkg.mod.gone, which is not defined" in problems
        assert "ALLOWED names pkg.mod.used, which is reached: drop it" in problems


# ----------------------------------------------------------------- doc names
DOCS = (ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")))
_DOC_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")
_DOC_CLASS_ATTRIBUTE = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)")


def _doc_names():
    return sorted({name for doc in DOCS for name in _DOC_NAME.findall(doc.read_text())})


def _resolve(dotted):
    """Import the longest module prefix of ``dotted``, then walk attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(dotted)


def _public_classes():
    """``{name: [class, ...]}`` of every public class defined in ``repro``."""
    classes = {}
    for info in pkgutil.walk_packages([str(SRC)], prefix="repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if (inspect.isclass(value) and value.__module__ == module.__name__
                    and not name.startswith("_")):
                classes.setdefault(name, []).append(value)
    return classes


def _has_attribute(cls, attribute):
    """Whether instances of ``cls`` carry ``attribute``: ``getattr`` finds it
    (which covers ``__slots__``), it is a dataclass field, or the source of
    ``cls`` or of a base assigns ``self.<attribute>``."""
    if hasattr(cls, attribute) or attribute in getattr(cls, "__dataclass_fields__", {}):
        return True
    for klass in cls.__mro__[:-1]:
        try:
            tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
        except (OSError, TypeError):
            continue
        if any(
            isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and node.attr == attribute and _dotted(node.value) == "self"
            for node in ast.walk(tree)
        ):
            return True
    return False


def stale_class_attributes(text, classes):
    """The backticked ``Class.attr`` names in ``text`` whose ``Class`` is in
    ``classes`` (``{name: [class, ...]}``) but has no such attribute."""
    return sorted({
        f"{name}.{attribute}"
        for name, attribute in _DOC_CLASS_ATTRIBUTE.findall(text)
        if name in classes and not any(_has_attribute(c, attribute) for c in classes[name])
    })


def test_docs_cite_names_that_exist():
    names = _doc_names()
    assert len(names) > 20
    missing = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError) as error:
            missing.append(f"{name}: {error}")
    classes = _public_classes()
    assert len(classes) > 50
    for doc in DOCS:
        missing += [
            f"{doc.name}: {name} names no attribute"
            for name in stale_class_attributes(doc.read_text(), classes)
        ]
    assert not missing, "docs cite names that do not exist:\n" + "\n".join(missing)


class DocProbe:
    """Known answers for the ``Class.attr`` doc check."""

    def __init__(self):
        self.assigned = 1

    def method(self):
        return self.assigned


def test_doc_class_attributes_resolve_like_instance_attributes():
    classes = {"DocProbe": [DocProbe]}
    cited = "`DocProbe.method()` returns `DocProbe.assigned`; `Other.gone` is not ours"
    assert stale_class_attributes(cited, classes) == []
    assert stale_class_attributes("see `DocProbe.deleted_method()`", classes) == [
        "DocProbe.deleted_method"
    ]
