"""Every public top-level def or class of the package has a caller, and
every name a module of the package imports is used there.

A name counts as reached when some code in src/afcheck/ or perfbench/
mentions it outside its own definition: as a name, an attribute, or a
dotted segment of a string (the benchmark tracer wraps functions by their
names as strings).  A name in a module's __all__ is exported on purpose and
counts as reached too.  Tests do not count: a function that only tests call
is dead library.  An imported name counts as used when its module mentions
it as a name, or lists it in __all__.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "afcheck"
CALLERS = (PACKAGE, ROOT / "perfbench")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree):
    """The names listed in the module's __all__, if it has one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _mentions(node, skip):
    """Names that node mentions, leaving out the subtree skip."""
    found = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current is skip:
            continue
        if isinstance(current, ast.Name):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        elif isinstance(current, ast.Constant) and isinstance(current.value, str):
            found.update(current.value.split("."))
        stack.extend(ast.iter_child_nodes(current))
    return found


def unreached(package=PACKAGE, callers=CALLERS):
    """Sorted "module.name" of the public top-level definitions in package
    that nothing in the caller directories mentions."""
    trees = {path: _parse(path) for base in callers
             for path in sorted(base.glob("*.py"))}
    missing = []
    for path in sorted(package.glob("*.py")):
        tree = trees[path]
        exported = _exported(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in exported:
                continue
            if not any(name in _mentions(other, node)
                       for other in trees.values()):
                missing.append(f"{path.stem}.{name}")
    return sorted(missing)


def _bound_names(node):
    """The names an import statement binds in its module."""
    for alias in node.names:
        if isinstance(node, ast.Import):
            yield alias.asname or alias.name.split(".")[0]
        else:
            yield alias.asname or alias.name


def unused_imports(package=PACKAGE):
    """Sorted "module.name" of the names that a module in package imports
    and neither uses nor lists in its __all__."""
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = _parse(path)
        used = _exported(tree) | {node.id for node in ast.walk(tree)
                                  if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused.extend(f"{path.stem}.{name}"
                              for name in _bound_names(node)
                              if name not in used)
    return sorted(unused)


def test_every_public_definition_has_a_caller():
    assert unreached() == []


def test_the_walk_finds_a_dead_definition(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text(
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def used(): pass\n"
        "def recursive(): return recursive()\n"
        "def traced(): pass\n"
        "def _private(): pass\n"
        "class Dead:\n"
        "    def method(self): return Dead\n", encoding="utf-8")
    (package / "user.py").write_text(
        "from .mod import used\n"
        "def caller(): return used()\n", encoding="utf-8")
    (bench / "wrap.py").write_text("WRAPPED = ['mod.traced']\n",
                                   encoding="utf-8")
    assert unreached(package, (package, bench)) == [
        "mod.Dead", "mod.recursive", "user.caller"]


def test_every_import_is_used():
    assert unused_imports() == []


def test_the_import_check_finds_an_unused_name(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os.path\n"
        "import json as codec\n"
        "from math import gcd, lcm\n"
        "from .other import exported, dead\n"
        "__all__ = ['exported']\n"
        "def f(): return os.sep, gcd(4, 6)\n", encoding="utf-8")
    assert unused_imports(tmp_path) == ["mod.codec", "mod.dead", "mod.lcm"]
