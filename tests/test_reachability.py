"""Every top-level definition of the package has a caller, every name a
module of the package imports is used there, every parameter is read, and
every dataclass field is read.

A definition is a def, a class or a module-level name binding (a constant
such as a budget); dunder names such as __version__ are left out.  A name
counts as reached when some code in src/afcheck/ or perfbench/ mentions it
outside its own definition: as a name, an attribute, or a dotted segment
of a string (the benchmark tracer wraps functions by their names as
strings).  That holds for private names too, so an orphaned helper is
found.  A name in a module's __all__ is exported on purpose and counts as
reached too.  Tests do not count: a function that only tests call is dead
library, and so is a constant that only tests read.  A method of a
top-level class, dunder methods left out, counts as reached on the same
terms when some code mentions its name outside the method's own def.  An imported name
counts as used when its module mentions it as a name, or lists it in
__all__.

Every parameter of a function of the package, methods and nested functions
included, is read by the function's body, unless its name begins with "_"
(a handler that a table calls with arguments it does not need).  A
parameter that the body only assigns is unread.

A field of a top-level dataclass of the package counts as read when some
code in src/afcheck/ or perfbench/ reads an attribute of that name; tests
do not count, and neither does a write.  A read of self.<name> inside a
top-level class counts only for that class's own fields.  Other reads match
names only, not the object read: a field such as `field` or `notes` whose
name another object also has passes if any code reads that name.
"""

import ast
from collections import Counter
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


def _mentioned(node):
    """Names that node mentions, once per mention."""
    for current in ast.walk(node):
        if isinstance(current, ast.Name):
            yield current.id
        elif isinstance(current, ast.Attribute):
            yield current.attr
        elif isinstance(current, ast.Constant) and isinstance(current.value, str):
            yield from current.value.split(".")


def _mentions(node):
    """Names that node mentions."""
    return set(_mentioned(node))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defined_names(node):
    """The names a top-level statement defines, dunder names left out."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not _is_dunder(n)]


def unreached(package=PACKAGE, callers=CALLERS):
    """Sorted "module.name" of the top-level definitions in package that
    nothing in the caller directories mentions outside the definition.

    Each top-level statement's mentions are collected once; a name is
    reached when a statement other than its definition mentions it."""
    trees = {path: _parse(path) for base in callers
             for path in sorted(base.glob("*.py"))}
    mentions = {id(node): _mentions(node)
                for tree in trees.values() for node in tree.body}
    counts = Counter(name for found in mentions.values() for name in found)
    missing = []
    for path in sorted(package.glob("*.py")):
        tree = trees[path]
        exported = _exported(tree)
        for node in tree.body:
            for name in _defined_names(node):
                own = name in mentions[id(node)]
                if name not in exported and counts[name] - own == 0:
                    missing.append(f"{path.stem}.{name}")
    return sorted(missing)


def unreached_methods(package=PACKAGE, callers=CALLERS):
    """Sorted "module.Class.method" of the methods of the top-level classes
    in package, dunder methods left out, that nothing in the caller
    directories mentions outside the method's own def."""
    trees = {path: _parse(path) for base in callers
             for path in sorted(base.glob("*.py"))}
    counts = Counter(name for tree in trees.values()
                     for name in _mentioned(tree))
    missing = []
    for path in sorted(package.glob("*.py")):
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(method.name)
                        and counts[method.name] == Counter(
                            _mentioned(method))[method.name]):
                    missing.append(f"{path.stem}.{cls.name}.{method.name}")
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


def _functions(node, prefix):
    """("prefix.Class.function", def) of every function under node, methods
    and nested functions included."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
        yield from _functions(child, name)


def unread_parameters(package=PACKAGE):
    """Sorted "module.function.parameter" of the parameters of the functions
    in package that the function's body never reads; names that begin with
    "_" are exempt."""
    unread = []
    for path in sorted(package.glob("*.py")):
        for name, func in _functions(_parse(path), path.stem):
            args = func.args
            read = {node.id for stmt in func.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            unread.extend(
                f"{name}.{arg.arg}" for arg in (
                    *args.posonlyargs, *args.args, args.vararg,
                    *args.kwonlyargs, args.kwarg)
                if arg is not None and not arg.arg.startswith("_")
                and arg.arg not in read)
    return sorted(unread)


def _is_dataclass(decorator):
    """decorator is @dataclass or @dataclasses.dataclass, with or without
    arguments."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.id if isinstance(target, ast.Name) else getattr(
        target, "attr", None)
    return name == "dataclass"


def _dataclass_fields(tree):
    """(class, field) of the fields of each top-level dataclass in tree."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                map(_is_dataclass, node.decorator_list)):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    yield node.name, stmt.target.id


def _attribute_reads(path):
    """(owner, name) of each attribute that the module at path reads: owner
    is "module.Class" for a read of self.name inside a top-level class, else
    None."""
    for top in _parse(path).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                own = (isinstance(top, ast.ClassDef)
                       and isinstance(node.value, ast.Name)
                       and node.value.id == "self")
                yield (f"{path.stem}.{top.name}" if own else None), node.attr


def unread_fields(package=PACKAGE, callers=CALLERS):
    """Sorted "module.Class.field" of the dataclass fields in package that
    nothing in the caller directories reads as an attribute."""
    read = {pair for base in callers for path in base.glob("*.py")
            for pair in _attribute_reads(path)}
    return sorted(f"{path.stem}.{cls}.{name}"
                  for path in sorted(package.glob("*.py"))
                  for cls, name in _dataclass_fields(_parse(path))
                  if not {(None, name), (f"{path.stem}.{cls}", name)} & read)


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
        "def _helper(): return LIMIT\n"
        "class Dead:\n"
        "    def method(self): return Dead\n"
        "__version__ = '1'\n"
        "LIMIT = 3\n"
        "UNREAD: int = 4\n"
        "_CACHE, _SPARE = {}, []\n"
        "def reader(): return _helper(), _CACHE\n", encoding="utf-8")
    (package / "user.py").write_text(
        "from .mod import used, reader\n"
        "def caller(): return used(), reader()\n", encoding="utf-8")
    (bench / "wrap.py").write_text("WRAPPED = ['mod.traced']\n",
                                   encoding="utf-8")
    assert unreached(package, (package, bench)) == [
        "mod.Dead", "mod.UNREAD", "mod._SPARE", "mod._private",
        "mod.recursive", "user.caller"]


def test_every_method_has_a_caller():
    assert unreached_methods() == []


def test_the_method_walk_finds_a_dead_method(tmp_path):
    package, bench, tests = (tmp_path / name
                             for name in ("pkg", "bench", "tests"))
    for folder in (package, bench, tests):
        folder.mkdir()
    (package / "mod.py").write_text(
        "class Shape:\n"
        "    def __init__(self): self.sides = 0\n"
        "    def area(self): return self.helper()\n"
        "    def helper(self): return 1\n"
        "    def recursive(self): return self.recursive()\n"
        "    def traced(self): pass\n"
        "    def tested(self): pass\n"
        "class _Spare:\n"
        "    def dead(self): return Shape\n"
        "def area(): return Shape().area()\n", encoding="utf-8")
    (bench / "wrap.py").write_text("WRAPPED = ['mod.Shape.traced']\n",
                                   encoding="utf-8")
    (tests / "test_mod.py").write_text(
        "from pkg.mod import Shape\n"
        "def test_tested(): Shape().tested()\n", encoding="utf-8")
    assert unreached_methods(package, (package, bench)) == [
        "mod.Shape.recursive", "mod.Shape.tested", "mod._Spare.dead"]


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


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_the_parameter_check_finds_an_unread_parameter(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used(a, /, b=1, *rest, c, **options):\n"
        "    return a, b, rest, c, options\n"
        "def unread(a, b=None): return a\n"
        "def table_handler(_args, field): return field\n"
        "def only_written(x): x = 1\n"
        "async def waiting(item): return None\n"
        "def closure(outer):\n"
        "    def inner(y, z=None): return outer, y\n"
        "    return inner\n"
        "class Shape:\n"
        "    def area(self, scale): return self\n"
        "    def spare(self, *extra, **named): return 0\n", encoding="utf-8")
    assert unread_parameters(tmp_path) == [
        "mod.Shape.area.scale", "mod.Shape.spare.extra",
        "mod.Shape.spare.named", "mod.Shape.spare.self",
        "mod.closure.inner.z", "mod.only_written.x", "mod.unread.b",
        "mod.waiting.item"]


def test_every_dataclass_field_is_read():
    assert unread_fields() == []


def test_the_field_check_finds_an_unread_field(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Record:\n"
        "    read: int\n"
        "    written: int\n"
        "    unread: int = 0\n"
        "    def total(self): return self.read\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    benched: str\n"
        "    spare: str\n"
        "class Plain:\n"
        "    annotated: int\n"
        "@dataclass\n"
        "class Tagged:\n"
        "    tag: str\n"
        "class Search:\n"
        "    @property\n"
        "    def tag(self): return 'bounded'\n"
        "    def show(self): return self.tag\n"
        "def fill(record): record.written = 1\n", encoding="utf-8")
    (bench / "wrap.py").write_text("def show(f): return f.benched\n",
                                   encoding="utf-8")
    assert unread_fields(package, (package, bench)) == [
        "mod.Frozen.spare", "mod.Record.unread", "mod.Record.written",
        "mod.Tagged.tag"]
