"""Every top-level definition of the package has a caller, every name a
module of the package imports is used there, every parameter is read,
every default is both needed and overridden, and every field of a record
class is read.

A definition is a def, a class or a module-level name binding (a constant
such as a budget); dunder names such as __version__ are left out.  A name
counts as reached when some code in src/afcheck/ or perfbench/ mentions it
outside its own definition: as a name, an attribute, or a dotted segment
of a string (the benchmark tracer wraps functions by their names as
strings).  That holds for private names too, so an orphaned helper is
found.  A name in a module's __all__ is exported on purpose and counts as
reached too.  Tests do not count: a function that only tests call is dead
library, and so is a constant that only tests read.  A method of a
top-level class, dunder methods left out, counts as reached only when some
code outside the method's own def mentions it as an attribute (.name) or in
a dotted string: a bare name, such as a local variable that shares the
method's name, reaches no method.  An imported name
counts as used when its module mentions it as a name, or lists it in
__all__.

Every parameter of a function of the package, methods and nested functions
included, is read by the function's body, unless its name begins with "_"
(a handler that a table calls with arguments it does not need).  A
parameter that the body only assigns is unread.

A defaulted parameter of a function of the package, methods, nested
functions and __init__ included, is matched against the calls in
src/afcheck/ and perfbench/ that name the function (its class, for an
__init__), by name as above.  Some call must omit the parameter, or its
default serves no call and should be a literal; and some call must pass
it, or the default serves only tests and the parameter should be
required.  Functions named in an __all__ of the package are exempt.

A record class is a top-level class of the package that declares
__slots__, and its fields are the names listed there, __dict__ left out.
A field counts as read when some code in src/afcheck/ or perfbench/ reads
an attribute of that name; tests do not count, and neither does a write.
A read of self.<name> inside a top-level class counts only for that class's
own fields.  Other reads match names only, not the object read: a field
such as `field` or `notes` whose name another object also has passes if
any code reads that name.
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


def _method_mentions(node):
    """Names that node mentions as an attribute (.name) or as a segment of
    a dotted string, once per mention: the ways a method can be reached."""
    for current in ast.walk(node):
        if isinstance(current, ast.Attribute):
            yield current.attr
        elif (isinstance(current, ast.Constant)
              and isinstance(current.value, str) and "." in current.value):
            yield from current.value.split(".")


def unreached_methods(package=PACKAGE, callers=CALLERS):
    """Sorted "module.Class.method" of the methods of the top-level classes
    in package, dunder methods left out, that nothing in the caller
    directories mentions as an attribute or in a dotted string outside the
    method's own def."""
    trees = {path: _parse(path) for base in callers
             for path in sorted(base.glob("*.py"))}
    counts = Counter(name for tree in trees.values()
                     for name in _method_mentions(tree))
    missing = []
    for path in sorted(package.glob("*.py")):
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(method.name)
                        and counts[method.name] == Counter(
                            _method_mentions(method))[method.name]):
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


def _signatures(node, prefix, in_class=False):
    """("prefix.Class.function", call name, def, shift) of every function
    under node that a call names: a function or method by its own name, an
    __init__ by its class's name; other dunder methods are left out.  shift
    is 1 when a call's first positional argument fills the second parameter
    (a method other than a staticmethod), else 0."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            called = prefix.rsplit(".", 1)[-1] if (
                in_class and child.name == "__init__") else child.name
            if not _is_dunder(called):
                yield name, called, child, int(in_class and not static)
            yield from _signatures(child, name)
        elif isinstance(child, ast.ClassDef):
            yield from _signatures(child, f"{prefix}.{child.name}", True)
        else:
            yield from _signatures(child, prefix, in_class)


def _defaulted(func, shift):
    """(parameter, position or None) of the parameters of func that have a
    default; position counts the call's positional arguments."""
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield arg.arg, index - shift
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _positional_count(call):
    """How many positional arguments call passes: a * argument counts its
    items when they are written out, in a tuple or list or in map() over
    one; any other * argument makes the count unknown (None)."""
    count = 0
    for arg in call.args:
        if not isinstance(arg, ast.Starred):
            count += 1
            continue
        items = arg.value
        if (isinstance(items, ast.Call) and isinstance(items.func, ast.Name)
                and items.func.id == "map" and len(items.args) == 2):
            items = items.args[1]
        if not isinstance(items, (ast.Tuple, ast.List)) or any(
                isinstance(item, ast.Starred) for item in items.elts):
            return None
        count += len(items.elts)
    return count


def _passes(call, parameter, position):
    """Whether call passes the parameter: by keyword, by position, or
    possibly through a ** argument or a * argument of unknown length."""
    if any(keyword.arg in (None, parameter) for keyword in call.keywords):
        return True
    count = _positional_count(call)
    return position is not None and (count is None or position < count)


def unneeded_defaults(package=PACKAGE, callers=CALLERS):
    """Sorted "module.function.parameter (why)" of the defaulted parameters
    of the functions in package whose default no call needs or no call
    overrides.  Calls in the caller directories are matched to a function
    by name, as a bare name or an attribute.  A default is needed when some
    call omits the parameter, and it is a real option when some call passes
    it; a default that every call passes should be a required parameter,
    and one that no call passes a literal.  Functions named in an __all__
    of the package are exempt."""
    calls = {}
    for base in callers:
        for path in base.glob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Call):
                    callee = node.func
                    name = getattr(callee, "id", getattr(callee, "attr", None))
                    calls.setdefault(name, []).append(node)
    trees = {path: _parse(path) for path in sorted(package.glob("*.py"))}
    exported = set().union(*map(_exported, trees.values()))
    found = []
    for path, tree in trees.items():
        for qualname, called, func, shift in _signatures(tree, path.stem):
            if called in exported:
                continue
            sites = calls.get(called, [])
            for parameter, position in _defaulted(func, shift):
                passed = [_passes(call, parameter, position) for call in sites]
                if not any(passed):
                    found.append(f"{qualname}.{parameter} (never passed)")
                elif all(passed):
                    found.append(f"{qualname}.{parameter} (always passed)")
    return sorted(found)


def _slots(stmt):
    """The names a class-body statement lists in __slots__, if it assigns
    __slots__ a string or a tuple or list of strings."""
    if not (isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets)):
        return []
    value = stmt.value
    items = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
    return [item.value for item in items if isinstance(item, ast.Constant)]


def _record_fields(tree):
    """(class, field) of the fields of each top-level record class in tree:
    the names in its __slots__, dunder names such as __dict__ left out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                for name in _slots(stmt):
                    if not _is_dunder(name):
                        yield node.name, name


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
    """Sorted "module.Class.field" of the record class fields in package
    that nothing in the caller directories reads as an attribute."""
    read = {pair for base in callers for path in base.glob("*.py")
            for pair in _attribute_reads(path)}
    return sorted(f"{path.stem}.{cls}.{name}"
                  for path in sorted(package.glob("*.py"))
                  for cls, name in _record_fields(_parse(path))
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


def test_a_bare_name_reaches_no_method(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "field.py").write_text(
        "class Field:\n"
        "    def zero(self): return 0\n"
        "    def one(self): return 1\n"
        "    def theta(self): return 2\n"
        "    def spare(self): return 3\n"
        "    def named(self): return 4\n"
        "def build(field): return field.one()\n", encoding="utf-8")
    (package / "frey.py").write_text(
        "def profile():\n"
        "    zero = 0\n"
        "    spare = 'spare'\n"
        "    return zero, spare, named\n"
        "def named(): return None\n", encoding="utf-8")
    (bench / "wrap.py").write_text("WRAPPED = {'theta': 'Field.theta'}\n",
                                   encoding="utf-8")
    assert unreached_methods(package, (package, bench)) == [
        "field.Field.named", "field.Field.spare", "field.Field.zero"]


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


def test_every_default_is_needed_and_overridden():
    assert unneeded_defaults() == []


def test_the_default_check_finds_an_unneeded_default(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text(
        "__all__ = ['api']\n", encoding="utf-8")
    (package / "mod.py").write_text(
        "def api(x, flag=False): return x, flag\n"
        "def mixed(x, flag=False): return x, flag\n"
        "def always(x, flag=False): return x, flag\n"
        "def never(x, box=6): return x, box\n"
        "def keyword(x, *, skip=()): return x, skip\n"
        "def splat(x, a=0, b=0): return x, a, b\n"
        "class Shape:\n"
        "    def __init__(self, sides, name=None): self.sides = name\n"
        "    def scale(self, by=1): return by\n"
        "    @staticmethod\n"
        "    def unit(by=1): return by\n"
        "def calls(shape, args, named):\n"
        "    mixed(1), mixed(1, True), always(1, flag=True)\n"
        "    never(1), keyword(1, skip=(2,)), splat(*args), splat(1, **named)\n"
        "    Shape(3), Shape(4), shape.scale(), shape.scale(2)\n"
        "    return Shape.unit(2)\n", encoding="utf-8")
    (bench / "run.py").write_text(
        "def drive(m): return m.always(0, False), m.splat(*map(abs, (1,)))\n",
        encoding="utf-8")
    assert unneeded_defaults(package, (package, bench)) == [
        "mod.Shape.__init__.name (never passed)",
        "mod.Shape.unit.by (always passed)",
        "mod.always.flag (always passed)",
        "mod.keyword.skip (always passed)",
        "mod.never.box (never passed)"]


def test_every_record_field_is_read():
    assert unread_fields() == []


def test_the_field_check_finds_an_unread_field(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text(
        "class Record:\n"
        "    __slots__ = ('read', 'written', 'unread')\n"
        "    def __init__(self, read, written, unread=0):\n"
        "        self.read = read\n"
        "        self.written = written\n"
        "        self.unread = unread\n"
        "    def total(self): return self.read\n"
        "class Frozen:\n"
        "    __slots__ = ['benched', 'spare', '__dict__']\n"
        "    def __init__(self, benched, spare):\n"
        "        object.__setattr__(self, 'benched', benched)\n"
        "        object.__setattr__(self, 'spare', spare)\n"
        "    def __setattr__(self, name, value): raise AttributeError(name)\n"
        "class Plain:\n"
        "    annotated: int\n"
        "    def __init__(self): self.loose = 0\n"
        "class Tagged:\n"
        "    __slots__ = 'tag'\n"
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
