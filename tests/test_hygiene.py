"""Code with no caller is deleted: every private name the package defines
at module level, and every private method, is referenced somewhere in it.

A reference is a read of the name (a Name that is not assigned to) or an
attribute of that name, in any module of the package; the definition
itself does not count. Dunder names are the language's, not ours.

The package needs only Python: it imports nothing outside the standard
library, and its syntax is that of the oldest Python pyproject.toml
declares (requires-python).

Every JSON read of outside input catches one exception set: each
json.load and json.loads call sits in the body of a try with a handler
that names store.BAD_JSON.

Every JSON the package writes, log lines and response bodies alike, comes
from one encoder: json.JSONEncoder is constructed once, in store.py, and
json.dump and json.dumps are called only in cli.py, for its indented,
human-readable output.

No function writes into a module-level dict, list or set: a cache is one
of functools', and per-station state belongs to the object that owns it.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "iccamon"


def _private(name: str) -> bool:
    return name.startswith("_") and name != "_" and not name.endswith("__")


def _defined(tree: ast.Module):
    """(line, name) of each private module-level name and private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.lineno, item.name


def unreferenced(sources: dict[str, str]) -> list[str]:
    """"module:line name" of each private definition in sources (module name
    to source text) that no module reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{module}:{line} {name}" for module, tree in trees.items()
            for line, name in _defined(tree) if _private(name) and name not in used]


def test_every_private_name_in_the_package_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 5
    assert unreferenced(sources) == []


def test_the_check_finds_a_name_with_no_caller():
    sources = {
        "a.py": "_new_object = object.__new__\n_kept = 1\n"
                "class A:\n    def _helper(self): pass\n    def _unused(self): pass\n"
                "    def __repr__(self): return ''\n",
        "b.py": "from a import _kept\nprint(_kept, A()._helper())\n",
    }
    assert unreferenced(sources) == ["a.py:1 _new_object", "a.py:5 _unused"]


def third_party_imports(sources: dict[str, str]) -> list[str]:
    """"module:line name" of each absolute import in sources whose top-level
    name is neither the standard library's nor the package's."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{module}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names | {"iccamon"}]
    return found


def test_package_imports_only_the_standard_library():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert third_party_imports(sources) == []


def test_the_import_check_finds_a_third_party_module():
    sources = {"a.py": "import json, urllib.request\nfrom . import b\nfrom iccamon.b import c\n"
                       "def f():\n    import requests.adapters\n"
                       "from certifi import where\n"}
    assert sorted(third_party_imports(sources)) == ["a.py:5 requests.adapters", "a.py:6 certifi"]


def test_package_parses_as_python_3_10():
    # the grammar only: a library call new since 3.10 still passes
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_the_version_check_refuses_except_star():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse(source, feature_version=(3, 10))


def json_reads(sources: dict[str, str], guard: str = "BAD_JSON") -> dict[str, bool]:
    """"module:line" of each json.load and json.loads call in sources, to
    whether the body of an enclosing try, within the same function, holds
    it with a handler that names guard (alone, in a tuple, or starred)."""
    reads = {}

    def visit(module, node, guarded):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            guarded = False  # a function runs after the try it is defined in
        elif isinstance(node, ast.Try):
            named = {getattr(name, "id", getattr(name, "attr", None))
                     for handler in node.handlers if handler.type is not None
                     for name in ast.walk(handler.type)}
            for child in node.body:
                visit(module, child, guarded or guard in named)
            for child in node.handlers + node.orelse + node.finalbody:
                visit(module, child, guarded)
            return
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("load", "loads")
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            reads[f"{module}:{node.lineno}"] = guarded
        for child in ast.iter_child_nodes(node):
            visit(module, child, guarded)

    for module, text in sources.items():
        visit(module, ast.parse(text), False)
    return reads


def test_every_json_read_catches_the_one_exception_set():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    reads = json_reads(sources)
    assert reads and [where for where, guarded in reads.items() if not guarded] == []


def test_the_json_check_finds_a_read_guarded_by_less():
    source = (
        "import json\n"
        "json.loads(a)\n"  # bare
        "try:\n    json.loads(b)\nexcept ValueError:\n    json.load(c)\n"
        "try:\n    x = json.loads(d)\n    f = lambda: json.loads(e)\n"
        "except (OSError, *store.BAD_JSON):\n    pass\n"
        "try:\n    json.load(g)\nexcept BAD_JSON as exc:\n    raise ValueError(exc)\n"
    )
    assert json_reads({"a.py": source}) == {
        "a.py:2": False, "a.py:4": False, "a.py:6": False, "a.py:8": True, "a.py:9": False,
        "a.py:13": True}


def json_writers(sources: dict[str, str]) -> list[str]:
    """"module:line name" of each construction of json.JSONEncoder and each
    call of json.dump or json.dumps in sources, whether named through json
    or imported from it, sorted."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "json"
                    for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id == "json"):
                name = func.attr
            else:
                name = imported.get(getattr(func, "id", None))
            if name in ("JSONEncoder", "dump", "dumps"):
                found.append(f"{module}:{node.lineno} {name}")
    return sorted(found)


def stray_json_writers(writers: list[str]) -> list[str]:
    """The writers of json_writers outside their one module: an encoder
    outside store.py, a dump or dumps outside cli.py."""
    return [w for w in writers if not w.startswith(
        "store.py:" if w.endswith(" JSONEncoder") else "cli.py:")]


def test_the_package_has_one_json_encoder():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    writers = json_writers(sources)
    assert stray_json_writers(writers) == []
    assert sum(w.endswith(" JSONEncoder") for w in writers) == 1


def test_the_encoder_check_finds_a_second_encoder():
    sources = {
        "store.py": "import json\n_encode = json.JSONEncoder(separators=(',', ':')).encode\n",
        "cli.py": "import json\nprint(json.dumps({}, indent=2))\njson.dump({}, f)\n",
        "service.py": "import json\nfrom json import JSONEncoder as E, dumps\n"
                      "_RESPONSE = json.JSONEncoder(ensure_ascii=False)\nE()\ndumps(x)\n"
                      "json.loads(b)\njson.JSONDecoder()\n",
    }
    writers = json_writers(sources)
    assert writers == ["cli.py:2 dumps", "cli.py:3 dump", "service.py:3 JSONEncoder",
                       "service.py:4 JSONEncoder", "service.py:5 dumps",
                       "store.py:2 JSONEncoder"]
    assert stray_json_writers(writers) == [
        "service.py:3 JSONEncoder", "service.py:4 JSONEncoder", "service.py:5 dumps"]


_MUTATORS = {"append", "extend", "insert", "remove", "pop", "popitem", "clear", "update",
             "setdefault", "add", "discard", "sort", "reverse",
             "difference_update", "intersection_update", "symmetric_difference_update"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _is_container(node) -> bool:
    """Whether node builds a dict, list or set: a display, a comprehension
    or a call of dict, list or set."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("dict", "list", "set")


def _root(node) -> str | None:
    """The name an expression reaches into: x for x, x[k], x[k][j] and
    x.get(k); None for anything else."""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("get", "setdefault")):
            node = node.func.value
        else:
            return node.id if isinstance(node, ast.Name) else None


def _scope_nodes(scope):
    """The nodes of a function's body, without the bodies of the functions
    and classes defined in it (each is a scope of its own)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def module_state_writers(sources: dict[str, str]) -> list[str]:
    """"module:line name" of each statement inside a function that writes
    into a module-level dict, list or set (name): a subscript store or
    delete, an augmented assignment or a mutating method call, made on the
    container or on a local name bound to it or to an item of it, in line
    order."""
    found = set()
    for module, text in sources.items():
        tree = ast.parse(text)
        containers = {target.id for node in tree.body
                      if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_container(node.value)
                      for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                      if isinstance(target, ast.Name)}
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            nodes = list(_scope_nodes(scope))
            declared = {name for node in nodes if isinstance(node, ast.Global)
                        for name in node.names}
            local = {arg.arg for arg in ast.walk(scope.args) if isinstance(arg, ast.arg)}
            bound = {}  # a local name to the module container its value reaches into
            for node in nodes:
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    local.add(node.id)
                if isinstance(node, ast.Assign) and _root(node.value) in containers:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            bound[target.id] = _root(node.value)
            reach = {name: name for name in containers if name in declared or name not in local}
            reach.update(bound)
            for node in nodes:
                if isinstance(node, (ast.Assign, ast.Delete)):
                    targets = [t for t in node.targets if isinstance(t, ast.Subscript)]
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in _MUTATORS):
                    targets = [node.func.value]
                else:
                    continue
                found.update((module, node.lineno, reach[_root(t)]) for t in targets
                             if _root(t) in reach)
    return [f"{module}:{line} {name}" for module, line, name in sorted(found)]


def test_the_package_keeps_no_hand_built_cache():
    # state the package keeps at module level is functools' (a cache) or
    # read-only; per-station state belongs to the objects that own it
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert module_state_writers(sources) == []


def test_the_state_check_finds_a_filled_table():
    source = (
        "_TABLE = {p: [None] * 10 for p in 'ab'}\n"
        "_SEEN = set()\n"
        "_LOG: list = []\n"
        "LIMITS = {'a': 1}\n"
        "def lookup(p, i):\n"
        "    memo = _TABLE[p]\n"
        "    result = memo[i]\n"
        "    if result is None:\n"
        "        result = memo[i] = i * i\n"
        "    return result\n"
        "def note(x):\n"
        "    _SEEN.add(x)\n"
        "    _LOG[0] += 1\n"
        "    return LIMITS[x] + len(_LOG)\n"
        "def shadow(_SEEN, x):\n"
        "    _SEEN.add(x)\n"
        "    _LOG = []\n"
        "    _LOG.append(x)\n"
        "    row = _TABLE.get('a')\n"
        "    row.append(x)\n"
        "    _TABLE.setdefault('b', []).append(x)\n"
        "class Box:\n"
        "    def drop(self, p):\n"
        "        del _TABLE[p]\n"
        "        return lambda: _LOG.extend(p)\n"
    )
    assert module_state_writers({"a.py": source}) == [
        "a.py:9 _TABLE", "a.py:12 _SEEN", "a.py:13 _LOG", "a.py:20 _TABLE", "a.py:21 _TABLE",
        "a.py:24 _TABLE", "a.py:25 _LOG"]
