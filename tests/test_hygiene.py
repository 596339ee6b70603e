"""Code with no caller is deleted: every private name the package defines
at module level, and every private method, is referenced somewhere in it.

A reference is a read of the name (a Name that is not assigned to) or an
attribute of that name, in any module of the package; the definition
itself does not count. Dunder names are the language's, not ours.
"""

import ast
from pathlib import Path

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
