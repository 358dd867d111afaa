"""Source hygiene: every name a module imports is read somewhere in that
module, every private top-level name of the package is read somewhere in it,
and every name a demo script imports from the package exists.

A stdlib `ast` scan of the package and test modules. The package's
`__init__.py` is left out of the import check: its imports are the public
re-exports. A private function, class or constant that no package module
reads is dead code, even when a test still calls it. The demos are scanned,
not run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "colide").glob("*.py"))
MODULES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """'line N: name' for each name an import statement binds and the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_flags_only_unread_imports():
    source = "import os\nimport os.path as osp\nfrom a import b, c as e\nimport x.y\nprint(b, x.y)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: osp", "line 3: e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict) -> list:
    """'module: name' for each private top-level function, class or constant that no source reads.

    sources maps a module name to its text. A module reads its own names where
    it loads them, and module m's names where it imports them from m or takes
    them as attributes of m, so a name read in one module does not hide an
    unread one of the same name in another.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for module, tree in trees.items():
        nodes = list(ast.walk(tree))
        owner = {}
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                owner.update((a.asname or a.name, a.name.rsplit(".", 1)[-1]) for a in node.names)
            if isinstance(node, ast.ImportFrom) and node.module:
                read.update((node.module.rsplit(".", 1)[-1], a.name) for a in node.names)
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                base = getattr(node.value, "id", getattr(node.value, "attr", None))
                read.add((owner.get(base, base), node.attr))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and (module, name) not in read]
    return unread


def test_scan_flags_only_unread_private_names():
    sources = {
        "a": "_K = 1\n_J: int = 2\ndef _f(): pass\nclass _C: pass\ndef _g(): return _K\n"
             "def _h(): pass\ndef _check(): pass\n__all__ = []\ndef pub(): pass\n",
        # b reads its own _check and a's _C, _g and _h; c's _g is unread
        "b": "from a import _g\nimport a as m\nx = m._C, _g, m._h\ndef _check(): pass\ny = _check()\n",
        "c": "def _g(): pass\n",
    }
    assert unread_private_names(sources) == ["a: _J", "a: _f", "a: _check", "c: _g"]


def test_every_private_name_is_read():
    assert unread_private_names({p.stem: p.read_text() for p in PACKAGE}) == []


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = [(node.module, alias.name) for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "colide"
               for alias in node.names]
    assert imports
    assert [f"{m}.{name}" for m, name in imports if not hasattr(importlib.import_module(m), name)] == []
