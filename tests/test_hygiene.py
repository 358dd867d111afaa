"""Source hygiene: every name a module imports is read somewhere in that module.

A stdlib `ast` scan of the package and test modules. The package's
`__init__.py` is left out: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "colide").glob("*.py"), *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


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
