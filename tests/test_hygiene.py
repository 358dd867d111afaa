"""Source hygiene: every name a module imports is read somewhere in that
module, every private top-level name of the package is read somewhere in it,
every public name outside its module's `__all__` and every method of the
package is read by the package or by perfbench, every exception class of the
package is defined in `errors.py`, a directed cycle is reported only where
`graphs` builds a DAG's structure, every name a demo script imports from the
package exists, `import colide` loads from files only the standard library,
numpy and colide's modules other than bench and cli, and every python block
of the README runs.

A stdlib `ast` scan of the package and test modules, with perfbench's
modules read as callers of the package. The package's `__init__.py` is left
out of the import check: its imports are the public re-exports. A private
function, class or constant that no package module reads is dead code, even
when a test still calls it; so are a public one outside `__all__` and a
method that neither the package nor perfbench reads. The demos are scanned,
not run; the README's python blocks run in turn, as a reader would paste them.
"""

import ast
import builtins
import importlib
import os
import re
import subprocess
import sys
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


def read_names(sources: dict) -> set:
    """(module, name) for each top-level name of a module that one of sources reads.

    sources maps a module name to its text. A module reads its own names where
    it loads them, and module m's names where it imports them from m or takes
    them as attributes of m, so a name read in one module does not hide an
    unread one of the same name in another.
    """
    read = set()
    for module, text in sources.items():
        nodes = list(ast.walk(ast.parse(text)))
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
    return read


def top_level_names(tree) -> list:
    """The functions, classes and assigned names (tuple targets included) a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names += [t.id for t in getattr(target, "elts", [target]) if isinstance(t, ast.Name)]
    return names


def unread_private_names(sources: dict) -> list:
    """'module: name' for each private top-level function, class or constant that no source reads."""
    read = read_names(sources)
    return [f"{module}: {name}" for module, text in sources.items() for name in top_level_names(ast.parse(text))
            if name.startswith("_") and not name.startswith("__") and (module, name) not in read]


def unread_api(package: dict, readers: dict) -> list:
    """'module: name' and 'module: Class.method' for the package's names that nothing reads.

    A public top-level name of a package module outside that module's
    __all__ must be read by a package or reader module, and so must every
    method or property of a package class (dunders aside). The scan does not
    know an object's type, so a method counts as read where any module takes
    an attribute of its name.
    """
    sources = {**package, **readers}
    read = read_names(sources)
    attributes = {node.attr for text in sources.values() for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Attribute)}
    unread = []
    for module, text in package.items():
        tree = ast.parse(text)
        exported = next((ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                         and [getattr(t, "id", None) for t in node.targets] == ["__all__"]), [])
        unread += [f"{module}: {name}" for name in top_level_names(tree) if not name.startswith("_")
                   and name not in exported and (module, name) not in read]
        unread += [f"{module}: {cls.name}.{item.name}" for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for item in cls.body if isinstance(item, ast.FunctionDef)
                   and not item.name.startswith("__") and item.name not in attributes]
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


def test_scan_flags_only_unread_public_names_and_methods():
    package = {
        "a": "__all__ = ['pub']\ndef pub(): pass\ndef helper(): pass\ndef used(): pass\ndef traced(): pass\n"
             "K, L = 1, 2\nclass C:\n    def m(self): pass\n    def n(self): pass\n"
             "    @property\n    def p(self): pass\n    def __init__(self): pass\nprint(used(), K)\n",
        # b reads a's C and C.n; a reader module reads a.traced and the property p
        "b": "from a import C\nC().n()\n",
    }
    readers = {"perfbench/w": "import a\na.traced()\nprint(obj.p)\n"}
    assert unread_api(package, readers) == ["a: helper", "a: L", "a: C.m"]


def test_every_public_name_and_method_is_read():
    # perfbench's modules are readers: they are not part of the package, but they call it
    readers = {f"perfbench/{p.stem}": p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))}
    assert unread_api({p.stem: p.read_text() for p in PACKAGE}, readers) == []


def exception_classes(sources: dict) -> list:
    """'module: Class' for each class of sources whose base is a builtin exception or such a class.

    A base is matched by its name, whether imported (DataError) or taken as
    an attribute (errors.DataError), so a subclass of another module's error
    is found too.
    """
    classes = [(module, node) for module, text in sources.items() for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.ClassDef)]
    errors = {name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)}
    while True:
        found = {node.name for _, node in classes
                 if {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases} & errors}
        if found <= errors:
            return [f"{module}: {node.name}" for module, node in classes if node.name in found]
        errors |= found


def test_scan_flags_exception_classes():
    sources = {"errors": "class E(ValueError): pass\nclass F(E): pass\nclass Plain: pass\n",
               "a": "import errors\nfrom errors import F\nclass G(F): pass\nclass H(errors.E): pass\n"
                    "class I(object): pass\nclass J(RuntimeError): pass\n"}
    assert exception_classes(sources) == ["errors: E", "errors: F", "a: G", "a: H", "a: J"]


def test_every_exception_class_is_in_errors():
    # one module holds the package's error types, each of which the CLI maps to an exit code
    found = exception_classes({p.stem: p.read_text() for p in PACKAGE})
    assert found and all(c.startswith("errors: ") for c in found), found


def calls_of(sources: dict, name: str) -> list:
    """'module: line N' for each call of name in sources, bare (name(...)) or as an attribute (m.name(...))."""
    return [f"{module}: line {node.lineno}" for module, text in sources.items() for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def test_scan_flags_calls_of_a_name():
    sources = {"a": "raise E('x')\nraise errors.E('y')\nE\nF(E)\nclass G(E): pass\n", "b": "x = [E(1)]\n"}
    assert calls_of(sources, "E") == ["a: line 1", "a: line 2", "b: line 1"]


def test_a_cycle_is_reported_only_by_the_dag_structure():
    # graphs._Dag builds every DAG's lists and order, so it is the one place that finds a directed cycle
    found = calls_of({p.stem: p.read_text() for p in PACKAGE}, "CyclicGraphError")
    assert found and all(c.startswith("graphs: ") for c in found), found


@pytest.mark.parametrize("path", sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "tools").glob("*.py")]),
                         ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = [(node.module, alias.name) for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "colide"
               for alias in node.names]
    assert imports
    assert [f"{m}.{name}" for m, name in imports if not hasattr(importlib.import_module(m), name)] == []


def test_import_loads_only_the_stdlib_and_numpy():
    # every run of the package pays its import time, so `import colide` loads no third-party package
    # beside numpy and neither the harness (bench) nor the CLI; the modules it loads from files are
    # listed, which leaves out the in-memory runtime modules of numpy's compiled (Cython) parts
    code = ("import sys; before = set(sys.modules); import colide; print(colide.__file__, "
            "*(m for m in set(sys.modules) - before if getattr(sys.modules[m], '__file__', None)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    path, *loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                                   check=True).stdout.split()
    assert Path(path).parent == ROOT / "src" / "colide"
    assert {m.partition(".")[0] for m in loaded} - set(sys.stdlib_module_names) == {"colide", "numpy"}
    assert not {"colide.bench", "colide.cli"} & set(loaded)


def test_fits_and_metrics_load_no_module_beyond_the_import():
    # a module that a first call loads is import time paid by every fit (np.unique loads numpy.ma)
    code = ("import sys; import numpy as np; import colide; from colide.solver import METHODS, fit_stack; "
            "before = set(sys.modules); X = np.random.default_rng(0).standard_normal((3, 40)); "
            "schedule = colide.StageSchedule(((1.0, 1.0, 5), (0.1, 0.9, 5))); "
            "res = fit_stack([colide.Dataset(X=X)] * 3, list(METHODS)[::-1], schedule); "
            "colide.fit_online(colide.Dataset(X=X), 10, schedule=schedule, epochs_per_stage=[1, 1]); "
            "colide.evaluate(res[2].W_thresholded, np.triu(np.ones((3, 3)), 1), res[2].scale, [1.0, 2.0, 3.0]); "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    assert subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.split() == []


@pytest.mark.slow
def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
