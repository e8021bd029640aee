"""Every imported name in the package and its tests is used somewhere in its module,
every module-level private name of the package is read somewhere, and every
public module-level function and class of the package is read by the library
or the benchmark, not by tests alone."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "bevnext").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """(line, name) of each name an import binds that no expression reads.

    ``from __future__`` imports are directives, not bindings. A name
    spelled only inside a quoted annotation counts as unused.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scan_flags_only_the_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import xml.dom\n"
        "from typing import Dict, List\n"
        "def f(x: Dict) -> List:\n"
        "    return np.asarray(x), xml.dom\n"
    )
    assert unused_imports(source) == [(2, "os")]


def unused_private_names(package: dict, readers: dict):
    """(path, line, name) of each module-level _private def, class or constant of ``package`` no source reads.

    ``package`` and ``readers`` map a path to its source; the private names
    are taken from ``package`` alone, the reads from both. A read is a
    loaded name, an attribute or a name imported by ``from ... import``,
    in any source, so a name that two modules define counts as read if
    either is. Dunder names are not private.
    """
    defined, read = [], set()
    for path, source in {**package, **readers}.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
        if path not in package:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(path, node.lineno, n) for n in names if n.startswith("_") and not n.endswith("__")]
    return [(path, line, name) for path, line, name in defined if name not in read]


def test_private_scan_flags_only_the_unread_name():
    package = {
        "pkg/a.py": (
            "__all__ = ['f']\n"
            "_LIMIT = 3\n"
            "_DEAD = 4\n"
            "def _helper(x):\n"
            "    return x + _LIMIT\n"
            "class _Spec:\n"
            "    pass\n"
            "def _tested():\n"
            "    pass\n"
            "def f(x):\n"
            "    _local = _helper(x)\n"
            "    return _local\n"
        ),
        "pkg/b.py": "from . import a\nSPEC = a._Spec\n",
    }
    tests = {"tests/t.py": "from pkg.a import _tested\n_unread_in_tests = _tested\n"}
    assert unused_private_names(package, tests) == [("pkg/a.py", 3, "_DEAD")]


def _sources(paths) -> dict:
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}


def test_every_private_name_of_the_package_is_read():
    tests = [p for p in SOURCES if p not in PACKAGE]
    assert unused_private_names(_sources(PACKAGE), _sources(tests)) == []


def unread_public_names(package: dict, readers: dict):
    """(path, line, name) of each public module-level def or class of ``package`` that no source reads.

    ``package`` and ``readers`` map a path to its source; the names are
    taken from ``package`` alone, the reads from both. A read is a loaded
    name, a name imported by ``from ... import``, or an attribute of an
    imported module (``scene.gen_scene``, ``bevnext.pipeline.modulate``).
    An attribute of anything else, such as ``text.partition("=")``, reads
    a method, not the package's name, and a docstring reads nothing.
    """
    defined, read = [], set()
    for path, source in {**package, **readers}.items():
        tree = ast.parse(source)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
                modules.update(a.asname or a.name for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    read.add(node.attr)
        if path in package:
            defined += [
                (path, node.lineno, node.name)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            ]
    return [(path, line, name) for path, line, name in defined if name not in read]


def test_public_scan_flags_only_the_names_read_nowhere():
    package = {
        "pkg/a.py": (
            "def used(x):\n"
            "    return x\n"
            "def by_module():\n"
            "    pass\n"
            "def partition():\n"
            '    """used() reads nothing here."""\n'
            "class Unread:\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
        ),
        "pkg/b.py": (
            "from pkg import a\n"
            "from pkg.a import used\n"
            "def run(text):\n"
            "    return a.by_module(), used(text.partition('=')), 'Unread'\n"
        ),
    }
    assert unread_public_names(package, {}) == [
        ("pkg/a.py", 5, "partition"),
        ("pkg/a.py", 7, "Unread"),
        ("pkg/b.py", 3, "run"),
    ]


def test_every_public_name_of_the_package_is_read_by_library_or_benchmark():
    """Tests are not readers here: a function or class only tests use belongs in tests/factories.py."""
    assert unread_public_names(_sources(PACKAGE), _sources(BENCH)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
