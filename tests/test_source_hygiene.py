"""Every import under ``src/`` is read, and every package it imports is declared.

An ``ast`` scan of each module: a name an ``import`` binds must be read
somewhere in the module, by an expression or inside a string annotation
(``"Foo"``, ``Optional["Foo"]``), or be listed in ``__all__``; binding
the name again does not count as a read.
``__init__.py`` files are exempt, since their imports are the package's
re-exports, and so is ``from __future__ import ...``.

The top-level packages imported under ``src/`` that are neither the
standard library nor ``repro`` must be exactly ``pyproject.toml``'s
``dependencies``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def names_read(tree: ast.AST) -> Set[str]:
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return read


def unused_imports(source: str) -> List[str]:
    """``line: name`` for every imported name the module never reads."""
    tree = ast.parse(source)
    read = names_read(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        unused += [f"{node.lineno}: {name}" for name in bound if name not in read]
    return unused


def test_every_import_under_src_is_read():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        found += [f"{path.relative_to(SRC)}:{entry}"
                  for entry in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_scan_sees_string_annotations_and_dunder_all():
    source = (
        "from typing import Dict, List, Optional\n"
        "import os.path\n"
        "from a import B, C, D as E, F\n"
        "__all__ = ['C']\n"
        "F = 1\n"
        "def f(x: 'Optional[B]') -> List[int]:\n"
        "    return []\n"
    )
    assert unused_imports(source) == ["1: Dict", "2: os", "3: E", "3: F"]


def imported_packages(source: str) -> Set[str]:
    """The top-level package of every absolute import in a module."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def declared_dependencies() -> Set[str]:
    """``pyproject.toml``'s ``dependencies``, as import names.

    Read with a pattern, since ``tomllib`` is new in Python 3.11.
    """
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    array = re.search(r"^dependencies\s*=\s*(\[[^\]]*\])", text, re.MULTILINE).group(1)
    return {re.split(r"[\s<>=!~;\[]", requirement)[0].lower().replace("-", "_")
            for requirement in ast.literal_eval(array)}


@pytest.mark.skipif(sys.version_info < (3, 10), reason="needs sys.stdlib_module_names")
def test_third_party_imports_are_the_declared_dependencies():
    imported = set()
    for path in SRC.rglob("*.py"):
        imported |= imported_packages(path.read_text(encoding="utf-8"))
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    assert sorted(third_party) == sorted(declared_dependencies())
