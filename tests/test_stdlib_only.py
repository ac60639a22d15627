"""soritica has no runtime dependency: every absolute import is stdlib."""

import ast
import sys
from importlib import resources

import pytest

SOURCES = sorted(
    path
    for path in resources.files("soritica").iterdir()
    if path.name.endswith(".py")
)


def absolute_imports(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_found():
    assert any(path.name == "lexer.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_stdlib(path):
    for name in absolute_imports(path.read_text(encoding="utf-8")):
        assert name.partition(".")[0] in sys.stdlib_module_names, name
