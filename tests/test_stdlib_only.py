"""soritica has no runtime dependency: every absolute import is stdlib.

An import loads only what the named modules import: the package itself
re-exports nothing, so its module paths are the import API.  The CLI
loads the number core, and each subcommand adds only the modules it runs.
"""

import ast
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import soritica

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


def loaded_submodules(statement):
    """The ``soritica.*`` modules a fresh interpreter holds after ``statement``."""
    src = str(Path(soritica.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    script = f"""import sys
{statement}
print(*(name for name in sys.modules if name.startswith("soritica.")))
"""
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return set(done.stdout.split())


def test_package_import_loads_no_submodule():
    assert loaded_submodules("import soritica") == set()


def test_logic_modules_load_no_number_core():
    loaded = loaded_submodules("import soritica.formulas, soritica.semantics")
    assert {"soritica.formulas", "soritica.semantics"} <= loaded
    assert not loaded & {"soritica.series", "soritica.neutrix"}


#: What importing ``soritica.cli`` loads: the number core ``numbers eval`` runs.
CLI_MODULES = {
    f"soritica.{name}"
    for name in ("cli", "neutrix", "series", "lexer", "_trusted", "bounds")
}

#: Each subcommand's arguments, and what it loads beyond ``CLI_MODULES``.
SUBCOMMANDS = {
    "numbers eval": (["numbers", "eval", "--oracle", "1 + osl"], set()),
    "tables": (
        ["tables"],
        {"soritica.formulas", "soritica.semantics", "soritica.truth"},
    ),
    "laws": (["laws", "--n", "1"], {"soritica.laws", "soritica.sampling"}),
    "sorites run": (
        [
            "sorites",
            "run",
            str(resources.files("soritica") / "fixtures" / "nonstandard_heap.json"),
        ],
        {"soritica.sorites", "soritica.truth"},
    ),
}


def test_cli_import_loads_only_the_number_core():
    assert loaded_submodules("import soritica.cli") == CLI_MODULES


def test_sorites_loads_no_logic_or_calculus_module():
    loaded = loaded_submodules("import soritica.sorites")
    assert "soritica.sorites" in loaded
    assert not loaded & {
        f"soritica.{name}"
        for name in ("formulas", "semantics", "neutrix", "laws", "sampling")
    }


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_each_subcommand_loads_only_its_modules(command):
    argv, modules = SUBCOMMANDS[command]
    statement = f"""import contextlib, io
from soritica import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0"""
    assert loaded_submodules(statement) == CLI_MODULES | modules
