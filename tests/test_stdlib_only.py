"""The runtime imports nothing outside the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "bootperc").glob("*.py"))


def absolute_imports(path: Path) -> set[str]:
    """Every module a file imports by absolute name."""
    modules: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return modules


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "core.py", "io.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = {m for m in absolute_imports(path) if m.split(".")[0] not in sys.stdlib_module_names}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_import_does_not_load_the_process_pool():
    # brute imports it only to run more than one worker
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = "import sys, bootperc.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
