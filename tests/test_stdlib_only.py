"""The runtime imports only the standard library (Python >= 3.10)."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import unicache

PACKAGE = Path(unicache.__file__).resolve().parent


def _absolute_imports(tree):
    """Top-level module of every absolute import in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {(path.name, module)
               for path in sources
               for module in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
               if module not in sys.stdlib_module_names}
    assert not outside, sorted(outside)


def test_cli_import_loads_no_process_pool_machinery():
    # The harness forks its helpers with `os` and returns results with
    # `marshal`; a process pool would add its import time and memory to
    # every run, even a serial one. `decimal` is imported by the marginal
    # evaluator's wide fallback alone, which most runs never reach. `-B`, as
    # `-I` ignores PYTHONDONTWRITEBYTECODE: no bytecode cache is left in `src`.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import unicache.cli; "
            "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))")
    heavy = ("multiprocessing", "concurrent.futures", "subprocess", "pickle", "decimal")
    loaded = subprocess.run([sys.executable, "-I", "-B", "-c", code, str(PACKAGE.parent), *heavy],
                            capture_output=True, text=True, check=True).stdout.split()
    assert loaded == []


@pytest.mark.parametrize("module", ["unicache", "unicache.cli"])
def test_import_loads_no_record_machinery(module):
    # The records are plain slotted classes: `dataclasses` would bring
    # `inspect`, `ast` and `dis` and exec generated code at every start-up,
    # a large share of a short run's wall time. `typing` is left out: the
    # interpreter's `site` already loads it. `-I` ignores
    # PYTHONDONTWRITEBYTECODE, so `-B` keeps the child from leaving a
    # bytecode cache under `src` that later timings would read.
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
            "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))")
    heavy = ("dataclasses", "inspect", "ast", "dis")
    loaded = subprocess.run([sys.executable, "-I", "-B", "-c", code, str(PACKAGE.parent), *heavy],
                            capture_output=True, text=True, check=True).stdout.split()
    assert loaded == []
