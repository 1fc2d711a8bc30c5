"""The runtime imports only the standard library (Python >= 3.10)."""

import ast
import subprocess
import sys
from pathlib import Path

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
    # every run, even a serial one.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import unicache.cli; "
            "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))")
    heavy = ("multiprocessing", "concurrent.futures", "subprocess", "pickle")
    loaded = subprocess.run([sys.executable, "-I", "-c", code, str(PACKAGE.parent), *heavy],
                            capture_output=True, text=True, check=True).stdout.split()
    assert loaded == []
