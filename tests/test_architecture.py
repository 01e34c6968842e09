"""Invariants of the package's structure, read from its source with `ast`.

- Only `cli.py` touches files: every other module maps bytes, arrays and
  values, so the library can be driven from memory and tested without a
  file system.
- The package imports only the standard library and NumPy.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chromacodec"
MODULES = sorted(PACKAGE.glob("*.py"))

# calls that open, read or write a file, by name or attribute
FILE_CALLS = {
    "open", "fdopen", "read_bytes", "read_text", "write_bytes", "write_text",
    "fromfile", "tofile", "memmap", "load", "loadtxt", "genfromtxt",
    "save", "savez", "savez_compressed", "savetxt",
}
# standard-library modules whose use is file-system access
FILE_MODULES = {"pathlib", "shutil", "tempfile", "glob", "fileinput", "mmap"}


def tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def file_calls(path):
    """Names of the file-touching calls in a module, one per call site."""
    found = []
    for node in ast.walk(tree(path)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                found.append(f"{name} (line {node.lineno})")
    return found


def imported_modules(path):
    """Top-level names of the absolute imports of a module, with their lines."""
    found = []
    for node in ast.walk(tree(path)):
        if isinstance(node, ast.Import):
            found += [(alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module.split(".")[0], node.lineno))
    return found


def test_the_package_is_where_the_guard_looks():
    assert {p.name for p in MODULES} >= {"cli.py", "tensor.py", "network.py", "pipeline.py"}


@pytest.mark.parametrize("module", [p.name for p in MODULES if p.name != "cli.py"])
def test_only_the_cli_touches_files(module):
    path = PACKAGE / module
    assert file_calls(path) == []
    modules = {name for name, _ in imported_modules(path)}
    assert modules.isdisjoint(FILE_MODULES), sorted(modules & FILE_MODULES)


def test_the_file_guard_sees_the_cli_reading_and_writing():
    calls = {c.split()[0] for c in file_calls(PACKAGE / "cli.py")}
    assert {"read_bytes", "write_bytes", "write_text"} <= calls


@pytest.mark.parametrize("module", [p.name for p in MODULES])
def test_imports_are_the_standard_library_and_numpy(module):
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = [(name, line) for name, line in imported_modules(PACKAGE / module) if name not in allowed]
    assert outside == []


def test_the_guards_see_numpy_and_catch_a_module_that_breaks_both(tmp_path):
    assert "numpy" in {name for name, _ in imported_modules(PACKAGE / "codec.py")}
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import scipy.signal\nfrom torch import nn\nfrom . import tensor\n"
        "blob = open('w.cgwt', 'rb').read()\ntext = path.read_text()\n"
    )
    assert imported_modules(probe) == [("scipy", 1), ("torch", 2)]
    assert sorted(file_calls(probe)) == ["open (line 4)", "read_text (line 5)"]
