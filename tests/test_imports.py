import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fqg"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__main__")

# the package's __init__ imports every module, so it is replaced by an empty
# package: each module is then the first one loaded, and any import cycle
# through it shows as an ImportError
_IMPORT_FIRST = """
import importlib, sys, types
package = types.ModuleType("fqg")
package.__path__ = [sys.argv[1]]
sys.modules["fqg"] = package
importlib.import_module("fqg." + sys.argv[2])
"""


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    done = subprocess.run([sys.executable, "-W", "error", "-c", _IMPORT_FIRST, str(SRC), module],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_function_level_imports_only_break_a_cycle_or_serve_one_command():
    """Imports sit at the top of a module, except in the command functions of
    cli.py and in BlockAlgebra.__init__ (groups imports algebra)."""
    inner = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.Import, ast.ImportFrom)) and path.name != "cli.py":
                        inner.add((path.name, node.name, sub.module))
    assert inner == {("algebra.py", "__init__", "groups")}
