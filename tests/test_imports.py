"""Every import in the package modules and the tests is used, every function
the package defines is named somewhere else, the package runs without
scipy, which only the tests use, and only ``verify`` loads the verify suite,
the polyspinor engine and ``numpy.random``."""

import ast
from collections import Counter
import os
from pathlib import Path
import re
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "diracvortex").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import pi, tau\nsys.exit(pi)\n") == [
        (1, "os"), (3, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_helpers(package_sources, all_sources):
    """Functions and methods (dunders excepted) defined in ``package_sources``
    whose name appears, as a whole word, nowhere in ``all_sources`` but in a def."""
    defined = {node.name for source in package_sources for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    text = "\n".join(all_sources)
    words = Counter(re.findall(r"\w+", text))
    defs = Counter(re.findall(r"\bdef\s+(\w+)", text))
    return sorted(name for name in defined if words[name] == defs[name])


def test_detects_a_dead_helper():
    package = "class A:\n    def __init__(self):\n        pass\n    def kept(self):\n        pass\n" \
              "def used():\n    pass\ndef unused():\n    pass\ndef unused_too():\n    pass\n"
    caller = "A().kept()\nused()  # unused_tool is another name\n"
    assert dead_helpers([package], [package, caller]) == ["unused", "unused_too"]


def test_no_dead_helpers():
    package = [p.read_text() for p in sorted((ROOT / "src" / "diracvortex").glob("*.py"))]
    others = [p.read_text() for folder in ("tests", "perfbench")
              for p in sorted((ROOT / folder).glob("*.py"))]
    assert dead_helpers(package, package + others) == []


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports the package from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)


def test_package_imports_no_scipy():
    run = run_python("import sys; import diracvortex, diracvortex.cli, diracvortex.verify; "
                     "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == b"[]\n"


def test_startup_leaves_out_verify_and_numpy_random():
    # the package root re-exports nothing, so importing it loads no numpy,
    # and only ``verify`` loads the polyspinor engine
    run = run_python("import sys; import diracvortex; print('numpy' in sys.modules); "
                     "import diracvortex.cli; print([m for m in ('numpy.random', "
                     "'diracvortex.verify', 'diracvortex.polyspinor') if m in sys.modules])")
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == b"False\n[]\n"


TABLE_CHECK = ("import sys; from diracvortex import cli; "
               "sys.exit(cli.main(['table', '--l', '2', '--p', '3', '--check']))")


def test_cli_runs_with_scipy_blocked():
    # a None entry in sys.modules makes every import of scipy raise ImportError
    blocked = run_python("import sys; sys.modules['scipy'] = None; " + TABLE_CHECK)
    normal = run_python(TABLE_CHECK)
    assert blocked.returncode == 0, blocked.stderr.decode()
    assert normal.returncode == 0, normal.stderr.decode()
    assert blocked.stdout == normal.stdout != b""
