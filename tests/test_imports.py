"""Every import in the package modules and the tests is used, every function
and module-level UPPER_CASE constant the package defines is named somewhere
else, no package module reads another's private name, the package runs without
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


def module_constants(source: str):
    """Each module-level UPPER_CASE name that ``source`` assigns, once per assignment."""
    return [target.id for node in ast.parse(source).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)]


def dead_helpers(package_sources, all_sources):
    """Functions and methods (dunders excepted) defined in ``package_sources``
    whose name appears, as a whole word, nowhere in ``all_sources`` but in a def,
    and module-level UPPER_CASE constants named nowhere but in their assignments."""
    defined = {node.name for source in package_sources for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    assigned = Counter(name for source in package_sources for name in module_constants(source))
    text = "\n".join(all_sources)
    words = Counter(re.findall(r"\w+", text))
    defs = Counter(re.findall(r"\bdef\s+(\w+)", text))
    return sorted([name for name in defined if words[name] == defs[name]]
                  + [name for name, count in assigned.items() if words[name] == count])


def test_detects_a_dead_helper():
    package = "class A:\n    def __init__(self):\n        pass\n    def kept(self):\n        pass\n" \
              "def used():\n    pass\ndef unused():\n    pass\ndef unused_too():\n    pass\n"
    caller = "A().kept()\nused()  # unused_tool is another name\n"
    assert dead_helpers([package], [package, caller]) == ["unused", "unused_too"]


def test_detects_a_dead_constant():
    package = "KEPT = 1\nSHADOWED = 2\nSHADOWED = 3\nDEAD: float = 4.0\nlower = 5\n" \
              "def f():\n    LOCAL = KEPT\n    return LOCAL\n"
    caller = "print(f(), SHADOWED, lower)  # DEAD_END is another name\n"
    assert dead_helpers([package], [package, caller]) == ["DEAD"]
    assert dead_helpers([package], [package, "f()\n"]) == ["DEAD", "SHADOWED"]


def test_no_dead_helpers():
    package = [p.read_text() for p in sorted((ROOT / "src" / "diracvortex").glob("*.py"))]
    others = [p.read_text() for folder in ("tests", "perfbench")
              for p in sorted((ROOT / folder).glob("*.py"))]
    assert dead_helpers(package, package + others) == []


PACKAGE_MODULES = frozenset(p.stem for p in (ROOT / "src" / "diracvortex").glob("*.py"))


def private_reads(source: str):
    """``alias._name`` for each alias bound to one of the ``PACKAGE_MODULES``, and each
    ``_name`` imported from one of them, in source order: a private name read outside
    its module.  Dunder names are public."""
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    tree, aliases, found = ast.parse(source), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "diracvortex"):
            package = node.module in (None, "diracvortex")
            for alias in node.names:
                if package and alias.name in PACKAGE_MODULES:
                    aliases.add(alias.asname or alias.name)
                elif private(alias.name):
                    found.append((node.lineno, node.col_offset, f"from {'.' * node.level}"
                                  f"{node.module or ''} import {alias.name}"))
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names if alias.asname
                           and alias.name.removeprefix("diracvortex.") in PACKAGE_MODULES)
    found += [(node.lineno, node.col_offset, ast.get_source_segment(source, node))
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and private(node.attr)]
    return [text for *_, text in sorted(found)]


def test_detects_a_private_read():
    snippet = "from . import clifford, polyspinor as ps\nfrom . import __version__\n" \
              "from .states import _SPIN_ORBIT_MIXING, energy\n" \
              "from diracvortex.laguerre import _bisected_roots\n" \
              "import diracvortex.observables as obs\n" \
              "a = ps._ladder_polyspinor(qn, bp)\nb = ps.dirac_residual(qn, bp)\n" \
              "c = clifford.GAMMA0\nd = obs._sampled\ne = ps.__name__\nf = np._private\n"
    assert private_reads(snippet) == ["from .states import _SPIN_ORBIT_MIXING",
                                      "from diracvortex.laguerre import _bisected_roots",
                                      "ps._ladder_polyspinor", "obs._sampled"]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "diracvortex").glob("*.py")),
                         ids=lambda p: p.name)
def test_package_reads_no_private_name_of_another_module(path):
    # a module's own private names stay free: it reads them unqualified
    assert private_reads(path.read_text()) == []


def component_subscripts(source: str):
    """Source text of every subscript whose index is a tuple ending in an integer
    constant, such as ``psi[:, 2]`` or ``psi[..., -1]``: one spinor component picked by hand."""
    def is_int(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return (isinstance(node, ast.Constant) and isinstance(node.value, int)
                and not isinstance(node.value, bool))

    return [ast.get_source_segment(source, node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
            and node.slice.elts and is_int(node.slice.elts[-1])]


def test_detects_a_component_subscript():
    snippet = "a = psi[:, 2]\nb = psi[..., 0]\nc = psi[:, -1]\nd = psi[1]\ne = psi[:, k]\n" \
              "f = psi[0, :]\ng = psi[1:]\nh = psi[:, True]\n"
    assert component_subscripts(snippet) == ["psi[:, 2]", "psi[..., 0]", "psi[:, -1]"]


def test_observables_reads_no_spinor_component_by_hand():
    # the Dirac representation lives in ``clifford``; observables contract with its matrices
    source = (ROOT / "src" / "diracvortex" / "observables.py").read_text()
    assert component_subscripts(source) == []


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
