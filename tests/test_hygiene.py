"""Module boundaries: no module of the package reads a private name (one
with a leading underscore, dunder names aside) of another package module,
by attribute or by import; a rule written once (the small solves and the
central difference among them) stays in one module; and importing the CLI
pulls in no optional heavy dependency."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import magreduce
from magreduce import cli, maglag, numerics

PACKAGE = Path(magreduce.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def package_module(node: ast.ImportFrom) -> str | None:
    """The package module a `from ... import` reads from, "" for the
    package itself, None for anything else."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "magreduce":
        return ".".join(node.module.split(".")[1:])
    return None


def private_reads(source: str, own: str) -> list[str]:
    """`module.name` for each read of another package module's private name
    in `source`, the text of module `own`."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (base := package_module(node)) is not None:
            for alias in node.names:
                if base == "" and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
                elif base in MODULES and base != own and private(alias.name):
                    found.append(f"{base}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "magreduce" and len(parts) == 2 and alias.asname:
                    aliases[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not private(node.attr):
            continue
        value = node.value
        if isinstance(value, ast.Name):
            module = aliases.get(value.id)
        elif (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
              and value.value.id == "magreduce"):
            module = value.attr
        else:
            module = None
        if module in MODULES and module != own:
            found.append(f"{module}.{node.attr}")
    return found


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_reads_another_modules_private_names(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert private_reads(source, module) == []


@pytest.mark.parametrize("source, reads", [
    ("from . import routh\nrouth._chi(1)", ["routh._chi"]),
    ("from . import routh as r\nr._energies", ["routh._energies"]),
    ("from .routh import _chi, solve_chi", ["routh._chi"]),
    ("from magreduce.routh import _chi", ["routh._chi"]),
    ("from magreduce import routh\nrouth._chi", ["routh._chi"]),
    ("import magreduce.routh as r\nr._chi", ["routh._chi"]),
    ("import magreduce.routh\nmagreduce.routh._chi", ["routh._chi"]),
    ("def f():\n    from . import routh\n    return routh._chi", ["routh._chi"]),
    ("from . import numerics\nnumerics._vary", []),  # its own private name
    ("from . import __version__, routh\nrouth.__name__, routh.solve_chi", []),
])
def test_checker_sees_each_form_of_read(source, reads):
    assert private_reads(source, "numerics") == reads


def test_one_module_holds_the_differencing_non_finite_rule():
    text = "non-finite evaluation while differencing"
    holders = [m for m in sorted(MODULES) if text in (PACKAGE / f"{m}.py").read_text()]
    assert holders == ["numerics"]


STEP_NAME = re.compile(r"_?H_[A-Z_]+")


def step_names(source: str) -> list[str]:
    """Module-level names in `source` bound like a finite-difference step."""
    names = []
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                   else [])
        names += [t.id for target in targets for t in ast.walk(target)
                  if isinstance(t, ast.Name) and STEP_NAME.fullmatch(t.id)]
    return names


def test_one_module_holds_the_differencing_steps():
    holders = [m for m in sorted(MODULES) if step_names((PACKAGE / f"{m}.py").read_text())]
    assert holders == ["numerics"]


@pytest.mark.parametrize("source, names", [
    ("_H_RATE = 1e-6\nH_SECOND: float = 1e-4", ["_H_RATE", "H_SECOND"]),
    ("_H_A, (H_B, x) = 1, (2, 3)\nh_c = 1\nHX = 2", ["_H_A", "H_B"]),
    ("def f():\n    H_LOCAL = 1e-3", []),
])
def test_step_checker_sees_module_level_bindings(source, names):
    assert step_names(source) == names


def defines_class(source: str, name: str) -> bool:
    return any(isinstance(node, ast.ClassDef) and node.name == name
               for node in ast.walk(ast.parse(source)))


def calls(source: str, name: str) -> bool:
    """True when `source` calls `name`, bare or as an attribute; a dotted
    `name` ("linalg.solve") matches the end of the called attribute chain."""
    return any(isinstance(node, ast.Call)
               and f".{ast.unparse(node.func)}".endswith(f".{name}")
               for node in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("source, name, found", [
    ("newton_solve(f, x, j)", "newton_solve", True),
    ("numerics.newton_solve(f, x, j)", "newton_solve", True),
    ("my_newton_solve(f)", "newton_solve", False),
    ("np.linalg.solve(a, b)", "linalg.solve", True),
    ("numpy.linalg.inv(a)", "linalg.inv", True),
    ("numerics.solve(a, b)", "linalg.solve", False),
    ("np.linalg.solve", "linalg.solve", False),
])
def test_call_checker_sees_bare_and_dotted_calls(source, name, found):
    assert calls(source, name) is found


def test_one_module_holds_the_regularity_error_and_newton():
    sources = {m: (PACKAGE / f"{m}.py").read_text() for m in sorted(MODULES)}
    assert [m for m, s in sources.items() if defines_class(s, "RegularityError")] == ["numerics"]
    assert [m for m, s in sources.items() if calls(s, "newton_solve")] == ["numerics"]
    assert maglag.RegularityError is cli.RegularityError is numerics.RegularityError


def callers(source: str, name: str) -> list[str]:
    """The innermost function around each call of `name` in `source`
    ("<module>" outside every function), bare or as an attribute."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Call) and f".{ast.unparse(node.func)}".endswith(f".{name}"):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("source, found", [
    ("def f(a):\n    return _central(a)", ["f"]),
    ("def f():\n    def g():\n        numerics._central(1)\n    _central(2)", ["g", "f"]),
    ("x = _central(1)\ny = my_central(2)\nz = _central", ["<module>"]),
])
def test_caller_checker_names_the_innermost_function(source, found):
    assert callers(source, "_central") == found


def test_one_routine_holds_the_central_difference():
    # rule 2 of numerics.supply is written once: only fd_jacobian takes the
    # central difference, and no module but numerics defines an fd_* routine
    sources = {m: (PACKAGE / f"{m}.py").read_text() for m in sorted(MODULES)}
    assert {m: sorted(set(callers(s, "_central"))) for m, s in sources.items()
            if callers(s, "_central")} == {"numerics": ["fd_jacobian"]}
    assert sorted({m for m, s in sources.items() for node in ast.walk(ast.parse(s))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and node.name.startswith("fd_")}) == ["numerics"]


@pytest.mark.parametrize("name", ["linalg.solve", "linalg.inv"])
def test_one_module_holds_the_small_solves(name):
    # numerics.solve / inverse: a 1x1 system by division, larger by LAPACK
    holders = [m for m in sorted(MODULES) if calls((PACKAGE / f"{m}.py").read_text(), name)]
    assert holders == ["numerics"]


def test_importing_the_cli_imports_no_scipy():
    # only the generic semi-direct exponential needs scipy, and it imports it
    # when called; a fresh interpreter shows what the import alone loads
    probe = ("import sys, magreduce.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
