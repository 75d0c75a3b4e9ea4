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


def imports(tree: ast.AST) -> tuple[dict[str, str], dict[str, str]]:
    """What the imports in `tree` bind: local name -> package module, and
    local name -> "module.name" of a package module's name."""
    modules: dict[str, str] = {}
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (base := package_module(node)) is not None:
            for alias in node.names:
                if base == "" and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                elif base in MODULES:
                    names[alias.asname or alias.name] = f"{base}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "magreduce" and len(parts) == 2 and alias.asname:
                    modules[alias.asname] = parts[1]
    return modules, names


def attribute_module(node: ast.Attribute, modules: dict[str, str]) -> str | None:
    """The package module whose attribute `node` reads, if any."""
    value = node.value
    if isinstance(value, ast.Name):
        return modules.get(value.id)
    if (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
            and value.value.id == "magreduce"):
        return value.attr
    return None


def private_reads(source: str, own: str) -> list[str]:
    """`module.name` for each read of another package module's private name
    in `source`, the text of module `own`."""
    tree = ast.parse(source)
    modules, names = imports(tree)
    found = [qual for qual in names.values()
             if qual.split(".")[0] != own and private(qual.split(".")[1])]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            module = attribute_module(node, modules)
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


def test_one_function_holds_the_tangent_of_psi():
    # psi's qbar-velocity tangent, the one solve by A_ww in compat, is
    # written once and serves both the pulled-back jet and the
    # symplectomorphism check
    source = (PACKAGE / "compat.py").read_text()
    assert callers(source, "solve") == ["_qbar_velocity_tangent"]
    assert sorted(callers(source, "_qbar_velocity_tangent")) == ["dl_jet",
                                                                  "verify_symplectomorphism"]


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


ROOT = PACKAGE.parent.parent
README_NAME = re.compile(r"`(?:(?:magreduce\.)?(\w+)\.)?(\w+)`")


def bound_names(node: ast.stmt) -> list[str]:
    """The module-level names a top-level statement binds (imports aside)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return []


def package_reads(source: str, own: str | None) -> dict[str | None, set[str]]:
    """`module.name` of each package name that `source` reads, keyed by the
    top-level name whose statement reads it.  `own` is the package module
    that `source` is (its bare top-level names are its own), or None for a
    file outside the package, whose reads all fall under the key None, as
    do those of a package statement that binds no name."""
    tree = ast.parse(source)
    modules, names = imports(tree)
    top = {name for stmt in tree.body for name in bound_names(stmt)} if own else set()
    found: dict[str | None, set[str]] = {}
    for stmt in tree.body:
        read = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute):
                if (module := attribute_module(node, modules)) in MODULES:
                    read.add(f"{module}.{node.attr}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in names:
                    read.add(names[node.id])
                elif node.id in top:
                    read.add(f"{own}.{node.id}")
        for key in (bound_names(stmt) if own else []) or [None]:
            found.setdefault(key, set()).update(read)
    return found


def unused_public_names(package: dict[str, str], outside: list[str], readme: str) -> list[str]:
    """Public top-level functions and classes of the `package` sources
    (module -> text) that no file `outside` the package reaches, through
    package names that are themselves reached, and that `readme` does not
    name in backticks (`name` or `module.name`).  A package statement that
    binds no name is reached."""
    public = {f"{m}.{node.name}" for m, text in package.items() for node in ast.parse(text).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    named = set(README_NAME.findall(readme))  # (module or "", name)
    reads = {m: package_reads(text, m) for m, text in package.items()}
    todo = [qual for qual in public
            if {tuple(qual.split(".")), ("", qual.split(".")[1])} & named]
    todo += [qual for text in outside for qual in package_reads(text, None).get(None, ())]
    todo += [qual for m in reads for qual in reads[m].get(None, ())]
    reached = set()
    while todo:
        qual = todo.pop()
        module, _, name = qual.partition(".")
        reached.add(qual)
        todo += [q for q in reads.get(module, {}).get(name, ()) if q not in reached]
    return sorted(public - reached)


def test_every_public_name_has_a_caller_or_is_documented():
    # tests call the package too, but a name only they use (or only other
    # such names use) is test surface: it lives in tests/oracles.py
    package = {m: (PACKAGE / f"{m}.py").read_text() for m in sorted(MODULES)}
    outside = [path.read_text() for folder in ("bench", "tools", "demos")
               for path in sorted((ROOT / folder).glob("*.py"))]
    assert unused_public_names(package, outside, (ROOT / "README.md").read_text()) == []


@pytest.mark.parametrize("package, outside, readme, unused", [
    # a name only a test-only name uses is test-only too
    ({"routh": "def f(): pass\ndef oracle(): return f()"}, [], "", ["routh.f", "routh.oracle"]),
    ({"routh": "def f(): pass\ndef g(): return f()"},
     ["from magreduce import routh\nrouth.g()"], "", []),
    ({"routh": "def f(): pass\ndef g(): return f()"},
     ["import magreduce.routh as r\nr.g()"], "", []),
    ({"routh": "def f(): pass\ndef g(): return f()"},
     ["import magreduce.routh\nmagreduce.routh.f"], "", ["routh.g"]),
    ({"routh": "def f(): pass\nclass G:\n    def m(self): return f()"},
     ["from magreduce.routh import G\nG().m()"], "", []),
    # through a private helper, a module-level table, another module
    ({"routh": "def f(): pass\ndef _h(): return f()\ndef g(): return _h()"},
     ["from magreduce import routh\nrouth.g()"], "", []),
    ({"routh": "def f(): pass\nTABLE = {'f': f}\nclass _C:\n    t = TABLE"}, [], "", ["routh.f"]),
    ({"routh": "def f(): pass\nTABLE = {'f': f}\nprint(TABLE)"}, [], "", []),
    ({"routh": "def f(): pass", "numerics": "from .routh import f\ndef g(): return f()"},
     ["from magreduce.numerics import g\ng()"], "", []),
    ({"routh": "def f(): pass", "numerics": "from . import routh as r\ndef g(): r.f()"},
     ["from magreduce.numerics import g"], "", ["numerics.g", "routh.f"]),
    # named in the README, with or without its module, and what it uses
    ({"routh": "def f(): pass\ndef g(): return f()"}, [], "see `routh.g`", []),
    ({"routh": "def f(): pass\ndef g(): return f()"}, [], "see `g`", []),
    ({"routh": "def f(): pass\ndef g(): return f()"}, [], "see `numerics.g` and g",
     ["routh.f", "routh.g"]),
])
def test_unused_checker_follows_callers_from_outside_the_package(package, outside, readme,
                                                                  unused):
    assert unused_public_names(package, outside, readme) == unused
