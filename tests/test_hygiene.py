"""Source hygiene checks that need no linter: every import is used, the
third-party modules imported are the declared dependencies, only
``cocycle`` touches the power-of-two rescale, and only ``norms`` runs the
certify ladder."""

import ast
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "jsrkit"


def unused_imports(tree: ast.Module) -> list:
    """Names a module imports but neither references nor lists in __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


# __init__.py is exempt: re-exporting what it imports is its job
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_check_sees_names_used_and_exported():
    tree = ast.parse(
        "import numpy as np\nfrom os import path, sep\nfrom . import mod\n"
        "__all__ = ['mod']\nx = np.zeros(path)\n"
    )
    assert unused_imports(tree) == ["sep (line 2)"]


def third_party_imports(tree: ast.Module) -> set:
    """Top-level modules of absolute imports anywhere, stdlib left out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in declared}
    imported = set()
    for path in SRC.glob("*.py"):
        imported |= third_party_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert imported == declared


def test_third_party_import_check_sees_function_level_imports():
    tree = ast.parse(
        "import os.path\nimport numpy as np\nfrom . import mod\n"
        "def f():\n    from scipy.optimize import linprog\n"
    )
    assert third_party_imports(tree) == {"numpy", "scipy"}


@pytest.mark.parametrize("module", ["scipy", "networkx"])
def test_import_leaves_module_unloaded(module):
    # jsrkit imports neither: it needs numpy only, and networkx only serves
    # tests as a reference
    probe = f"import sys, jsrkit; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_rescale_arithmetic_lives_in_cocycle():
    # one rescale rule: no other module takes a binary exponent of a product
    users = {
        path.name
        for path in SRC.glob("*.py")
        if re.search(r"\b(frexp|ldexp|log2)\b", path.read_text(encoding="utf-8"))
    }
    assert users == {"cocycle.py"}


def test_certify_ladder_lives_in_norms():
    # one ladder, norms.certified_norm: other modules ask it for a norm
    # rather than trying the candidates or a Barabanov norm themselves
    def callers(name):
        pattern = re.compile(rf"\b{name}\(")
        return {
            path.name
            for path in SRC.glob("*.py")
            if pattern.search(path.read_text(encoding="utf-8"))
        }

    assert callers("candidate_norms") == {"norms.py"}
    assert callers("barabanov_iterate") == {"norms.py", "cli.py"}
