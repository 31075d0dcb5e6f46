"""Source hygiene: no module imports a name it never uses, every name the
benchmark's tracer wraps exists, and only coeff and sampling import
fractions.

Scans ``src/superpoints/*.py`` (except ``__init__.py``, whose imports are
the package's exports) and ``tests/*.py`` with ``ast``: every name an
import statement binds must be read somewhere in the same file.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "superpoints").glob("*.py")
               if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) for each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_names():
    source = ("import os.path\nimport re\nfrom a import b as c, d\n"
              "from __future__ import annotations\nc(re.X)\n")
    assert unused_imports(source) == [(1, "os"), (3, "d")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_traced_layer_names_exist():
    """Every (owner, attribute) that perfbench/tracer.py wraps is still
    defined where it looks: a rename or move under src/ would otherwise
    break the benchmark's --trace 1 run only."""
    path = ROOT / "perfbench" / "tracer.py"
    tracer = {"__name__": "_traced_layers"}  # run from source: no bytecode written
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer)
    for name, owner, attr, _ in tracer["LAYERS"]:
        if isinstance(owner, type):
            assert attr in vars(owner), (name, owner.__name__, attr)
        else:
            assert hasattr(owner, attr), (name, owner.__name__, attr)


def importers_of(module):
    """The names of the src/superpoints modules that import module."""
    found = set()
    for path in (ROOT / "src" / "superpoints").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name == module or name.startswith(module + ".") for name in names if name):
                found.add(path.name)
    return found


def test_fractions_imported_only_by_coeff_and_sampling():
    """Rational arithmetic runs in coeff.RationalField alone: besides coeff,
    only the sampler, which draws Fraction literals, imports fractions."""
    assert importers_of("fractions") == {"coeff.py", "sampling.py"}
