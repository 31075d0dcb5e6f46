"""Source hygiene: no module imports a name it never uses, no function or
class of the package goes unnamed outside its definition, every name the
benchmark's tracer wraps exists and is reached by the workloads' ops, only
coeff and sampling import fractions, and every slot of a normal form or a
supermatrix is bound on every path that makes one.

Scans ``src/superpoints/*.py`` (except ``__init__.py``, whose imports are
the package's exports) and ``tests/*.py`` with ``ast``: every name an
import statement binds must be read somewhere in the same file.
"""

import ast
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from superpoints import (GF3, GrassmannAlgebra, NormalForm, SuperMatrix, gl_pair, gp_inv, gp_mul,
                         normal_form, smat)
from superpoints.verify import random_word

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


def dead_definitions(root):
    """(file, qualified name) for each function or class defined in
    root/src/superpoints/*.py, dunders excepted, whose name occurs as a word
    in no .py file under root/src, root/tests or root/perfbench other than
    at its definitions: a call, a reference, an attribute or a mention."""
    words = Counter(word for top in ("src", "tests", "perfbench")
                    for path in (root / top).rglob("*.py")
                    for word in re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defs = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    defs.append((path.name, prefix + name, name))
                visit(child, path, prefix + name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted((root / "src" / "superpoints").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    defined = Counter(name for _, _, name in defs)
    return [(file, qual) for file, qual, name in defs if words[name] <= defined[name]]


def test_dead_definition_scan_finds_unnamed_definitions(tmp_path):
    pkg = tmp_path / "src" / "superpoints"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "perfbench").mkdir()
    (pkg / "m.py").write_text("class K:\n    def __init__(self):\n        pass\n\n"
                              "    def meth(self):\n        def inner():\n            pass\n\n"
                              "def used():\n    pass\n\nused()\n")
    (tmp_path / "tests" / "t.py").write_text("K().meth\n")
    assert dead_definitions(tmp_path) == [("m.py", "K.meth.inner")]


def test_no_dead_definitions():
    """Every function and class of the package is named somewhere besides
    its definition: in the package, its tests or the benchmark."""
    assert dead_definitions(ROOT) == []


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


def _from_source(name):
    """The namespace of perfbench/<name>.py, run from source: no bytecode
    is written."""
    path = ROOT / "perfbench" / f"{name}.py"
    ns = {"__name__": f"_perfbench_{name}", "__file__": str(path)}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), ns)
    return ns


TRACED_SPANS = {
    "triangle-q": ["shcp.ad_action_matrix", "liesuper.straighten_action",
                   "liesuper.wedge_ad_action", "liesuper.word_action", "liesuper.kernel",
                   "gp.normal_form", "gp.reorder_symbolic", "gp.strip"],
    "group-f3": ["shcp.ad_action_matrix", "liesuper.straighten_action",
                 "liesuper.wedge_ad_action", "liesuper.word_action", "gp.induced"],
}


@pytest.mark.parametrize("name", sorted(TRACED_SPANS))
def test_traced_spans_are_reached(name):
    """A few seeded ops of the workload, run under perfbench's Tracer, call
    each span they reached when the spans were named: a route that stops
    going through a traced function would otherwise read as a layer whose
    work went away.  Each op runs as the benchmark runs it, and passes."""
    workloads, tracer = _from_source("workloads"), _from_source("tracer")
    workload = workloads["WORKLOADS"][name]
    state = workload.build()
    rng = random.Random(2026)
    if name == "triangle-q":
        items = [workloads["random_word"](pair, state["algebra"], rng, 6)
                 for pair in state["pairs"] for _ in range(2)]
    else:
        pair, algebra = state["pair"], state["algebra"]
        nfs = [normal_form(workloads["random_word"](pair, algebra, rng, 4)) for _ in range(3)]
        items = [tuple(nfs), tuple(reversed(nfs))]
    with tracer["Tracer"]() as spans:
        for k, item in enumerate(items):
            spans.run_op(k, workload.op, state, item, {})
    assert spans.calls["op"] == len(items)
    assert [s for s in TRACED_SPANS[name] if not spans.calls[s]] == []


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


def test_every_slot_is_bound_on_every_construction_path():
    """Each __slots__ name of NormalForm and SuperMatrix holds a value on
    every path that makes one: NormalForm(...), NormalForm.identity, the
    law's products and inverses, SuperMatrix(...) and smat.wrap_grid.  A
    slot filled on first read (_ad, _g_inv) that a path forgot
    would otherwise raise AttributeError only at that read."""
    pair = gl_pair(2, 1, GF3)
    A = GrassmannAlgebra(GF3, 3)
    rng = random.Random(7)
    a, b = (normal_form(random_word(pair, A, rng, 4)) for _ in range(2))
    made = {
        SuperMatrix: [SuperMatrix(pair.shape, A, a.g_plus.rows),
                      smat.wrap_grid(pair.shape, A, smat.identity_grid(GF3, 3))],
        NormalForm: [NormalForm(pair, A, a.etas, a.g_plus), NormalForm.identity(pair, A),
                     gp_mul(a, b), gp_inv(a)],
    }
    for cls, objs in made.items():
        for obj in objs:
            assert [name for name in cls.__slots__ if not hasattr(obj, name)] == [], cls
