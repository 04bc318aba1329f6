"""The package runs on numpy and the standard library alone.

mpmath and scipy are test extras, and sympy is not declared at all; an
import of any of them, or of anything else, under src/walkrange would make
the installed package fail where they are missing.  Every name a module
imports is read there or exported, so no import outlives its last use.

numpy is imported inside functions only: those of the float series and the
crossing-profile DP, the enumeration oracle, Monte Carlo sampling,
eigenvalues and least squares; the return-series quadrature of `moments` is
pure Python.  So `import walkrange` and the exact routes never load it, and
a CLI process that runs only those does not pay its import.  Nor does
`import walkrange` load `dataclasses`: its records are namedtuples and
slotted classes.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import walkrange

PACKAGE = Path(walkrange.__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "walkrange"}


def _imported_roots(nodes):
    """(line, top-level module) of every absolute import among nodes."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_numpy_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    bad = [(path.name, line, root)
           for path in sources
           for line, root in _imported_roots(ast.walk(ast.parse(
               path.read_text())))
           if root not in ALLOWED]
    assert bad == []


def _run_on_import(tree):
    """Every node of tree that runs when its module is imported: all but
    the bodies of functions."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def test_numpy_is_imported_inside_functions_only():
    bad = [(path.name, line)
           for path in sorted(PACKAGE.glob("*.py"))
           for line, root in _imported_roots(_run_on_import(ast.parse(
               path.read_text())))
           if root == "numpy"]
    assert bad == []
    # the check sees an import at module level or in a class or guard body,
    # and passes one in a function
    tree = ast.parse("import numpy as np\nclass C:\n    import numpy\n"
                     "if True:\n    from numpy import fft\n"
                     "def f():\n    import numpy as np\n")
    assert sorted(_imported_roots(_run_on_import(tree))) == \
        [(1, "numpy"), (3, "numpy"), (5, "numpy")]


def test_import_walkrange_leaves_dataclasses_unloaded():
    # dataclasses pulls in inspect, ast and dis, about half the cost of
    # `import walkrange`; the records are namedtuples and slotted classes
    src = str(PACKAGE.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, walkrange; print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_every_public_name_resolves():
    # `from walkrange import *` raises on a name left in __all__ whose
    # import was dropped
    missing = [name for name in walkrange.__all__
               if not hasattr(walkrange, name)]
    assert missing == []


def _unused_imports(tree):
    """Names tree imports but never reads and does not list in __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_src_imports_are_used():
    bad = [(path.name, line, name)
           for path in sorted(PACKAGE.glob("*.py"))
           for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert bad == []
    # the check sees an import left behind
    assert _unused_imports(ast.parse(
        "from collections import Counter, defaultdict\nCounter()\n")) == \
        [(1, "defaultdict")]
