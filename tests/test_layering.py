"""The package's import layers, read from the source with `ast`.

`jets` (jet algebra and the one curvature kernel) and `relation` sit on
`errors` alone; `grid` (the patch, its artifacts and the CSV writer) sits on
`jets`; everything that acts on a patch sits above it, and `cli` on top.
`wlab/__init__` imports no submodule, so importing one module loads only
the modules below it.  No module imports another module's private name.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wlab"

# every module of the package and the package modules it imports, function
# bodies included: a new edge fails the test until it is written here
IMPORT_TABLE = {
    "__init__": set(),
    "errors": set(),
    "jets": {"errors"},
    "relation": {"errors"},
    "grid": {"jets"},
    "diagram": {"errors", "jets"},
    "geometry": {"errors", "grid", "relation"},
    "linop": {"errors", "grid", "jets", "relation"},
    "solver": {"errors", "grid", "jets", "relation"},
    "cli": {"diagram", "errors", "geometry", "grid", "linop", "relation", "solver"},
}


def _imports(path: Path):
    """(package modules imported, (module, name) of each private name
    imported from one) anywhere in the file, function bodies included."""
    modules, private = set(), []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules |= {a.name.split(".")[1] for a in node.names if a.name.startswith("wlab.")}
        elif isinstance(node, ast.ImportFrom):
            inside = node.level > 0 or (node.module or "").split(".")[0] == "wlab"
            if not inside:
                continue
            parts = (node.module or "").split(".")
            module = parts[-1] if node.level > 0 else ".".join(parts[1:])
            if module:
                modules.add(module)
                private += [(module, a.name) for a in node.names if a.name.startswith("_")]
            else:
                modules |= {a.name for a in node.names}
    return modules, private


def test_import_layers():
    found = {path.stem: _imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: modules for stem, (modules, _) in found.items()} == IMPORT_TABLE
    assert [(stem, imp) for stem, (_, private) in found.items() for imp in private] == []


# imports the module named by argv[1] and prints the wlab modules then loaded
MODULE_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "wlab")))
"""


def test_a_module_loads_only_the_layers_below_it():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    expected = {
        "wlab.grid": ["wlab", "wlab.errors", "wlab.grid", "wlab.jets"],
        "wlab.relation": ["wlab", "wlab.errors", "wlab.relation"],
        "wlab.diagram": ["wlab", "wlab.diagram", "wlab.errors", "wlab.jets"],
    }
    for module, loaded in expected.items():
        done = subprocess.run([sys.executable, "-c", MODULE_PROBE, module], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        assert json.loads(done.stdout) == loaded, module
