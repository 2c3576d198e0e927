"""The package's import layers, read from the source with `ast`.

`grid` (the patch, its artifacts and the CSV writer) sits above `jets` and
below everything that acts on a patch, so it imports none of `solver`,
`relation`, `geometry` or `cli`.  `geometry` and `linop` need the patch,
not the Newton solver.  No module imports another module's private name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wlab"


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
    assert {"grid", "solver", "geometry", "linop"} <= found.keys()
    assert found["grid"][0] & {"solver", "relation", "geometry", "cli"} == set()
    assert "jets" in found["grid"][0]
    for name in ("geometry", "linop"):
        assert "solver" not in found[name][0], name
    assert [(stem, imp) for stem, (_, private) in found.items() for imp in private] == []
