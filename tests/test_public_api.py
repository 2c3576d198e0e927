"""Every public name in `src/wlab` has a caller.

The scan collects each public top-level function, class and module constant
of the package, and each public method and property of its classes.  A name
counts as used when code reachable from a root refers to it.  The roots are
module-level code of the package, every file under `bench/`,
`tests/test_acceptance.py` and the code spans of `README.md`.  Code inside a
definition is reachable only when that definition is, so a helper whose only
caller is itself caller-less is listed too.  Unit tests are no roots: a
function only they call is not part of the program.  No name is exempt.

References are matched by name.  A top-level name is referenced by a bare
or dotted name, or by a string that is exactly the name (as `setattr`
targets in `bench/` are).  A method or property is referenced only by an
attribute (`obj.name`, `Class.name`) or such a string, never by a bare name:
a local variable or a function that shares its name keeps no method alive.
Dunder methods run implicitly, so their bodies count as part of their class.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wlab"


def _referenced(nodes) -> set:
    """Names, attributes and identifier-like strings under the given nodes.
    An attribute or string `x` is recorded as `x` and as `.x`, the key of
    the methods and properties named x; a bare name only as `x`."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out |= {node.attr, "." + node.attr}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                out |= {node.value, "." + node.value}
    return out


def _assigned_names(stmt) -> list:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _scan_module(tree, label: str, public: dict, edges: dict, roots: set) -> None:
    """Add the module's public definitions to `public` (name -> labels; a
    method or property under `.name`), the names each definition refers to
    into `edges`, and references made outside any definition into `roots`."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for stmt in tree.body:
        if isinstance(stmt, defs):
            name = stmt.name
            if isinstance(stmt, ast.ClassDef):
                own = []
                for item in stmt.body:
                    method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    if method and not (item.name.startswith("__") and item.name.endswith("__")):
                        edges["." + item.name] |= _referenced([item])
                        if not item.name.startswith("_"):
                            public["." + item.name].append(f"{label}.{name}.{item.name}")
                    else:
                        own.append(item)
                edges[name] |= _referenced(own + stmt.bases + stmt.decorator_list)
            else:
                edges[name] |= _referenced([stmt])
            if not name.startswith("_"):
                public[name].append(f"{label}.{name}")
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and _assigned_names(stmt):
            for name in _assigned_names(stmt):
                edges[name] |= _referenced([stmt.value] if stmt.value else [])
                if not name.startswith("_"):
                    public[name].append(f"{label}.{name}")
        elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            roots |= _referenced([stmt])


def _readme_names() -> set:
    """Identifiers in the code spans of README.md; one after a dot is an
    attribute, as in code."""
    text = (ROOT / "README.md").read_text()
    spans = " ".join(re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S))
    names = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", spans))
    return names | {"." + name for name in re.findall(r"\.([A-Za-z_][A-Za-z0-9_]*)", spans)}


def _unreached(public: dict, edges: dict, roots: set) -> list:
    """Places of the public names that no chain of references from `roots` reaches."""
    live, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(edges.get(name, ()))
    return sorted(place for name, places in public.items()
                  if name not in live for place in places)


def caller_less_names() -> list:
    """Public names of the package that no root reaches, with their places."""
    public, edges, roots = defaultdict(list), defaultdict(set), set()
    for path in sorted(PACKAGE.glob("*.py")):
        _scan_module(ast.parse(path.read_text()), f"wlab.{path.stem}", public, edges, roots)
    outside = sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    for path in outside:
        roots |= _referenced([ast.parse(path.read_text())])
    return _unreached(public, edges, roots | _readme_names())


def test_every_public_name_has_a_caller():
    assert caller_less_names() == []


def test_scan_sees_through_a_caller_less_chain():
    """A helper called only by a caller-less function is caller-less too,
    and a name used by module-level code is not."""
    src = ("LIMIT = 3\n"
           "USED = 4\n"
           "class Box:\n"
           "    def size(self):\n"
           "        return LIMIT\n"
           "def helper():\n"
           "    return Box().size()\n"
           "def orphan():\n"
           "    return helper()\n"
           "print(USED)\n")
    public, edges, roots = defaultdict(list), defaultdict(set), set()
    _scan_module(ast.parse(src), "m", public, edges, roots)
    assert roots == {"print", "USED"}
    assert _unreached(public, edges, roots) == ["m.Box", "m.Box.size", "m.LIMIT", "m.helper",
                                                "m.orphan"]
    assert _unreached(public, edges, roots | {"orphan"}) == []


def test_bare_name_keeps_no_method():
    """A local variable named like a method does not reach it; an attribute
    or a string does."""
    src = ("class Box:\n"
           "    def size(self):\n"
           "        return 1\n"
           "    def area(self):\n"
           "        return 2\n"
           "    def side(self):\n"
           "        return 3\n"
           "def local():\n"
           "    size = 4\n"
           "    return size + Box().side()\n"
           "print(local(), getattr(Box(), 'area'))\n")
    public, edges, roots = defaultdict(list), defaultdict(set), set()
    _scan_module(ast.parse(src), "m", public, edges, roots)
    assert _unreached(public, edges, roots) == ["m.Box.size"]
