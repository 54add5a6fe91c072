"""Every public function and class of `rdrisk` is called by the CLI or by
the acceptance criteria, directly or through other package code.

The check reads the sources with `ast` and follows names module by module:
a name in a reached body reaches the definition it refers to, through the
module's own definitions, `from .x import y` imports and `module.attr`
references.  Statements that run at import reach what they use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rdrisk"
ROOTS = (PACKAGE / "cli.py", ROOT / "tests" / "test_acceptance.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imports(tree: ast.Module) -> tuple[dict, dict]:
    """(name -> (module, name), name -> module) of a file's package imports."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("rdrisk"):
            continue
        source = (node.module or "").removeprefix("rdrisk").lstrip(".")
        for alias in node.names:
            local = alias.asname or alias.name
            if source:
                names[local] = (source, alias.name)
            else:
                modules[local] = alias.name
    return names, modules


def _references(nodes, module: str, defined: set, names: dict, modules: dict) -> set:
    """(module, name) pairs that ``nodes`` refer to."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                if node.id in defined:
                    found.add((module, node.id))
                elif node.id in names:
                    found.add(names[node.id])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                found.add((modules[node.value.id], node.attr))
    return found


def unreached_public_names() -> list[str]:
    bodies, public, pending = {}, set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, modules = _imports(tree)
        defs = {node.name: node for node in tree.body if isinstance(node, DEFINITIONS)}
        for name, node in defs.items():
            bodies[(module, name)] = _references([node], module, set(defs), names, modules)
            if not name.startswith("_"):
                public.add((module, name))
        at_import = [node for node in tree.body
                     if not isinstance(node, (*DEFINITIONS, ast.Import, ast.ImportFrom))]
        pending |= _references(at_import, module, set(defs), names, modules)
    for path in ROOTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, modules = _imports(tree)
        module = path.stem if path.parent == PACKAGE else "<root>"
        defined = {node.name for node in tree.body if isinstance(node, DEFINITIONS)}
        pending |= _references([tree], module, defined, names, modules)
    reached = set()
    while pending:
        key = pending.pop()
        if key not in reached:
            reached.add(key)
            pending |= bodies.get(key, set())
    return sorted(f"{module}.{name}" for module, name in public - reached)


def test_every_public_name_is_reached_from_cli_or_acceptance():
    assert unreached_public_names() == []
