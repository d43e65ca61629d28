"""The package exports only what the library, the bench or the README's
library tour uses: a name whose only callers are its own tests is not API."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "automonad"


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _defined(statement):
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _used_in_src():
    """Names read by some top-level statement of a module that does not
    define them (re-exports in `__init__.py` do not count)."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text()).body:
            nodes = list(ast.walk(statement))
            names = {n.id for n in nodes if isinstance(n, ast.Name)}
            names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            used |= names - _defined(statement)
    return used


def test_every_export_has_a_caller_outside_the_tests():
    bench = "\n".join(path.read_text() for path in (ROOT / "bench").glob("*.py"))
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    used = _used_in_src()
    unused = [
        name
        for name in _exported()
        if name not in used and not re.search(rf"\b{name}\b", bench + tour)
    ]
    assert not unused, f"exported but only called from tests: {unused}"
