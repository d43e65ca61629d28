"""The package exports only what the library, the bench or the README's
library tour uses: a name whose only callers are its own tests is not API.
Likewise a default that no call overrides is not an option, and an import
that nothing reads is not a dependency."""

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


def _names_read(paths):
    """Names read by some top-level statement of the modules at `paths` that
    does not define them."""
    used = set()
    for path in paths:
        for statement in ast.parse(path.read_text()).body:
            nodes = list(ast.walk(statement))
            names = {n.id for n in nodes if isinstance(n, ast.Name)}
            names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            used |= names - _defined(statement)
    return used


def _used_in_src():
    """Names read by the package (re-exports in `__init__.py` do not count)."""
    return _names_read(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _read_outside_the_tests():
    """Whether a name is read by the package, the bench or the README's
    library tour."""
    bench = "\n".join(path.read_text() for path in (ROOT / "bench").glob("*.py"))
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    used = _used_in_src()
    return lambda name: name in used or re.search(rf"\b{name}\b", bench + tour)


def test_every_export_has_a_caller_outside_the_tests():
    read = _read_outside_the_tests()
    unused = [name for name in _exported() if not read(name)]
    assert not unused, f"exported but only called from tests: {unused}"


def test_every_public_definition_has_a_reader_outside_the_tests():
    read = _read_outside_the_tests()
    unused = [
        f"{path.name}:{statement.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for statement in ast.parse(path.read_text()).body
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
        and not statement.name.startswith("_")
        and not read(statement.name)
    ]
    assert not unused, f"defined but only read by tests: {unused}"


def test_every_test_helper_is_named_elsewhere_in_the_tests():
    """A module-level function of the tests that is not a test is a helper:
    some other statement of the tests must name it."""
    modules = list(_modules("tests"))
    read = _names_read(modules)
    unused = [
        f"{path.name}:{statement.name}"
        for path in modules
        for statement in ast.parse(path.read_text()).body
        if isinstance(statement, ast.FunctionDef)
        and not statement.name.startswith("test_")
        and statement.name not in read
    ]
    assert not unused, f"test helpers that nothing names: {unused}"


def _modules(*folders):
    for folder in folders:
        yield from sorted((ROOT / folder).glob("*.py"))


def _named(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _defaulted_parameters():
    """(module, callee name, parameter, positional index or None) for every
    defaulted parameter of a `def` in the package.  A method's index leaves
    out `self`, which its callers do not pass, and an `__init__` is called by
    its class's name."""
    out = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {
            id(f): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for f in cls.body
        }
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
            bound = 1 if id(f) in owner and not static else 0
            name = owner[id(f)] if f.name == "__init__" else f.name
            positional = f.args.posonlyargs + f.args.args
            first = len(positional) - len(f.args.defaults)
            for index, arg in enumerate(positional[first:], first - bound):
                out.append((path.name, name, arg.arg, index))
            for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if default is not None:
                    out.append((path.name, name, arg.arg, None))
    return out


def _calls():
    """Callee name -> the calls made to it in the package, the tests (this
    file aside) and the bench.  A call through a name bound to a lookup,
    `f = {key: g, ...}[key]`, counts as a call to each `g` of the table."""
    calls: dict = {}
    for path in _modules("src/automonad", "tests", "bench"):
        if path.resolve() == Path(__file__).resolve():
            continue
        tree = ast.parse(path.read_text())
        tables = {
            target.id: [_named(value) for value in node.value.value.values]
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.value, ast.Dict)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = _named(node.func)
                for name in [callee, *tables.get(callee, ())]:
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, parameter: str, index) -> bool:
    """Whether `call` passes `parameter` by keyword, by position or through
    a `*` or `**` unpacking."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return index is not None and any(
        i == index or isinstance(arg, ast.Starred) for i, arg in enumerate(call.args)
    )


def test_every_default_is_overridden_by_some_call():
    calls = _calls()
    unused = [
        f"{module}:{name}({parameter})"
        for module, name, parameter, index in _defaulted_parameters()
        if not any(_passes(c, parameter, index) for c in calls.get(name, []))
    ]
    assert not unused, f"defaulted parameters that no call passes: {unused}"


def _unread_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_every_top_level_import_is_read():
    modules = [p for p in _modules("src/automonad", "tests") if p.name != "__init__.py"]
    unread = [entry for path in modules for entry in _unread_imports(path)]
    assert not unread, f"imported but never read: {unread}"


def _container_classes():
    """`EffectContainer` and every class of `containers.py` derived from it."""
    classes = [
        node
        for node in ast.walk(ast.parse((PACKAGE / "containers.py").read_text()))
        if isinstance(node, ast.ClassDef)
    ]
    names, grown = {"EffectContainer"}, True
    while grown:
        new = {c.name for c in classes if any(getattr(b, "id", None) in names for b in c.bases)}
        grown = bool(new - names)
        names |= new
    return names


def test_no_container_type_check_outside_the_containers():
    """The container interface is the only extension point: outside
    `containers.py`, no `isinstance` names a container class.  A check
    against a class held in a variable, as `automata._require` makes, is
    how an algorithm states the one container it is written for."""
    containers = _container_classes()
    checks = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "containers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _named(node.func) == "isinstance" and len(node.args) == 2:
                named = {
                    n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node.args[1])
                    if isinstance(n, (ast.Name, ast.Attribute))
                }
                checks += [f"{path.name}:{node.lineno} {name}" for name in sorted(named & containers)]
    assert not checks, f"container type checks outside containers.py: {checks}"
