"""Package hygiene: no unused import or private name; exports resolve once."""

import ast
import pathlib

import berryline

_PACKAGE = pathlib.Path(berryline.__file__).parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)}
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, unused


def test_every_exported_name_resolves_and_is_unique():
    names = berryline.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(berryline, name)]
    assert not missing, missing


def test_every_private_module_name_is_referenced():
    # a helper that a deletion leaves behind has no reference left in src/
    trees = {p.name: ast.parse(p.read_text()) for p in _PACKAGE.glob("*.py")}
    referenced = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            referenced.update(alias.name for alias in node.names)
    defined = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            # a def or class has a name, an assignment its target Names
            targets = getattr(node, "targets", [getattr(node, "target", node)])
            defined += [(module, getattr(t, "id", getattr(t, "name", "")))
                        for t in targets]
    private = [d for d in defined
               if d[1].startswith("_") and not d[1].endswith("__")]
    assert ("models.py", "_check_resolution") in private
    assert not [d for d in private if d[1] not in referenced]
