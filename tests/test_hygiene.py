"""Package hygiene: no unused import, private name or public method
nothing calls; exports resolve once.

The benchmark's tracer binds package names from outside the package;
those bindings must resolve too.
"""

import ast
import importlib
import pathlib
import subprocess
import sys

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


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in _PACKAGE.glob("*.py")}


def _referenced(trees):
    """Every name src/ loads, reads as an attribute or imports."""
    referenced = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            referenced.update(alias.name for alias in node.names)
    return referenced


def _tracer_constants():
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    constants = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FUNCTIONS", "MODEL_CLASSES", "MODEL_METHODS"):
                constants[name] = ast.literal_eval(node.value)
    assert len(constants) == 3, sorted(constants)
    return constants


def test_every_private_module_name_is_referenced():
    # a helper that a deletion leaves behind has no reference left in src/
    trees = _trees()
    referenced = _referenced(trees)
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


def test_every_error_class_is_raised_by_some_module():
    # an error class that no other module constructs is dead taxonomy, and
    # the CLI maps it to an exit code nothing can reach
    errors = importlib.import_module("berryline.errors")
    classes = [name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.BerrylineError)
               and cls is not errors.BerrylineError]
    assert "TrueCrossing" in classes
    constructed = {getattr(node.func, "id", getattr(node.func, "attr", None))
                   for module, tree in _trees().items() if module != "errors.py"
                   for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not [name for name in classes if name not in constructed]


def test_every_public_method_is_referenced():
    # a method whose last caller a deletion removes is left behind; the
    # tracer's model methods are read from outside
    trees = _trees()
    referenced = _referenced(trees) | set(_tracer_constants()["MODEL_METHODS"])
    methods = [(module, cls.name, node.name)
               for module, tree in sorted(trees.items())
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")]
    assert ("models.py", "_ChainRows", "kets") in methods
    assert not [m for m in methods if m[2] not in referenced]


def test_every_binding_of_the_bench_tracer_resolves():
    # bench/tracer.py wraps these names from outside; a name that a
    # removal leaves unresolved breaks every traced benchmark run
    constants = _tracer_constants()
    missing = [f"{layer}.{func}" for layer, func in constants["FUNCTIONS"]
               if not callable(getattr(importlib.import_module(
                   f"berryline.{layer}"), func, None))]
    for cls_name in constants["MODEL_CLASSES"]:
        cls = getattr(berryline.models, cls_name)
        # the tracer reads each method from the class's own namespace
        missing += [f"models.{cls_name}.{method}"
                    for method in constants["MODEL_METHODS"]
                    if method not in vars(cls)]
    assert not missing, missing


def test_one_refinement_loop_serves_the_package():
    # every gapped phase settles in berry._settled_phases; the dyadic
    # refinement and the double-exponential rule stay in quadrature as test
    # references with no caller in the package
    kernels = {"refine_dyadically", "tanh_sinh"}
    trees = _trees()
    callers = sorted(f"{module}: {name}" for module, tree in trees.items()
                     if module != "quadrature.py"
                     for name in _referenced({module: tree}) & kernels)
    assert not callers, callers


def test_importing_the_package_and_its_cli_loads_no_scipy():
    # numpy is the one runtime dependency; scipy serves the test oracles,
    # and the process pool loads only when a sweep starts one. -I keeps
    # the environment and the user's site out of the child
    code = (f"import sys; sys.path.insert(0, {str(_PACKAGE.parent)!r}); "
            "import berryline, berryline.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing') "
            "or m == 'concurrent.futures.process'))")
    out = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
