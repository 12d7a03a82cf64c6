"""Static checks on the package as a whole: every public function serves a
command, and every ddgen name the benchmark uses exists."""

import ast
import importlib
import pathlib

import pytest

import ddgen

PACKAGE = pathlib.Path(ddgen.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
# public functions that no ddgen function calls: the console entry point,
# and the desk preset that README documents
ENTRY_POINTS = {"cli.main", "config.desk_preset"}


def _bindings(tree, module):
    """What the names of a module refer to: aliases of ddgen modules, and
    functions by their qualified ``module.name``."""
    modules = {}
    names = {node.name: "%s.%s" % (module, node.name) for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for a in node.names:
            if node.module is None:
                modules[a.asname or a.name] = a.name
            else:
                names[a.asname or a.name] = "%s.%s" % (node.module, a.name)
    return modules, names


def _references(fn, modules, names):
    """Qualified names of the functions that ``fn`` mentions: calls, and
    values such as the command a parser binds with ``set_defaults``."""
    refs = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id in names:
            refs.add(names[node.id])
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            refs.add("%s.%s" % (modules[node.value.id], node.attr))
    return refs


def test_every_public_function_has_a_caller():
    public, referenced = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), str(path))
        modules, names = _bindings(tree, module)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                public.add("%s.%s" % (module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                here = "%s.%s" % (module, node.name)
                referenced |= _references(node, modules, names) - {here}
    assert "gscm.channel_rows" in public and "cli.cmd_gen" in referenced
    assert ENTRY_POINTS <= public
    assert sorted(public - referenced - ENTRY_POINTS) == []


@pytest.mark.parametrize("name", ["run.py", "worker.py", "checks.py",
                                  "test_checks.py"])
def test_bench_uses_only_names_the_package_has(name):
    """Every ``ddgen`` module attribute a bench file reads, calls or hooks
    exists, chains such as ``trainer.LossWeights.from_dict`` included."""
    tree = ast.parse((BENCH / name).read_text(), name)
    bound = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "ddgen"):
            continue
        for a in node.names:
            if node.module == "ddgen":
                obj = importlib.import_module("ddgen." + a.name)
            else:
                obj = importlib.import_module(node.module)
                assert hasattr(obj, a.name), "%s: %s.%s" % (
                    name, node.module, a.name)
                obj = getattr(obj, a.name)
            bound[a.asname or a.name] = obj
    for node in ast.walk(tree):
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.insert(0, base.attr)
            base = base.value
        if not (chain and isinstance(base, ast.Name) and base.id in bound):
            continue
        obj = bound[base.id]
        for i, attr in enumerate(chain):
            assert hasattr(obj, attr), "%s: %s.%s" % (
                name, base.id, ".".join(chain[:i + 1]))
            obj = getattr(obj, attr)
