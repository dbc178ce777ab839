"""The public API: every exported name resolves, and nothing public exists for the tests alone;
and the modules import each other at their tops, in an order with no cycle."""

import ast
import graphlib
from collections import Counter
from pathlib import Path

import qpart

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qpart"
CALLERS = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
CALLERS += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Public definitions kept without a caller in src/, scripts/ or perfbench/.
ALLOWED_UNREFERENCED = {
    "encode_general": "the paper's general label-symmetric partitioning class",
}


def test_every_exported_name_resolves():
    assert [name for name in qpart.__all__ if not hasattr(qpart, name)] == []


def statements(path):
    """(name a top-level statement defines or None, identifiers it uses), per statement."""
    for node in ast.parse(path.read_text()).body:
        used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        used |= {n.name.rsplit(".", 1)[-1] for n in ast.walk(node) if isinstance(n, ast.alias)}
        yield getattr(node, "name", None), used


def test_every_public_definition_has_a_caller():
    stmts = {path: list(statements(path)) for path in CALLERS}
    public = {(path, name) for path in CALLERS if path.parent == SRC for name, _ in stmts[path]}
    public = {(path, name) for path, name in public if name and not name.startswith("_")}
    assert set(ALLOWED_UNREFERENCED) <= {name for _, name in public}
    unreferenced = sorted(
        f"{path.name}:{name}"
        for path, name in public
        if name not in ALLOWED_UNREFERENCED
        and not any(
            name in used
            for caller in CALLERS
            for defined, used in stmts[caller]
            if (caller, defined) != (path, name)
        )
    )
    assert unreferenced == []


def attribute_uses(node):
    """How often each name is used as an attribute (`x.name`) inside `node`."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_public_method_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    uses = sum((attribute_uses(tree) for tree in trees.values()), Counter())
    unreferenced = sorted(
        f"{path.name}:{cls.name}.{method.name}"
        for path, tree in trees.items()
        if path.parent == SRC
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
        # uses inside the method's own body do not count
        if uses[method.name] == attribute_uses(method)[method.name]
    )
    assert unreferenced == []


def public_classes():
    """(path, class) for every public class defined at the top of a module in src/."""
    for path in CALLERS:
        if path.parent == SRC:
            for cls in ast.parse(path.read_text()).body:
                if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                    yield path, cls


def attribute_reads():
    """Every name read as an attribute (`x.name` in a load) in src/, scripts/ or perfbench/."""
    return {
        n.attr
        for path in CALLERS
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def test_every_public_field_is_read():
    reads = attribute_reads()
    unread = sorted(
        f"{path.name}:{cls.name}.{field.target.id}"
        for path, cls in public_classes()
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        if field.target.id not in reads
    )
    assert unread == []


def instance_attributes(cls):
    """The public names a class's methods set on their first argument: `self.name = ...`."""
    for method in cls.body:
        if isinstance(method, ast.FunctionDef) and method.args.args:
            me = method.args.args[0].arg
            for n in ast.walk(method):
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) and not n.attr.startswith("_"):
                    if isinstance(n.value, ast.Name) and n.value.id == me:
                        yield n.attr


def test_every_public_instance_attribute_is_read():
    reads = attribute_reads()
    unread = sorted(
        f"{path.name}:{cls.name}.{name}"
        for path, cls in public_classes()
        for name in instance_attributes(cls)
        if name not in reads
    )
    assert unread == []


def test_imports_are_top_level_and_acyclic():
    """Every import in src/qpart is a top-level statement of its module, and the
    relative imports between modules, leaving out __init__, form no cycle."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    late = sorted(
        f"{name}.py:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    )
    assert late == []
    graph = {
        name: {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1}
        for name, tree in trees.items()
        if name != "__init__"
    }
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
