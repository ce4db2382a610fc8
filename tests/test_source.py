"""The package holds no private module-level name that nothing uses, and
no public name or method that neither the package nor the benchmark reads."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphflow"

#: Public names that nothing in src/ or bench/ reads, kept on purpose.
KEPT = {
    # its tests pin the contraction rule, one edge at a time
    "contract_edge",
    # stays while bench/spans.py patches solver.delta, which only it reads
    "verify_cocycle",
}


def _private_definitions(tree: ast.Module):
    """Names of the private functions, classes and variables a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _references(tree: ast.Module):
    """Names a module reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_module_level_name_is_used():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert len(trees) > 1 and unused == []


def _public_definitions(tree: ast.Module):
    """(name, node) of the public functions, classes, variables and
    methods a module defines, the CLI's click commands left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            command = any(
                isinstance(d, ast.Call)
                and isinstance(d.func, ast.Attribute)
                and d.func.attr == "command"
                for d in node.decorator_list
            )
            if not command:
                yield node.name, node
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield method.name, method
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            yield from ((name, node) for name in names)


def test_every_public_name_and_method_is_read():
    """Each is read in src/ or bench/ outside its own definition, or kept
    on purpose (KEPT); the tests alone are no reader."""
    bench = [p for p in (ROOT / "bench").rglob("*.py") if "tests" not in p.parts]
    paths = sorted(PACKAGE.glob("*.py")) + sorted(bench)
    reads = Counter(name for p in paths for name in _references(ast.parse(p.read_text())))
    unread = [
        f"{p.name}:{name}"
        for p in sorted(PACKAGE.glob("*.py"))
        for name, node in _public_definitions(ast.parse(p.read_text()))
        if not name.startswith("_") and name not in KEPT
        if reads[name] == Counter(_references(node))[name]
    ]
    assert unread == []


def _import_time_nodes(node: ast.AST, postponed: bool):
    """The nodes evaluated when the module is imported: all but the bodies
    of functions and lambdas and, under ``from __future__ import
    annotations``, the annotations."""
    yield node
    for field, value in ast.iter_fields(node):
        if field == "body" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if postponed and field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _import_time_nodes(child, postponed)


def _numpy_at_import(tree: ast.Module) -> list[str]:
    """Imports of numpy by name anywhere, and reads of ``np.`` when the
    module is imported; each would load numpy in every process."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found += [node.module] if (node.module or "").split(".")[0] == "numpy" else []
    postponed = any(
        isinstance(n, ast.ImportFrom) and n.module == "__future__" and "annotations" in {a.name for a in n.names}
        for n in tree.body
    )
    for node in _import_time_nodes(tree, postponed):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np":
            found.append(f"np.{node.attr} at line {node.lineno}")
    return found


def test_numpy_loads_on_first_use_only():
    """Only ``__init__.py`` names numpy, to make it load on first use, and
    nothing reads ``np.`` at import, so that start-up and the knot cache
    hits never load it."""
    sample = ast.parse(
        "from __future__ import annotations\nimport numpy.linalg\nfrom numpy import pi\n"
        "X = np.e\nclass C:\n    Y = np.pi\n    def f(self, a=np.inf, b: np.ndarray = 0) -> np.ndarray:\n"
        "        return np.pi\nZ = lambda: np.pi\n"
    )
    assert _numpy_at_import(sample) == [
        "numpy.linalg", "numpy", "np.e at line 4", "np.pi at line 6", "np.inf at line 7"
    ]
    found = {
        p.name: _numpy_at_import(ast.parse(p.read_text()))
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    }
    assert len(found) > 1 and all(v == [] for v in found.values()), found
