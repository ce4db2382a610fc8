"""The package holds no private module-level name that nothing uses, no
public class or variable that neither the package nor the benchmark
reads, and no function or method that neither a command nor the
benchmark's in-process calls run."""

import ast
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from oracles import theta_graph, to_text

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphflow"

#: Functions and methods that no command and no in-process call of the
#: benchmark runs, kept on purpose.  The name check reads it too, for any
#: class or variable that nothing reads.
KEPT = {
    # its tests pin the contraction rule, one edge at a time
    "contract_edge",
    # stay while bench/spans.py patches solver.delta, which only
    # verify_cocycle reads; the other three run only under it, and all
    # four go together
    "verify_cocycle",
    "graph_grade",
    "grade",
    "GraphSum.is_zero",
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
    """(name, node) of the public classes and module-level variables a
    module defines; its functions and methods are checked by what runs."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            yield from ((name, node) for name in names)


def test_every_public_name_and_method_is_read():
    """Each public class and variable is read in src/ or bench/ outside its
    own definition, or kept on purpose (KEPT); the tests alone are no
    reader.  Functions and methods are checked by
    ``test_every_function_runs_from_a_command_or_the_benchmark``."""
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


def _functions(node: ast.AST, prefix: str = ""):
    """(qualified name, first line) of every function, method and lambda
    under ``node``; the first line is that of the first decorator, as in
    the function's code object."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(child, "name", "<lambda>")
            lines = [d.lineno for d in getattr(child, "decorator_list", [])]
            yield name, min(lines + [child.lineno])
            yield from _functions(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


#: Runs each command of argv[1] in process, then the benchmark's own
#: in-process calls (``bench/run.py``'s kernel reference, ``bench/spans.py``'s
#: counts), under a profile hook, and writes each command's exit code and
#: stdout, and the (file, first line) of every code object that ran, to
#: argv[2].
_REACH = """
import contextlib, io, json, sys, threading
ran = set()
def hook(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)
sys.setprofile(hook)
threading.setprofile(hook)
from graphflow.cli import main
from graphflow.graphs import Flavor, knot_order2_cocycle, manifold_order2_cocycle
from graphflow.solver import delta_matrix
runs = []
for args in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main.main(args=args, prog_name="graphflow", standalone_mode=False) or 0
        except SystemExit as exc:
            code = exc.code
    runs.append([code, out.getvalue()])
for flavor in Flavor:
    m = delta_matrix(flavor, 2)[2]
    m.entries, m.rows
manifold_order2_cocycle().to_json_obj(), knot_order2_cocycle().to_json_obj()
sys.setprofile(None)
ran = sorted({(c.co_filename, c.co_firstlineno) for c in ran})
with open(sys.argv[2], "w") as fh:
    json.dump({"runs": runs, "ran": ran}, fh)
"""


def test_every_function_runs_from_a_command_or_the_benchmark(tmp_path):
    """One fresh interpreter runs every command path, cache miss and hit
    and a validation failure included, and the benchmark's in-process
    calls; every function and method in src/ runs there or is in KEPT."""
    trefoil = json.loads((PACKAGE / "data" / "trefoil.json").read_text())
    warped = tmp_path / "warped.json"
    warped.write_text(json.dumps({"type": "warped", "amplitude": 0.3, "base": trefoil}))
    t = [k / 256 for k in range(256)]
    eight = [[math.sin(4 * math.pi * s), math.sin(2 * math.pi * s), 0.0] for s in t]
    crossing = tmp_path / "figure_eight.json"
    crossing.write_text(json.dumps({"type": "polyline", "points": eight}))
    theta = tmp_path / "theta.txt"
    theta.write_text(to_text(theta_graph()))
    cache = tmp_path / "cache"
    commands = [
        ["--version"],
        ["graphs", "enumerate", "--flavor", "knot", "--order", "2"],
        ["graphs", "enumerate", "--flavor", "manifold", "--order", "2", "--disconnected"],
        ["graphs", "delta", "--input", str(theta)],
        ["graphs", "cocycles", "--flavor", "manifold", "--order", "2"],
        ["graphs", "cocycles", "--flavor", "knot", "--order", "2"],
        ["knot", "a2", "--curve", "trefoil"],
        ["knot", "a2", "--curve", "trefoil"],
        ["knot", "sln", "--curve", str(warped)],
        ["knot", "sln", "--curve", str(crossing)],
        ["knot", "lk", "--curve", "hopf_a", "--curve2", "hopf_b", "--grid", "64", "--cache-dir", str(cache)],
        ["knot", "v2", "--curve", "circle", "--samples", "6400", "--no-cache"],
    ]
    env = {**os.environ, "GRAPHFLOW_CACHE_DIR": str(cache)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    report = tmp_path / "report.json"
    subprocess.run(
        [sys.executable, "-c", _REACH, json.dumps(commands), str(report)], env=env, check=True, timeout=120
    )
    doc = json.loads(report.read_text())
    codes = [code for code, _ in doc["runs"]]
    assert codes == [0] * 9 + [4, 0, 0]
    (_, miss), (_, hit) = doc["runs"][6:8]
    assert hit == miss and len(list((tmp_path / "cache").rglob("*.json"))) == 3
    ran = {(Path(f).resolve(), line) for f, line in doc["ran"]}
    defined = [
        (f"{p.name}:{name}", name, (p.resolve(), line) in ran)
        for p in sorted(PACKAGE.glob("*.py"))
        for name, line in _functions(ast.parse(p.read_text()))
    ]
    assert len(defined) > 100
    assert {name for _, name, _ in defined} >= KEPT
    assert [where for where, name, run in defined if run and name in KEPT] == []
    unrun = [where for where, name, run in defined if not run and name not in KEPT]
    assert unrun == [], ", ".join(unrun)


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
