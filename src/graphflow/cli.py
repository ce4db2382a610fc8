"""Command-line front end.

Two sub-trees: ``graphs`` for the combinatorial operations (enumerate,
delta, cocycles) and ``knot`` for curve-based quantities (a2, sln, lk,
v2).  Stdout carries a single JSON document per invocation; every
result embeds the resolved run configuration and the library version.
Knot results are cached under a content-addressed path; repeated runs
with identical configuration are byte-identical.

Each command is a fresh process that imports only the modules it runs:
``graphs``, ``solver`` and ``diagrams`` load inside the commands that
call them, never for ``--version``, ``--help`` or a knot cache hit.  The
benchmark wraps ``delta_matrix``, ``kernel_basis`` and ``a2_of_curve``
by name in this module, so they stay here as forwarders.  The front end
is the standard library's ``argparse``, so those paths load neither click
nor ``inspect``; as under click, options are matched whole and every
usage error exits 2.  ``main.main`` keeps click's call, which the
benchmark's in-process rounds make, until they call ``main(argv)``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .curves import load_curve
from .errors import (
    CurvesIntersect,
    CurveValidationError,
    GraphflowError,
    InconsistentDiagram,
    InvalidGraph,
    InvalidParams,
    ResourceLimit,
)
from .integrals import (
    DEFAULT_SEED,
    LK_RULE,
    MC_MAX_SAMPLES,
    SLN_MIN_GRID,
    SLN_RULE,
    X_GRID,
    X_RULE,
    check_grid,
    linking_integral,
    resolve_workers,
    sln_integral,
    v2_invariant,
)

#: Exit code of each handled error; the first matching row wins.
_EXIT_CODES = (
    (ResourceLimit, 3),
    ((CurveValidationError, CurvesIntersect, InconsistentDiagram), 4),
    ((InvalidGraph, InvalidParams, json.JSONDecodeError), 2),
    (GraphflowError, 1),
)
_HANDLED = (GraphflowError, json.JSONDecodeError)


def delta_matrix(flavor, order):
    from . import solver
    return solver.delta_matrix(flavor, order)


def kernel_basis(m):
    from . import solver
    return solver.kernel_basis(m)


def a2_of_curve(curve, directions, seed):
    from . import diagrams
    return diagrams.a2_of_curve(curve, directions=directions, seed=seed)


def _fail(exc: Exception):
    """Report ``exc`` as JSON on stderr and exit with its code."""
    code = next(code for types, code in _EXIT_CODES if isinstance(exc, types))
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, CurveValidationError):
        payload["error"]["invariant"] = exc.invariant
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    sys.exit(code)


def _emit(command: str, config: dict, result) -> str:
    """Print the result document; one holding a NaN or an infinity, which
    JSON cannot carry, is refused before anything is printed or cached."""
    doc = {"command": command, "config": config, "version": __version__, "result": result}
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        _fail(InvalidParams(f"result is not finite: {exc}"))
    print(text)
    return text


def _checked(fn, *args):
    """``fn(*args)``, or a handled error that it raises reported by ``_fail``."""
    try:
        return fn(*args)
    except _HANDLED as exc:
        _fail(exc)


def _run(command: str, config: dict, compute) -> str:
    """Compute the result and emit it; the one path from compute to stdout."""
    return _emit(command, config, _checked(compute))


def _cached(command: str, config_fn, cache_dir: str | None, no_cache: bool, compute):
    """Replay a stored result, or ``_run`` the command and store its output."""
    config = _checked(config_fn)
    base = Path(cache_dir or os.environ.get("GRAPHFLOW_CACHE_DIR") or Path.home() / ".cache" / "graphflow")
    key_src = json.dumps({"command": command, "key": config, "version": __version__}, sort_keys=True)
    key = hashlib.sha256(key_src.encode()).hexdigest()
    path = base / key[:2] / (key + ".json")
    stored = None if no_cache else _read_entry(path, command, config)
    if stored is not None:
        sys.stdout.write(stored)
        return
    text = _run(command, config, compute) + "\n"
    if not no_cache:
        _write_entry(path, text)


def _read_entry(path: Path, command: str, config: dict) -> str | None:
    """The stored output for this command and config, verbatim; None when
    the entry is missing, unreadable, truncated or for another run."""
    try:
        text = path.read_text()
        doc = json.loads(text)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or "result" not in doc:
        return None
    if doc.get("command") != command or doc.get("config") != config:
        return None
    return text


def _write_entry(path: Path, text: str) -> None:
    """Write a temp file beside the entry and move it into place, so a
    reader sees the whole entry or none of it.  The result is printed
    already, so a cache that cannot be written costs only the entry and
    one line on stderr."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        print(json.dumps({"warning": f"result not cached: {exc}"}), file=sys.stderr)


def _file(path: str) -> str:
    """``--input``: a path that exists and is not a directory."""
    if os.path.isdir(path) or not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"no file {path!r}")
    return path


def _directory(path: str) -> str:
    """``--cache-dir``: a directory, or a path that does not exist yet."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is not a directory")
    return path


_GROUPS = {"graphs": "Combinatorial operations on decorated graphs.", "knot": "Numerical knot quantities."}
#: "group command" -> (function, options); an option is (flag, ``add_argument`` keywords),
#: and the function takes the parsed options as keywords.
_COMMANDS: dict[str, tuple] = {}
_FLAVOR = ("--flavor", dict(choices=["manifold", "knot"], required=True))
_ORDER = ("--order", dict(type=int, required=True))
_CURVE = ("--curve", dict(dest="curve_path", metavar="CURVE", required=True))
_GRID = ("--grid", dict(type=int, default=1024))
_CACHE = ("--cache-dir", dict(type=_directory)), ("--no-cache", dict(action="store_true"))


def _command(name: str, *options):
    """Register the decorated function as command ``name`` with ``options``."""
    return lambda fn: _COMMANDS.setdefault(name, (fn, options))[0]


def _child(subparsers, name: str, doc: str) -> argparse.ArgumentParser:
    """A level of the tree that, as under click, takes only ``--help`` for help."""
    child = subparsers.add_parser(name, help=doc, description=doc, add_help=False, allow_abbrev=False)
    child.add_argument("--help", action="help", help="Show this message and exit.")
    return child


def _parser() -> argparse.ArgumentParser:
    """The command tree of _GROUPS and _COMMANDS."""
    top = argparse.ArgumentParser("graphflow", description=main.__doc__, add_help=False, allow_abbrev=False)
    top.add_argument("--version", action="version", version=f"graphflow, version {__version__}")
    top.add_argument("--help", action="help", help="Show this message and exit.")
    levels = {"": top.add_subparsers(metavar="COMMAND", required=True)}
    for group, doc in _GROUPS.items():
        levels[group] = _child(levels[""], group, doc).add_subparsers(metavar="COMMAND", required=True)
    for name, (run, options) in _COMMANDS.items():
        group, leaf = name.split()
        command = _child(levels[group], leaf, run.__doc__)
        for flag, keywords in options:
            command.add_argument(flag, **keywords)
        command.set_defaults(run=run)
    return top


def main(argv: list[str] | None = None) -> None:
    """Decorated-graph cohomology and knot configuration integrals."""
    options = vars(_parser().parse_args(argv))
    try:
        options.pop("run")(**options)
    except BrokenPipeError:  # the reader left early, as ``head`` does; click ignored that too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# click's ``main.main(args=..., prog_name=..., standalone_mode=False)``: success returns, and every
# failure raises SystemExit with its code.  It goes when the benchmark calls main(argv) (ROADMAP item 1).
main.main = lambda args=None, prog_name=None, standalone_mode=True: main(args)


@_command("graphs enumerate", _FLAVOR, _ORDER, ("--degree", dict(type=int, default=0)),
          ("--disconnected", dict(action="store_true", help="Include disconnected graphs.")))
def graphs_enumerate(flavor, order, degree, disconnected):
    """List canonical graphs of the given grade."""
    from .graphs import Flavor, enumerate_graphs
    config = {"flavor": flavor, "order": order, "degree": degree, "connected": not disconnected}
    _run("graphs enumerate", config, lambda: [
        g.to_json_obj() for g in enumerate_graphs(Flavor(flavor), order, degree, connected=not disconnected)
    ])


@_command("graphs delta", ("--input", dict(dest="path", type=_file, required=True)))
def graphs_delta(path):
    """Coboundary of the graph in a text-format file."""
    from .graphs import DecoratedGraph, delta
    config = {"input": str(path)}

    def compute():
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidGraph(f"cannot read graph file: {exc}") from exc
        return delta(DecoratedGraph.from_text(text)).to_json_obj()

    _run("graphs delta", config, compute)


@_command("graphs cocycles", _FLAVOR, _ORDER)
def graphs_cocycles(flavor, order):
    """Kernel basis of the coboundary matrix at the given order."""
    from .graphs import Flavor, GraphSum
    config = {"flavor": flavor, "order": order}

    def compute():
        basis0, basis1, m = delta_matrix(Flavor(flavor), order)
        sums = [GraphSum({g: c for g, c in zip(basis0, vec) if c}).to_json_obj() for vec in kernel_basis(m)]
        return {"basis": [g.to_json_obj() for g in basis0], "kernel": sums}

    _run("graphs cocycles", config, compute)


def _knot_command(command: str, evaluate, curves: dict, cache_dir, no_cache, **params):
    """Run a knot command through the cache.

    ``curves`` maps config keys (``curve``, ``curve2``) to curve paths or
    bundled names.  The config holds each path, its ``<key>_hash`` and
    ``params``; the result is ``evaluate(*loaded curves)`` plus the same
    hashes.  Each curve is loaded once for the config and once for the
    result.
    """

    def config():
        hashes = {key + "_hash": load_curve(path).content_hash() for key, path in curves.items()}
        return {**{key: str(path) for key, path in curves.items()}, **hashes, **params}

    def compute():
        loaded = [load_curve(path) for path in curves.values()]
        hashes = {key + "_hash": curve.content_hash() for key, curve in zip(curves, loaded)}
        return {**evaluate(*loaded), **hashes}

    _cached(command, config, cache_dir, no_cache, compute)


@_command("knot a2", _CURVE, ("--directions", dict(type=int, default=3)),
          ("--seed", dict(type=int, default=7)), *_CACHE)
def knot_a2(curve_path, directions, seed, cache_dir, no_cache):
    """Order-2 combinatorial invariant from planar projections."""

    def evaluate(curve):
        return {"a2": a2_of_curve(curve, directions=directions, seed=seed)}

    params = {"directions": directions, "seed": seed}
    _knot_command("knot a2", evaluate, {"curve": curve_path}, cache_dir, no_cache, **params)


@_command("knot sln", _CURVE, _GRID, *_CACHE)
def knot_sln(curve_path, grid, cache_dir, no_cache):
    """Self-linking integral by midpoint sums and a Richardson step."""
    # checked before the cache lookup, so that a hit cannot replay a result beyond the limits
    _checked(check_grid, grid, SLN_MIN_GRID)

    def evaluate(curve):
        return {**sln_integral(curve, grid=grid).to_json_obj(), "op": "sln"}

    curves = {"curve": curve_path}
    _knot_command("knot sln", evaluate, curves, cache_dir, no_cache, grid=grid, rule=SLN_RULE)


@_command("knot lk", _CURVE, ("--curve2", dict(dest="curve2_path", metavar="CURVE2", required=True)),
          _GRID, *_CACHE)
def knot_lk(curve_path, curve2_path, grid, cache_dir, no_cache):
    """Gauss linking number of two disjoint curves."""
    _checked(check_grid, grid, 2)  # before the cache lookup, as for sln

    def evaluate(k1, k2):
        return {**linking_integral(k1, k2, grid=grid).to_json_obj(), "op": "lk"}

    curves = {"curve": curve_path, "curve2": curve2_path}
    _knot_command("knot lk", evaluate, curves, cache_dir, no_cache, grid=grid, rule=LK_RULE)


@_command("knot v2", _CURVE, ("--samples", dict(type=float, default=1e6, help="Samples per Monte Carlo term, "
          f"rounded down to a multiple of 64 (at least 64, at most {MC_MAX_SAMPLES}).")),
          ("--seed", dict(type=int, default=DEFAULT_SEED)), ("--workers", dict(type=int)), *_CACHE)
def knot_v2(curve_path, samples, seed, cache_dir, no_cache, workers):
    """Order-2 cocycle configuration integral (crossed chords by
    quadrature, tripod by Monte Carlo)."""
    # checked before the cache lookup, so that a hit cannot hide a bad value
    if not math.isfinite(samples):
        _fail(InvalidParams(f"samples must be finite, got {samples}"))
    n_workers, n_samples = _checked(resolve_workers, workers), int(samples)

    def evaluate(curve):
        from .graphs import GraphSum, knot_order2_cocycle, knot_order2_graphs
        est = v2_invariant(curve, n_samples=n_samples, seed=seed, workers=n_workers)
        evaluated = knot_order2_graphs()[:2]  # the crossed chords and the tripod
        omitted = {g: c for g, c in knot_order2_cocycle().items() if g not in evaluated}
        return {**est.to_json_obj(), "op": "v2", "omitted_terms": GraphSum(omitted).to_json_obj()}

    params = {"samples": n_samples, "seed": seed, "x_grid": X_GRID, "x_rule": X_RULE}
    _knot_command("knot v2", evaluate, {"curve": curve_path}, cache_dir, no_cache, **params)


if __name__ == "__main__":
    main()
