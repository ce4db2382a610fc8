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
by name in this module, so they stay here as forwarders.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path

import click

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
    MC_MAX_SAMPLES,
    SLN_MIN_GRID,
    SLN_RULE,
    X_GRID,
    X_RULE,
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
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(code)


def _emit(command: str, config: dict, result) -> str:
    """Print the result document; one holding a NaN or an infinity, which
    JSON cannot carry, is refused before anything is printed or cached."""
    doc = {"command": command, "config": config, "version": __version__, "result": result}
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        _fail(InvalidParams(f"result is not finite: {exc}"))
    click.echo(text)
    return text


def _run(command: str, config: dict, compute):
    try:
        result = compute()
    except _HANDLED as exc:
        _fail(exc)
    else:
        _emit(command, config, result)


def _default_cache_dir() -> Path:
    env = os.environ.get("GRAPHFLOW_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "graphflow"


def _cached(command: str, config_fn, cache_dir: str | None, no_cache: bool, compute):
    """Replay a stored result or compute, emit and store."""
    try:
        config = config_fn()
        base = Path(cache_dir) if cache_dir else _default_cache_dir()
        key_src = json.dumps(
            {"command": command, "key": config, "version": __version__}, sort_keys=True
        )
        key = hashlib.sha256(key_src.encode()).hexdigest()
        path = base / key[:2] / (key + ".json")
        stored = None if no_cache else _read_entry(path, command, config)
        if stored is not None:
            sys.stdout.write(stored)
            return
        result = compute()
    except _HANDLED as exc:
        _fail(exc)
    else:
        text = _emit(command, config, result) + "\n"
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
        click.echo(json.dumps({"warning": f"result not cached: {exc}"}), err=True)


@click.group()
@click.version_option(version=__version__)
def main():
    """Decorated-graph cohomology and knot configuration integrals."""


@main.group()
def graphs():
    """Combinatorial operations on decorated graphs."""


_FLAVOR = click.Choice(["manifold", "knot"])


@graphs.command("enumerate")
@click.option("--flavor", type=_FLAVOR, required=True)
@click.option("--order", type=int, required=True)
@click.option("--degree", type=int, default=0, show_default=True)
@click.option("--disconnected", is_flag=True, help="Include disconnected graphs.")
def graphs_enumerate(flavor, order, degree, disconnected):
    """List canonical graphs of the given grade."""
    from .graphs import Flavor, enumerate_graphs
    config = {"flavor": flavor, "order": order, "degree": degree, "connected": not disconnected}
    _run(
        "graphs enumerate",
        config,
        lambda: [
            g.to_json_obj()
            for g in enumerate_graphs(Flavor(flavor), order, degree, connected=not disconnected)
        ],
    )


@graphs.command("delta")
@click.option("--input", "path", type=click.Path(exists=True, dir_okay=False), required=True)
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


@graphs.command("cocycles")
@click.option("--flavor", type=_FLAVOR, required=True)
@click.option("--order", type=int, required=True)
def graphs_cocycles(flavor, order):
    """Kernel basis of the coboundary matrix at the given order."""
    from .graphs import Flavor, GraphSum
    config = {"flavor": flavor, "order": order}

    def compute():
        basis0, basis1, m = delta_matrix(Flavor(flavor), order)
        kernel = kernel_basis(m)
        sums = []
        for vec in kernel:
            s = GraphSum({g: c for g, c in zip(basis0, vec) if c})
            sums.append(s.to_json_obj())
        return {
            "basis": [g.to_json_obj() for g in basis0],
            "kernel": sums,
        }

    _run("graphs cocycles", config, compute)


@main.group()
def knot():
    """Numerical knot quantities."""


def _cache_options(f):
    """Add ``--cache-dir`` and ``--no-cache`` to a knot command."""
    f = click.option("--no-cache", is_flag=True)(f)
    return click.option("--cache-dir", type=click.Path(file_okay=False), default=None)(f)


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


@knot.command("a2")
@click.option("--curve", "curve_path", required=True)
@click.option("--directions", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
@_cache_options
def knot_a2(curve_path, directions, seed, cache_dir, no_cache):
    """Order-2 combinatorial invariant from planar projections."""

    def evaluate(curve):
        return {"a2": a2_of_curve(curve, directions=directions, seed=seed)}

    params = {"directions": directions, "seed": seed}
    _knot_command("knot a2", evaluate, {"curve": curve_path}, cache_dir, no_cache, **params)


@knot.command("sln")
@click.option("--curve", "curve_path", required=True)
@click.option("--grid", type=int, default=1024, show_default=True)
@_cache_options
def knot_sln(curve_path, grid, cache_dir, no_cache):
    """Self-linking integral by midpoint sums and a Richardson step."""
    # checked before the cache lookup, so that a hit cannot replay a result below the limit
    if grid < SLN_MIN_GRID:
        _fail(InvalidParams(f"grid must be at least {SLN_MIN_GRID}, got {grid}"))

    def evaluate(curve):
        return {**sln_integral(curve, grid=grid).to_json_obj(), "op": "sln"}

    curves = {"curve": curve_path}
    _knot_command("knot sln", evaluate, curves, cache_dir, no_cache, grid=grid, rule=SLN_RULE)


@knot.command("lk")
@click.option("--curve", "curve_path", required=True)
@click.option("--curve2", "curve2_path", required=True)
@click.option("--grid", type=int, default=1024, show_default=True)
@_cache_options
def knot_lk(curve_path, curve2_path, grid, cache_dir, no_cache):
    """Gauss linking number of two disjoint curves."""

    def evaluate(k1, k2):
        return {**linking_integral(k1, k2, grid=grid).to_json_obj(), "op": "lk"}

    curves = {"curve": curve_path, "curve2": curve2_path}
    _knot_command("knot lk", evaluate, curves, cache_dir, no_cache, grid=grid)


@knot.command("v2")
@click.option("--curve", "curve_path", required=True)
@click.option(
    "--samples",
    type=float,
    default=1e6,
    show_default=True,
    help="Samples per Monte Carlo term, rounded down to a multiple of 64 "
    f"(at least 64, at most {MC_MAX_SAMPLES}).",
)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--workers", type=int, default=None)
@_cache_options
def knot_v2(curve_path, samples, seed, cache_dir, no_cache, workers):
    """Order-2 cocycle configuration integral (crossed chords by
    quadrature, tripod by Monte Carlo)."""
    # checked before the cache lookup, so that a hit cannot hide a bad value
    try:
        if not math.isfinite(samples):
            raise InvalidParams(f"samples must be finite, got {samples}")
        n_workers = resolve_workers(workers)
    except InvalidParams as exc:
        _fail(exc)
    n_samples = int(samples)

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
