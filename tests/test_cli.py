import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

from graphflow import __version__, cli, errors, integrals
from graphflow.cli import main
from graphflow.curves import load_curve
from graphflow.diagrams import a2_of_curve
from graphflow.graphs import knot_order2_cocycle
from graphflow.integrals import (
    LK_RULE,
    MAX_GRID,
    MC_MAX_SAMPLES,
    SLN_RULE,
    X_GRID,
    X_RULE,
    linking_integral,
    sln_integral,
    v2_invariant,
)
from graphflow.solver import RationalMatrix
import oracles
from oracles import round_circle, theta_graph, to_text


class Result(NamedTuple):
    """A command's exit code and what it wrote to each stream."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """Everything the command wrote, as a terminal would show it: both streams."""
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


def run(*args, env=None) -> Result:
    """``main(args)`` in this process, with ``env`` added to the environment
    and both streams captured; an unhandled exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
            code = 0
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue(), err.getvalue())


def test_enumerate_knot_order1():
    res = run("graphs", "enumerate", "--flavor", "knot", "--order", "1")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["version"]
    assert doc["config"]["flavor"] == "knot"
    assert len(doc["result"]) == 1
    assert doc["result"][0]["ext"] == 2


def test_enumerate_stable_across_runs():
    a = run("graphs", "enumerate", "--flavor", "knot", "--order", "2").output
    b = run("graphs", "enumerate", "--flavor", "knot", "--order", "2").output
    assert a == b


def test_delta_of_theta_is_empty(tmp_path):
    path = tmp_path / "theta.txt"
    path.write_text(to_text(theta_graph()))
    res = run("graphs", "delta", "--input", str(path))
    assert res.exit_code == 0
    assert json.loads(res.output)["result"] == []


def test_delta_parse_error_exit_2(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("flavor knot\next 1\nint 0\nedge 1 2\n")
    result = run("graphs", "delta", "--input", str(path))
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"]["type"] == "InvalidGraph"


def test_delta_non_utf8_file_exit_2(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# caf\xe9\nflavor knot\next 2\nint 0\nedge 1 2\n")  # not UTF-8
    result = run("graphs", "delta", "--input", str(path))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"]["type"] == "InvalidGraph"


def test_resource_limit_exit_3():
    result = run("graphs", "enumerate", "--flavor", "manifold", "--order", "6")
    assert result.exit_code == 3
    assert json.loads(result.stderr)["error"]["type"] == "ResourceLimit"


def test_manifold_order5_exit_3_before_building_its_table():
    # 10! relabelings x 45 pairs x 3 words would take 3.9 GB
    result = run("graphs", "enumerate", "--flavor", "manifold", "--order", "5")
    assert result.exit_code == 3
    assert json.loads(result.stderr)["error"]["type"] == "ResourceLimit"


@pytest.mark.parametrize("order", ["20000000", str(10**18)])
def test_huge_order_exit_3_before_listing_combos(order):
    # a knot grade has about 2*order combos; the first is already past
    # MAX_VERTICES, so none of the others may be built
    result = run("graphs", "enumerate", "--flavor", "knot", "--order", order)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"]["type"] == "ResourceLimit"


@pytest.mark.parametrize(
    "args",
    [
        "cocycles --flavor manifold --order -2",
        "enumerate --flavor knot --order 0 --degree -3 --disconnected",
    ],
)
def test_order_below_one_exit_2(args):
    result = run("graphs", *args.split())
    assert result.exit_code == 2
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"]["type"] == "InvalidParams"


def test_delta_beyond_largest_group_exit_3(tmp_path):
    # contracting an edge of a 13-cycle leaves 12 vertices, whose 12!
    # relabelings exceed the 10! of the largest enumerated grade
    path = tmp_path / "cycle13.txt"
    edges = "".join(f"edge {i} {i % 13 + 1}\n" for i in range(1, 14))
    path.write_text("flavor manifold\nint 13\n" + edges)
    result = run("graphs", "delta", "--input", str(path))
    assert result.exit_code == 3
    assert json.loads(result.stderr)["error"]["type"] == "ResourceLimit"


#: Runs the CLI like ``python -m graphflow.cli`` in an address space capped
#: at 2 GiB, so that an allocation past the cap fails in that process only.
_CAPPED = (
    "import resource\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
    "from graphflow.cli import main\n"
    "main()\n"
)


@pytest.mark.parametrize(
    "text",
    [
        # n_int! is never taken: it would not finish
        "flavor manifold\nint 99999999999\nedge 1 2\n",
        "flavor knot\next 2\nint 99999999999\nedge 1 3\n",
        # 100,001 edges and arcs: _slots's (1, S, S) pair array would take 9.3 GiB
        "flavor knot\next 100000\nint 0\nedge 1 50001\n",
        # the contraction's 10! relabelings took 11.5 s and 3.5 GB
        "flavor manifold\nint 11\nedge 1 2\n",
    ],
    ids=["manifold-int-1e11", "knot-int-1e11", "knot-ext-1e5", "manifold-int-11"],
)
def test_delta_past_the_shape_bound_exit_3_before_allocating(text, tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    _assert_capped_run_exits_3("graphs", "delta", "--input", str(path))


@pytest.mark.parametrize("command", ["sln --curve circle", "lk --curve hopf_a --curve2 hopf_b"])
def test_huge_grid_exit_3_before_allocating(command):
    # a (2e9,) parameter array alone would take 16 GB
    _assert_capped_run_exits_3("knot", *command.split(), "--grid", "2000000000", "--no-cache")


def _assert_capped_run_exits_3(*args):
    """The command, run under _CAPPED, exits 3 with a ResourceLimit and no
    output, in far less time than the work it refuses would take."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env["OPENBLAS_NUM_THREADS"] = "1"  # OpenBLAS reserves address space per thread at import
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _CAPPED, *args], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == b""
    assert json.loads(proc.stderr)["error"]["type"] == "ResourceLimit"
    assert time.perf_counter() - start < 20  # a fresh process; the check itself is immediate


def _v2_after_a_cached_run(tmp_path, *extra, env=None):
    """A v2 run whose result is already cached, with ``extra`` options."""
    args = ["knot", "v2", "--curve", "circle", "--samples", "64", "--cache-dir", str(tmp_path)]
    assert run(*args).exit_code == 0
    return run(*args, *extra, env=env)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_v2_worker_count_below_one_exit_2(workers, tmp_path):
    result = _v2_after_a_cached_run(tmp_path, "--workers", workers)
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"]["type"] == "InvalidParams"


def test_v2_non_integer_worker_env_exit_2(tmp_path):
    result = _v2_after_a_cached_run(tmp_path, env={"GRAPHFLOW_WORKERS": "abc"})
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"]["type"] == "InvalidParams"


def test_cocycles_contains_paper_direction():
    res = run("graphs", "cocycles", "--flavor", "manifold", "--order", "2")
    doc = json.loads(res.output)
    assert len(doc["result"]["kernel"]) >= 1
    assert len(doc["result"]["basis"]) == 17


def test_a2_bundled_trefoil(tmp_path):
    res = run("knot", "a2", "--curve", "trefoil", "--cache-dir", str(tmp_path))
    doc = json.loads(res.output)
    assert doc["result"]["a2"] == 1


def test_sln_circle(tmp_path):
    res = run(
        "knot", "sln", "--curve", "circle", "--grid", "512", "--cache-dir", str(tmp_path)
    )
    doc = json.loads(res.output)
    assert abs(doc["result"]["value"]) < 1e-6


def test_lk_hopf(tmp_path):
    res = run(
        "knot",
        "lk",
        "--curve",
        "hopf_a",
        "--curve2",
        "hopf_b",
        "--grid",
        "512",
        "--cache-dir",
        str(tmp_path),
    )
    doc = json.loads(res.output)
    assert doc["result"]["value"] == json.loads(res.output)["result"]["value"]
    assert abs(doc["result"]["value"] - 1.0) < 1e-3


def test_validation_failure_exit_4(tmp_path):
    import numpy as np

    t = np.arange(128) / 128
    pts = np.stack([np.sin(4 * np.pi * t), np.sin(2 * np.pi * t), 0 * t], axis=1)
    path = tmp_path / "bad_curve.json"
    path.write_text(json.dumps({"type": "polyline", "points": pts.tolist()}))
    result = run("knot", "sln", "--curve", str(path), "--cache-dir", str(tmp_path / "c"))
    assert result.exit_code == 4
    err = json.loads(result.stderr)
    assert err["error"]["type"] == "CurveValidationError"
    assert err["error"]["invariant"] == "embedded"


def test_unknown_curve_exit_2(tmp_path):
    result = run("knot", "sln", "--curve", "nope", "--cache-dir", str(tmp_path))
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args, code",
    [
        ("sln --curve circle --grid 0", 2),
        ("sln --curve circle --grid 1", 2),
        ("sln --curve circle --grid 16", 2),
        ("sln --curve circle --grid 17", 0),
        ("sln --curve circle --grid 16385", 3),
        ("lk --curve hopf_a --curve2 hopf_b --grid 1", 2),
        ("lk --curve hopf_a --curve2 hopf_b --grid 2", 0),
        ("lk --curve hopf_a --curve2 hopf_b --grid 16385", 3),
        ("v2 --curve circle --samples nan", 2),
        ("v2 --curve circle --samples inf", 2),
        ("v2 --curve circle --samples 0", 2),
        ("v2 --curve circle --samples 1", 0),
        ("v2 --curve circle --samples 64 --seed -1", 2),
        ("a2 --curve trefoil --directions -2", 2),
        ("a2 --curve trefoil --directions 1", 0),
        ("a2 --curve trefoil --directions 1025", 3),
        ("a2 --curve trefoil --directions 100000000", 3),
        ("a2 --curve trefoil --seed -1", 2),
        ("a2 --curve {dir}", 2),
        ("a2 --curve {dir}/latin1.json", 2),
        ("sln --curve {dir}/empty-harmonics.json", 2),
        ("sln --curve {dir}/no-sine-harmonics.json", 2),
    ],
)
def test_param_bounds_exit_code(args, code, tmp_path):
    (tmp_path / "latin1.json").write_bytes(b'{"name": "\xe9"}')  # not UTF-8
    # Fourier harmonic entries too short to hold cosine and sine rows
    for name, harmonics in [("empty", [[], [], []]), ("no-sine", [[[1, 0]], [[0, 1]]])]:
        (tmp_path / f"{name}-harmonics.json").write_text(json.dumps({"type": "fourier", "harmonics": harmonics}))
    args = ["knot", *args.format(dir=tmp_path).split(), "--no-cache"]
    result = run(*args)
    assert result.exit_code == code
    if code:
        want = {2: "InvalidParams", 3: "ResourceLimit"}[code]
        assert json.loads(result.stderr)["error"]["type"] == want


def test_sln_grid_is_checked_before_the_cache_lookup(tmp_path, monkeypatch):
    """An entry cached for a grid below SLN_MIN_GRID, whose coarsest
    sum has only 4 points, is never replayed."""
    args = ["knot", "sln", "--curve", "circle", "--grid", "16", "--cache-dir", str(tmp_path)]
    with monkeypatch.context() as m:
        m.setattr(cli, "SLN_MIN_GRID", 2)
        m.setattr(integrals, "SLN_MIN_GRID", 2)
        assert json.loads(run(*args).output)["result"]["value"] == 0.0
    assert len(list(tmp_path.rglob("*.json"))) == 1
    result = run(*args)
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"]["type"] == "InvalidParams"


@pytest.mark.parametrize("command", ["sln --curve circle", "lk --curve hopf_a --curve2 hopf_b"])
def test_grid_above_the_limit_is_checked_before_the_cache_lookup(command, tmp_path, monkeypatch):
    """An entry cached at a grid that a lower MAX_GRID refuses is never
    replayed: the bound holds before the lookup, as SLN_MIN_GRID does."""
    assert MAX_GRID == 16384
    args = ["knot", *command.split(), "--grid", "64", "--cache-dir", str(tmp_path)]
    assert run(*args).exit_code == 0
    assert len(list(tmp_path.rglob("*.json"))) == 1
    monkeypatch.setattr(integrals, "MAX_GRID", 32)
    result = run(*args)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"]["type"] == "ResourceLimit"


@pytest.mark.parametrize("samples", ["1e15", "1e30"])
def test_v2_samples_above_the_limit_exit_3(samples):
    assert float(samples) > MC_MAX_SAMPLES
    args = ["knot", "v2", "--curve", "circle", "--samples", samples, "--no-cache"]
    result = run(*args)
    assert result.exit_code == 3
    assert json.loads(result.stderr)["error"]["type"] == "ResourceLimit"


def _nonfinite_curve(kind: str, bad: float) -> dict:
    if kind == "fourier":
        obj = load_curve("trefoil").to_json_obj()
        obj["harmonics"][0][0][1] = bad
        return obj
    circle = round_circle(1.0).eval(np.arange(64) / 64).tolist()
    circle[17][2] = bad
    return {"type": "polyline", "points": circle}


@pytest.mark.parametrize("bad", [math.nan, math.inf, pytest.param(10**400, id="int-1e400")])
@pytest.mark.parametrize("kind", ["fourier", "polyline"])
def test_nonfinite_curve_exit_2(kind, bad, tmp_path):
    path = tmp_path / "curve.json"
    # writes NaN / Infinity, or an integer beyond float range
    path.write_text(json.dumps(_nonfinite_curve(kind, bad)))
    result = run("knot", "sln", "--curve", str(path), "--cache-dir", str(tmp_path / "c"))
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"]["type"] == "InvalidParams"
    assert not (tmp_path / "c").exists()  # nothing cached


@pytest.mark.parametrize(
    "args",
    [
        ["a2", "--curve", "CURVE"],
        ["sln", "--curve", "CURVE"],
        ["v2", "--curve", "CURVE"],
        ["lk", "--curve", "CURVE", "--curve2", "hopf_b"],
        ["lk", "--curve", "hopf_b", "--curve2", "CURVE"],
    ],
    ids=["a2", "sln", "v2", "lk-curve", "lk-curve2"],
)
def test_knot_commands_validate_each_curve_exit_4(args, tmp_path):
    """Every knot command rejects a self-crossing curve, lk in either
    position: the figure-eight polyline at z = 10 lies far from hopf_b,
    so lk's separation check alone passes it."""
    t = np.arange(256) / 256
    pts = np.stack([np.sin(4 * np.pi * t), np.sin(2 * np.pi * t), 10 + 0 * t], axis=1)
    path = tmp_path / "figure_eight.json"
    path.write_text(json.dumps({"type": "polyline", "points": pts.tolist()}))
    args = [str(path) if a == "CURVE" else a for a in args]
    result = run("knot", *args, "--no-cache")
    assert result.exit_code == 4 and result.stdout == ""
    err = json.loads(result.stderr)["error"]
    assert (err["type"], err["invariant"]) == ("CurveValidationError", "embedded")


@pytest.mark.parametrize(
    "args",
    [["a2"], ["sln"], ["v2"], ["lk", "--curve2", "hopf_b"]],
    ids=["a2", "sln", "v2", "lk"],
)
def test_curve_beyond_float_range_exit_2(args, tmp_path):
    """Finite points whose differences overflow: the sampled points are not
    finite, which validate refuses, without a RuntimeWarning, before any
    command computes on them."""
    path = tmp_path / "triangle.json"
    points = [[1e308, 0, 0], [-1e308, 0, 0], [0, 1e308, 0]]
    path.write_text(json.dumps({"type": "polyline", "points": points}))
    cache = tmp_path / "c"
    result = run("knot", *args, "--curve", str(path), "--cache-dir", str(cache))
    assert result.exit_code == 2 and result.stdout == ""
    assert json.loads(result.stderr)["error"]["type"] == "InvalidParams"
    assert not cache.exists()  # nothing cached


#: Modules that a command loads only when it runs them: numpy (its core,
#: as the package makes ``numpy`` itself a lazy module), the graph complex,
#: its solver, the planar projections, the thread pool of --workers and
#: ``inspect``, which ``dataclasses`` loads; and click, which none loads.
WATCHED = (
    "numpy._core", "graphflow.graphs", "graphflow.solver", "graphflow.diagrams", "concurrent.futures", "inspect",
    "click",
)

#: Runs the CLI like ``python -m graphflow.cli`` and reports, as the last
#: line of stderr, which WATCHED modules were loaded when the process ended.
_PROBE = (
    "import atexit, sys\n"
    f"atexit.register(lambda: print('loaded:', *[m for m in {WATCHED!r} if m in sys.modules], file=sys.stderr))\n"
    "from graphflow.cli import main\n"
    "main()\n"
)


def _probe(args, cache_dir) -> tuple[int, bytes, set[str], list[str]]:
    """(exit code, stdout, the WATCHED modules loaded, the other stderr
    lines) of a fresh process, the only place where the lazy imports
    show: this one has loaded them all."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "GRAPHFLOW_CACHE_DIR": str(cache_dir)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *args], capture_output=True, env=env, timeout=120)
    *rest, last = proc.stderr.decode().splitlines()
    assert last.startswith("loaded:")
    return proc.returncode, proc.stdout, set(last.split()[1:]), rest


@pytest.mark.parametrize(
    "args, code",
    [
        (["--version"], 0),
        (["--help"], 0),
        (["knot", "--help"], 0),
        (["knot", "sln", "--help"], 0),
        ([], 2),
        (["graphs"], 2),
        (["knot"], 2),
        (["nope"], 2),
        (["knot", "sln"], 2),
        (["graphs", "cocycles", "--flavor", "nope", "--order", "2"], 2),
        (["knot", "sln", "--curve", "trefoil", "--grid", "x"], 2),
        (["knot", "a2", "--curve", "trefoil", "--seed", "1.5"], 2),
        (["graphs", "delta", "--input", "{dir}/missing.txt"], 2),
        (["graphs", "delta", "--input", "{dir}"], 2),
        (["knot", "sln", "--curve", "trefoil", "--cache-dir", "{dir}/file"], 2),
        (["knot", "sln", "--cur", "trefoil"], 2),
        (["knot", "sln", "--curve", "nope"], 2),
    ],
    ids=[
        "version", "help", "group-help", "command-help", "no-arguments", "graphs-alone",
        "knot-alone", "unknown-command", "missing-option", "bad-choice", "grid-not-integer",
        "seed-not-integer", "missing-input", "input-is-directory", "cache-dir-is-file",
        "abbreviated-option", "unknown-curve",
    ],
)
def test_start_up_never_loads_numpy(args, code, tmp_path):
    """Start-up loads neither numpy nor any other WATCHED module; help
    goes to stdout, and every usage error exits 2 with nothing on it."""
    (tmp_path / "file").write_text("")
    args = [a.format(dir=tmp_path) for a in args]
    exit_code, out, loaded, _ = _probe(args, tmp_path / "cache")
    assert exit_code == code and loaded == set()
    assert bool(out) == (code == 0)
    if args == ["--version"]:
        assert out.decode() == f"graphflow, version {__version__}\n"


def test_version_line_is_the_same_under_python_m():
    """``python -m graphflow.cli`` names the program as the entry point does."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "graphflow.cli", "--version"]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout.decode() == f"graphflow, version {__version__}\n"


KNOT_ARGS = {
    "a2": ["knot", "a2", "--curve", "trefoil"],
    "sln": ["knot", "sln", "--curve", "trefoil", "--grid", "64"],
    "lk": ["knot", "lk", "--curve", "hopf_a", "--curve2", "hopf_b", "--grid", "64"],
    "v2": ["knot", "v2", "--curve", "circle", "--samples", "64", "--workers", "1"],
}

#: The WATCHED modules that a cache miss of each knot command loads; numpy
#: loads ``inspect`` itself, as do ``diagrams`` and ``graphs`` through ``dataclasses``.
MISS_LOADS = {
    "a2": {"numpy._core", "graphflow.diagrams", "inspect"},
    "sln": {"numpy._core", "inspect"},
    "lk": {"numpy._core", "inspect"},
    "v2": {"numpy._core", "graphflow.graphs", "inspect"},
}


@pytest.mark.parametrize("command", list(KNOT_ARGS))
def test_cache_hit_never_loads_numpy(command, tmp_path):
    """A miss computes with numpy and loads only the modules its command
    runs; the hit after it only hashes the curves and reads the entry,
    prints the miss's stdout byte for byte and loads no WATCHED module."""
    code, miss, loaded, _ = _probe(KNOT_ARGS[command], tmp_path)
    assert code == 0 and loaded == MISS_LOADS[command]
    assert json.loads(miss)["command"] == f"knot {command}"
    code, hit, loaded, _ = _probe(KNOT_ARGS[command], tmp_path)
    assert code == 0 and loaded == set()
    assert hit == miss


def test_v2_thread_pool_loads_only_for_more_workers(tmp_path):
    """One worker never loads concurrent.futures; two use its pool and
    print the same bytes."""
    args = ["knot", "v2", "--curve", "circle", "--samples", "6400", "--no-cache", "--workers"]
    code1, out1, loaded1, _ = _probe([*args, "1"], tmp_path)
    code2, out2, loaded2, _ = _probe([*args, "2"], tmp_path)
    assert code1 == code2 == 0 and out1 == out2
    assert "concurrent.futures" not in loaded1 and "concurrent.futures" in loaded2


def test_result_beyond_float_range_exit_2(tmp_path):
    """The trefoil with every coefficient times 1e120 passes validate, but
    its sln overflows to NaN, which JSON cannot carry: the command exits
    2 before it prints or caches anything.  It runs in a fresh process,
    where the overflow is a warning, as for a user, and not the error the
    test configuration makes of it."""
    big = oracles.scaled(load_curve("trefoil"), 1e120)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big.to_json_obj()))
    cache = tmp_path / "cache"
    code, out, _, err = _probe(["knot", "sln", "--curve", str(path), "--grid", "64"], cache)
    assert code == 2 and out == b""
    assert json.loads(err[-1])["error"]["type"] == "InvalidParams"
    assert not cache.exists()  # nothing cached


@pytest.mark.parametrize("blocked", ["cache-dir", "subdir"])
def test_cache_that_cannot_be_written_costs_only_the_entry(blocked, tmp_path, monkeypatch):
    """A regular file where the cache directory, or the key[:2]
    subdirectory of the entry, should be: the command prints its result,
    exits 0 and says on one stderr line that it was not cached, and it
    leaves no temp file behind."""
    args = ["knot", "sln", "--curve", "circle", "--grid", "64"]
    first = tmp_path / "first"
    expected = run(*args, "--cache-dir", str(first)).stdout
    cache = tmp_path / "cache"
    if blocked == "cache-dir":
        cache.write_text("")
    else:
        (entry,) = first.rglob("*.json")
        cache.mkdir()
        (cache / entry.parent.name).write_text("")
    monkeypatch.setenv("GRAPHFLOW_CACHE_DIR", str(cache))
    result = run(*args)
    assert result.exit_code == 0 and result.stdout == expected
    (line,) = result.stderr.splitlines()
    assert json.loads(line)["warning"].startswith("result not cached: ")
    assert list(tmp_path.rglob("*.tmp")) == []


def test_v2_repeat_runs_byte_identical(tmp_path, monkeypatch):
    args = [
        "knot",
        "v2",
        "--curve",
        "circle",
        "--samples",
        "1e5",
        "--seed",
        "42",
        "--cache-dir",
        str(tmp_path),
    ]
    first = run(*args)  # miss
    assert first.exit_code == 0
    with monkeypatch.context() as m:
        m.setattr(cli, "v2_invariant", None)  # a hit computes nothing
        second = run(*args)
    assert second.stdout_bytes == first.stdout_bytes
    third = run(*args, "--no-cache")  # honest recompute
    assert third.stdout_bytes == first.stdout_bytes
    doc = json.loads(first.output)
    assert doc["config"]["seed"] == 42
    # the grid is in the cache key, so no result of another grid is replayed
    assert doc["config"]["x_grid"] == X_GRID
    assert doc["result"]["omitted_terms"][0]["graph"]["int"] == 2


def test_v2_cache_file_created(tmp_path):
    args = [
        "knot",
        "v2",
        "--curve",
        "circle",
        "--samples",
        "64",
        "--seed",
        "1",
        "--cache-dir",
        str(tmp_path),
    ]
    run(*args)
    files = list(tmp_path.rglob("*.json"))
    assert len(files) == 1
    stored = json.loads(files[0].read_text())
    assert stored["command"] == "knot v2"


def test_curve_file_and_bundled_name_equivalent(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(round_circle(1.0).to_json_obj()))
    a = run("knot", "sln", "--curve", str(path), "--grid", "256", "--no-cache")
    b = run("knot", "sln", "--curve", "circle", "--grid", "256", "--no-cache")
    assert json.loads(a.output)["result"]["value"] == json.loads(b.output)["result"]["value"]


#: sha256 of the stdout of ``graphs cocycles``: the basis, its order and
#: every kernel vector, byte for byte, as the brute-force canonical forms
#: and the Bareiss kernel produced them.  Knot order 3 (4,609,641 bytes)
#: has the most kernel work, 1,346 vectors of 1,660 entries.
COCYCLES_SHA256 = {
    ("manifold", 2): "74e01de98fd68467d2a28e0cb818cd7f4b99d39a2dec22c88d1057a93b17eb5b",
    ("manifold", 3): "33b6482db6c710da65f5b2a6c355711b6f81c46c108e88592c9457d41c6e44cf",
    ("knot", 2): "8ee68530d2717ea15c7f0504af4c0d90339f84ffeaf69cee5c5c6d1bb44db9a9",
    ("knot", 3): "4889211f1bce023ebeb6747ebd8910b8c5ee7369fc39ac0ea7d45a93f5b25e15",
}


@pytest.mark.parametrize("flavor, order", list(COCYCLES_SHA256))
def test_cocycles_stdout_pinned(flavor, order):
    res = run("graphs", "cocycles", "--flavor", flavor, "--order", str(order))
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == COCYCLES_SHA256[(flavor, order)]


@pytest.mark.parametrize("flavor", ["manifold", "knot"])
def test_cocycles_never_read_the_dense_view(flavor, monkeypatch):
    def refuse(self):
        raise AssertionError("graphs cocycles read RationalMatrix.entries")

    monkeypatch.setattr(RationalMatrix, "entries", property(refuse))
    res = run("graphs", "cocycles", "--flavor", flavor, "--order", "2")
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == COCYCLES_SHA256[(flavor, 2)]


#: sha256 of the stdout of ``knot v2 --curve K --samples 2e4 --seed 11
#: --no-cache``: the crossed-chord quadrature, the tripod's Monte Carlo
#: draws, integrand and reduction, byte for byte.  Re-pinned when X took
#: its second Richardson step (config ``x_rule``).
V2_SHA256 = {
    "circle": "dee5e8f01d390fe257da014e50416434a127a5db63a8d51bcff3665bfc8bc99b",
    "trefoil": "72623c5c66c2cb0ab43147cf779ffad3bafbfbe39acb2f509c2d4f3a3f6351b1",
    "figure_eight": "c3ff3bfc5c90ee9328edaf917a5f1c6918eb635448fcef5d71566d7a6bab96ba",
    "torus_2_5": "cc0153167688d9221da3bb2d90ea42f0d57fbc14e1afb5cb1f208ea60f3e3a74",
}


@pytest.mark.parametrize("curve", list(V2_SHA256))
def test_v2_stdout_pinned(curve):
    res = run("knot", "v2", "--curve", curve, "--samples", "2e4", "--seed", "11", "--no-cache")
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == V2_SHA256[curve]


#: sha256 of the stdout of ``knot sln --curve K --no-cache`` (grid 1024):
#: the Gauss grid, its plain sums on grids 256, 512 and 1024 and the
#: Richardson step, byte for byte.  Re-pinned when the plain sums replaced
#: the banded ones (config ``rule``).
SLN_SHA256 = {
    "circle": "bb1b5ba1488ec234665a96a68e956bee5c20a4151567ff7271cb6ad867615f4e",
    "trefoil": "f4526bb6e7d2a0a1fd050c52c1501f84cfe101ee23577e09e272d81dec66b28a",
    "figure_eight": "23e196260c186e6f01a33efb7e655f1858e65207a2734160b5192dd41d5d1568",
    "torus_2_5": "8ad9bb999c10b2bf21f80cb1f35c4ce87b17fca295b7836fb02a02f246a73adf",
}
#: sha256 of the stdout of ``knot lk --curve hopf_a --curve2 hopf_b --no-cache``
#: (grid 1024): the sums on grids 512 and 1024, their 64-row block sums
#: added left to right as sln adds them.  Re-pinned when the block sums
#: replaced one pairwise sum (config ``rule``; the value moved one ulp).
LK_SHA256 = "9872609bfdfd14ce734caf574f0dd872369cd910d7a1064a3ef9fac615e0abb4"


@pytest.mark.parametrize("curve", list(SLN_SHA256))
def test_sln_stdout_pinned(curve):
    res = run("knot", "sln", "--curve", curve, "--no-cache")
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == SLN_SHA256[curve]


def test_lk_stdout_pinned():
    res = run("knot", "lk", "--curve", "hopf_a", "--curve2", "hopf_b", "--no-cache")
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == LK_SHA256


def _sln_circle(cache_dir):
    return run("knot", "sln", "--curve", "circle", "--grid", "64", "--cache-dir", str(cache_dir))


def test_truncated_cache_entry_is_recomputed(tmp_path):
    first = _sln_circle(tmp_path)
    (entry,) = tmp_path.rglob("*.json")
    full = entry.read_text()
    assert full == first.output
    entry.write_text(full[: len(full) // 2])
    again = _sln_circle(tmp_path)
    assert again.exit_code == 0
    assert again.output == first.output
    assert entry.read_text() == full
    assert [p.name for p in entry.parent.iterdir()] == [entry.name]


def test_cache_entry_for_another_config_is_recomputed(tmp_path):
    first = _sln_circle(tmp_path)
    (entry,) = tmp_path.rglob("*.json")
    doc = json.loads(entry.read_text())
    doc["config"]["grid"] = 65
    doc["result"]["value"] = 123.0
    entry.write_text(json.dumps(doc))
    again = _sln_circle(tmp_path)
    assert again.exit_code == 0
    assert again.output == first.output
    assert entry.read_text() == first.output


@pytest.mark.parametrize(
    "args, rule_key",
    [
        (["sln", "--curve", "circle", "--grid", "64"], "rule"),
        (["v2", "--curve", "circle", "--samples", "64", "--seed", "1"], "x_rule"),
    ],
    ids=["sln", "v2"],
)
def test_entry_of_the_previous_rule_is_not_replayed(args, rule_key, tmp_path):
    """An entry stored under the config that the banded sln rule and
    X's one-step rule used, which named no rule, is never replayed."""
    fresh = run("knot", *args, "--no-cache")
    doc = json.loads(fresh.output)
    old = {k: v for k, v in doc["config"].items() if k != rule_key}
    key_src = {"command": doc["command"], "key": old, "version": __version__}
    key = hashlib.sha256(json.dumps(key_src, sort_keys=True).encode()).hexdigest()
    path = tmp_path / key[:2] / (key + ".json")
    path.parent.mkdir()
    planted = {**doc, "config": old, "result": {**doc["result"], "value": 123.0}}
    path.write_text(json.dumps(planted, indent=2, sort_keys=True) + "\n")
    assert cli._read_entry(path, doc["command"], old) is not None  # replayed under the old key
    res = run("knot", *args, "--cache-dir", str(tmp_path))
    assert res.stdout_bytes == fresh.stdout_bytes
    assert len(list(tmp_path.rglob("*.json"))) == 2


def _every_error():
    """An instance of each exception class in graphflow.errors, plus the
    JSON parse error a bad curve file raises and the oracles' errors,
    which no row of the table names, for its GraphflowError row."""
    out = [json.JSONDecodeError("bad", "{", 1)]
    oracle_errors = [oracles.CoincidentPoints, oracles.DimensionMismatch, oracles.UnsupportedGraph]
    for cls in [*vars(errors).values(), *oracle_errors]:
        if isinstance(cls, type) and issubclass(cls, errors.GraphflowError):
            if cls is errors.CurveValidationError:
                out.append(cls("embedded", "boom"))
            else:
                out.append(cls("boom"))
    return out


EXIT_CODES = {
    "JSONDecodeError": 2,
    "GraphflowError": 1,
    "InvalidGraph": 2,
    "NotRegular": 1,
    "NotContractible": 1,
    "ResourceLimit": 3,
    "GradeMismatch": 1,
    "InvalidParams": 2,
    "CurveValidationError": 4,
    "DegenerateProjection": 1,
    "InconsistentDiagram": 4,
    "CoincidentPoints": 1,
    "DimensionMismatch": 1,
    "SamplingFailed": 1,
    "UnsupportedGraph": 1,
    "CurvesIntersect": 4,
}


def test_exit_code_table_covers_every_error():
    assert sorted(type(e).__name__ for e in _every_error()) == sorted(EXIT_CODES)


@pytest.mark.parametrize("exc", _every_error(), ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("caller", ["_run", "_cached"])
def test_exit_code_table(exc, caller, tmp_path, capsys):
    def compute():
        raise exc

    with pytest.raises(SystemExit) as stop:
        if caller == "_run":
            cli._run("test", {}, compute)
        else:
            cli._cached("test", lambda: {}, str(tmp_path), False, compute)
    assert stop.value.code == EXIT_CODES[type(exc).__name__]
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == type(exc).__name__
    assert not list(tmp_path.iterdir())  # nothing cached


def _a2_doc():
    curve = load_curve("trefoil")
    h = curve.content_hash()
    config = {"curve": "trefoil", "curve_hash": h, "directions": 3, "seed": 7}
    return config, {"a2": a2_of_curve(curve, directions=3, seed=7), "curve_hash": h}


def _sln_doc():
    curve = load_curve("circle")
    h = curve.content_hash()
    config = {"curve": "circle", "curve_hash": h, "grid": 256, "rule": SLN_RULE}
    return config, {**sln_integral(curve, grid=256).to_json_obj(), "op": "sln", "curve_hash": h}


def _lk_doc():
    k1, k2 = load_curve("hopf_a"), load_curve("hopf_b")
    hashes = {"curve_hash": k1.content_hash(), "curve2_hash": k2.content_hash()}
    config = {"curve": "hopf_a", "curve2": "hopf_b", "grid": 256, **hashes, "rule": LK_RULE}
    return config, {**linking_integral(k1, k2, grid=256).to_json_obj(), "op": "lk", **hashes}


def _v2_doc():
    curve = load_curve("trefoil")
    h = curve.content_hash()
    # the cocycle's one internal-loop term: a doubled edge between its internal vertices
    cocycle = knot_order2_cocycle()
    [(c, g)] = [(c, g) for g, c in cocycle.items() if len(set(g.edges)) < len(g.edges)]
    omitted = [{"coeff": f"{c.numerator}/{c.denominator}", "graph": g.to_json_obj()}]
    result = v2_invariant(curve, n_samples=20000, seed=11).to_json_obj()
    config = {"curve": "trefoil", "curve_hash": h, "samples": 20000, "seed": 11}
    config |= {"x_grid": X_GRID, "x_rule": X_RULE}
    return config, {**result, "op": "v2", "curve_hash": h, "omitted_terms": omitted}


@pytest.mark.parametrize(
    "args, expected",
    [
        (["a2", "--curve", "trefoil"], _a2_doc),
        (["sln", "--curve", "circle", "--grid", "256"], _sln_doc),
        (["lk", "--curve", "hopf_a", "--curve2", "hopf_b", "--grid", "256"], _lk_doc),
        (["v2", "--curve", "trefoil", "--samples", "2e4", "--seed", "11"], _v2_doc),
    ],
    ids=["a2", "sln", "lk", "v2"],
)
def test_knot_command_whole_document(args, expected, tmp_path):
    """Every field of a knot command's output equals the library's own
    values for the same curves and parameters."""
    res = run("knot", *args, "--cache-dir", str(tmp_path))
    assert res.exit_code == 0
    config, result = expected()
    command = "knot " + args[0]
    assert json.loads(res.output) == {
        "command": command, "config": config, "version": __version__, "result": result
    }


#: Every option of every command: (name, type, default or "required").
#: Adding, dropping or renaming an option has to update this table.
CLI_OPTIONS = {
    "": [("version", "boolean", False)],
    "graphs": [],
    "graphs cocycles": [("flavor", "choice", "required"), ("order", "integer", "required")],
    "graphs delta": [("path", "file", "required")],
    "graphs enumerate": [
        ("flavor", "choice", "required"),
        ("order", "integer", "required"),
        ("degree", "integer", 0),
        ("disconnected", "boolean", False),
    ],
    "knot": [],
    "knot a2": [
        ("curve_path", "text", "required"),
        ("directions", "integer", 3),
        ("seed", "integer", 7),
        ("cache_dir", "directory", None),
        ("no_cache", "boolean", False),
    ],
    "knot lk": [
        ("curve_path", "text", "required"),
        ("curve2_path", "text", "required"),
        ("grid", "integer", 1024),
        ("cache_dir", "directory", None),
        ("no_cache", "boolean", False),
    ],
    "knot sln": [
        ("curve_path", "text", "required"),
        ("grid", "integer", 1024),
        ("cache_dir", "directory", None),
        ("no_cache", "boolean", False),
    ],
    "knot v2": [
        ("curve_path", "text", "required"),
        ("samples", "float", 1e6),
        ("seed", "integer", 20259),
        ("workers", "integer", None),
        ("cache_dir", "directory", None),
        ("no_cache", "boolean", False),
    ],
}


#: The name of each option type in CLI_OPTIONS; a flag is "boolean".
TYPE_NAMES = {None: "text", int: "integer", float: "float", cli._file: "file", cli._directory: "directory"}


def test_cli_option_surface_pinned():
    def walk(parser, path):
        options = []
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    yield from walk(sub, path + (name,))
            elif not isinstance(action, argparse._HelpAction):
                kind = "choice" if action.choices else "boolean" if action.nargs == 0 else TYPE_NAMES[action.type]
                # a flag left out reads False; --version stores nothing, as it exits at once
                default = False if action.default is argparse.SUPPRESS else action.default
                options.append((action.dest, kind, "required" if action.required else default))
        yield " ".join(path), options

    assert dict(walk(cli._parser(), ())) == CLI_OPTIONS
