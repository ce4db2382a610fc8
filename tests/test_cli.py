import hashlib
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from graphflow import __version__, cli, errors
from graphflow.cli import main
from graphflow.curves import load_curve, round_circle
from graphflow.diagrams import a2_of_curve
from graphflow.graphs import knot_order2_cocycle, theta_graph
from graphflow.integrals import (
    MC_MAX_SAMPLES,
    X_GRID,
    linking_integral,
    sln_integral,
    split_cocycle_terms,
    v2_invariant,
)
from graphflow.solver import RationalMatrix
import oracles


def run(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


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
    path.write_text(theta_graph().to_text())
    res = run("graphs", "delta", "--input", str(path))
    assert res.exit_code == 0
    assert json.loads(res.output)["result"] == []


def test_delta_parse_error_exit_2(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("flavor knot\next 1\nint 0\nedge 1 2\n")
    result = CliRunner().invoke(main, ["graphs", "delta", "--input", str(path)])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"]["type"] == "InvalidGraph"


def test_delta_non_utf8_file_exit_2(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# caf\xe9\nflavor knot\next 2\nint 0\nedge 1 2\n")  # not UTF-8
    result = CliRunner().invoke(main, ["graphs", "delta", "--input", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"]["type"] == "InvalidGraph"


def test_resource_limit_exit_3():
    result = CliRunner().invoke(
        main, ["graphs", "enumerate", "--flavor", "manifold", "--order", "6"]
    )
    assert result.exit_code == 3
    assert json.loads(result.stderr)["error"]["type"] == "ResourceLimit"


@pytest.mark.parametrize(
    "args",
    [
        "cocycles --flavor manifold --order -2",
        "enumerate --flavor knot --order 0 --degree -3 --disconnected",
    ],
)
def test_order_below_one_exit_2(args):
    result = CliRunner().invoke(main, ["graphs", *args.split()])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"]["type"] == "InvalidParams"


def test_delta_beyond_largest_group_exit_3(tmp_path):
    # contracting an edge of a 13-cycle leaves 12 vertices, whose 12!
    # relabelings exceed the 10! of the largest enumerated grade
    path = tmp_path / "cycle13.txt"
    edges = "".join(f"edge {i} {i % 13 + 1}\n" for i in range(1, 14))
    path.write_text("flavor manifold\nint 13\n" + edges)
    result = CliRunner().invoke(main, ["graphs", "delta", "--input", str(path)])
    assert result.exit_code == 3
    assert json.loads(result.stderr)["error"]["type"] == "ResourceLimit"


def _v2_after_a_cached_run(tmp_path, *extra, env=None):
    """A v2 run whose result is already cached, with ``extra`` options."""
    args = ["knot", "v2", "--curve", "circle", "--samples", "64", "--cache-dir", str(tmp_path)]
    assert run(*args).exit_code == 0
    return CliRunner().invoke(main, [*args, *extra], env=env)


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
    result = CliRunner().invoke(
        main, ["knot", "sln", "--curve", str(path), "--cache-dir", str(tmp_path / "c")]
    )
    assert result.exit_code == 4
    err = json.loads(result.stderr)
    assert err["error"]["type"] == "CurveValidationError"
    assert err["error"]["invariant"] == "embedded"


def test_unknown_curve_exit_2(tmp_path):
    result = CliRunner().invoke(
        main, ["knot", "sln", "--curve", "nope", "--cache-dir", str(tmp_path)]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args, code",
    [
        ("sln --curve circle --grid 0", 2),
        ("sln --curve circle --grid 1", 2),
        ("sln --curve circle --grid 2", 0),
        ("lk --curve hopf_a --curve2 hopf_b --grid 1", 2),
        ("lk --curve hopf_a --curve2 hopf_b --grid 2", 0),
        ("v2 --curve circle --samples nan", 2),
        ("v2 --curve circle --samples inf", 2),
        ("v2 --curve circle --samples 0", 2),
        ("v2 --curve circle --samples 1", 0),
        ("v2 --curve circle --samples 64 --seed -1", 2),
        ("a2 --curve trefoil --directions -2", 2),
        ("a2 --curve trefoil --directions 1", 0),
        ("a2 --curve trefoil --seed -1", 2),
        ("a2 --curve {dir}", 2),
        ("a2 --curve {dir}/latin1.json", 2),
    ],
)
def test_param_bounds_exit_code(args, code, tmp_path):
    (tmp_path / "latin1.json").write_bytes(b'{"name": "\xe9"}')  # not UTF-8
    args = ["knot", *args.format(dir=tmp_path).split(), "--no-cache"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == code
    if code:
        assert json.loads(result.stderr)["error"]["type"] == "InvalidParams"


@pytest.mark.parametrize("samples", ["1e15", "1e30"])
def test_v2_samples_above_the_limit_exit_3(samples):
    assert float(samples) > MC_MAX_SAMPLES
    args = ["knot", "v2", "--curve", "circle", "--samples", samples, "--no-cache"]
    result = CliRunner().invoke(main, args)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kind", ["fourier", "polyline"])
def test_nonfinite_curve_exit_2(kind, bad, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(_nonfinite_curve(kind, bad)))  # writes NaN / Infinity
    result = CliRunner().invoke(
        main, ["knot", "sln", "--curve", str(path), "--cache-dir", str(tmp_path / "c")]
    )
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"]["type"] == "InvalidParams"
    assert not (tmp_path / "c").exists()  # nothing cached


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
#: and the Bareiss kernel produced them.
COCYCLES_SHA256 = {
    ("manifold", 2): "74e01de98fd68467d2a28e0cb818cd7f4b99d39a2dec22c88d1057a93b17eb5b",
    ("manifold", 3): "33b6482db6c710da65f5b2a6c355711b6f81c46c108e88592c9457d41c6e44cf",
    ("knot", 2): "8ee68530d2717ea15c7f0504af4c0d90339f84ffeaf69cee5c5c6d1bb44db9a9",
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
#: draws, integrand and reduction, byte for byte.
V2_SHA256 = {
    "circle": "748c5d3fdea5fe1bfe10a814d397bd7fe313cf4a7e85f31242e5386613e365d8",
    "trefoil": "02aef60fe199d25b7206b821d7c17691e7aa4a0ab241445a3af3e9f71a9a387d",
    "figure_eight": "05ddb5d3d188b4656edabfa1ed483e11c1990548dbfe551857807f97120d0b27",
    "torus_2_5": "efe6f11d3c09c2d4578f2cf0f4e545368d4c3bc8777938a7be4397f10fcb0ffd",
}


@pytest.mark.parametrize("curve", list(V2_SHA256))
def test_v2_stdout_pinned(curve):
    res = run("knot", "v2", "--curve", curve, "--samples", "2e4", "--seed", "11", "--no-cache")
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == V2_SHA256[curve]


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


def _every_error():
    """An instance of each exception class in graphflow.errors, plus the
    JSON parse error a bad curve file raises and the oracles' errors,
    which no row of the table names, for its GraphflowError row."""
    out = [json.JSONDecodeError("bad", "{", 1)]
    for cls in [*vars(errors).values(), oracles.CoincidentPoints, oracles.DimensionMismatch]:
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
    config = {"curve": "circle", "curve_hash": h, "grid": 256}
    return config, {**sln_integral(curve, grid=256).to_json_obj(), "op": "sln", "curve_hash": h}


def _lk_doc():
    k1, k2 = load_curve("hopf_a"), load_curve("hopf_b")
    hashes = {"curve_hash": k1.content_hash(), "curve2_hash": k2.content_hash()}
    config = {"curve": "hopf_a", "curve2": "hopf_b", "grid": 256, **hashes}
    return config, {**linking_integral(k1, k2, grid=256).to_json_obj(), "op": "lk", **hashes}


def _v2_doc():
    curve = load_curve("trefoil")
    h = curve.content_hash()
    _, skipped = split_cocycle_terms(knot_order2_cocycle())
    omitted = [
        {"coeff": f"{c.numerator}/{c.denominator}", "graph": g.to_json_obj()} for c, g in skipped
    ]
    result = v2_invariant(curve, n_samples=20000, seed=11).to_json_obj()
    config = {"curve": "trefoil", "curve_hash": h, "samples": 20000, "seed": 11, "x_grid": X_GRID}
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


def test_cli_option_surface_pinned():
    def walk(cmd, path):
        yield " ".join(path), cmd
        for name, sub in getattr(cmd, "commands", {}).items():
            yield from walk(sub, path + (name,))

    surface = {
        path: [(p.name, p.type.name, "required" if p.required else p.default) for p in cmd.params]
        for path, cmd in walk(main, ())
    }
    assert surface == CLI_OPTIONS
