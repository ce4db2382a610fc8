import hashlib
import json

import pytest
from click.testing import CliRunner

from graphflow import cli, errors
from graphflow.cli import main
from graphflow.curves import round_circle
from graphflow.graphs import theta_graph


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


def test_resource_limit_exit_3():
    result = CliRunner().invoke(
        main, ["graphs", "enumerate", "--flavor", "manifold", "--order", "6"]
    )
    assert result.exit_code == 3
    assert json.loads(result.stderr)["error"]["type"] == "ResourceLimit"


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


def test_v2_repeat_runs_byte_identical(tmp_path):
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
    first = run(*args)
    assert first.exit_code == 0
    second = run(*args)  # cache replay
    assert second.output == first.output
    third = run(*args, "--no-cache")  # honest recompute
    assert third.output == first.output
    doc = json.loads(first.output)
    assert doc["config"]["seed"] == 42
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
    JSON parse error a bad curve file raises."""
    out = [json.JSONDecodeError("bad", "{", 1)]
    for cls in vars(errors).values():
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
