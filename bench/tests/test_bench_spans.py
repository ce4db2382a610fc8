"""Tests of the benchmark's span wrappers and span arithmetic."""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inprocess  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, SpanTree  # noqa: E402

GF = {name: importlib.import_module(f"graphflow.{name}") for name in inprocess.MODULES}


def _patched_attrs():
    points = [(owner, attr) for owner, attr, _, _ in spans.patch_points(GF)]
    return points + [(GF["cli"], "_cached")]


def test_wrappers_installed_then_restored():
    originals = {(id(o), a): vars(o)[a] for o, a in _patched_attrs()}
    tracer = spans.Tracer()
    with spans.installed(tracer, GF):
        for owner, attr in _patched_attrs():
            assert vars(owner)[attr] is not originals[id(owner), attr]
        GF["cli"].load_curve("trefoil").validate()
    for owner, attr in _patched_attrs():
        assert vars(owner)[attr] is originals[id(owner), attr]
    names = [sp.name for sp in tracer.spans]
    assert names[:2] == ["curves.load", "curves.validate"]
    validate = tracer.spans[1]
    assert {sp.name for sp in tracer.spans if sp.parent == validate.id} == {
        "curves.eval",
        "curves.deriv",
    }


def test_wrappers_restored_after_an_error():
    originals = {(id(o), a): vars(o)[a] for o, a in _patched_attrs()}
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer(), GF):
            raise RuntimeError("boom")
    for owner, attr in _patched_attrs():
        assert vars(owner)[attr] is originals[id(owner), attr]


def test_tracer_links_parents_and_records_errors():
    tracer = spans.Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("c"):
                raise ValueError
    a, b, c = tracer.spans
    assert (a.parent, b.parent, c.parent) == (None, a.id, a.id)
    assert c.error == "ValueError" and b.error is None
    assert a.start <= b.start <= b.end <= c.start <= c.end <= a.end


def _tree():
    return SpanTree(
        [
            Span(0, None, "solver.delta_matrix", 0.0, 10.0),
            Span(1, 0, "graphs.enumerate", 1.0, 3.0, {"basis0": 5}),
            Span(2, 0, "graphs.delta", 2.0, 5.0),  # overlaps span 1
            Span(3, 2, "graphs.canonicalize", 2.5, 4.0),  # grandchild of 0
            Span(4, 0, "graphs.enumerate", 8.0, 12.0, {"basis1": 7}),  # ends after 0
            Span(5, None, "curves.eval", 20.0, 26.0, {"points": 10}),
            Span(6, 5, "curves.eval", 21.0, 22.0, {"points": 4}),  # nested same name
            Span(7, None, "curves.validate", 30.0, 33.0),
            Span(8, 7, "curves.eval", 30.5, 32.0, {"points": 100}),  # counted in validate only
        ]
    )


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    tree = _tree()
    # children cover [1, 5] and [8, 10] inside [0, 10]
    assert tree.self_time(tree.by_id[0]) == pytest.approx(10.0 - 4.0 - 2.0)
    assert tree.self_time(tree.by_id[0], {"graphs.enumerate"}) == pytest.approx(10.0 - 2.0 - 2.0)
    assert tree.self_time(tree.by_id[2]) == pytest.approx(3.0 - 1.5)
    assert tree.self_time(tree.by_id[3]) == pytest.approx(1.5)


def test_totals_count_outermost_spans_once():
    tree = _tree()
    assert tree.total("curves.eval") == pytest.approx(7.5)
    assert tree.total("curves.eval", "curves.validate") == pytest.approx(6.0)
    assert tree.count("curves.eval", "points", "curves.validate") == 10
    assert tree.total("graphs.enumerate") == pytest.approx(6.0)


def test_layer_metrics_on_hand_built_tree():
    values = spans.layer_metrics(_tree())
    assert values["solver.delta_matrix_s"] == pytest.approx(6.0)
    assert values["graphs.basis0"] == 5 and values["graphs.basis1"] == 7
    assert values["graphs.canonicalize_s"] == pytest.approx(1.5)
    assert values["cli.curve_loads"] == 0.0
    assert values["curves.eval_s"] == pytest.approx(6.0) and values["curves.points"] == 10
    assert values["curves.validate_s"] == pytest.approx(3.0)


def test_in_process_round_counts_cache_and_curve_loads(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAPHFLOW_CACHE_DIR", str(tmp_path))  # restored after the test
    args = ["knot", "lk", "--curve", "hopf_a", "--curve2", "hopf_b", "--grid", "64"]
    cache = str(tmp_path / "cache")
    plan = {"commands": [
        {"key": "lk miss", "args": args, "cache_dir": cache},
        {"key": "lk hit", "args": args, "cache_dir": cache},
    ]}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    inprocess.main(str(tmp_path / "plan.json"), str(tmp_path / "out.json"), str(tmp_path / "s.jsonl"))
    out = json.loads((tmp_path / "out.json").read_text())
    miss, hit = out["results"]
    assert miss["code"] == hit["code"] == 0 and miss["stdout"] == hit["stdout"]
    assert out["cache_bytes"] == len(miss["stdout"].encode())
    values = spans.layer_metrics(SpanTree(spans.read_jsonl(tmp_path / "s.jsonl")))
    assert values["cli.cache_misses"] == 1 and values["cli.cache_hits"] == 1
    assert values["cli.curve_loads"] == 3.0  # 2 + 2 on the miss, 2 on the hit
    assert values["integrals.lk_s"] > 0


def _record(rnd, cmd, wall, stdout="{}"):
    return run.Record(rnd, cmd, run.Outcome(wall, 50.0, 0, stdout))


def _v2_record(rnd, knot, n, wall, sigma):
    cmd = next(c for c in workloads.plan("v2_mc", 1) if c.args[3] == knot and c.args[5] == n)
    res = {"method": "mc", "n_samples": int(float(n)), "std_error": sigma, "value": 0.0}
    return _record(rnd, cmd, wall, json.dumps({"command": "knot v2", "result": res}))


def test_time_to_sigma_scales_only_the_cost_that_grows_with_samples():
    n_lo, n_hi = workloads.V2_SAMPLES
    # t(n) = 0.51 s + 1e-5 s * n at the median; variance per sample 4e-2
    sigma = {n: (4e-2 / int(float(n))) ** 0.5 for n in (n_lo, n_hi)}
    recs = [_v2_record(r, "trefoil", n, 0.5 + 1e-5 * int(float(n)) + 0.01 * r, sigma[n])
            for r in (0, 1, 2) for n in (n_lo, n_hi)]
    n_star = 4e-2 / run.SIGMA_TARGET**2
    assert run.time_to_sigma(recs) == pytest.approx(0.51 + 1e-5 * n_star)
    # a command without a Monte Carlo result adds its median wall time
    other = workloads.plan("cocycles_exact", 1)[0]
    extra = [_record(r, other, w) for r, w in enumerate((2.0, 3.0, 9.0))]
    assert run.time_to_sigma(recs + extra) == pytest.approx(0.51 + 1e-5 * n_star + 3.0)


def test_check_holds_repeated_outputs_to_byte_identity(monkeypatch):
    cmd = next(c for c in workloads.plan("knot_cli", 1) if c.key == "sln trefoil miss")
    good = json.dumps({"command": "knot sln", "result": {"value": 1.0, "std_error": 0.0}})
    recs = [_record(0, cmd, 1.0, good), _record(1, cmd, 1.0, good), _record(2, cmd, 1.0, good.replace("1.0", "2.0"))]
    checked = []
    check_round = workloads.check_round
    monkeypatch.setattr(
        workloads, "check_round", lambda cmds, *rest: checked.append(len(cmds)) or check_round(cmds, *rest)
    )
    run._check(recs)
    assert checked == [1, 0, 0]
    assert [r.error is None for r in recs] == [True, True, False]


def test_every_metric_printed_is_listed_in_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    cmds = workloads.plan("v2_mc", 1)
    recs = [_v2_record(0, c.args[3], c.args[5], 1.0, 0.01) for c in cmds]
    end_to_end, _ = run.plain_metrics(recs, [0.2])
    assert list(end_to_end) == [m["name"] for m in spec["end_to_end"]]
    doc = {"import_s": 0.1, "cache_bytes": 0}
    per_layer = run._pair_metrics(cmds, {c.key: r.outcome for c, r in zip(cmds, recs)}, doc, [], 0.0)
    assert sorted(per_layer) == sorted(m["name"] for m in spec["per_layer"])
    assert set(run.UNITS) == set(end_to_end) | set(per_layer)
