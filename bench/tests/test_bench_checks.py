"""Each output check of the benchmark accepts a right value and rejects a wrong one."""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from graphflow.graphs import Flavor, GraphSum, knot_order2_cocycle, manifold_order2_cocycle  # noqa: E402
from graphflow.solver import delta_matrix, kernel_basis  # noqa: E402

V2 = {
    "circle": {"value": -0.0406, "std_error": 0.0004},
    "trefoil": {"value": 0.9793, "std_error": 0.0131},
    "figure_eight": {"value": -0.9815, "std_error": 0.0367},
    "torus_2_5": {"value": 2.9781, "std_error": 0.0340},
}


def test_v2_check_accepts_the_paper_relation():
    assert checks.check_v2(V2) == {}


def test_v2_check_rejects_a_perturbed_value():
    bad = copy.deepcopy(V2)
    bad["trefoil"]["value"] += 5 * bad["trefoil"]["std_error"]
    assert set(checks.check_v2(bad)) == {"trefoil"}


def test_v2_check_rejects_a_shifted_circle_for_every_knot():
    bad = copy.deepcopy(V2)
    bad["circle"]["value"] += 1.0
    assert set(checks.check_v2(bad)) == {"trefoil", "figure_eight", "torus_2_5"}


def test_a2_check():
    assert checks.check_a2({"a2": 3}, "torus_2_5") is None
    assert checks.check_a2({"a2": 1}, "figure_eight") is not None


def test_lk_check():
    assert checks.check_lk({"value": -1.0, "std_error": 1e-16}) is None
    assert checks.check_lk({"value": 0.98, "std_error": 1e-3}) is not None


def test_same_output_check():
    assert checks.check_same_output("abc\n", "abc\n") is None
    assert checks.check_same_output("abc\n", "abd\n") is not None


def test_round_check_flags_exit_codes_and_wrong_documents():
    cmds = workloads.plan("knot_cli", 5)
    outputs = {c.key: (0, "") for c in cmds}
    outputs[cmds[0].key] = (3, "")
    errors = workloads.check_round(cmds, outputs, None)
    assert errors[cmds[0].key] == "exit code 3"
    assert len(errors) == len(cmds)


def _v2_doc(value, std_error):
    return json.dumps({"command": "knot v2", "result": {"value": value, "std_error": std_error, "method": "mc"}})


def test_round_check_compares_v2_within_each_sample_count():
    cmds = workloads.plan("v2_mc", 5)
    n_lo, n_hi = workloads.V2_SAMPLES
    outputs = {}
    for c in cmds:
        res = V2[c.args[3]]
        # the circle is off by 0.5 at the lower count only, where sigma is large
        shift = 0.5 if (c.args[3], c.args[5]) == ("circle", n_lo) else 0.0
        sigma = res["std_error"] * (10 if c.args[5] == n_lo else 1)
        outputs[c.key] = (0, _v2_doc(res["value"] + shift, sigma))
    assert workloads.check_round(cmds, outputs, None) == {}
    bad = next(c for c in cmds if c.args[3] == "trefoil" and c.args[5] == n_hi)
    outputs[bad.key] = (0, _v2_doc(V2["trefoil"]["value"] + 0.5, V2["trefoil"]["std_error"]))
    assert set(workloads.check_round(cmds, outputs, None)) == {bad.key}


def test_rank_mod_p():
    rows = [{0: Fraction(1), 1: Fraction(2), 2: Fraction(3)}, {0: Fraction(2), 1: Fraction(4), 2: Fraction(6)},
            {0: Fraction(1, 2), 2: Fraction(1)}]
    assert checks.rank(rows, 3) == 2
    assert checks.rank([], 3) == 0


@pytest.fixture(scope="module", params=["manifold", "knot"])
def order2(request):
    """The ``graphs cocycles`` result at order 2 and its reference."""
    flavor = request.param
    basis0, _, m = delta_matrix(Flavor(flavor), 2)
    kernel = [
        GraphSum({g: c for g, c in zip(basis0, vec) if c}).to_json_obj() for vec in kernel_basis(m)
    ]
    basis = [g.to_json_obj() for g in basis0]
    paper = (manifold_order2_cocycle() if flavor == "manifold" else knot_order2_cocycle())
    return {"basis": basis, "kernel": kernel}, (basis, m.entries, paper.to_json_obj())


def test_cocycle_check_accepts_the_solver_kernel(order2):
    result, ref = order2
    assert checks.check_cocycles(result, *ref) is None


def _live_column(basis, matrix) -> int:
    """A basis graph whose coboundary is not zero."""
    return next(c for c in range(len(basis)) if any(row[c] for row in matrix))


def test_cocycle_check_rejects_a_changed_kernel_entry(order2):
    result, (basis, matrix, paper) = order2
    bad = copy.deepcopy(result)
    graph = basis[_live_column(basis, matrix)]
    vec = bad["kernel"][0]
    term = next((t for t in vec if t["graph"] == graph), None)
    if term is None:
        vec.append({"coeff": "1/1", "graph": graph})
    else:
        term["coeff"] = str(Fraction(term["coeff"]) + 1)
    assert "M v != 0" in checks.check_cocycles(bad, basis, matrix, paper)


def test_cocycle_check_rejects_a_missing_or_repeated_vector(order2):
    result, ref = order2
    short = dict(result, kernel=result["kernel"][1:])
    assert "cols - rank" in checks.check_cocycles(short, *ref)
    repeated = dict(result, kernel=result["kernel"][1:] + result["kernel"][1:2])
    assert "dependent" in checks.check_cocycles(repeated, *ref)


def test_cocycle_check_rejects_a_paper_cocycle_outside_the_span(order2):
    result, (basis, matrix, _) = order2
    outside = [{"coeff": "1/1", "graph": basis[_live_column(basis, matrix)]}]
    assert "not in the span" in checks.check_cocycles(result, basis, matrix, outside)
