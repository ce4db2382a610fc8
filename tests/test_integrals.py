import math

import numpy as np
import pytest

from graphflow.curves import (
    KnotCurve,
    bundled_curve,
    make_torus_knot,
    reparametrized,
    round_circle,
    scaled,
)
from graphflow import integrals
from graphflow.errors import CurvesIntersect, UnsupportedGraph
from graphflow.graphs import knot_order2_cocycle, knot_order2_graphs
from graphflow.integrals import (
    a_gamma_mc,
    a_gamma_quadrature,
    linking_integral,
    sln_integral,
    split_cocycle_terms,
    v2_invariant,
)

G1, G2, G3 = knot_order2_graphs()
CIRCLE = round_circle(1.0)
TREFOIL = make_torus_knot(2, 3, 2.0, 0.5)

# frozen by an initial grid-1024 run; deterministic quadrature
SLN_TREFOIL_1024 = -3.1273574679051896


def test_sln_circle_vanishes():
    est = sln_integral(CIRCLE, grid=512)
    assert abs(est.value) < 1e-6


def test_sln_trefoil_regression():
    est = sln_integral(TREFOIL, grid=1024)
    assert est.value == pytest.approx(SLN_TREFOIL_1024, rel=1e-6)
    finer = sln_integral(TREFOIL, grid=2048)
    assert abs(finer.value - est.value) <= 3 * (est.std_error + finer.std_error)


def test_sln_reparametrization_invariant():
    est = sln_integral(TREFOIL, grid=1024)
    rep = sln_integral(reparametrized(TREFOIL, 0.3), grid=1024)
    assert abs(est.value - rep.value) <= 3 * (est.std_error + rep.std_error)


def test_linking_hopf_pair():
    est = linking_integral(bundled_curve("hopf_a"), bundled_curve("hopf_b"), grid=1024)
    assert est.value == pytest.approx(1.0, abs=1e-3)


def test_linking_swap_symmetric():
    a, b = bundled_curve("hopf_a"), bundled_curve("hopf_b")
    assert linking_integral(a, b, grid=512).value == pytest.approx(
        linking_integral(b, a, grid=512).value, abs=1e-6
    )


def test_linking_unlinked_pair():
    far = KnotCurve(
        cos_coeffs=[[0.0, 1.0], [0.0, 0.0], [5.0, 0.0]],
        sin_coeffs=[[0.0], [1.0], [0.0]],
    )
    est = linking_integral(CIRCLE, far, grid=1024)
    assert abs(est.value) < 1e-4


def test_linking_near_integer_on_bundled_links():
    a, b = bundled_curve("hopf_a"), bundled_curve("hopf_b")
    est = linking_integral(a, b, grid=1024)
    assert abs(est.value - round(est.value)) < 1e-3


def test_linking_rejects_intersecting():
    with pytest.raises(CurvesIntersect):
        linking_integral(CIRCLE, round_circle(1.0), grid=256)


def test_x_integral_vanishes_on_round_circle():
    est = a_gamma_mc(G1, CIRCLE, n_samples=64_000, seed=4)
    assert est.value == 0.0
    quad = a_gamma_quadrature(G1, CIRCLE, grid=24)
    assert quad.value == 0.0


def test_x_integral_mc_matches_quadrature():
    mc = a_gamma_mc(G1, TREFOIL, n_samples=2_000_000, seed=4)
    quad = a_gamma_quadrature(G1, TREFOIL, grid=48)
    assert abs(mc.value - quad.value) <= 3 * (mc.std_error + quad.std_error)


def test_y_integral_seed_consistency():
    ests = [a_gamma_mc(G2, CIRCLE, n_samples=500_000, seed=s) for s in (1, 2, 3)]
    for a in ests:
        for b in ests:
            assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)


def test_trefoil_two_seeds_agree():
    a = a_gamma_mc(G1, TREFOIL, n_samples=1_000_000, seed=11)
    b = a_gamma_mc(G1, TREFOIL, n_samples=1_000_000, seed=22)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)


def test_seed_determinism_bitwise():
    a = a_gamma_mc(G2, TREFOIL, n_samples=200_000, seed=9)
    b = a_gamma_mc(G2, TREFOIL, n_samples=200_000, seed=9)
    assert a == b


def test_worker_count_does_not_change_result():
    a = a_gamma_mc(G2, TREFOIL, n_samples=200_000, seed=9, workers=1)
    b = a_gamma_mc(G2, TREFOIL, n_samples=200_000, seed=9, workers=4)
    assert a.value == b.value and a.std_error == b.std_error


def test_scaling_invariance():
    a = a_gamma_mc(G2, TREFOIL, n_samples=500_000, seed=6)
    b = a_gamma_mc(G2, scaled(TREFOIL, 2.0), n_samples=500_000, seed=6)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)


def test_reparametrization_invariance_mc():
    a = a_gamma_mc(G1, TREFOIL, n_samples=1_000_000, seed=6)
    b = a_gamma_mc(G1, reparametrized(TREFOIL, 0.3), n_samples=1_000_000, seed=60)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)


def test_a_gamma_rejects_loops_and_large_graphs():
    with pytest.raises(UnsupportedGraph):
        a_gamma_mc(G3, CIRCLE, n_samples=1000, seed=1)
    from graphflow.graphs import DecoratedGraph, Flavor

    big = DecoratedGraph(Flavor.KNOT, 6, 0, ((1, 4), (2, 5), (3, 6)))
    with pytest.raises(UnsupportedGraph):
        a_gamma_mc(big, CIRCLE, n_samples=1000, seed=1)


def test_quadrature_oracle_rejects_internal_vertices():
    with pytest.raises(UnsupportedGraph):
        a_gamma_quadrature(G2, CIRCLE, grid=8)


def test_split_cocycle_terms():
    supported, skipped = split_cocycle_terms(knot_order2_cocycle())
    assert {g.n_ext for _, g in supported} == {3, 4}
    assert len(skipped) == 1 and skipped[0][1].n_int == 2


def test_v2_unknot_value():
    """The loop-free part of the cocycle integral on the round circle."""
    est = v2_invariant(CIRCLE, n_samples=1_000_000, seed=3)
    # X term vanishes pointwise; value = -(1/3) * tripod integral ~ -1/24
    assert est.value == pytest.approx(-1.0 / 24.0, abs=5 * est.std_error + 1e-3)


def test_v2_determinism():
    a = v2_invariant(CIRCLE, n_samples=100_000, seed=5)
    b = v2_invariant(CIRCLE, n_samples=100_000, seed=5)
    assert a == b


def test_estimate_provenance_fields():
    est = a_gamma_mc(G2, CIRCLE, n_samples=100_000, seed=17)
    assert est.seed == 17
    assert est.method == "mc"
    assert est.n_samples == (100_000 // 64) * 64
    assert est.std_error >= 0


@pytest.mark.parametrize("name", ["trefoil", "figure_eight", "torus_2_5"])
def test_v2_difference_matches_a2(name):
    """The paper's claim: v2(K) - v2(unknot) is the order-2 invariant a2(K)."""
    from graphflow.diagrams import a2_of_curve

    knot = bundled_curve(name)
    circle = v2_invariant(bundled_curve("circle"), n_samples=200_000, seed=1997)
    est = v2_invariant(knot, n_samples=200_000, seed=1997)
    sigma = math.hypot(est.std_error, circle.std_error)
    assert abs(est.value - circle.value - a2_of_curve(knot)) <= 4 * sigma


def _oracle_sln_grid_sum(curve, n, bands):
    """The separate self-linking grid loop that _gauss_blocks replaced."""
    t = (np.arange(n) + 0.5) / n
    pos = curve.eval(t)
    tan = curve.deriv(t)
    out = [0.0 for _ in bands]
    chunk = max(1, 4_000_000 // n)
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        v = pos[None, :, :] - pos[i0:i1, None, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            f = integrals._gauss_coeff(v, -tan[i0:i1, None, :], tan[None, :, :])
        dt = np.abs(t[None, :] - t[i0:i1, None])
        cyc = np.minimum(dt, 1.0 - dt)
        f = np.nan_to_num(f, nan=0.0, posinf=0.0, neginf=0.0)
        for k, band in enumerate(bands):
            out[k] += float(f[cyc > band].sum())
    return [s / (n * n) for s in out]


def _oracle_linking_grid(k1, k2, n):
    """The separate linking grid loop that _gauss_blocks replaced."""
    t = (np.arange(n) + 0.5) / n
    p1, d1 = k1.eval(t), k1.deriv(t)
    p2, d2 = k2.eval(t), k2.deriv(t)
    total = 0.0
    chunk = max(1, 4_000_000 // n)
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        v = p2[None, :, :] - p1[i0:i1, None, :]
        f = integrals._gauss_coeff(v, -d1[i0:i1, None, :], d2[None, :, :])
        total += float(f.sum())
    return total / (n * n)


@pytest.mark.parametrize("curve", [CIRCLE, TREFOIL], ids=["circle", "trefoil"])
def test_sln_quadrature_bit_identical_to_separate_loop(curve, monkeypatch):
    est = sln_integral(curve, grid=256)
    monkeypatch.setattr(integrals, "_sln_grid_sum", _oracle_sln_grid_sum)
    assert est == sln_integral(curve, grid=256)


def test_linking_quadrature_bit_identical_to_separate_loop(monkeypatch):
    a, b = bundled_curve("hopf_a"), bundled_curve("hopf_b")
    est = linking_integral(a, b)
    monkeypatch.setattr(integrals, "_linking_grid", _oracle_linking_grid)
    assert est == linking_integral(a, b)


def test_gauss_blocks_cross_chunks():
    # n = 2048 gives row chunks of 1953 and 95
    a, b = bundled_curve("hopf_a"), bundled_curve("hopf_b")
    assert integrals._linking_grid(a, b, 2048) == _oracle_linking_grid(a, b, 2048)
