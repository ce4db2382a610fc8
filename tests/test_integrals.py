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
from graphflow.errors import CurvesIntersect, ResourceLimit, UnsupportedGraph
from graphflow.forms import CompiledIntegrand
from graphflow.graphs import knot_order2_cocycle, knot_order2_graphs
from graphflow.integrals import (
    a_gamma_mc,
    linking_integral,
    sln_integral,
    split_cocycle_terms,
    v2_invariant,
)
from oracles import a_gamma_quadrature

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
    quad = a_gamma_quadrature(G1, CIRCLE, grid=24)
    assert quad.value == 0.0
    assert integrals._x_quadrature(CIRCLE).value == 0.0


@pytest.mark.parametrize("name", ["trefoil", "figure_eight"])
@pytest.mark.parametrize("grid", [12, 24])
def test_x_quadrature_matches_brute_force_oracle(name, grid):
    """The O(N^2) cumulative sums, Richardson step and +4 scale reproduce
    the O(N^4) sum over ordered 4-tuples: both extrapolate grids
    grid and 2 * grid."""
    knot = bundled_curve(name)
    fast = integrals._x_quadrature(knot, grid=2 * grid)
    assert fast.value == pytest.approx(a_gamma_quadrature(G1, knot, grid=grid).value, abs=1e-12)


def test_x_sum_independent_of_row_blocks(monkeypatch):
    """The oracle's grids fit in one row block; n = 200 streams four, the
    last one partial, and must give the one-block sum."""
    streamed = integrals._crossed_chord_sum(TREFOIL, 200)
    blocks = integrals._gauss_blocks
    monkeypatch.setattr(integrals, "_gauss_blocks", lambda *args, rows: blocks(*args, rows=200))
    assert streamed == pytest.approx(integrals._crossed_chord_sum(TREFOIL, 200), rel=1e-12)


def test_tripod_sigma_covers_seed_spread():
    """Over 20 seeds, the reported sigma of the tripod integral matches the
    spread of its values.  The importance weights are heavy tailed: a rare
    outlying batch shifts one value and inflates that run's sigma.  So
    the median sigma is compared with the normal-consistent median
    absolute deviation of the values, whose relative sampling spread over
    k values is sqrt(1.36 / k) (0.26 at k = 20; this log ratio spread by
    0.24 over 50 disjoint sets of 20 seeds), and the values in units of
    their own sigma must have unit root mean square, within a relative
    spread of about 1 / sqrt(2 k) (0.16; measured 0.17).  Both bounds are
    at least 3 of those spreads."""
    ests = [a_gamma_mc(G2, TREFOIL, n_samples=6_400, seed=s) for s in range(1, 21)]
    k = len(ests)
    values = np.array([e.value for e in ests])
    sigmas = np.array([e.std_error for e in ests])
    center = np.median(values)
    spread = 1.4826 * float(np.median(np.abs(values - center)))
    assert abs(math.log(spread / float(np.median(sigmas)))) <= 3 * math.sqrt(1.36 / k)
    rms_z = math.sqrt(float(np.mean(((values - center) / sigmas) ** 2)))
    assert abs(math.log(rms_z)) <= 3.5 / math.sqrt(2 * k)


def test_y_integral_seed_consistency():
    ests = [a_gamma_mc(G2, CIRCLE, n_samples=500_000, seed=s) for s in (1, 2, 3)]
    for a in ests:
        for b in ests:
            assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)


def test_trefoil_two_seeds_agree():
    a = a_gamma_mc(G2, TREFOIL, n_samples=1_000_000, seed=11)
    b = a_gamma_mc(G2, TREFOIL, n_samples=1_000_000, seed=22)
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
    a = a_gamma_mc(G2, TREFOIL, n_samples=1_000_000, seed=6)
    b = a_gamma_mc(G2, reparametrized(TREFOIL, 0.3), n_samples=1_000_000, seed=60)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)


def test_a_gamma_rejects_loops_and_large_graphs():
    """Only the tripod runs Monte Carlo: the crossed chords G1 too are
    rejected."""
    from graphflow.graphs import DecoratedGraph, Flavor

    big = DecoratedGraph(Flavor.KNOT, 6, 0, ((1, 4), (2, 5), (3, 6)))
    for graph in (G1, G3, big):
        with pytest.raises(UnsupportedGraph):
            a_gamma_mc(graph, CIRCLE, n_samples=1000, seed=1)


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
    # the error is the tripod's Monte Carlo error, and only its samples count
    assert a.method == "mc" and a.n_samples == (100_000 // 64) * 64


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


def _oracle_mc_batch(integrand, curve, m, rng, r0, r_near, eps_coll):
    """One batch mean, sampled and evaluated batch by batch with its own
    64-pass collision loop: the loop that the group pass replaced."""
    n, t = integrand.n, integrand.t
    n_fact = math.factorial(n)
    todo = np.arange(m)
    weights = np.empty(m)
    values = np.empty(m)
    for _ in range(64):
        mm = todo.size
        tv = np.sort(rng.random((mm, n)), axis=1)
        knot_pts, knot_tan = curve.eval_with_deriv(tv)
        centers = rng.integers(0, n, size=(mm, t))
        use_near = rng.random((mm, t)) < integrals.NEAR_WEIGHT
        u = rng.random((mm, t))
        c = np.cbrt(u)
        radius = np.where(use_near, r_near * u, r0 * c / np.maximum(1.0 - c, 1e-15))
        direction = rng.normal(size=(mm, t, 3))
        direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
        anchor = np.take_along_axis(knot_pts, centers[..., None], axis=1)
        xv = anchor + radius[..., None] * direction
        diff = xv[:, :, None, :] - knot_pts[:, None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        tail = 3.0 * r0 / (integrals.FOUR_PI * (r0 + dist) ** 4)
        with np.errstate(divide="ignore"):
            near = np.where(
                dist < r_near,
                1.0 / (integrals.FOUR_PI * np.maximum(dist, 1e-300) ** 2 * r_near),
                0.0,
            )
        nw = integrals.NEAR_WEIGHT
        q = ((1.0 - nw) * tail + nw * near).mean(axis=2)
        w = 1.0 / (n_fact * np.prod(q, axis=1))
        vals, bad = integrand.evaluate_batch(knot_pts, knot_tan, xv, eps_coll)
        weights[todo], values[todo] = w, vals
        todo = todo[bad]
        if todo.size == 0:
            break
    else:
        raise UnsupportedGraph("collision guard kept rejecting samples")
    return float(np.mean(values * weights))


def _oracle_a_gamma_mc(graph, curve, n_samples, seed):
    """``a_gamma_mc`` with every batch run alone by ``_oracle_mc_batch``."""
    integrand = CompiledIntegrand(graph)
    diam = curve.diameter()
    m = max(1, n_samples // integrals.MC_BATCHES)
    tag = integrals.hash_graph(graph)
    means = np.array(
        [
            _oracle_mc_batch(
                integrand,
                curve,
                m,
                np.random.default_rng([seed, tag, b]),
                0.1 * diam,
                0.2 * diam,
                1e-9 * diam,
            )
            for b in range(integrals.MC_BATCHES)
        ]
    )
    scale = integrals.COMPONENT_ORIENT * integrand.n
    value = scale * float(means.mean())
    std_error = abs(scale) * float(means.std(ddof=1) / math.sqrt(integrals.MC_BATCHES))
    return integrals.IntegralEstimate(value, std_error, m * integrals.MC_BATCHES, seed, "mc")


def _rows_with_eps_coll(monkeypatch, eps_coll):
    """Make ``evaluate_batch`` use the collision radius ``eps_coll`` and
    return the list of row counts it is called with."""
    rows = []
    evaluate = CompiledIntegrand.evaluate_batch

    def patched(self, pos, tan, xvals, _eps_coll):
        rows.append(pos.shape[0])
        return evaluate(self, pos, tan, xvals, eps_coll)

    monkeypatch.setattr(CompiledIntegrand, "evaluate_batch", patched)
    return rows


# 100 samples: one group of all 64 batches; 25,000: groups of 10, the last
# of 4; 200,000: one batch per group
@pytest.mark.parametrize("n_samples", [100, 25_000, 200_000])
@pytest.mark.parametrize("graph", [G2], ids=["tripod"])
@pytest.mark.parametrize("name", ["trefoil", "torus_2_5"])
def test_group_pass_matches_batch_by_batch_oracle(name, graph, n_samples):
    curve = bundled_curve(name)
    est = a_gamma_mc(graph, curve, n_samples=n_samples, seed=31)
    assert est == _oracle_a_gamma_mc(graph, curve, n_samples, seed=31)


def test_group_pass_redraws_collisions_like_the_oracle(monkeypatch):
    curve = bundled_curve("trefoil")
    rows = _rows_with_eps_coll(monkeypatch, 0.01 * curve.diameter())
    est = a_gamma_mc(G2, curve, n_samples=25_000, seed=31)
    assert len(rows) > 7 and sum(rows) > est.n_samples  # redraws happened
    assert est == _oracle_a_gamma_mc(G2, curve, 25_000, seed=31)


def test_group_pass_gives_up_after_64_draws_per_sample(monkeypatch):
    rows = _rows_with_eps_coll(monkeypatch, math.inf)
    with pytest.raises(UnsupportedGraph, match="^collision guard kept rejecting samples$"):
        a_gamma_mc(G2, TREFOIL, n_samples=100, seed=31)
    assert rows == [64] * 64  # one group of 64 one-sample batches, each drawn 64 times
    del rows[:]
    with pytest.raises(UnsupportedGraph, match="^collision guard kept rejecting samples$"):
        _oracle_a_gamma_mc(G2, TREFOIL, 100, seed=31)
    assert rows == [1] * 64


def test_sample_count_above_the_limit_raises_before_sampling(monkeypatch):
    monkeypatch.setattr(integrals, "_mc_group", None)  # a call would fail with TypeError
    with pytest.raises(ResourceLimit):
        a_gamma_mc(G2, TREFOIL, n_samples=integrals.MC_MAX_SAMPLES + 1)


@pytest.mark.parametrize("n_samples", [100, 25_000])
def test_worker_count_does_not_change_grouped_result(n_samples):
    a = a_gamma_mc(G2, TREFOIL, n_samples=n_samples, seed=9, workers=1)
    b = a_gamma_mc(G2, TREFOIL, n_samples=n_samples, seed=9, workers=3)
    assert a == b
