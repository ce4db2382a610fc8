import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from graphflow.curves import KnotCurve, bundled_curve
from graphflow import integrals
from graphflow.errors import CurveValidationError, CurvesIntersect, ResourceLimit, SamplingFailed
from graphflow.forms import CompiledIntegrand
from graphflow.graphs import knot_order2_graphs
from graphflow.integrals import (
    a_gamma_mc,
    linking_integral,
    sln_integral,
    v2_invariant,
)
from oracles import (
    UnsupportedGraph,
    a2_from_conway,
    a_gamma_quadrature,
    gauss_coeff,
    make_torus_knot,
    polygon_writhe,
    reparametrized,
    round_circle,
    scaled,
)

G1, G2, _ = knot_order2_graphs()
CIRCLE = round_circle(1.0)
TREFOIL = make_torus_knot(2, 3, 2.0, 0.5)
BUNDLED_KNOTS = ["circle", "trefoil", "figure_eight", "torus_2_5"]

#: Converged sln and X of the bundled knots, (sln at grid 8192, X at grid
#: 4096), whose stated errors are at most 1e-12 and 1e-7; made by
#:   PYTHONPATH=src python -c "from graphflow import curves, integrals as i
#:   k = curves.bundled_curve('trefoil')
#:   print(i.sln_integral(k, grid=8192), i._x_quadrature(k, grid=4096))"
#: ``test_sln_references_match_polygon_writhe`` checks the sln values
#: against an independent oracle.
REFERENCE = {
    "circle": (0.0, 0.0),
    "trefoil": (-3.126859232824687, 4.198435959414823),
    "figure_eight": (0.08631611344068953, -3.8004587969237407),
    "torus_2_5": (-5.70511452399703, 12.176178466074644),
}


def test_sln_circle_vanishes():
    est = sln_integral(CIRCLE, grid=512)
    assert abs(est.value) < 1e-6


def test_sln_trefoil_regression():
    est = sln_integral(TREFOIL, grid=1024)
    assert abs(est.value - REFERENCE["trefoil"][0]) <= est.std_error
    finer = sln_integral(TREFOIL, grid=2048)
    assert abs(finer.value - est.value) <= 3 * (est.std_error + finer.std_error)


def test_sln_reparametrization_invariant():
    est = sln_integral(TREFOIL, grid=1024)
    rep = sln_integral(reparametrized(TREFOIL, 0.3), grid=1024)
    assert abs(est.value - rep.value) <= 3 * (est.std_error + rep.std_error)


@pytest.mark.parametrize("copy", ["plain", "reparametrized", "scaled"])
@pytest.mark.parametrize("name", BUNDLED_KNOTS)
def test_stated_errors_cover_the_references(name, copy):
    """sln at grid 1024 and X at grid 512 are within their stated errors
    of the converged values, also on a reparametrized copy (the same
    image at non-uniform speed) and on a copy scaled by 1e-3."""
    base = bundled_curve(name)
    copies = {"plain": base, "reparametrized": reparametrized(base), "scaled": scaled(base, 1e-3)}
    knot = copies[copy]
    sln_ref, x_ref = REFERENCE[name]
    sln, x = sln_integral(knot), integrals._x_quadrature(knot)
    assert abs(sln.value - sln_ref) <= sln.std_error, (sln, sln_ref)
    assert abs(x.value - x_ref) <= x.std_error, (x, x_ref)


@pytest.mark.parametrize("name", BUNDLED_KNOTS)
def test_sln_references_match_polygon_writhe(name):
    """The writhe of the polygon through N points of a smooth knot tends
    to its sln like N^-2, then N^-4; one Richardson step over N = 256
    and 512 lies within its own step from N = 128 of the stored value."""
    knot = bundled_curve(name)
    w128, w256, w512 = (polygon_writhe(knot.eval(np.arange(n) / n)) for n in (128, 256, 512))
    coarse, fine = (4.0 * w256 - w128) / 3.0, (4.0 * w512 - w256) / 3.0
    assert abs(fine - REFERENCE[name][0]) <= abs(fine - coarse)


@pytest.mark.parametrize("grid", [256, 512, 1024, 2048])
def test_sln_error_covers_a_polygon(grid):
    """A polygon's tangent jumps at its vertices, so its midpoint sums
    do not follow the n^-2 expansion; on the 97-gon through the trefoil
    the stated error must still cover the distance from its exact
    writhe."""
    points = bundled_curve("trefoil").eval(np.arange(97) / 97)
    est = sln_integral(KnotCurve(points=points), grid=grid)
    assert abs(est.value - polygon_writhe(points)) <= est.std_error


@pytest.mark.parametrize("grid", [17, 1001, 1023, 1024])
def test_richardson_weights_follow_the_grid_ratio(grid):
    """A sum that is exactly a series in h^2, or in h to h^2, is
    extrapolated to its limit also on grids that do not halve exactly;
    weights of 4 and 2 would leave O(1/grid^3) behind at grid 1023."""
    value, err = integrals._richardson(lambda n: 1.0 + 3.0 / n**2, grid, power=2, steps=1)
    assert value == pytest.approx(1.0, abs=1e-12) and err <= 1e-12
    value, err = integrals._richardson(lambda n: 1.0 - 1.0 / n + 5.0 / n**2, grid, 1, 2)
    assert value == pytest.approx(1.0, abs=1e-12) and err <= 1e-12


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


@pytest.mark.parametrize(
    "shift, value, error",
    [
        (1e6, "-0x1.d000000000000p-102", "0x1.8800000000000p-101"),
        (1e12, "-0x1.4800000000000p-141", "0x1.c000000000000p-140"),
    ],
    ids=["1e6", "1e12"],
)
def test_linking_of_a_far_pair(shift, value, error):
    """hopf_b translated by ``shift`` along (1, 1, 1) gives, with no
    warning, the estimate the full cross-distance matrix let through
    (the values were read off it): the separation check keeps only the
    points near the other curve's bounding box, here none."""
    a, b = bundled_curve("hopf_a"), bundled_curve("hopf_b")
    cos_c = b.cos_coeffs.copy()
    cos_c[:, 0] += shift
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = linking_integral(a, KnotCurve(cos_coeffs=cos_c, sin_coeffs=b.sin_coeffs))
    assert (est.value, est.std_error) == (float.fromhex(value), float.fromhex(error))
    assert (est.n_samples, est.seed, est.method) == (1024 * 1024, 0, "quadrature")


def test_linking_rejects_a_curve_collapsed_by_rounding():
    """hopf_b translated by 1e17 along (1, 1, 1) samples to one float point
    (spacing 16 there), so lk refuses it as not embedded, as every other
    knot command does, before any separation check or quadrature."""
    a, b = bundled_curve("hopf_a"), bundled_curve("hopf_b")
    cos_c = b.cos_coeffs.copy()
    cos_c[:, 0] += 1e17
    with pytest.raises(CurveValidationError, match="extent 0$") as err:
        linking_integral(a, KnotCurve(cos_coeffs=cos_c, sin_coeffs=b.sin_coeffs))
    assert err.value.invariant == "embedded"


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
    """The O(N^2) cumulative sums, Richardson steps and +4 scale reproduce
    the O(N^4) sum over ordered 4-tuples.  The oracle takes the first
    step, over grids g and 2 g; the second step, over grid / 2 and grid,
    is (4 oracle(grid) - oracle(grid / 2)) / 3."""
    knot = bundled_curve(name)
    fast = integrals._x_quadrature(knot, grid=2 * grid)
    coarse, fine = (a_gamma_quadrature(G1, knot, grid=g).value for g in (grid // 2, grid))
    assert fast.value == pytest.approx((4.0 * fine - coarse) / 3.0, abs=1e-12)


def test_x_sum_independent_of_row_blocks(monkeypatch):
    """The oracle's grids fit in one row block; n = 200 streams four, the
    last one partial, and must give the sum over the einsum form's grid
    in one block."""
    streamed = integrals._crossed_chord_sum(TREFOIL, 200)
    monkeypatch.setattr(
        integrals, "_gauss_blocks", lambda k1, k2, n: _oracle_gauss_blocks(k1, k2, n, rows=n)
    )
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
    ests = [a_gamma_mc(TREFOIL, n_samples=6_400, seed=s) for s in range(1, 21)]
    k = len(ests)
    values = np.array([e.value for e in ests])
    sigmas = np.array([e.std_error for e in ests])
    center = np.median(values)
    spread = 1.4826 * float(np.median(np.abs(values - center)))
    assert abs(math.log(spread / float(np.median(sigmas)))) <= 3 * math.sqrt(1.36 / k)
    rms_z = math.sqrt(float(np.mean(((values - center) / sigmas) ** 2)))
    assert abs(math.log(rms_z)) <= 3.5 / math.sqrt(2 * k)


def test_y_integral_seed_consistency():
    ests = [a_gamma_mc(CIRCLE, n_samples=500_000, seed=s) for s in (1, 2, 3)]
    for a in ests:
        for b in ests:
            assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)


def test_trefoil_two_seeds_agree():
    a = a_gamma_mc(TREFOIL, n_samples=1_000_000, seed=11)
    b = a_gamma_mc(TREFOIL, n_samples=1_000_000, seed=22)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)


def test_seed_determinism_bitwise():
    a = a_gamma_mc(TREFOIL, n_samples=200_000, seed=9)
    b = a_gamma_mc(TREFOIL, n_samples=200_000, seed=9)
    assert a == b


def test_worker_count_does_not_change_result():
    a = a_gamma_mc(TREFOIL, n_samples=200_000, seed=9, workers=1)
    b = a_gamma_mc(TREFOIL, n_samples=200_000, seed=9, workers=4)
    assert a.value == b.value and a.std_error == b.std_error


def test_scaling_invariance():
    a = a_gamma_mc(TREFOIL, n_samples=500_000, seed=6)
    b = a_gamma_mc(scaled(TREFOIL, 2.0), n_samples=500_000, seed=6)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)


def test_reparametrization_invariance_mc():
    a = a_gamma_mc(TREFOIL, n_samples=1_000_000, seed=6)
    b = a_gamma_mc(reparametrized(TREFOIL, 0.3), n_samples=1_000_000, seed=60)
    assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)


def test_quadrature_oracle_rejects_internal_vertices():
    with pytest.raises(UnsupportedGraph):
        a_gamma_quadrature(G2, CIRCLE, grid=8)


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
    est = a_gamma_mc(CIRCLE, n_samples=100_000, seed=17)
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


#: (p, q) of the torus knots in the headline family; T(p, q) has
#: a2 = (p^2 - 1)(q^2 - 1) / 24.
TORUS_FAMILY = [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5)]


def test_v2_difference_is_a2_along_a_family_of_knots():
    """The paper's claim on twelve knots: six torus knots and their
    mirrors, made by negating the z coefficients.  a2 from the Conway
    polynomial agrees with ``a2_of_curve`` and the closed form, and the
    slope of v2(K) - v2(unknot) against a2(K) is 1 within 4 sigma.  The
    fit weights by the inverse covariance of the differences, which all
    carry the unknot's error."""
    from graphflow.diagrams import a2_of_curve, project_to_diagram

    # near the torus axis a projection is the closed p-braid, whose few
    # crossings keep the skein recursion of a2_from_conway fast
    axis = np.array([0.05, 0.03, 1.0]) / np.linalg.norm([0.05, 0.03, 1.0])
    flip = np.array([[1.0], [1.0], [-1.0]])
    unknot = v2_invariant(CIRCLE, n_samples=200_000, seed=1997)
    a2, diff, err = [], [], []
    for p, q in TORUS_FAMILY:
        knot = make_torus_knot(p, q, 2.0, 0.5)
        mirror = KnotCurve(cos_coeffs=flip * knot.cos_coeffs, sin_coeffs=flip * knot.sin_coeffs)
        for curve in (knot, mirror):
            a = a2_from_conway(project_to_diagram(curve, axis))
            assert a == a2_of_curve(curve) == (p * p - 1) * (q * q - 1) // 24
            est = v2_invariant(curve, n_samples=200_000, seed=1997)
            a2.append(a)
            diff.append(est.value - unknot.value)
            err.append(est.std_error)
    x = np.array(a2, dtype=float)
    cov = np.diag(np.square(err)) + unknot.std_error**2
    cx, cy = np.linalg.solve(cov, x), np.linalg.solve(cov, diff)
    slope, sigma = (cy @ x) / (cx @ x), (cx @ x) ** -0.5
    assert abs(slope - 1) <= 4 * sigma, (slope, sigma)


def _oracle_gauss_blocks(k1, k2, n, rows=64):
    """Row blocks of the Gauss grid of k1 and k2 at n midpoints, by the
    einsum form on (n, 3) rows; on one curve its nan diagonal is set to 0."""
    t = (np.arange(n) + 0.5) / n
    p1, d1 = k1.eval(t), k1.deriv(t)
    p2, d2 = k2.eval(t), k2.deriv(t)
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        with np.errstate(invalid="ignore", divide="ignore"):
            f = gauss_coeff(p2[None] - p1[i0:i1, None], -d1[i0:i1, None], d2[None])
        if k2 is k1:
            assert np.isnan(np.diagonal(f, offset=i0)).all()
            f[np.eye(i1 - i0, n, i0, dtype=bool)] = 0.0
        assert np.isfinite(f).all()
        yield i0, i1, f


def _oracle_gauss_sum(k1, k2, n):
    """The grid sum as a separate loop: the einsum form's 64-row block
    sums, added left to right."""
    return sum(float(f.sum()) for _, _, f in _oracle_gauss_blocks(k1, k2, n)) / (n * n)


@pytest.mark.parametrize("curve", [CIRCLE, TREFOIL], ids=["circle", "trefoil"])
def test_sln_quadrature_bit_identical_to_separate_loop(curve, monkeypatch):
    """The plain sums on grids 250, 500 and 1000 (the last block of each
    partial) and the Richardson step on them equal the oracle loop's."""
    est = sln_integral(curve, grid=1000)
    monkeypatch.setattr(integrals, "_gauss_sum", _oracle_gauss_sum)
    assert est == sln_integral(curve, grid=1000)


def test_linking_quadrature_bit_identical_to_separate_loop(monkeypatch):
    """At grid 1024 and at the odd grid 999, whose coarse grid is 500 and
    whose last blocks are partial, the value is the oracle's sum on the
    grid and the error its distance from the sum on ceil(grid / 2)."""
    a, b = bundled_curve("hopf_a"), bundled_curve("hopf_b")
    for grid in (1024, 999):
        est = linking_integral(a, b, grid=grid)
        fine, coarse = (_oracle_gauss_sum(a, b, n) for n in (grid, -(-grid // 2)))
        assert (est.value, est.std_error) == (fine, abs(fine - coarse))
        with monkeypatch.context() as m:
            m.setattr(integrals, "_gauss_sum", _oracle_gauss_sum)
            assert est == linking_integral(a, b, grid=grid)


@pytest.mark.parametrize(
    "integral, names",
    [(sln_integral, ["trefoil"]), (linking_integral, ["hopf_a", "hopf_b"])],
    ids=["sln", "lk"],
)
def test_grid_integrals_stay_small_in_memory(integral, names):
    """Peak traced memory at grid 1024 on fresh curves.  Both grids are
    summed in 64-row blocks of 0.5 MiB; sln with its 1024 x 1024 blocks
    and band masks peaked at 19.7 MiB, and lk with its one 1024 x 1024
    block at 8.9 MiB."""
    curves = [bundled_curve(name) for name in names]
    tracemalloc.start()
    try:
        integral(*curves, grid=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_gauss_blocks_cross_chunks():
    """Every 64-row block of the grid, filled from coordinate planes in
    row passes, has the bits of the einsum form: the four knots' self
    grids (a nan diagonal on each, set to 0, and +0.0 entries off it on
    the planar circle), the Hopf pair at n = 2048 (32 blocks) and the
    trefoil at n = 200 (the last block partial)."""
    a, b = bundled_curve("hopf_a"), bundled_curve("hopf_b")
    assert integrals._gauss_sum(a, b, 2048) == _oracle_gauss_sum(a, b, 2048)
    cases = [(k, k, 1024) for k in map(bundled_curve, BUNDLED_KNOTS)]
    cases += [(a, b, 2048), (TREFOIL, TREFOIL, 200)]
    for k1, k2, n in cases:
        blocks = integrals._gauss_blocks(k1, k2, n)
        for (i0, i1, f), (j0, j1, want) in zip(blocks, _oracle_gauss_blocks(k1, k2, n), strict=True):
            assert (i0, i1) == (j0, j1)
            assert np.array_equal(f.view(np.int64), want.view(np.int64)), (n, i0)
            off = ~np.eye(i1 - i0, n, i0, dtype=bool)
            assert k1.name != "circle" or (f.view(np.int64)[off] == 0).any()


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
        knot_pts, knot_tan = curve.eval(tv), curve.deriv(tv)
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
        raise SamplingFailed("collision guard kept rejecting samples")
    return float(np.mean(values * weights))


def _oracle_a_gamma_mc(graph, curve, n_samples, seed):
    """``a_gamma_mc`` with every batch run alone by ``_oracle_mc_batch``,
    its streams seeded by (seed, a 63-bit sha256 tag of the graph's
    encoding, batch)."""
    integrand = CompiledIntegrand()
    diam = curve.diameter()
    m = max(1, n_samples // integrals.MC_BATCHES)
    text = f"{graph.flavor.value}|{graph.n_ext}|{graph.n_int}|{graph.edges}"
    tag = int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1
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


#: Curves of the group-pass oracle test beyond the bundled ones: every
#: kind of curve the pass evaluates, polyline and warp included.
ORACLE_CURVES = {
    "trefoil_97gon": lambda: KnotCurve(points=bundled_curve("trefoil").eval(np.arange(97) / 97)),
    "warped_trefoil": lambda: reparametrized(TREFOIL, 0.3),
}


# 100 samples: one group of all 64 batches; 25,000: groups of 10, the last
# of 4; 200,000: one batch per group
@pytest.mark.parametrize(
    "name, graph, n_samples",
    [
        pytest.param(name, G2, n_samples, id=f"{name}-tripod-{n_samples}")
        for n_samples in [100, 25_000, 200_000]
        for name in ["trefoil", "torus_2_5"]
        + ([*ORACLE_CURVES, "circle", "figure_eight"] if n_samples < 200_000 else [])
    ],
)
def test_group_pass_matches_batch_by_batch_oracle(name, graph, n_samples):
    curve = ORACLE_CURVES[name]() if name in ORACLE_CURVES else bundled_curve(name)
    est = a_gamma_mc(curve, n_samples=n_samples, seed=31)
    assert est == _oracle_a_gamma_mc(graph, curve, n_samples, seed=31)


def test_group_pass_redraws_collisions_like_the_oracle(monkeypatch):
    curve = bundled_curve("trefoil")
    rows = _rows_with_eps_coll(monkeypatch, 0.01 * curve.diameter())
    est = a_gamma_mc(curve, n_samples=25_000, seed=31)
    assert len(rows) > 7 and sum(rows) > est.n_samples  # redraws happened
    assert est == _oracle_a_gamma_mc(G2, curve, 25_000, seed=31)


def test_group_pass_gives_up_after_64_draws_per_sample(monkeypatch):
    rows = _rows_with_eps_coll(monkeypatch, math.inf)
    with pytest.raises(SamplingFailed, match="^collision guard kept rejecting samples$"):
        a_gamma_mc(TREFOIL, n_samples=100, seed=31)
    assert rows == [64] * 64  # one group of 64 one-sample batches, each drawn 64 times
    del rows[:]
    with pytest.raises(SamplingFailed, match="^collision guard kept rejecting samples$"):
        _oracle_a_gamma_mc(G2, TREFOIL, 100, seed=31)
    assert rows == [1] * 64


def test_sample_count_above_the_limit_raises_before_sampling(monkeypatch):
    monkeypatch.setattr(integrals, "_mc_group", None)  # a call would fail with TypeError
    with pytest.raises(ResourceLimit):
        a_gamma_mc(TREFOIL, n_samples=integrals.MC_MAX_SAMPLES + 1)


# 200,000 samples: 64 one-batch groups over three threads, which share
# the curve and the integrand but no buffer
@pytest.mark.parametrize("n_samples", [100, 25_000, 200_000])
def test_worker_count_does_not_change_grouped_result(n_samples):
    a = a_gamma_mc(TREFOIL, n_samples=n_samples, seed=9, workers=1)
    b = a_gamma_mc(TREFOIL, n_samples=n_samples, seed=9, workers=3)
    assert a == b
