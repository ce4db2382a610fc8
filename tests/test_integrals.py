import contextlib
import hashlib
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from graphflow.cli import main
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
    gauss_grid_blocks,
    gauss_grid_sum,
    linking_quadrature,
    make_torus_knot,
    polygon_writhe,
    random_fourier_knots,
    reparametrized,
    round_circle,
    scaled,
    sln_midpoint,
    torus_curve,
)

G1, G2, _ = knot_order2_graphs()
CIRCLE = round_circle(1.0)
TREFOIL = make_torus_knot(2, 3, 2.0, 0.5)
BUNDLED_KNOTS = ["circle", "trefoil", "figure_eight", "torus_2_5"]

#: Converged sln and X of the bundled knots: sln by the midpoint rule at
#: grid 16384, whose stated errors are at most 6e-14, and X at grid 4096,
#: whose stated errors are at most 1e-7; made by
#:   PYTHONPATH=src:tests python -c "import oracles; from graphflow import curves, integrals as i
#:   k = curves.bundled_curve('trefoil')
#:   print(oracles.sln_midpoint(k, 16384), i._x_quadrature(k, grid=4096))"
#: The sln values at grid 8192 were up to 5e-14 off these (torus_2_5).
#: ``test_sln_references_match_polygon_writhe`` checks the sln values
#: against an independent oracle.
REFERENCE = {
    "circle": (0.0, 0.0),
    "trefoil": (-3.126859232824684, 4.198435959414823),
    "figure_eight": (0.08631611344068545, -3.8004587969237407),
    "torus_2_5": (-5.705114523996978, 12.176178466074644),
}
#: sln of thin torus knots, make_torus_knot(p, q, 2, r) keyed by (p, q, r),
#: by the midpoint rule at grid 16384 (about 20 s each on a 2-core x86-64
#: machine, stated errors at most 2.4e-14); made by
#:   PYTHONPATH=src:tests python -c "import oracles
#:   print(oracles.sln_midpoint(oracles.make_torus_knot(2, 5, 2.0, 0.05), 16384))"
THIN_SLN = {
    (2, 5, 0.05): -5.008192073216453,
    (3, 5, 0.05): -10.00277952282418,
    (2, 5, 0.02): -5.001312217496753,
}


def test_sln_circle_vanishes():
    est = sln_integral(CIRCLE)
    assert abs(est.value) < 1e-6


def test_sln_trefoil_regression():
    est = sln_integral(TREFOIL)
    assert abs(est.value - REFERENCE["trefoil"][0]) <= est.std_error


def test_sln_reparametrization_invariant():
    est = sln_integral(TREFOIL)
    rep = sln_integral(reparametrized(TREFOIL, 0.3))
    assert abs(est.value - rep.value) <= 3 * (est.std_error + rep.std_error)


@pytest.mark.parametrize("copy", ["plain", "reparametrized", "scaled"])
@pytest.mark.parametrize("name", BUNDLED_KNOTS)
def test_stated_errors_cover_the_references(name, copy):
    """sln and X at grid 512 are within their stated errors of the
    converged values, also on a reparametrized copy (the same image at
    non-uniform speed) and on a copy scaled by 1e-3; sln's error is
    below 1e-12."""
    base = bundled_curve(name)
    copies = {"plain": base, "reparametrized": reparametrized(base), "scaled": scaled(base, 1e-3)}
    knot = copies[copy]
    sln_ref, x_ref = REFERENCE[name]
    sln, x = sln_integral(knot), integrals._x_quadrature(knot)
    assert abs(sln.value - sln_ref) <= sln.std_error < 1e-12, (sln, sln_ref)
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
def test_sln_error_covers_a_polygon(grid, monkeypatch):
    """A polygon's tangent jumps at its vertices, where its twist is a
    closed form over great arcs that takes no nodes; on the 97-gon through
    the trefoil, whatever the twist's cap, the stated error must still
    cover the distance from its exact writhe."""
    monkeypatch.setattr(integrals, "TWIST_MAX_NODES", grid)
    points = bundled_curve("trefoil").eval(np.arange(97) / 97)
    est = sln_integral(KnotCurve(points=points))
    assert abs(est.value - polygon_writhe(points)) <= est.std_error


@pytest.mark.parametrize("name, n", [("trefoil", 97), ("torus_2_5", 61), ("figure_eight", 80)])
def test_sln_of_a_polygon_is_its_writhe(name, n):
    """On the polygons through n points of the bundled knots, sln is the
    solid-angle writhe within an error below 1e-12."""
    points = bundled_curve(name).eval(np.arange(n) / n)
    est = sln_integral(KnotCurve(points=points))
    assert abs(est.value - polygon_writhe(points)) <= est.std_error < 1e-12, est
    assert est.n_samples == n and est.method == "projection"


def test_sln_of_a_warped_curve_is_its_base_curves():
    """The writhe does not depend on the parametrization: a warped curve,
    also a warp of a warp, reads its base curve's estimate bit for bit."""
    base = bundled_curve("torus_2_5")
    est = sln_integral(base)
    assert sln_integral(reparametrized(base)) == est
    assert sln_integral(reparametrized(reparametrized(base, -0.4))) == est


@pytest.mark.parametrize("p, q, r", list(THIN_SLN))
def test_sln_of_thin_torus_knots_matches_the_midpoint_rule(p, q, r):
    """On thin torus knots, where the midpoint rule needs grid 16384, sln
    is within its stated error of that grid's value."""
    est = sln_integral(make_torus_knot(p, q, 2.0, r))
    assert abs(est.value - THIN_SLN[p, q, r]) <= est.std_error < 1e-12, est


def test_sln_twist_doubles_up_to_the_grid(monkeypatch):
    """The twist sums double from 64 nodes until converged; a cap
    (TWIST_MAX_NODES) of 64 stops them there, and their last step is then
    the stated error."""
    knot = make_torus_knot(2, 5, 2.0, 0.02)
    free = sln_integral(knot)
    monkeypatch.setattr(integrals, "TWIST_MAX_NODES", 64)
    capped = sln_integral(knot)
    assert capped.n_samples == 64 and free.n_samples > 64
    assert abs(capped.value - free.value) <= capped.std_error
    assert capped.std_error > 100 * free.std_error == 100 * integrals.ROUNDING_FLOOR


def test_sln_twist_reaches_the_rounding_floor_on_random_knots():
    """On the first three seeded random four-harmonic knots, whose best
    gaps 1 - max |u.T| are small (0.057-0.165), the twist sums run past
    1024 nodes, where a cap of 1024 left errors of 9.6e-7 and 1.3e-6, to
    the rounding floor below TWIST_MAX_NODES."""
    ests = [sln_integral(knot) for knot in random_fourier_knots(3, seed=77, harmonics=4)]
    assert [e.std_error for e in ests] == [integrals.ROUNDING_FLOOR] * 3, ests
    assert max(e.n_samples for e in ests) > 1024


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
    est = linking_integral(bundled_curve("hopf_a"), bundled_curve("hopf_b"))
    assert (est.value, est.std_error, est.method) == (1.0, 0.0, "projection")


def test_linking_swap_symmetric():
    a, b = bundled_curve("hopf_a"), bundled_curve("hopf_b")
    ab, ba = linking_integral(a, b), linking_integral(b, a)
    assert (ab.value, ab.std_error) == (ba.value, ba.std_error) == (1.0, 0.0)


def test_linking_unlinked_pair():
    far = KnotCurve(
        cos_coeffs=[[0.0, 1.0], [0.0, 0.0], [5.0, 0.0]],
        sin_coeffs=[[0.0], [1.0], [0.0]],
    )
    est = linking_integral(CIRCLE, far)
    assert (est.value, est.std_error) == (0.0, 0.0)


def test_linking_near_integer_on_bundled_links():
    """lk is the signed crossing count, so an integer with no error."""
    a, b = bundled_curve("hopf_a"), bundled_curve("hopf_b")
    est = linking_integral(a, b)
    assert est.value == round(est.value) and est.std_error == 0.0


@pytest.mark.parametrize("shift", [1e6, 1e12], ids=["1e6", "1e12"])
def test_linking_of_a_far_pair(shift):
    """hopf_b translated by ``shift`` along (1, 1, 1) reads exactly 0, with
    no warning and no crossing: the separation check and the crossing
    search keep only the points and segments near the other curve's box,
    here none, so no cell key of the search overflows."""
    a, b = bundled_curve("hopf_a"), bundled_curve("hopf_b")
    cos_c = b.cos_coeffs.copy()
    cos_c[:, 0] += shift
    far = KnotCurve(cos_coeffs=cos_c, sin_coeffs=b.sin_coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = linking_integral(a, far)
    assert tuple(est) == (0.0, 0.0, 0, 0, "projection")


def test_linking_rejects_a_curve_collapsed_by_rounding():
    """hopf_b translated by 1e17 along (1, 1, 1) samples to one float point
    (spacing 16 there), so lk refuses it as not embedded, as every other
    knot command does, before any separation check or projection."""
    a, b = bundled_curve("hopf_a"), bundled_curve("hopf_b")
    cos_c = b.cos_coeffs.copy()
    cos_c[:, 0] += 1e17
    with pytest.raises(CurveValidationError, match="extent 0$") as err:
        linking_integral(a, KnotCurve(cos_coeffs=cos_c, sin_coeffs=b.sin_coeffs))
    assert err.value.invariant == "embedded"


def test_linking_rejects_intersecting():
    with pytest.raises(CurvesIntersect):
        linking_integral(CIRCLE, round_circle(1.0))


def test_linking_skips_a_projection_whose_counts_disagree(monkeypatch):
    """When the crossings where k1 is over and those where k2 is over count
    differently, as on a projection that missed a crossing, lk takes the
    next ranked direction."""
    from graphflow import diagrams

    seen, search = [], diagrams.stable_crossings

    def first_misses_one(curves, u):
        seen.append(u)
        found = search(curves, u)
        return found[1:] if len(seen) == 1 else found

    monkeypatch.setattr(diagrams, "stable_crossings", first_misses_one)
    est = linking_integral(bundled_curve("hopf_a"), bundled_curve("hopf_b"))
    assert len(seen) == 2 and (est.value, est.std_error) == (1.0, 0.0)


def _polygon_hopf_pair(m_a: int, m_b: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of an m_a-gon inscribed in hopf_a and an m_b-gon inscribed
    in hopf_b, at angles 2 pi (k + 1/3) / m, so that no vertex of the
    second lies in the first one's plane, turned by one random rotation
    and moved by one random shift."""
    ta, tb = (2 * np.pi * (np.arange(m) + 1 / 3) / m for m in (m_a, m_b))
    a = np.stack([np.cos(ta), np.sin(ta), 0 * ta], axis=1)
    b = np.stack([1 + np.cos(tb), 0 * tb, -np.sin(tb)], axis=1)
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    q[:, 0] *= np.sign(np.linalg.det(q))  # a rotation, not a reflection
    shift = rng.normal(size=3)
    return a @ q.T + shift, b @ q.T + shift


@pytest.mark.parametrize("m_a, m_b", [(3, 3), (3, 8), (4, 5), (5, 4), (7, 16), (12, 6), (64, 3)])
def test_linking_of_polygonal_hopf_pairs(m_a, m_b):
    """Polygons inscribed in the Hopf pair, rotated and moved, link once
    (the torus quadrature at 1024 points reads each pair within 7e-4 of
    1): lk reads exactly the Hopf pair's value, the same with the pair
    swapped, negated with either polygon reversed and with both
    mirrored, each with no error."""
    a, b = _polygon_hopf_pair(m_a, m_b, np.random.default_rng(1000 * m_a + m_b))
    mirror = np.array([1.0, 1.0, -1.0])
    cases = [((a, b), 1.0), ((b, a), 1.0), ((a[::-1], b), -1.0), ((a, b[::-1]), -1.0)]
    for (p, q), want in cases + [((a * mirror, b * mirror), -1.0)]:
        est = linking_integral(KnotCurve(points=p), KnotCurve(points=q))
        assert (est.value, est.std_error) == (want, 0.0), (m_a, m_b, want)


#: Torus links on one torus of radii 2 and 1: two (1, q) curves whose
#: meridian phases differ by ``phase``, so lk = -q in this orientation.
TORUS_LINKS = [(q, phase) for q in (0, 1, 2) for phase in (math.pi / 2, math.pi)]


@pytest.mark.parametrize("q, phase", TORUS_LINKS, ids=[f"q{q}-{p:.2f}" for q, p in TORUS_LINKS])
def test_linking_of_torus_links_matches_the_quadrature(q, phase):
    """The crossing count equals the Gauss integral by the torus
    quadrature (``oracles.linking_quadrature``) within its stated error
    on torus links with lk 0, -1 and -2, with one component reversed,
    with both mirrored and with the two swapped: this pins lk's sign
    convention to the integral's."""
    k1, k2 = (torus_curve(1, q, 2.0, 1.0, p) for p in (0.0, phase))
    flip = np.array([[1.0], [1.0], [-1.0]])
    reverse = KnotCurve(cos_coeffs=k2.cos_coeffs, sin_coeffs=-k2.sin_coeffs)
    mirror = [KnotCurve(cos_coeffs=flip * k.cos_coeffs, sin_coeffs=flip * k.sin_coeffs) for k in (k1, k2)]
    for pair, want in [((k1, k2), -q), ((k1, reverse), q), (mirror, q), ((k2, k1), -q)]:
        est, quad = linking_integral(*pair), linking_quadrature(*pair)
        assert (est.value, est.std_error) == (want, 0.0)
        assert abs(est.value - quad.value) <= quad.std_error, (est, quad)


def test_linking_quadrature_bit_identical_to_separate_loop():
    """The torus quadrature that lk is checked against doubles the
    oracle's separate-loop sums: on the Hopf pair they stop at the grid
    128, whose sum is within the rounding floor of the one on 64, and a
    cap of 99 stops them at 99 points, whose last blocks are partial; the
    error is the rounding floor, and it covers the distance from lk."""
    a, b = bundled_curve("hopf_a"), bundled_curve("hopf_b")
    for grid, n, before in ((1024, 128, 64), (99, 99, 64)):
        est = linking_quadrature(a, b, grid)
        fine, coarse = gauss_grid_sum(a, b, n), gauss_grid_sum(a, b, before)
        err = abs(fine - coarse)
        assert (est.value, est.std_error, est.n_samples) == (fine, max(err, integrals.ROUNDING_FLOOR), n * n)
        assert err <= integrals.ROUNDING_FLOOR
        assert abs(est.value - linking_integral(a, b).value) <= est.std_error


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
        integrals, "_gauss_blocks", lambda k, n: gauss_grid_blocks(k, k, n, rows=n)
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


@pytest.mark.parametrize("curve", [CIRCLE, TREFOIL], ids=["circle", "trefoil"])
def test_sln_quadrature_bit_identical_to_separate_loop(curve):
    """The midpoint rule of the self-linking integral, on one curve's
    Gauss grid, by ``_gauss_blocks`` and ``_richardson`` (which X keeps):
    its plain sums on grids 250, 500 and 1000 (the last block of each
    partial), block sums added left to right, and the Richardson step on
    them equal the oracle's."""
    sums = lambda n: sum(float(f.sum()) for _, _, f in integrals._gauss_blocks(curve, n)) / (n * n)  # noqa: E731
    assert integrals._richardson(sums, 1000, power=2, steps=1) == sln_midpoint(curve, 1000)


@pytest.mark.parametrize("grid", [1024, 2048])
def test_linking_of_a_pair_near_the_separation_bound(grid, tmp_path):
    """hopf_b moved to within 3 times the separation bound of hopf_a
    (twice, about its two crossings with hopf_a's plane), where the torus
    quadrature of lk stopped at its cap 0.008 from 1, reads exactly 1;
    ``knot lk`` prints the same whatever ``--grid`` it is given."""
    a = bundled_curve("hopf_a")
    b = KnotCurve(cos_coeffs=[[0.006, 1.0], [0.0, 0.0], [0.0, 0.0]], sin_coeffs=[[0.0], [0.0], [-1.0]])
    est = linking_integral(a, b)
    assert (est.value, est.std_error, est.method) == (1.0, 0.0, "projection")
    path = tmp_path / "near.json"
    path.write_text(json.dumps(b.to_json_obj()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["knot", "lk", "--curve", "hopf_a", "--curve2", str(path), "--grid", str(grid), "--no-cache"])
    hashes = {"curve_hash": a.content_hash(), "curve2_hash": b.content_hash()}
    assert json.loads(out.getvalue())["result"] == {**est.to_json_obj(), "op": "lk", **hashes}


@pytest.mark.parametrize(
    "integral, names",
    [(sln_integral, ["trefoil"]), (linking_integral, ["hopf_a", "hopf_b"])],
    ids=["sln", "lk"],
)
def test_grid_integrals_stay_small_in_memory(integral, names):
    """Peak traced memory on fresh curves.  sln projects one polyline and
    lk two, of at most 8192 segments each on the bundled curves; sln with
    its 1024 x 1024 Gauss blocks and band masks peaked at 19.7 MiB, and lk
    with its one 1024 x 1024 block at 8.9 MiB."""
    curves = [bundled_curve(name) for name in names]
    tracemalloc.start()
    try:
        integral(*curves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_gauss_blocks_cross_chunks():
    """Every 64-row block of the grid, filled from coordinate planes in
    row passes, has the bits of the einsum form: the four knots' grids (a
    nan diagonal on each, set to 0, and +0.0 entries off it on the planar
    circle), the figure-eight at n = 2048 (32 blocks) and the trefoil at
    n = 200 (the last block partial)."""
    cases = [(k, 1024) for k in map(bundled_curve, BUNDLED_KNOTS)]
    cases += [(bundled_curve("figure_eight"), 2048), (TREFOIL, 200)]
    for k, n in cases:
        blocks = integrals._gauss_blocks(k, n)
        for (i0, i1, f), (j0, j1, want) in zip(blocks, gauss_grid_blocks(k, k, n), strict=True):
            assert (i0, i1) == (j0, j1)
            assert np.array_equal(f.view(np.int64), want.view(np.int64)), (n, i0)
            off = ~np.eye(i1 - i0, n, i0, dtype=bool)
            assert k.name != "circle" or (f.view(np.int64)[off] == 0).any()


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
