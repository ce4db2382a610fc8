import numpy as np
import pytest

from graphflow.curves import KnotCurve, bundled_curve, near_pairs
from graphflow.diagrams import (
    GAP_SAMPLES,
    Crossing,
    GaussDiagram,
    _children,
    _plane_basis,
    a2_of_curve,
    a2_oracle,
    project_to_diagram,
    ranked_directions,
    stable_crossings,
)
from graphflow.errors import DegenerateProjection, InconsistentDiagram
from oracles import (
    a2_from_conway,
    candidate_pairs,
    conway_polynomial,
    full_search_crossings,
    generic_directions,
    make_torus_knot,
    mirror,
    project_full_search,
    random_fourier_knots,
    reparametrized,
    round_circle,
    torus_curve,
    writhe,
)

DIR = [0.11, 0.07, 0.99]


def test_circle_has_no_crossings():
    d = project_to_diagram(round_circle(1.0), DIR)
    assert d.crossings == ()
    assert a2_oracle(d) == 0
    assert conway_polynomial(d) == [1]


def test_in_plane_projection_degenerate():
    with pytest.raises(DegenerateProjection):
        project_to_diagram(round_circle(1.0), [1.0, 0.0, 0.0])


def test_trefoil_projection():
    d = project_to_diagram(make_torus_knot(2, 3, 2.0, 0.5), DIR)
    assert len(d.crossings) == 3
    signs = {c.sign for c in d.crossings}
    assert len(signs) == 1
    assert abs(writhe(d)) == 3


def test_positive_trefoil_all_positive_crossings():
    # mirror of the bundled trefoil: right-handed, writhe +3
    tref = make_torus_knot(2, 3, 2.0, 0.5)
    mirrored = KnotCurve(
        cos_coeffs=tref.cos_coeffs * np.array([[1.0], [1.0], [-1.0]]),
        sin_coeffs=tref.sin_coeffs * np.array([[1.0], [1.0], [-1.0]]),
    )
    d = project_to_diagram(mirrored, DIR)
    assert [c.sign for c in d.crossings] == [1, 1, 1]
    assert a2_oracle(d) == 1


def test_figure_eight_projection():
    d = project_to_diagram(bundled_curve("figure_eight"), DIR)
    assert len(d.crossings) == 4
    assert writhe(d) == 0


def test_a2_values():
    assert a2_of_curve(round_circle(1.0)) == 0
    assert a2_of_curve(make_torus_knot(2, 3, 2.0, 0.5)) == 1
    assert a2_of_curve(bundled_curve("figure_eight")) == -1
    assert a2_of_curve(bundled_curve("torus_2_5")) == 3


def test_pv_matches_conway_on_projections():
    for name in ("circle", "trefoil", "figure_eight", "torus_2_5"):
        for direction in generic_directions(seed=3, count=3):
            d = project_to_diagram(bundled_curve(name), direction)
            assert a2_oracle(d) == a2_from_conway(d)


def test_conway_polynomials():
    d3 = project_to_diagram(bundled_curve("trefoil"), DIR)
    assert conway_polynomial(d3) == [1, 0, 1]
    d4 = project_to_diagram(bundled_curve("figure_eight"), DIR)
    assert conway_polynomial(d4) == [1, 0, -1]
    d5 = project_to_diagram(bundled_curve("torus_2_5"), DIR)
    assert conway_polynomial(d5) == [1, 0, 3, 0, 1]


def test_a2_mirror_invariance():
    for name in ("trefoil", "figure_eight"):
        d = project_to_diagram(bundled_curve(name), DIR)
        assert a2_oracle(mirror(d)) == a2_oracle(d)
        assert a2_from_conway(mirror(d)) == a2_from_conway(d)


def test_reidemeister_one_insensitivity():
    """Adding a kink shifts the writhe by one and leaves a2 alone."""
    d = project_to_diagram(bundled_curve("trefoil"), DIR)
    # a kink is a crossing whose two parameters bound an empty arc
    params = sorted(t for c in d.crossings for t in (c.over, c.under))
    gap_lo = params[0] / 3
    gap_hi = 2 * params[0] / 3
    for sign in (1, -1):
        for over_first in (True, False):
            o, u = (gap_lo, gap_hi) if over_first else (gap_hi, gap_lo)
            kinked = GaussDiagram(d.crossings + (Crossing(o, u, sign),))
            assert writhe(kinked) == writhe(d) + sign
            assert a2_oracle(kinked) == a2_oracle(d)
            assert a2_from_conway(kinked) == a2_from_conway(d)


def test_unrealizable_diagram_rejected():
    # two interlaced crossings both first-seen over: not a knot diagram
    bad = GaussDiagram((Crossing(0.1, 0.4, 1), Crossing(0.2, 0.6, 1)))
    with pytest.raises(InconsistentDiagram):
        a2_oracle(bad)


def test_diagram_validation():
    with pytest.raises(InconsistentDiagram):
        GaussDiagram((Crossing(0.1, 0.1, 1),))
    with pytest.raises(InconsistentDiagram):
        GaussDiagram((Crossing(0.1, 0.5, 2),))
    with pytest.raises(InconsistentDiagram):
        GaussDiagram((Crossing(1.2, 0.5, 1),))


def test_projection_direction_independence():
    values = []
    for direction in generic_directions(seed=11, count=4):
        try:
            d = project_to_diagram(bundled_curve("trefoil"), direction)
        except DegenerateProjection:
            continue
        values.append(a2_oracle(d))
    assert len(values) >= 3
    assert set(values) == {1}


def _projected_midpoints(u, v):
    """Midpoints of the projected closed polyline and its longest
    segment, as ``_segment_crossings`` passes them to ``near_pairs``."""
    nxt = np.concatenate([np.arange(1, len(u)), [0]])
    mid = np.stack([u + u[nxt], v + v[nxt]], axis=1) / 2
    return mid, max(float(np.hypot(u[nxt] - u, v[nxt] - v).max()), 1e-12)


@pytest.mark.parametrize("name", ["circle", "trefoil", "figure_eight", "torus_2_5"])
def test_candidate_pairs_match_bucket_walk(name):
    """``near_pairs`` on the projected midpoints, at cyclic separation
    above 1, returns the dict-bucket walk's pairs in its order, which
    fixes the order of the crossing checks."""
    curve = bundled_curve(name)
    for direction in generic_directions(count=3):
        e1, e2, _ = _plane_basis(direction)
        for n in (2048, 4096, 8192):
            pts = curve.eval(np.arange(n) / n)
            u, v = pts @ e1, pts @ e2
            pairs = near_pairs(*_projected_midpoints(u, v), window=1)
            assert np.array_equal(pairs, candidate_pairs(u, v, n))


def test_candidate_pairs_of_triangle_empty():
    u, v = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])
    pairs = near_pairs(*_projected_midpoints(u, v), window=1)
    assert pairs.shape == (0, 2) and pairs.dtype == np.int64


def test_children_keep_grown_overlaps_and_near_adjacent_pairs():
    """On a 32-point polyline out along u and back, whose point 25 strays 3
    from its parent's middle: the parent pair (0, 2), whose boxes are 2
    apart, keeps its four children, (0, 6), 10 apart, keeps none, and the
    children of adjacent parents that are not adjacent themselves stay."""
    u = np.array([float(min(k, 32 - k)) for k in range(32)])
    u[25] = 10.0
    got = {tuple(p) for p in _children(u, np.zeros(32), np.array([[0, 2], [0, 6]])).tolist()}
    assert {(0, 4), (0, 5), (1, 4), (1, 5)} <= got
    assert not {(0, 12), (0, 13), (1, 12), (1, 13)} & got
    assert {(k, k + 2) for k in range(30)} | {(k, k + 3) for k in range(0, 29, 2)} <= got


def test_children_of_two_curves_close_each_curve_on_itself():
    """Two 8-point polylines numbered one after the other, the second the
    first moved along u: each curve's last parent closes on its own first
    point, so at a distance of 10 no pair of a parent of each keeps a
    child, and at 0.25 the first parents' pair keeps its four children
    and no pair of adjacent segments is added."""
    u1, v1 = np.array([0, 1, 2, 3, 3, 2, 1, 0.0]), np.array([0, 0, 0, 0, 1, 1, 1, 1.0])
    pairs = np.array([[a, b] for a in range(4) for b in range(4, 8)])
    far = _children(np.concatenate([u1, u1 + 10]), np.concatenate([v1, v1]), pairs, curves=2)
    assert far.shape == (0, 2)
    near = _children(np.concatenate([u1, u1 + 0.25]), np.concatenate([v1, v1 + 0.25]), pairs[:1], curves=2)
    assert sorted(map(tuple, near.tolist())) == [(0, 8), (0, 9), (1, 8), (1, 9)]


def _projection(project, curve, direction):
    """The diagram, or the DegenerateProjection's message."""
    try:
        return project(curve, direction)
    except DegenerateProjection as exc:
        return str(exc)


def _inherited_matches_full(curve, directions):
    """Along each direction, the inherited crossing search gives the full
    search's diagram bit for bit, or the same DegenerateProjection."""
    seen = []
    for direction in directions:
        got = _projection(project_to_diagram, curve, direction)
        assert got == _projection(project_full_search, curve, direction), direction
        seen.append(got)
    return seen


@pytest.mark.parametrize("name", ["circle", "trefoil", "figure_eight", "torus_2_5"])
def test_inherited_search_matches_the_full_search_on_bundled_knots(name):
    """Along 32 generic directions; most give a diagram, as a2 needs."""
    seen = _inherited_matches_full(bundled_curve(name), generic_directions(seed=29, count=32))
    assert sum(isinstance(x, GaussDiagram) for x in seen) >= 24


def test_inherited_search_matches_the_full_search_on_other_curves():
    """On random low-harmonic knots, a reparametrized torus knot and the
    97-gon through the trefoil, along 8 directions each; some of these
    projections are degenerate, and raise the same error both ways."""
    polygon = KnotCurve(points=bundled_curve("trefoil").eval(np.arange(97) / 97))
    curves = [*random_fourier_knots(4, seed=5), reparametrized(bundled_curve("torus_2_5")), polygon]
    seen = [x for c in curves for x in _inherited_matches_full(c, generic_directions(seed=31, count=8))]
    assert any(isinstance(x, GaussDiagram) and len(x.crossings) > 2 for x in seen)
    assert any(isinstance(x, str) for x in seen)


@pytest.mark.parametrize("name", ["circle", "trefoil", "figure_eight", "torus_2_5"])
def test_ranked_directions_at_seed_0_are_sln_order(name):
    """At seed 0 the ranked set is, bit for bit and in order, the one sln
    built inline before: the 64-point Fibonacci hemisphere sorted by its
    gap 1 - max |u.T| on 512 tangents, largest first, ties in order."""
    curve = bundled_curve(name)
    k = np.arange(64)
    z, phi = 1.0 - k / 64, k * (np.pi * (3.0 - np.sqrt(5.0)))
    dirs = np.stack([np.sqrt(1 - z * z) * np.cos(phi), np.sqrt(1 - z * z) * np.sin(phi), z], axis=1)
    tan = curve.eval_planes(np.arange(512) / 512)[1]
    gap = 1.0 - np.abs(dirs @ (tan / np.linalg.norm(tan, axis=0))).max(axis=1)
    want = dirs[np.argsort(-gap, kind="stable")]
    assert GAP_SAMPLES == 512
    assert np.array_equal(ranked_directions((curve,)).view(np.int64), want.view(np.int64))


def test_ranked_directions_turn_with_the_seed():
    """A seed turns the hemisphere about its pole by that many golden
    angles: the heights stay, the directions move, and the ranking by gap
    takes every tangent of every curve.  Seeds count modulo 2^53, so a
    seed beyond float range still turns it, and a2 reads with it."""
    a, b = bundled_curve("hopf_a"), bundled_curve("hopf_b")
    base, turned = ranked_directions((a,), 16), ranked_directions((a,), 16, seed=3)
    assert np.allclose(np.linalg.norm(turned, axis=1), 1.0) and (turned[:, 2] > 0).all()
    assert np.array_equal(np.sort(base[:, 2]), np.sort(turned[:, 2]))
    assert not np.allclose(base, turned)
    huge = 10**400
    assert np.array_equal(ranked_directions((a,), 16, seed=huge), ranked_directions((a,), 16, seed=huge % 2**53))
    assert a2_of_curve(bundled_curve("trefoil"), seed=huge) == 1
    # hopf_a lies in the xy-plane, so its best direction is the pole; hopf_b,
    # in the xz-plane, moves the pair's best direction off it
    assert np.array_equal(base[0], [0.0, 0.0, 1.0]) and ranked_directions((a, b))[0][2] < 1.0


def _far(curve: KnotCurve, shift: float) -> KnotCurve:
    cos_c = curve.cos_coeffs.copy()
    cos_c[:, 0] += shift
    return KnotCurve(cos_coeffs=cos_c, sin_coeffs=curve.sin_coeffs)


#: Pairs of curves and their linking numbers: the Hopf pair both ways,
#: hopf_b moved to 3 times lk's separation bound, torus links on one torus
#: with lk -1 and -2, and the circle with a far copy of itself.
LINKS = {
    "hopf": (lambda: (bundled_curve("hopf_a"), bundled_curve("hopf_b")), 1),
    "swapped": (lambda: (bundled_curve("hopf_b"), bundled_curve("hopf_a")), 1),
    "near-bound": (lambda: (bundled_curve("hopf_a"), KnotCurve(
        cos_coeffs=[[0.006, 1.0], [0.0, 0.0], [0.0, 0.0]], sin_coeffs=[[0.0], [0.0], [-1.0]])), 1),
    "torus-q1": (lambda: (torus_curve(1, 1, 2.0, 1.0), torus_curve(1, 1, 2.0, 1.0, np.pi / 2)), -1),
    "torus-q2": (lambda: (torus_curve(1, 2, 2.0, 1.0), torus_curve(1, 2, 2.0, 1.0, np.pi / 2)), -2),
    "far": (lambda: (round_circle(1.0), _far(round_circle(1.0), 3.0)), 0),
}


@pytest.fixture(scope="module")
def link_projections():
    """name -> (pair, lk, [(direction, inherited search, full search)]) along
    each pair's first 6 ranked directions, each search's crossing list or
    DegenerateProjection message; the full search runs once per module."""
    out = {}
    for name, (make, lk) in LINKS.items():
        pair = make()
        rows = [
            (u, _projection(stable_crossings, pair, u), _projection(full_search_crossings, pair, u))
            for u in ranked_directions(pair)[:6]
        ]
        out[name] = pair, lk, rows
    return out


@pytest.mark.parametrize("name", list(LINKS))
def test_two_curve_search_matches_the_full_search(name, link_projections):
    """The inherited search on two curves gives the full search's crossing
    list bit for bit, or the same DegenerateProjection, and keeps only
    crossings of one curve with the other: one parameter below 1, one in
    [1, 2)."""
    _, _, rows = link_projections[name]
    for u, got, want in rows:
        assert got == want, u
        assert isinstance(got, str) or all((c.over < 1) != (c.under < 1) for c in got)
    assert any(isinstance(got, list) for _, got, _ in rows)


@pytest.mark.parametrize("name", list(LINKS))
def test_full_search_counts_give_the_linking_number(name, link_projections):
    """On each generic projection of the full search, the signed crossings
    where the first curve is over, and those where the second is, each sum
    to the pair's linking number, as ``linking_integral`` reads it."""
    from graphflow.integrals import linking_integral

    pair, lk, rows = link_projections[name]
    for _, _, want in rows:
        if isinstance(want, list):
            assert [sum(c.sign for c in want if (c.over < 1) == first) for first in (True, False)] == [lk, lk]
    assert linking_integral(*pair).value == lk
