import numpy as np
import pytest

from graphflow.curves import KnotCurve, bundled_curve, near_pairs
from graphflow.diagrams import (
    Crossing,
    GaussDiagram,
    _children,
    _plane_basis,
    a2_of_curve,
    a2_oracle,
    generic_directions,
    project_to_diagram,
)
from graphflow.errors import CurveValidationError, DegenerateProjection, InconsistentDiagram
from oracles import (
    a2_from_conway,
    candidate_pairs,
    conway_polynomial,
    make_torus_knot,
    mirror,
    project_full_search,
    reparametrized,
    round_circle,
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


def _projection(project, curve, direction):
    """The diagram, or the DegenerateProjection's message."""
    try:
        return project(curve, direction)
    except DegenerateProjection as exc:
        return str(exc)


def _random_fourier_knots(count: int, seed: int) -> list[KnotCurve]:
    """Curves of three harmonics with normal coefficients over the
    harmonic, the first ``count`` that pass ``validate``."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        scale = 1.0 / np.arange(1, 4)
        cos_c = np.concatenate([np.zeros((3, 1)), rng.normal(size=(3, 3)) * scale], axis=1)
        curve = KnotCurve(cos_coeffs=cos_c, sin_coeffs=rng.normal(size=(3, 3)) * scale)
        try:
            out.append(curve.validate())
        except CurveValidationError:
            continue
    return out


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
    curves = [*_random_fourier_knots(4, seed=5), reparametrized(bundled_curve("torus_2_5")), polygon]
    seen = [x for c in curves for x in _inherited_matches_full(c, generic_directions(seed=31, count=8))]
    assert any(isinstance(x, GaussDiagram) and len(x.crossings) > 2 for x in seen)
    assert any(isinstance(x, str) for x in seen)
