import numpy as np
import pytest

from graphflow.curves import KnotCurve, bundled_curve, near_pairs
from graphflow.diagrams import (
    Crossing,
    GaussDiagram,
    _plane_basis,
    a2_of_curve,
    a2_oracle,
    generic_directions,
    project_to_diagram,
)
from graphflow.errors import DegenerateProjection, InconsistentDiagram
from oracles import (
    a2_from_conway,
    candidate_pairs,
    conway_polynomial,
    make_torus_knot,
    mirror,
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
