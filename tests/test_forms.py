import warnings

import numpy as np
import pytest

from graphflow.curves import make_torus_knot
from graphflow.errors import UnsupportedGraph
from graphflow.forms import CompiledIntegrand
from graphflow.graphs import DecoratedGraph, Flavor, has_internal_loop, knot_order2_graphs
from oracles import (
    CoincidentPoints,
    Configuration,
    DimensionMismatch,
    TwoForm,
    gauss_two_form,
    wedge_top,
)

K = Flavor.KNOT


def test_two_form_requires_antisymmetry():
    with pytest.raises(DimensionMismatch):
        TwoForm(np.ones((3, 3)))
    m = np.zeros((2, 2))
    m[0, 1], m[1, 0] = 1.0, -1.0
    assert TwoForm(m).apply([1, 0], [0, 1]) == 1.0


def test_wedge_single_form_reads_entry():
    f = TwoForm.from_upper(2, {(0, 1): 2.5})
    assert wedge_top([f], 2) == 2.5


def test_wedge_decomposable_square_vanishes():
    f = TwoForm.from_upper(4, {(0, 1): 1.0})
    assert wedge_top([f, f], 4) == 0.0


def test_wedge_dimension_checks():
    f = TwoForm.from_upper(4, {(0, 1): 1.0})
    with pytest.raises(DimensionMismatch):
        wedge_top([f], 4)
    with pytest.raises(DimensionMismatch):
        wedge_top([TwoForm.from_upper(14, {(0, 1): 1.0})] * 7, 14)


def test_wedge_known_value():
    # (a dx0^dx1 + b dx2^dx3) ^ (c dx0^dx2 + d dx1^dx3)... cross terms only
    f1 = TwoForm.from_upper(4, {(0, 1): 2.0, (2, 3): 3.0})
    f2 = TwoForm.from_upper(4, {(0, 1): 5.0, (2, 3): 7.0})
    # top coefficient = 2*7 + 3*5
    assert wedge_top([f1, f2], 4) == pytest.approx(29.0)


def test_wedge_order_independent():
    rng = np.random.default_rng(3)
    forms = []
    for _ in range(3):
        m = rng.normal(size=(6, 6))
        forms.append(TwoForm(m - m.T))
    ref = wedge_top(forms, 6)
    assert wedge_top(forms[::-1], 6) == pytest.approx(ref)
    assert wedge_top([forms[1], forms[0], forms[2]], 6) == pytest.approx(ref)


def test_gauss_form_swap_negates_exactly():
    tref = make_torus_knot(2, 3, 2.0, 0.5)
    conf = Configuration(tref, [0.12, 0.57], np.array([[0.3, 0.4, 1.2]]))
    f12 = gauss_two_form(conf, 1, 2)
    f21 = gauss_two_form(conf, 2, 1)
    assert np.array_equal(f12.matrix, -f21.matrix)
    f13 = gauss_two_form(conf, 1, 3)
    f31 = gauss_two_form(conf, 3, 1)
    assert np.array_equal(f13.matrix, -f31.matrix)


def test_gauss_form_planar_chord_degenerate():
    from graphflow.curves import round_circle

    conf = Configuration(round_circle(1.0), [0.1, 0.4], np.zeros((0, 3)))
    f = gauss_two_form(conf, 1, 2)
    assert abs(f.matrix[0, 1]) < 1e-15


def test_gauss_form_coincident_points():
    tref = make_torus_knot(2, 3, 2.0, 0.5)
    p = tref.eval(0.3)
    conf = Configuration(tref, [0.3], np.array([p]))
    with pytest.raises(CoincidentPoints):
        gauss_two_form(conf, 1, 2, eps_coll=1e-9)


def test_gauss_form_unit_integral_over_sphere():
    """Integrating the pullback over directions to a small sphere gives 1."""
    nth, nph = 200, 200
    th = (np.arange(nth) + 0.5) * np.pi / nth
    ph = (np.arange(nph) + 0.5) * 2 * np.pi / nph
    total = 0.0
    R = 0.5
    center = np.array([0.2, -0.1, 0.7])
    for tt in th:
        st, ct = np.sin(tt), np.cos(tt)
        for pp in ph[::5]:
            sp, cp = np.sin(pp), np.cos(pp)
            x = center + R * np.array([st * cp, st * sp, ct])
            dth = R * np.array([ct * cp, ct * sp, -st])
            dph = R * np.array([-st * sp, st * cp, 0.0])
            conf = Configuration(None, [], np.array([center, x]))
            f = gauss_two_form(conf, 1, 2)
            a = np.concatenate([np.zeros(3), dth])
            b = np.concatenate([np.zeros(3), dph])
            total += f.apply(a, b)
    total *= (np.pi / nth) * (2 * np.pi / nph) * 5
    assert total == pytest.approx(1.0, abs=1e-4)


def test_internal_loop_detection():
    g1, g2, g3 = knot_order2_graphs()
    assert not has_internal_loop(g1)
    assert not has_internal_loop(g2)
    assert has_internal_loop(g3)


def test_compiled_integrand_rejects_bad_graphs():
    g1, g2, g3 = knot_order2_graphs()
    for g in (g1, g3):
        with pytest.raises(UnsupportedGraph):
            CompiledIntegrand(g)
    not_trivalent = DecoratedGraph(K, 2, 0, ((1, 2), (1, 2)))
    with pytest.raises(UnsupportedGraph):
        CompiledIntegrand(not_trivalent)


def test_compiled_matches_scalar_wedge():
    """The tripod's det(B_1, B_2, B_3) equals per-sample gauss forms +
    wedge_top."""
    tref = make_torus_knot(2, 3, 2.0, 0.5)
    rng = np.random.default_rng(5)
    g = knot_order2_graphs()[1]
    ci = CompiledIntegrand(g)
    tvals = np.sort(rng.random((12, 3)), axis=1)
    xvals = rng.normal(scale=2.0, size=(12, 1, 3))
    pos, tan = tref.eval_with_deriv(tvals)
    fast, bad = ci.evaluate_batch(pos, tan, xvals, 1e-12)
    assert not bad.any()
    for row in range(12):
        conf = Configuration(tref, tvals[row], xvals[row])
        forms = [gauss_two_form(conf, i, j) for i, j in g.edges]
        slow = wedge_top(forms, conf.dim)
        assert fast[row] == pytest.approx(slow, rel=1e-10)


def test_exact_collision_is_flagged_without_a_warning():
    """A spatial vertex on a knot point is flagged, with no 0/0."""
    tref = make_torus_knot(2, 3, 2.0, 0.5)
    tvals = np.array([[0.1, 0.4, 0.7], [0.2, 0.5, 0.8]])
    pos, tan = tref.eval_with_deriv(tvals)
    xvals = np.array([pos[0, 1], [0.3, -0.2, 0.9]])[:, None, :]
    ci = CompiledIntegrand(knot_order2_graphs()[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, bad = ci.evaluate_batch(pos, tan, xvals, 1e-9)
    assert bad.tolist() == [True, False]
    assert np.isfinite(values).all()
