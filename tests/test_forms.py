import numpy as np
import pytest

from graphflow.curves import make_torus_knot
from graphflow.errors import CoincidentPoints, DimensionMismatch, UnsupportedGraph
from graphflow.forms import (
    CompiledIntegrand,
    Configuration,
    TwoForm,
    gauss_two_form,
    has_internal_loop,
    wedge_top,
)
from graphflow.graphs import DecoratedGraph, Flavor, knot_order2_graphs

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
    with pytest.raises(UnsupportedGraph):
        CompiledIntegrand(g3)
    not_trivalent = DecoratedGraph(K, 2, 0, ((1, 2), (1, 2)))
    with pytest.raises(UnsupportedGraph):
        CompiledIntegrand(not_trivalent)


def test_compiled_matches_scalar_wedge():
    """Vectorized integrand equals per-sample gauss forms + wedge_top."""
    tref = make_torus_knot(2, 3, 2.0, 0.5)
    rng = np.random.default_rng(5)
    for g in knot_order2_graphs()[:2]:
        ci = CompiledIntegrand(g)
        n, t = ci.n, ci.t
        tvals = np.sort(rng.random((6, n)), axis=1)
        xvals = rng.normal(scale=2.0, size=(6, t, 3))
        pos, tan = tref.eval_with_deriv(tvals)
        fast, bad = ci.evaluate_batch(pos, tan, xvals, 1e-12)
        assert not bad.any()
        for row in range(6):
            conf = Configuration(tref, tvals[row], xvals[row])
            forms = [gauss_two_form(conf, i, j) for i, j in g.edges]
            slow = wedge_top(forms, conf.dim)
            assert fast[row] == pytest.approx(slow, rel=1e-10)


def _evaluate_batch_rebuilt_per_edge(ci, pos, tan, xvals, eps_coll):
    """``evaluate_batch`` with the partials rebuilt for every edge of every
    batch: the same arithmetic, in the form it had before they were
    precomputed in ``__init__``."""
    b = pos.shape[0]
    bad = np.zeros(b, dtype=bool)
    entry_vals = np.empty((len(ci._entries), b))
    for e, (i, j) in enumerate(ci.edges):
        pi = pos[:, i - 1] if i <= ci.n else xvals[:, i - ci.n - 1]
        pj = pos[:, j - 1] if j <= ci.n else xvals[:, j - ci.n - 1]
        v = pj - pi
        r2 = np.einsum("bi,bi->b", v, v)
        bad |= r2 <= eps_coll**2
        denom = 4.0 * np.pi * np.maximum(r2, 1e-300) ** 1.5

        def partial(vertex, coord):
            if vertex <= ci.n:
                return tan[:, vertex - 1]
            e3 = np.zeros(3)
            e3[coord - (ci.n + 3 * (vertex - ci.n - 1))] = 1.0
            return np.broadcast_to(e3, (b, 3))

        dof_owner = {}
        for vv in (i, j):
            for c in ci._dofs(vv):
                dof_owner[c] = vv
        for p, q in ci._needed[e]:
            dp = partial(dof_owner[p], p) * (1.0 if dof_owner[p] == j else -1.0)
            dq = partial(dof_owner[q], q) * (1.0 if dof_owner[q] == j else -1.0)
            entry_vals[ci._entries[(e, p, q)]] = np.einsum("bi,bi->b", v, np.cross(dp, dq)) / denom
    terms = np.prod(entry_vals[ci._picks], axis=1)
    return (ci._signs[:, None] * terms).sum(axis=0), bad


def test_precomputed_partials_are_bit_identical():
    tref = make_torus_knot(2, 3, 2.0, 0.5)
    rng = np.random.default_rng(11)
    for g in knot_order2_graphs()[:2]:
        ci = CompiledIntegrand(g)
        tvals = np.sort(rng.random((500, ci.n)), axis=1)
        xvals = rng.normal(scale=2.0, size=(500, ci.t, 3))
        pos, tan = tref.eval_with_deriv(tvals)
        fast, bad = ci.evaluate_batch(pos, tan, xvals, 0.05)
        slow, slow_bad = _evaluate_batch_rebuilt_per_edge(ci, pos, tan, xvals, 0.05)
        assert np.array_equal(fast, slow)
        assert np.array_equal(bad, slow_bad)


@pytest.mark.parametrize("curve", ["circle", "trefoil", "figure_eight", "torus_2_5"])
def test_v2_stdout_unchanged_by_precomputed_partials(curve, monkeypatch):
    from click.testing import CliRunner

    from graphflow.cli import main

    args = ["knot", "v2", "--curve", curve, "--samples", "2e4", "--seed", "11", "--no-cache"]
    fast = CliRunner().invoke(main, args, catch_exceptions=False)
    monkeypatch.setattr(CompiledIntegrand, "evaluate_batch", _evaluate_batch_rebuilt_per_edge)
    slow = CliRunner().invoke(main, args, catch_exceptions=False)
    assert fast.exit_code == slow.exit_code == 0
    assert fast.stdout_bytes == slow.stdout_bytes
