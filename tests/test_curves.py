import json

import numpy as np
import pytest

from graphflow.curves import (
    KnotCurve,
    bundled_curve,
    fourier_from_samples,
    load_curve,
    make_torus_knot,
    reparametrized,
    resample_arclength,
    round_circle,
    scaled,
)
from graphflow.errors import CurveValidationError, InvalidParams


def test_torus_knot_param_validation():
    with pytest.raises(InvalidParams):
        make_torus_knot(1, 0, 2.0, 1.0)
    with pytest.raises(InvalidParams):
        make_torus_knot(2, 4, 2.0, 0.5)
    with pytest.raises(InvalidParams):
        make_torus_knot(2, 3, 0.5, 2.0)


def test_torus_knot_matches_parametric_formula():
    k = make_torus_knot(2, 3, 2.0, 0.5)
    t = np.linspace(0, 1, 17, endpoint=False)
    ang = 2 * np.pi * t
    expect = np.stack(
        [
            (2.0 + 0.5 * np.cos(3 * ang)) * np.cos(2 * ang),
            (2.0 + 0.5 * np.cos(3 * ang)) * np.sin(2 * ang),
            0.5 * np.sin(3 * ang),
        ],
        axis=1,
    )
    assert np.allclose(k.eval(t), expect, atol=1e-12)


def test_torus_11_is_unknot_circle_like():
    k = make_torus_knot(1, 1, 2.0, 0.5)
    k.validate()
    from graphflow.diagrams import a2_of_curve

    assert a2_of_curve(k) == 0


def test_fourier_curve_closes_exactly():
    k = make_torus_knot(2, 3, 2.0, 0.5)
    assert np.array_equal(k.eval(0.0), k.eval(1.0))


def test_derivative_matches_finite_difference():
    k = bundled_curve("figure_eight")
    t = np.array([0.123, 0.456, 0.789])
    h = 1e-7
    fd = (k.eval(t + h) - k.eval(t - h)) / (2 * h)
    assert np.allclose(k.deriv(t), fd, rtol=1e-5, atol=1e-4)


def test_validate_rejects_self_intersecting_curve():
    # planar figure-eight shaped loop crosses itself
    t = np.arange(256) / 256
    pts = np.stack(
        [np.sin(4 * np.pi * t), np.sin(2 * np.pi * t), np.zeros_like(t)], axis=1
    )
    curve = KnotCurve(points=pts)
    with pytest.raises(CurveValidationError) as err:
        curve.validate()
    assert err.value.invariant == "embedded"


def test_validate_rejects_irregular_curve():
    cos_c = np.zeros((3, 2))
    sin_c = np.zeros((3, 1))
    # x traces a segment back and forth: speed vanishes at turning points
    cos_c[0, 1] = 1.0
    curve = KnotCurve(cos_coeffs=cos_c, sin_coeffs=sin_c)
    with pytest.raises(CurveValidationError) as err:
        curve.validate()
    assert err.value.invariant == "regular"


def test_resample_circle_four_points():
    r4 = resample_arclength(round_circle(1.0), 4)
    sides = np.linalg.norm(np.diff(np.vstack([r4.points, r4.points[:1]]), axis=0), axis=1)
    assert np.allclose(sides, np.sqrt(2.0), atol=1e-9)
    assert abs(r4.arclength[-1] - 2 * np.pi) < 1e-6 * 2 * np.pi


def test_resample_idempotent():
    tref = make_torus_knot(2, 3, 2.0, 0.5)
    r1 = resample_arclength(tref, 500)
    r2 = resample_arclength(r1, 500)
    assert np.abs(r1.points - r2.points).max() < 1e-9


def test_resampled_trefoil_embedded():
    tref = make_torus_knot(2, 3, 2.0, 0.5)
    resample_arclength(tref, 2000).validate(eps_emb=1e-3)


def test_reparametrized_same_image_different_speed():
    tref = make_torus_knot(2, 3, 2.0, 0.5)
    rep = reparametrized(tref, 0.3)
    t = np.linspace(0, 1, 11, endpoint=False)
    warped = t + 0.3 * np.sin(2 * np.pi * t) / (2 * np.pi)
    assert np.allclose(rep.eval(t), tref.eval(warped), atol=1e-14)
    assert not np.allclose(
        np.linalg.norm(rep.deriv(t), axis=1), np.linalg.norm(tref.deriv(t), axis=1)
    )


def test_scaled_curve():
    tref = make_torus_knot(2, 3, 2.0, 0.5)
    big = scaled(tref, 2.0)
    assert np.allclose(big.eval(0.37), 2.0 * tref.eval(0.37))


def test_fourier_fit_exact_on_trig_polynomials():
    tref = make_torus_knot(2, 3, 2.0, 0.5)
    t = np.arange(64) / 64
    fit = fourier_from_samples(tref.eval(t))
    s = np.linspace(0, 1, 200, endpoint=False)
    assert np.allclose(fit.eval(s), tref.eval(s), atol=1e-12)


def test_json_round_trips(tmp_path):
    for name in ("circle", "trefoil", "figure_eight"):
        k = bundled_curve(name)
        obj = json.loads(json.dumps(k.to_json_obj()))
        k2 = KnotCurve.from_json_obj(obj)
        t = np.linspace(0, 1, 50, endpoint=False)
        assert np.allclose(k.eval(t), k2.eval(t))
    poly = resample_arclength(bundled_curve("trefoil"), 64)
    k3 = KnotCurve.from_json_obj(json.loads(json.dumps(poly.to_json_obj())))
    assert np.allclose(k3.points, poly.points)


def test_load_curve_from_path_and_bundled(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(round_circle(2.0).to_json_obj()))
    k = load_curve(str(path))
    assert abs(k.diameter() - 4.0) < 1e-9
    assert load_curve("trefoil").name == "trefoil"
    with pytest.raises(InvalidParams):
        load_curve("no-such-curve")


def test_bundled_curves_validate():
    for name in ("circle", "trefoil", "torus_2_5", "figure_eight", "hopf_a", "hopf_b"):
        bundled_curve(name).validate()


def test_content_hash_stable_and_distinct():
    a = bundled_curve("trefoil")
    assert a.content_hash() == bundled_curve("trefoil").content_hash()
    assert a.content_hash() != bundled_curve("circle").content_hash()


def _fourier_reference(k, t):
    """Position and tangent from the cos/sin sums written out term by term."""
    pos = np.zeros(t.shape + (3,))
    tan = np.zeros(t.shape + (3,))
    pos += k.cos_coeffs[:, 0]
    for h in range(1, k.cos_coeffs.shape[1]):
        w = 2 * np.pi * h
        c, s = np.cos(w * t)[..., None], np.sin(w * t)[..., None]
        a, b = k.cos_coeffs[:, h], k.sin_coeffs[:, h - 1]
        pos += a * c + b * s
        tan += w * (b * c - a * s)
    return pos, tan


EVAL_T = np.concatenate([np.linspace(0, 1, 257), [-0.3, 1.7, 0.999999999]])


@pytest.mark.parametrize("name", ["circle", "trefoil", "torus_2_5", "figure_eight", "hopf_a", "hopf_b"])
def test_eval_with_deriv_matches_cos_sin_sums(name):
    k = bundled_curve(name)
    pos, tan = k.eval_with_deriv(EVAL_T)
    ref_pos, ref_tan = _fourier_reference(k, np.mod(EVAL_T, 1.0))
    assert np.abs(pos - ref_pos).max() <= 1e-12
    assert np.abs(tan - ref_tan).max() <= 1e-12


def test_eval_with_deriv_reparametrized():
    tref = bundled_curve("trefoil")
    rep = reparametrized(tref, 0.3)
    t = np.mod(EVAL_T, 1.0)
    warped = t + 0.3 * np.sin(2 * np.pi * t) / (2 * np.pi)
    ref_pos, ref_tan = _fourier_reference(tref, warped)
    ref_tan *= (1.0 + 0.3 * np.cos(2 * np.pi * t))[:, None]
    pos, tan = rep.eval_with_deriv(EVAL_T)
    assert np.abs(pos - ref_pos).max() <= 1e-12
    assert np.abs(tan - ref_tan).max() <= 1e-12


def test_eval_with_deriv_polyline():
    poly = resample_arclength(bundled_curve("trefoil"), 64)
    pts, n = poly.points, len(poly.points)
    pos, tan = poly.eval_with_deriv(EVAL_T)
    for row, t in enumerate(np.mod(EVAL_T, 1.0)):
        i = min(int(t * n), n - 1)
        seg = pts[(i + 1) % n] - pts[i]
        assert np.abs(pos[row] - (pts[i] + (t * n - i) * seg)).max() <= 1e-12
        assert np.abs(tan[row] - n * seg).max() <= 1e-12


@pytest.mark.parametrize(
    "curve",
    [
        bundled_curve("trefoil"),
        reparametrized(bundled_curve("trefoil"), 0.3),
        resample_arclength(bundled_curve("trefoil"), 64),
    ],
    ids=["fourier", "warped", "polyline"],
)
def test_eval_with_deriv_shapes_and_layout(curve):
    pos, tan = curve.eval_with_deriv(0.37)
    assert pos.shape == tan.shape == (3,)
    assert np.array_equal(pos, curve.eval(0.37)) and np.array_equal(tan, curve.deriv(0.37))
    pos, tan = curve.eval_with_deriv(np.random.default_rng(1).random((5, 4)))
    assert pos.shape == tan.shape == (5, 4, 3)
    assert pos.flags.c_contiguous and tan.flags.c_contiguous


def test_validate_accepts_small_round_circle():
    # at 8192 samples its separation-2 chord is 0.00077 of its extent,
    # below eps_emb, but separation 2 is adjacent: only separations >= 3
    # (0.00115 of the extent) are compared
    round_circle(0.15).validate(samples=8192)


def test_validate_remembers_success_only(monkeypatch):
    tref = bundled_curve("trefoil")
    tref.validate()
    calls = []
    original = KnotCurve.eval_with_deriv

    def counted(self, t):
        calls.append(np.size(t))
        return original(self, t)

    monkeypatch.setattr(KnotCurve, "eval_with_deriv", counted)
    assert tref.validate() is tref
    assert calls == []
    tref.validate(samples=1024)  # other settings are checked afresh
    assert calls == [1024, 1024]
    irregular = KnotCurve(cos_coeffs=[[0.0, 1.0]] * 3, sin_coeffs=[[0.0]] * 3)
    for _ in range(2):
        with pytest.raises(CurveValidationError):
            irregular.validate()


@pytest.mark.parametrize("factor", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("name", ["circle", "trefoil", "torus_2_5", "figure_eight", "hopf_a", "hopf_b"])
def test_validate_is_scale_invariant(name, factor):
    scaled(bundled_curve(name), factor).validate()


def test_scaled_warped_curve():
    rep = reparametrized(bundled_curve("trefoil"), 0.3)
    big = scaled(rep, 2.0)
    assert big.warp_amplitude == rep.warp_amplitude
    assert np.array_equal(big.eval(EVAL_T), 2.0 * rep.eval(EVAL_T))
