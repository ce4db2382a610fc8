import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphflow.curves import (
    BUNDLED,
    DIAMETER_SAMPLES,
    EPS_EMB,
    SEPARATION_SAMPLES,
    KnotCurve,
    bundled_curve,
    least_distance,
    load_curve,
    near_pairs,
)
from graphflow import curves, integrals
from graphflow.errors import CurvesIntersect, CurveValidationError, InvalidParams
from graphflow.integrals import linking_integral
from oracles import (
    cross_min_distance,
    make_torus_knot,
    nonadjacent_min_distance,
    point_set_diameter,
    reparametrized,
    round_circle,
    scaled,
)


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


@pytest.mark.parametrize("name", ["trefoil", "figure_eight", "torus_2_5"])
def test_bend_planes_are_the_tangent_and_its_derivative(name):
    """The first plane is eval_planes' tangent bit for bit, the second
    its central difference."""
    k = bundled_curve(name)
    t, h = np.array([0.0, 0.123, 0.456, 0.789]), 1e-6
    d1, d2 = k.bend_planes(t)
    assert np.array_equal(d1, k.eval_planes(t)[1])
    fd = (k.eval_planes(t + h)[1] - k.eval_planes(t - h)[1]) / (2 * h)
    assert np.allclose(d2, fd, rtol=1e-6, atol=1e-4 * np.abs(d2).max())


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


def test_resampled_trefoil_embedded():
    tref = make_torus_knot(2, 3, 2.0, 0.5)
    KnotCurve(points=tref.eval(np.arange(2000) / 2000)).validate()


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


def test_json_round_trips(tmp_path):
    for name in ("circle", "trefoil", "figure_eight"):
        k = bundled_curve(name)
        obj = json.loads(json.dumps(k.to_json_obj()))
        k2 = KnotCurve.from_json_obj(obj)
        t = np.linspace(0, 1, 50, endpoint=False)
        assert np.allclose(k.eval(t), k2.eval(t))
    poly = KnotCurve(points=bundled_curve("trefoil").eval(np.arange(64) / 64))
    k3 = KnotCurve.from_json_obj(json.loads(json.dumps(poly.to_json_obj())))
    assert np.allclose(k3.points, poly.points)


#: Any JSON value: numbers of every size, NaN and infinity included, as
#: ``json.load`` gives them.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=24,
)
#: JSON values and curve objects, nested as warped bases, with any JSON in each field.
_CURVE_JSON = st.recursive(
    _JSON,
    lambda inner: st.fixed_dictionaries(
        {"type": st.sampled_from(["fourier", "polyline", "warped", "spline"])},
        optional={"harmonics": _JSON, "points": _JSON, "base": inner, "amplitude": _JSON, "name": _JSON},
    ),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(_CURVE_JSON)
@example({"type": "fourier", "harmonics": [[], [], []]})
@example({"type": "fourier", "harmonics": [[[1, 0]], [[0, 1]]]})
def test_any_json_value_loads_or_raises_invalid_params(obj):
    """A curve file is a curve or InvalidParams (exit 2), never another
    error; short harmonic entries once raised IndexError."""
    try:
        curve = KnotCurve.from_json_obj(obj)
    except InvalidParams:
        return
    assert isinstance(curve, KnotCurve)


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


#: A closed polyline of ints and floats; its last point repeats the first
#: and is dropped.
BENT_SQUARE = {
    "type": "polyline",
    "name": "bent_square",
    "points": [[0, 0, 0], [1, 0, 0.25], [1, 1, 0], [0, 1, -0.25], [0.1, 0.2, 1e-7], [0, 0, 0]],
}

#: content_hash() of each curve, read off the numpy-backed curves of
#: version 0.1.0 before curves kept their rows as Python floats.  Every
#: cache key holds these, so a stored result is replayed only while they
#: stay as they are.
CONTENT_HASH = {
    "circle": "36f460ea47c08b5d5545f85257a304b32245daf4dbcde94338476b36d6b56987",
    "trefoil": "c726e674d6d44f94af81dda16eb4de60b53cef0bd4d6fa620256dec7aeb21904",
    "torus_2_5": "800524af919a5b633ecb9f4c089b254359009a4b94e92d3f3aa1395c21cb302c",
    "figure_eight": "f640b95ef8cf1348ef20af2455e6f31783d7e6f6f309cce3c11cba4ebb6c49f4",
    "hopf_a": "37ca73c1e11449906e0fcb476a2299ab47452b55144dd23545e422a71b635a91",
    "hopf_b": "d5306f0a42052488c72d517f0307ee1f518c7cd28276a734fddbe041fa06b2c5",
    "bent_square": "96f661d841cb5fe08799430466e6e54eca4ea2d5f97adbfc70c1c92bfdfb17dc",
    "bent_square from an array": "96f661d841cb5fe08799430466e6e54eca4ea2d5f97adbfc70c1c92bfdfb17dc",
    "warped_trefoil": "39f7f9516e75fdcf0c4f323bd0bb2810597fe8f81e20a4b795a706c0f2808325",
}


def _hashed_curve(name: str) -> KnotCurve:
    if name == "bent_square":
        return KnotCurve.from_json_obj(BENT_SQUARE)
    if name == "bent_square from an array":
        return KnotCurve(points=np.array(BENT_SQUARE["points"], dtype=float), name="bent_square")
    if name == "warped_trefoil":
        return KnotCurve(warp_base=load_curve("trefoil"), warp_amplitude=0.5, name=name)
    return load_curve(name)


@pytest.mark.parametrize("name", list(CONTENT_HASH))
def test_content_hash_pinned(name):
    curve = _hashed_curve(name)
    assert curve.content_hash() == CONTENT_HASH[name]
    # the arrays built on first use hold the rows the hash was taken from
    again = KnotCurve.from_json_obj(curve.to_json_obj())
    for attr in ("points", "cos_coeffs", "sin_coeffs"):
        a, b = getattr(curve, attr), getattr(again, attr)
        assert (a is None and b is None) or (a.dtype == float and np.array_equal(a, b))


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
    pos, tan = k.eval(EVAL_T), k.deriv(EVAL_T)
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
    pos, tan = rep.eval(EVAL_T), rep.deriv(EVAL_T)
    assert np.abs(pos - ref_pos).max() <= 1e-12
    assert np.abs(tan - ref_tan).max() <= 1e-12


def test_eval_with_deriv_polyline():
    poly = KnotCurve(points=bundled_curve("trefoil").eval(np.arange(64) / 64))
    pts, n = poly.points, len(poly.points)
    pos, tan = poly.eval(EVAL_T), poly.deriv(EVAL_T)
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
        KnotCurve(points=bundled_curve("trefoil").eval(np.arange(64) / 64)),
    ],
    ids=["fourier", "warped", "polyline"],
)
def test_eval_with_deriv_shapes_and_layout(curve):
    """``eval`` and ``deriv`` give ``eval_planes``'s columns as C-contiguous
    ``t.shape + (3,)`` rows, for a scalar too."""
    pos, tan = curve.eval(0.37), curve.deriv(0.37)
    assert pos.shape == tan.shape == (3,)
    planes = curve.eval_planes(np.array([0.37]))
    assert np.array_equal(pos, planes[0][:, 0]) and np.array_equal(tan, planes[1][:, 0])
    t = np.random.default_rng(1).random((5, 4))
    pos, tan = curve.eval(t), curve.deriv(t)
    assert pos.shape == tan.shape == (5, 4, 3)
    assert pos.flags.c_contiguous and tan.flags.c_contiguous


@pytest.mark.parametrize(
    "curve",
    [
        bundled_curve("trefoil"),
        reparametrized(bundled_curve("trefoil"), 0.3),
        KnotCurve(points=bundled_curve("trefoil").eval(np.arange(64) / 64)),
    ],
    ids=["fourier", "warped", "polyline"],
)
def test_eval_planes_are_eval_with_deriv_bit_for_bit(curve):
    """The planes are the transposes of the rows of ``eval`` and ``deriv``,
    and parameters in [0, 1), which skip the wrap, give the bits of the same
    parameters shifted by whole turns or written as -0.0, which take it."""
    t = np.concatenate([EVAL_T, [-0.0, 0.0, -2.75, 3.5, -1e-300]])
    pos, tan = curve.eval(t.reshape(-1, 5)), curve.deriv(t.reshape(-1, 5))
    planes = curve.eval_planes(t)
    assert all(a.shape == (3, t.size) for a in planes)
    assert np.array_equal(planes[0], pos.reshape(-1, 3).T)
    assert np.array_equal(planes[1], tan.reshape(-1, 3).T)
    inside = np.arange(256) / 256
    bits = [a.view(np.int64) for a in curve.eval_planes(inside)]
    for shifted in (inside - 2.0, inside + 1.0, np.where(inside == 0.0, -0.0, inside)):
        assert all(np.array_equal(a.view(np.int64), b) for a, b in zip(curve.eval_planes(shifted), bits))


def test_validate_accepts_small_round_circle():
    # at 8192 samples its separation-2 chord is 0.00077 of its extent,
    # below eps_emb, but separation 2 is adjacent: only separations >= 3
    # (0.00115 of the extent) are compared
    round_circle(0.15).validate(samples=8192)


def test_validate_remembers_success_only(monkeypatch):
    tref = bundled_curve("trefoil")
    tref.validate()
    calls = []
    original = KnotCurve.eval_planes

    def counted(self, t):
        calls.append(np.size(t))
        return original(self, t)

    monkeypatch.setattr(KnotCurve, "eval_planes", counted)
    assert tref.validate() is tref
    assert calls == []
    tref.validate(samples=1024)  # another sample count is checked afresh
    assert calls == [1024, 1024]
    irregular = KnotCurve(cos_coeffs=[[0.0, 1.0]] * 3, sin_coeffs=[[0.0]] * 3)
    for _ in range(2):
        with pytest.raises(CurveValidationError):
            irregular.validate()


@pytest.mark.parametrize("factor", [1e-7, 0.01, 1.0, 100.0])
@pytest.mark.parametrize("name", ["circle", "trefoil", "torus_2_5", "figure_eight", "hopf_a", "hopf_b"])
def test_validate_is_scale_invariant(name, factor):
    scaled(bundled_curve(name), factor).validate()


def test_scaled_warped_curve():
    rep = reparametrized(bundled_curve("trefoil"), 0.3)
    big = scaled(rep, 2.0)
    assert big.warp_amplitude == rep.warp_amplitude
    assert np.array_equal(big.eval(EVAL_T), 2.0 * rep.eval(EVAL_T))


def _recorded_minima(monkeypatch, module):
    """Every least distance that ``module``'s checks compute, in order."""
    seen = []

    def recorded(x, pairs):
        seen.append(least_distance(x, pairs))
        return seen[-1]

    monkeypatch.setattr(module, "least_distance", recorded)
    return seen


def _linking_check(monkeypatch, a, b):
    """The linking check's least distance for curves a and b, and the
    message it raised (None when it passed)."""
    seen = _recorded_minima(monkeypatch, integrals)
    try:
        linking_integral(a, b)
        message = None
    except CurvesIntersect as exc:
        message = str(exc)
    return seen[-1], message


@pytest.mark.parametrize("index", range(len(BUNDLED)))
def test_distance_blocks_match_norm_forms_bit_for_bit(index, monkeypatch):
    """validate's and the linking check's minima over their near pairs
    decide as the per-shift and 256-row norm forms do, and equal them with
    == whenever they are at or below the bound; ``diameter``'s 64-row
    blocks on and above the diagonal equal the full matrix's maximum."""
    curve = bundled_curve(BUNDLED[index])
    p = curve.eval(np.arange(2048) / 2048)  # validate's default points
    bound = EPS_EMB * float(np.ptp(p, axis=0).max())
    for window in (0, 2):
        least = least_distance(p, near_pairs(p, 2 * bound, window))
        oracle = nonadjacent_min_distance(p, window)
        assert (least <= bound) == (oracle <= bound)
        assert least == oracle or least > bound
    other = bundled_curve(BUNDLED[(index + 1) % len(BUNDLED)])
    t = np.arange(SEPARATION_SAMPLES) / SEPARATION_SAMPLES
    oracle = cross_min_distance(curve.eval(t), other.eval(t))
    least, message = _linking_check(monkeypatch, curve, other)
    bound = 1e-3 * max(curve.diameter(), other.diameter())
    assert (message is not None) == (oracle <= bound)
    assert least == oracle or least > bound
    pd = curve.eval(np.arange(DIAMETER_SAMPLES) / DIAMETER_SAMPLES)
    assert curve.diameter() == point_set_diameter(pd)


@pytest.mark.parametrize("window", [0, 2])
@pytest.mark.parametrize("i, j", [(10, 13), (62, 65), (63, 66), (2046, 1), (64, 2047)])
def test_half_distance_matrix_finds_a_failing_minimum(i, j, window, monkeypatch):
    """On curves that fail validate, and on curve pairs that fail the
    linking check, the least distance over the near pairs equals the
    per-shift and 256-row oracles' bit for bit, and so do the messages.
    The one close approach (i, j) keeps the placements that tested the
    64-row distance blocks this search replaced: inside a block, across a
    block boundary, past the last point, and 65 points from the wrap."""
    n = 2048
    p = bundled_curve("trefoil").eval(np.arange(n) / n)
    p[j] = p[i] + [0.0, 0.0, 1e-6]
    oracle = nonadjacent_min_distance(p, window)
    extent = float(np.ptp(p, axis=0).max())
    bound = EPS_EMB * extent
    assert least_distance(p, near_pairs(p, 2 * bound, window)) == oracle < 2e-6
    seen = _recorded_minima(monkeypatch, curves)
    with pytest.raises(CurveValidationError) as err:
        KnotCurve(points=p).validate(samples=n)
    assert seen == [nonadjacent_min_distance(p, 2)]
    assert str(err.value) == (
        f"min distance between non-adjacent points = {seen[0]:.3g} "
        f"<= eps_emb = 0.001 times the extent {extent:.3g}"
    )
    # the same approach between two curves, the second shifted away; the
    # first without its own approach, since lk validates both curves first
    p = bundled_curve("trefoil").eval(np.arange(n) / n)
    q = p + [10.0, 0.0, 0.0]
    q[j] = p[i] + [0.0, 0.0, 1e-6 * (window + 1)]
    least, message = _linking_check(monkeypatch, KnotCurve(points=p), KnotCurve(points=q))
    assert least == cross_min_distance(p, q) < 4e-6
    assert message == f"curves approach within {least:.3g}"


@pytest.mark.parametrize("anchor", [62, 255])
@pytest.mark.parametrize("separation, embedded", [(2, True), (3, False)])
def test_validate_band_boundary(anchor, separation, embedded):
    """One close approach at cyclic separation 3 is rejected, at 2 it is
    inside the masked band; anchor 62 puts the pair across a row block
    and 255 wraps it past the last point."""
    n = 256
    t = np.arange(n) / n
    pts = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t), np.zeros(n)], axis=1)
    pts[(anchor + separation) % n] = pts[anchor] + [0.0, 0.0, 1e-4]
    curve = KnotCurve(points=pts)
    if embedded:
        curve.validate(samples=n)
    else:
        with pytest.raises(CurveValidationError) as err:
            curve.validate(samples=n)
        assert err.value.invariant == "embedded"


def test_geometry_checks_stay_small_in_memory():
    """Peak traced memory of validate and diameter on a fresh trefoil, and
    on a trefoil warped at amplitude 0.99, whose bunched points give
    validate some 16,000 near pairs (it fails ``embedded``), stays below
    8 MB, so that a larger search shows here before it shows in a
    command's peak RSS; a one-block ``diameter``'s 512 x 512 x 3
    difference array alone is 6.3 MB."""
    for amplitude in (0.0, 0.99):
        for check in (KnotCurve.validate, KnotCurve.diameter):
            curve = bundled_curve("trefoil")
            curve = reparametrized(curve, amplitude) if amplitude else curve
            tracemalloc.start()
            try:
                check(curve)
            except CurveValidationError as exc:
                assert check is KnotCurve.validate and amplitude and exc.invariant == "embedded"
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            assert peak < 8 * 2**20, (check.__name__, curve.name, peak)


@pytest.mark.parametrize("shift", [0.0, 1e6, 1e12, 1e15, 1e17])
def test_validate_far_from_the_origin(shift):
    """The trefoil translated by ``shift`` along (1, 1, 1) is decided as
    the full distance matrix decided it, with the same message and no
    warning: up to 1e12 it passes, at 1e15 and 1e17 its points round to
    coinciding floats."""
    tref = bundled_curve("trefoil")
    cos_c = tref.cos_coeffs.copy()
    cos_c[:, 0] += shift
    curve = KnotCurve(cos_coeffs=cos_c, sin_coeffs=tref.sin_coeffs)
    expected = {
        1e15: "min distance between non-adjacent points = 0 <= eps_emb = 0.001 times the extent 5",
        1e17: "min distance between non-adjacent points = 0 <= eps_emb = 0.001 times the extent 0",
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if shift in expected:
            with pytest.raises(CurveValidationError) as err:
                curve.validate()
            assert err.value.invariant == "embedded" and str(err.value) == expected[shift]
        else:
            curve.validate()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_near_pairs_find_every_pair_within_a_cell(dim, seed):
    """Against a brute-force pass over all pairs: on a dyadic lattice,
    where x / cell is exact, every pair at most ``cell`` apart along each
    axis is found, pairs planted at exactly ``cell`` per axis included; on
    plain floats with a cell that is no power of two, every pair within
    half a cell is; no pair is found 2 * cell or more apart along an axis;
    and ``window`` drops exactly the pairs at cyclic separation up to it."""
    rng = np.random.default_rng(seed)
    n = 400
    lattice = rng.integers(-(2**9), 2**9, size=(n, dim)) * 2.0**-10
    lattice[1::8] = lattice[::8][: len(lattice[1::8])] + 2.0**-4 * rng.choice([-1.0, 1.0], size=dim)
    floats = rng.random((n, dim)) * 0.8 - 0.3
    for x, cell, reach in ((lattice, 2.0**-4, 2.0**-4), (floats, 0.07, 0.035)):
        i, j = np.triu_indices(n, 1)
        gap = np.abs(x[i] - x[j]).max(axis=1)
        close = {(a, b) for a, b, g in zip(i.tolist(), j.tolist(), gap) if g <= reach}
        found = near_pairs(x, cell)
        assert found.dtype == np.int64 and np.all(found[:, 0] < found[:, 1])
        pairs = set(map(tuple, found.tolist()))
        assert len(close) > 10 and len(pairs) == len(found) and close <= pairs
        assert np.abs(x[found[:, 0]] - x[found[:, 1]]).max() < 2 * cell
        for window in (0, 2):
            sep = found[:, 1] - found[:, 0]
            kept = found[np.minimum(sep, n - sep) > window]
            assert np.array_equal(near_pairs(x, cell, window), kept)


def test_near_pairs_of_no_points_and_of_a_zero_or_tiny_cell():
    """No points give no pairs; a zero cell (coinciding points) and a cell
    so small beside the coordinates that x / cell would overflow are
    clamped, with no warning."""
    assert near_pairs(np.empty((0, 3)), 1.0).shape == (0, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        same = np.full((4, 3), 1e17)
        assert near_pairs(same, 0.0).tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        tiny = np.array([[0.0, 0.0, 1e20], [1e-300, 0.0, 1e20], [5e-300, 0.0, 1e20]])
        assert near_pairs(tiny, 1e-300).tolist() == [[0, 1], [0, 2], [1, 2]]
