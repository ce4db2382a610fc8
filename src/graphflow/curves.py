"""Closed parametric curves in R^3: generators, validation, resampling.

A curve is stored either as a truncated Fourier series per coordinate
(exact for torus knots and fitted samples) or as a closed polyline.
The parameter runs over [0, 1); Fourier curves close exactly and
polylines wrap cyclically.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from importlib import resources

import numpy as np

from .errors import CurveValidationError, InvalidParams

EPS_REG = 1e-6
EPS_EMB = 1e-3

_TWO_PI = 2.0 * np.pi


class KnotCurve:
    """Closed curve gamma: [0,1) -> R^3 with tangent access.

    Exactly one of (cos_coeffs, sin_coeffs) / points is set.  For the
    Fourier form, cos_coeffs has shape (3, H+1) and sin_coeffs (3, H)
    starting at harmonic 1.  ``arclength`` optionally carries the
    cumulative arclength table of a resampled curve.
    """

    def __init__(
        self,
        cos_coeffs=None,
        sin_coeffs=None,
        points=None,
        arclength=None,
        name=None,
        warp_base=None,
        warp_amplitude=0.0,
    ):
        reps = sum(x is not None for x in (cos_coeffs, points, warp_base))
        if reps != 1:
            raise InvalidParams("exactly one of Fourier coefficients, points or warp base required")
        self.name = name
        self.arclength = None if arclength is None else np.asarray(arclength, dtype=float)
        self.warp_base = warp_base
        self.warp_amplitude = float(warp_amplitude)
        if warp_base is not None:
            if not abs(self.warp_amplitude) < 1:
                raise InvalidParams("|warp amplitude| must be < 1 for a regular warp")
            self.points = None
            self.cos_coeffs = self.sin_coeffs = None
        elif points is not None:
            pts = np.asarray(points, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
                raise InvalidParams("polyline needs at least 3 points of dimension 3")
            scale = np.max(np.abs(pts)) or 1.0
            if np.linalg.norm(pts[0] - pts[-1]) < 1e-12 * scale:
                pts = pts[:-1]
            self.points = pts
            self.cos_coeffs = self.sin_coeffs = None
        else:
            self.points = None
            self.cos_coeffs = np.atleast_2d(np.asarray(cos_coeffs, dtype=float))
            sin_coeffs = np.atleast_2d(np.asarray(sin_coeffs, dtype=float))
            if self.cos_coeffs.shape[0] != 3:
                raise InvalidParams("need cosine coefficients for 3 coordinates")
            if sin_coeffs.shape != (3, self.cos_coeffs.shape[1] - 1):
                raise InvalidParams("sine coefficients must cover harmonics 1..H")
            self.sin_coeffs = sin_coeffs
            # rows match the basis of _harmonics: 1, cos 2pi t, sin 2pi t, cos 4pi t, ...
            # built here rather than lazily because threads share the curve
            fac = _TWO_PI * np.arange(1, sin_coeffs.shape[1] + 1)
            self._pos_matrix = np.empty((2 * fac.size + 1, 3))
            self._pos_matrix[0] = self.cos_coeffs[:, 0]
            self._pos_matrix[1::2] = self.cos_coeffs[:, 1:].T
            self._pos_matrix[2::2] = sin_coeffs.T
            self._tan_matrix = np.zeros_like(self._pos_matrix)
            self._tan_matrix[1::2] = sin_coeffs.T * fac[:, None]
            self._tan_matrix[2::2] = -self.cos_coeffs[:, 1:].T * fac[:, None]
        self._validated: set[tuple[float, float, int]] = set()

    # --- evaluation ---

    def _warp(self, t):
        return t + self.warp_amplitude * np.sin(_TWO_PI * t) / _TWO_PI

    def eval_with_deriv(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Position and tangent at t, from one pass over the parameters.

        Both arrays have shape ``t.shape + (3,)`` and are C-contiguous.
        """
        t = np.mod(np.asarray(t, dtype=float), 1.0)
        if self.warp_base is not None:
            pos, tan = self.warp_base.eval_with_deriv(self._warp(t))
            speed = 1.0 + self.warp_amplitude * np.cos(_TWO_PI * t)
            return pos, tan * speed[..., None]
        if self.points is not None:
            pts = self.points
            n = len(pts)
            s = t * n
            idx = np.minimum(s.astype(int), n - 1)
            seg = pts[(idx + 1) % n] - pts[idx]
            return pts[idx] + (s - idx)[..., None] * seg, seg * n
        basis = _harmonics(t.reshape(-1), self.sin_coeffs.shape[1]).T
        shape = t.shape + (3,)
        return (basis @ self._pos_matrix).reshape(shape), (basis @ self._tan_matrix).reshape(shape)

    def eval(self, t) -> np.ndarray:
        return self.eval_with_deriv(t)[0]

    def deriv(self, t) -> np.ndarray:
        return self.eval_with_deriv(t)[1]

    # --- geometry ---

    def diameter(self, samples: int = 512) -> float:
        p = self.eval(np.arange(samples) / samples)
        d2 = np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2.max()))

    def validate(self, eps_reg: float = EPS_REG, eps_emb: float = EPS_EMB, samples: int = 2048):
        """Raise CurveValidationError unless regular and embedded.

        Embeddedness compares every pair of the ``samples`` uniform points
        at cyclic separation 3 or more against ``eps_emb`` times the
        largest side of their bounding box, so the check does not depend
        on the curve's size.  A passing result is remembered per
        (eps_reg, eps_emb, samples), since curves are not mutated.
        """
        key = (eps_reg, eps_emb, samples)
        if key in self._validated:
            return self
        t = np.arange(samples) / samples
        speed = np.linalg.norm(self.deriv(t), axis=1)
        if speed.min() <= eps_reg:
            raise CurveValidationError(
                "regular", f"min |gamma'| = {speed.min():.3g} <= eps_reg = {eps_reg:.3g}"
            )
        p = self.eval(t)
        window = 2
        min_d = math.inf
        for k in range(window + 1, samples // 2 + 1):
            d = np.linalg.norm(p - np.roll(p, -k, axis=0), axis=1).min()
            min_d = min(min_d, float(d))
        extent = float(np.ptp(p, axis=0).max())
        if min_d <= eps_emb * extent:
            raise CurveValidationError(
                "embedded",
                f"min distance between non-adjacent points = {min_d:.3g} "
                f"<= eps_emb = {eps_emb:.3g} times the extent {extent:.3g}",
            )
        self._validated.add(key)
        return self

    # --- serialization ---

    def to_json_obj(self) -> dict:
        if self.warp_base is not None:
            obj = {
                "type": "warped",
                "amplitude": self.warp_amplitude,
                "base": self.warp_base.to_json_obj(),
            }
        elif self.points is not None:
            obj = {"type": "polyline", "points": [[float(x) for x in p] for p in self.points]}
        else:
            obj = {
                "type": "fourier",
                "harmonics": [
                    [
                        [float(x) for x in self.cos_coeffs[c]],
                        [float(x) for x in self.sin_coeffs[c]],
                    ]
                    for c in range(3)
                ],
            }
        if self.name:
            obj["name"] = self.name
        return obj

    @classmethod
    def from_json_obj(cls, obj) -> "KnotCurve":
        try:
            kind = obj["type"]
            if kind == "fourier":
                cos_c = [h[0] for h in obj["harmonics"]]
                sin_c = [h[1] for h in obj["harmonics"]]
                return cls(cos_coeffs=cos_c, sin_coeffs=sin_c, name=obj.get("name"))
            if kind == "polyline":
                return cls(points=obj["points"], name=obj.get("name"))
            if kind == "warped":
                return cls(
                    warp_base=cls.from_json_obj(obj["base"]),
                    warp_amplitude=obj["amplitude"],
                    name=obj.get("name"),
                )
            raise InvalidParams(f"unknown curve type {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParams(f"bad curve object: {exc}") from exc

    def content_hash(self) -> str:
        payload = json.dumps(self.to_json_obj(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def _harmonics(t: np.ndarray, hmax: int) -> np.ndarray:
    """Rows 1, cos 2pi t, sin 2pi t, ..., cos 2pi H t, sin 2pi H t for flat t.

    Harmonics 2..H come from the angle-addition recurrence, so cos and
    sin are evaluated once per parameter.
    """
    out = np.empty((2 * hmax + 1, t.size))
    out[0] = 1.0
    if hmax:
        c1, s1 = np.cos(_TWO_PI * t), np.sin(_TWO_PI * t)
        out[1], out[2] = c1, s1
        for h in range(2, hmax + 1):
            c, s = out[2 * h - 3], out[2 * h - 2]
            np.subtract(c * c1, s * s1, out=out[2 * h - 1])
            np.add(s * c1, c * s1, out=out[2 * h])
    return out


# --- generators ---


def round_circle(radius: float = 1.0) -> KnotCurve:
    cos_c = np.zeros((3, 2))
    sin_c = np.zeros((3, 1))
    cos_c[0, 1] = radius
    sin_c[1, 0] = radius
    return KnotCurve(cos_coeffs=cos_c, sin_coeffs=sin_c, name="circle")


def make_torus_knot(p: int, q: int, R: float, r: float) -> KnotCurve:
    """Torus knot ((R + r cos 2pi q t) cos 2pi p t, ..., r sin 2pi q t).

    Exact Fourier representation; requires coprime p, q >= 1 and R > r > 0.
    """
    if not (isinstance(p, int) and isinstance(q, int)):
        raise InvalidParams("p and q must be integers")
    if p < 1 or q < 1:
        raise InvalidParams("p and q must be >= 1")
    if math.gcd(p, q) != 1:
        raise InvalidParams(f"gcd({p},{q}) != 1")
    if not (R > r > 0):
        raise InvalidParams("need R > r > 0")
    hmax = p + q
    cos_c = np.zeros((3, hmax + 1))
    sin_c = np.zeros((3, hmax))

    def add(coord, h, a, b):
        if h == 0:
            cos_c[coord, 0] += a
        else:
            cos_c[coord, h] += a
            sin_c[coord, h - 1] += b

    add(0, p, R, 0.0)
    add(1, p, 0.0, R)
    add(0, p + q, r / 2, 0.0)
    add(1, p + q, 0.0, r / 2)
    d = p - q
    add(0, abs(d), r / 2, 0.0)
    if d != 0:
        add(1, abs(d), 0.0, math.copysign(r / 2, d))
    add(2, q, 0.0, r)
    curve = KnotCurve(cos_coeffs=cos_c, sin_coeffs=sin_c, name=f"torus({p},{q})")
    return curve.validate()


def fourier_from_samples(points: np.ndarray, tol: float = 1e-12, name=None) -> KnotCurve:
    """Fit a Fourier curve through uniformly spaced samples via FFT.

    Exact when the samples come from a trigonometric polynomial with
    fewer than N/2 harmonics; trailing negligible harmonics are dropped.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    f = np.fft.rfft(pts, axis=0) / n
    cos_c = 2.0 * f.real.T
    cos_c[:, 0] /= 2.0
    sin_c = -2.0 * f.imag.T[:, 1:]
    mags = np.maximum(np.abs(cos_c[:, 1:]), np.abs(sin_c)).max(axis=0)
    keep = np.nonzero(mags > tol * max(mags.max(), 1e-300))[0]
    hmax = int(keep[-1]) + 1 if keep.size else 0
    return KnotCurve(cos_coeffs=cos_c[:, : hmax + 1], sin_coeffs=sin_c[:, :hmax], name=name)


def reparametrized(curve: KnotCurve, amplitude: float = 0.3) -> KnotCurve:
    """Same geometric curve traversed at non-uniform speed.

    Composes with the warp t -> t + amplitude*sin(2 pi t)/(2 pi), which
    is monotone for |amplitude| < 1; the image is exactly unchanged.
    """
    return KnotCurve(
        warp_base=curve,
        warp_amplitude=amplitude,
        name=curve.name and curve.name + "-reparam",
    )


def scaled(curve: KnotCurve, factor: float) -> KnotCurve:
    if curve.warp_base is not None:
        return KnotCurve(
            warp_base=scaled(curve.warp_base, factor),
            warp_amplitude=curve.warp_amplitude,
            name=curve.name,
        )
    if curve.points is not None:
        return KnotCurve(points=curve.points * factor, name=curve.name)
    return KnotCurve(
        cos_coeffs=curve.cos_coeffs * factor,
        sin_coeffs=curve.sin_coeffs * factor,
        name=curve.name,
    )


def resample_arclength(curve: KnotCurve, n: int, dense: int | None = None) -> KnotCurve:
    """Resample to n points uniformly spaced in arclength.

    The returned polyline carries the cumulative arclength table of the
    sample positions; its total matches the curve length to ~1e-8
    relative at the default density.
    """
    if n < 3:
        raise InvalidParams("need at least 3 sample points")
    dense = dense or max(8192, 8 * n)
    t = np.arange(dense + 1) / dense
    p = curve.eval(t)
    seg = np.linalg.norm(np.diff(p, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    targets = np.arange(n) * (total / n)
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, dense - 1)
    frac = (targets - cum[idx]) / np.where(seg[idx] > 0, seg[idx], 1.0)
    params = (idx + frac) / dense

    # refine to the chord-uniform fixed point so that resampling an
    # already-resampled polyline reproduces it to machine precision
    for _ in range(40):
        pts = curve.eval(params)
        chords = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
        ccum = np.concatenate([[0.0], np.cumsum(chords)])
        want = np.arange(n) * (ccum[-1] / n)
        dev = np.abs(ccum[:-1] - want).max()
        if dev < 1e-13 * total:
            break
        j = np.clip(np.searchsorted(ccum, want, side="right") - 1, 0, n - 1)
        f = (want - ccum[j]) / np.where(chords[j] > 0, chords[j], 1.0)
        wrapped = np.concatenate([params, [params[0] + 1.0]])
        params = wrapped[j] + f * (wrapped[j + 1] - wrapped[j])
        params -= np.floor(params)

    table = np.interp(params, t, cum)
    table[0] = 0.0
    return KnotCurve(
        points=curve.eval(params),
        arclength=np.concatenate([table, [total]]),
        name=curve.name and curve.name + f"-resampled{n}",
    )


# --- bundled curve library ---

BUNDLED = ("circle", "trefoil", "torus_2_5", "figure_eight", "hopf_a", "hopf_b")


def bundled_curve(name: str) -> KnotCurve:
    """Load one of the curves shipped with the package."""
    base = name.removesuffix(".json")
    if base not in BUNDLED:
        raise InvalidParams(f"unknown bundled curve {name!r}; have {', '.join(BUNDLED)}")
    text = resources.files("graphflow.data").joinpath(base + ".json").read_text()
    return KnotCurve.from_json_obj(json.loads(text))


def load_curve(path_or_name: str) -> KnotCurve:
    """Load a curve from a JSON file path, falling back to bundled names."""
    if os.path.exists(path_or_name):
        with open(path_or_name) as fh:
            return KnotCurve.from_json_obj(json.load(fh))
    return bundled_curve(path_or_name)
