"""Closed parametric curves in R^3: generators, validation, loading.

A curve is stored either as a truncated Fourier series per coordinate
(exact for torus knots), as a closed polyline, or as a reparametrized
warp of another curve.  The parameter runs over [0, 1); Fourier curves
close exactly and polylines wrap cyclically.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from importlib import resources

import numpy as np

from .errors import CurveValidationError, InvalidParams

#: Bounds of ``validate``, as fractions of the curve's extent.
EPS_REG = 1e-6
EPS_EMB = 1e-3
#: Uniform points whose pairwise distances give ``diameter``.
DIAMETER_SAMPLES = 512
#: Uniform points per curve whose cross distances ``linking_integral``
#: checks for an intersection.
SEPARATION_SAMPLES = 2048
#: Rows per block of ``sq_distance_blocks``; at 2048 columns a block is
#: 1 MB, small beside a command's peak memory.
DISTANCE_ROWS = 64

_TWO_PI = 2.0 * np.pi


class KnotCurve:
    """Closed curve gamma: [0,1) -> R^3 with tangent access.

    Exactly one of (cos_coeffs, sin_coeffs) / points is set.  For the
    Fourier form, cos_coeffs has shape (3, H+1) and sin_coeffs (3, H)
    starting at harmonic 1.
    """

    def __init__(
        self,
        cos_coeffs=None,
        sin_coeffs=None,
        points=None,
        name=None,
        warp_base=None,
        warp_amplitude=0.0,
    ):
        reps = sum(x is not None for x in (cos_coeffs, points, warp_base))
        if reps != 1:
            raise InvalidParams("exactly one of Fourier coefficients, points or warp base required")
        self.name = name
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
            if not np.isfinite(pts).all():
                raise InvalidParams("polyline points must be finite")
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
            if not (np.isfinite(self.cos_coeffs).all() and np.isfinite(sin_coeffs).all()):
                raise InvalidParams("Fourier coefficients must be finite")
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
        self._validated: set[int] = set()

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

    def diameter(self) -> float:
        p = self.eval(np.arange(DIAMETER_SAMPLES) / DIAMETER_SAMPLES)
        return math.sqrt(max(float(d2.max()) for _, _, d2 in sq_distance_blocks(p, p)))

    def validate(self, samples: int = 2048):
        """Raise CurveValidationError unless regular and embedded.

        Both checks use the ``samples`` uniform points and are relative to
        the largest side of their bounding box (the extent), so they do
        not depend on the curve's size: the speed |gamma'| must exceed
        EPS_REG times the extent, and every pair of points at cyclic
        separation 3 or more must be farther apart than EPS_EMB times the
        extent.  That distance is the minimum over the blocks of
        ``sq_distance_blocks`` with the cyclic band of separation <= 2 set
        to inf.  A passing result is remembered per ``samples``, since
        curves are not mutated.
        """
        if samples in self._validated:
            return self
        t = np.arange(samples) / samples
        p = self.eval(t)
        extent = float(np.ptp(p, axis=0).max())
        speed = np.linalg.norm(self.deriv(t), axis=1)
        if speed.min() <= EPS_REG * extent:
            raise CurveValidationError(
                "regular",
                f"min |gamma'| = {speed.min():.3g} "
                f"<= eps_reg = {EPS_REG:.3g} times the extent {extent:.3g}",
            )
        min_d = min_distance(p, p, window=2)
        if min_d <= EPS_EMB * extent:
            raise CurveValidationError(
                "embedded",
                f"min distance between non-adjacent points = {min_d:.3g} "
                f"<= eps_emb = {EPS_EMB:.3g} times the extent {extent:.3g}",
            )
        self._validated.add(samples)
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


def sq_distance_blocks(p: np.ndarray, q: np.ndarray):
    """Row blocks (i0, i1, d2) of the squared distances
    d2[i - i0, j - j0] = |p[i] - q[j]|^2, DISTANCE_ROWS rows at a time, with
    j0 = 0, or j0 = i0 when q is p: that matrix is symmetric bit for bit, so
    only its blocks on and above the diagonal are formed.
    The coordinates are summed left to right, as ``np.linalg.norm`` sums
    them, so the square root of an entry equals that norm bit for bit.
    Every block is written into the same buffer, so a block is only
    valid until the next one is drawn; callers may overwrite it.
    """
    pc, qc = np.ascontiguousarray(p.T), np.ascontiguousarray(q.T)
    buf = np.empty((2, DISTANCE_ROWS * len(q)))
    for i0 in range(0, len(p), DISTANCE_ROWS):
        i1 = min(i0 + DISTANCE_ROWS, len(p))
        j0 = i0 if q is p else 0
        # contiguous blocks: strided views of a (rows, n) buffer ran 2x slower
        d2, sq = buf[:, : (i1 - i0) * (len(q) - j0)].reshape(2, i1 - i0, -1)
        np.subtract(pc[0, i0:i1, None], qc[0, j0:], out=d2)
        np.multiply(d2, d2, out=d2)
        for c in (1, 2):
            np.subtract(pc[c, i0:i1, None], qc[c, j0:], out=sq)
            np.multiply(sq, sq, out=sq)
            d2 += sq
        yield i0, i1, d2


def min_distance(p: np.ndarray, q: np.ndarray, window: int = -1) -> float:
    """Least |p[i] - q[j]| over pairs at cyclic separation
    min(|i - j|, n - |i - j|) above ``window`` (n = len(q)), inf when
    there is none; the default takes every pair."""
    n = len(q)
    least = math.inf
    for i0, i1, d2 in sq_distance_blocks(p, q):
        j0, rows = (i0 if q is p else 0), np.arange(i1 - i0)
        for k in range(-window, window + 1):
            # with j0 = i0, a band pair left of the block sits mirrored in an earlier one
            r = rows[max(0, -k) : n - i0 - k] if j0 else rows
            d2[r, (r + i0 + k) % n - j0] = np.inf
        least = min(least, float(d2.min()))
    return math.sqrt(least)


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
        try:
            with open(path_or_name) as fh:
                return KnotCurve.from_json_obj(json.load(fh))
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidParams(f"cannot read curve file: {exc}") from exc
    return bundled_curve(path_or_name)
