"""Closed parametric curves in R^3: evaluation, validation, loading.

A curve is stored either as a truncated Fourier series per coordinate
(exact for torus knots), as a closed polyline, or as a reparametrized
warp of another curve.  The parameter runs over [0, 1); Fourier curves
close exactly and polylines wrap cyclically.  Curves are evaluated by one
routine, ``eval_planes``, into (3, N) coordinate planes; ``eval`` and
``deriv`` give its planes as rows.  Validation, the linking check of
``integrals`` and the crossing search of ``diagrams`` find close pairs of
points with one uniform cell grid, ``near_pairs``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from functools import cached_property
from importlib import resources

from . import _numpy as np
from .errors import CurveValidationError, InvalidParams

#: Bounds of ``validate``, as fractions of the curve's extent.
EPS_REG = 1e-6
EPS_EMB = 1e-3
#: Uniform points whose pairwise distances give ``diameter``.
DIAMETER_SAMPLES = 512
#: Uniform points per curve whose cross distances ``linking_integral``
#: checks for an intersection.
SEPARATION_SAMPLES = 2048

_TWO_PI = 2.0 * math.pi


class KnotCurve:
    """Closed curve gamma: [0,1) -> R^3 with tangent access.

    Exactly one of (cos_coeffs, sin_coeffs) / points is set.  For the
    Fourier form, cos_coeffs has shape (3, H+1) and sin_coeffs (3, H)
    starting at harmonic 1.  Both forms are kept as rows of Python floats
    and become arrays on first use, so that loading and hashing a curve
    never needs numpy.
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
        self._point_rows = self._cos_rows = self._sin_rows = None
        if warp_base is not None:
            if not abs(self.warp_amplitude) < 1:
                raise InvalidParams("|warp amplitude| must be < 1 for a regular warp")
        elif points is not None:
            pts = _float_rows(points)
            if len(pts) < 3 or len(pts[0]) != 3:
                raise InvalidParams("polyline needs at least 3 points of dimension 3")
            if not all(map(math.isfinite, itertools.chain(*pts))):
                raise InvalidParams("polyline points must be finite")
            scale = max(abs(x) for p in pts for x in p) or 1.0
            if math.dist(pts[0], pts[-1]) < 1e-12 * scale:
                pts = pts[:-1]
            self._point_rows = pts
        else:
            cos_c, sin_c = _float_rows(cos_coeffs), _float_rows(sin_coeffs)
            if len(cos_c) != 3:
                raise InvalidParams("need cosine coefficients for 3 coordinates")
            if len(sin_c) != 3 or len(sin_c[0]) != len(cos_c[0]) - 1:
                raise InvalidParams("sine coefficients must cover harmonics 1..H")
            if not all(map(math.isfinite, itertools.chain(*cos_c, *sin_c))):
                raise InvalidParams("Fourier coefficients must be finite")
            self._cos_rows, self._sin_rows = cos_c, sin_c
        self._validated: set[int] = set()

    @cached_property
    def points(self) -> np.ndarray | None:
        return None if self._point_rows is None else np.array(self._point_rows)

    @cached_property
    def cos_coeffs(self) -> np.ndarray | None:
        return None if self._cos_rows is None else np.array(self._cos_rows)

    @cached_property
    def sin_coeffs(self) -> np.ndarray | None:
        return None if self._sin_rows is None else np.array(self._sin_rows)

    @cached_property
    def _harmonic_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # position, tangent and second derivative; rows match the basis of
        # _harmonics: 1, cos 2pi t, sin 2pi t, cos 4pi t, ...
        # built on first use although threads share the curve: the first evaluation
        # is in validate, before a_gamma_mc starts any worker, and a race would
        # build identical arrays anyway
        cos_c, sin_c = self.cos_coeffs, self.sin_coeffs
        fac = _TWO_PI * np.arange(1, sin_c.shape[1] + 1)
        pos = np.empty((2 * fac.size + 1, 3))
        pos[0] = cos_c[:, 0]
        pos[1::2] = cos_c[:, 1:].T
        pos[2::2] = sin_c.T
        tan = np.zeros_like(pos)
        tan[1::2] = sin_c.T * fac[:, None]
        tan[2::2] = -cos_c[:, 1:].T * fac[:, None]
        acc = np.concatenate([[np.zeros(3)], pos[1:] * -np.repeat(fac, 2)[:, None] ** 2])
        return pos, tan, acc

    # --- evaluation ---

    def _warp(self, t):
        return t + self.warp_amplitude * np.sin(_TWO_PI * t) / _TWO_PI

    def eval_planes(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Points and tangents at the flat parameters t as (3, t.size) planes,
        from one pass; t is wrapped into [0, 1) unless it lies there (-0.0
        becomes 0.0)."""
        if t.size and (np.signbit(t).any() or not t.max() < 1.0):
            t = np.mod(t, 1.0)
        if self.warp_base is not None:
            pos, tan = self.warp_base.eval_planes(self._warp(t))
            tan *= 1.0 + self.warp_amplitude * np.cos(_TWO_PI * t)
            return pos, tan
        if self.points is not None:
            pts = self.points.T
            n = pts.shape[1]
            s = t * n
            idx = np.minimum(s.astype(int), n - 1)
            seg = pts[:, (idx + 1) % n] - (start := pts[:, idx])
            return start + (s - idx) * seg, seg * n
        pos, tan, _ = self._harmonic_matrices
        basis = _harmonics(t, self.sin_coeffs.shape[1])
        # (3, N) planes straight from the product, summed as basis.T @ pos sums
        return pos.T @ basis, tan.T @ basis

    def bend_planes(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First and second derivatives of a Fourier curve at flat t in
        [0, 1), as (3, t.size) planes."""
        _, tan, acc = self._harmonic_matrices
        basis = _harmonics(t, self.sin_coeffs.shape[1])
        return tan.T @ basis, acc.T @ basis

    def eval(self, t) -> np.ndarray:
        """Points at the parameters t as C-contiguous ``t.shape + (3,)`` rows."""
        t = np.asarray(t, dtype=float)
        return np.ascontiguousarray(self.eval_planes(t.reshape(-1))[0].T).reshape(t.shape + (3,))

    def deriv(self, t) -> np.ndarray:
        """Tangents at t, laid out as ``eval`` lays out points."""
        t = np.asarray(t, dtype=float)
        return np.ascontiguousarray(self.eval_planes(t.reshape(-1))[1].T).reshape(t.shape + (3,))

    # --- geometry ---

    def diameter(self) -> float:
        n = DIAMETER_SAMPLES
        p = self.eval_planes(np.arange(n) / n)[0]  # (3, n)
        # row blocks from the diagonal on cover the matrix, which is
        # symmetric bit for bit; coordinates are summed left to right.  At
        # 32 rows a block's arrays stay within 128 KiB: 64-row blocks ran
        # slower and left 0.6-0.9 MB of freed heap resident after the call
        d2 = (sum((c[i : i + 32, None] - c[i:]) ** 2 for c in p).max() for i in range(0, n, 32))
        return math.sqrt(max(d2))

    def validate(self, samples: int = 2048):
        """Raise CurveValidationError unless regular and embedded.

        Both checks use the ``samples`` uniform points and are relative to
        the largest side of their bounding box (the extent), so they do
        not depend on the curve's size: the speed |gamma'| must exceed
        EPS_REG times the extent, and every pair of points at cyclic
        separation 3 or more must be farther apart than EPS_EMB times the
        extent.  Only the ``near_pairs`` on a grid of twice that bound are
        measured; every pair within the bound is among them, so a failing
        minimum is the minimum over all pairs.  Points or speeds beyond
        float range, which finite input near its limit can give, raise
        InvalidParams instead.  A passing result is remembered per
        ``samples``, since curves are not mutated.
        """
        if samples in self._validated:
            return self
        t = np.arange(samples) / samples
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
            p = self.eval(t)
            extent = float(np.ptp(p, axis=0).max())
            speed = np.linalg.norm(self.deriv(t), axis=1)
        # a non-finite point makes the extent nan or inf, and a speed its maximum
        if not (math.isfinite(extent) and math.isfinite(speed.max())):
            raise InvalidParams(f"curve points or speeds beyond float range: extent {extent:.3g}")
        if speed.min() <= EPS_REG * extent:
            raise CurveValidationError(
                "regular",
                f"min |gamma'| = {speed.min():.3g} "
                f"<= eps_reg = {EPS_REG:.3g} times the extent {extent:.3g}",
            )
        bound = EPS_EMB * extent
        min_d = least_distance(p, near_pairs(p, 2 * bound, window=2))
        if min_d <= bound:
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
        elif self._point_rows is not None:
            obj = {"type": "polyline", "points": [p[:] for p in self._point_rows]}
        else:
            harmonics = [[c[:], s[:]] for c, s in zip(self._cos_rows, self._sin_rows)]
            obj = {"type": "fourier", "harmonics": harmonics}
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
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidParams(f"bad curve object: {exc}") from exc

    def content_hash(self) -> str:
        payload = json.dumps(self.to_json_obj(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def near_pairs(x: np.ndarray, cell: float, window: int = -1) -> np.ndarray:
    """Pairs (i, j), i < j, of the points x (shape (n, d)) at cyclic
    separation min(j - i, n - j + i) above ``window`` that fall in the same
    or neighbouring cells of a grid of side ``cell`` (Bentley, Stanat and
    Williams, Inf. Process. Lett. 1977): all pairs less than ``cell`` apart
    along every axis, up to the rounding of x / cell, so callers take twice
    the distance they look for.  The points must span few enough cells for
    one int64 key; the callers' span at most about n per axis.  Each cell
    is one integer key in mixed radix; the keys are sorted once, and each
    point's 3^d neighbour cells are 3^(d-1) ``searchsorted`` ranges of
    them, expanded in one ``repeat``.  Pairs come by i, then by neighbour
    offset in lex order over {-1, 0, 1}^d, then by j; the shape is (k, 2),
    also for k = 0.
    """
    n, d = x.shape
    if n == 0:
        return np.empty((0, 2), dtype=np.int64)
    # the clamp keeps x / cell finite; taking the minimum off after the floor
    # keeps the grid at 0, and before the cast keeps the keys small
    cell = max(cell, float(np.abs(x).max()) * 2.0**-1000) or 1.0
    k = np.floor(x / cell)
    k = (k - k.min(axis=0)).astype(np.int64) + 1  # a one-cell margin
    radix = np.cumprod(np.append(1, k.max(axis=0)[:0:-1] + 2))[::-1]
    key = k @ radix
    order = np.argsort(key, kind="stable")  # j ascending within a cell
    sorted_key = key[order]
    # the three cells along the last axis have consecutive keys: one range
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=d - 1))) @ radix[:-1]
    target = key[:, None] + offsets[None, :]
    lo = np.searchsorted(sorted_key, target - 1, side="left").ravel()
    count = np.searchsorted(sorted_key, target + 1, side="right").ravel() - lo
    ends = np.cumsum(count)
    pos = np.arange(ends[-1]) + np.repeat(lo - (ends - count), count)
    i = np.repeat(np.arange(n, dtype=np.int64), count.reshape(n, -1).sum(axis=1))
    j = order[pos]
    keep = (j - i > max(window, 0)) & (j - i < n - window)
    return np.stack([i[keep], j[keep]], axis=1)


def near_cross_pairs(a: np.ndarray, b: np.ndarray, cell: float) -> np.ndarray:
    """The ``near_pairs`` (i, len(a) + j) of a row i of a and a row j of b,
    numbered as rows of the two stacked.  Only the rows within ``cell`` of
    the other set's bounding box are searched, so the cells span no more
    than the smaller box, and far-apart sets give none."""
    x = np.concatenate([a, b])
    box = np.repeat([(y.min(axis=0) - cell, y.max(axis=0) + cell) for y in (b, a)], [len(a), len(b)], axis=0)
    kept = np.nonzero(np.all((box[:, 0] <= x) & (x <= box[:, 1]), axis=1))[0]
    pairs = kept[near_pairs(x[kept], cell)]
    return pairs[(pairs[:, 0] < len(a)) & (pairs[:, 1] >= len(a))]


def least_distance(x: np.ndarray, pairs: np.ndarray) -> float:
    """Least |x[i] - x[j]| over the rows (i, j) of ``pairs`` (inf if none),
    coordinates summed left to right, so bit for bit ``np.linalg.norm``'s."""
    d2 = sum((x[pairs[:, 0], c] - x[pairs[:, 1], c]) ** 2 for c in range(x.shape[1]))
    return math.sqrt(np.min(d2, initial=math.inf))


def _float_rows(x) -> list[list[float]]:
    """x as rows of Python floats.  A rectangular list of lists of plain
    ints and floats is read without numpy; anything else goes through
    ``np.asarray``, so that numpy's own errors (ragged rows, say) stand,
    and reads as no rows when it has more than two dimensions."""
    if type(x) is list and x and all(type(r) is list and len(r) == len(x[0]) for r in x):
        if all(type(v) in (int, float) for r in x for v in r):
            return [[float(v) for v in r] for r in x]
    a = np.atleast_2d(np.asarray(x, dtype=float))
    return a.tolist() if a.ndim == 2 else []


def _harmonics(t: np.ndarray, hmax: int) -> np.ndarray:
    """Rows 1, cos 2pi t, sin 2pi t, ..., cos 2pi H t, sin 2pi H t for flat t.

    Harmonics 2..H come from the angle-addition recurrence, so cos and
    sin are evaluated once per parameter.
    """
    out = np.empty((2 * hmax + 2, t.size))  # the last row is scratch
    out[0] = 1.0
    if hmax:
        c1, s1, tmp = np.cos(_TWO_PI * t, out=out[1]), np.sin(_TWO_PI * t, out=out[2]), out[-1]
        for h in range(2, hmax + 1):
            c, s, ch, sh = out[2 * h - 3 : 2 * h + 1]
            np.multiply(c, c1, out=ch)
            ch -= np.multiply(s, s1, out=tmp)
            np.multiply(s, c1, out=sh)
            sh += np.multiply(c, s1, out=tmp)
    return out[:-1]


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
