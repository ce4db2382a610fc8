"""Planar projections, Gauss diagrams, and combinatorial knot invariants.

Every projection of the package is made here, along the directions of
``ranked_directions``, by one crossing search for one curve or two,
``stable_crossings``: among the segment pairs whose midpoints
``curves.near_pairs`` finds on the coarsest polylines (of two curves,
those with one segment from each, near the other curve's box), and among
their children on the finer ones.  Two curves' crossings give lk, and
one curve's its Gauss diagram, whose writhe sln reads and whose signed
count of interlaced crossing pairs is a2, the reference value for the
integrals of ``integrals``; a2's own reference, the z^2 Conway
coefficient by skein recursion, lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _numpy as np
from .curves import KnotCurve, near_cross_pairs, near_pairs
from .errors import DegenerateProjection, InconsistentDiagram, InvalidParams, ResourceLimit

#: Segment counts of the first and the finest projected polyline.
MIN_SEGMENTS = 2048
MAX_SEGMENTS = 32768
#: Tangents per curve that rank the directions of ``ranked_directions``.
GAP_SAMPLES = 512
#: Most projections of one ``a2_of_curve`` call: 3-6 ms each on the
#: bundled knots on a 2-core x86-64 machine, so at most about 6 s.
A2_MAX_DIRECTIONS = 1024


@dataclass(frozen=True)
class Crossing:
    over: float
    under: float
    sign: int


@dataclass(frozen=True)
class GaussDiagram:
    """Chord diagram of a knot projection, with crossing signs.

    Parameters are curve parameters in [0,1); the base point sits at 0.
    """

    crossings: tuple[Crossing, ...]

    def __post_init__(self):
        seen = set()
        for c in self.crossings:
            if c.sign not in (-1, 1):
                raise InconsistentDiagram(f"bad sign {c.sign}")
            for t in (c.over, c.under):
                if not (0.0 <= t < 1.0):
                    raise InconsistentDiagram(f"parameter {t} outside [0,1)")
                if t in seen:
                    raise InconsistentDiagram(f"duplicate parameter {t}")
                seen.add(t)
            if c.over == c.under:
                raise InconsistentDiagram("crossing with equal parameters")


# --- projection ---


def _plane_basis(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0:
        raise DegenerateProjection("zero direction")
    d = d / norm
    helper = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(d, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    return e1, e2, d


def ranked_directions(curves, count: int = 64, seed: int = 0) -> np.ndarray:
    """The ``count`` points z = 1 - k / count of a Fibonacci hemisphere,
    turned about its pole by ``seed`` golden angles (seeds taken modulo
    2^53, so that any integer turns it), as rows: largest gap 1 - max |u.T|
    first, T the unit tangents of ``curves`` at GAP_SAMPLES parameters, and
    ties in the set's order."""
    k = np.arange(count)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    z, phi = 1.0 - k / count, k * golden + (seed % 2**53) * golden % (2 * math.pi)
    dirs = np.stack([np.sqrt(1 - z * z) * np.cos(phi), np.sqrt(1 - z * z) * np.sin(phi), z], axis=1)
    t = np.arange(GAP_SAMPLES) / GAP_SAMPLES
    tan = np.concatenate([curve.eval_planes(t)[1] for curve in curves], axis=1)
    gap = 1.0 - np.abs(dirs @ (tan / np.linalg.norm(tan, axis=0))).max(axis=1)
    return dirs[np.argsort(-gap, kind="stable")]


def _segment_crossings(curves, direction, n: int, parents=None):
    """Crossings of the projected closed polylines of ``curves``, n
    segments each, and the segment pairs tested: those ``near_pairs``
    finds, or the ``_children`` of ``parents``, the pairs tested on n / 2
    segments.  The curves' segments are numbered in one sequence, so a
    crossing parameter t on the second curve reads 1 + t; two curves keep
    only the pairs with one segment from each."""
    e1, e2, d = _plane_basis(direction)
    t = np.arange(n) / n
    pts, tan = (np.concatenate(planes, axis=1) for planes in zip(*(c.eval_planes(t) for c in curves)))
    u, v, depth = e1 @ pts, e2 @ pts, d @ pts
    scale = max(np.ptp(u), np.ptp(v))
    k = np.arange(u.size)
    nxt = np.where(k % n == n - 1, k + 1 - n, k + 1)  # each curve closes on itself
    du, dv = u[nxt] - u, v[nxt] - v

    # tangency with the viewing direction collapses the projected speed
    if (np.hypot(du, dv) * n / np.linalg.norm(tan, axis=0)).min() < 1e-2:
        raise DegenerateProjection("curve tangent nearly parallel to direction")

    if parents is None:
        # two crossing segments have midpoints at most the longest segment
        # apart along each axis
        mid = np.stack([u + u[nxt], v + v[nxt]], axis=1) / 2
        cell = max(float(np.hypot(du, dv).max()), 1e-12)
        pairs = near_pairs(mid, cell, window=1) if len(curves) == 1 else near_cross_pairs(mid[:n], mid[n:], cell)
    else:
        pairs = _children(u, v, parents, len(curves))
    if pairs.size == 0:
        return [], pairs
    i, j = pairs[:, 0], pairs[:, 1]
    denom = du[i] * dv[j] - dv[i] * du[j]
    wu, wv = u[j] - u[i], v[j] - v[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (wu * dv[j] - wv * du[j]) / denom
        r = (wu * dv[i] - wv * du[i]) / denom
    hit = (s > 0) & (s < 1) & (r > 0) & (r < 1) & np.isfinite(s) & np.isfinite(r)

    found = []
    for a in np.nonzero(hit)[0]:
        ii, jj = int(i[a]), int(j[a])
        si, rj = float(s[a]), float(r[a])
        if min(si, 1 - si, rj, 1 - rj) * np.hypot(du[ii], dv[ii]) < 1e-9 * scale:
            raise DegenerateProjection("crossing too close to a segment endpoint")
        ti, tj = (ii + si) / n, (jj + rj) / n
        zi = depth[ii] + si * (depth[nxt[ii]] - depth[ii])
        zj = depth[jj] + rj * (depth[nxt[jj]] - depth[jj])
        if abs(zi - zj) < 1e-7 * scale:
            raise DegenerateProjection("over/under depths nearly equal")
        cross2 = du[ii] * dv[jj] - dv[ii] * du[jj]
        if abs(cross2) < 1e-9 * np.hypot(du[ii], dv[ii]) * np.hypot(du[jj], dv[jj]):
            raise DegenerateProjection("near-tangential crossing")
        over, under = (ti, tj) if zi > zj else (tj, ti)
        found.append(Crossing(over, under, 1 if (cross2 > 0) == (zi > zj) else -1))
    found.sort(key=lambda c: (min(c.over, c.under), max(c.over, c.under)))
    return found, pairs


def _children(u: np.ndarray, v: np.ndarray, parents: np.ndarray, curves: int = 1) -> np.ndarray:
    """Pairs (I, J), I < J, of segments of the polylines through the n
    points (u, v), ``curves`` closed curves one after the other, whose
    parents, segments of the polylines through every second point, are a
    row of ``parents`` with overlapping boxes, or, on one curve, adjacent.
    Parent i's box spans the points 2i to 2i + 2 of its curve, so it holds
    its children, grown by the largest distance on that curve of a point
    2i + 1 from its parent's middle: on a smooth curve the points of all
    finer levels stray a third as far, so no crossing of a finer level is
    lost."""
    a, b = parents.T
    keep = np.ones(a.size, dtype=bool)
    for x in (u, v):
        boxes = []
        for c in np.split(x, curves):
            y = np.stack([c[0::2], c[1::2], np.roll(c[0::2], -1)])
            grow = float(np.abs(y[1] - (y[0] + y[2]) / 2).max())
            boxes.append((y.min(axis=0) - grow, y.max(axis=0) + grow))
        lo, hi = (np.concatenate(ends) for ends in zip(*boxes))
        keep &= (lo[a] <= hi[b]) & (lo[b] <= hi[a])
    i = (2 * a[keep, None] + np.array([0, 0, 1, 1])).ravel()
    j = (2 * b[keep, None] + np.array([0, 1, 0, 1])).ravel()
    if curves == 1:
        # adjacent parents are never a tested pair: keep their children that
        # are not adjacent, (2i, 2i + 2), (2i, 2i + 3) and (2i + 1, 2i + 3)
        k = np.arange(0, u.size, 2)
        i = np.concatenate([i, k, k, k + 1])
        j = np.concatenate([j, k + 2, k + 3, k + 3]) % u.size
    return np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)


def _crossings_match(a: list[Crossing], b: list[Crossing], tol: float) -> bool:
    return len(a) == len(b) and all(
        ca.sign == cb.sign and abs(ca.over - cb.over) <= tol and abs(ca.under - cb.under) <= tol
        for ca, cb in zip(a, b)
    )


def stable_crossings(curves, direction) -> list[Crossing]:
    """The crossings of ``curves`` along ``direction`` on polylines doubled
    from MIN_SEGMENTS up to MAX_SEGMENTS segments each until the crossing
    set stabilizes twice in a row; unstable or tangential projections, and
    two crossings that nearly coincide on a curve, raise
    DegenerateProjection (callers retry with another direction)."""
    history, pairs, n = [], None, MIN_SEGMENTS
    while n <= MAX_SEGMENTS:
        found, pairs = _segment_crossings(curves, direction, n, pairs)
        history.append(found)
        if len(history) >= 3:
            a, b, c = history[-3:]
            tol = 64.0 / n  # 16 segments of the coarsest of the three
            if _crossings_match(a, b, tol) and _crossings_match(b, c, tol):
                for k in range(len(curves)):  # each curve's parameters, cyclically
                    p = sorted(t - k for cr in c for t in (cr.over, cr.under) if k <= t < k + 1)
                    if p and np.diff(p + [p[0] + 1.0]).min() < 4.0 / n:
                        raise DegenerateProjection("two crossings nearly coincide")
                return c
        n *= 2
    raise DegenerateProjection("crossing set did not stabilize")


def project_to_diagram(curve: KnotCurve, direction) -> GaussDiagram:
    """Gauss diagram of the projection along ``direction``, from the
    crossings of ``stable_crossings``."""
    return GaussDiagram(tuple(stable_crossings((curve,), direction)))


# --- invariants ---


def _pv_count(arrows: list[tuple[float, float, int]], base: float) -> int:
    """Signed count of interlaced pairs in the fixed based pattern.

    Positions are taken cyclically starting at ``base``; the matched
    pattern is under(2) < over(1) < over(2) < under(1).
    """

    def pos(t: float) -> float:
        return (t - base) % 1.0

    total = 0
    for i, (o1, u1, s1) in enumerate(arrows):
        for o2, u2, s2 in arrows[i + 1 :]:
            for (a_o, a_u, a_s), (b_o, b_u, b_s) in (
                ((o1, u1, s1), (o2, u2, s2)),
                ((o2, u2, s2), (o1, u1, s1)),
            ):
                if pos(b_u) < pos(a_o) < pos(b_o) < pos(a_u):
                    total += a_s * b_s
    return total


def a2_oracle(d: GaussDiagram) -> int:
    """Casson knot invariant (z^2 Conway coefficient) by interlacement count.

    Recomputed with the base point moved to every arc; disagreement
    between base points means the diagram is not a knot diagram.  This
    is the production a2 path (``a2_of_curve`` calls it), not a test
    oracle; the name stays because the benchmark's span wrappers patch
    it by name.
    """
    if not d.crossings:
        return 0
    arrows = [(c.over, c.under, c.sign) for c in d.crossings]
    params = sorted(t for c in d.crossings for t in (c.over, c.under))
    bases = [0.0] + [(a + b) / 2 for a, b in zip(params, params[1:])] + [(params[-1] + 1) / 2]
    counts = [_pv_count(arrows, b) for b in bases]
    values = set(counts)
    if len(values) != 1:
        raise InconsistentDiagram(f"base-point dependent count: {sorted(values)}")
    return counts[0]


def a2_of_curve(curve: KnotCurve, directions: int = 3, seed: int = 7) -> int:
    """a2 from several generic projections; the values must agree."""
    if directions < 1:
        raise InvalidParams(f"need at least one direction, got {directions}")
    if directions > A2_MAX_DIRECTIONS:
        raise ResourceLimit(f"at most {A2_MAX_DIRECTIONS} directions, got {directions}")
    if seed < 0:
        raise InvalidParams(f"seed must be non-negative, got {seed}")
    curve.validate()
    values = []
    for direction in ranked_directions((curve,), directions + 13, seed):
        try:
            diagram = project_to_diagram(curve, direction)
        except DegenerateProjection:
            continue
        values.append(a2_oracle(diagram))
        if len(values) == directions:
            break
    if len(values) < directions:
        raise DegenerateProjection("could not find enough generic directions")
    if len(set(values)) != 1:
        raise InconsistentDiagram(f"projections disagree: {values}")
    return values[0]
