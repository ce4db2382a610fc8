"""Planar projections, Gauss diagrams, and combinatorial knot invariants.

The second-coefficient invariant a2 is a signed count of interlaced
crossing pairs on the Gauss diagram; it is the reference value for the
configuration-space integrals of ``integrals``.  Its own reference, the
z^2 coefficient of the Conway polynomial by skein recursion on the same
diagram, lives in ``tests/oracles.py``.  Crossings are looked for among
the segment pairs whose midpoints ``curves.near_pairs`` finds.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _numpy as np
from .curves import KnotCurve, near_pairs
from .errors import DegenerateProjection, InconsistentDiagram, InvalidParams, ResourceLimit

#: Segment counts of the first and the finest projected polyline.
MIN_SEGMENTS = 2048
MAX_SEGMENTS = 32768
#: Most projections of one ``a2_of_curve`` call: 12-19 ms each on the
#: trefoil on a 2-core x86-64 machine, so at most about 20 s.
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


def _segment_crossings(curve: KnotCurve, direction, n: int) -> list[Crossing]:
    """Self-intersections of the projected closed polyline with n segments."""
    e1, e2, d = _plane_basis(direction)
    t = np.arange(n) / n
    pts, tan = curve.eval_planes(t)
    u, v, depth = e1 @ pts, e2 @ pts, d @ pts
    scale = max(np.ptp(u), np.ptp(v))
    nxt = np.concatenate([np.arange(1, n), [0]])
    du, dv = u[nxt] - u, v[nxt] - v

    # tangency with the viewing direction collapses the projected speed
    tan3 = np.linalg.norm(tan, axis=0)
    if (np.hypot(du, dv) * n / tan3).min() < 1e-2:
        raise DegenerateProjection("curve tangent nearly parallel to direction")

    # two crossing segments have midpoints at most the longest segment
    # apart along each axis
    mid = np.stack([u + u[nxt], v + v[nxt]], axis=1) / 2
    pairs = near_pairs(mid, max(float(np.hypot(du, dv).max()), 1e-12), window=1)
    if pairs.size == 0:
        return []
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
        ti = (ii + si) / n
        tj = (jj + rj) / n
        zi = depth[ii] + si * (depth[nxt[ii]] - depth[ii])
        zj = depth[jj] + rj * (depth[nxt[jj]] - depth[jj])
        if abs(zi - zj) < 1e-7 * scale:
            raise DegenerateProjection("over/under depths nearly equal")
        cross2 = du[ii] * dv[jj] - dv[ii] * du[jj]
        if abs(cross2) < 1e-9 * np.hypot(du[ii], dv[ii]) * np.hypot(du[jj], dv[jj]):
            raise DegenerateProjection("near-tangential crossing")
        if zi > zj:
            over_t, under_t, sign = ti, tj, (1 if cross2 > 0 else -1)
        else:
            over_t, under_t, sign = tj, ti, (1 if cross2 < 0 else -1)
        found.append(Crossing(over_t, under_t, sign))
    found.sort(key=lambda c: (min(c.over, c.under), max(c.over, c.under)))
    return found


def _crossings_match(a: list[Crossing], b: list[Crossing], tol: float) -> bool:
    if len(a) != len(b):
        return False
    for ca, cb in zip(a, b):
        if ca.sign != cb.sign:
            return False
        if abs(ca.over - cb.over) > tol or abs(ca.under - cb.under) > tol:
            return False
    return True


def project_to_diagram(curve: KnotCurve, direction) -> GaussDiagram:
    """Gauss diagram of the projection along ``direction``.

    The projected polyline is refined by doubling from MIN_SEGMENTS up to
    MAX_SEGMENTS segments until the crossing set stabilizes twice in a
    row; unstable or tangential projections raise DegenerateProjection
    (callers retry with a perturbed direction).
    """
    history = []
    levels = []
    n = MIN_SEGMENTS
    while n <= MAX_SEGMENTS:
        history.append(_segment_crossings(curve, direction, n))
        levels.append(n)
        if len(history) >= 3:
            a, b, c = history[-3:]
            tol = 16.0 / levels[-3]
            if _crossings_match(a, b, tol) and _crossings_match(b, c, tol):
                params = sorted(t for cr in c for t in (cr.over, cr.under))
                if params:
                    gaps = np.diff(np.array(params + [params[0] + 1.0]))
                    if gaps.min() < 4.0 / n:
                        raise DegenerateProjection("two crossings nearly coincide")
                return GaussDiagram(tuple(c))
        n *= 2
    raise DegenerateProjection("crossing set did not stabilize")


def generic_directions(seed: int = 7, count: int = 16) -> list[np.ndarray]:
    """Deterministic sequence of unit vectors for projection retries."""
    rng = np.random.default_rng(seed)
    dirs = []
    while len(dirs) < count:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-3:
            dirs.append(v / norm)
    return dirs


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
    for direction in generic_directions(seed=seed, count=directions + 13):
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
