"""Configuration-space integrals for knots in flat R^3.

Deterministic quadrature covers the integrals whose graphs have no
internal vertex: the two-point integrals (self-linking and Gauss
linking) by product quadrature, and the crossed-chord term X of v2 by an
O(N^2) cumulative-sum form of its four-point midpoint sum.  All three
read the Gauss integrand on the n x n grid of midpoint pairs, which
``_gauss_blocks`` streams in 64-row blocks from coordinate planes of
the curves' points and tangents; ``_richardson`` extrapolates their
sums over halved grids, by no step for lk.  v2's other term, the
tripod Y, runs Monte Carlo with its knot parameters on the ordered
simplex and its spatial vertex importance-sampled from kernels centered
on the sampled knot points.  Each of the 64 batches draws from its own
random stream, and consecutive batches of m samples are sampled and
evaluated together, in groups of at most max(m, MC_ROWS) rows.  Each
sample's knot points are evaluated once, position and tangent together,
and shared by the sampler and the compiled integrand; the pass runs on
contiguous (3, B) coordinate planes and sums in the order of the
row-layout pass in ``tests/test_integrals.py``, whose bits it keeps.  All
estimators are bit-reproducible for a fixed (inputs, seed) pair.  The
O(N^4) product quadrature of chord-only graph integrals that the
crossed-chord quadrature is checked against, and the einsum form of the
Gauss integrand whose bits the grid reproduces, live in ``tests/oracles.py``.
Every knot command imports this module, so it imports ``graphs`` only
in ``v2_invariant`` and ``concurrent.futures`` only for more than one
worker: ``sln`` and ``lk`` load neither, one-worker ``v2`` no thread pool.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import asdict, dataclass

from . import _numpy as np
from .curves import SEPARATION_SAMPLES, KnotCurve, least_distance, near_pairs
from .errors import CurvesIntersect, InvalidParams, ResourceLimit, SamplingFailed
from .forms import FOUR_PI, CompiledIntegrand

#: Orientation of the component of cyclically ordered knot points,
#: relative to the coordinate order (t_1..t_n, x, y, z, ...).  Like the
#: overall propagator sign, the paper's orientation conventions are
#: implicit.  The crossed-chord quadrature needs no such constant.  The
#: tripod's sign is pinned by the -1/24 of v2 on the round circle
#: (``test_v2_unknot_value``) and by v2(K) - v2(unknot) = a2(K)
#: (``test_v2_difference_matches_a2``).  The chord oracle in
#: ``tests/oracles.py`` reads it too, and its sign there is pinned by
#: ``test_x_quadrature_matches_brute_force_oracle``.
COMPONENT_ORIENT = -1.0

DEFAULT_SEED = 20259
#: Finest grid of the crossed-chord quadrature in v2.
X_GRID = 512
#: Rules of ``sln_integral``, ``_x_quadrature`` and ``linking_integral``,
#: named in the cache keys.
SLN_RULE, X_RULE = "midpoint, Richardson in n^-2", "midpoint, Richardson in n^-1 and n^-2"
LK_RULE = "midpoint, error from ceil(n / 2)"
#: Smallest grid of ``sln_integral``: its coarsest grid, ceil(grid / 4), then
#: has 5 points or more, so not only the antipode lies beyond the neighbours.
SLN_MIN_GRID = 17
#: Largest grid of sln and lk, whose O(grid^2) Gauss grid took 8.3-9.3 s at 16,384 for sln.
MAX_GRID = 16384
#: Rows of a Gauss integrand grid filled per pass (``_gauss_blocks``):
#: at grids 512 and 1024, 16 rows ran fastest of 4 to 64 on a 2-core
#: x86-64 machine with numpy 2.4.
GAUSS_PASS_ROWS = 16
MC_BATCHES = 64
#: Most samples of one ``a_gamma_mc`` run: a traced 4096-row group peaked
#: at 522 bytes a row on the trefoil and 618 on torus_2_5, 48 (H + 1) for H
#: harmonics, so 2**22 rows per batch keep a group near 2.2-2.6 GB per worker.
MC_MAX_SAMPLES = 2**28
#: Most rows of one sampling pass: consecutive batches of m samples are
#: drawn and evaluated together, max(1, MC_ROWS // m) at a time.
MC_ROWS = 4096
NEAR_WEIGHT = 0.25
#: Stable 63-bit tag of the tripod's encoding, flavor|n_ext|n_int|edges,
#: in the seed of every Monte Carlo batch stream.
_TRIPOD_TAG = int(hashlib.sha256(b"knot|3|1|((1, 4), (2, 4), (3, 4))").hexdigest()[:16], 16) >> 1


@dataclass(frozen=True)
class IntegralEstimate:
    """Value with uncertainty and reproducibility provenance."""

    value: float
    std_error: float
    n_samples: int
    seed: int
    method: str

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("negative standard error")

    def to_json_obj(self) -> dict:
        return asdict(self)


def resolve_workers(workers: int | None) -> int:
    """``workers``, else $GRAPHFLOW_WORKERS, else 1; InvalidParams unless
    the count is a positive integer."""
    if workers is None:
        env = os.environ.get("GRAPHFLOW_WORKERS", "1")
        try:
            workers = int(env)
        except ValueError:
            raise InvalidParams(f"GRAPHFLOW_WORKERS must be an integer, got {env!r}") from None
    if workers < 1:
        raise InvalidParams(f"workers must be at least 1, got {workers}")
    return workers


# --- two-point quadratures ---


def _gauss_blocks(k1: KnotCurve, k2: KnotCurve, n: int):
    """Row blocks (i0, i1, f) of the n x n Gauss integrand grid
    f[i, j] = det(v, -d1[i], d2[j]) / (4 pi |v|^3), v = p2[j] - p1[i], of
    points p and tangents d of k1 and k2 at the midpoints (i + 1/2) / n, 64
    rows (0.5 MiB at n = 1024) at a time; on one curve (``k2 is k1``) the
    nan diagonal of coincident points is set to 0.

    Each block is filled GAUSS_PASS_ROWS rows at a time from (3, n)
    coordinate planes (``KnotCurve.eval_planes``), so that a pass's
    temporaries stay in cache.  The cross product is formed component by
    component as ``np.cross`` forms it, and each dot product is summed
    from 0.0 in the order (0, 2, 1), as numpy's ``einsum`` sums three
    products; the entries are then bit for bit those of the einsum form
    in ``tests/oracles.py``, signed zeros included.
    """
    t = (np.arange(n) + 0.5) / n
    x1, d1 = k1.eval_planes(t)
    x2, b = (x1, d1) if k2 is k1 else k2.eval_planes(t)
    a = -d1
    buf = np.empty((5, GAUSS_PASS_ROWS, n))
    for i0 in range(0, n, 64):
        i1 = min(i0 + 64, n)
        f = np.empty((i1 - i0, n))
        for r0 in range(i0, i1, GAUSS_PASS_ROWS):
            r1 = min(r0 + GAUSS_PASS_ROWS, i1)
            v, c, s, num, r2 = buf[:, : r1 - r0]
            num.fill(0.0)
            r2.fill(0.0)
            for k in (0, 2, 1):
                j1, j2 = (k + 1) % 3, (k + 2) % 3
                np.subtract(x2[k], x1[k, r0:r1, None], out=v)
                np.multiply(a[j1, r0:r1, None], b[j2], out=c)
                np.multiply(a[j2, r0:r1, None], b[j1], out=s)
                c -= s  # (a x b)[k], as np.cross forms it
                c *= v
                num += c
                v *= v
                r2 += v
            np.power(r2, 1.5, out=r2)
            r2 *= FOUR_PI
            with np.errstate(invalid="ignore", divide="ignore"):
                np.divide(num, r2, out=f[r0 - i0 : r1 - i0])
        if k2 is k1:
            np.fill_diagonal(f[:, i0:], 0.0)
        yield i0, i1, f


def _gauss_sum(k1: KnotCurve, k2: KnotCurve, n: int) -> float:
    """Midpoint sum of the Gauss integrand over the n x n grid, its block
    sums added left to right (on one curve, the diagonal set to 0)."""
    return sum(float(f.sum()) for _, _, f in _gauss_blocks(k1, k2, n)) / (n * n)


def _richardson(total, grid: int, power: int, steps: int) -> tuple[float, float]:
    """(value, error) of ``total(n)``, a sum whose error is a series in
    h^power (h = 1 / n), on the grids ceil(grid / 2^k), k = steps + 1..0,
    by ``steps`` Neville steps weighted by the actual grid ratios.  The
    error is the distance from the same steps one grid coarser."""
    grids = [-(-grid // 2**k) for k in range(steps + 1, -1, -1)]
    col = [total(n) for n in grids]
    for k in range(1, steps + 1):
        w = [(grids[i + k] / grids[i]) ** power for i in range(len(col) - 1)]
        col = [(wi * f - c) / (wi - 1.0) for wi, c, f in zip(w, col, col[1:])]
    return col[-1], abs(col[-1] - col[-2])


def check_grid(grid: int, least: int) -> None:
    """InvalidParams for a grid below ``least``, ResourceLimit above MAX_GRID."""
    if grid < least:
        raise InvalidParams(f"grid must be at least {least}, got {grid}")
    if grid > MAX_GRID:
        raise ResourceLimit(f"grid must be at most {MAX_GRID}, got {grid}")


def sln_integral(curve: KnotCurve, grid: int = 1024) -> IntegralEstimate:
    """Self-linking integral: the Gauss form over the configuration of
    two points on the knot (the flat-space writhe integral).

    The integrand vanishes on the diagonal like |s - t|, so the midpoint
    sum S(n) has an error series in n^-2, n^-4, ... (Navot, J. Math. and
    Phys. 1961); the value is (4 S(grid) - S(grid/2)) / 3 (``_richardson``).
    """
    check_grid(grid, SLN_MIN_GRID)
    curve.validate()
    value, err = _richardson(lambda n: _gauss_sum(curve, curve, n), grid, power=2, steps=1)
    return IntegralEstimate(value, err, grid * grid, 0, "quadrature")


def linking_integral(k1: KnotCurve, k2: KnotCurve, grid: int = 1024) -> IntegralEstimate:
    """Gauss linking number of two disjoint curves by torus quadrature,
    with the distance from the sum one grid coarser as its error."""
    check_grid(grid, 2)
    k1.validate()
    k2.validate()
    t = np.arange(SEPARATION_SAMPLES) / SEPARATION_SAMPLES
    p, q = k1.eval_planes(t)[0].T, k2.eval_planes(t)[0].T
    bound = 1e-3 * max(k1.diameter(), k2.diameter())
    # only points in the other curve's box grown by 2 * bound (the bound, and
    # room for rounding) can be that close; far-apart curves keep none
    boxes = [(b.min(axis=0) - 2 * bound, b.max(axis=0) + 2 * bound) for b in (q, p)]
    p, q = (a[np.all((lo <= a) & (a <= hi), axis=1)] for a, (lo, hi) in zip((p, q), boxes))
    x = np.concatenate([p, q])
    pairs = near_pairs(x, 2 * bound)
    min_d = least_distance(x, pairs[(pairs[:, 0] < len(p)) & (pairs[:, 1] >= len(p))])
    if min_d <= bound:
        raise CurvesIntersect(f"curves approach within {min_d:.3g}")
    value, err = _richardson(lambda n: _gauss_sum(k1, k2, n), grid, power=2, steps=0)
    return IntegralEstimate(value, err, grid * grid, 0, "quadrature")


# --- the crossed-chord integral ---


def _crossed_chord_sum(curve: KnotCurve, n: int) -> float:
    """S = sum over i < j < k < l of W[i, k] * W[j, l] / n^4 on the n-point
    midpoint grid, W the self-linking integrand.

    S = sum_{j<l} W[j, l] * A[j, l] with A[j, l] = sum_{j<k<l} P[j, k] and
    P[j, k] = sum_{i<j} W[i, k]: a cumulative sum down the columns (P,
    carried across row blocks) and one along the rows (A), so O(n^2).
    """
    above = np.zeros((1, n))  # column sums of the rows before the block
    total = 0.0
    for j0, j1, w in _gauss_blocks(curve, curve, n):
        p = np.cumsum(np.concatenate([above, w]), axis=0)
        above = p[-1:]
        p = p[:-1]
        p[np.tri(j1 - j0, n, j0, dtype=bool)] = 0.0  # keep k > j
        a = np.cumsum(p, axis=1)  # a[j, l] = A[j, l + 1]
        total += float((w[:, 1:] * a[:, :-1]).sum())
    return total / n**4


def _x_quadrature(curve: KnotCurve, grid: int = X_GRID) -> IntegralEstimate:
    """Configuration integral of the crossed-chord graph, 4 * S.

    The midpoint sum S has an error series in 1/grid, 1/grid^2, ..., so the
    value is 4 (4 R(grid) - R(grid/2)) / 3 with R(n) = 2 S(n) - S(n/2)
    (``_richardson``).  A product of two Gauss integrands, it needs no
    orientation constant.
    """
    curve.validate()
    value, err = _richardson(lambda n: _crossed_chord_sum(curve, n), grid, power=1, steps=2)
    return IntegralEstimate(4.0 * value, 4.0 * err, grid * grid, 0, "quadrature")


# --- Monte Carlo for the tripod ---


def _draw(rng: np.random.Generator, mm: int) -> tuple[np.ndarray, ...]:
    """One batch's draws for mm samples on their last axis, in stream
    order: the knot parameters, sorted into (3, mm) planes by a min/max
    network, then the spatial vertex's center, its kernel choice, its
    radius variate and its direction."""
    a, b, c = rng.random((mm, 3)).T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    mid = np.minimum(hi, c)
    tv = np.array([np.minimum(lo, mid), np.maximum(lo, mid), np.maximum(hi, c)])
    centers = rng.integers(0, 3, size=mm)
    use_near = rng.random(mm) < NEAR_WEIGHT
    u = rng.random(mm)
    direction = rng.normal(size=(mm, 3)).T
    return tv, centers, use_near, u, direction


def _sample(
    curve: KnotCurve, draws: list[tuple[np.ndarray, ...]], r0: float, r_near: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Knot positions and tangents, spatial points and importance weights
    of the B samples that ``_draw`` drew for each batch, concatenated.  The
    knot points are evaluated once into (coordinate, knot, sample) planes,
    whose (B, 3, 3) transposes the integrand reads.  For the row-layout
    bits, |d| is sqrt((d0^2 + d1^2) + d2^2), as ``np.linalg.norm`` sums,
    the density q the mean ((q0 + q1) + q2) / 3 over the knot points and
    the weight 1 / (3! q).  The temporaries are freed on return, before
    the integrand runs."""
    tv, centers, use_near, u, direction = (np.concatenate(parts, axis=-1) for parts in zip(*draws))
    del draws  # the caller keeps no reference: the per-batch copies go here
    rows = u.size
    pos, tan = curve.eval_planes(tv.reshape(-1))
    anchor = np.take(pos, centers * rows + np.arange(rows), axis=1)
    c = np.cbrt(u)
    radius = np.where(use_near, r_near * u, r0 * c / np.maximum(1.0 - c, 1e-15))
    direction /= _norm(direction)
    xv = anchor + radius * direction
    # mixture density over the sampled knot points
    knots = pos.reshape(3, 3, rows)
    dist = _norm(xv[:, None] - knots)
    tail = 3.0 * r0 / (FOUR_PI * (r0 + dist) ** 4)
    with np.errstate(divide="ignore"):
        near = np.where(
            dist < r_near, 1.0 / (FOUR_PI * np.maximum(dist, 1e-300) ** 2 * r_near), 0.0
        )
    q = (1.0 - NEAR_WEIGHT) * tail + NEAR_WEIGHT * near
    return knots.T, tan.reshape(3, 3, rows).T, xv.T[:, None], 1.0 / (6 * ((q[0] + q[1] + q[2]) / 3))


def _norm(d: np.ndarray) -> np.ndarray:
    return np.sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2])


def _mc_group(
    integrand: CompiledIntegrand,
    curve: KnotCurve,
    m: int,
    rngs: list[np.random.Generator],
    r0: float,
    r_near: float,
    eps_coll: float,
) -> list[float]:
    """Means of the batches of m samples that draw from ``rngs``, one
    stream each.  Their draws are concatenated, then weighed and
    evaluated in one pass; a sample inside the collision guard is drawn
    again from its own batch's stream, at most 64 times."""
    todo = np.arange(len(rngs) * m)  # rows b * m + i, ascending, so grouped by batch
    weights = np.empty(todo.size)
    values = np.empty(todo.size)
    for _ in range(64):
        counts = np.bincount(todo // m, minlength=len(rngs))
        knot_pts, knot_tan, xv, w = _sample(
            curve, [_draw(rng, k) for rng, k in zip(rngs, counts) if k], r0, r_near
        )
        vals, bad = integrand.evaluate_batch(knot_pts, knot_tan, xv, eps_coll)
        weights[todo], values[todo] = w, vals
        todo = todo[bad]
        if todo.size == 0:
            break
    else:
        raise SamplingFailed("collision guard kept rejecting samples")
    terms = values * weights
    return [float(np.mean(terms[b * m : (b + 1) * m])) for b in range(len(rngs))]


def a_gamma_mc(
    curve: KnotCurve,
    n_samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> IntegralEstimate:
    """Monte Carlo configuration integral of the tripod, the graph
    ``knot_order2_graphs()[1]``.

    Estimates and errors come from 64 batch means of m = n_samples // 64
    samples (at least 1), each batch drawing from its own stream seeded
    by (seed, the tripod's tag, batch).  Batches are evaluated in groups
    of at most max(m, MC_ROWS) rows, one group per worker task, so
    results are bit-identical for fixed (curve, n_samples, seed) whatever
    the worker count.
    """
    if n_samples < 1:
        raise InvalidParams(f"need at least one sample, got {n_samples}")
    if n_samples > MC_MAX_SAMPLES:
        raise ResourceLimit(f"at most {MC_MAX_SAMPLES} samples, got {n_samples}")
    if seed < 0:
        raise InvalidParams(f"seed must be non-negative, got {seed}")
    integrand = CompiledIntegrand()
    curve.validate()
    diam = curve.diameter()
    r0 = 0.1 * diam
    r_near = 0.2 * diam
    eps_coll = 1e-9 * diam
    m = max(1, n_samples // MC_BATCHES)

    size = max(1, MC_ROWS // m)
    groups = [range(g, min(g + size, MC_BATCHES)) for g in range(0, MC_BATCHES, size)]

    def run(group: range) -> list[float]:
        rngs = [np.random.default_rng([seed, _TRIPOD_TAG, b]) for b in group]
        return _mc_group(integrand, curve, m, rngs, r0, r_near, eps_coll)

    nworkers = resolve_workers(workers)
    if nworkers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            means = list(pool.map(run, groups))
    else:
        means = [run(group) for group in groups]
    batch_means = np.array([mean for group_means in means for mean in group_means])
    # the component of cyclically ordered points is n_ext rotated copies
    # of the simplex sampled above, and the integrand is rotation-invariant
    scale = COMPONENT_ORIENT * integrand.n
    value = scale * float(batch_means.mean())
    std_error = abs(scale) * float(batch_means.std(ddof=1) / math.sqrt(MC_BATCHES))
    return IntegralEstimate(value, std_error, m * MC_BATCHES, seed, "mc")


# --- the order-2 invariant ---


def v2_invariant(
    curve: KnotCurve,
    n_samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> IntegralEstimate:
    """The order-2 knot cocycle's configuration integral, 1/4 X - 1/3 Y.

    X, the crossed-chord term, comes from the deterministic quadrature
    ``_x_quadrature`` on an ``X_GRID`` grid; Y, the tripod, from
    ``a_gamma_mc`` with ``n_samples`` samples.  Their coefficients are
    read from ``knot_order2_cocycle()``.  The two errors add in
    quadrature, and ``n_samples`` of the result counts the Monte Carlo
    samples only.  The cocycle's third term is omitted: its graph has an
    internal loop, a doubled edge between its two internal vertices, so
    its integral is a knot-independent offset in the flat setting used
    here (Bott and Taubes, J. Math. Phys. 1994).  Differences of this
    quantity between knots therefore match the order-2 combinatorial
    invariant.
    """
    from .graphs import knot_order2_cocycle, knot_order2_graphs
    cocycle = knot_order2_cocycle()
    crossed, tripod, _ = knot_order2_graphs()
    y = a_gamma_mc(curve, n_samples=n_samples, seed=seed, workers=workers)
    x = _x_quadrature(curve)
    value = 0.0
    var = 0.0
    for coeff, est in ((cocycle.coefficient(tripod), y), (cocycle.coefficient(crossed), x)):
        value += float(coeff) * est.value
        var += (float(coeff) * est.std_error) ** 2
    return IntegralEstimate(value, math.sqrt(var), y.n_samples, seed, "mc")
