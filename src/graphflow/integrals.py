"""Configuration-space integrals for knots in flat R^3.

Deterministic quadrature covers the integrals whose graphs have no
internal vertex: the two-point integrals (self-linking and Gauss
linking) by product quadrature, and the crossed-chord term of v2 by an
O(N^2) cumulative-sum form of its four-point midpoint sum.  The tripod,
v2's one term with an internal vertex, runs Monte Carlo with its knot
parameters on the ordered simplex and its spatial vertex
importance-sampled from kernels centered on the sampled knot points.
Each of the 64 batches draws from its own random stream, and
consecutive batches of m samples are sampled and evaluated together, in
groups of at most max(m, MC_ROWS) rows.  Each sample's knot points are
evaluated once, position and tangent together, and shared by the
sampler and the compiled integrand.
All estimators are bit-reproducible for a fixed (inputs, seed) pair.
The O(N^4) product quadrature of chord-only graph integrals that the
crossed-chord quadrature is checked against lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import SEPARATION_SAMPLES, KnotCurve, min_distance
from .errors import CurvesIntersect, InvalidParams, ResourceLimit, UnsupportedGraph
from .forms import FOUR_PI, CompiledIntegrand
from .graphs import (
    DecoratedGraph,
    Flavor,
    GraphSum,
    graph_grade,
    has_internal_loop,
    is_trivalent,
    knot_order2_cocycle,
)

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
MC_BATCHES = 64
#: Most samples of one ``a_gamma_mc`` run: a pass peaks near 520 bytes a
#: row, so 2**22 rows per batch keep a group near 2.2 GB per worker.
MC_MAX_SAMPLES = 2**28
#: Most rows of one sampling pass: consecutive batches of m samples are
#: drawn and evaluated together, max(1, MC_ROWS // m) at a time.
MC_ROWS = 4096
NEAR_WEIGHT = 0.25


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
        return {
            "value": self.value,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "method": self.method,
        }


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


def _gauss_coeff(v: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """det(v, a, b) / (4 pi |v|^3), broadcasting over leading axes."""
    num = np.einsum("...i,...i->...", v, np.cross(a, b))
    r2 = np.einsum("...i,...i->...", v, v)
    return num / (FOUR_PI * r2**1.5)


def hash_graph(graph: DecoratedGraph) -> int:
    """Stable 63-bit tag of a graph encoding, for seed derivation."""
    text = f"{graph.flavor.value}|{graph.n_ext}|{graph.n_int}|{graph.edges}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


# --- two-point quadratures ---


def _gauss_blocks(p1, d1, p2, d2, rows=None):
    """Row blocks (i0, i1, f) of the n x n Gauss integrand grid
    f[i, j] = _gauss_coeff(p2[j] - p1[i], -d1[i], d2[j]), for positions
    and tangents of two curves at the same n parameters, ``rows`` rows at
    a time (by default about 4e6 entries).  Coincident points give nan or
    inf entries."""
    n = len(p1)
    chunk = rows or max(1, 4_000_000 // n)
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        with np.errstate(invalid="ignore", divide="ignore"):
            f = _gauss_coeff(
                p2[None, :, :] - p1[i0:i1, None, :], -d1[i0:i1, None, :], d2[None, :, :]
            )
        yield i0, i1, f


def _sln_grid_sum(curve: KnotCurve, n: int, bands: list[float]) -> list[float]:
    """Banded midpoint sums of the self-linking integrand on an n x n grid."""
    t = (np.arange(n) + 0.5) / n
    pos, tan = curve.eval_with_deriv(t)
    out = [0.0 for _ in bands]
    for i0, i1, f in _gauss_blocks(pos, tan, pos, tan):
        dt = np.abs(t[None, :] - t[i0:i1, None])
        cyc = np.minimum(dt, 1.0 - dt)
        np.nan_to_num(f, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
        for k, band in enumerate(bands):
            out[k] += float(f[cyc > band].sum())
    return [s / (n * n) for s in out]


def sln_integral(curve: KnotCurve, grid: int = 1024) -> IntegralEstimate:
    """Self-linking integral: the Gauss form over the configuration of
    two points on the knot (the flat-space writhe integral).

    Deterministic quadrature with a diagonal-exclusion band; the band is
    halved twice and Richardson-extrapolated, and the residual between
    successive extrapolations (plus a coarse-grid comparison) feeds the
    error estimate.
    """
    if grid < 2:  # the error estimate compares against a grid of half the size
        raise InvalidParams(f"grid must be at least 2, got {grid}")
    curve.validate()
    band0 = 32.0 / grid
    bands = [band0, band0 / 2, band0 / 4]
    i0, i1, i2 = _sln_grid_sum(curve, grid, bands)
    fine = 2.0 * i2 - i1
    prev = 2.0 * i1 - i0
    j0, j1, j2 = _sln_grid_sum(curve, grid // 2, bands)
    coarse = 2.0 * j2 - j1
    err = abs(fine - prev) + abs(fine - coarse)
    return IntegralEstimate(fine, err, grid * grid, 0, "quadrature")


def _linking_grid(k1: KnotCurve, k2: KnotCurve, n: int) -> float:
    t = (np.arange(n) + 0.5) / n
    p1, d1 = k1.eval_with_deriv(t)
    p2, d2 = k2.eval_with_deriv(t)
    total = 0.0
    for _, _, f in _gauss_blocks(p1, d1, p2, d2):
        total += float(f.sum())
    return total / (n * n)


def linking_integral(k1: KnotCurve, k2: KnotCurve, grid: int = 1024) -> IntegralEstimate:
    """Gauss linking number of two disjoint curves by torus quadrature."""
    if grid < 2:
        raise InvalidParams(f"grid must be at least 2, got {grid}")
    t = np.arange(SEPARATION_SAMPLES) / SEPARATION_SAMPLES
    min_d = min_distance(k1.eval(t), k2.eval(t))
    scale = max(k1.diameter(), k2.diameter())
    if min_d <= 1e-3 * scale:
        raise CurvesIntersect(f"curves approach within {min_d:.3g}")
    fine = _linking_grid(k1, k2, grid)
    coarse = _linking_grid(k1, k2, grid // 2)
    return IntegralEstimate(fine, abs(fine - coarse), grid * grid, 0, "quadrature")


# --- the crossed-chord integral ---


def _crossed_chord_sum(curve: KnotCurve, n: int) -> float:
    """S = sum over i < j < k < l of W[i, k] * W[j, l] / n^4 on the n-point
    midpoint grid, W the self-linking integrand.

    S = sum_{j<l} W[j, l] * A[j, l] with A[j, l] = sum_{j<k<l} P[j, k] and
    P[j, k] = sum_{i<j} W[i, k]: a cumulative sum down the columns (P,
    carried across row blocks) and one along the rows (A), so O(n^2).
    """
    t = (np.arange(n) + 0.5) / n
    pos, tan = curve.eval_with_deriv(t)
    cols = np.arange(n)
    above = np.zeros((1, n))  # column sums of the rows before the block
    total = 0.0
    for j0, j1, w in _gauss_blocks(pos, tan, pos, tan, rows=64):
        np.nan_to_num(w, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
        p = np.cumsum(np.concatenate([above, w]), axis=0)
        above = p[-1:]
        p = p[:-1]
        p[cols[None, :] <= cols[j0:j1, None]] = 0.0  # keep k > j
        a = np.cumsum(p, axis=1)  # a[j, l] = A[j, l + 1]
        total += float((w[:, 1:] * a[:, :-1]).sum())
    return total / n**4


def _x_quadrature(curve: KnotCurve, grid: int = X_GRID) -> IntegralEstimate:
    """Configuration integral of the crossed-chord graph, 4 * S.

    The midpoint sum S has a first-order error in 1/grid, so the value is
    the Richardson extrapolation 2 S(grid) - S(grid/2), and the error its
    distance from the same extrapolation one grid coarser.  A product of
    two Gauss integrands, it needs no orientation constant.
    """
    curve.validate()
    s0, s1, s2 = (_crossed_chord_sum(curve, grid // d) for d in (4, 2, 1))
    fine = 2.0 * s2 - s1
    prev = 2.0 * s1 - s0
    return IntegralEstimate(4.0 * fine, 4.0 * abs(fine - prev), grid * grid, 0, "quadrature")


# --- Monte Carlo for the tripod ---


def _draw(rng: np.random.Generator, mm: int, n: int, t: int) -> tuple[np.ndarray, ...]:
    """One batch's draws for mm samples, in stream order: the sorted knot
    parameters, then per spatial vertex its center, its kernel choice,
    its radius variate and its direction."""
    tv = np.sort(rng.random((mm, n)), axis=1)
    centers = rng.integers(0, n, size=(mm, t))
    use_near = rng.random((mm, t)) < NEAR_WEIGHT
    u = rng.random((mm, t))
    direction = rng.normal(size=(mm, t, 3))
    return tv, centers, use_near, u, direction


def _sample(
    curve: KnotCurve, draws: list[tuple[np.ndarray, ...]], n_fact: int, r0: float, r_near: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Knot positions and tangents, spatial points and importance weights
    of the samples that ``_draw`` drew for each batch, concatenated.  The
    sampler's temporaries are freed on return, before the integrand runs."""
    tv, centers, use_near, u, direction = (np.concatenate(parts) for parts in zip(*draws))
    del draws  # the caller keeps no reference: the per-batch copies go here
    # knot points are evaluated once; the sampler and integrand share them
    knot_pts, knot_tan = curve.eval_with_deriv(tv)
    c = np.cbrt(u)
    radius = np.where(use_near, r_near * u, r0 * c / np.maximum(1.0 - c, 1e-15))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    anchor = np.take_along_axis(knot_pts, centers[..., None], axis=1)
    xv = anchor + radius[..., None] * direction
    # mixture density over the sampled knot points
    diff = xv[:, :, None, :] - knot_pts[:, None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    tail = 3.0 * r0 / (FOUR_PI * (r0 + dist) ** 4)
    with np.errstate(divide="ignore"):
        near = np.where(
            dist < r_near, 1.0 / (FOUR_PI * np.maximum(dist, 1e-300) ** 2 * r_near), 0.0
        )
    q = ((1.0 - NEAR_WEIGHT) * tail + NEAR_WEIGHT * near).mean(axis=2)
    return knot_pts, knot_tan, xv, 1.0 / (n_fact * np.prod(q, axis=1))


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
    n, t = integrand.n, integrand.t
    n_fact = math.factorial(n)
    todo = np.arange(len(rngs) * m)  # rows b * m + i, ascending, so grouped by batch
    weights = np.empty(todo.size)
    values = np.empty(todo.size)
    for _ in range(64):
        counts = np.bincount(todo // m, minlength=len(rngs))
        knot_pts, knot_tan, xv, w = _sample(
            curve, [_draw(rng, k, n, t) for rng, k in zip(rngs, counts) if k], n_fact, r0, r_near
        )
        vals, bad = integrand.evaluate_batch(knot_pts, knot_tan, xv, eps_coll)
        weights[todo], values[todo] = w, vals
        todo = todo[bad]
        if todo.size == 0:
            break
    else:
        raise UnsupportedGraph("collision guard kept rejecting samples")
    terms = values * weights
    return [float(np.mean(terms[b * m : (b + 1) * m])) for b in range(len(rngs))]


def a_gamma_mc(
    graph: DecoratedGraph,
    curve: KnotCurve,
    n_samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> IntegralEstimate:
    """Monte Carlo configuration integral of the tripod, the graph
    ``knot_order2_graphs()[1]``; any other graph raises UnsupportedGraph.

    Estimates and errors come from 64 batch means of m = n_samples // 64
    samples (at least 1), each batch drawing from its own stream seeded
    by (seed, graph tag, batch).  Batches are evaluated in groups of at
    most max(m, MC_ROWS) rows, one group per worker task, so results are
    bit-identical for fixed (graph, curve, n_samples, seed) whatever the
    worker count.
    """
    if n_samples < 1:
        raise InvalidParams(f"need at least one sample, got {n_samples}")
    if n_samples > MC_MAX_SAMPLES:
        raise ResourceLimit(f"at most {MC_MAX_SAMPLES} samples, got {n_samples}")
    if seed < 0:
        raise InvalidParams(f"seed must be non-negative, got {seed}")
    integrand = CompiledIntegrand(graph)
    curve.validate()
    diam = curve.diameter()
    r0 = 0.1 * diam
    r_near = 0.2 * diam
    eps_coll = 1e-9 * diam
    m = max(1, n_samples // MC_BATCHES)
    # stable per-graph tag so different graphs draw independent streams
    tag = hash_graph(graph)

    size = max(1, MC_ROWS // m)
    groups = [range(g, min(g + size, MC_BATCHES)) for g in range(0, MC_BATCHES, size)]

    def run(group: range) -> list[float]:
        rngs = [np.random.default_rng([seed, tag, b]) for b in group]
        return _mc_group(integrand, curve, m, rngs, r0, r_near, eps_coll)

    nworkers = resolve_workers(workers)
    if nworkers > 1:
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


def split_cocycle_terms(
    cocycle: GraphSum,
) -> tuple[list[tuple[Fraction, DecoratedGraph]], list[tuple[Fraction, DecoratedGraph]]]:
    """Partition cocycle terms into MC-supported and internal-loop terms."""
    order, _ = graph_grade(cocycle)
    if order % 2:
        raise UnsupportedGraph("only even-order cocycles are evaluated numerically")
    supported, skipped = [], []
    for g, c in cocycle.items():
        if g.flavor is not Flavor.KNOT or not is_trivalent(g):
            raise UnsupportedGraph("cocycle terms must be trivalent knot graphs")
        (skipped if has_internal_loop(g) else supported).append((c, g))
    return supported, skipped


def v2_invariant(
    curve: KnotCurve,
    n_samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> IntegralEstimate:
    """The order-2 knot cocycle's configuration integral, 1/4 X - 1/3 Y.

    X, the crossed-chord term, comes from the deterministic quadrature
    ``_x_quadrature`` on an ``X_GRID`` grid; Y, the tripod, from
    ``a_gamma_mc`` with ``n_samples`` samples.  The two errors add in
    quadrature, and ``n_samples`` of the result counts the Monte Carlo
    samples only.  The term whose graph contains an internal loop
    contributes a knot-independent offset in the flat setting used here
    and is omitted; differences of this quantity between knots match the
    order-2 combinatorial invariant.
    """
    supported, _ = split_cocycle_terms(knot_order2_cocycle())
    value = 0.0
    var = 0.0
    total = 0
    for coeff, g in supported:
        if g.n_int:
            est = a_gamma_mc(g, curve, n_samples=n_samples, seed=seed, workers=workers)
            total += est.n_samples
        else:  # the crossed chords, the cocycle's one chord-only graph
            est = _x_quadrature(curve)
        value += float(coeff) * est.value
        var += (float(coeff) * est.std_error) ** 2
    return IntegralEstimate(value, math.sqrt(var), total, seed, "mc")
