"""Configuration-space integrals for knots in flat R^3.

Deterministic product quadrature covers the two-point integrals
(self-linking and Gauss linking); the higher configuration integrals
attached to trivalent knot graphs run Monte Carlo with knot parameters
on the ordered simplex and spatial vertices importance-sampled from
kernels centered on the sampled knot points.  Each sample's knot
points are evaluated once, position and tangent together, and shared by
the sampler and the compiled integrand.  All estimators are
bit-reproducible for a fixed (inputs, seed) pair.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import KnotCurve
from .errors import CurvesIntersect, UnsupportedGraph
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
#: implicit; this one is calibrated so that the order-2 cocycle integral
#: reproduces the combinatorial invariant (+1 difference on the trefoil).
COMPONENT_ORIENT = -1.0

DEFAULT_SEED = 20259
MC_BATCHES = 64
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


def _workers(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    return max(1, int(os.environ.get("GRAPHFLOW_WORKERS", "1")))


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


def _gauss_blocks(p1, d1, p2, d2):
    """Row blocks (i0, i1, f) of the n x n Gauss integrand grid
    f[i, j] = _gauss_coeff(p2[j] - p1[i], -d1[i], d2[j]), for positions
    and tangents of two curves at the same n parameters.  Coincident
    points give nan or inf entries."""
    n = len(p1)
    chunk = max(1, 4_000_000 // n)
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
    t = np.arange(2048) / 2048
    pa, pb = k1.eval(t), k2.eval(t)
    min_d = math.inf
    for i0 in range(0, 2048, 256):
        d = np.linalg.norm(pa[i0 : i0 + 256, None, :] - pb[None, :, :], axis=-1)
        min_d = min(min_d, float(d.min()))
    scale = max(k1.diameter(), k2.diameter())
    if min_d <= 1e-3 * scale:
        raise CurvesIntersect(f"curves approach within {min_d:.3g}")
    fine = _linking_grid(k1, k2, grid)
    coarse = _linking_grid(k1, k2, grid // 2)
    return IntegralEstimate(fine, abs(fine - coarse), grid * grid, 0, "quadrature")


# --- Monte Carlo for trivalent knot graphs ---


def _mc_batch(
    integrand: CompiledIntegrand,
    curve: KnotCurve,
    m: int,
    rng: np.random.Generator,
    r0: float,
    r_near: float,
    eps_coll: float,
) -> float:
    n, t = integrand.n, integrand.t
    n_fact = math.factorial(n)
    todo = np.arange(m)
    weights = np.empty(m)
    values = np.empty(m)
    for _ in range(64):
        mm = todo.size
        tv = np.sort(rng.random((mm, n)), axis=1)
        # knot points are evaluated once; the sampler and integrand share them
        knot_pts, knot_tan = curve.eval_with_deriv(tv)
        if t:
            centers = rng.integers(0, n, size=(mm, t))
            use_near = rng.random((mm, t)) < NEAR_WEIGHT
            u = rng.random((mm, t))
            c = np.cbrt(u)
            radius = np.where(use_near, r_near * u, r0 * c / np.maximum(1.0 - c, 1e-15))
            direction = rng.normal(size=(mm, t, 3))
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
            w = 1.0 / (n_fact * np.prod(q, axis=1))
        else:
            xv = np.zeros((mm, 0, 3))
            w = np.full(mm, 1.0 / n_fact)
        vals, bad = integrand.evaluate_batch(knot_pts, knot_tan, xv, eps_coll)
        weights[todo], values[todo] = w, vals
        todo = todo[bad]
        if todo.size == 0:
            break
    else:
        raise UnsupportedGraph("collision guard kept rejecting samples")
    return float(np.mean(values * weights))


def a_gamma_mc(
    graph: DecoratedGraph,
    curve: KnotCurve,
    n_samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> IntegralEstimate:
    """Monte Carlo configuration integral of a trivalent knot graph.

    The graph must be loop-free with n_ext + n_int <= 4.  Estimates and
    errors come from 64 independently seeded batch means; results are
    bit-identical for fixed (graph, curve, n_samples, seed).
    """
    if graph.n_ext + graph.n_int > 4:
        raise UnsupportedGraph("graph too large: n_ext + n_int > 4")
    integrand = CompiledIntegrand(graph)
    curve.validate()
    diam = curve.diameter()
    r0 = 0.1 * diam
    r_near = 0.2 * diam
    eps_coll = 1e-9 * diam
    m = max(1, n_samples // MC_BATCHES)
    # stable per-graph tag so different graphs draw independent streams
    tag = hash_graph(graph)

    def run(b: int) -> float:
        rng = np.random.default_rng([seed, tag, b])
        return _mc_batch(integrand, curve, m, rng, r0, r_near, eps_coll)

    nworkers = _workers(workers)
    if nworkers > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            batch_means = np.array(list(pool.map(run, range(MC_BATCHES))))
    else:
        batch_means = np.array([run(b) for b in range(MC_BATCHES)])
    # the component of cyclically ordered points is n_ext rotated copies
    # of the simplex sampled above, and the integrand is rotation-invariant
    scale = COMPONENT_ORIENT * integrand.n
    value = scale * float(batch_means.mean())
    std_error = abs(scale) * float(batch_means.std(ddof=1) / math.sqrt(MC_BATCHES))
    return IntegralEstimate(value, std_error, m * MC_BATCHES, seed, "mc")


def a_gamma_quadrature(
    graph: DecoratedGraph, curve: KnotCurve, grid: int = 64
) -> IntegralEstimate:
    """Test oracle for ``a_gamma_mc`` on graphs with no internal vertices.

    Midpoint quadrature over ordered tuples of an equispaced grid, with
    one Richardson refinement in the grid size.
    """
    integrand = CompiledIntegrand(graph)
    if integrand.t != 0:
        raise UnsupportedGraph("quadrature oracle only covers chord-only graphs")
    n = integrand.n

    def level(g: int) -> float:
        t = (np.arange(g) + 0.5) / g
        total = 0.0
        combos = itertools.combinations(range(g), n)
        chunk_size = 200_000
        while True:
            block = list(itertools.islice(combos, chunk_size))
            if not block:
                break
            pos, tan = curve.eval_with_deriv(t[np.array(block)])
            vals, bad = integrand.evaluate_batch(pos, tan, np.zeros((len(block), 0, 3)), 0.0)
            total += float(np.where(bad, 0.0, vals).sum())
        return total / g**n

    scale = COMPONENT_ORIENT * n
    coarse = scale * level(grid)
    fine = scale * level(2 * grid)
    value = 2.0 * fine - coarse
    return IntegralEstimate(value, abs(value - fine), (2 * grid) ** n, 0, "quadrature")


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
    cocycle: GraphSum | None = None,
    n_samples: int = 1_000_000,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> IntegralEstimate:
    """Sum of coefficient-weighted graph integrals of an even cocycle.

    Defaults to the order-2 knot cocycle.  Terms whose graphs contain an
    internal loop contribute a knot-independent offset in the flat
    setting used here and are omitted; differences of this quantity
    between knots match the order-2 combinatorial invariant.
    """
    if cocycle is None:
        cocycle = knot_order2_cocycle()
    supported, _ = split_cocycle_terms(cocycle)
    value = 0.0
    var = 0.0
    total = 0
    for coeff, g in supported:
        est = a_gamma_mc(g, curve, n_samples=n_samples, seed=seed, workers=workers)
        value += float(coeff) * est.value
        var += (float(coeff) * est.std_error) ** 2
        total += est.n_samples
    return IntegralEstimate(value, math.sqrt(var), total, seed, "mc")
