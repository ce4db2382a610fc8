"""The flat-space propagator and the compiled configuration integrand.

With a trivial framing on R^3 the propagator reduces to the Gauss
form: the unit-normalized area form of S^2 pulled back by the
direction map (x_j - x_i)/|x_j - x_i|.  A configuration point mixes
knot vertices (one degree of freedom along the curve) and free spatial
vertices (three each).  ``CompiledIntegrand`` evaluates the top-degree
wedge of a graph's edge forms on a batch of configurations; its scalar
reference, two-form by two-form, is in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedGraph
from .graphs import DecoratedGraph, Flavor, has_internal_loop, is_trivalent

FOUR_PI = 4.0 * np.pi
MAX_WEDGE_DIM = 12


class CompiledIntegrand:
    """Vectorized integrand of a trivalent knot graph's configuration
    integral, precompiled as a signed sum of entry products.

    The assignment list enumerates exactly the nonzero terms of the
    brute-force wedge expansion, using each edge form's sparsity.  The
    curve is not evaluated here: ``evaluate_batch`` takes the positions
    and tangents of the knot points, which the caller evaluates once
    per sample.
    """

    def __init__(self, graph: DecoratedGraph):
        if graph.flavor is not Flavor.KNOT:
            raise UnsupportedGraph("Monte Carlo integrand needs a knot-flavor graph")
        if not is_trivalent(graph):
            raise UnsupportedGraph("graph is not trivalent")
        if has_internal_loop(graph):
            raise UnsupportedGraph("graph has an internal loop")
        self.graph = graph
        self.n = graph.n_ext
        self.t = graph.n_int
        self.dim = self.n + 3 * self.t
        if self.dim > MAX_WEDGE_DIM:
            raise UnsupportedGraph(f"configuration dimension {self.dim} > {MAX_WEDGE_DIM}")
        self.edges = graph.edges
        self.assignments = self._expand()
        # row of each picked entry (e, p, q) in evaluate_batch's stacked
        # entry values
        entries = sorted({pick for _, picks in self.assignments for pick in picks})
        self._entries = {key: row for row, key in enumerate(entries)}
        self._signs = np.array([sign for sign, _ in self.assignments])
        self._picks = np.array(
            [[self._entries[pick] for pick in picks] for _, picks in self.assignments]
        )
        # per edge, its entries with a tangent partial sp T_k along p and a
        # unit-vector partial sq e_c along q (knot coordinates come first,
        # so never the other way round) as (row, k, c, sign), because
        # det(v, sp T_k, sq e_c) = sign (v x T_k)_c; and each other entry
        # (two tangents or two unit vectors) as (row, partial along p,
        # along q), see _partial
        self._mixed = [[] for _ in self.edges]
        self._partials = [[] for _ in self.edges]
        for row, (e, p, q) in enumerate(entries):
            i, j = self.edges[e]
            (kp, fp), (kq, fq) = self._partial(i, j, p), self._partial(i, j, q)
            if kp >= 0 > kq:
                c = int(np.flatnonzero(fq)[0])
                self._mixed[e].append((row, kp, c, float(fp * fq[c])))
            else:
                self._partials[e].append((row, (kp, fp), (kq, fq)))

    def _partial(self, i: int, j: int, coord: int) -> tuple[int, float | np.ndarray]:
        """Derivative of x_j - x_i along one coordinate of vertex i or j:
        (k, sign) for sign times the tangent at knot point k, or
        (-1, signed unit vector) for a coordinate of a spatial vertex."""
        owner = j if coord in self._dofs(j) else i
        sign = 1.0 if owner == j else -1.0
        if owner <= self.n:
            return owner - 1, sign
        e3 = np.zeros(3)
        e3[coord - (self.n + 3 * (owner - self.n - 1))] = 1.0
        return -1, e3 * sign

    def _dofs(self, v: int) -> list[int]:
        if v <= self.n:
            return [v - 1]
        base = self.n + 3 * (v - self.n - 1)
        return [base, base + 1, base + 2]

    def _expand(self) -> list[tuple[float, tuple[tuple[int, int, int], ...]]]:
        supports = []
        for i, j in self.edges:
            dofs = sorted(self._dofs(i) + self._dofs(j))
            supports.append({(p, q) for ai, p in enumerate(dofs) for q in dofs[ai + 1 :]})
        out: list[tuple[float, tuple[tuple[int, int, int], ...]]] = []

        def rec(coords: tuple[int, ...], unused: frozenset, sign: float, picked):
            if not coords:
                out.append((sign, tuple(picked)))
                return
            p = coords[0]
            rest = coords[1:]
            for k, q in enumerate(rest):
                par = -1.0 if k & 1 else 1.0
                remaining = rest[:k] + rest[k + 1 :]
                for e in unused:
                    if (p, q) in supports[e]:
                        rec(remaining, unused - {e}, sign * par, picked + [(e, p, q)])

        rec(tuple(range(self.dim)), frozenset(range(len(self.edges))), 1.0, [])
        return out

    def evaluate_batch(
        self, pos: np.ndarray, tan: np.ndarray, xvals: np.ndarray, eps_coll: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integrand values for a batch of configurations.

        ``pos`` and ``tan``: (B, n, 3) positions and tangents of the
        sorted knot points, evaluated once by the caller; ``xvals``:
        (B, t, 3).  Returns (values, bad) where ``bad`` flags
        configurations inside the collision guard (their value is
        unreliable and the caller resamples them).
        """
        b = pos.shape[0]
        bad = np.zeros(b, dtype=bool)

        entry_vals = np.empty((len(self._entries), b))
        for e, (i, j) in enumerate(self.edges):
            pi = pos[:, i - 1] if i <= self.n else xvals[:, i - self.n - 1]
            pj = pos[:, j - 1] if j <= self.n else xvals[:, j - self.n - 1]
            v = pj - pi
            r2 = np.einsum("bi,bi->b", v, v)
            bad |= r2 <= eps_coll**2
            denom = FOUR_PI * np.maximum(r2, 1e-300) ** 1.5

            vxt = {}
            for row, k, c, sign in self._mixed[e]:
                if k not in vxt:
                    vxt[k] = _cross(v, tan[:, k])
                entry_vals[row] = sign * vxt[k][c] / denom
            for row, (kp, fp), (kq, fq) in self._partials[e]:
                dp = tan[:, kp] * fp if kp >= 0 else np.broadcast_to(fp, (b, 3))
                dq = tan[:, kq] * fq if kq >= 0 else np.broadcast_to(fq, (b, 3))
                entry_vals[row] = np.einsum("bi,bi->b", v, np.cross(dp, dq)) / denom

        terms = np.prod(entry_vals[self._picks], axis=1)
        values = (self._signs[:, None] * terms).sum(axis=0)
        return values, bad


def _cross(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The components of a x b for (B, 3) arrays, each formed as
    ``np.cross`` forms it (one product minus another), so bit for bit
    equal to its columns."""
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
