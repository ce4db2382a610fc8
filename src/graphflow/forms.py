"""The flat-space propagator two-form and a top-degree wedge evaluator.

With a trivial framing on R^3 the propagator reduces to the Gauss
form: the unit-normalized area form of S^2 pulled back by the
direction map (x_j - x_i)/|x_j - x_i|.  A configuration point mixes
knot vertices (one degree of freedom along the curve) and free spatial
vertices (three each); the pullback is carried as an antisymmetric
coefficient matrix over those coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import KnotCurve
from .errors import CoincidentPoints, DimensionMismatch, UnsupportedGraph
from .graphs import DecoratedGraph, Flavor, has_internal_loop, is_trivalent

FOUR_PI = 4.0 * np.pi
MAX_WEDGE_DIM = 12


class TwoForm:
    """Antisymmetric coefficient matrix of a 2-form over d coordinates.

    Test oracle, with ``Configuration``, ``gauss_two_form`` and
    ``wedge_top``: the scalar reference for ``CompiledIntegrand``.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("two-form matrix must be square")
        if not np.array_equal(m, -m.T):
            raise DimensionMismatch("two-form matrix must be exactly antisymmetric")
        self.matrix = m

    @classmethod
    def from_upper(cls, d: int, entries: dict[tuple[int, int], float]) -> "TwoForm":
        m = np.zeros((d, d))
        for (p, q), val in entries.items():
            if not 0 <= p < q < d:
                raise DimensionMismatch(f"bad index pair ({p},{q})")
            m[p, q] = val
            m[q, p] = -val
        return cls(m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, a, b) -> float:
        """Evaluate on a pair of tangent vectors."""
        return float(np.asarray(a) @ self.matrix @ np.asarray(b))


@dataclass
class Configuration:
    """A configuration point: n knot parameters plus t spatial points.

    Vertices 1..n live on the curve; vertices n+1..n+t are free points
    of R^3.  Coordinates are ordered (t_1..t_n, x_{n+1}, y, z, ...).
    Test oracle: only ``gauss_two_form`` reads it.
    """

    curve: KnotCurve | None
    knot_params: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        self.knot_params = np.atleast_1d(np.asarray(self.knot_params, dtype=float))
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if self.knot_params.size and self.curve is None:
            raise ValueError("knot parameters require a curve")

    @property
    def n_knot(self) -> int:
        return self.knot_params.size

    @property
    def n_spatial(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.n_knot + 3 * self.n_spatial

    def position(self, v: int) -> np.ndarray:
        if v <= self.n_knot:
            return self.curve.eval(self.knot_params[v - 1])
        return self.points[v - self.n_knot - 1]

    def dof_slice(self, v: int) -> list[int]:
        if v <= self.n_knot:
            return [v - 1]
        base = self.n_knot + 3 * (v - self.n_knot - 1)
        return [base, base + 1, base + 2]


def gauss_two_form(conf: Configuration, i: int, j: int, eps_coll: float = 0.0) -> TwoForm:
    """Pullback of the unit S^2 area form by the direction map from
    vertex i to vertex j, on the configuration's coordinates.

    Test oracle: one configuration at a time, against which the batched
    entries of ``CompiledIntegrand.evaluate_batch`` are checked.
    """
    if i == j:
        raise ValueError("propagator needs distinct vertices")
    pi, pj = conf.position(i), conf.position(j)
    v = pj - pi
    r = float(np.linalg.norm(v))
    if r <= eps_coll or r == 0.0:
        raise CoincidentPoints(f"vertices {i} and {j} at distance {r}")

    # derivative of v with respect to each coordinate touching i or j
    partials: list[tuple[int, np.ndarray]] = []
    for vertex, sign in ((i, -1.0), (j, 1.0)):
        dofs = conf.dof_slice(vertex)
        if len(dofs) == 1:
            tangent = conf.curve.deriv(conf.knot_params[vertex - 1])
            partials.append((dofs[0], sign * tangent))
        else:
            for axis, c in enumerate(dofs):
                e = np.zeros(3)
                e[axis] = sign
                partials.append((c, e))

    entries: dict[tuple[int, int], float] = {}
    denom = FOUR_PI * r**3
    for a in range(len(partials)):
        ca, da = partials[a]
        for b in range(a + 1, len(partials)):
            cb, db = partials[b]
            if ca == cb:
                continue
            val = float(np.dot(v, np.cross(da, db))) / denom
            p, q = (ca, cb) if ca < cb else (cb, ca)
            entries[(p, q)] = entries.get((p, q), 0.0) + (val if ca < cb else -val)
    return TwoForm.from_upper(conf.dim, entries)


def wedge_top(forms: list[TwoForm], d: int) -> float:
    """Coefficient of dx_1 ^ ... ^ dx_d in the wedge of the given 2-forms.

    Brute-force sum over assignments of coordinate pairs to forms with
    permutation signs; requires 2*len(forms) == d <= 12.  Test oracle
    for the assignment list that ``CompiledIntegrand`` compiles.
    """
    if 2 * len(forms) != d:
        raise DimensionMismatch(f"{len(forms)} two-forms cannot fill dimension {d}")
    if d > MAX_WEDGE_DIM:
        raise DimensionMismatch(f"dimension {d} exceeds {MAX_WEDGE_DIM}")
    for f in forms:
        if f.dim != d:
            raise DimensionMismatch("all forms must live on the same coordinates")
    mats = [f.matrix for f in forms]
    return _wedge_rec(mats, list(range(d)), frozenset(range(len(mats))))


def _wedge_rec(mats, coords: list[int], unused: frozenset) -> float:
    if not coords:
        return 1.0
    p = coords[0]
    rest = coords[1:]
    total = 0.0
    for k, q in enumerate(rest):
        par = -1.0 if k & 1 else 1.0
        remaining = rest[:k] + rest[k + 1 :]
        for e in unused:
            a = mats[e][p, q]
            if a == 0.0:
                continue
            total += par * a * _wedge_rec(mats, remaining, unused - {e})
    return total


# --- compiled integrands for trivalent knot graphs ---


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
        self._needed = self.edge_entries_needed()
        # row of each needed entry in evaluate_batch's stacked entry values
        entries = [(e, p, q) for e in sorted(self._needed) for p, q in sorted(self._needed[e])]
        self._entries = {key: row for row, key in enumerate(entries)}
        self._signs = np.array([sign for sign, _ in self.assignments])
        self._picks = np.array(
            [[self._entries[pick] for pick in picks] for _, picks in self.assignments]
        )
        # per edge, each needed entry as (row, partial of the edge vector
        # along p, along q); see _partial
        self._partials = [
            [(self._entries[(e, p, q)], self._partial(i, j, p), self._partial(i, j, q))
             for p, q in sorted(self._needed[e])]
            for e, (i, j) in enumerate(self.edges)
        ]

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
            supports.append([(p, q) for ai, p in enumerate(dofs) for q in dofs[ai + 1 :]])
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
                    if (p, q) in self._support_set[e]:
                        rec(remaining, unused - {e}, sign * par, picked + [(e, p, q)])

        self._support_set = [set(s) for s in supports]
        rec(tuple(range(self.dim)), frozenset(range(len(self.edges))), 1.0, [])
        return out

    def edge_entries_needed(self) -> dict[int, set[tuple[int, int]]]:
        needed: dict[int, set[tuple[int, int]]] = {e: set() for e in range(len(self.edges))}
        for _, picks in self.assignments:
            for e, p, q in picks:
                needed[e].add((p, q))
        return needed

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

            for row, (kp, fp), (kq, fq) in self._partials[e]:
                dp = tan[:, kp] * fp if kp >= 0 else np.broadcast_to(fp, (b, 3))
                dq = tan[:, kq] * fq if kq >= 0 else np.broadcast_to(fq, (b, 3))
                entry_vals[row] = np.einsum("bi,bi->b", v, np.cross(dp, dq)) / denom

        terms = np.prod(entry_vals[self._picks], axis=1)
        values = (self._signs[:, None] * terms).sum(axis=0)
        return values, bad
