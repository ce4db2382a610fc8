"""Independent reference implementations that the tests compare production
code against, and the curve generators and diagram readings that only
tests use.  They import only data types, errors and constants from
``graphflow``, never the code they check (``test_oracles.py``)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from graphflow.curves import KnotCurve
from graphflow.diagrams import Crossing, GaussDiagram
from graphflow.errors import GraphflowError, InvalidParams
from graphflow.forms import FOUR_PI
from graphflow.graphs import DecoratedGraph, Flavor
from graphflow.integrals import COMPONENT_ORIENT, IntegralEstimate


#: Largest configuration dimension that ``wedge_top`` expands by brute force.
MAX_WEDGE_DIM = 12


class CoincidentPoints(GraphflowError):
    """Two configuration points closer than the collision guard."""


class DimensionMismatch(GraphflowError):
    """Wedge evaluation called with incompatible form count / dimension."""


class UnsupportedGraph(GraphflowError):
    """A graph outside the ones an oracle covers."""


# --- the Gauss two-form and the top-degree wedge ---


class TwoForm:
    """Antisymmetric coefficient matrix of a 2-form over d coordinates."""

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
    def dim(self) -> int:
        return self.n_knot + 3 * self.points.shape[0]

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
    vertex i to vertex j, on the configuration's coordinates."""
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
    permutation signs; requires 2*len(forms) == d <= MAX_WEDGE_DIM.
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


# --- Conway polynomial by skein recursion ---


def _diagram_components(d: GaussDiagram) -> list[list[tuple[int, bool]]]:
    """Single cyclic visit sequence: (crossing index, is_over) by parameter."""
    events = []
    for k, c in enumerate(d.crossings):
        events.append((c.over, k, True))
        events.append((c.under, k, False))
    events.sort()
    return [[(k, over) for _, k, over in events]]


def _first_bad(components, signs, over_state):
    """First crossing whose first visit is an under-visit, in traversal order."""
    visited = set()
    for comp in components:
        for k, is_over in comp:
            if k in visited:
                continue
            visited.add(k)
            effective_over = is_over if over_state[k] else not is_over
            if not effective_over:
                return k
    return None


def _smooth(components, k):
    """Oriented smoothing at crossing k: drop both visits and reconnect."""
    locs = []
    for ci, comp in enumerate(components):
        for pi, (kk, _) in enumerate(comp):
            if kk == k:
                locs.append((ci, pi))
    (c1, p1), (c2, p2) = locs
    out = [comp for ci, comp in enumerate(components) if ci not in (c1, c2)]
    if c1 == c2:
        comp = components[c1]
        lo, hi = sorted((p1, p2))
        out.append(comp[lo + 1 : hi])
        out.append(comp[hi + 1 :] + comp[:lo])
    else:
        a, b = components[c1], components[c2]
        out.append(a[p1 + 1 :] + a[:p1] + b[p2 + 1 :] + b[:p2])
    return [c for c in out if c is not None]


def _drop_kinks(components):
    """Remove crossings whose two visits are cyclically adjacent (R1)."""
    changed = True
    while changed:
        changed = False
        for ci, comp in enumerate(components):
            m = len(comp)
            for p in range(m):
                k1, _ = comp[p]
                k2, _ = comp[(p + 1) % m]
                if k1 == k2 and m >= 2:
                    lo, hi = sorted((p, (p + 1) % m))
                    if hi == lo + 1:
                        comp = comp[:lo] + comp[hi + 1 :]
                    else:  # positions m-1 and 0
                        comp = comp[1:-1]
                    components = components[:ci] + [comp] + components[ci + 1 :]
                    changed = True
                    break
            if changed:
                break
    return components


def _state_key(components, signs, over_state):
    """Canonical key of the effective diagram state: crossings renamed
    by first-visit order, over/under and signs folded through flips."""
    rank: dict[int, int] = {}
    for comp in components:
        for k, _ in comp:
            if k not in rank:
                rank[k] = len(rank)
    parts = []
    for comp in components:
        visits = []
        for k, is_over in comp:
            eff_over = is_over if over_state[k] else not is_over
            eff_sign = signs[k] if over_state[k] else -signs[k]
            visits.append((rank[k], eff_over, eff_sign))
        parts.append(tuple(visits))
    return tuple(parts)


def _conway(components, signs, over_state, memo) -> dict[int, int]:
    """Conway polynomial (z-degree -> coeff) of the diagram state."""
    components = _drop_kinks(components)
    key = _state_key(components, signs, over_state)
    hit = memo.get(key)
    if hit is not None:
        return hit
    k = _first_bad(components, signs, over_state)
    if k is None:
        # descending diagram: unknot if one component, split unlink else
        out = {0: 1} if len(components) == 1 else {}
        memo[key] = out
        return out
    flipped = dict(over_state)
    flipped[k] = not over_state[k]
    switched = _conway(components, signs, flipped, memo)
    smoothed = _conway(_smooth(components, k), signs, over_state, memo)
    sign = signs[k] * (1 if over_state[k] else -1)
    # positive crossing: P(+) = P(-) + z P(0); negative: P(-) = P(+) - z P(0)
    out = dict(switched)
    for deg, coeff in smoothed.items():
        out[deg + 1] = out.get(deg + 1, 0) + sign * coeff
    out = {deg: c for deg, c in out.items() if c}
    memo[key] = out
    return out


def conway_polynomial(d: GaussDiagram) -> list[int]:
    """Coefficients of the Conway polynomial in z, ascending degree."""
    if not d.crossings:
        return [1]
    components = _diagram_components(d)
    signs = {k: c.sign for k, c in enumerate(d.crossings)}
    over_state = {k: True for k in range(len(d.crossings))}
    poly = _conway(components, signs, over_state, {})
    if not poly:
        return [0]
    top = max(poly)
    return [poly.get(i, 0) for i in range(top + 1)]


def a2_from_conway(d: GaussDiagram) -> int:
    """a2 as the z^2 coefficient of ``conway_polynomial``."""
    poly = conway_polynomial(d)
    return poly[2] if len(poly) > 2 else 0


# --- chord-only configuration integrals by product quadrature ---


def a_gamma_quadrature(
    graph: DecoratedGraph, curve: KnotCurve, grid: int = 64
) -> IntegralEstimate:
    """Configuration integral of a graph with no internal vertices, by
    midpoint quadrature over ordered tuples of an equispaced grid with one
    Richardson refinement in the grid size.  Each chord (i, j) gives one
    entry of its Gauss form, on dt_i ^ dt_j; ``wedge_top`` of the unit
    forms gives the sign of the chord matching."""
    if graph.n_int != 0:
        raise UnsupportedGraph("quadrature oracle only covers chord-only graphs")
    n = graph.n_ext
    units = [
        TwoForm.from_upper(n, {(min(i, j) - 1, max(i, j) - 1): np.sign(j - i)})
        for i, j in graph.edges
    ]
    matching = wedge_top(units, n)

    def integrand(t: np.ndarray) -> np.ndarray:
        pos, tan = curve.eval(t), curve.deriv(t)
        values = np.full(len(t), matching)
        for i, j in graph.edges:
            v = pos[:, j - 1] - pos[:, i - 1]
            det = np.einsum("bi,bi->b", v, np.cross(-tan[:, i - 1], tan[:, j - 1]))
            values *= det / (FOUR_PI * np.linalg.norm(v, axis=1) ** 3)
        return values

    def level(g: int) -> float:
        t = (np.arange(g) + 0.5) / g
        total = 0.0
        combos = itertools.combinations(range(g), n)
        while block := list(itertools.islice(combos, 200_000)):
            total += float(integrand(t[np.array(block)]).sum())
        return total / g**n

    scale = COMPONENT_ORIENT * n
    coarse = scale * level(grid)
    fine = scale * level(2 * grid)
    value = 2.0 * fine - coarse
    return IntegralEstimate(value, abs(value - fine), (2 * grid) ** n, 0, "quadrature")


# --- the two-point Gauss integrand ---


def gauss_coeff(v: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """det(v, a, b) / (4 pi |v|^3), broadcasting over leading axes, by
    ``np.cross`` and two ``einsum`` contractions over (..., 3) arrays.
    The production grid is filled from coordinate planes instead, and
    must match this form bit for bit."""
    num = np.einsum("...i,...i->...", v, np.cross(a, b))
    r2 = np.einsum("...i,...i->...", v, v)
    return num / (FOUR_PI * r2**1.5)


def polygon_writhe(p: np.ndarray) -> float:
    """Writhe of the closed polygon through the points p, exactly up to
    rounding: the signed solid angles that ordered pairs of non-adjacent
    segments subtend, over 4 pi (Klenin and Langowski, "Computation of
    writhe in modeling of supercoiled DNA", Biopolymers 2000).  Equal and
    adjacent segments are coplanar and add nothing."""
    n = len(p)
    q = np.roll(p, -1, axis=0)
    total = 0.0
    for i in range(n):
        j = (i + np.arange(2, n - 1)) % n
        r13, r14, r23, r24 = p[j] - p[i], q[j] - p[i], p[j] - q[i], q[j] - q[i]
        faces = [np.cross(r13, r14), np.cross(r14, r24), np.cross(r24, r23), np.cross(r23, r13)]
        faces = [f / np.linalg.norm(f, axis=1, keepdims=True) for f in faces]
        cosines = [np.sum(faces[k] * faces[(k + 1) % 4], axis=1) for k in range(4)]
        omega = sum(np.arcsin(np.clip(c, -1.0, 1.0)) for c in cosines)
        sign = np.sign(np.sum(np.cross(q[j] - p[j], q[i] - p[i]) * r13, axis=1))
        total += float(np.sum(omega * sign))
    return total / FOUR_PI


# --- reference graphs, their text form and the per-edge contraction rule ---


def theta_graph(flavor: Flavor = Flavor.MANIFOLD) -> DecoratedGraph:
    """The theta graph: triple edge on two vertices, or in knot flavor
    two external vertices joined by one chord."""
    if flavor is Flavor.MANIFOLD:
        return DecoratedGraph(flavor, 0, 2, ((1, 2), (1, 2), (1, 2)))
    return DecoratedGraph(flavor, 2, 0, ((1, 2),))


def is_trivalent(g: DecoratedGraph) -> bool:
    """Manifold: every vertex trivalent.  Knot: internal vertices have
    internal-edge degree 3 and external ones degree 1."""
    deg = [0] * (g.n_vertices + 1)
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    if g.flavor is Flavor.MANIFOLD:
        return all(d == 3 for d in deg[1:])
    ext_ok = all(deg[v] == 1 for v in range(1, g.n_ext + 1))
    int_ok = all(deg[v] == 3 for v in range(g.n_ext + 1, g.n_vertices + 1))
    return ext_ok and int_ok


def to_text(g: DecoratedGraph) -> str:
    """The text form that ``DecoratedGraph.from_text`` reads."""
    lines = [f"flavor {g.flavor.value}", f"ext {g.n_ext}", f"int {g.n_int}"]
    lines += [f"edge {i} {j}" for i, j in g.edges]
    return "\n".join(lines) + "\n"


def knot_arcs(g: DecoratedGraph) -> tuple[tuple[int, int], ...]:
    """Implicit oriented arcs of the knot loop, in label order."""
    if g.flavor is not Flavor.KNOT:
        return ()
    n = g.n_ext
    return tuple((i, i % n + 1) for i in range(1, n + 1))


def connected_after_two_arc_cuts(g: DecoratedGraph) -> bool:
    """Whether every vertex stays reachable from vertex 1, by depth-first
    search over the edges and the arcs left, once any two knot arcs are
    cut; a manifold graph, which has no arcs, as it stands."""
    arcs = knot_arcs(g)
    for cut in itertools.combinations(range(len(arcs)), 2) if arcs else [()]:
        links = list(g.edges) + [arc for k, arc in enumerate(arcs) if k not in cut]
        reached, stack = {1}, [1]
        while stack:
            v = stack.pop()
            for w in [b for a, b in links if a == v] + [a for a, b in links if b == v]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != g.n_vertices:
            return False
    return True


def connection_count(g: DecoratedGraph, a: int, b: int) -> int:
    """Number of connections between a and b, counting knot arcs."""
    count = sum(1 for i, j in g.edges if {i, j} == {a, b})
    if a != b:
        count += sum(1 for i, j in knot_arcs(g) if {i, j} == {a, b})
    return count


class UncontractibleEdge(GraphflowError):
    """No such edge or arc, or one that the contraction rule refuses."""


def contract(g: DecoratedGraph, e: tuple[int, int]) -> tuple[DecoratedGraph, int]:
    """Contract one regular edge or knot arc of g, edge by edge in Python:
    (graph, sign).  The endpoints merge into the smaller label, the labels
    above the larger move down by one, and the sign is that of the
    oriented edge i -> j: (-1)^j for j > i, (-1)^(i+1) otherwise."""
    i, j = e
    is_arc = e not in g.edges
    if is_arc and e not in knot_arcs(g):
        raise UncontractibleEdge(f"no edge or arc {e} in graph")
    if connection_count(g, i, j) != 1:
        raise UncontractibleEdge(f"endpoints of {e} share more than one connection")
    if g.flavor is Flavor.KNOT and not is_arc and max(i, j) <= g.n_ext:
        raise UncontractibleEdge("internal edge between two external vertices")
    lo, hi = min(i, j), max(i, j)
    skip = -1 if is_arc else g.edges.index(e)

    def relabel(v: int) -> int:
        if v == lo or v == hi:
            return lo
        return v - 1 if v > hi else v

    edges = tuple((relabel(a), relabel(b)) for k, (a, b) in enumerate(g.edges) if k != skip)
    if g.flavor is Flavor.MANIFOLD:
        n_ext, n_int = 0, g.n_int - 1
    elif is_arc:
        n_ext, n_int = g.n_ext - 1, g.n_int
    else:
        # externals carry the smaller labels, so min{i,j} stays external
        # whenever one endpoint is; an internal vertex always disappears
        n_ext, n_int = g.n_ext, g.n_int - 1
    if j > i:
        sign = -1 if j & 1 else 1
    else:
        sign = -1 if (i + 1) & 1 else 1
    return DecoratedGraph(g.flavor, n_ext, n_int, edges), sign


# --- dense exact matrix products ---


def matvec(m: list[list[Fraction]], v: list[Fraction]) -> list[Fraction]:
    """Product of dense rows of rationals and a vector."""
    if any(len(row) != len(v) for row in m):
        raise ValueError("length mismatch")
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m]


def matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Product of two matrices given as dense rows of rationals."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("shape mismatch")
    out = [[Fraction(0)] * (len(b[0]) if b else 0) for _ in a]
    # the coboundary matrices are almost all zeros: visit nonzeros only
    nonzero = [[(c, y) for c, y in enumerate(row) if y] for row in b]
    for r, row in enumerate(a):
        for k, x in enumerate(row):
            if not x:
                continue
            for c, y in nonzero[k]:
                out[r][c] += x * y
    return out


def is_zero(entries: list[list[Fraction]]) -> bool:
    return all(not x for row in entries for x in row)


# --- point-set geometry of the knot path ---


def candidate_pairs(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Non-adjacent segment pairs of the projected closed polyline whose
    midpoints share or neighbour a grid cell, by a dict of cell buckets:
    i ascending, then the offsets (da, db) in lex order, then j ascending."""
    nxt = np.concatenate([np.arange(1, n), [0]])
    mu, mv = (u + u[nxt]) / 2, (v + v[nxt]) / 2
    seg_len = np.hypot(u[nxt] - u, v[nxt] - v)
    cell = max(float(seg_len.max()), 1e-12)
    cu = np.floor(mu / cell).astype(np.int64)
    cv = np.floor(mv / cell).astype(np.int64)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        buckets.setdefault((cu[i], cv[i]), []).append(i)
    pairs = []
    for i in range(n):
        ci, cj = cu[i], cv[i]
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                for j in buckets.get((ci + da, cj + db), ()):
                    if j <= i + 1 or (i == 0 and j == n - 1):
                        continue
                    pairs.append((i, j))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def nonadjacent_min_distance(p: np.ndarray, window: int = 2) -> float:
    """Least distance between points of the closed sequence p at cyclic
    separation above ``window``, one shift at a time."""
    least = np.inf
    for k in range(window + 1, len(p) // 2 + 1):
        least = min(least, float(np.linalg.norm(p - np.roll(p, -k, axis=0), axis=1).min()))
    return least


def cross_min_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Least |p[i] - q[j]|, from norms of 256-row blocks."""
    least = np.inf
    for i0 in range(0, len(p), 256):
        d = np.linalg.norm(p[i0 : i0 + 256, None, :] - q[None, :, :], axis=-1)
        least = min(least, float(d.min()))
    return least


def point_set_diameter(p: np.ndarray) -> float:
    """Largest |p[i] - p[j]|, from the full matrix of squared distances."""
    d2 = np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.max()))


# --- curve generators ---


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


# --- readings of a Gauss diagram ---


def writhe(d: GaussDiagram) -> int:
    return sum(c.sign for c in d.crossings)


def mirror(d: GaussDiagram) -> GaussDiagram:
    """Swap all over/under roles and flip signs."""
    return GaussDiagram(tuple(Crossing(c.under, c.over, -c.sign) for c in d.crossings))
