"""Decorated graphs, canonical forms, gradings and the coboundary operator.

Two flavors of decorated graph live here.  A *manifold* graph is an
oriented multigraph on numbered vertices.  A *knot* graph additionally
carries an implicit oriented loop through its external vertices
1..n_ext; only the internal (chordal) edges are stored.  Graphs are
identified up to relabeling and edge reversal with the sign
(-1)^(p+l), where p is the permutation parity and l the number of
reversed edges; ``canonicalize`` reduces to a unique representative or
detects that the class is zero.  ``delta`` is the signed sum of
single-edge contractions of regular edges and squares to zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    GradeMismatch,
    InvalidGraph,
    NotContractible,
    NotRegular,
    ResourceLimit,
)

Edge = tuple[int, int]

MAX_VERTICES = 10
MAX_EDGES = 15


class Flavor(str, Enum):
    MANIFOLD = "manifold"
    KNOT = "knot"


@dataclass(frozen=True, order=True)
class DecoratedGraph:
    """Labeled oriented multigraph, in manifold or knot flavor.

    ``edges`` holds directed pairs of 1-based vertex labels.  In knot
    flavor these are the internal edges only; the knot loop through
    external vertices 1..n_ext (in label order) is implicit.
    """

    flavor: Flavor
    n_ext: int
    n_int: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(i), int(j)) for i, j in self.edges))
        if self.flavor is Flavor.MANIFOLD:
            if self.n_ext != 0:
                raise InvalidGraph("manifold graphs have no external vertices")
        else:
            if self.n_ext < 2:
                raise InvalidGraph("knot graphs need at least two external vertices")
        if self.n_int < 0:
            raise InvalidGraph("negative internal vertex count")
        nv = self.n_vertices
        for i, j in self.edges:
            if i == j:
                raise InvalidGraph(f"edge ({i},{j}) connects a vertex to itself")
            if not (1 <= i <= nv and 1 <= j <= nv):
                raise InvalidGraph(f"edge ({i},{j}) outside vertex range 1..{nv}")

    @property
    def n_vertices(self) -> int:
        return self.n_ext + self.n_int

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def is_external(self, v: int) -> bool:
        return self.flavor is Flavor.KNOT and v <= self.n_ext

    def knot_arcs(self) -> tuple[Edge, ...]:
        """Implicit oriented arcs of the knot loop, in label order."""
        if self.flavor is not Flavor.KNOT:
            return ()
        n = self.n_ext
        return tuple((i, i % n + 1) for i in range(1, n + 1))

    def connection_count(self, a: int, b: int) -> int:
        """Number of connections between a and b, counting knot arcs."""
        count = sum(1 for i, j in self.edges if {i, j} == {a, b})
        if self.flavor is Flavor.KNOT and a != b:
            count += sum(1 for i, j in self.knot_arcs() if {i, j} == {a, b})
        return count

    def degrees(self) -> list[int]:
        """Edge-degree of each vertex (1-based index 0 unused)."""
        deg = [0] * (self.n_vertices + 1)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    # --- serialization ---

    def to_text(self) -> str:
        lines = [f"flavor {self.flavor.value}", f"ext {self.n_ext}", f"int {self.n_int}"]
        lines += [f"edge {i} {j}" for i, j in self.edges]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DecoratedGraph":
        flavor = None
        n_ext = n_int = 0
        edges: list[Edge] = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "flavor":
                    flavor = Flavor(parts[1])
                elif parts[0] == "ext":
                    n_ext = int(parts[1])
                elif parts[0] == "int":
                    n_int = int(parts[1])
                elif parts[0] == "edge":
                    edges.append((int(parts[1]), int(parts[2])))
                else:
                    raise ValueError(f"unknown directive {parts[0]!r}")
            except (IndexError, ValueError) as exc:
                raise InvalidGraph(f"line {ln}: {exc}") from exc
        if flavor is None:
            raise InvalidGraph("missing 'flavor' line")
        return cls(flavor, n_ext, n_int, tuple(edges))

    def to_json_obj(self) -> dict:
        return {
            "flavor": self.flavor.value,
            "ext": self.n_ext,
            "int": self.n_int,
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "DecoratedGraph":
        try:
            return cls(
                Flavor(obj["flavor"]),
                int(obj["ext"]),
                int(obj["int"]),
                tuple((int(i), int(j)) for i, j in obj["edges"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidGraph(f"bad graph object: {exc}") from exc


def grade(g: DecoratedGraph) -> tuple[int, int]:
    """(order, degree) of a decorated graph.

    Manifold: (E-V, 2E-3V).  Knot: (E-Vi, 2E-3Vi-Ve) with E counting
    internal edges only.
    """
    e = g.n_edges
    if g.flavor is Flavor.MANIFOLD:
        v = g.n_vertices
        return e - v, 2 * e - 3 * v
    return e - g.n_int, 2 * e - 3 * g.n_int - g.n_ext


def is_trivalent(g: DecoratedGraph) -> bool:
    """Manifold: every vertex trivalent.  Knot: internal vertices have
    internal-edge degree 3 and external ones degree 1."""
    deg = g.degrees()
    if g.flavor is Flavor.MANIFOLD:
        return all(d == 3 for d in deg[1:])
    ext_ok = all(deg[v] == 1 for v in range(1, g.n_ext + 1))
    int_ok = all(deg[v] == 3 for v in range(g.n_ext + 1, g.n_vertices + 1))
    return ext_ok and int_ok


# --- canonical forms ---


@dataclass(frozen=True)
class CanonicalResult:
    """Outcome of canonicalization: Zero, or a canonical graph with the
    sign relating the input to it."""

    graph: DecoratedGraph | None
    sign: int

    @property
    def is_zero(self) -> bool:
        return self.graph is None

    @classmethod
    def zero(cls) -> "CanonicalResult":
        return cls(None, 0)


def _perm_parity(perm: tuple[int, ...]) -> int:
    """Parity (0/1) of a permutation given as a tuple of images of 0..n-1."""
    seen = [False] * len(perm)
    parity = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


@lru_cache(maxsize=None)
def _group(flavor: Flavor, n_ext: int, n_int: int) -> tuple[np.ndarray, np.ndarray]:
    """Admissible relabelings as a (|G|, V+1) image array and parities.

    Manifold: all permutations of 1..V.  Knot: cyclic rotations of the
    external labels composed with all internal permutations.  Row k maps
    label v to ``images[k, v]``; column 0 is unused.
    """
    if flavor is Flavor.MANIFOLD:
        rotations = [((), 0)]
    else:
        # rotation by k steps of n_ext labels has parity (n_ext-1)*k
        rotations = [
            (tuple((i + k) % n_ext + 1 for i in range(n_ext)), ((n_ext - 1) * k) & 1)
            for k in range(n_ext)
        ]
    images, parity = [], []
    for rot, rot_par in rotations:
        for p in itertools.permutations(range(n_int)):
            images.append((0,) + rot + tuple(x + n_ext + 1 for x in p))
            parity.append(rot_par ^ _perm_parity(p))
    images_arr, parity_arr = np.array(images, dtype=np.intp), np.array(parity)
    images_arr.flags.writeable = parity_arr.flags.writeable = False
    return images_arr, parity_arr


def _orbit(
    flavor: Flavor, n_ext: int, n_int: int, enc: Iterable[Edge]
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Every admissible relabeling of the oriented edges ``enc`` at once.

    Row k of ``codes`` is the k-th relabeling with each edge oriented
    ascending, encoded as lo*(V+1)+hi, and sorted; ``signs[k]`` is
    (-1)^(parity + reversed edges).  ``best`` indexes the lexicographically
    minimal row, or is None when the class is zero: equal rows carry
    opposite signs, so the graph equals its own negative.
    """
    images, parity = _group(flavor, n_ext, n_int)
    e = np.asarray(enc, dtype=np.intp).reshape(-1, 2)
    a, b = images[:, e[:, 0]], images[:, e[:, 1]]
    flips = np.count_nonzero(a > b, axis=1)
    codes = np.sort(np.minimum(a, b) * (n_ext + n_int + 1) + np.maximum(a, b), axis=1)
    signs = 1 - 2 * ((parity + flips) & 1)
    # without edges every row is empty, and the sign alone decides
    best = int(np.lexsort(codes.T[::-1])[0]) if len(e) else 0
    ties = signs[(codes == codes[best]).all(axis=1)]
    if (ties != signs[best]).any():
        return codes, signs, None
    return codes, signs, best


def canonicalize(g: DecoratedGraph) -> CanonicalResult:
    """Reduce to the lexicographically minimal admissible relabeling.

    Returns Zero when some admissible symmetry fixes the underlying
    encoding with sign -1, i.e. the graph equals its own negative.
    """
    codes, signs, best = _orbit(g.flavor, g.n_ext, g.n_int, g.edges)
    if best is None:
        return CanonicalResult.zero()
    nv1 = g.n_vertices + 1
    edges = tuple(divmod(c, nv1) for c in codes[best].tolist())
    return CanonicalResult(DecoratedGraph(g.flavor, g.n_ext, g.n_int, edges), int(signs[best]))


# --- contraction and coboundary ---


def _sigma(i: int, j: int) -> int:
    """Contraction sign for the oriented edge from i to j."""
    if j > i:
        return -1 if j & 1 else 1
    return -1 if (i + 1) & 1 else 1


def _relabel_after_merge(v: int, lo: int, hi: int) -> int:
    if v == lo or v == hi:
        return lo
    return v - 1 if v > hi else v


def contract_edge(g: DecoratedGraph, e: Edge) -> tuple[DecoratedGraph, int]:
    """Contract a regular edge or knot arc; return (graph, sign).

    ``e`` must match a stored directed edge, or in knot flavor an
    oriented arc (i, successor of i) of the knot loop.
    """
    i, j = e
    is_arc = False
    if e in g.edges:
        edge_index = g.edges.index(e)
    elif g.flavor is Flavor.KNOT and e in g.knot_arcs():
        is_arc = True
        edge_index = -1
    else:
        raise InvalidGraph(f"no edge or arc {e} in graph")

    if g.connection_count(i, j) != 1:
        raise NotRegular(f"endpoints of {e} share more than one connection")
    if g.flavor is Flavor.KNOT and not is_arc:
        if g.is_external(i) and g.is_external(j):
            raise NotContractible("internal edge between two external vertices")

    lo, hi = min(i, j), max(i, j)
    new_edges = []
    for k, (a, b) in enumerate(g.edges):
        if k == edge_index:
            continue
        new_edges.append((_relabel_after_merge(a, lo, hi), _relabel_after_merge(b, lo, hi)))

    if g.flavor is Flavor.MANIFOLD:
        merged = DecoratedGraph(g.flavor, 0, g.n_int - 1, tuple(new_edges))
    elif is_arc:
        merged = DecoratedGraph(g.flavor, g.n_ext - 1, g.n_int, tuple(new_edges))
    else:
        # externals carry the smaller labels, so min{i,j} stays external
        # whenever one endpoint is; an internal vertex always disappears
        merged = DecoratedGraph(g.flavor, g.n_ext, g.n_int - 1, tuple(new_edges))
    return merged, _sigma(i, j)


def _contractible_edges(g: DecoratedGraph) -> Iterator[Edge]:
    seen_pairs = set()
    for i, j in g.edges:
        pair = frozenset((i, j))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        if g.connection_count(i, j) != 1:
            continue
        if g.flavor is Flavor.KNOT and g.is_external(i) and g.is_external(j):
            continue
        yield (i, j)
    if g.flavor is Flavor.KNOT:
        for i, j in g.knot_arcs():
            if g.connection_count(i, j) == 1:
                yield (i, j)


class GraphSum:
    """Formal rational linear combination of canonical decorated graphs."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[DecoratedGraph, Fraction] | None = None):
        self._terms: dict[DecoratedGraph, Fraction] = {}
        if terms:
            for g, c in terms.items():
                c = Fraction(c)
                if c:
                    self._terms[g] = c

    @classmethod
    def of(cls, pairs: Iterable[tuple[Fraction | int, DecoratedGraph]]) -> "GraphSum":
        """Build from (coefficient, graph) pairs, canonicalizing each graph."""
        out = cls()
        for c, g in pairs:
            res = canonicalize(g)
            if not res.is_zero:
                out._add(res.graph, Fraction(c) * res.sign)
        return out

    def _add(self, g: DecoratedGraph, c: Fraction):
        new = self._terms.get(g, Fraction(0)) + c
        if new:
            self._terms[g] = new
        else:
            self._terms.pop(g, None)

    def items(self) -> list[tuple[DecoratedGraph, Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: _sort_key(kv[0]))

    def coefficient(self, g: DecoratedGraph) -> Fraction:
        return self._terms.get(g, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "GraphSum") -> "GraphSum":
        out = GraphSum(self._terms)
        for g, c in other._terms.items():
            out._add(g, c)
        return out

    def __rmul__(self, c) -> "GraphSum":
        c = Fraction(c)
        return GraphSum({g: c * v for g, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, GraphSum) and self._terms == other._terms

    def __repr__(self) -> str:
        if self.is_zero:
            return "GraphSum(0)"
        bits = [f"{c}*{g.edges}" for g, c in self.items()]
        return "GraphSum(" + " + ".join(bits) + ")"

    def to_json_obj(self) -> list:
        return [
            {"coeff": f"{c.numerator}/{c.denominator}", "graph": g.to_json_obj()}
            for g, c in self.items()
        ]

    @classmethod
    def from_json_obj(cls, obj) -> "GraphSum":
        out = cls()
        for entry in obj:
            c = Fraction(entry["coeff"])
            out._add(DecoratedGraph.from_json_obj(entry["graph"]), c)
        return out


def _sort_key(g: DecoratedGraph):
    return (g.flavor.value, g.n_ext, g.n_int, g.edges)


def delta(g: DecoratedGraph | GraphSum) -> GraphSum:
    """Coboundary: signed sum of single contractions of regular edges
    (and, in knot flavor, regular knot arcs), extended linearly."""
    if isinstance(g, GraphSum):
        out = GraphSum()
        for graph, c in g.items():
            for term, coeff in delta(graph)._terms.items():
                out._add(term, c * coeff)
        return out
    out = GraphSum()
    for e in _contractible_edges(g):
        contracted, sign = contract_edge(g, e)
        res = canonicalize(contracted)
        if not res.is_zero:
            out._add(res.graph, Fraction(sign * res.sign))
    return out


def graph_grade(s: GraphSum) -> tuple[int, int]:
    """Common (order, degree) of a sum's terms; GradeMismatch otherwise."""
    grades = {grade(g) for g, _ in s.items()}
    if len(grades) != 1:
        raise GradeMismatch(f"terms have grades {sorted(grades)}")
    return grades.pop()


# --- enumeration ---


def _grading_combos(flavor: Flavor, order: int, degree: int) -> list[tuple[int, int, int]]:
    """(n_ext, n_int, n_edges) combos realizing the grade."""
    combos = []
    if flavor is Flavor.MANIFOLD:
        v = 2 * order - degree
        e = 3 * order - degree
        if v >= 2 and e >= 0:
            combos.append((0, v, e))
    else:
        # E = order + Vi, Ve = 2*order - Vi - degree
        vi = 0
        while True:
            ve = 2 * order - vi - degree
            e = order + vi
            if ve < 2:
                break
            if e >= 0:
                combos.append((ve, vi, e))
            vi += 1
    return combos


def _merges(n_vertices: int, undirected: Iterable[Edge]) -> Iterator[bool]:
    """Union-find over vertices 1..n_vertices: for each edge in turn,
    whether it joined two components (False means it closed a cycle)."""
    parent = list(range(n_vertices + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in undirected:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
        yield ra != rb


def _is_connected(n_vertices: int, undirected: Iterable[Edge]) -> bool:
    return n_vertices - sum(_merges(n_vertices, undirected)) == 1


def has_internal_loop(g: DecoratedGraph) -> bool:
    """Cycle made entirely of edges between internal vertices."""
    internal = [(i, j) for i, j in g.edges if not (g.is_external(i) or g.is_external(j))]
    return not all(_merges(g.n_vertices, internal))


def _knot_connected(n_ext: int, n_int: int, edges: tuple[Edge, ...]) -> bool:
    """Connected after removing any pair of knot arcs."""
    n = n_ext + n_int
    arcs = [(i, i % n_ext + 1) for i in range(1, n_ext + 1)]
    for drop in itertools.combinations(range(len(arcs)), 2):
        kept = [a for k, a in enumerate(arcs) if k not in drop]
        if not _is_connected(n, list(edges) + kept):
            return False
    return True


def enumerate_graphs(
    flavor: Flavor,
    order: int,
    degree: int,
    connected: bool = True,
    max_vertices: int = MAX_VERTICES,
    max_edges: int = MAX_EDGES,
) -> list[DecoratedGraph]:
    """All canonical nonzero decorated graphs of the given grade.

    Deterministically ordered by encoding.  Raises ResourceLimit when
    the grade requires more vertices/edges than the configured bounds.
    """
    return list(
        _enumerate_cached(flavor, order, degree, connected, max_vertices, max_edges)
    )


@lru_cache(maxsize=64)
def _enumerate_cached(
    flavor: Flavor,
    order: int,
    degree: int,
    connected: bool,
    max_vertices: int,
    max_edges: int,
) -> tuple[DecoratedGraph, ...]:
    result: list[DecoratedGraph] = []
    for n_ext, n_int, n_edges in _grading_combos(flavor, order, degree):
        nv = n_ext + n_int
        if nv > max_vertices or n_edges > max_edges:
            raise ResourceLimit(
                f"grade (ord={order}, deg={degree}) needs V={nv}, E={n_edges} "
                f"(bounds {max_vertices}, {max_edges})"
            )
        if n_edges == 0:
            # no edges: only valid if a single vertex class makes sense; skip
            continue
        result.extend(_enumerate_combo(flavor, n_ext, n_int, n_edges, connected))
    result.sort(key=_sort_key)
    return tuple(result)


#: Candidate edge multisets generated and filtered per numpy chunk.
_CHUNK = 1 << 15


@lru_cache(maxsize=None)
def _lex_rank_table(n_pairs: int, n_edges: int) -> np.ndarray:
    """Cumulative counts for the lex rank of non-decreasing rows.

    ``table[k, v]`` sums, over values w < v, the number of non-decreasing
    tails of length n_edges-1-k with entries >= w.  The rows that share a
    row's first k entries and are smaller at column k number
    table[k, row[k]] - table[k, row[k-1]], with row[-1] = 0; the lex rank
    is the sum of these over k.  Ranks stay below C(n_pairs+n_edges-1,
    n_edges), which is under 2**63 within MAX_VERTICES and MAX_EDGES.
    """
    table = np.zeros((n_edges, n_pairs + 1), dtype=np.int64)
    for k in range(n_edges):
        tail = n_edges - 1 - k
        counts = [comb(n_pairs - u + tail - 1, tail) for u in range(n_pairs)]
        table[k, 1:] = np.cumsum(counts)
    table.flags.writeable = False
    return table


def _enumerate_combo(
    flavor: Flavor, n_ext: int, n_int: int, n_edges: int, connected: bool
) -> list[DecoratedGraph]:
    """Orbit minima among the edge multisets, walked in lex order.

    Candidates come from ``combinations_with_replacement`` in chunks, so
    row i of the walk has lex rank i.  A row not covered by an earlier
    orbit is its orbit's minimum; its orbit is computed once and every
    member's rank is marked covered.
    """
    nv = n_ext + n_int
    pairs = [(i, j) for i in range(1, nv) for j in range(i + 1, nv + 1)]
    # the rank table indexed by edge code lo*(V+1)+hi; code 0 reads as 0
    pair_of_code = np.zeros((nv + 1) ** 2, dtype=np.intp)
    for k, (i, j) in enumerate(pairs):
        pair_of_code[i * (nv + 1) + j] = k
    rank_of = _lex_rank_table(len(pairs), n_edges)[:, pair_of_code]
    column = np.arange(n_edges)
    touches = np.array([(1 << i) | (1 << j) for i, j in pairs])
    every_vertex = (1 << (nv + 1)) - 2

    candidates = itertools.combinations_with_replacement(range(len(pairs)), n_edges)
    found: list[DecoratedGraph] = []
    ahead = np.empty(0, dtype=np.int64)  # covered ranks past the current chunk
    start = 0
    while True:
        chunk = itertools.chain.from_iterable(itertools.islice(candidates, _CHUNK))
        rows = np.fromiter(chunk, dtype=np.intp).reshape(-1, n_edges)
        if not len(rows):
            break
        end = start + len(rows)
        todo = np.ones(len(rows), dtype=bool)
        if connected:
            todo &= np.bitwise_or.reduce(touches[rows], axis=1) == every_vertex
        here = ahead < end
        todo[ahead[here] - start] = False
        later = [ahead[~here]]
        for r in np.flatnonzero(todo).tolist():
            if not todo[r]:
                continue
            combo = tuple(pairs[k] for k in rows[r].tolist())
            codes, _, best = _orbit(flavor, n_ext, n_int, combo)
            prev = np.concatenate((np.zeros((len(codes), 1), np.intp), codes[:, :-1]), axis=1)
            ranks = np.unique((rank_of[column, codes] - rank_of[column, prev]).sum(axis=1))
            inside = ranks < end
            todo[ranks[inside] - start] = False
            later.append(ranks[~inside])
            if best is None:
                continue
            if connected:
                # connectivity is orbit-invariant: checked once per orbit
                if flavor is Flavor.MANIFOLD:
                    if not _is_connected(nv, combo):
                        continue
                elif not _knot_connected(n_ext, n_int, combo):
                    continue
            found.append(DecoratedGraph(flavor, n_ext, n_int, combo))
        ahead = np.concatenate(later)
        start = end
    return found


# --- reference graphs and cocycles ---


def theta_graph(flavor: Flavor = Flavor.MANIFOLD) -> DecoratedGraph:
    """The theta graph: triple edge on two vertices, or in knot flavor
    two external vertices joined by one chord."""
    if flavor is Flavor.MANIFOLD:
        return DecoratedGraph(flavor, 0, 2, ((1, 2), (1, 2), (1, 2)))
    return DecoratedGraph(flavor, 2, 0, ((1, 2),))


def manifold_order2_graphs() -> tuple[DecoratedGraph, DecoratedGraph]:
    """The two order-2, degree-0 manifold generators: the complete graph
    on four vertices and the two-circles-with-bars graph."""
    g1 = DecoratedGraph(
        Flavor.MANIFOLD, 0, 4, ((1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4))
    )
    g2 = DecoratedGraph(
        Flavor.MANIFOLD, 0, 4, ((1, 4), (4, 1), (1, 2), (2, 3), (2, 3), (3, 4))
    )
    return g1, g2


def knot_order2_graphs() -> tuple[DecoratedGraph, DecoratedGraph, DecoratedGraph]:
    """The three order-2, degree-0 knot generators: crossed chords,
    tripod, and the chain with a doubled internal edge."""
    g1 = DecoratedGraph(Flavor.KNOT, 4, 0, ((1, 3), (2, 4)))
    g2 = DecoratedGraph(Flavor.KNOT, 3, 1, ((1, 4), (2, 4), (3, 4)))
    g3 = DecoratedGraph(Flavor.KNOT, 2, 2, ((1, 3), (3, 4), (3, 4), (4, 2)))
    return g1, g2, g3


def manifold_order2_cocycle() -> GraphSum:
    """-1/12 * K4 + 1/4 * (two-circles graph): killed by delta."""
    g1, g2 = manifold_order2_graphs()
    return GraphSum.of([(Fraction(-1, 12), g1), (Fraction(1, 4), g2)])


def knot_order2_cocycle() -> GraphSum:
    """1/4 G1 - 1/3 G2 + 1/2 G3: the order-2 knot cocycle."""
    g1, g2, g3 = knot_order2_graphs()
    return GraphSum.of(
        [(Fraction(1, 4), g1), (Fraction(-1, 3), g2), (Fraction(1, 2), g3)]
    )
