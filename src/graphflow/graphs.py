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
``enumerate_graphs`` lists each class once by orderly generation: an
edge list grows only while it is its orbit's minimum, as every prefix
of an orbit minimum is.

Relabelings are compared as packed pair-multiplicity vectors: each
vertex pair's count is a digit of a stack of int64 words, the first
pair in lex order most significant.  Of two equal-size edge multisets,
the one with the larger vector has the lexicographically smaller sorted
edge list: at the first pair whose counts differ, it has that pair next
where the other has a larger one.  So an orbit's minimum is the
relabeling with the largest vector, and nothing is sorted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    GradeMismatch,
    InvalidGraph,
    InvalidParams,
    NotContractible,
    NotRegular,
    ResourceLimit,
)

Edge = tuple[int, int]

#: Largest graphs ``enumerate_graphs`` builds.
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


@lru_cache(maxsize=None)
def _group(n_ext: int, n_int: int) -> tuple[np.ndarray, np.ndarray]:
    """Admissible relabelings as a (|G|, V+1) image array and parities.

    Manifold: all permutations of 1..V.  Knot: cyclic rotations of the
    external labels composed with all internal permutations.  Row k maps
    label v to ``images[k, v]``; column 0 is unused, and row 0 is the
    identity.  ResourceLimit past MAX_VERTICES! relabelings.
    """
    size = factorial(n_int) * max(n_ext, 1)
    if size > factorial(MAX_VERTICES):
        raise ResourceLimit(f"{size} relabelings exceed the bound {MAX_VERTICES}!")
    rotations = [tuple((i + k) % n_ext + 1 for i in range(n_ext)) for k in range(n_ext)] or [()]
    perms = list(itertools.permutations(range(n_ext + 1, n_ext + n_int + 1)))
    images = np.array([(0,) + rot + p for rot in rotations for p in perms], dtype=np.intp)
    # rotating k steps has parity (n_ext-1)*k; a permutation, that of its inversions
    i, j = np.triu_indices(n_int, 1)
    flips = np.count_nonzero(images[:, n_ext + 1 + i] > images[:, n_ext + 1 + j], axis=1)
    odd = ((n_ext - 1) * (np.arange(len(images)) // len(perms)) + flips) & 1 == 1
    images.flags.writeable = odd.flags.writeable = False
    return images, odd


@lru_cache(maxsize=64)
def _digits(nv: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Packed layout of pair-multiplicity vectors on nv vertices:
    (pairs, index, word, unit, W).  ``pairs`` lists the pairs i < j in lex
    order, ``index[i, j] = index[j, i]`` is a pair's position there, and
    one copy of pair p adds ``unit[p]`` to word ``word[p]`` of W.  A count
    is a ``width``-bit digit, 63 // width to a word, the first pair most
    significant, so vectors are exact below 2**width copies of a pair.
    """
    pairs = np.stack(np.triu_indices(nv, 1), axis=1) + 1
    index = np.zeros((nv + 1, nv + 1), dtype=np.intp)
    index[pairs[:, 0], pairs[:, 1]] = index[pairs[:, 1], pairs[:, 0]] = np.arange(len(pairs))
    per = 63 // width
    word, digit = np.divmod(np.arange(len(pairs)), per)
    unit = np.left_shift(1, width * (per - 1 - digit), dtype=np.int64)
    for arr in (pairs, index, word, unit):
        arr.flags.writeable = False
    return pairs, index, word, unit, -(-len(pairs) // per)


#: Words (512 KiB) of the tied relabelings' vectors that ``canonicalize`` builds at once.
_BLOCK = 2**16


def canonicalize(g: DecoratedGraph) -> CanonicalResult:
    """Reduce to the lexicographically minimal admissible relabeling:
    the first with the largest packed multiplicity vector (module docstring).

    Returns Zero when some admissible symmetry fixes the underlying
    encoding with sign -1, i.e. the graph equals its own negative.
    """
    images, odd = _group(g.n_ext, g.n_int)
    _, index, word, unit, n_words = _digits(g.n_vertices, max(1, g.n_edges.bit_length()))
    ends = images[:, np.asarray(g.edges, dtype=np.intp).reshape(-1, 2)]
    odd = odd ^ np.logical_xor.reduce(ends[..., 0] > ends[..., 1], axis=1)
    codes = index[ends[..., 0], ends[..., 1]]
    ties = np.arange(len(codes))
    span = max(1, _BLOCK // len(codes))
    for start in range(0, n_words, span):  # narrow to the lexicographically largest
        c, width = codes[ties], min(span, n_words - start) + 2
        # this block's words, and a spare column at each end for the words before and after it
        at = np.minimum(np.maximum(word[c] - start + 1, 0), width - 1)
        at += width * np.arange(len(c))[:, None]
        block = np.zeros((len(c), width), dtype=np.int64)
        np.add.at(block.ravel(), at.ravel(), unit[c].ravel())
        keep, block = np.arange(len(c)), block[:, 1:-1]
        for column in np.flatnonzero((block[1:] != block[0]).any(axis=0)).tolist():
            keep = keep[block[keep, column] == block[keep, column].max()]
            if len(keep) == 1:
                break
        ties = ties[keep]
        if len(ties) == 1:
            break
    best = ties[0]
    if (odd[ties] != odd[best]).any():
        return CanonicalResult.zero()
    edges = tuple(sorted(map(tuple, np.sort(ends[best], axis=1).tolist())))
    canonical = DecoratedGraph(g.flavor, g.n_ext, g.n_int, edges)
    return CanonicalResult(canonical, -1 if odd[best] else 1)


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


def _sort_key(g: DecoratedGraph):
    return (g.flavor.value, g.n_ext, g.n_int, g.edges)


def delta(g: DecoratedGraph | GraphSum) -> GraphSum:
    """Coboundary: signed sum of single contractions of regular edges
    (and, in knot flavor, regular knot arcs), extended linearly.  The
    edges and arcs that ``contract_edge`` refuses are skipped."""
    if isinstance(g, GraphSum):
        out = GraphSum()
        for graph, c in g.items():
            for term, coeff in delta(graph)._terms.items():
                out._add(term, c * coeff)
        return out
    out = GraphSum()
    for e in dict.fromkeys(g.edges + g.knot_arcs()):
        try:
            contracted, sign = contract_edge(g, e)
        except (NotRegular, NotContractible):
            continue
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
    """(n_ext, n_int, n_edges) combos realizing the grade; ResourceLimit
    at the first past MAX_VERTICES or MAX_EDGES, before the next is built."""
    v = 2 * order - degree
    if flavor is Flavor.MANIFOLD:
        shapes = [(0, v, v + order)] if v >= 2 and v + order >= 0 else []
    else:
        # Vi internal vertices among V, E = order + Vi, Ve = V - Vi >= 2
        shapes = ((v - vi, vi, order + vi) for vi in range(max(0, -order), v - 1))
    combos = []
    for n_ext, n_int, n_edges in shapes:
        if n_ext + n_int > MAX_VERTICES or n_edges > MAX_EDGES:
            raise ResourceLimit(
                f"grade (ord={order}, deg={degree}) needs V={n_ext + n_int}, E={n_edges} "
                f"(bounds {MAX_VERTICES}, {MAX_EDGES})"
            )
        combos.append((n_ext, n_int, n_edges))
    return combos


def _merges(parent: list[int], undirected: Iterable[Edge]) -> Iterator[bool]:
    """Union-find over the forest ``parent`` (updated in place): for
    each edge in turn, whether it joined two components (False means it
    closed a cycle)."""

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
    return n_vertices - sum(_merges(list(range(n_vertices + 1)), undirected)) == 1


def _knot_connected(n_ext: int, n_int: int, edges: tuple[Edge, ...]) -> bool:
    """Connected after removing any pair of knot arcs.

    The edges are merged once; each pair of dropped arcs starts from a
    copy of that forest and merges the arcs kept."""
    n = n_ext + n_int
    base = list(range(n + 1))
    components = n - sum(_merges(base, edges))
    arcs = [(i, i % n_ext + 1) for i in range(1, n_ext + 1)]
    for drop in itertools.combinations(range(len(arcs)), 2):
        kept = [a for k, a in enumerate(arcs) if k not in drop]
        if components - sum(_merges(base.copy(), kept)) != 1:
            return False
    return True


def enumerate_graphs(
    flavor: Flavor, order: int, degree: int, connected: bool = True
) -> list[DecoratedGraph]:
    """All canonical nonzero decorated graphs of the given grade.

    Orderly generation (Read 1978; McKay 1998): edges are appended in
    lex order while the edge list is the minimum of its orbit, that is
    while no relabeling's packed multiplicity vector is above its own
    (module docstring).  A prefix P of an orbit minimum S is one too:
    under any relabeling the |P| smallest edges of S are entrywise at
    most the sorted edges of P.  So each minimum is reached once, with
    no record of covered labelings.  Each prefix carries its vectors
    under every relabeling, so an appended edge adds one precomputed row.
    Zero and connectivity are tested on full edge lists only, since a
    prefix that fails them can grow into a graph that passes.

    Deterministically ordered by encoding.  Raises InvalidParams for
    ``order < 1`` and ResourceLimit when the grade needs more than
    MAX_VERTICES vertices, MAX_EDGES edges or _TABLE table words.
    """
    if order < 1:
        raise InvalidParams(f"order must be at least 1, got {order}")
    return list(_enumerate_cached(flavor, order, degree, connected))


@lru_cache(maxsize=64)
def _enumerate_cached(
    flavor: Flavor, order: int, degree: int, connected: bool
) -> tuple[DecoratedGraph, ...]:
    result: list[DecoratedGraph] = []
    for n_ext, n_int, n_edges in _grading_combos(flavor, order, degree):
        result.extend(_enumerate_combo(flavor, n_ext, n_int, n_edges, connected))
    result.sort(key=_sort_key)
    return tuple(result)


#: Entries of the (candidates, |G|, W) packed words of one batch of
#: extensions, the ~4e6 of ``integrals._gauss_blocks``.
_BATCH = 4_000_000

#: Words (512 MiB) of the largest relabeling table: 9 vertices fit, 10 only as knots.
_TABLE = 2**26


def _enumerate_combo(
    flavor: Flavor, n_ext: int, n_int: int, n_edges: int, connected: bool
) -> list[DecoratedGraph]:
    """Orbit minima among the edge multisets, by orderly generation.

    Depth first, an edge list is extended by each edge not below its last
    one, in batches, and an extension is kept when no relabeling's packed
    vector is above the identity's: each prefix carries its (|G|, W)
    vectors and reversal parities, and an edge adds its table row.  With
    ``connected`` it is dropped once some vertex can get no edge: a vertex
    below its last edge's lower endpoint has none yet, or the edges left
    cannot touch every untouched vertex.
    """
    nv = n_ext + n_int
    pairs, index, word, unit, n_words = _digits(nv, n_edges.bit_length())
    if factorial(n_int) * max(n_ext, 1) * len(pairs) * n_words > _TABLE:
        raise ResourceLimit(f"the relabeling table of V={nv} exceeds {_TABLE} words")
    images, parity = _group(n_ext, n_int)
    # pair p's digit and whether it is reversed, under each relabeling
    words = np.zeros((len(pairs), len(images), n_words), dtype=np.int64)
    rev = np.empty(words.shape[:2], dtype=bool)
    for p, (i, j) in enumerate(pairs):
        q = index[images[:, i], images[:, j]]
        words[p, np.arange(len(q)), word[q]], rev[p] = unit[q], images[:, i] > images[:, j]
    found: list[DecoratedGraph] = []

    def extend(prefix: list[int], vectors: np.ndarray, odd: np.ndarray):
        k = len(prefix) + 1
        cand = np.arange(prefix[-1] if prefix else 0, len(pairs))
        if connected:
            free = np.ones(nv + 1, dtype=bool)
            free[0] = False
            free[pairs[prefix]] = False
            lo, hi = pairs[cand].T
            left = free.sum() - free[lo] - free[hi]
            cand = cand[(np.cumsum(free)[lo - 1] == 0) & (left <= 2 * (n_edges - k))]
        step = max(1, _BATCH // words[0].size)
        for s in range(0, len(cand), step):
            batch = cand[s : s + step]
            ext = vectors + words[batch]
            # relabelings above the identity (row 0) at their first differing word
            above, same = np.zeros(ext.shape[:2], dtype=bool), np.ones(ext.shape[:2], dtype=bool)
            for w in range(ext.shape[2]):
                above |= same & (ext[..., w] > ext[:, :1, w])
                same &= ext[..., w] == ext[:, :1, w]
            minimal = ~above.any(axis=1)
            if k < n_edges:
                # only the kept rows stay alive while the children run
                kept, ext = batch[minimal].tolist(), ext[minimal]
                for p, row in zip(kept, ext):
                    extend(prefix + [p], row, odd ^ rev[p])
                continue
            # a relabeling equal to the identity with sign -1 makes the class zero
            zero = (same & (odd ^ rev[batch])).any(axis=1)
            for r in np.flatnonzero(minimal & ~zero).tolist():
                edges = tuple(map(tuple, pairs[prefix + [int(batch[r])]].tolist()))
                # connectivity is orbit-invariant: checked once per orbit
                if connected and not (
                    _is_connected(nv, edges) if flavor is Flavor.MANIFOLD
                    else _knot_connected(n_ext, n_int, edges)
                ):
                    continue
                found.append(DecoratedGraph(flavor, n_ext, n_int, edges))

    extend([], np.zeros(words.shape[1:], dtype=np.int64), parity)
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
