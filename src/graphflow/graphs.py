"""Decorated graphs, canonical forms, gradings and the coboundary operator.

Two flavors of decorated graph live here.  A *manifold* graph is an
oriented multigraph on numbered vertices.  A *knot* graph additionally
carries an implicit oriented loop through its external vertices
1..n_ext; only the internal (chordal) edges are stored.  Graphs are
identified up to relabeling and edge reversal with the sign
(-1)^(p+l), where p is the permutation parity and l the number of
reversed edges; ``canonicalize`` reduces to a unique representative or
detects that the class is zero.  ``delta`` is the signed sum of
single-edge contractions of regular edges and squares to zero.  Both
take whole batches of graphs as integer arrays, one shape at a time.
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

from . import _numpy as np
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
#: Most entries of a shape's (|G|, V + 1) relabeling images (``_group``) and (S, S) slot pairs
#: (``_slots``): the images of 9 vertices, the largest that ``enumerate_graphs`` builds.
_SHAPE_ENTRIES = factorial(MAX_VERTICES)


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

    # --- serialization ---

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
    identity.  ResourceLimit past _SHAPE_ENTRIES image entries.
    """
    # n_int! is not taken past MAX_VERTICES, where the images pass the bound anyway
    size = factorial(min(n_int, MAX_VERTICES)) * max(n_ext, 1) * (n_ext + n_int + 1)
    if size > _SHAPE_ENTRIES:
        raise ResourceLimit(f"V={n_ext + n_int} needs over {_SHAPE_ENTRIES} relabeling entries")
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


#: Words (512 KiB) of packed vectors built at once.  A block has at most _BLOCK // 16
#: (graph, relabeling) rows, so the dozen arrays of a word per row in its edge loop fit too.
_BLOCK = 2**16


def _chunks(graphs: list[DecoratedGraph]) -> Iterator[tuple[tuple, np.ndarray, np.ndarray]]:
    """The graphs of each (flavor, n_ext, n_int, E) shape among ``graphs``, as (shape, positions,
    (n, E, 2) edge array) chunks of at most _BLOCK // 16 (graph, slot, edge) entries (``_slots``),
    or one graph.  ResourceLimit for a shape whose S x S slot pairs pass _SHAPE_ENTRIES."""
    at: dict[tuple, list[int]] = {}
    for k, g in enumerate(graphs):
        at.setdefault((g.flavor, g.n_ext, g.n_int, g.n_edges), []).append(k)
    for shape, ks in at.items():
        slots = shape[3] + shape[1]  # stored edges, then knot arcs (a manifold has no externals)
        if slots * slots > _SHAPE_ENTRIES:
            raise ResourceLimit(f"{slots} edges and arcs pass {_SHAPE_ENTRIES} slot-pair entries")
        step = max(1, _BLOCK // 16 // max(1, slots * shape[3]))
        for chunk in (ks[s : s + step] for s in range(0, len(ks), step)):
            edges = np.fromiter((e for k in chunk for e in graphs[k].edges), (np.intp, 2))
            yield shape, np.array(chunk), edges.reshape(len(chunk), shape[3], 2)


def _classes(shape: tuple, edges: np.ndarray, seen: dict) -> tuple[np.ndarray, np.ndarray]:
    """Canonical forms of the graphs of one shape in an (N, E, 2) edge array: per graph, its
    class's index in ``seen`` (-1 for zero) and the sign relating it to that class.  ``seen``
    maps each class met so far, keyed by (shape, sorted pair codes), to its index, and gains
    the new ones.  Each graph takes the first relabeling with the largest packed vector
    (module docstring), and is zero when one tied with it has the other parity.  Blocks of
    whole graphs build their vectors _BLOCK // rows words at a time, each span narrowing ties."""
    flavor, n_ext, n_int, n_edges = shape
    images, parity = _group(n_ext, n_int)
    pairs, index, word, unit, n_words = _digits(n_ext + n_int, max(1, n_edges.bit_length()))
    size, step = len(images), max(1, _BLOCK // 16 // len(images))
    column, inside = np.zeros(len(word), dtype=np.intp), np.zeros(len(word), dtype=np.int64)
    which, signs = [], []
    for block in (edges[s : s + step] for s in range(0, len(edges), step)):
        m = len(block)
        tie, odd = np.ones((size, m), dtype=bool), np.repeat(parity[:, None], m, axis=1)
        span = max(1, _BLOCK // (size * m))
        for start in range(0, n_words, span):
            # a pair's column in the span's words and its unit; any pair outside lo:hi adds 0 to column 0
            width = min(span, n_words - start)
            lo, hi = np.searchsorted(word, (start, start + width))
            column[lo:hi], inside[lo:hi] = word[lo:hi] - start, unit[lo:hi]
            rows = np.arange(size * m).reshape(size, m) * width
            vectors = np.zeros(size * m * width, dtype=np.int64)
            for e in range(n_edges):
                ia, ib = images[:, block[:, e, 0]], images[:, block[:, e, 1]]
                c = index[ia, ib]
                if start == 0:
                    odd ^= ia > ib
                vectors[rows + column[c]] += inside[c]
            column[lo:hi] = inside[lo:hi] = 0
            vectors = vectors.reshape(size, m, width)
            for w in range(width):  # narrow to the lexicographically largest
                v = np.where(tie, vectors[..., w], -1)
                tie &= v == v.max(axis=0)
            if (tie.sum(axis=0) == 1).all():
                break
        best = tie.argmax(axis=0)
        odd_best = odd[best, np.arange(m)]
        zero = (tie & (odd != odd_best)).any(axis=0)
        # sorted pair codes: the canonical edge list
        relabeled = images[best[:, None, None], block]
        codes = np.sort(index[relabeled[..., 0], relabeled[..., 1]], axis=1)
        keys = ((shape, k.tobytes()) for k in codes)
        which += [-1 if z else seen.setdefault(key, len(seen)) for key, z in zip(keys, zero)]
        signs.append(np.where(odd_best, -1, 1))
    return np.array(which, dtype=np.intp), np.concatenate(signs)


def _graph(shape: tuple, codes: bytes) -> DecoratedGraph:
    """The canonical graph of a class that ``_classes`` keys by (shape, sorted pair codes)."""
    pairs = _digits(shape[1] + shape[2], max(1, shape[3].bit_length()))[0]
    edges = pairs[np.frombuffer(codes, np.intp)].tolist()
    return DecoratedGraph(*shape[:3], tuple(map(tuple, edges)))


def canonicalize_many(graphs: list[DecoratedGraph]) -> list[CanonicalResult]:
    """``canonicalize`` of each graph, shape by shape in batches."""
    seen: dict = {}
    found = [(at, *_classes(shape, edges, seen)) for shape, at, edges in _chunks(graphs)]
    classes, out = [_graph(*key) for key in seen], [CanonicalResult.zero()] * len(graphs)
    for at, which, sign in found:
        for k, w, x in zip(at.tolist(), which.tolist(), sign.tolist()):
            out[k] = CanonicalResult(classes[w], x) if w >= 0 else out[k]
    return out


def canonicalize(g: DecoratedGraph) -> CanonicalResult:
    """Reduce to the lexicographically minimal admissible relabeling:
    the first with the largest packed multiplicity vector (module docstring).

    Returns Zero when some admissible symmetry fixes the underlying
    encoding with sign -1, i.e. the graph equals its own negative.
    """
    return canonicalize_many([g])[0]


# --- contraction and coboundary ---


def _slots(shape: tuple, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each graph's stored edges, then its knot arcs (i, i % n_ext + 1), as an (N, S, 2) array;
    each such slot's connection count (parallel edges and arcs), and whether it may be
    contracted: it is regular, with a count of 1, and not a chord between two externals."""
    flavor, n_ext, n_int, n_edges = shape
    arcs = [(i, i % n_ext + 1) for i in range(1, n_ext + 1)] if flavor is Flavor.KNOT else []
    arcs = np.broadcast_to(np.array(arcs, dtype=np.intp).reshape(-1, 2), (len(edges), len(arcs), 2))
    ends = np.concatenate([edges, arcs], axis=1)
    lo, hi = ends.min(axis=2), ends.max(axis=2)
    pair = lo * (n_ext + n_int + 1) + hi
    count = (pair[:, :, None] == pair[:, None, :]).sum(axis=2)
    ok = count == 1
    ok[:, :n_edges] &= hi[:, :n_edges] > n_ext
    return ends, count, ok


def _contract(shape: tuple, ends: np.ndarray, src: np.ndarray, slot: np.ndarray) -> Iterator[tuple]:
    """Contract slot ``slot[k]`` (of ``ends``, from ``_slots``) of graph ``src[k]``, each k.
    Yields (shape, rows of src, contracted (M, E', 2) edges, signs) per resulting shape: i, j
    merge into min(i, j), labels above max(i, j) move down by one, and the sign is (-1)^j for
    i < j, (-1)^(i+1) for i > j.  Externals have the smaller labels: an internal vertex goes."""
    flavor, n_ext, n_int, n_edges = shape
    i, j = ends[src, slot].T
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    sign = np.where(np.where(j > i, j, i + 1) & 1, -1, 1)
    for arc in (False, True):
        rows = np.flatnonzero((slot >= n_edges) == arc)
        if len(rows) == 0:
            continue
        # every stored edge but the one contracted (column ``slot``), relabeled in place
        k = np.arange(n_edges if arc else n_edges - 1)
        merged = ends[src[rows, None], k + (k >= slot[rows, None])]
        top = hi[rows, None, None]
        at_top = merged == top
        merged -= merged > top
        np.copyto(merged, lo[rows, None, None], where=at_top)
        result = (flavor, n_ext - 1, n_int) if arc else (flavor, n_ext, n_int - 1)
        yield result + (merged.shape[1],), rows, merged, sign[rows]


def contract_edge(g: DecoratedGraph, e: Edge) -> tuple[DecoratedGraph, int]:
    """Contract a regular edge or knot arc; return (graph, sign).  ``e`` must match a stored
    directed edge, or in knot flavor an oriented arc (i, successor of i) of the knot loop."""
    ((shape, _, edges),) = _chunks([g])
    ends, count, ok = _slots(shape, edges)
    slots = list(map(tuple, ends[0].tolist()))
    if e not in slots:
        raise InvalidGraph(f"no edge or arc {e} in graph")
    k = slots.index(e)
    if count[0, k] != 1:
        raise NotRegular(f"endpoints of {e} share more than one connection")
    if not ok[0, k]:
        raise NotContractible("internal edge between two external vertices")
    ((result, _, merged, sign),) = _contract(shape, ends, np.array([0]), np.array([k]))
    return DecoratedGraph(*result[:3], tuple(map(tuple, merged[0].tolist()))), int(sign[0])


def delta_columns(graphs: list[DecoratedGraph]) -> tuple[list[DecoratedGraph], list[dict]]:
    """(classes, columns): the coboundary of graphs[k] is columns[k], {class index: coefficient},
    over the distinct canonical graphs reached, each built once.  A chunk (``_chunks``) of
    graphs of one shape is contracted, and its terms canonicalized, at a time."""
    seen: dict = {}
    columns: list[dict[int, int]] = [{} for _ in graphs]
    for shape, at, edges in _chunks(graphs):
        ends, _, ok = _slots(shape, edges)
        src, slot = np.nonzero(ok)
        for result, rows, merged, sigma in _contract(shape, ends, src, slot):
            which, sign = _classes(result, merged, seen)
            for k, w, x in zip(at[src[rows]].tolist(), which.tolist(), (sigma * sign).tolist()):
                if w >= 0:
                    columns[k][w] = columns[k].get(w, 0) + x
    return [_graph(*key) for key in seen], columns


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
    terms = g.items() if isinstance(g, GraphSum) else [(g, Fraction(1))]
    classes, columns = delta_columns([h for h, _ in terms])
    out = GraphSum()
    for (_, c), column in zip(terms, columns):
        for w, x in column.items():
            out._add(classes[w], c * x)
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


def _connected(n_ext: int, n_int: int, edges: tuple[Edge, ...]) -> bool:
    """Connected after removing any two of the knot arcs (i, i % n_ext + 1), or, with no arcs
    (manifold), as it stands.  The edges are merged once; each choice of kept arcs starts
    from a copy of that forest and merges them."""
    n = n_ext + n_int
    base = list(range(n + 1))
    components = n - sum(_merges(base, edges))
    arcs = [(i, i % n_ext + 1) for i in range(1, n_ext + 1)]
    kept_sets = itertools.combinations(arcs, max(0, len(arcs) - 2))
    return all(components - sum(_merges(base.copy(), kept)) == 1 for kept in kept_sets)


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


#: Entries (32 MB of int64) of the (candidates, |G|, W) packed words of
#: one batch of extensions.
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
                if connected and not _connected(n_ext, n_int, edges):
                    continue
                found.append(DecoratedGraph(flavor, n_ext, n_int, edges))

    extend([], np.zeros(words.shape[1:], dtype=np.int64), parity)
    return found


# --- reference graphs and cocycles ---


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
