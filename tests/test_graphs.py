import hashlib
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphflow.errors import (
    InvalidGraph,
    InvalidParams,
    NotContractible,
    NotRegular,
    ResourceLimit,
)
from graphflow import graphs as graphs_module
from graphflow.graphs import (
    CanonicalResult,
    DecoratedGraph,
    Flavor,
    GraphSum,
    _grading_combos,
    _connected,
    canonicalize,
    canonicalize_many,
    contract_edge,
    delta,
    enumerate_graphs,
    grade,
    knot_order2_cocycle,
    knot_order2_graphs,
    manifold_order2_cocycle,
    manifold_order2_graphs,
)
from oracles import (
    connected_after_two_arc_cuts,
    connection_count,
    contract,
    is_trivalent,
    knot_arcs,
    theta_graph,
    to_text,
)

M, K = Flavor.MANIFOLD, Flavor.KNOT


def mg(n, edges):
    return DecoratedGraph(M, 0, n, tuple(edges))


def kg(n_ext, n_int, edges):
    return DecoratedGraph(K, n_ext, n_int, tuple(edges))


# --- structural invariants ---


def test_rejects_self_loop():
    with pytest.raises(InvalidGraph):
        mg(2, [(1, 1)])


def test_rejects_out_of_range_label():
    with pytest.raises(InvalidGraph):
        mg(2, [(1, 3)])


def test_knot_needs_two_external():
    with pytest.raises(InvalidGraph):
        kg(1, 1, [(1, 2)])


def test_text_round_trip():
    g = kg(4, 0, [(1, 3), (2, 4)])
    assert DecoratedGraph.from_text(to_text(g)) == g


# --- grading ---


def test_theta_grade():
    assert grade(theta_graph(M)) == (1, 0)


def test_manifold_degree_one_graph():
    gprime = mg(3, [(1, 2), (1, 2), (1, 3), (1, 3), (2, 3)])
    assert grade(gprime) == (2, 1)


def test_knot_chord_graph_grade():
    assert grade(kg(4, 0, [(1, 3), (2, 4)])) == (2, 0)


def test_knot_theta_grade():
    assert grade(theta_graph(K)) == (1, 0)


# --- trivalence ---


def test_theta_trivalent():
    assert is_trivalent(theta_graph(M))


def test_knot_tripod_trivalent():
    assert is_trivalent(kg(3, 1, [(1, 4), (2, 4), (3, 4)]))


def test_single_edge_not_trivalent():
    assert not is_trivalent(mg(2, [(1, 2)]))


# --- canonicalization ---


def test_double_edge_is_zero():
    assert canonicalize(mg(2, [(1, 2), (1, 2)])).is_zero


def test_theta_survives_with_plus_one():
    res = canonicalize(theta_graph(M))
    assert not res.is_zero
    assert res.sign == 1
    assert res.graph == theta_graph(M)


def test_reversed_chord_canonicalizes_with_minus_one():
    res = canonicalize(kg(4, 0, [(3, 1), (2, 4)]))
    assert res.graph == kg(4, 0, [(1, 3), (2, 4)])
    assert res.sign == -1


def test_canonicalize_idempotent_on_examples():
    for g in (*manifold_order2_graphs(), *knot_order2_graphs()):
        res = canonicalize(g)
        again = canonicalize(res.graph)
        assert again.graph == res.graph
        assert again.sign == 1


# --- contraction ---


def test_contract_k4_edge():
    k4, _ = manifold_order2_graphs()
    contracted, sign = contract_edge(k4, (1, 2))
    assert sign == 1
    assert grade(contracted) == (2, 1)
    # double edges {1,2} and {1,3}, single {2,3}
    pairs = sorted(tuple(sorted(e)) for e in contracted.edges)
    assert pairs == [(1, 2), (1, 2), (1, 3), (1, 3), (2, 3)]


def test_contract_tripod_internal_edge():
    g2 = kg(3, 1, [(1, 4), (2, 4), (3, 4)])
    contracted, sign = contract_edge(g2, (1, 4))
    assert sign == 1
    assert contracted.n_ext == 3 and contracted.n_int == 0
    assert sorted(tuple(sorted(e)) for e in contracted.edges) == [(1, 2), (1, 3)]


def test_contract_knot_arc():
    g1 = kg(4, 0, [(1, 3), (2, 4)])
    contracted, sign = contract_edge(g1, (1, 2))
    assert sign == 1
    assert contracted.n_ext == 3
    assert sorted(tuple(sorted(e)) for e in contracted.edges) == [(1, 2), (1, 3)]


def test_contract_wraparound_arc_sign():
    g1 = kg(4, 0, [(1, 3), (2, 4)])
    contracted, sign = contract_edge(g1, (4, 1))
    # sigma(4,1) = (-1)^(4+1) = -1
    assert sign == -1
    assert contracted.n_ext == 3


def test_contract_double_edge_not_regular():
    g = mg(3, [(1, 2), (1, 2), (2, 3)])
    with pytest.raises(NotRegular):
        contract_edge(g, (1, 2))


def test_contract_chord_between_externals_forbidden():
    g1 = kg(4, 0, [(1, 3), (2, 4)])
    with pytest.raises(NotContractible):
        contract_edge(g1, (1, 3))


def test_arc_with_two_externals_not_regular():
    g = theta_graph(K)
    with pytest.raises(NotRegular):
        contract_edge(g, (1, 2))


# --- coboundary: the worked examples ---


def test_delta_theta_vanishes():
    assert delta(theta_graph(M)).is_zero
    assert delta(theta_graph(K)).is_zero


def test_delta_manifold_order2():
    g1, g2 = manifold_order2_graphs()
    d1, d2 = delta(g1), delta(g2)
    assert len(d1.items()) == 1 and len(d2.items()) == 1
    ((t1, c1),) = d1.items()
    ((t2, c2),) = d2.items()
    assert t1 == t2
    assert abs(c1) == 6 and abs(c2) == 2
    assert c1 * 2 == c2 * 6  # consistent relative sign


def test_manifold_cocycle_exact():
    assert delta(manifold_order2_cocycle()).is_zero


def test_delta_knot_order2():
    g1, g2, g3 = knot_order2_graphs()
    d1, d2, d3 = delta(g1), delta(g2), delta(g3)
    (pair1,) = d1.items()
    assert abs(pair1[1]) == 4
    assert len(d2.items()) == 2
    assert sorted(abs(c) for _, c in d2.items()) == [3, 3]
    (pair3,) = d3.items()
    assert abs(pair3[1]) == 2
    # d2 hits both the d1 target and the d3 target
    targets2 = {g for g, _ in d2.items()}
    assert pair1[0] in targets2 and pair3[0] in targets2


def test_knot_cocycle_exact():
    assert delta(knot_order2_cocycle()).is_zero


def test_single_generator_not_cocycle():
    g1, _ = manifold_order2_graphs()
    assert not delta(GraphSum.of([(1, g1)])).is_zero


def _oracle_contractible_edges(g):
    """The regular edges and knot arcs that may be contracted, by an
    explicit test of each rule rather than through ``contract_edge``."""
    seen_pairs = set()
    for i, j in g.edges:
        pair = frozenset((i, j))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        if connection_count(g, i, j) != 1:
            continue
        if g.flavor is K and max(i, j) <= g.n_ext:
            continue
        yield (i, j)
    if g.flavor is K:
        for i, j in knot_arcs(g):
            if connection_count(g, i, j) == 1:
                yield (i, j)


def _oracle_delta(g):
    """delta one contraction at a time, each by the per-edge oracle rule."""
    out = GraphSum()
    for e in _oracle_contractible_edges(g):
        contracted, sign = contract(g, e)
        res = canonicalize(contracted)
        if not res.is_zero:
            out._add(res.graph, Fraction(sign * res.sign))
    return out


@pytest.mark.parametrize(
    "flavor, order, degree",
    [(f, o, 0) for f in (M, K) for o in (1, 2, 3)] + [(f, o, 1) for f in (M, K) for o in (1, 2)],
)
def test_delta_matches_explicit_contraction_rule(flavor, order, degree):
    for g in enumerate_graphs(flavor, order, degree):
        assert delta(g).items() == _oracle_delta(g).items()


# --- enumeration ---


def test_enumerate_manifold_order1():
    graphs = enumerate_graphs(M, 1, 0)
    assert graphs == [theta_graph(M)]


def test_enumerate_contains_paper_graphs():
    man = enumerate_graphs(M, 2, 0)
    for g in manifold_order2_graphs():
        assert canonicalize(g).graph in man
    knots = enumerate_graphs(K, 2, 0)
    for g in knot_order2_graphs():
        assert canonicalize(g).graph in knots


def test_enumerate_deterministic_and_canonical():
    graphs = enumerate_graphs(K, 2, 0)
    assert graphs == enumerate_graphs(K, 2, 0)
    for g in graphs:
        res = canonicalize(g)
        assert res.graph == g and res.sign == 1


def test_enumerate_resource_limit():
    with pytest.raises(ResourceLimit):
        enumerate_graphs(M, 6, 0)


def test_relabeling_table_past_its_cap_raises(monkeypatch):
    # manifold order 3, degree 0: 6! relabelings x 15 pairs x 1 word
    monkeypatch.setattr(graphs_module, "_TABLE", 720 * 15 - 1)
    with pytest.raises(ResourceLimit):
        graphs_module._enumerate_combo(M, 0, 6, 9, True)
    monkeypatch.setattr(graphs_module, "_TABLE", 720 * 15)
    assert len(graphs_module._enumerate_combo(M, 0, 6, 9, True)) == 670


def test_shape_bound_refuses_past_the_largest_enumerated_relabelings():
    """_SHAPE_ENTRIES is the (9!, 10) relabeling image array of 9 vertices,
    the largest that enumerate_graphs builds: one vertex or external more
    is refused before anything is built, whatever n_int, and so are more
    than 1,904 edges and knot arcs."""
    assert graphs_module._SHAPE_ENTRIES == math.factorial(9) * 10
    for n_ext, n_int in [(0, 10), (2, 9), (1905, 0), (0, 10**11), (2, 10**11)]:
        with pytest.raises(ResourceLimit):
            graphs_module._group(n_ext, n_int)
    assert len(list(graphs_module._chunks([mg(2, [(1, 2)] * 1904)]))) == 1
    for g in (mg(2, [(1, 2)] * 1905), kg(1904, 0, [(1, 2)]), kg(10**5, 0, [(1, 2)])):
        with pytest.raises(ResourceLimit):
            list(graphs_module._chunks([g]))


@pytest.mark.parametrize("n_ext, n_int", [(0, 2), (0, 4), (2, 0), (3, 0), (2, 2), (3, 1), (5, 0), (4, 3), (7, 2)])
def test_group_matches_its_tuple_form(n_ext, n_int):
    """The relabeling images built by broadcasting equal the rotations and
    permutations spelled out as tuples, row for row, and each parity is
    that of the inversions of its whole relabeling."""
    rotations = [tuple((i + k) % n_ext + 1 for i in range(n_ext)) for k in range(n_ext)] or [()]
    perms = list(itertools.permutations(range(n_ext + 1, n_ext + n_int + 1)))
    rows = [rot + p for rot in rotations for p in perms]
    images, odd = graphs_module._group(n_ext, n_int)
    assert images.tolist() == [[0, *row] for row in rows]
    assert odd.tolist() == [sum(a > b for a, b in itertools.combinations(row, 2)) % 2 == 1 for row in rows]


def test_grade_past_the_bounds_raises_before_any_combo_is_enumerated():
    # V = 10 fits, but E = 8 + Vi passes MAX_EDGES = 15 at Vi = 8, after
    # eight combos that would each take a full orderly generation
    with pytest.raises(ResourceLimit, match="V=10, E=16"):
        _grading_combos(K, 8, 6)


def test_knot_connectedness_rule():
    # parallel chords (1,2),(3,4) fall apart after removing two arcs
    graphs = enumerate_graphs(K, 2, 0)
    bad = kg(4, 0, [(1, 2), (3, 4)])
    res = canonicalize(bad)
    assert res.is_zero or res.graph not in graphs


@pytest.mark.parametrize("flavor", [M, K])
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_connected_matches_search_oracle(flavor, data):
    """One rule for both flavors: a manifold graph is connected as it
    stands, a knot graph once any two knot arcs are cut."""
    g = data.draw(st.composite(_flavored_graph)(flavor))
    assert _connected(g.n_ext, g.n_int, g.edges) == connected_after_two_arc_cuts(g)


# --- GraphSum ---


def test_graph_sum_cancellation():
    g = theta_graph(M)
    s = GraphSum.of([(Fraction(1, 2), g), (Fraction(-1, 2), g)])
    assert s.is_zero


def test_graph_sum_json_round_trip():
    """The JSON terms, read back from text, are the sum's items in order:
    each graph's own JSON and its coefficient as an exact fraction."""
    s = knot_order2_cocycle()
    terms = json.loads(json.dumps(s.to_json_obj()))
    assert [(t["graph"], Fraction(t["coeff"])) for t in terms] == [(g.to_json_obj(), c) for g, c in s.items()]


# --- properties ---


def _random_graph(draw):
    flavor = draw(st.sampled_from([M, K]))
    if flavor is M:
        n_ext, n_int = 0, draw(st.integers(2, 4))
    else:
        n_ext = draw(st.integers(2, 4))
        n_int = draw(st.integers(0, 2))
    nv = n_ext + n_int
    pairs = [(i, j) for i in range(1, nv) for j in range(i + 1, nv + 1)]
    n_edges = draw(st.integers(1, 6))
    edges = []
    for _ in range(n_edges):
        i, j = draw(st.sampled_from(pairs))
        if draw(st.booleans()):
            i, j = j, i
        edges.append((i, j))
    return DecoratedGraph(flavor, n_ext, n_int, tuple(edges))


graphs_strategy = st.composite(_random_graph)()


@settings(max_examples=60, deadline=None)
@given(graphs_strategy)
def test_delta_squared_zero_property(g):
    assert delta(delta(g)).is_zero


@settings(max_examples=60, deadline=None)
@given(graphs_strategy)
def test_delta_raises_degree_property(g):
    o, d = grade(g)
    for term, _ in delta(g).items():
        assert grade(term) == (o, d + 1)


@settings(max_examples=60, deadline=None)
@given(graphs_strategy)
def test_canonicalize_idempotent_property(g):
    res = canonicalize(g)
    if res.is_zero:
        return
    again = canonicalize(res.graph)
    assert again.graph == res.graph and again.sign == 1


def _parity(perm_one_based):
    seen = [False] * len(perm_one_based)
    parity = 0
    for i in range(len(perm_one_based)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm_one_based[j] - 1
            length += 1
        if length:
            parity ^= (length - 1) & 1
    return parity


@settings(max_examples=60, deadline=None)
@given(graphs_strategy, st.randoms(use_true_random=False))
def test_symmetry_sign_covariance(g, rnd):
    """canonicalize(s.g) matches canonicalize(g) up to the sign of s."""
    nv = g.n_vertices
    if g.flavor is M:
        perm = list(range(1, nv + 1))
        rnd.shuffle(perm)
    else:
        k = rnd.randrange(g.n_ext)
        rot = [(i + k) % g.n_ext + 1 for i in range(g.n_ext)]
        internal = list(range(g.n_ext + 1, nv + 1))
        rnd.shuffle(internal)
        perm = rot + internal
    flips = [rnd.random() < 0.5 for _ in g.edges]
    new_edges = []
    for (i, j), fl in zip(g.edges, flips):
        i, j = perm[i - 1], perm[j - 1]
        new_edges.append((j, i) if fl else (i, j))
    h = DecoratedGraph(g.flavor, g.n_ext, g.n_int, tuple(new_edges))
    sym_sign = -1 if (_parity(perm) ^ (sum(flips) & 1)) else 1
    rg, rh = canonicalize(g), canonicalize(h)
    assert rg.is_zero == rh.is_zero
    if not rg.is_zero:
        assert rg.graph == rh.graph
        assert rg.sign == sym_sign * rh.sign


@settings(max_examples=40, deadline=None)
@given(graphs_strategy)
def test_delta_well_defined_on_classes(g):
    """delta of a relabeled graph is the sign times delta of the original."""
    res = canonicalize(g)
    if res.is_zero:
        assert delta(g).is_zero
        return
    rhs = [(h, res.sign * c) for h, c in delta(res.graph).items()]
    assert delta(g).items() == rhs


def test_knot_two_externals_never_contracts_arcs():
    # exhaustive over small two-external graphs: no arc contraction occurs
    for edges in itertools.combinations_with_replacement([(1, 2), (1, 3), (2, 3)], 2):
        g = kg(2, 1, edges)
        for term, _ in delta(g).items():
            assert term.n_ext == 2


# --- brute-force oracles for canonical forms and enumeration ---


def _oracle_symmetries(flavor, n_ext, n_int):
    """Admissible relabelings as (images of 1..V, parity), one at a time."""
    for k in range(n_ext) if flavor is K else [0]:
        rot = [(i + k) % n_ext + 1 for i in range(n_ext)]
        for p in itertools.permutations(range(n_ext + 1, n_ext + n_int + 1)):
            images = rot + list(p)
            yield images, _parity(images)


def _oracle_normalize(edges):
    """Orient every edge ascending and sort; return (encoding, flip count)."""
    flips = 0
    norm = []
    for i, j in edges:
        if i > j:
            norm.append((j, i))
            flips += 1
        else:
            norm.append((i, j))
    norm.sort()
    return tuple(norm), flips


def _oracle_canonicalize(g):
    """Minimum over every relabeling, one Python loop step per symmetry."""
    base_enc, base_flips = _oracle_normalize(g.edges)
    base_sign = -1 if base_flips & 1 else 1
    seen = {}
    best_enc = None
    best_sign = 0
    for images, parity in _oracle_symmetries(g.flavor, g.n_ext, g.n_int):
        relabeled = ((images[i - 1], images[j - 1]) for i, j in base_enc)
        enc, flips = _oracle_normalize(relabeled)
        sign = -1 if (parity ^ (flips & 1)) else 1
        prev = seen.get(enc)
        if prev is None:
            seen[enc] = sign
        elif prev != sign:
            return CanonicalResult.zero()
        if best_enc is None or enc < best_enc:
            best_enc = enc
            best_sign = sign
    canon = DecoratedGraph(g.flavor, g.n_ext, g.n_int, best_enc)
    return CanonicalResult(canon, base_sign * best_sign)


def _oracle_enumerate(flavor, order, degree, connected):
    """Every edge multiset in lex order; the first of each orbit is kept."""
    found = []
    for n_ext, n_int, n_edges in _grading_combos(flavor, order, degree):
        if n_edges == 0:
            continue
        nv = n_ext + n_int
        pairs = [(i, j) for i in range(1, nv) for j in range(i + 1, nv + 1)]
        sym = list(_oracle_symmetries(flavor, n_ext, n_int))
        seen = set()
        for combo in itertools.combinations_with_replacement(pairs, n_edges):
            if combo in seen:
                continue
            g = DecoratedGraph(flavor, n_ext, n_int, combo)
            if connected and not connected_after_two_arc_cuts(g):
                continue
            orbit = {}
            is_zero = False
            for images, parity in sym:
                enc, flips = _oracle_normalize((images[i - 1], images[j - 1]) for i, j in combo)
                sign = -1 if (parity ^ (flips & 1)) else 1
                is_zero |= orbit.setdefault(enc, sign) != sign
            seen.update(orbit)
            if not is_zero:
                found.append(g)
    return sorted(found, key=lambda g: (g.n_ext, g.n_int, g.edges))


def _flavored_graph(draw, flavor):
    if flavor is M:
        n_ext, n_int = 0, draw(st.integers(1, 5))
    else:
        n_ext, n_int = draw(st.integers(2, 5)), draw(st.integers(0, 3))
    nv = n_ext + n_int
    pairs = [(i, j) for i in range(1, nv) for j in range(i + 1, nv + 1)]
    edges = []
    for _ in range(draw(st.integers(0, 7)) if pairs else 0):
        i, j = draw(st.sampled_from(pairs))
        edges.append((j, i) if draw(st.booleans()) else (i, j))
    return DecoratedGraph(flavor, n_ext, n_int, tuple(edges))


def _assert_same_class(res, ref):
    assert res.is_zero == ref.is_zero
    assert res.graph == ref.graph
    assert res.sign == ref.sign


@pytest.mark.parametrize("flavor", [M, K])
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonicalize_matches_brute_force(flavor, data):
    g = data.draw(st.composite(_flavored_graph)(flavor))
    _assert_same_class(canonicalize(g), _oracle_canonicalize(g))


@pytest.mark.parametrize("copies", [15, 16, 17])
def test_multiplicities_past_a_four_bit_digit_match_brute_force(copies):
    """A pair's count is one digit, as wide as the edge count needs: 16
    parallel edges would carry out of a 4-bit digit into the next pair's.
    The swap of two vertices is odd and reverses every edge, so an even
    number of parallel edges on two vertices is zero."""
    parallel = mg(2, [(1, 2)] * copies)
    res = canonicalize(parallel)
    assert res.is_zero == (copies % 2 == 0)
    _assert_same_class(res, _oracle_canonicalize(parallel))
    for g in (
        mg(3, [(2, 3)] * copies + [(3, 1)]),
        mg(4, [(3, 4)] * copies + [(2, 1), (1, 3)]),
        kg(3, 1, [(4, 2)] * copies + [(1, 4), (3, 4)]),
    ):
        _assert_same_class(canonicalize(g), _oracle_canonicalize(g))


def _chords(n_ext, seed):
    """A knot graph with n_ext externals paired up by random chords."""
    labels = list(range(1, n_ext + 1))
    random.Random(seed).shuffle(labels)
    return kg(n_ext, 0, zip(labels[::2], labels[1::2]))


@pytest.mark.parametrize(
    "g",
    [
        kg(8, 0, [(1, 5), (2, 6), (3, 7), (4, 8)]),  # every rotation maps it to itself
        kg(8, 0, [(1, 3), (5, 7)]),
        kg(8, 0, [(1, 3), (7, 5), (2, 4), (4, 6), (6, 8), (8, 2)]),
        kg(6, 2, [(1, 7), (4, 8), (7, 8), (8, 7), (2, 7), (5, 8), (3, 7), (6, 8)]),
        mg(8, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5), (1, 5), (2, 6), (3, 7), (4, 8)]),
        *(_chords(n, seed) for n in (8, 10, 12) for seed in range(3)),
    ],
)
@pytest.mark.parametrize("block", [1, graphs_module._BLOCK])
def test_canonicalize_in_blocks_of_words_matches_brute_force(g, block, monkeypatch):
    """28 pairs or more take two words or more.  With a block of one
    word, each word of the tied relabelings' vectors is built and compared
    on its own, and symmetric graphs keep several relabelings tied from
    one block to the next; with the default block, all words at once."""
    monkeypatch.setattr(graphs_module, "_BLOCK", block)
    _assert_same_class(canonicalize(g), _oracle_canonicalize(g))


#: One batch for ``canonicalize_many``: several shapes, zero classes (a
#: zero and a nonzero chord pair share the (8, 0, 2) shape), edgeless
#: graphs, graphs of other shapes with the canonical edges of the triangle
#: and of K4, and chord diagrams of 8 to 12 externals, 2 to 4 words each,
#: several to a shape, one of them fixed by every rotation.
MIXED_BATCH = [
    mg(2, [(1, 2), (1, 2)]),
    mg(2, [(1, 2), (2, 1), (1, 2)]),
    mg(3, [(1, 2), (2, 3), (3, 1)]),
    kg(3, 0, [(1, 2), (2, 3), (1, 3)]),
    *manifold_order2_graphs(),
    kg(4, 0, manifold_order2_graphs()[0].edges),
    kg(2, 2, manifold_order2_graphs()[0].edges),
    mg(4, [(1, 2), (1, 2), (3, 4), (3, 4), (1, 3), (2, 4)]),
    mg(1, []),
    mg(2, []),
    kg(2, 0, []),
    kg(3, 0, []),
    kg(4, 0, [(3, 1), (2, 4)]),
    kg(4, 0, [(1, 2), (3, 4)]),
    *knot_order2_graphs(),
    kg(3, 1, [(4, 1), (2, 4), (3, 4)]),
    kg(8, 0, [(1, 3), (5, 7)]),
    kg(8, 0, [(1, 5), (3, 7)]),
    kg(8, 0, [(1, 5), (2, 6), (3, 7), (4, 8)]),
    *(_chords(n, seed) for n in (8, 10, 12) for seed in range(3)),
]


@pytest.mark.parametrize("block", [1, graphs_module._BLOCK])
def test_canonicalize_many_matches_brute_force_graph_by_graph(block, monkeypatch):
    """With a block of one word, every graph of a shape gets its own block
    and each word is narrowed on its own, so ties span word blocks; with
    the default, the graphs of a shape share one block.  The batch runs
    twice, the second time in reverse, so each class is met again."""
    monkeypatch.setattr(graphs_module, "_BLOCK", block)
    batch = MIXED_BATCH + MIXED_BATCH[::-1]
    results = canonicalize_many(batch)
    assert len(results) == len(batch)
    assert sum(res.is_zero for res in results) == 8
    for g, res in zip(batch, results):
        _assert_same_class(res, _oracle_canonicalize(g))


def test_canonicalize_of_a_large_knot_graph_stays_small_in_memory():
    """300 externals have 44,850 pairs, 6,408 words of 8-bit digits, under
    each of 300 rotations.  Building every relabeling's whole vector, or
    a one-hot row per pair, would take 15 MB or 2.3 GB; canonicalize
    builds a block of _BLOCK words at a time, and the pair layout it
    caches is O(V^2).  Sorting every relabeled edge list instead peaked
    near 3.2 MiB."""
    g = _chords(300, 0)
    contracted, _ = contract_edge(g, (1, 2))
    graphs_module._digits.cache_clear()
    graphs_module._group.cache_clear()
    tracemalloc.start()
    try:
        results = [canonicalize(g), canonicalize(contracted)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    for res, h in zip(results, (g, contracted)):
        _assert_same_class(res, _oracle_canonicalize(h))


def test_edgeless_graph_is_zero_iff_a_symmetry_is_odd():
    # the transposition of two vertices, or the rotation of two externals,
    # is odd; one vertex, or a 3-cycle of externals, has only even ones
    for g, zero in [(mg(1, []), False), (mg(2, []), True), (kg(2, 0, []), True), (kg(3, 0, []), False)]:
        res = canonicalize(g)
        assert res.is_zero == zero
        _assert_same_class(res, _oracle_canonicalize(g))


@pytest.mark.parametrize("connected", [True, False])
@pytest.mark.parametrize(
    "flavor, order, degree",
    # each order from degree -1 up to 2*order - 2, the largest with graphs
    [(f, o, d) for f in (M, K) for o in (1, 2) for d in range(-1, 2 * o - 1)],
)
def test_enumerate_matches_brute_force(flavor, order, degree, connected):
    assert enumerate_graphs(flavor, order, degree, connected=connected) == _oracle_enumerate(
        flavor, order, degree, connected
    )


#: sha256 of the JSON list of ``enumerate_graphs`` at order 3, keyed by
#: (flavor, degree, connected): the graphs, their encodings and order.
ENUMERATE_ORDER3_SHA256 = {
    (M, 0, True): "997cc305adde7536c97706734afa174e24702d20a7a495c97a1f4da3771eda4a",
    (M, 0, False): "ad9899072bfdd21c1db168a96e73ac24c21675501e646122e45497d7804bb1d6",
    (M, 1, True): "68e1e131e940ec2539ae9b11ad8083c0b957150bba7b248ecc92f87dd61040f5",
    (M, 1, False): "7af1464399e2252ab5e9b91ed4fe7d730fa597dffbde4be4b8b19474ff393379",
    (K, 0, True): "526e45f9db54f221827e3906abf727f049db5e9d4080afc16bd7e8766204ec8d",
    (K, 0, False): "07273f072967534e4ceecce1668e3a06a573b13157e4673242a4d4ad1f3d2e94",
    (K, 1, True): "a1406561abb9f1bf4ff9ffc5c0c850daf8fc5aa17ea836fa34083d7d4ba82d95",
    (K, 1, False): "a2c0172209de7866d76d2ada24b9c359822375f3ef1631d39179a73f420bd4df",
    # 7 vertices, 21 pairs: the 8-edge combo packs its 4-bit digits into
    # two words, the others into one (6,548 and 37,948 graphs)
    (K, -1, True): "feb8d9ea6c9dcf4447be1375a0751bc1a1009b3ebb715b41af9b535a1b1677bd",
    (K, -1, False): "b02e266c2fa7dee4874670e4d4a94655d63902b58e8e8376e39840fd1e2a3677",
}


@pytest.mark.parametrize("flavor, degree, connected", list(ENUMERATE_ORDER3_SHA256))
def test_enumerate_order3_pinned(flavor, degree, connected):
    graphs = enumerate_graphs(flavor, 3, degree, connected=connected)
    text = json.dumps([g.to_json_obj() for g in graphs], sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == ENUMERATE_ORDER3_SHA256[(flavor, degree, connected)]


@pytest.mark.parametrize("degree, count, bound_mib", [(0, 670, 4), (-1, 2774, 16)])
def test_orderly_generation_stays_small_in_memory(degree, count, bound_mib):
    """Peak traced memory of a cold manifold order-3 enumeration, with
    its relabeling table built: the depth-first search extends blocks of
    edge lists in batches of _BATCH entries and keeps only a batch's kept
    rows, the next block, while that block runs; about 2.7 and 7.2 MiB.
    Sorting every relabeled edge list instead peaked at 8.4 and 96 MiB,
    and keeping whole batches or levels alive would cost more still."""
    graphs_module._enumerate_cached.cache_clear()
    graphs_module._group.cache_clear()
    tracemalloc.start()
    try:
        assert len(enumerate_graphs(M, 3, degree)) == count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, peak


@pytest.mark.parametrize("order", [0, -2])
def test_enumerate_rejects_order_below_one(order):
    with pytest.raises(InvalidParams):
        enumerate_graphs(K, order, 0)


@pytest.mark.parametrize("batch", [1, 10, 100])
def test_orderly_generation_in_small_batches(batch, monkeypatch):
    """A cap of one word leaves one extension per batch; 10 and
    100 leave a few, so the extensions of one edge list span batches."""
    monkeypatch.setattr(graphs_module, "_BATCH", batch)
    for flavor, order, degree in [(M, 2, 0), (M, 2, -1), (K, 2, 0), (K, 2, -1)]:
        for connected in (True, False):
            found = []
            for n_ext, n_int, n_edges in _grading_combos(flavor, order, degree):
                found += graphs_module._enumerate_combo(flavor, n_ext, n_int, n_edges, connected)
            found.sort(key=lambda g: (g.n_ext, g.n_int, g.edges))
            assert found == _oracle_enumerate(flavor, order, degree, connected)
