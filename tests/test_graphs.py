import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphflow.errors import InvalidGraph, NotContractible, NotRegular, ResourceLimit
from graphflow import graphs as graphs_module
from graphflow.graphs import (
    CanonicalResult,
    DecoratedGraph,
    Flavor,
    GraphSum,
    _grading_combos,
    _is_connected,
    _knot_connected,
    canonicalize,
    contract_edge,
    delta,
    enumerate_graphs,
    grade,
    is_trivalent,
    knot_order2_cocycle,
    knot_order2_graphs,
    manifold_order2_cocycle,
    manifold_order2_graphs,
    theta_graph,
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
    assert DecoratedGraph.from_text(g.to_text()) == g


def test_json_round_trip():
    g = mg(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4)])
    assert DecoratedGraph.from_json_obj(g.to_json_obj()) == g


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
    assert len(d1) == 1 and len(d2) == 1
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
    assert len(d2) == 2
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


def test_knot_connectedness_rule():
    # parallel chords (1,2),(3,4) fall apart after removing two arcs
    graphs = enumerate_graphs(K, 2, 0)
    bad = kg(4, 0, [(1, 2), (3, 4)])
    res = canonicalize(bad)
    assert res.is_zero or res.graph not in graphs


# --- GraphSum ---


def test_graph_sum_cancellation():
    g = theta_graph(M)
    s = GraphSum.of([(Fraction(1, 2), g), (Fraction(-1, 2), g)])
    assert s.is_zero


def test_graph_sum_json_round_trip():
    s = knot_order2_cocycle()
    assert GraphSum.from_json_obj(s.to_json_obj()) == s


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
    lhs = delta(g)
    rhs = Fraction(res.sign) * delta(res.graph)
    assert lhs == rhs


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
            if connected:
                if flavor is M and not _is_connected(nv, combo):
                    continue
                if flavor is K and not _knot_connected(n_ext, n_int, combo):
                    continue
            orbit = {}
            is_zero = False
            for images, parity in sym:
                enc, flips = _oracle_normalize((images[i - 1], images[j - 1]) for i, j in combo)
                sign = -1 if (parity ^ (flips & 1)) else 1
                is_zero |= orbit.setdefault(enc, sign) != sign
            seen.update(orbit)
            if not is_zero:
                found.append(DecoratedGraph(flavor, n_ext, n_int, combo))
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


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_enumeration_walk_crosses_chunks(chunk, monkeypatch):
    """Orbits found in one chunk cover rows of later chunks."""
    monkeypatch.setattr(graphs_module, "_CHUNK", chunk)
    for flavor, order, degree in [(M, 2, 0), (M, 2, -1), (K, 2, 0), (K, 2, -1)]:
        for connected in (True, False):
            found = []
            for n_ext, n_int, n_edges in _grading_combos(flavor, order, degree):
                found += graphs_module._enumerate_combo(flavor, n_ext, n_int, n_edges, connected)
            found.sort(key=lambda g: (g.n_ext, g.n_int, g.edges))
            assert found == _oracle_enumerate(flavor, order, degree, connected)
