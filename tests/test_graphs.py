"""Graph core: construction, queries, connectivity, cutsets, serialization."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from boundarykit import (BoxSpec, Graph, GraphPair, InputError, build_box,
                         component_of, count_components, is_cutset,
                         is_minimal_cutset, random_connected_graph,
                         set_components, shortest_path, vertexset_from_json,
                         vertexset_to_json)

from oracles import (connected_by_flood, distance_by_relaxation,
                     flood_components, is_minimal_cutset_oracle,
                     lexmin_shortest_path_by_search, path_exists_avoiding,
                     shortest_path_by_queue)


def small_graphs():
    """Hypothesis strategy: seeded random connected graphs, ≤ 12 vertices."""
    return st.builds(
        random_connected_graph,
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=10_000))


def wide_graphs():
    """Hypothesis strategy: seeded random connected graphs of 65–130
    vertices, whose vertex masks span two or three 64-bit words."""
    return st.builds(
        random_connected_graph,
        st.integers(min_value=65, max_value=130),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=10_000))


def any_graphs():
    return st.one_of(small_graphs(), wide_graphs())


# --- construction and basic queries -----------------------------------------

def test_edges_are_sorted_and_densely_identified():
    g = Graph(4, [(2, 3), (0, 1), (1, 3), (1, 2)])
    assert g.edges == ((0, 1), (1, 2), (1, 3), (2, 3))
    assert [g.edge_id(*e) for e in g.edges] == [0, 1, 2, 3]
    assert g.edge_id(3, 1) == g.edge_id(1, 3)  # orientation-free
    assert g.edges[2] == (1, 3)
    assert g.edge_count == 4


def test_adjacency_is_sorted():
    g = Graph(5, [(0, 4), (0, 2), (0, 1), (3, 0)])
    assert g.adjacency[0] == (1, 2, 3, 4)
    assert len(g.adjacency[0]) == 4 and len(g.adjacency[4]) == 1
    assert g.has_edge(4, 0) and not g.has_edge(1, 2)


@pytest.mark.parametrize("bad_edges, message", [
    ([(0, 0)], "loop"),
    ([(0, 1), (1, 0)], "duplicate"),
    ([(0, 5)], "outside"),
    ([(-1, 0)], "outside"),
    ([(0, 1, 2)], "pair"),
    ([(True, 2)], "pair"),
])
def test_construction_rejects_malformed_edges(bad_edges, message):
    with pytest.raises(InputError, match=message):
        Graph(3, bad_edges)


@pytest.mark.parametrize("count", [-1, True, 2.0], ids=["negative", "bool", "float"])
def test_construction_rejects_a_vertex_count_that_is_no_nonnegative_int(count):
    with pytest.raises(InputError, match="vertex_count must be a nonnegative int"):
        Graph(count, [])


def test_edge_id_names_a_missing_edge():
    """``edge_id`` takes an edge in either direction and refuses one that
    the graph lacks, naming it in sorted order."""
    g = Graph(3, [(0, 1)])
    assert g.edge_id(1, 0) == 0
    with pytest.raises(InputError, match=r"no edge \(1, 2\) in graph"):
        g.edge_id(2, 1)


def test_labels_must_be_distinct_and_complete():
    with pytest.raises(InputError, match="distinct"):
        Graph(2, [(0, 1)], labels=[(1, 1), (1, 1)])
    with pytest.raises(InputError, match="labels for"):
        Graph(3, [(0, 1)], labels=[(1,), (2,)])
    with pytest.raises(InputError, match="list of coordinate tuples"):
        Graph(3, [(0, 1)], labels=5)
    with pytest.raises(InputError, match="integer coordinates"):
        Graph(3, [(0, 1)], labels=[1, 2, 3])
    g = Graph(2, [(0, 1)], labels=[(1, 1), (2, 1)])
    assert g.labels[1] == (2, 1)
    assert g.id_of_label((2, 1)) == 1
    with pytest.raises(InputError, match="no vertex labeled"):
        g.id_of_label((9, 9))


def test_unlabeled_graph_refuses_label_queries():
    g = Graph(2, [(0, 1)])
    with pytest.raises(InputError):
        g.id_of_label((1,))


def test_json_roundtrip_preserves_everything():
    g = Graph(3, [(0, 1), (1, 2)], labels=[(1, 1), (2, 1), (1, 2)])
    data = g.to_json()
    assert data == {"vertices": 3, "edges": [[0, 1], [1, 2]],
                    "labels": [[1, 1], [2, 1], [1, 2]]}
    back = Graph.from_json(data)
    assert back.edges == g.edges and back.labels == g.labels

    bare = Graph(2, [(0, 1)])
    assert "labels" not in bare.to_json()
    assert Graph.from_json(bare.to_json()).labels is None


def test_from_json_requires_vertices_and_edges():
    with pytest.raises(InputError):
        Graph.from_json({"edges": []})
    with pytest.raises(InputError):
        Graph.from_json([1, 2, 3])
    with pytest.raises(InputError, match="list of"):
        Graph.from_json({"vertices": 3, "edges": 7})


def test_pair_validates_containment_and_labels():
    g = Graph(3, [(0, 1)])
    with pytest.raises(InputError, match="missing from g_plus"):
        GraphPair(g, Graph(3, [(1, 2)]))
    with pytest.raises(InputError, match="vertex set"):
        GraphPair(g, Graph(4, [(0, 1)]))
    labeled = Graph(3, [(0, 1)], labels=[(1,), (2,), (3,)])
    with pytest.raises(InputError, match="labels"):
        GraphPair(g, labeled)
    pair = GraphPair(g, Graph(3, [(0, 1), (0, 2)]))
    assert pair.g_plus.edge_count == 2


# --- connectivity against the flood-fill oracle -------------------------------

@settings(max_examples=80, deadline=None)
@given(any_graphs(), st.data())
def test_component_of_matches_flood_fill(g, data):
    forbidden = frozenset(data.draw(st.sets(
        st.integers(min_value=0, max_value=g.vertex_count - 1), max_size=4)))
    start = data.draw(st.integers(min_value=0, max_value=g.vertex_count - 1))
    if start in forbidden:
        with pytest.raises(InputError):
            component_of(g, start, forbidden)
        return
    comp = component_of(g, start, forbidden)
    rest = set(range(g.vertex_count)) - forbidden
    expected = next(c for c in flood_components(g.edges, rest) if start in c)
    assert comp == expected


@settings(max_examples=80, deadline=None)
@given(any_graphs(), st.data())
def test_connectivity_predicates_match_oracle(g, data):
    s = frozenset(data.draw(st.sets(
        st.integers(min_value=0, max_value=g.vertex_count - 1), max_size=6)))
    if data.draw(st.booleans()):
        s = frozenset(range(g.vertex_count)) - s
    comps = set_components(g, s)
    assert [set(c) for c in comps] == flood_components(g.edges, s)
    assert (len(comps) <= 1) == connected_by_flood(g.edges, s)
    assert frozenset().union(*comps) == s if comps else s == frozenset()


def test_empty_and_singleton_sets_count_as_connected():
    g = Graph(3, [])
    assert set_components(g, frozenset()) == []
    assert set_components(g, frozenset({2})) == [frozenset({2})]
    assert len(set_components(g, frozenset({0, 1}))) == 2
    assert count_components(g) == 3


def test_component_count_is_counted_once_per_graph(monkeypatch):
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    assert count_components(g) == 3
    monkeypatch.setattr(type(g._plan), "components",
                        lambda self, m: pytest.fail("the whole graph was flooded again"))
    assert count_components(g) == 3


def test_set_components_ordered_by_smallest_member():
    g = Graph(6, [(0, 5), (1, 2)])
    comps = set_components(g, frozenset({0, 1, 2, 3, 5}))
    assert comps == [frozenset({0, 5}), frozenset({1, 2}), frozenset({3})]


_SET_ARGUMENT_CALLS = {
    "component_of": lambda g, bad: component_of(g, 0, frozenset({1, bad})),
    "set_components": lambda g, bad: set_components(g, frozenset({0, bad})),
    "is_cutset-s": lambda g, bad: is_cutset(g, frozenset({1, bad}), 0, frozenset({3})),
    "is_cutset-target": lambda g, bad: is_cutset(g, frozenset({1}), 0, frozenset({3, bad})),
    "is_minimal_cutset-s": lambda g, bad: is_minimal_cutset(
        g, frozenset({1, bad}), 0, frozenset({3})),
    "is_minimal_cutset-target": lambda g, bad: is_minimal_cutset(
        g, frozenset({1}), 0, frozenset({3, bad})),
}


@pytest.mark.parametrize("bad", [4, 64, -1, -65])
@pytest.mark.parametrize("call", _SET_ARGUMENT_CALLS.values(), ids=_SET_ARGUMENT_CALLS.keys())
def test_vertex_set_arguments_are_range_checked(call, bad):
    """Ids are range-checked before they become mask bits, so a negative id
    is an ``InputError``, never a ``ValueError`` from ``1 << -1``."""
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InputError, match="outside"):
        call(g, bad)


_VERTEX_ARGUMENT_CALLS = {
    "component_of": lambda g, bad: component_of(g, bad),
    "component_of-forbidden": lambda g, bad: component_of(g, 0, frozenset({bad})),
    "shortest_path-x": lambda g, bad: shortest_path(g, bad, 5),
    "shortest_path-y": lambda g, bad: shortest_path(g, 5, bad),
    "is_cutset-x": lambda g, bad: is_cutset(g, frozenset({4}), bad, frozenset({8})),
    "is_cutset-target": lambda g, bad: is_cutset(g, frozenset({4}), 0, frozenset({bad})),
    "is_minimal_cutset-x": lambda g, bad: is_minimal_cutset(
        g, frozenset({4}), bad, frozenset({8})),
    "set_components": lambda g, bad: set_components(g, frozenset({bad})),
}


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.5])
@pytest.mark.parametrize("call", _VERTEX_ARGUMENT_CALLS.values(), ids=_VERTEX_ARGUMENT_CALLS.keys())
def test_vertex_arguments_that_are_no_int_are_refused(call, bad):
    """A bool passed the range check as 0 or 1, so ``shortest_path(g, True,
    5)`` returned ``[True, 2, 5]``; a float crashed in ``1 << x`` with a
    ``TypeError``.  Both are bad input."""
    g = build_box(BoxSpec(2, 3, "plain"))
    with pytest.raises(InputError, match=f"^a vertex id is an int, got {re.escape(repr(bad))}$"):
        call(g, bad)


# --- cutsets ------------------------------------------------------------------

def test_cutset_validation():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InputError, match="cutset"):
        is_cutset(g, frozenset({0}), 0, frozenset({3}))
    with pytest.raises(InputError, match="target"):
        is_cutset(g, frozenset({1}), 3, frozenset({3}))
    with pytest.raises(InputError, match="disjoint"):
        is_cutset(g, frozenset({1}), 0, frozenset({1, 3}))


def test_path_cutset_is_minimal():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert is_cutset(g, frozenset({2}), 0, frozenset({4}))
    assert is_minimal_cutset(g, frozenset({2}), 0, frozenset({4}))
    # superset still cuts but is no longer minimal
    assert is_cutset(g, frozenset({1, 2}), 0, frozenset({4}))
    assert not is_minimal_cutset(g, frozenset({1, 2}), 0, frozenset({4}))
    assert not is_cutset(g, frozenset(), 0, frozenset({4}))


@settings(max_examples=80, deadline=None)
@given(any_graphs(), st.data())
def test_minimal_cutset_matches_brute_force(g, data):
    pool = st.integers(min_value=0, max_value=g.vertex_count - 1)
    x = data.draw(pool)
    y = data.draw(pool.filter(lambda v: v != x))
    s = frozenset(data.draw(st.sets(
        pool.filter(lambda v: v not in (x, y)), max_size=4)))
    if not g.has_edge(x, y) and data.draw(st.booleans()):
        # The neighbours of x that touch y's side are a minimal cutset;
        # perturb it by at most one vertex to reach the cases nearby.
        near = set(g.adjacency[x])
        rest = set(range(g.vertex_count)) - near - {x}
        side = next(c for c in flood_components(g.edges, rest) if y in c)
        s = {v for v in near if side.intersection(g.adjacency[v])}
        extra = data.draw(st.sets(pool.filter(lambda v: v not in (x, y)), max_size=1))
        dropped = data.draw(st.sets(st.sampled_from(sorted(s)), max_size=1))
        s = frozenset((s | extra) - dropped)
    targets = {y} | data.draw(st.sets(pool.filter(lambda v: v != x and v not in s),
                                      max_size=2))
    got = is_minimal_cutset(g, s, x, frozenset(targets))
    want = is_minimal_cutset_oracle(g.vertex_count, g.edges, s, x, targets)
    assert got == want


# --- networkx as an independent oracle (test-only, skipped without it) ---------

def _to_networkx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges)
    return nx, h


@settings(max_examples=80, deadline=None)
@given(small_graphs(), st.data())
def test_set_components_match_networkx(g, data):
    nx, h = _to_networkx(g)
    s = frozenset(data.draw(st.sets(st.integers(0, g.vertex_count - 1))))
    want = sorted((frozenset(c) for c in nx.connected_components(h.subgraph(s))),
                  key=min)
    assert set_components(g, s) == want


@settings(max_examples=120, deadline=None)
@given(small_graphs(), st.data())
def test_is_minimal_cutset_matches_networkx(g, data):
    nx, h = _to_networkx(g)
    pool = st.integers(0, g.vertex_count - 1)
    x = data.draw(pool)
    y = data.draw(pool.filter(lambda v: v != x))
    if not h.has_edge(x, y) and data.draw(st.booleans()):
        # A minimum cut is minimal; perturb it to reach the cases nearby.
        s = set(nx.minimum_node_cut(h, x, y))
        extra = data.draw(st.sets(pool.filter(lambda v: v not in (x, y)), max_size=1))
        dropped = data.draw(st.sets(st.sampled_from(sorted(s)), max_size=1))
        s = frozenset((s | extra) - dropped)
    else:
        s = frozenset(data.draw(st.sets(pool.filter(lambda v: v not in (x, y)),
                                        max_size=4)))

    def separates(cut):
        return not nx.has_path(nx.restricted_view(h, cut, []), x, y)

    want = separates(s) and not any(separates(s - {v}) for v in s)
    assert is_minimal_cutset(g, s, x, frozenset({y})) == want


# --- shortest paths -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.data())
def test_shortest_path_properties(g, data):
    pool = st.integers(min_value=0, max_value=g.vertex_count - 1)
    x, y = data.draw(pool), data.draw(pool)
    forbidden = frozenset(data.draw(st.sets(pool, max_size=3)))
    path = shortest_path(g, x, y, forbidden)
    reachable = path_exists_avoiding(g.vertex_count, g.edges, x, y, forbidden)
    distance = distance_by_relaxation(g.vertex_count, g.edges, x, y, forbidden)
    assert (distance is not None) == reachable
    if path is None:
        assert not reachable
        return
    assert reachable
    assert len(path) - 1 == distance
    assert path[0] == x and path[-1] == y
    assert not (set(path) & forbidden)
    assert len(set(path)) == len(path)  # simple
    for u, v in zip(path, path[1:]):
        assert g.has_edge(u, v)


def tiny_graphs():
    """Hypothesis strategy: seeded random connected graphs, ≤ 9 vertices,
    few enough for a search over every simple path."""
    return st.builds(
        random_connected_graph,
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=10_000))


@settings(max_examples=150, deadline=None)
@given(tiny_graphs(), st.data())
def test_shortest_path_is_the_lexicographically_smallest(g, data):
    pool = st.integers(min_value=0, max_value=g.vertex_count - 1)
    x, y = data.draw(pool), data.draw(pool)
    forbidden = frozenset(data.draw(st.sets(pool, max_size=3)))
    assert shortest_path(g, x, y, forbidden) == lexmin_shortest_path_by_search(
        g.vertex_count, g.edges, x, y, forbidden)


@settings(max_examples=60, deadline=None)
@given(wide_graphs(), st.data())
def test_shortest_path_matches_the_queue_oracle_beyond_one_word(g, data):
    pool = st.integers(min_value=0, max_value=g.vertex_count - 1)
    x, y = data.draw(pool), data.draw(pool)
    forbidden = frozenset(data.draw(st.sets(pool, max_size=8)))
    assert shortest_path(g, x, y, forbidden) == shortest_path_by_queue(
        g.adjacency, x, y, forbidden)


def test_shortest_path_breaks_ties_toward_small_ids():
    # two parallel routes 0-1-3 and 0-2-3; BFS in id order prefers vertex 1
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert shortest_path(g, 0, 3) == [0, 1, 3]


def test_shortest_path_trivial_and_blocked_cases():
    g = Graph(3, [(0, 1), (1, 2)])
    assert shortest_path(g, 1, 1) == [1]
    assert shortest_path(g, 0, 2) == [0, 1, 2]
    assert shortest_path(g, 0, 2, frozenset({1})) is None
    assert shortest_path(g, 0, 2, frozenset({2})) is None


# --- vertex-set serialization ------------------------------------------------------

def test_vertexset_json_uses_coordinates_when_labeled():
    g = Graph(4, [(0, 1)], labels=[(1, 1), (2, 1), (1, 2), (2, 2)])
    s = frozenset({0, 3})
    as_json = vertexset_to_json(g, s)
    assert as_json == [[1, 1], [2, 2]]
    assert vertexset_from_json(g, as_json) == s
    assert vertexset_from_json(g, [0, 3]) == s  # ids accepted too
    for bad in ([[1, True]], [[1.0, 1]], [[[1, 1]]]):
        with pytest.raises(InputError, match="integer coordinates"):
            vertexset_from_json(g, bad)

    bare = Graph(4, [(0, 1)])
    assert vertexset_to_json(bare, s) == [0, 3]
    with pytest.raises(InputError):
        vertexset_from_json(bare, [[1, 1]])
    with pytest.raises(InputError):
        vertexset_from_json(bare, ["zero"])
    with pytest.raises(InputError):
        vertexset_from_json(bare, [True])
    with pytest.raises(InputError, match="list"):
        vertexset_from_json(bare, 0)


def test_random_connected_graph_is_connected_and_deterministic():
    for seed in range(10):
        g = random_connected_graph(9, 5, seed)
        assert count_components(g) == 1
        assert g.vertex_count == 9
        again = random_connected_graph(9, 5, seed)
        assert again.edges == g.edges
    assert (random_connected_graph(9, 5, 1).edges
            != random_connected_graph(9, 5, 2).edges)
