"""GF(2) edge vectors, generating sets, decomposition, crossing witness."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from boundarykit import (BoxSpec, CycleGen, EdgeVector, Graph, GraphPair, InputError,
                         NotInSpanError, build_box, build_box_pair, extra_edge_patches, crossing_cycle_witness,
                         cycle_space_rank, decompose, four_cycle_gen,
                         fundamental_basis,
                         is_generating, is_minimal_cutset,
                         random_connected_graph)
from boundarykit.cyclespace import _crossing_witness, _is_clique
from boundarykit.graphs import _neighbourhood_plan
from boundarykit.harness import _crossing_postconditions

from oracles import (clique_by_pairs, crossing_postconditions_by_sets, cycle_check_by_degrees,
                     flood_components, gf2_in_span, gf2_rank_sets, is_minimal_cutset_oracle)


def ring(k):
    """Cycle graph on k vertices."""
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def small_graphs():
    return st.builds(
        random_connected_graph,
        st.integers(min_value=3, max_value=12),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=10_000))


# --- vector algebra -----------------------------------------------------------

def test_vector_construction_and_views():
    g = ring(4)
    v = EdgeVector.from_edges(g, [(0, 1), (2, 3)])
    assert len(v) == 2
    assert v.edge_ids() == [g.edge_id(0, 1), g.edge_id(2, 3)]
    assert set(v.edges()) == {(0, 1), (2, 3)}
    assert {w for e in v.edges() for w in e} == {0, 1, 2, 3}
    assert v.to_json() == [[0, 1], [2, 3]]
    assert not EdgeVector(g)              # zero vector is falsy
    assert v


def test_vector_bits_must_fit_host():
    g = ring(3)
    with pytest.raises(InputError):
        EdgeVector(g, 1 << 3)
    with pytest.raises(InputError):
        EdgeVector(g, -1)


def test_path_vector_cancels_repeated_edges():
    g = ring(4)
    out_and_back = EdgeVector.from_vertex_path(g, [0, 1, 0])
    assert not out_and_back
    around = EdgeVector.from_vertex_path(g, [0, 1, 2, 3, 0])
    assert around.is_cycle() and len(around) == 4


def test_addition_is_symmetric_difference():
    g = ring(5)
    a = EdgeVector.from_edges(g, [(0, 1), (1, 2)])
    b = EdgeVector.from_edges(g, [(1, 2), (2, 3)])
    assert (a + b).edges() == [(0, 1), (2, 3)]
    assert a + b == b + a
    assert not (a + a)
    assert a ^ b == a + b


def test_addition_rejects_foreign_hosts():
    a = EdgeVector.from_edges(ring(4), [(0, 1)])
    b = EdgeVector.from_edges(ring(5), [(0, 1)])
    with pytest.raises(InputError, match="host"):
        a + b


def test_hosts_compare_by_structure_not_by_hash():
    path = Graph(3, [(0, 1), (1, 2)])
    star = Graph(3, [(0, 1), (0, 2)])
    a, b = EdgeVector(path, 1), EdgeVector(star, 1)
    assert a != b
    with pytest.raises(InputError, match="host"):
        a + b
    assert a == EdgeVector(Graph(3, [(0, 1), (1, 2)]), 1)   # equal structure


def test_equal_vectors_hash_equal_and_collapse_in_a_set():
    """Equal vectors, on one host or on hosts of equal structure, hash
    equal, so a set keeps one of them.  Vectors with equal bits on hosts of
    different structure hash equal too, but stay apart in a set, since
    equality reads the host."""
    path = Graph(3, [(0, 1), (1, 2)])
    a, b = EdgeVector(path, 1), EdgeVector(Graph(3, [(0, 1), (1, 2)]), 1)
    c = EdgeVector.from_edges(path, [(1, 0)])
    assert a == b == c and hash(a) == hash(b) == hash(c)
    other = EdgeVector(Graph(3, [(0, 1), (0, 2)]), 1)
    assert len({a, b, c, EdgeVector(path, 2), other}) == 3


@settings(max_examples=50, deadline=None)
@given(small_graphs(), st.data())
def test_even_and_cycle_checks_match_degree_oracle(g, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << g.edge_count) - 1))
    v = EdgeVector(g, bits)
    degs = Counter(w for e in v.edges() for w in e)
    assert v.is_even() == all(d % 2 == 0 for d in degs.values())
    assert v.is_cycle() == cycle_check_by_degrees(g.vertex_count, v.edges())


def test_even_and_cycle_checks_on_sums_of_faces():
    """Sums of unit faces of z2:5, whose degrees are all 2 or 4: single
    faces and ring-shaped sums are cycles; two disjoint faces are 2-regular
    but not connected; faces meeting at a corner have a degree-4 vertex.
    The degree oracle must agree on every sum of two or three faces."""
    spec = BoxSpec(2, 5, "plain")
    g = build_box(spec)
    faces = four_cycle_gen(spec).cycles
    kinds = set()
    for i, a in enumerate(faces):
        for b in faces[i + 1:]:
            for vec in (a + b, a + b + faces[(i * 7) % len(faces)]):
                want = cycle_check_by_degrees(g.vertex_count, vec.edges())
                assert vec.is_even()
                assert vec.is_cycle() == want
                degs = Counter(w for e in vec.edges() for w in e)
                kinds.add((want, max(degs.values(), default=0)))
    assert kinds == {(True, 2), (False, 2), (False, 4)}
    assert EdgeVector(g).is_even() and not EdgeVector(g).is_cycle()
    path = EdgeVector.from_vertex_path(g, [0, 1, 2, 7])
    assert not path.is_even() and not path.is_cycle()


def _shape(edges):
    """The vector of every edge of a graph given by its edge list."""
    g = Graph(1 + max((max(e) for e in edges), default=0), edges)
    return EdgeVector(g, (1 << g.edge_count) - 1)


TRIANGLE = [(0, 1), (1, 2), (0, 2)]
SQUARE = [(0, 1), (1, 2), (2, 3), (0, 3)]


def _shifted(edges, by):
    return [(u + by, v + by) for u, v in edges]


@pytest.mark.parametrize("edges, want", [
    (TRIANGLE, True),
    (SQUARE, True),
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], True),
    # 2-regular but disconnected, the walk starting in either component
    (TRIANGLE + _shifted(TRIANGLE, 3), False),
    (SQUARE + _shifted(TRIANGLE, 4), False),
    (TRIANGLE + _shifted(SQUARE, 3), False),
    ([(0, 6), (1, 6), (0, 1)] + _shifted(SQUARE, 2), False),
    # a bowtie: two triangles sharing vertex 2, which has degree 4
    (TRIANGLE + [(2, 3), (3, 4), (2, 4)], False),
    # a theta: three paths between 0 and 1, both of degree 3
    ([(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)], False),
    ([(0, 1)], False),
    ([], False),
], ids=["triangle", "square", "hexagon", "two-triangles", "square+triangle",
        "triangle+square", "triangle-on-high-ids+square", "bowtie", "theta",
        "edge", "empty"])
def test_is_cycle_matches_degree_oracle_on_shapes(edges, want):
    v = _shape(edges)
    assert v.is_cycle() == cycle_check_by_degrees(v.host.vertex_count, v.edges()) == want


def test_cycle_vertices_on_every_edge_set_of_k6():
    """All 2^15 edge sets of K6: every 3-, 4-, 5- and 6-cycle, and the two
    disjoint triangles, the only 2-regular edge set there that is no
    cycle, which the walk, run from 6 edges up, must catch.  A cycle's
    mask is its touched vertices; anything else gives 0."""
    k6 = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    cycles = Counter()
    for bits in range(1 << k6.edge_count):
        vec = EdgeVector(k6, bits)
        edges = vec.edges()
        want = cycle_check_by_degrees(6, edges)
        touched = sum(1 << w for w in {w for e in edges for w in e})
        assert vec._cycle_vertices() == (touched if want else 0)
        cycles[len(edges)] += want
    # K6 has 20 triangles, 45 four-cycles, 72 five-cycles and 60 six-cycles
    assert +cycles == {3: 20, 4: 45, 5: 72, 6: 60}


# --- rank and generating sets --------------------------------------------------

def test_cycle_space_rank_formula():
    assert cycle_space_rank(ring(6)) == 1
    assert cycle_space_rank(Graph(4, [(0, 1), (1, 2)])) == 0      # forest
    two_rings = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert cycle_space_rank(two_rings) == 2


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_rank_matches_independent_elimination(g):
    gen = fundamental_basis(g)
    assert gen.rank == cycle_space_rank(g) == len(gen.cycles)
    assert gf2_rank_sets([c.edge_ids() for c in gen.cycles]) == gen.rank


def test_cyclegen_rejects_non_cycles():
    g = ring(4)
    with pytest.raises(InputError, match="not a cycle"):
        CycleGen(g, [EdgeVector.from_edges(g, [(0, 1)])])
    with pytest.raises(InputError, match="host"):
        CycleGen(g, [EdgeVector.from_vertex_path(ring(5), [0, 1, 2, 3, 4, 0])])


def test_fundamental_basis_edge_cases():
    whole = fundamental_basis(ring(4))
    assert len(whole.cycles) == 1 and len(whole.cycles[0]) == 4
    tree = fundamental_basis(Graph(4, [(0, 1), (1, 2), (1, 3)]))
    assert len(tree.cycles) == 0
    with pytest.raises(InputError, match="connected"):
        fundamental_basis(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(InputError):
        fundamental_basis(Graph(0, []))


def test_fundamental_and_face_bases_span_the_same_space():
    spec = BoxSpec(2, 3, "plain")
    faces = four_cycle_gen(spec)
    fund = fundamental_basis(build_box(spec))
    assert faces.rank == fund.rank == 4
    for c in fund.cycles:       # mutual decomposability
        assert decompose(c, faces) is not None
    for c in faces.cycles:
        assert decompose(c, fund) is not None


def test_is_generating_examples():
    spec = BoxSpec(2, 3, "plain")
    g = build_box(spec)
    faces = four_cycle_gen(spec)
    assert is_generating(faces, g)
    single = CycleGen(g, faces.cycles[:1])
    assert not is_generating(single, g)

    cube = BoxSpec(3, 2, "plain")
    gc = build_box(cube)
    all_faces = four_cycle_gen(cube)
    assert len(all_faces.cycles) == 6 and all_faces.rank == 5   # one dependency
    five = CycleGen(gc, all_faces.cycles[:-1])
    assert is_generating(five, gc)

    with pytest.raises(InputError):
        is_generating(faces, gc)


@settings(max_examples=30, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_rank_is_order_invariant(g, rnd):
    gen = fundamental_basis(g)
    shuffled = list(gen.cycles)
    rnd.shuffle(shuffled)
    assert CycleGen(g, shuffled).rank == gen.rank


# --- chordality -----------------------------------------------------------------

def is_chordal(o, g_plus):
    """The premise checkers' chordality test of the cycle ``o``."""
    return _is_clique(o._cycle_vertices(), g_plus)


def test_chordality_examples():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert is_chordal(EdgeVector.from_vertex_path(tri, [0, 1, 2, 0]), tri)

    plain5 = build_box(BoxSpec(2, 5, "plain"))
    star5 = build_box(BoxSpec(2, 5, "star"))
    face = EdgeVector.from_edges(plain5, [
        (plain5.id_of_label((1, 1)), plain5.id_of_label((2, 1))),
        (plain5.id_of_label((2, 1)), plain5.id_of_label((2, 2))),
        (plain5.id_of_label((2, 2)), plain5.id_of_label((1, 2))),
        (plain5.id_of_label((1, 2)), plain5.id_of_label((1, 1)))])
    assert is_chordal(face, star5)
    assert not is_chordal(face, plain5)   # unit face needs its diagonals

    # 6-cycle bounding a 1x2 domino of faces: (1,1) and (3,2) are too far apart
    domino_ring = [(1, 1), (2, 1), (3, 1), (3, 2), (2, 2), (1, 2), (1, 1)]
    vec = EdgeVector.from_vertex_path(
        plain5, [plain5.id_of_label(c) for c in domino_ring])
    assert not is_chordal(vec, star5)


def _half_diagonal_pair(box):
    """The plain box with the augmentation edges of its star box whose
    endpoints' coordinate-wise minimum has an even coordinate sum: in
    d = 2, both diagonals of every other unit face and none of the rest,
    so the premises fail on some cycles and hold on others."""
    plain, star = build_box(box), build_box(BoxSpec(box.d, box.side, "star"))
    kept = [(u, v) for u, v in star.edges if plain.has_edge(u, v) or sum(
        map(min, zip(star.labels[u], star.labels[v]))) % 2 == 0]
    return GraphPair(plain, Graph(star.vertex_count, kept, star.labels))


@pytest.mark.parametrize("box", [BoxSpec(d, side, "plain") for d in (2, 3) for side in (3, 4)],
                         ids=str)
def test_the_clique_test_matches_the_pairwise_oracle(box):
    """The premise checks' clique test, on the rows of the augmentation's
    neighbourhood plan, against one ``has_edge`` lookup per pair: every
    generator and every patch cycle of the box, against the plain, plus
    and star augmentations and against a failing one with half the
    diagonals."""
    gen = four_cycle_gen(box)
    pairs = [build_box_pair(box, flavor) for flavor in ("plain", "plus", "star")]
    pairs.append(_half_diagonal_pair(box))
    passing = []
    for pair in pairs:
        cycles = list(gen._vertices)
        cycles += [vec._cycle_vertices() for vec in extra_edge_patches(pair).values()]
        got = [_is_clique(touched, pair.g_plus) for touched in cycles]
        assert got == [clique_by_pairs(touched, pair.g_plus) for touched in cycles]
        passing.append((sum(got), len(got)))
    # plain fails every generator, plus and star pass every cycle, and the
    # half augmentation gives verdicts of both kinds
    (plain, _), (plus, plus_all), (star, star_all), (half, half_all) = passing
    assert plain == 0 and plus == plus_all and star == star_all and 0 < half < half_all


# --- decomposition ---------------------------------------------------------------

def test_decompose_examples():
    spec = BoxSpec(2, 3, "plain")
    g = build_box(spec)
    faces = four_cycle_gen(spec)
    assert decompose(EdgeVector(g), faces) == []

    perimeter_coords = [(1, 1), (2, 1), (3, 1), (3, 2), (3, 3),
                        (2, 3), (1, 3), (1, 2), (1, 1)]
    perimeter = EdgeVector.from_vertex_path(
        g, [g.id_of_label(c) for c in perimeter_coords])
    assert decompose(perimeter, faces) == [0, 1, 2, 3]

    assert decompose(faces.cycles[2], faces) == [2]


def test_decompose_rejects_bad_targets():
    g = ring(4)
    gen = fundamental_basis(g)
    with pytest.raises(InputError, match="odd-degree"):
        decompose(EdgeVector.from_edges(g, [(0, 1)]), gen)
    two_rings = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    first_ring_only = CycleGen(
        two_rings, [EdgeVector.from_vertex_path(two_rings, [0, 1, 2, 0])])
    with pytest.raises(NotInSpanError):
        decompose(EdgeVector.from_vertex_path(two_rings, [3, 4, 5, 3]),
                  first_ring_only)
    with pytest.raises(InputError, match="host"):
        decompose(EdgeVector.from_vertex_path(ring(5), [0, 1, 2, 3, 4, 0]), gen)


def test_corrupt_echelon_bookkeeping_is_a_loud_crash():
    """Rows whose combinations sum to the wrong vector are caught by the
    combination check, in ``decompose`` and in the witness, which runs on
    the same kernel."""
    spec = BoxSpec(2, 3, "plain")
    g = build_box(spec)
    gen = CycleGen(g, four_cycle_gen(spec).cycles)      # a copy: the box's set is shared
    gen._rows = {pivot: (row, 0) for pivot, (row, _) in gen._echelon().items()}
    with pytest.raises(RuntimeError, match="^echelon bookkeeping"):
        decompose(gen.cycles[1], gen)
    s1 = frozenset({g.id_of_label((2, 2))})
    s2 = frozenset({g.id_of_label((3, 1)), g.id_of_label((1, 3))})
    with pytest.raises(RuntimeError, match="^echelon bookkeeping"):
        crossing_cycle_witness(g, gen, s1, s2, g.id_of_label((1, 1)), g.id_of_label((3, 3)))


@settings(max_examples=50, deadline=None)
@given(small_graphs(), st.data())
def test_decompose_roundtrip_and_span_oracle(g, data):
    gen = fundamental_basis(g)
    if not gen.cycles:
        return
    picks = data.draw(st.sets(
        st.integers(min_value=0, max_value=len(gen.cycles) - 1)))
    target = EdgeVector(g)
    for i in picks:
        target = target + gen.cycles[i]
    idxs = decompose(target, gen)
    back = EdgeVector(g)
    for i in idxs:
        back = back + gen.cycles[i]
    assert back == target
    assert sorted(picks) == idxs            # basis ⇒ unique combination
    assert gf2_in_span([c.edge_ids() for c in gen.cycles], target.edge_ids())


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=1_000_000))
def test_fundamental_basis_spans_random_closed_walks(g, walk_seed):
    """Random closed walks are cycle-space elements and always decompose."""
    rng = random.Random(walk_seed)
    v = rng.randrange(g.vertex_count)
    walk = [v]
    for _ in range(rng.randint(2, 30)):
        v = rng.choice(g.adjacency[v])
        walk.append(v)
    # close the walk by returning along the reverse of an entry prefix
    first = walk.index(walk[-1]) if walk[-1] in walk[:-1] else None
    if first is None:
        back = walk[::-1][1:]
        walk.extend(back)
    else:
        walk = walk[first:]
    target = EdgeVector.from_vertex_path(g, walk)
    assert target.is_even()
    idxs = decompose(target, fundamental_basis(g))
    assert isinstance(idxs, list)


def _prefix_raisers(vectors):
    """Indices of the vectors that raise the rank of their prefix: the
    in-order greedy basis, by the set-based elimination oracle."""
    raisers, rank = [], 0
    for i in range(len(vectors)):
        r = gf2_rank_sets(vectors[:i + 1])
        if r > rank:
            raisers.append(i)
        rank = r
    return raisers


@pytest.mark.parametrize("d, side", [(3, 3), (4, 2)])
@pytest.mark.parametrize("shuffle_seed", [None, 1, 2])
def test_echelon_matches_the_elimination_oracle(d, side, shuffle_seed):
    """On overcomplete unit-face sets, in order and shuffled: generators
    that appear in decompositions are exactly the prefix-rank raisers,
    every decomposition sums back to its target, and solve finds no
    combination exactly when the target lies outside the span."""
    spec = BoxSpec(d, side, "plain")
    g = build_box(spec)
    faces = list(four_cycle_gen(spec).cycles)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(faces)
    gen = CycleGen(g, faces)
    ids = [c.edge_ids() for c in faces]
    raisers = _prefix_raisers(ids)
    assert gen.rank == len(raisers) == cycle_space_rank(g) < len(faces)

    rng = random.Random(f"{d}:{side}:{shuffle_seed}")
    targets = [c.bits for c in faces]
    for _ in range(60):
        t = 0
        for c in rng.sample(faces, rng.randint(0, 6)):
            t ^= c.bits
        targets.append(t)
    used = set()
    for t in targets:
        idxs = decompose(EdgeVector(g, t), gen)
        back = 0
        for i in idxs:
            back ^= faces[i].bits
        assert back == t
        used.update(idxs)
    assert sorted(used) == raisers

    for _ in range(150):
        if rng.random() < 0.5:
            t = rng.getrandbits(g.edge_count)
        else:                           # a sum of faces, one edge flipped or not
            t = 0
            for c in rng.sample(faces, rng.randint(1, 5)):
                t ^= c.bits
            t ^= rng.choice([0, 1 << rng.randrange(g.edge_count)])
        outside = not gf2_in_span(ids, EdgeVector(g, t).edge_ids())
        assert (gen.solve(t) is None) == outside


@pytest.mark.parametrize("side, rank", [(7, 540), (9, 1216)])
def test_unit_face_rank_in_three_dimensions(side, rank):
    spec = BoxSpec(3, side, "plain")
    assert four_cycle_gen(spec).rank == cycle_space_rank(build_box(spec)) == rank


def test_dependent_generators_never_get_coefficients():
    g = ring(4)
    c = EdgeVector.from_vertex_path(g, [0, 1, 2, 3, 0])
    gen = CycleGen(g, [c, c, c])        # wildly overcomplete
    assert gen.rank == 1
    assert decompose(c, gen) == [0]     # later copies stay at coefficient 0


# --- the crossing witness ----------------------------------------------------------

def _judge_witness(g, o, s1, s2, x):
    """Whether ``o`` touches ``s1``, whether it touches ``s2``, and how many
    of its edges join ``s2`` to x's side of ``g`` minus ``s1 ∪ s2``, from
    definitions: the side by union-find, the rest by scanning the edges
    whose ids are set in ``o.bits``."""
    rest = set(range(g.vertex_count)) - s1 - s2
    side = next(c for c in flood_components(g.edges, rest) if x in c)
    edges = [e for i, e in enumerate(g.edges) if o.bits >> i & 1]
    crossing = sum(1 for u, v in edges
                   if (u in s2 and v in side) or (v in s2 and u in side))
    return (any(u in s1 or v in s1 for u, v in edges),
            any(u in s2 or v in s2 for u, v in edges), crossing)


def test_witness_on_a_plain_ring():
    g = ring(4)                          # a-b-c-d-a as 0-1-2-3-0
    gen = fundamental_basis(g)
    s1, s2 = frozenset({1}), frozenset({3})
    o = crossing_cycle_witness(g, gen, s1, s2, 0, 2)
    assert o == gen.cycles[0] and len(o) == 4
    assert _judge_witness(g, o, s1, s2, 0) == (True, True, 1)


def test_witness_on_hexagon_split():
    g = ring(6)
    gen = fundamental_basis(g)
    o = crossing_cycle_witness(g, gen, frozenset({1}), frozenset({4}), 0, 3)
    assert len(o) == 6                  # the only cycle there is


def test_witness_on_box_antidiagonal():
    spec = BoxSpec(2, 3, "plain")
    g = build_box(spec)
    gen = four_cycle_gen(spec)
    x, y = g.id_of_label((1, 1)), g.id_of_label((3, 3))
    s1 = frozenset({g.id_of_label((2, 2))})
    s2 = frozenset({g.id_of_label((3, 1)), g.id_of_label((1, 3))})
    s = s1 | s2
    assert is_minimal_cutset(g, s, x, frozenset({y}))
    o = crossing_cycle_witness(g, gen, s1, s2, x, y)
    # independently: scan all generators for the postconditions
    valid = []
    for c in gen.cycles:
        touches1, touches2, crossing = _judge_witness(g, c, s1, s2, x)
        if touches1 and touches2 and crossing % 2 == 1:
            valid.append(c)
    assert o in valid


def test_witness_validates_inputs():
    g = ring(4)
    gen = fundamental_basis(g)
    with pytest.raises(InputError, match="nonempty"):
        crossing_cycle_witness(g, gen, frozenset(), frozenset({3}), 0, 2)
    with pytest.raises(InputError, match="disjoint"):
        crossing_cycle_witness(g, gen, frozenset({1}), frozenset({1, 3}), 0, 2)
    with pytest.raises(InputError, match="differ"):
        crossing_cycle_witness(g, gen, frozenset({1}), frozenset({3}), 0, 0)
    with pytest.raises(InputError, match="avoid"):
        crossing_cycle_witness(g, gen, frozenset({1}), frozenset({3}), 1, 2)
    with pytest.raises(InputError, match="minimal"):
        # {1, 2} fails to separate 0 from 3 around the other side
        crossing_cycle_witness(g, gen, frozenset({1}), frozenset({2}), 0, 3)
    for x, y in [(0.0, 2), (False, 2), (0, 2.0), (2, False)]:
        with pytest.raises(InputError, match="^a vertex id is an int, got "):
            crossing_cycle_witness(g, gen, frozenset({1}), frozenset({3}), x, y)
    weak = CycleGen(build_box(BoxSpec(2, 3, "plain")),
                    four_cycle_gen(BoxSpec(2, 3, "plain")).cycles[:1])
    gbox = build_box(BoxSpec(2, 3, "plain"))
    for _ in range(2):      # the repeat reads the box's remembered component count
        with pytest.raises(InputError, match="span"):
            crossing_cycle_witness(gbox, weak, frozenset({1}), frozenset({3}), 0, 4)


def _prune_to_minimal_cutset(g, s, x, y):
    """Greedy pruning: drop vertices while the remainder still separates."""
    s = set(s)
    changed = True
    while changed:
        changed = False
        for v in sorted(s):
            smaller = frozenset(s - {v})
            if x in smaller or y in smaller:
                continue
            from boundarykit import is_cutset
            if is_cutset(g, smaller, x, frozenset({y})):
                s.remove(v)
                changed = True
                break
    return frozenset(s)


def _draw_split_cutset(g, data):
    """``(x, y, s1, s2)``: a minimal cutset between x and y, pruned from a
    neighbourhood separator of x and split in two; None when there is
    none with two members."""
    pool = st.integers(min_value=0, max_value=g.vertex_count - 1)
    x = data.draw(pool)
    non_nbrs = [v for v in range(g.vertex_count)
                if v != x and not g.has_edge(x, v)]
    if not non_nbrs:
        return None
    y = data.draw(st.sampled_from(non_nbrs))
    s = _prune_to_minimal_cutset(g, set(g.adjacency[x]) - {y}, x, y)
    if len(s) < 2:
        return None
    assert is_minimal_cutset_oracle(g.vertex_count, g.edges, s, x, {y})
    members = sorted(s)
    cut = data.draw(st.integers(min_value=1, max_value=len(members) - 1))
    return x, y, frozenset(members[:cut]), frozenset(members[cut:])


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.data())
def test_witness_postconditions_on_random_minimal_cutsets(g, data):
    """Build minimal cutsets by pruning a neighborhood separator, then check
    every witness postcondition against the union-find and edge-scan
    oracle."""
    gen = fundamental_basis(g)
    drawn = _draw_split_cutset(g, data)
    if drawn is None:
        return
    x, y, s1, s2 = drawn
    o = crossing_cycle_witness(g, gen, s1, s2, x, y)
    assert any(o.bits == c.bits for c in gen.cycles)
    touches1, touches2, crossing = _judge_witness(g, o, s1, s2, x)
    assert touches1 and touches2 and crossing % 2 == 1


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.data())
def test_the_public_witness_is_the_mask_kernel(g, data):
    """``crossing_cycle_witness`` checks the ids and converts the halves;
    the vector is the mask kernel's."""
    drawn = _draw_split_cutset(g, data)
    if drawn is None:
        return
    x, y, s1, s2 = drawn
    mask = _neighbourhood_plan(g).mask
    want = _crossing_witness(g, fundamental_basis(g), mask(s1), mask(s2), x, y)
    assert crossing_cycle_witness(g, fundamental_basis(g), s1, s2, x, y) == want


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.data())
def test_mask_postconditions_match_the_set_oracle(g, data):
    """The campaign's postconditions on masks give the frozenset oracle's
    problem list for every generator, most of which are wrong witnesses,
    and for the true witness.  The generators are judged before the
    witness runs, so the postconditions cannot lean on its state."""
    gen = fundamental_basis(g)
    drawn = _draw_split_cutset(g, data)
    if drawn is None:
        return
    x, y, s1, s2 = drawn
    mask = _neighbourhood_plan(g).mask
    s1m, s2m = mask(s1), mask(s2)

    def agree(o):
        want = crossing_postconditions_by_sets(g, o, s1, s2, x, s1 | s2)
        assert _crossing_postconditions(g, o, s1m, s2m, x, s1m | s2m) == want
        return want

    for c in gen.cycles:
        agree(c)
    assert agree(crossing_cycle_witness(g, gen, s1, s2, x, y)) == []
