"""The box premise judge, the triangular certificate and the graph
constructor core.

``lattice._box_premises`` judges the dp/k premises of a box pair on lane
masks; the public checkers, run on ``four_cycle_gen`` and
``extra_edge_patches``, are its oracle, for every flavor and for
augmentations made of chosen edge classes.  ``cyclespace._triangular_rank``
certifies a span without the echelon; both of its branches are checked
against the rank.  ``Graph.__new__(Graph)._build`` is the constructor core
that box builds and random hosts use without the per-edge validation of
``Graph(...)``.
"""

import random
from itertools import product

import pytest

import boundarykit.cyclespace as cyclespace
import boundarykit.graphs as graphs
import boundarykit.harness as harness
import boundarykit.lattice as lattice
from boundarykit import (BoxSpec, CycleGen, EdgeVector, Graph, GraphPair, TrialConfig,
                         build_box, build_box_pair, check_dp_hypotheses,
                         check_k_hypotheses, cycle_space_rank, extra_edge_patches,
                         four_cycle_gen, hypothesis_report, is_generating,
                         random_connected_graph, run_verification)
from boundarykit.cli import main
from boundarykit.cyclespace import _triangular_rank

# every side the budget allows, side 1 (no face) and side 2 (shared id
# differences) included
_BOXES = [BoxSpec(2, n, "plain") for n in range(1, 7)] + \
         [BoxSpec(3, n, "plain") for n in range(1, 5)] + \
         [BoxSpec(4, n, "plain") for n in range(1, 4)]


def _oracle(pair: GraphPair, box: BoxSpec, patched: bool) -> tuple:
    """The public checkers' verdict and counts on the box's unit faces and,
    for k, its patch cycles."""
    gen = four_cycle_gen(box)
    if not patched:
        return check_dp_hypotheses(pair, gen), {"generators": len(gen)}
    patches = extra_edge_patches(pair)
    return (check_k_hypotheses(pair, gen, patches),
            {"generators": len(gen), "patch_cycles": len(patches)})


def _judge(box: BoxSpec, pair: GraphPair, patched: bool, monkeypatch) -> tuple:
    """The lane judge on ``pair``, which stands in for the box pair."""
    monkeypatch.setattr(lattice, "build_box_pair", lambda spec, flavor: pair)
    got, holds, counts = lattice._box_premises(box, "custom", patched)
    assert got is pair and counts.pop("augmentation") == "custom"
    return holds, counts


@pytest.mark.parametrize("box", _BOXES, ids=str)
@pytest.mark.parametrize("theorem", ["dp", "k"])
def test_the_lane_judge_gives_the_public_checkers_verdict_and_counts(theorem, box):
    """Every theorem, every augmentation, d = 2…4 and every side up to the
    test budget: the report fields of ``hypothesis_report`` are those of
    the public checkers, failing premises included (a plain probe, a
    plain k adjacency)."""
    row = harness._BOUNDARY_THEOREMS[theorem]
    for flavor in ("plain", "plus", "star"):
        override = {row.override: flavor}
        rep = hypothesis_report(theorem, box, **override)
        holds, counts = _oracle(build_box_pair(box, flavor), box, row.patched)
        assert rep == {"schema": 1, "theorem": theorem, "box": str(box), "pass": holds,
                       "augmentation": flavor, **counts}
        assert holds == (flavor != "plain" or box.side < 2)


def _class_pair(box: BoxSpec, classes) -> GraphPair:
    """The plain box with the augmentation edges of the chosen move
    classes: each class a move of two or more changed coordinates, the
    highest changed one +1, joined wherever it fits."""
    g = build_box(box)
    n = box.side
    extra = []
    for u, lab in enumerate(g.labels):
        for move in classes:
            if all(1 <= c + m <= n for c, m in zip(lab, move)):
                extra.append((u, g.id_of_label(tuple(c + m for c, m in zip(lab, move)))))
    return GraphPair(g, Graph(g.vertex_count, list(g.edges) + extra, labels=g.labels))


def _diagonal_classes(d: int) -> list:
    return [move for move in product((-1, 0, 1), repeat=d)
            if sum(map(abs, move)) >= 2 and [m for m in move if m][-1] == 1]


@pytest.mark.parametrize("box", [BoxSpec(2, 2, "plain"), BoxSpec(2, 4, "plain"),
                                 BoxSpec(3, 2, "plain"), BoxSpec(3, 3, "plain")], ids=str)
def test_the_lane_judge_agrees_on_augmentations_of_chosen_edge_classes(monkeypatch, box):
    """G⁺ as the plain box plus some of the diagonal move classes: one
    diagonal of a face without the other, a cube diagonal without the
    face diagonals it needs.  Such pairs fail a single clique pair or a
    single patch step, so the judge must check each of them; its verdict
    and counts are the public checkers' on every class set drawn."""
    classes = _diagonal_classes(box.d)
    rng = random.Random(f"classes:{box}")
    sets = [[c] for c in classes] + [rng.sample(classes, k) for k in
                                     range(2, len(classes) + 1) for _ in range(3)]
    verdicts = set()
    for chosen in sets:
        pair = _class_pair(box, chosen)
        for patched in (False, True):
            want = _oracle(pair, box, patched)
            assert _judge(box, pair, patched, monkeypatch) == want, (chosen, patched)
            verdicts.add(want[0])
    assert verdicts == {True, False}


@pytest.mark.parametrize("theorem", ["dp", "k"])
def test_a_one_dimensional_box_keeps_its_refusal(capsys, theorem):
    assert main(["hypotheses", theorem, "--box", "z1:5:plain"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: a one-dimensional box has a trivial cycle space\n")


def test_patch_lanes_must_cover_every_augmentation_only_edge(monkeypatch):
    """The patch lanes' popcounts must add up to |E(G⁺)| − |E(G)|: an
    augmentation edge that no move's lanes hold fails the premises,
    chordal as every patch cycle of the others may be."""
    box = BoxSpec(2, 4, "plain")
    pair = build_box_pair(box, "star")
    g = pair.g
    far = (g.id_of_label((1, 1)), g.id_of_label((3, 1)))     # two steps apart
    odd = GraphPair(g, Graph(g.vertex_count, list(pair.g_plus.edges) + [far], labels=g.labels))
    assert _judge(box, pair, True, monkeypatch) == (True, {"generators": 9, "patch_cycles": 18})
    assert _judge(box, odd, True, monkeypatch) == (False, {"generators": 9, "patch_cycles": 18})
    assert _judge(box, odd, False, monkeypatch) == (True, {"generators": 9})


# --- the triangular certificate -------------------------------------------------

def _by_lowest(cycles) -> list:
    """``(0, bits)`` per cycle by lowest vertex, then by index, the order
    ``is_generating`` hands to the certificate."""
    def lowest(c):
        touched = c._cycle_vertices()
        return touched & -touched

    return [(0, c.bits) for c in sorted(cycles, key=lowest)]


def _refuse_echelon(monkeypatch):
    def refuse(vectors):
        raise AssertionError("the echelon was built")

    monkeypatch.setattr(cyclespace, "_forward_echelon", refuse)
    monkeypatch.setattr(lattice, "_forward_echelon", refuse)


@pytest.mark.parametrize("box", [BoxSpec(2, 9, "plain"), BoxSpec(3, 7, "plain"),
                                 BoxSpec(4, 4, "plain"), BoxSpec(5, 3, "plain")], ids=str)
def test_box_faces_span_on_the_certificate_alone(monkeypatch, box):
    """Taken by lowest corner, then by plane, the unit faces that bring an
    edge no earlier face has number the cycle rank, though for d ≥ 3 there
    are more faces than that: no echelon is built, neither by
    ``is_generating`` nor by the box judge."""
    g = build_box(box)
    faces = four_cycle_gen(box).cycles
    assert _triangular_rank(_by_lowest(faces)) == cycle_space_rank(g)
    _refuse_echelon(monkeypatch)
    assert is_generating(CycleGen(g, faces), g)
    harness._box_setting.cache_clear()
    assert hypothesis_report("dp", box)["pass"]


def _dropped_faces(box: BoxSpec) -> list:
    """A generating set with holes: the unit faces whose lowest corner
    does not have two even coordinates."""
    g = build_box(box)
    return [c for c in four_cycle_gen(box).cycles
            if sum(x % 2 == 0 for x in g.labels[min(v for e in c.edges() for v in e)]) < 2]


def test_dropped_faces_fall_short_and_the_echelon_says_no():
    box = BoxSpec(2, 10, "plain")
    g = build_box(box)
    gen = CycleGen(g, _dropped_faces(box))
    rank = cycle_space_rank(g)
    assert _triangular_rank(_by_lowest(gen.cycles)) < rank
    assert gen.rank < rank
    assert not is_generating(gen, g)
    assert is_generating(gen, g) == (gen.rank == rank)


def _non_triangular(box: BoxSpec) -> list:
    """The unit faces of a z2 box with the first face of each row replaced
    by its sum with its two right-hand neighbours.  The set still spans,
    but the third face of each row comes after the sum and after the
    second face, which cover all of its edges between them."""
    g = build_box(box)
    faces = {g.labels[min(v for e in c.edges() for v in e)]: c for c in four_cycle_gen(box).cycles}
    return [face + faces[x + 1, y] + faces[x + 2, y] if x == 1 else face
            for (x, y), face in sorted(faces.items(), key=lambda item: item[0][::-1])]


@pytest.mark.parametrize("side", [4, 5, 6, 8])
def test_a_spanning_set_that_is_not_triangular_goes_to_the_echelon(monkeypatch, side):
    box = BoxSpec(2, side, "plain")
    g = build_box(box)
    gen = CycleGen(g, _non_triangular(box))
    rank = cycle_space_rank(g)
    assert _triangular_rank(_by_lowest(gen.cycles)) < rank == gen.rank
    assert is_generating(gen, g)
    assert is_generating(gen, g) == (gen.rank == rank)
    _refuse_echelon(monkeypatch)
    with pytest.raises(AssertionError, match="echelon"):
        is_generating(CycleGen(g, _non_triangular(box)), g)


def test_a_short_certificate_hands_the_box_faces_to_the_echelon(monkeypatch):
    """Were the certificate to fall short on a box, the echelon of the
    keyed faces would decide, and the box faces would still span."""
    monkeypatch.setattr(lattice, "_triangular_rank", lambda generators: 0)
    harness._box_setting.cache_clear()
    for theorem, box in [("dp", BoxSpec(2, 5, "plain")), ("k", BoxSpec(3, 3, "plain"))]:
        assert hypothesis_report(theorem, box)["pass"]
    harness._box_setting.cache_clear()


def test_the_echelon_fallback_gets_the_face_keys_afresh(monkeypatch):
    """The certificate reads the face keys lazily, all of them; were it to
    fall short after that, the echelon must read them again, not the
    spent iterator, which would hand it no face at all."""
    certificate = lattice._triangular_rank
    monkeypatch.setattr(lattice, "_triangular_rank", lambda keys: certificate(keys) - 1)
    harness._box_setting.cache_clear()
    for theorem, box in [("dp", BoxSpec(2, 5, "plain")), ("k", BoxSpec(3, 3, "plain"))]:
        assert hypothesis_report(theorem, box)["pass"]
    harness._box_setting.cache_clear()


@pytest.mark.parametrize("cycles", ["faces", "dropped", "non-triangular", "fundamental"])
def test_is_generating_is_the_rank_test(cycles):
    box = BoxSpec(2, 6, "plain")
    g = build_box(box)
    gen = {"faces": lambda: CycleGen(g, four_cycle_gen(box).cycles),
           "dropped": lambda: CycleGen(g, _dropped_faces(box)),
           "non-triangular": lambda: CycleGen(g, _non_triangular(box)),
           "fundamental": lambda: cyclespace.fundamental_basis(g)}[cycles]()
    assert is_generating(gen, g) == (gen.rank == cycle_space_rank(g))


# --- a passing set-up builds no edge vector ---------------------------------------

_SETUPS = [
    TrialConfig(theorem="k", box=BoxSpec(3, 7, "plain"), mode="random", max_size=12,
                trials=200, x_policy="all-outside"),
    TrialConfig(theorem="dp", box=BoxSpec(2, 9, "plain"), max_size=5),
    TrialConfig(theorem="k", box=BoxSpec(3, 2, "plain"), max_size=2, x_policy="fixed",
                x_vertex=0, margin=0),
]


def test_a_passing_set_up_builds_no_edge_vector(monkeypatch):
    """The premise verdict comes from lanes and the certificate: with
    ``EdgeVector`` and ``CycleGen`` refusing to be built, and every set-up
    cache cleared, ``hypotheses`` and passing dp and k campaigns give the
    reports they give otherwise."""
    hyps = [("k", BoxSpec(3, 7, "plain"), {}), ("k", BoxSpec(3, 2, "plain"), {}),
            ("dp", BoxSpec(4, 5, "plain"), {}), ("dp", BoxSpec(3, 4, "plain"), {"probe": "plain"}),
            ("k", BoxSpec(3, 5, "plain"), {"g_prime": "plain"})]
    want_hyps = [hypothesis_report(t, box, **kw) for t, box, kw in hyps]
    want_runs = [run_verification(cfg).to_json(include_elapsed=False) for cfg in _SETUPS]
    assert all(run["passed"] for run in want_runs)

    def refuse(self, *args):
        raise AssertionError(f"a {type(self).__name__} was built")

    monkeypatch.setattr(EdgeVector, "__init__", refuse)
    monkeypatch.setattr(CycleGen, "__init__", refuse)
    for cached in (harness._box_setting, build_box, four_cycle_gen):
        cached.cache_clear()
    with pytest.raises(AssertionError, match="EdgeVector"):
        EdgeVector(build_box(BoxSpec(2, 2, "plain")), 0)
    assert [hypothesis_report(t, box, **kw) for t, box, kw in hyps] == want_hyps
    assert [run_verification(cfg).to_json(include_elapsed=False)
            for cfg in _SETUPS] == want_runs
    for cached in (harness._box_setting, build_box, four_cycle_gen):
        cached.cache_clear()


# --- the constructor core ----------------------------------------------------------

def _same_graph(a: Graph, b: Graph) -> None:
    assert (a.vertex_count, a.edges, a.adjacency, a.labels) == \
           (b.vertex_count, b.edges, b.adjacency, b.labels)
    assert a._edge_ids == b._edge_ids and a._label_ids == b._label_ids


def test_the_core_and_the_validated_constructor_build_equal_random_hosts():
    """Over 1,200 draws of ``(n, extra, seed)``, the random host, built by
    the core, equals the validated ``Graph(...)`` of its edges, each pair
    given in a drawn orientation and the list shuffled."""
    rng = random.Random("core")
    for _ in range(1200):
        n, extra, seed = rng.randint(1, 30), rng.randint(0, 40), rng.randrange(10 ** 6)
        g = random_connected_graph(n, extra, seed)
        edges = [e if rng.random() < 0.5 else e[::-1] for e in g.edges]
        rng.shuffle(edges)
        _same_graph(g, Graph(n, edges))


@pytest.mark.parametrize("box", [BoxSpec(d, n, flavor) for d in range(1, 5)
                                 for n in range(1, 5) for flavor in
                                 ("plain", "plus", "star") if (d, flavor) != (1, "plus")], ids=str)
def test_the_core_and_the_validated_constructor_build_equal_boxes(box):
    g = build_box(box)
    _same_graph(g, Graph(g.vertex_count, [list(e) for e in reversed(g.edges)],
                         labels=[list(lab) for lab in g.labels]))


def test_the_core_validates_no_id_one_by_one(monkeypatch):
    """Box builds and random hosts pass no edge through ``_is_id``; the
    core keeps its invariants by whole-list checks."""
    calls = []
    is_id = graphs._is_id
    monkeypatch.setattr(graphs, "_is_id", lambda v: calls.append(v) or is_id(v))
    build_box.cache_clear()
    build_box(BoxSpec(3, 7, "star"))
    random_connected_graph(30, 40, 1)
    assert calls == []
    Graph(3, [(0, 1), (1, 2)])
    assert len(calls) == 5
    build_box.cache_clear()


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1), (-1, 2)], "edge (-1, 2) has an endpoint outside 0..2"),
    ([(0, 3)], "edge (0, 3) has an endpoint outside 0..2"),
    ([(0, 1), (1, 1)], "loop at vertex 1 is not allowed"),
    ([(1, 2), (0, 1), (1, 2)], "duplicate edge (1, 2)"),
], ids=["negative", "too-large", "loop", "duplicate"])
def test_the_core_keeps_its_invariants(pairs, message):
    with pytest.raises(graphs.InputError) as exc:
        Graph.__new__(Graph)._build(3, pairs)
    assert str(exc.value) == message
    with pytest.raises(graphs.InputError) as exc:
        Graph(3, [p[::-1] for p in pairs])
    assert str(exc.value) == message
    with pytest.raises(graphs.InputError, match="2 labels for 3 vertices"):
        Graph.__new__(Graph)._build(3, [(0, 1)], ((1,), (2,)))
    with pytest.raises(graphs.InputError, match="distinct"):
        Graph.__new__(Graph)._build(3, [(0, 1)], ((1,), (2,), (1,)))
