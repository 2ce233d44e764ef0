"""Harness: enumeration, sampling, premise checks, campaigns, determinism."""

import hashlib
import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from boundarykit import (BoundaryReport, BoxSpec, CycleGen, EdgeVector, InputError,
                         TrialConfig, build_box, build_box_pair,
                         check_dp_hypotheses, check_k_hypotheses,
                         enumerate_connected_subsets,
                         extra_edge_patches, four_cycle_gen, full_report,
                         fundamental_basis, hypothesis_report, margin_interior,
                         random_connected_graph, report_to_json,
                         run_verification, sample_connected_subset,
                         vertexset_to_json)

from boundarykit.cli import main
from boundarykit.graphs import _members, _neighbourhood_plan
from boundarykit.harness import _connected_masks
from oracles import (_failing_observers, apexed_graph, apexed_roles, chordal_by_pairs,
                     connected_by_flood, connected_subset_by_randrange,
                     connected_subsets_by_growth, connected_subsets_by_powerset,
                     random_graph_by_randrange)


# --- exhaustive enumeration -----------------------------------------------------

def test_enumerate_two_by_two_box():
    g = build_box(BoxSpec(2, 2, "plain"))
    subs = list(enumerate_connected_subsets(g, 4))
    assert len(subs) == 13          # 4 singles + 4 dominoes + 4 triominoes + 1 square
    assert len(set(subs)) == 13     # exactly once each
    by_size = sorted(len(s) for s in subs)
    assert by_size == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4]


def test_enumerate_singletons_and_pairs():
    g = build_box(BoxSpec(2, 3, "plain"))
    singles = list(enumerate_connected_subsets(g, 1))
    assert len(singles) == 9 and all(len(s) == 1 for s in singles)
    up_to_two = list(enumerate_connected_subsets(g, 2))
    assert len(up_to_two) == 9 + 12          # singletons + one per edge


def test_enumerate_respects_allowed_region():
    g = build_box(BoxSpec(2, 5, "plain"))
    inner = margin_interior(g, 2)
    subs = list(enumerate_connected_subsets(g, 3, allowed=inner))
    assert all(s <= inner for s in subs)
    want = connected_subsets_by_powerset(g.vertex_count, g.edges, 3,
                                         allowed=inner)
    assert set(subs) == want


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=4))
def test_enumeration_matches_powerset_oracle(nv, extra, seed, max_size):
    g = random_connected_graph(nv, extra, seed)
    got = list(enumerate_connected_subsets(g, max_size))
    assert len(got) == len(set(got))
    assert set(got) == connected_subsets_by_powerset(nv, g.edges, max_size)


def test_enumeration_budget_guard():
    g = build_box(BoxSpec(2, 6, "plain"))           # 36 > 25 vertices
    with pytest.raises(InputError, match="budget"):
        list(enumerate_connected_subsets(g, 10))
    # fine with a small size cap even on the big box
    assert sum(1 for _ in enumerate_connected_subsets(g, 1)) == 36


def test_one_function_states_the_enumeration_budget():
    """``TrialConfig`` and ``enumerate_connected_subsets`` refuse an
    enumeration beyond the budget through one check, with one message."""
    box = BoxSpec(2, 6, "plain")           # 36 > 25 vertices
    refusals = []
    for refuse in (lambda: TrialConfig(theorem="dp", box=box, max_size=10),
                   lambda: list(enumerate_connected_subsets(build_box(box), 10))):
        with pytest.raises(InputError, match="budget") as info:
            refuse()
        refusals.append((info.traceback[-1].name, str(info.value)))
    assert refusals[0] == refusals[1]
    assert refusals[0][0] == "_require_budget"


@pytest.mark.parametrize("max_size", [0, -2])
def test_enumeration_refuses_a_size_cap_below_one(max_size):
    """No subset has fewer than one vertex: a cap below one is bad input,
    not an empty listing."""
    g = build_box(BoxSpec(2, 3, "plain"))
    with pytest.raises(InputError, match="^max_size must be ≥ 1$"):
        list(enumerate_connected_subsets(g, max_size))


def test_enumeration_canonical_order_is_stable():
    g = build_box(BoxSpec(2, 2, "plain"))
    first = [tuple(sorted(s)) for s in enumerate_connected_subsets(g, 4)]
    second = [tuple(sorted(s)) for s in enumerate_connected_subsets(g, 4)]
    assert first == second
    assert first[0] == (0,)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=11), st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=5),
       st.data())
def test_enumeration_order_matches_the_growth_oracle(nv, extra, seed, max_size, data):
    """Failure-record trial indices and pinned report digests rest on the
    order of the subsets, so the enumerator must list them as the
    frozenset growth does: as a sequence, not only as a set."""
    g = random_connected_graph(nv, extra, seed)
    allowed = data.draw(st.none() | st.frozensets(st.integers(0, nv - 1)))
    got = list(enumerate_connected_subsets(g, max_size, allowed=allowed))
    assert got == list(connected_subsets_by_growth(g.adjacency, max_size, allowed))


@pytest.mark.parametrize("box", [BoxSpec(2, 7, "star"), BoxSpec(3, 5, "plain")], ids=str)
@pytest.mark.parametrize("margin", [1, 2])
def test_enumeration_order_on_boxes(box, margin):
    g = build_box(box)
    inner = margin_interior(g, margin)
    got = list(enumerate_connected_subsets(g, 4, allowed=inner))
    assert got == list(connected_subsets_by_growth(g.adjacency, 4, inner))


def test_enumeration_order_on_the_exhaustive_dp_workload():
    """The campaign's own setting: z2:9, margin 2, subsets of up to 8
    vertices.  Its 40,401 leaves of size 8 are yielded without a stack
    frame, in the order the stack would pop them."""
    g = build_box(BoxSpec(2, 9, "plain"))
    inner = margin_interior(g, 2)
    got = [_members(m) for m in _connected_masks(g, 8, _neighbourhood_plan(g).mask(inner))]
    assert len(got) == 61_167
    sizes = [0] * 9
    for sub in got:
        sizes[len(sub)] += 1
    assert sizes[1:] == [49, 84, 214, 572, 1603, 4628, 13616, 40401]
    assert got == list(connected_subsets_by_growth(g.adjacency, 8, inner))


@pytest.mark.parametrize("max_size", [1, 2])
@pytest.mark.parametrize("holed", [False, True], ids=["whole", "holed"])
def test_enumeration_order_when_the_root_or_its_children_are_leaves(holed, max_size):
    """At size cap 1 every root is a leaf; at cap 2 the roots' children
    are.  ``holed`` allows the margin-1 interior less its centre."""
    g = build_box(BoxSpec(2, 7, "star"))
    plan = _neighbourhood_plan(g)
    inner = margin_interior(g, 1) - {g.id_of_label((4, 4))} if holed else None
    got = [_members(m) for m in
           _connected_masks(g, max_size, plan.mask(inner) if holed else plan.full)]
    assert got == list(connected_subsets_by_growth(g.adjacency, max_size, inner))
    assert len(got) == len(set(got)) > 0


@pytest.mark.parametrize("max_size", [2.5, 2.0, True, "3", None])
def test_enumeration_refuses_a_size_cap_that_is_no_int(max_size):
    """A float cap was never reached, so 2.5 listed every connected subset
    of the box; True read as 1."""
    g = build_box(BoxSpec(2, 4, "plain"))
    with pytest.raises(InputError, match=f"^max_size must be an int, got {re.escape(repr(max_size))}$"):
        next(enumerate_connected_subsets(g, max_size))


# --- randomized sampling -----------------------------------------------------------

def test_sample_connected_subset_basics():
    g = build_box(BoxSpec(2, 6, "plain"))
    assert len(sample_connected_subset(g, 1, seed="s")) == 1
    a = sample_connected_subset(g, 8, seed="twice")
    b = sample_connected_subset(g, 8, seed="twice")
    assert a == b
    with pytest.raises(InputError, match="grow"):
        sample_connected_subset(g, 37, seed="too-big")
    # two cells apart cannot grow a connected pair, and a graph needs a vertex
    apart = frozenset({g.id_of_label((2, 2)), g.id_of_label((4, 4))})
    with pytest.raises(InputError, match="^the allowed region cannot grow a connected "
                                         "subset of the requested size$"):
        sample_connected_subset(g, 2, seed="apart", allowed=apart)
    with pytest.raises(InputError, match="^need at least one vertex$"):
        random_connected_graph(0, 3, seed="empty")


def test_ten_thousand_samples_in_six_by_six_are_connected():
    g = build_box(BoxSpec(2, 6, "plain"))
    for i in range(10_000):
        s = sample_connected_subset(g, 8, seed=f"bulk:{i}")
        assert len(s) == 8
        assert connected_by_flood(g.edges, s)


def test_sampling_respects_allowed_region():
    g = build_box(BoxSpec(2, 5, "plain"))
    inner = margin_interior(g, 2)
    for i in range(50):
        s = sample_connected_subset(g, 4, seed=i, allowed=inner)
        assert s <= inner and connected_by_flood(g.edges, s)


def test_sampler_outputs_are_pinned():
    """The subsets that the public ``sample_connected_subset`` draws per
    seed, for a pool given as a frozenset, a set or a sorted list and for
    the whole graph.  This pins that function only: a random campaign
    draws each trial's size, growth and observer from one stream seeded
    by the trial, which ``test_the_sampled_instance_streams_are_pinned``
    pins."""
    g = build_box(BoxSpec(3, 7, "plain"))
    inner = margin_interior(g, 2)
    pins = [("0:0/c0", 12, [65, 66, 72, 73, 74, 80, 81, 87, 122, 123, 130, 137]),
            ("7:3/c1", 5, [234, 282, 283, 284, 285]),
            (42, 9, [114, 155, 156, 163, 164, 170, 205, 206, 212]),
            ("pin", 1, [86])]
    for seed, size, want in pins:
        assert sorted(sample_connected_subset(g, size, seed, allowed=inner)) == want
        # a set or a list of the same pool draws the same subset
        assert sorted(sample_connected_subset(g, size, seed, allowed=set(inner))) == want
        assert sorted(sample_connected_subset(g, size, seed, allowed=sorted(inner))) == want
    r = random_connected_graph(40, 15, seed="pin-graph")
    assert r.labels is None
    for seed, size, want in [("a", 6, [4, 5, 17, 31, 34, 35]),
                             ("b", 11, [2, 4, 5, 10, 12, 20, 21, 27, 31, 34, 35]),
                             (3, 2, [15, 36])]:
        assert sorted(sample_connected_subset(r, size, seed)) == want
    evens = frozenset(range(0, 40, 2)) | frozenset(range(1, 12))
    assert sorted(sample_connected_subset(r, 7, "c", allowed=evens)) == [
        2, 10, 12, 14, 18, 24, 30]


def test_below_draws_what_randrange_draws():
    """``_below`` takes from the stream exactly what ``randrange``,
    ``randint`` and ``shuffle`` take, call for call in one shared stream,
    on either side of every power of two up to 2^70."""
    import random

    from boundarykit.harness import _below, _shuffle
    ns = sorted({m for j in range(71) for m in (2 ** j - 1, 2 ** j, 2 ** j + 1) if m})
    for seed in ("below", 7):
        ours, theirs = random.Random(seed), random.Random(seed)
        bits = ours.getrandbits
        for n in ns:
            assert _below(bits, n) == theirs.randrange(n)
            assert 3 + _below(bits, n) == theirs.randint(3, n + 2)
            mine, stdlib = list(range(n % 13)), list(range(n % 13))
            _shuffle(bits, mine)
            theirs.shuffle(stdlib)
            assert mine == stdlib
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [0, -1, -8])
def test_below_refuses_an_empty_range(n):
    """``getrandbits(0)`` is 0, which a bare rejection loop would reject
    forever; an empty range raises as ``randrange`` does instead."""
    import random

    from boundarykit.harness import _below
    rng = random.Random(n)
    calls = []

    def bits(k):
        calls.append(k)
        assert len(calls) < 100, "the rejection loop does not end"
        return rng.getrandbits(k)

    with pytest.raises(ValueError):
        random.Random(n).randrange(n)
    with pytest.raises(ValueError):
        _below(bits, n)


def test_growth_draws_what_the_randrange_growth_draws():
    """The set-and-filter growth against its draw oracle, the mask-and-list
    growth on ``randrange``: the same subsets and the same stream left
    behind, for every size on a box pool (many stale frontier entries), a
    margin interior and a random graph."""
    import random

    import boundarykit.harness as harness
    g = build_box(BoxSpec(3, 5, "plain"))
    r = random_connected_graph(30, 12, seed="oracle")
    for host, allowed in ((g, None), (g, margin_interior(g, 1)), (r, None)):
        pool = harness._sampling_pool(host, allowed)
        for size in range(1, 13):
            for seed in range(25):
                ours, theirs = random.Random(f"{size}/{seed}"), random.Random(f"{size}/{seed}")
                assert (harness._grow(*pool, size, ours)
                        == connected_subset_by_randrange(*pool, size, theirs))
                assert ours.getstate() == theirs.getstate()


def test_random_hosts_draw_what_the_randrange_hosts_draw():
    """``random_connected_graph`` and the crossing trial's ``_random_graph``
    against their draw oracle on ``shuffle``, ``randrange``, ``min`` and
    ``max``: the same edges and the same stream left behind, on 336
    (vertex count, extra edges, seed) triples.  They include trees
    (``extra_edges = 0``), one and two vertices, whose chord draws never
    land, the lemma's host sizes, and dense requests that run out of
    attempts before they run out of chords to add."""
    import random

    import boundarykit.harness as harness
    shapes = ([(n, e) for n in (1, 2, 3, 5) for e in (0, 1, 4)]
              + [(n, e) for n in (8, 12, 16) for e in (0, 2, n // 4, n)]
              + [(6, 15), (7, 40), (9, 60), (40, 30)])
    triples = [(n, e, seed) for n, e in shapes for seed in range(12)]
    assert len(triples) == 336
    full = 0
    for n, e, seed in triples:
        want = random_graph_by_randrange(n, e, random.Random(seed))
        assert random_connected_graph(n, e, seed).edges == want
        ours, theirs = random.Random(f"host:{seed}"), random.Random(f"host:{seed}")
        assert harness._random_graph(n, e, ours).edges == random_graph_by_randrange(n, e, theirs)
        assert ours.getstate() == theirs.getstate()
        full += len(want) < n - 1 + e and len(want) == n * (n - 1) // 2
    assert full >= 24      # complete graphs short of their request: the attempt cap binds


@pytest.mark.parametrize("vertex_count, extra_edges, message", [
    (2.5, 3, "^vertex_count must be an int, got 2.5$"),
    (9, "2", "^extra_edges must be an int, got '2'$"),
    (9, 2.5, "^extra_edges must be an int, got 2.5$"),
    (9, -3, "^extra_edges must be ≥ 0, got -3$"),
], ids=["fractional-vertex-count", "string-extra-edges", "fractional-extra-edges",
        "negative-extra-edges"])
def test_random_graph_refuses_counts_that_are_no_ids(vertex_count, extra_edges, message):
    with pytest.raises(InputError, match=message):
        random_connected_graph(vertex_count, extra_edges, seed="bad")


@pytest.mark.parametrize("size", [2.5, 3.0, True, "3"])
def test_sampler_refuses_a_size_that_is_no_int(size):
    g = build_box(BoxSpec(2, 6, "plain"))
    for allowed in (None, margin_interior(g, 2)):
        with pytest.raises(InputError, match=f"^size must be an int, got {re.escape(repr(size))}$"):
            sample_connected_subset(g, size, "s", allowed=allowed)


def test_sampler_rejects_an_out_of_range_pool():
    g = build_box(BoxSpec(2, 6, "plain"))
    sample_connected_subset(g, 3, "warm", allowed=frozenset({7, 8, 9}))
    for pool, bad in [({5, 40, 37}, "37"), ({-2, 40, 5}, "-2"), ({36}, "36")]:
        for _ in range(2):           # a refused pool is refused every time
            with pytest.raises(InputError, match=f"vertex id {bad} outside"):
                sample_connected_subset(g, 1, "s", allowed=frozenset(pool))


# --- premise checkers ----------------------------------------------------------------

def test_dp_premises_hold_with_plus_and_fail_with_plain():
    base = BoxSpec(2, 4, "plain")
    gen = four_cycle_gen(base)
    assert check_dp_hypotheses(build_box_pair(base, "plus"), gen)
    assert check_dp_hypotheses(build_box_pair(base, "star"), gen)
    assert not check_dp_hypotheses(build_box_pair(base, "plain"), gen)


def test_dp_premises_fail_for_long_fundamental_cycles():
    base = BoxSpec(2, 4, "plain")
    fund = fundamental_basis(build_box(base))
    assert not check_dp_hypotheses(build_box_pair(base, "star"), fund)


def test_dp_premises_need_matching_host():
    gen = four_cycle_gen(BoxSpec(2, 3, "plain"))
    with pytest.raises(InputError, match="base graph"):
        check_dp_hypotheses(build_box_pair(BoxSpec(2, 4, "plain"), "plus"), gen)


def test_the_premise_checks_walk_each_generator_once(monkeypatch):
    """``CycleGen`` keeps each generator's vertex mask from the walk that
    checks it is a cycle, and ``check_dp_hypotheses`` reads those masks:
    it walks no generator again, and ``check_k_hypotheses`` walks only its
    patch cycles."""
    base = BoxSpec(3, 4, "plain")
    gen = four_cycle_gen(base)
    walk, walks = EdgeVector._cycle_vertices, []
    assert gen._vertices == [walk(o) for o in gen.cycles] and all(gen._vertices)
    monkeypatch.setattr(EdgeVector, "_cycle_vertices",
                        lambda self: walks.append(self) or walk(self))
    assert check_dp_hypotheses(build_box_pair(base, "plus"), gen)
    assert not check_dp_hypotheses(build_box_pair(base, "plain"), gen)
    assert walks == []
    pair = build_box_pair(base, "star")
    patches = extra_edge_patches(pair)
    assert check_k_hypotheses(pair, gen, patches)
    assert sorted(map(id, walks)) == sorted(map(id, patches.values()))


def test_k_premises_hold_with_generated_patches():
    for base in [BoxSpec(2, 3, "plain"), BoxSpec(3, 2, "plain")]:
        pair = build_box_pair(base, "star")
        gen = four_cycle_gen(base)
        assert check_k_hypotheses(pair, gen, extra_edge_patches(pair))


def test_k_premises_fail_on_a_non_chordal_replacement():
    base = BoxSpec(2, 3, "plain")
    pair = build_box_pair(base, "star")
    gen = four_cycle_gen(base)
    patches = dict(extra_edge_patches(pair))
    g = pair.g
    e = (g.id_of_label((1, 1)), g.id_of_label((2, 2)))
    e = (min(e), max(e))
    # a 6-cycle through e: hits (3,3)-territory, so (1,1) pairs at distance 2
    ring_coords = [(1, 1), (2, 1), (3, 1), (3, 2), (3, 3), (2, 2), (1, 1)]
    six = EdgeVector.from_vertex_path(
        pair.g_plus, [pair.g_plus.id_of_label(c) for c in ring_coords])
    assert six.is_cycle() and len(six) == 6
    patches[e] = six
    assert not check_k_hypotheses(pair, gen, patches)

    # also: a chordality-only failure (other edges all in the base graph)
    path_coords = [(2, 2), (2, 3), (1, 3), (1, 2), (1, 1)]
    five = EdgeVector.from_edges(
        pair.g_plus,
        list(zip([pair.g_plus.id_of_label(c) for c in path_coords],
                 [pair.g_plus.id_of_label(c) for c in path_coords[1:]]))
        + [e])
    assert five.is_cycle() and len(five) == 5
    patches[e] = five
    assert not check_k_hypotheses(pair, gen, patches)


@pytest.mark.parametrize("path_coords", [
    [(1, 1), (2, 2)],                               # e alone
    [(1, 1), (2, 2), (2, 3), (1, 3)],               # e, then a base path that does not close
], ids=["e-alone", "open-path"])
def test_k_premises_fail_on_a_patch_that_is_not_a_cycle(path_coords):
    """A vector through the diagonal e of the first unit square whose other
    edges are base edges, yet which is no cycle: its one augmentation-only
    edge is e and its vertices, read as a cycle's, are none, so only the
    judge's cycle test rejects it."""
    base = BoxSpec(2, 3, "plain")
    pair = build_box_pair(base, "star")
    gen = four_cycle_gen(base)
    patches = dict(extra_edge_patches(pair))
    gp = pair.g_plus
    e = tuple(sorted((gp.id_of_label((1, 1)), gp.id_of_label((2, 2)))))
    vec = EdgeVector.from_vertex_path(gp, [gp.id_of_label(c) for c in path_coords])
    assert not vec.is_cycle()
    assert check_k_hypotheses(pair, gen, patches)
    patches[e] = vec
    assert not check_k_hypotheses(pair, gen, patches)


@pytest.mark.parametrize("ring_coords", [
    [(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)],       # the unit face: misses e
    [(1, 1), (1, 2), (2, 1), (1, 1)],               # the other diagonal instead
    [(1, 1), (2, 2), (1, 2), (2, 1), (1, 1)],       # e and the other diagonal
], ids=["face", "anti-diagonal-triangle", "both-diagonals"])
def test_k_premises_fail_on_a_patch_without_e_as_its_one_new_edge(ring_coords):
    """Chordal cycles of the star box that are no patch for the diagonal e
    of the first unit square: each misses e or uses a second
    augmentation-only edge, so only the patch's edge test rejects it."""
    base = BoxSpec(2, 3, "plain")
    pair = build_box_pair(base, "star")
    gen = four_cycle_gen(base)
    patches = dict(extra_edge_patches(pair))
    gp = pair.g_plus
    e = tuple(sorted((gp.id_of_label((1, 1)), gp.id_of_label((2, 2)))))
    vec = EdgeVector.from_vertex_path(gp, [gp.id_of_label(c) for c in ring_coords])
    assert vec.is_cycle() and chordal_by_pairs(vec.edges(), gp.edges)
    assert check_k_hypotheses(pair, gen, patches)
    patches[e] = vec
    assert not check_k_hypotheses(pair, gen, patches)


def test_k_premises_report_missing_and_foreign_keys():
    base = BoxSpec(2, 3, "plain")
    pair = build_box_pair(base, "star")
    gen = four_cycle_gen(base)
    patches = dict(extra_edge_patches(pair))
    victim = next(iter(patches))
    removed = patches.pop(victim)
    with pytest.raises(InputError, match="lack patch cycles"):
        check_k_hypotheses(pair, gen, patches)
    patches[victim] = removed
    patches[(0, 1)] = removed               # (1,1)-(2,1) is a plain edge
    with pytest.raises(InputError, match="augmentation-only"):
        check_k_hypotheses(pair, gen, patches)


def test_k_premises_refuse_a_patch_cycle_on_a_foreign_host():
    """A patch cycle must be an edge vector of the augmentation graph: a
    unit face of the base graph in its place is refused, not judged."""
    base = BoxSpec(2, 3, "plain")
    pair = build_box_pair(base, "star")
    gen = four_cycle_gen(base)
    patches = dict(extra_edge_patches(pair))
    patches[next(iter(patches))] = gen.cycles[0]
    with pytest.raises(InputError, match="patch cycles must live in the augmentation graph"):
        check_k_hypotheses(pair, gen, patches)


def test_hypothesis_report_shapes():
    rep = hypothesis_report("dp", BoxSpec(2, 3, "plain"))
    assert rep == {"schema": 1, "theorem": "dp", "box": "z2:3:plain",
                   "pass": True, "generators": 4, "augmentation": "plus"}
    rep_k = hypothesis_report("k", BoxSpec(2, 3, "plain"))
    assert rep_k == {"schema": 1, "theorem": "k", "box": "z2:3:plain",
                     "pass": True, "generators": 4, "patch_cycles": 8,
                     "augmentation": "star"}
    rep_neg = hypothesis_report("dp", BoxSpec(2, 3, "plain"), probe="plain")
    assert not rep_neg["pass"]
    with pytest.raises(InputError):
        hypothesis_report("lemma", BoxSpec(2, 3, "plain"))
    # the other theorem's override is refused, as campaigns refuse it
    with pytest.raises(InputError, match=re.escape(
            "g_prime (CLI: --gplus) overrides apply to k campaigns only")):
        hypothesis_report("dp", BoxSpec(2, 3, "plain"), g_prime="plain")
    with pytest.raises(InputError, match=re.escape(
            "probe (CLI: --probe) overrides apply to dp campaigns only")):
        hypothesis_report("k", BoxSpec(2, 3, "plain"), probe="plain")


def test_hypothesis_reports_in_four_dimensions():
    box = BoxSpec(4, 3, "plain")
    assert hypothesis_report("dp", box) == {
        "schema": 1, "theorem": "dp", "box": "z4:3:plain", "pass": True,
        "generators": 216, "augmentation": "plus"}
    assert hypothesis_report("k", box) == {
        "schema": 1, "theorem": "k", "box": "z4:3:plain", "pass": True,
        "generators": 216, "patch_cycles": 944, "augmentation": "star"}


# --- trial configuration ----------------------------------------------------------------

def test_trial_config_validation():
    box = BoxSpec(2, 4, "plain")
    with pytest.raises(InputError, match="theorem"):
        TrialConfig(theorem="nope", box=box)
    with pytest.raises(InputError, match="mode"):
        TrialConfig(theorem="dp", box=box, mode="sometimes")
    with pytest.raises(InputError, match="budget"):
        TrialConfig(theorem="dp", box=BoxSpec(2, 6, "plain"), max_size=10)
    with pytest.raises(InputError, match="margin"):
        TrialConfig(theorem="dp", box=box, margin=1)
    with pytest.raises(InputError, match="x_vertex"):
        TrialConfig(theorem="dp", box=box, x_policy="fixed")
    with pytest.raises(InputError, match="mode=random"):
        TrialConfig(theorem="lemma", box=box, mode="exhaustive")
    with pytest.raises(InputError, match="d ≥ 2"):
        TrialConfig(theorem="dp", box=BoxSpec(1, 9, "plain"))
    with pytest.raises(InputError, match="probe"):
        TrialConfig(theorem="k", box=box, probe="plain")
    with pytest.raises(InputError, match="g_prime"):
        TrialConfig(theorem="dp", box=box, g_prime="plain")
    for fields, message in [({"x_policy": "somewhere"}, "x_policy must be one of"),
                            ({"max_size": 0}, "max_size must be ≥ 1"),
                            ({"margin": -1}, "margin must be ≥ 0"),
                            ({"mode": "random", "trials": 0}, "random mode needs trials ≥ 1")]:
        with pytest.raises(InputError, match=f"^{message}"):
            TrialConfig(theorem="dp", box=box, **fields)
    # the apex observes under all-outside too, and it sees the whole surface
    for policy in ({"x_policy": "apex"}, {"x_policy": "all-outside"}):
        for margin in (0, 1):
            with pytest.raises(InputError, match="margin ≥ 2"):
                TrialConfig(theorem="dp", box=box, margin=margin, **policy)
    # the int fields refuse bools and floats
    for field, value in [("max_size", True), ("max_size", 2.5), ("trials", 2.5),
                         ("trials", False), ("margin", 2.0), ("margin", True),
                         ("x_vertex", True), ("x_vertex", 2.0),
                         ("seed", True), ("seed", 1.5)]:
        policy = {"x_policy": "fixed", "x_vertex": 0, "margin": 1, "mode": "random"}
        policy[field] = value
        with pytest.raises(InputError, match=f"{field} must be an int"):
            TrialConfig(theorem="dp", box=box, **policy)
    # margin 1 is fine when the observer is a fixed vertex
    TrialConfig(theorem="dp", box=box, margin=1, x_policy="fixed", x_vertex=0)
    # ... but the lemma picks its own observers, so it refuses both fields
    for fields in ({"margin": 0, "x_policy": "all-outside"}, {"margin": 0},
                   {"margin": 3}, {"x_policy": "all-outside"},
                   {"x_policy": "fixed", "x_vertex": 6}):
        with pytest.raises(InputError, match="^the crossing-lemma campaign picks its "
                                             "own observers: keep x_policy 'apex' and margin 2"):
            TrialConfig(theorem="lemma", box=box, mode="random", **fields)
    TrialConfig(theorem="lemma", box=box, mode="random", margin=2, x_policy="apex")


_X_VERTEX_RULE = ("x_vertex must be a box vertex id in 0..{last} under x_policy "
                  "'fixed' and unset otherwise, got {x} under '{policy}'; the apex "
                  "observes under x_policy 'apex' (CLI: --x apex)")


@pytest.mark.parametrize("box", [BoxSpec(2, 4, "plain"), BoxSpec(2, 5, "plain"),
                                 BoxSpec(3, 4, "plain")], ids=str)
def test_a_fixed_observer_is_a_box_vertex(box):
    """The apex id ``side**d`` is no fixed observer: the apex has one
    spelling, x_policy 'apex', and the refusal names it.  Ids off the box
    are refused by the same rule when the config is made, before any
    campaign runs."""
    last = box.side ** box.d - 1
    for x in (last + 1, -1, last + 2, 99):
        message = _X_VERTEX_RULE.format(last=last, x=x, policy="fixed")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            TrialConfig(theorem="dp", box=box, x_policy="fixed", x_vertex=x)
    message = _X_VERTEX_RULE.format(last=last, x=None, policy="fixed")
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        TrialConfig(theorem="dp", box=box, x_policy="fixed")
    for x in (0, last):
        cfg = TrialConfig(theorem="dp", box=box, x_policy="fixed", x_vertex=x)
        assert cfg.echo()["x_vertex"] == x


@pytest.mark.parametrize("theorem, policy", [
    ("dp", "apex"), ("dp", "all-outside"), ("lemma", "apex"),
], ids=["apex", "all-outside", "lemma"])
def test_an_x_vertex_no_observer_uses_is_refused(theorem, policy):
    """An ``x_vertex`` outside the fixed policy observes nothing; the
    report's config must not echo it as if it had."""
    box = BoxSpec(2, 5, "plain")
    message = _X_VERTEX_RULE.format(last=24, x=5, policy=policy)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        TrialConfig(theorem=theorem, box=box, mode="random", x_policy=policy,
                    x_vertex=5)


@pytest.mark.parametrize("theorem, hint", [
    ("dp", "; set the augmentation with probe (CLI: --probe)"),
    ("k", "; set the augmentation with g_prime (CLI: --gplus)"),
    ("lemma", ""),
])
@pytest.mark.parametrize("flavor", ["star", "plus"])
def test_campaigns_refuse_a_flavored_box(theorem, hint, flavor):
    """Campaigns run on the plain box; a flavor would be echoed in the
    report without being the graph that was checked."""
    box = BoxSpec(2, 5, flavor)
    message = f"{theorem} campaigns run on the plain box, not on z2:5:{flavor}{hint}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        TrialConfig(theorem=theorem, box=box, mode="random")
    if theorem != "lemma":
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            hypothesis_report(theorem, box)
        # an override does not make a flavored box acceptable
        override = {"dp": {"probe": "plus"}, "k": {"g_prime": "star"}}[theorem]
        with pytest.raises(InputError, match="plain box"):
            hypothesis_report(theorem, box, **override)


@pytest.mark.parametrize("box", ["z2:5:plain", (2, 5, "plain"), None],
                         ids=["spec-string", "tuple", "none"])
def test_a_box_that_is_no_box_spec_is_refused(box):
    """A spec string used to crash with an ``AttributeError`` on
    ``box.side`` (``TrialConfig``) or ``box.flavor`` (``hypothesis_report``)."""
    message = f"^box must be a BoxSpec, got {re.escape(repr(box))}$"
    for theorem in ("dp", "k", "lemma"):
        for mode in ("exhaustive", "random"):
            with pytest.raises(InputError, match=message):
                TrialConfig(theorem=theorem, box=box, mode=mode)
    for theorem in ("dp", "k"):
        with pytest.raises(InputError, match=message):
            hypothesis_report(theorem, box)


@pytest.mark.parametrize("field, flag, theorem", [
    ("probe", "--probe", "dp"), ("g_prime", "--gplus", "k"),
])
@pytest.mark.parametrize("value", ["bogus", "Plain", 3])
def test_an_override_outside_the_flavors_is_refused(field, flag, theorem, value):
    """An unknown override used to pass construction and fail only when
    the campaign built its box pair, with a message about ``flavor``."""
    message = re.escape(f"{field} (CLI: {flag}) must be one of ('plain', 'star', "
                        f"'plus'), got {value!r}")
    box = BoxSpec(2, 5, "plain")
    for th in (theorem, "lemma"):
        with pytest.raises(InputError, match=f"^{message}$"):
            TrialConfig(theorem=th, box=box, mode="random", **{field: value})
    with pytest.raises(InputError, match=f"^{message}$"):
        hypothesis_report(theorem, box, **{field: value})


# --- campaigns ----------------------------------------------------------------------------

def test_dp_exhaustive_small_box_passes():
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 4, "plain"), max_size=4)
    rep = run_verification(cfg)
    assert rep.passed and rep.trials_run == 13
    assert rep.failures == [] and rep.trial_seeds == []
    data = rep.to_json()
    assert data["schema"] == 1 and data["passed"] is True
    assert "elapsed" in data and "elapsed" not in rep.to_json(include_elapsed=False)


@pytest.mark.parametrize("box, policy", [
    (BoxSpec(2, 4, "plain"), {"margin": 3}),
    (BoxSpec(2, 4, "plain"), {"margin": 3, "x_policy": "all-outside"}),
    (BoxSpec(2, 4, "plain"), {"margin": 3, "x_policy": "fixed", "x_vertex": 0}),
    (BoxSpec(2, 4, "plain"), {"margin": 3, "mode": "random", "trials": 5}),
    (BoxSpec(14, 1, "plain"), {}),
], ids=["apex", "all-outside", "fixed", "random", "z14-side1"])
def test_a_margin_without_room_is_refused(monkeypatch, box, policy):
    """z2:4 has no vertex 3 steps from its surface, and z14:1 none 2 steps
    from it, so no campaign there may pass with no trials.  The campaign
    refuses before its box set-up, which on z14:1 would list 3^14 moves."""
    import boundarykit.harness as harness

    def no_setup(*args):
        raise AssertionError("the box set-up ran for a margin without room")

    monkeypatch.setattr(harness, "_box_setting", no_setup)
    cfg = TrialConfig(theorem="dp", box=box, max_size=3, **policy)
    with pytest.raises(InputError, match="leaves no room"):
        run_verification(cfg)


@pytest.mark.parametrize("theorem, side, margin, fixed_c", [
    ("dp", 3, 2, None),
    ("dp", 3, 0, frozenset({4})),
    ("k", 5, 2, frozenset({12})),
], ids=["margin-leaves-only-x", "set-is-x", "k-set-holds-x"])
def test_a_campaign_with_no_instance_is_refused(theorem, side, margin, fixed_c):
    """Every subset holds the fixed observer, the box centre, so no
    instance is judged; the campaign must not pass with no trials."""
    cfg = TrialConfig(theorem=theorem, box=BoxSpec(2, side, "plain"), margin=margin,
                      x_policy="fixed", x_vertex=(side ** 2) // 2)
    with pytest.raises(InputError, match="no instance to judge"):
        run_verification(cfg, fixed_c=fixed_c)


def test_dp_all_outside_observers():
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 4, "plain"), max_size=3,
                      x_policy="all-outside")
    rep = run_verification(cfg)
    assert rep.passed
    assert rep.trials_run > 13 * 10        # many observers per subset


def test_k_exhaustive_small_box_passes():
    cfg = TrialConfig(theorem="k", box=BoxSpec(2, 5, "plain"), max_size=3)
    rep = run_verification(cfg)
    assert rep.passed and rep.trials_run > 0


def test_dp_random_mode_is_seed_deterministic():
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 6, "plain"), mode="random",
                      trials=40, seed=11, max_size=5)
    a = run_verification(cfg).to_json(include_elapsed=False)
    b = run_verification(cfg).to_json(include_elapsed=False)
    assert a == b
    assert a["trial_seeds"][:3] == ["11:0", "11:1", "11:2"]
    c = run_verification(TrialConfig(
        theorem="dp", box=BoxSpec(2, 6, "plain"), mode="random",
        trials=40, seed=12, max_size=5)).to_json(include_elapsed=False)
    assert c["trial_seeds"] != a["trial_seeds"]


def test_lemma_reports_identical_across_runs():
    cfg = TrialConfig(theorem="lemma", box=BoxSpec(2, 5, "plain"),
                      mode="random", trials=30, seed=3)
    first = run_verification(cfg).to_json(include_elapsed=False)
    second = run_verification(cfg).to_json(include_elapsed=False)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_dp_negative_control_finds_the_center_vertex():
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 5, "plain"), max_size=2,
                      probe="plain")
    with pytest.raises(InputError, match="premises"):
        run_verification(cfg)
    rep = run_verification(cfg, skip_hypotheses=True)
    assert not rep.passed
    centers = [f for f in rep.failures if f["c"] == [[3, 3]]]
    assert centers and centers[0]["kind"] == "disconnected-visible-boundary"
    assert centers[0]["report"]["components"] == 4
    assert centers[0]["x"] == "apex"


def test_k_negative_control_rejects_disconnected_subset():
    box = BoxSpec(2, 5, "plain")
    g = build_box(box)
    diag = frozenset({g.id_of_label((3, 3)), g.id_of_label((4, 4))})
    cfg = TrialConfig(theorem="k", box=box, g_prime="plain")
    with pytest.raises(InputError, match="precondition"):
        run_verification(cfg, skip_hypotheses=True, fixed_c=diag)
    # the same subset is fine when adjacency is the star graph
    rep = run_verification(TrialConfig(theorem="k", box=box),
                           fixed_c=diag)
    assert rep.passed and rep.trials_run == 1


def test_fixed_subset_must_stay_inside_the_margin():
    """Under every policy, as the campaign's own subsets do; a margin
    that leaves no room refuses every given subset."""
    box = BoxSpec(2, 5, "plain")
    g = build_box(box)
    edge_hugger = frozenset({g.id_of_label((1, 1))})
    centre = frozenset({g.id_of_label((3, 3))})
    corner = g.id_of_label((5, 5))
    for policy in ({"x_policy": "apex"}, {"x_policy": "all-outside"},
                   {"x_policy": "fixed", "x_vertex": corner}):
        cfg = TrialConfig(theorem="dp", box=box, **policy)
        with pytest.raises(InputError, match="inside margin 2 \\(CLI: --margin\\)"):
            run_verification(cfg, fixed_c=edge_hugger)
        with pytest.raises(InputError, match="inside margin 100 \\(CLI: --margin\\)"):
            run_verification(TrialConfig(theorem="dp", box=box, margin=100, **policy),
                             fixed_c=centre)


@pytest.mark.parametrize("policy", [
    {"x_policy": "apex"}, {"x_policy": "all-outside"},
    {"x_policy": "fixed", "x_vertex": 12},
], ids=["apex", "all-outside", "fixed-centre"])
def test_an_empty_fixed_subset_is_refused(policy):
    """An empty subset has no boundary to judge; it must not pass with one
    vacuous trial (apex) or count every vertex as a trial (all-outside)."""
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 5, "plain"), **policy)
    with pytest.raises(InputError, match="empty"):
        run_verification(cfg, fixed_c=frozenset())


def test_lemma_campaign_passes_and_reports_seeds():
    cfg = TrialConfig(theorem="lemma", box=BoxSpec(2, 5, "plain"),
                      mode="random", trials=60, seed=9)
    rep = run_verification(cfg)
    assert rep.passed and rep.trials_run == 60
    assert rep.trial_seeds == [f"9:{i}" for i in range(60)]


def test_lemma_non_minimal_cutset_is_a_witness_error(monkeypatch):
    import boundarykit.harness as harness
    box = build_box(BoxSpec(2, 5, "plain"))

    def ids(*coords):
        return sum(1 << box.id_of_label(c) for c in coords)

    # (2,2) is redundant: the four axis neighbours of (3,3) already cut it off
    s1, s2 = ids((2, 2), (3, 2)), ids((2, 3), (4, 3), (3, 4))
    instance = (ids((3, 3)), box.id_of_label((5, 5)), box.id_of_label((3, 3)),
                s1 | s2, s1, s2)
    monkeypatch.setattr(harness, "_sample_crossing_instance",
                        lambda *args: instance)
    rep = run_verification(TrialConfig(theorem="lemma", box=BoxSpec(2, 5, "plain"),
                                       mode="random", trials=1))
    assert [f["kind"] for f in rep.failures] == ["witness-error"]
    assert "not a minimal cutset" in rep.failures[0]["error"]


LEMMA_CONTROL = TrialConfig(theorem="lemma", box=BoxSpec(2, 5, "plain"),
                            mode="random", trials=40, seed=6)


def test_a_wrong_lemma_witness_is_a_postcondition_failure(monkeypatch):
    """Negative control for the lemma judge: a witness that is always the
    first generator fails the definition-level postconditions on 31 of
    40 trials, each record naming exactly the postconditions it breaks."""
    import boundarykit.harness as harness
    monkeypatch.setattr(harness, "_crossing_witness",
                        lambda g, gen, s1m, s2m, x, y: gen.cycles[0])
    rep = run_verification(LEMMA_CONTROL)
    assert (rep.trials_run, len(rep.failures)) == (40, 31)
    assert {f["kind"] for f in rep.failures} == {"postcondition-failure"}
    assert [f["trial"] for f in rep.failures] == [
        3, 4, 5, 7, 8, 9, 10, 11, 12, 14, 15, 16, 18, 19, 20, 22, 23, 24, 25, 26,
        27, 28, 29, 32, 33, 34, 35, 36, 37, 38, 39]
    first, second = "witness does not touch the first half", "witness does not touch the second half"
    even, even_two = "crossing count 0 is even", "crossing count 2 is even"
    assert Counter(tuple(f["problems"]) for f in rep.failures) == {
        (even,): 3, (first, even): 5, (first, even_two): 5, (first, second, even): 14,
        (second, even): 4}


def test_a_witness_outside_the_generating_set_is_a_postcondition_failure(monkeypatch):
    """A valid witness plus a generator that shares no vertex with it or
    with the cutset still touches both halves with an odd crossing count,
    but is no generator: the membership check alone fails it, on every
    trial where such a generator exists."""
    import boundarykit.harness as harness
    witness = harness._crossing_witness

    def vertices(o):
        return {v for edge in o.edges() for v in edge}

    def widened(g, gen, s1m, s2m, x, y):
        o = witness(g, gen, s1m, s2m, x, y)
        used = vertices(o) | _members(s1m | s2m)
        apart = [other for other in gen.cycles if not used & vertices(other)]
        return o + apart[0] if apart else o

    monkeypatch.setattr(harness, "_crossing_witness", widened)
    rep = run_verification(LEMMA_CONTROL)
    assert (rep.trials_run, len(rep.failures)) == (40, 25)
    assert [f["trial"] for f in rep.failures] == [
        0, 2, 3, 4, 6, 8, 10, 12, 14, 15, 16, 18, 20, 21, 22, 24, 25, 26, 28, 30, 32, 34,
        36, 38, 39]
    assert all(f["kind"] == "postcondition-failure"
               and f["problems"] == ["witness is not a member of the generating set"]
               for f in rep.failures)


def test_a_box_generating_set_that_does_not_span_is_refused(monkeypatch):
    """The lemma campaign checks its box generators first: a set that does
    not span is refused, and ``skip_hypotheses`` runs the campaign anyway,
    with the report of an unpatched run."""
    import boundarykit.harness as harness
    want = run_verification(LEMMA_CONTROL).to_json(include_elapsed=False)
    monkeypatch.setattr(harness, "is_generating", lambda gen, g: False)
    with pytest.raises(InputError, match="^the box generating set does not span its cycle space$"):
        run_verification(LEMMA_CONTROL)
    rep = run_verification(LEMMA_CONTROL, skip_hypotheses=True)
    assert rep.passed and rep.trials_run == 40
    assert rep.to_json(include_elapsed=False) == want


def test_lemma_campaign_rejects_fixed_subsets():
    cfg = TrialConfig(theorem="lemma", box=BoxSpec(2, 5, "plain"),
                      mode="random", trials=5)
    with pytest.raises(InputError, match="sample"):
        run_verification(cfg, fixed_c=frozenset({12}))


def test_lemma_campaign_with_one_dimensional_box(capsys):
    """A box that is a tree, a path (d = 1) or one vertex (side 1), has
    only one-vertex minimal cutsets, so no trial could split one on it:
    the campaign refuses the box, and the CLI exits 2 with the message,
    instead of passing on its random hosts alone.  z2:2, a 4-cycle, runs."""
    for box in (BoxSpec(1, 9, "plain"), BoxSpec(2, 1, "plain"), BoxSpec(3, 1, "star")):
        with pytest.raises(InputError, match="needs a box with d ≥ 2 and side ≥ 2"):
            TrialConfig(theorem="lemma", box=box, mode="random", trials=10, seed=2)
        assert main(["verify", "lemma", "--box", str(box), "--trials", "100"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            f"error: the crossing-lemma campaign needs a box with d ≥ 2 and side ≥ 2, "
            f"got {box}:")
    assert run_verification(TrialConfig(theorem="lemma", box=BoxSpec(2, 2, "plain"),
                                        mode="random", trials=10, seed=2)).passed


def test_lemma_instance_stream_is_pinned(monkeypatch):
    """A passing report holds only config, seeds and counts, so its digest
    does not depend on which instances were drawn or which witnesses came
    back.  This pins every ``(host vertex count, instance)`` the crossing
    sampler returns, in call order, on three campaigns (z2:5, z3:4 and
    z2:3), and the edge bits of every witness found for them.  The sampler's vertex sets are masks (the instance's parts
    0, 3, 4 and 5); each is recorded as its sorted id list."""
    import boundarykit.harness as harness
    sample = harness._sample_crossing_instance
    witness = harness._crossing_witness
    draws, witnesses = [], []

    def recording(g, rng, max_size):
        instance = sample(g, rng, max_size)
        draws.append([g.vertex_count, instance and [
            sorted(_members(part)) if i in (0, 3, 4, 5) else part
            for i, part in enumerate(instance)]])
        return instance

    def recording_witness(*args):
        o = witness(*args)
        witnesses.append(o.bits)
        return o

    monkeypatch.setattr(harness, "_sample_crossing_instance", recording)
    monkeypatch.setattr(harness, "_crossing_witness", recording_witness)
    for box, trials, seed in [(BoxSpec(2, 5, "plain"), 4000, 0),
                              (BoxSpec(3, 4, "plain"), 500, 3),
                              (BoxSpec(2, 3, "plain"), 100, 2)]:
        assert run_verification(TrialConfig(theorem="lemma", box=box, mode="random",
                                            trials=trials, seed=seed)).passed
    blob = json.dumps(draws, separators=(",", ":")).encode()
    assert len(draws) == 4628
    assert hashlib.sha256(blob).hexdigest() == (
        "d5134471d64e071d67037665039f12b98516bc2839bb5d00e4f47e922cd6bf39")
    blob = json.dumps(witnesses, separators=(",", ":")).encode()
    assert len(witnesses) == 4600
    assert hashlib.sha256(blob).hexdigest() == (
        "17f3a90be4e77cf90dc41d75ef8e21579963eee2aca98103432f63e365f85096")


def _per_observer_reference(cfg, fixed_c=None):
    """Trial count and failure records of a dp/k campaign, judged by
    ``full_report`` on every (subset, observer) pair in trial order: the
    per-observer loop that the campaign's batch judge must reproduce.
    Each subset's observers are listed from their definition; a random
    ``all-outside`` trial keeps the observer its rank drew, which
    ``test_random_all_outside_observers_are_drawn_by_rank`` checks.  The
    reports are taken on the apexed graphs at margin ≥ 2, where the apex
    stands for the outside; below that a fixed observer judges on the box
    itself."""
    import boundarykit.harness as harness
    row = harness._BOUNDARY_THEOREMS[cfg.theorem]
    augmentation = getattr(cfg, row.override) or row.augmentation
    setting = harness._box_setting(cfg.theorem, cfg.box, augmentation)
    g, g_prime, probe = (apexed_roles(cfg.theorem, cfg.box, augmentation)
                         if cfg.margin >= 2 else setting.roles)
    apex = setting.apex
    if fixed_c is None and cfg.mode == "random":
        instances = [(seed, _members(cm), drawn.bit_length() - 1) for seed, cm, drawn
                     in harness._boundary_instances(cfg, setting, None)]
    else:
        subsets = [fixed_c] if fixed_c is not None else enumerate_connected_subsets(
            setting.roles[1], cfg.max_size,
            allowed=margin_interior(setting.box, cfg.margin))
        instances = [(None, c, None) for c in subsets]
    trials_run, failures = 0, []
    for seed, c, drawn in instances:
        if cfg.x_policy == "apex":
            xs = [apex]
        elif cfg.x_policy == "fixed":
            xs = [cfg.x_vertex] if cfg.x_vertex not in c else []
        elif drawn is not None:
            xs = [drawn]
        else:
            xs = [apex] + [v for v in range(apex) if v not in c]
        for v in xs:
            rep = full_report(g, g_prime, probe, c, v)
            if rep.component_count != 1:
                failures.append({
                    "trial": trials_run, "seed": seed,
                    "kind": "disconnected-visible-boundary",
                    "c": vertexset_to_json(setting.box, c),
                    "x": "apex" if v == apex else list(setting.box.labels[v]),
                    "report": report_to_json(rep, g)})
            trials_run += 1
    return trials_run, failures


_Z27 = build_box(BoxSpec(2, 7, "plain"))
_X44, _X33 = _Z27.id_of_label((4, 4)), _Z27.id_of_label((3, 3))


@pytest.mark.parametrize("cfg, trials, failing", [
    (TrialConfig(theorem="dp", box=BoxSpec(2, 5, "plain"), max_size=3,
                 probe="plain", x_policy="all-outside"), 1019, 1019),
    (TrialConfig(theorem="k", box=BoxSpec(2, 5, "plain"), max_size=3,
                 g_prime="plain", x_policy="all-outside"), 1019, 1019),
    (TrialConfig(theorem="k", box=BoxSpec(3, 5, "plain"), mode="random",
                 trials=150, seed=4, max_size=6, x_policy="all-outside"), 150, 0),
    (TrialConfig(theorem="dp", box=BoxSpec(2, 6, "plain"), max_size=5,
                 probe="plain"), 449, 449),
    (TrialConfig(theorem="dp", box=BoxSpec(2, 7, "plain"), max_size=4,
                 probe="plain", x_policy="fixed", x_vertex=_X44), 292, 292),
    (TrialConfig(theorem="dp", box=BoxSpec(2, 7, "plain"), mode="random",
                 trials=200, seed=3, max_size=4, margin=1, probe="plain",
                 x_policy="fixed", x_vertex=_X33), 200, 200),
    (TrialConfig(theorem="k", box=BoxSpec(2, 6, "plain"), max_size=4,
                 g_prime="plain"), 205, 205),
    (TrialConfig(theorem="k", box=BoxSpec(3, 5, "plain"), max_size=4), 8977, 0),
    (TrialConfig(theorem="dp", box=BoxSpec(2, 7, "plain"), mode="random",
                 trials=300, seed=5, max_size=3, probe="plain"), 300, 300),
], ids=["dp-plain-probe", "k-plain-adjacency", "k-random", "dp-apex-plain-probe",
        "dp-fixed-plain-probe", "dp-random-fixed", "k-apex-plain-adjacency",
        "k-apex-z3", "dp-random-apex-plain-probe"])
def test_failures_are_exactly_the_disconnected_full_reports(cfg, trials, failing):
    """Campaigns judge instances by their component count alone, and an
    apex-only instance by the verdict of its translation class; the
    failing instances and their report bytes must be those of
    ``full_report`` on every instance.  Under the fixed policy, subsets
    holding the observer add no trial; random ones are drawn again."""
    want_trials, want = _per_observer_reference(cfg)
    rep = run_verification(cfg, skip_hypotheses=True)
    assert rep.failures == want
    assert (rep.trials_run, len(rep.failures)) == (want_trials, len(want)) == (trials, failing)


@pytest.mark.parametrize("theorem, override", [
    ("dp", None), ("dp", {"probe": "plain"}), ("k", None), ("k", {"g_prime": "plain"})],
    ids=["dp", "dp-plain-probe", "k", "k-plain-adjacency"])
def test_fixed_observers_at_margin_2_judge_alike_with_and_without_the_apex(theorem, override):
    """At margin ≥ 2 a fixed observer's verdicts on the apexed graphs are
    those of the box alone: the box surface misses C, so it
    stays connected in the box minus C, and the apex, adjacent only to
    the surface, is never in a boundary of C.  So a failing observer's
    boundary, visible boundary and probe components agree too; only the
    outer-visible set may differ, as a path through the apex can go round
    the visible boundary.  Checked for every subset of the margin-2
    interior of z2:5 and every box vertex outside it."""
    import boundarykit.harness as harness
    cfg = TrialConfig(theorem=theorem, box=BoxSpec(2, 5, "plain"), **(override or {}))
    row = harness._BOUNDARY_THEOREMS[theorem]
    augmentation = getattr(cfg, row.override) or row.augmentation
    setting = harness._box_setting(theorem, cfg.box, augmentation)
    apexed_graphs = apexed_roles(theorem, cfg.box, augmentation)
    apexed = [_neighbourhood_plan(g) for g in apexed_graphs]
    box = [_neighbourhood_plan(g) for g in setting.roles]
    full = box[0].full
    subsets = enumerate_connected_subsets(setting.roles[1], 9,
                                          allowed=margin_interior(setting.box, 2))
    failing_observers = 0
    for c in subsets:
        cm = box[0].mask(c)
        failing = _failing_observers(*box, cm, full ^ cm)
        assert _failing_observers(*apexed, cm, full ^ cm) == failing
        for x in _members(failing):
            apexed_rep, box_rep = (full_report(*roles, c, x)
                                   for roles in (apexed_graphs, setting.roles))
            assert apexed_rep.outer_visible >= box_rep.outer_visible
            assert BoundaryReport(apexed_rep.boundary, apexed_rep.visible,
                                  box_rep.outer_visible, apexed_rep.component_count,
                                  apexed_rep.witness_disconnect) == box_rep
        failing_observers += failing.bit_count()
    assert (failing_observers > 0) == (override is not None)


# An 8-ring whose one-cell hole passes while the outside fails, and a
# 16-ring around a plus-shaped hole whose four arms are seen as four
# components, so the hole fails as well as the outside.
_RING = [(3, 3), (3, 4), (3, 5), (4, 5), (5, 5), (5, 4), (5, 3), (4, 3)]
_PLUS_RING = [(5 + dx, 5 + dy) for dx, dy in [
    (2, 0), (2, 1), (1, 1), (1, 2), (0, 2), (-1, 2), (-1, 1), (-2, 1),
    (-2, 0), (-2, -1), (-1, -1), (-1, -2), (0, -2), (1, -2), (1, -1), (2, -1)]]
# A 3×5 block with two one-cell holes: three observer components.
_TWO_HOLES = [(x, y) for x in range(3, 6) for y in range(3, 8) if (x, y) not in ((4, 4), (4, 6))]


@pytest.mark.parametrize("cfg, ring, trials, failing", [
    (TrialConfig(theorem="dp", box=BoxSpec(2, 5, "plain"), max_size=8,
                 probe="plain", x_policy="all-outside"), None, 4570, 4565),
    (TrialConfig(theorem="k", box=BoxSpec(2, 5, "plain"), max_size=8,
                 g_prime="plain", x_policy="all-outside"), None, 4570, 4565),
    (TrialConfig(theorem="dp", box=BoxSpec(2, 7, "plain"),
                 probe="plain", x_policy="all-outside"), _RING, 42, 41),
    (TrialConfig(theorem="dp", box=BoxSpec(2, 9, "plain"),
                 probe="plain", x_policy="all-outside"), _PLUS_RING, 66, 66),
    (TrialConfig(theorem="dp", box=BoxSpec(2, 9, "plain"),
                 probe="plain", x_policy="all-outside"), _TWO_HOLES, 69, 67),
    (TrialConfig(theorem="dp", box=BoxSpec(2, 7, "plain"), max_size=5,
                 probe="plain", x_policy="all-outside"), None, 43746, 43746),
    (TrialConfig(theorem="k", box=BoxSpec(2, 6, "plain"), max_size=4,
                 g_prime="plain", x_policy="all-outside"), None, 6913, 6913),
], ids=["dp-plain-probe", "k-plain-adjacency", "dp-fixed-ring", "dp-fixed-plus-hole",
        "dp-two-holes", "dp-z2:7/5", "k-z2:6/4"])
def test_component_verdicts_match_the_per_observer_loop(cfg, ring, trials, failing):
    """All-outside campaigns judge an instance in rounds, one copy per
    component of the traversal graph minus the subset that holds an
    observer.  Around a ring the hole and the apex side lie in different
    components; the report must still equal, trial for trial and byte for
    byte, the one the per-observer loop builds."""
    fixed_c = None
    if ring is not None:
        box = build_box(cfg.box)
        fixed_c = frozenset(box.id_of_label(p) for p in ring)
    want_trials, want = _per_observer_reference(cfg, fixed_c)
    rep = run_verification(cfg, skip_hypotheses=True, fixed_c=fixed_c)
    assert (rep.trials_run, len(rep.failures)) == (want_trials, len(want)) == (trials, failing)
    # as data first: pytest diffs two unequal JSON strings this long for minutes
    assert rep.failures == want
    assert json.dumps(rep.failures) == json.dumps(want)
    assert rep.trial_seeds == []


_WALL = [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (2, 3)]


@pytest.mark.parametrize("theorem, override, cells", [
    ("dp", {"probe": "plain"}, _WALL),
    ("k", {"g_prime": "plain"}, _WALL),
    ("dp", {"probe": "plain"}, [(1, 3), (2, 3), (2, 4)]),
    ("k", {}, [(1, 1), (2, 2), (3, 3)]),
], ids=["dp-wall", "k-wall", "dp-foot", "k-diagonal"])
def test_a_given_subset_on_the_surface_needs_a_margin_below_2(theorem, override, cells):
    """A given subset that touches the box surface lies outside the
    margin-2 interior, where the apex, glued to the surface, would join it
    and could join parts of its visible boundary.  So at margin 2 the
    campaign refuses it under every policy.  At margin 1 a fixed observer
    judges it on the box itself, as the per-observer loop does, for every
    observer outside it; from (1, 1) the wall's visible boundary is three
    probe components there."""
    box = BoxSpec(2, 5, "plain")
    g = build_box(box)
    fixed_c = frozenset(g.id_of_label(p) for p in cells)
    outside = [x for x in range(g.vertex_count) if x not in fixed_c]
    for policy in ({"x_policy": "apex"}, {"x_policy": "all-outside"},
                   {"x_policy": "fixed", "x_vertex": outside[0]}):
        cfg = TrialConfig(theorem=theorem, box=box, **policy, **override)
        with pytest.raises(InputError, match="--margin"):
            run_verification(cfg, skip_hypotheses=True, fixed_c=fixed_c)
    for x in outside:
        cfg = TrialConfig(theorem=theorem, box=box, x_policy="fixed", x_vertex=x, margin=1,
                          **override)
        want_trials, want = _per_observer_reference(cfg, fixed_c)
        rep = run_verification(cfg, skip_hypotheses=True, fixed_c=fixed_c)
        assert (rep.trials_run, rep.failures) == (want_trials, want) == (1, want), x
        if cells == _WALL and x == g.id_of_label((1, 1)):
            assert [f["report"]["components"] for f in rep.failures] == [3]


def _shape_key(cm: int) -> int:
    """The subset mask ``cm`` shifted down to its lowest id: equal for the
    translates of one shape, the key of ``harness._apex_shapes``' classes."""
    return cm >> ((cm & -cm).bit_length() - 1)


@pytest.mark.parametrize("box, max_size, counts", [
    # fixed polyominoes, OEIS A001168; the 7-wide interior holds no 8-cell
    # line, so size 8 has 2725 − 2 classes
    (BoxSpec(2, 9, "plain"), 8, [1, 2, 6, 19, 63, 216, 760, 2723]),
    # fixed polyplets (king-connected), OEIS A006770
    (BoxSpec(2, 8, "star"), 5, [1, 4, 20, 110, 638]),
    # fixed polycubes, OEIS A001931
    (BoxSpec(3, 7, "plain"), 5, [1, 3, 15, 86, 534]),
], ids=["polyominoes", "polyplets", "polycubes"])
def test_shape_keys_count_the_fixed_animals(box, max_size, counts):
    """The campaign's verdict key splits the connected subsets of the
    margin-2 interior into translation classes: per size, the number of
    distinct keys is the number of fixed lattice animals that fit."""
    import boundarykit.harness as harness
    g = build_box(box)
    keys = [set() for _ in counts]
    for c in enumerate_connected_subsets(g, max_size, allowed=margin_interior(g, 2)):
        keys[len(c) - 1].add(_shape_key(sum(1 << v for v in c)))
    assert [len(k) for k in keys] == counts


@pytest.mark.parametrize("theorem, d, counts", [
    ("dp", 2, [1, 2, 6, 19, 63, 216, 760, 2725, 9910]),    # polyominoes, OEIS A001168
    ("dp", 3, [1, 3, 15, 86, 534, 3481, 23502]),           # polycubes, OEIS A001931
    ("dp", 4, [1, 4, 28, 234, 2162]),                      # 4-D polyominoes, OEIS A151830
    ("k", 2, [1, 4, 20, 110, 638, 3832, 23592]),           # polyplets, OEIS A006770
], ids=["dp-d2", "dp-d3", "dp-d4", "k-d2"])
def test_a_side_n_plus_2_apex_campaign_lists_every_fixed_animal(theorem, d, counts):
    """With n = len(counts), a box of side n + 2 keeps an interior of side
    n at margin 2, which every lattice animal of ≤ n cells fits.  So, per
    size, the shape pass of an apex campaign with max size n lists exactly
    the fixed animals: dp the plainly connected ones, k the king-connected
    ones."""
    import boundarykit.harness as harness
    n = len(counts)
    cfg = TrialConfig(theorem=theorem, box=BoxSpec(d, n + 2, "plain"), max_size=n)
    augmentation = harness._augmentation(theorem, cfg.box, None, None)
    sizes = Counter(cm.bit_count() for masks, _ in harness._apex_shapes(cfg, augmentation, 100)
                    for cm in masks)
    assert [sizes[size] for size in range(1, n + 1)] == counts


@pytest.mark.parametrize("theorem, box, max_size, augmentation", [
    ("dp", BoxSpec(2, 7, "plain"), 5, "plain"),
    ("dp", BoxSpec(3, 6, "plain"), 4, "plus"),
    ("k", BoxSpec(3, 6, "plain"), 3, "star"),
], ids=["dp-z2", "dp-z3", "k-z3"])
def test_a_translation_class_shares_its_apex_report(theorem, box, max_size, augmentation):
    """Subsets with one shape key, judged from the apex at margin 2, have
    reports that are id shifts of each other: the boundary sets move with
    the subset and the component count stays, which is what lets a
    campaign reuse one verdict per key."""
    import boundarykit.harness as harness
    setting = harness._box_setting(theorem, box, augmentation)
    g, g_prime, probe = apexed_roles(theorem, box, augmentation)
    first, subsets = {}, 0
    for c in enumerate_connected_subsets(setting.roles[1], max_size,
                                         allowed=margin_interior(setting.box, 2)):
        subsets += 1
        rep = full_report(g, g_prime, probe, c, setting.apex)
        key = _shape_key(sum(1 << v for v in c))
        rep0, low0 = first.setdefault(key, (rep, min(c)))
        t = min(c) - low0
        for name in ("boundary", "visible", "outer_visible"):
            assert getattr(rep, name) == frozenset(v + t for v in getattr(rep0, name))
        assert rep.component_count == rep0.component_count
    assert len(first) < subsets


def _translation_classes(box, flavor, margin, max_size):
    """Every connected subset of the box's margin interior (connected in
    the ``flavor`` box), by shape key: its lowest translate, the first
    the enumeration lists, and its number of translates."""
    import boundarykit.harness as harness
    host = build_box(BoxSpec(box.d, box.side, flavor))
    allowed = _neighbourhood_plan(host).mask(margin_interior(host, margin))
    classes = {}
    for cm in _connected_masks(host, max_size, allowed):
        first, count = classes.get(_shape_key(cm), (cm, 0))
        classes[_shape_key(cm)] = (first, count + 1)
    return classes


def _assert_shapes_are_the_classes(cfg, augmentation, classes):
    """The shape source lists each class of size ≤ ``cfg.max_size`` once,
    at its lowest translate, with its number of translates.  The first
    packed value without the root flag ends the pass: it takes no growth
    from the other roots, whose subsets it would skip one by one."""
    import boundarykit.harness as harness
    w = cfg.box.side + 2 - 2 * cfg.margin
    flag = cfg.box.d * (2 * min(w, cfg.max_size) - 1)
    grow, flagless = harness._connected_masks, []

    def growth(*args):
        for packed in grow(*args):
            flagless.append(not packed >> flag & 1)
            yield packed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_connected_masks", growth)
        # batches of one shape: each batch's placements are its shape's
        shapes = [(masks[0], placements)
                  for masks, placements in harness._apex_shapes(cfg, augmentation, 1)]
    assert sum(flagless) <= 1
    got = {_shape_key(cm): (cm, placements) for cm, placements in shapes}
    assert len(got) == len(shapes)
    assert got == {key: v for key, v in classes.items() if key.bit_count() <= cfg.max_size}


@pytest.mark.parametrize("side", range(6, 11))
@pytest.mark.parametrize("margin", [2, 3, 4])
def test_the_shape_source_lists_the_polyomino_classes(side, margin):
    """dp on z2:6..10 at margins 2..4, every size cap 1..8; the caps above
    the interior side ``n + 2 − 2·margin`` (down to 2 on z2:6) keep their
    shapes within it."""
    box = BoxSpec(2, side, "plain")
    if side + 2 - 2 * margin < 1:
        with pytest.raises(InputError, match="leaves no room"):
            run_verification(TrialConfig(theorem="dp", box=box, margin=margin))
        return
    classes = _translation_classes(box, "plain", margin, 8)
    for max_size in range(1, 9):
        cfg = TrialConfig(theorem="dp", box=box, margin=margin, max_size=max_size)
        _assert_shapes_are_the_classes(cfg, "plus", classes)


@pytest.mark.parametrize("theorem, box, augmentation, flavor, margin, max_size", [
    ("k", BoxSpec(2, 7, "plain"), "star", "star", 2, 5),
    ("k", BoxSpec(3, 6, "plain"), "star", "star", 2, 3),
    ("k", BoxSpec(3, 6, "plain"), "plus", "plus", 2, 3),
    ("dp", BoxSpec(3, 6, "plain"), "plus", "plain", 2, 4),
    ("dp", BoxSpec(2, 6, "plain"), "plain", "plain", 2, 8),    # max size 8 > w = 4
    ("dp", BoxSpec(2, 3, "plain"), "plus", "plain", 2, 3),     # a one-cell interior
    ("k", BoxSpec(3, 8, "plain"), "star", "star", 3, 3),       # w = 4, offset margin − 2 = 1
    ("dp", BoxSpec(4, 5, "plain"), "plus", "plain", 2, 3),     # four occupancy fields
    ("dp", BoxSpec(3, 5, "plain"), "plus", "plain", 2, 5),     # max size 5 > w = 3
], ids=["k-z2-star", "k-z3-star", "k-z3-plus", "dp-z3", "dp-size-above-w", "dp-one-cell",
        "k-z3-margin-3", "dp-z4", "dp-z3-size-above-w"])
def test_the_shape_source_lists_the_translation_classes(theorem, box, augmentation,
                                                        flavor, margin, max_size):
    """The shapes are connected as the theorem row says: in the plain box
    for dp, in the augmentation (``g_prime`` included) for k.  The rows
    away from d = 2 and margin 2 pin the offsets of the packed value that
    ``_apex_shapes`` carries on the enumeration stack."""
    classes = _translation_classes(box, flavor, margin, max_size)
    field = "probe" if theorem == "dp" else "g_prime"
    for cap in range(1, max_size + 1):
        cfg = TrialConfig(theorem=theorem, box=box, max_size=cap, margin=margin,
                          **{field: augmentation})
        _assert_shapes_are_the_classes(cfg, augmentation, classes)


@pytest.mark.parametrize("cfg, trials, failing", [
    (TrialConfig(theorem="dp", box=BoxSpec(2, 6, "plain"), max_size=5,
                 probe="plain"), 449, 449),
    (TrialConfig(theorem="k", box=BoxSpec(2, 6, "plain"), max_size=4,
                 g_prime="plain"), 205, 205),
    (TrialConfig(theorem="dp", box=BoxSpec(2, 9, "plain"), max_size=5, margin=3,
                 probe="plain"), 958, 958),
    (TrialConfig(theorem="dp", box=BoxSpec(3, 6, "plain"), max_size=3,
                 probe="plain"), 736, 736),
    (TrialConfig(theorem="k", box=BoxSpec(3, 6, "plain"), max_size=3,
                 g_prime="plus"), 3208, 0),
], ids=["dp-z2", "k-z2", "dp-margin-3", "dp-z3", "k-z3-plus"])
def test_apex_campaigns_by_shape_match_the_per_observer_loop(cfg, trials, failing):
    """An exhaustive apex campaign judges each shape once and counts its
    translates; its report must still be the per-instance one."""
    want_trials, want = _per_observer_reference(cfg)
    rep = run_verification(cfg, skip_hypotheses=True)
    assert (rep.trials_run, len(rep.failures)) == (want_trials, len(want)) == (trials, failing)
    assert rep.failures == want
    assert json.dumps(rep.failures) == json.dumps(want)


def _surface_sources(setting, copies):
    """The flood sources of a batch of ``copies`` apex copies: the box
    surface, the apex's neighbourhood, in every copy."""
    surface = _neighbourhood_plan(apexed_graph(setting.box)).rows[setting.apex]
    return surface * _neighbourhood_plan(setting.box).tiled(copies).ones


def test_only_the_translates_of_failing_shapes_get_records(monkeypatch):
    """With a verdict that fails the shapes of odd size only, the failure
    records are exactly the odd subsets, by their index in the listing.
    The fake verdict is the batch judge's, which hands back the odd copies
    of its batch.  The shape pass judges every shape in one batch; as one
    fails, the walk lists every subset and judges each again, all 387 in
    one batch and one round, every copy flooded from the surface."""
    import boundarykit.harness as harness
    batches = []

    def judge(trav, adj, probe, width, shapes, sources):
        batches.append((shapes, sources))
        return 0, sum(1 << i * width for i, cm in enumerate(shapes) if cm.bit_count() % 2)

    monkeypatch.setattr(harness, "_failing_batch", judge)
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 7, "plain"), max_size=4)
    rep = run_verification(cfg)
    g = build_box(cfg.box)
    subsets = list(enumerate_connected_subsets(g, 4, allowed=margin_interior(g, 2)))
    assert rep.trials_run == len(subsets) == 387
    assert [(f["trial"], f["c"]) for f in rep.failures] == [
        (i, vertexset_to_json(g, c)) for i, c in enumerate(subsets) if len(c) % 2]
    # one batch of the campaign's size: z2:7 has 49 vertices
    [(shapes, _)] = harness._apex_shapes(cfg, "plus", harness._TILE_BITS // 49)
    assert [batch for batch, _ in batches] == [shapes, [sum(1 << v for v in c) for c in subsets]]
    setting = harness._box_setting("dp", cfg.box, "plus")
    assert [sources for _, sources in batches] == [
        _surface_sources(setting, len(shapes)), _surface_sources(setting, 387)]


@pytest.mark.parametrize("theorem, box, max_size, flavor", [
    ("dp", BoxSpec(2, 9, "plain"), 6, "plain"),
    ("k", BoxSpec(3, 6, "plain"), 3, "star"),
], ids=["dp", "k"])
def test_a_passing_apex_campaign_builds_only_what_it_reads(monkeypatch, theorem, box,
                                                          max_size, flavor):
    """A passing exhaustive apex campaign plans only its role graphs
    without the apex, which its batches are tiled from, and the graph its
    shapes grow in, and its shape pass builds one box, that graph, of
    side 2·min(w, max size) − 1."""
    import boundarykit.harness as harness
    import boundarykit.lattice as lattice
    augmentation = harness._augmentation(theorem, box, None, None)
    setting = harness._box_setting(theorem, box, augmentation)     # the set-up, untested here
    plan, build, planned, built = harness._neighbourhood_plan, harness.build_box, [], []

    def no_pair(*args):
        raise AssertionError("the shape pass built a box pair")

    monkeypatch.setattr(harness, "_neighbourhood_plan", lambda g: planned.append(g) or plan(g))
    monkeypatch.setattr(harness, "build_box", lambda spec: built.append(spec) or build(spec))
    monkeypatch.setattr(lattice, "build_box_pair", no_pair)     # the set-up builds the pair
    rep = run_verification(TrialConfig(theorem=theorem, box=box, max_size=max_size))
    assert rep.passed and rep.trials_run > 0
    assert built == [BoxSpec(box.d, 2 * min(box.side - 2, max_size) - 1, flavor)]
    assert {id(g) for g in planned} == {id(g) for g in setting.roles} | {id(build(built[0]))}


_Z22, _Z25 = build_box(BoxSpec(2, 2, "plain")), build_box(BoxSpec(2, 5, "plain"))
_Z25_23 = _Z25.id_of_label((2, 3))


def _no_apex(monkeypatch):
    """Make attaching an apex raise, with every set-up cache cleared, so
    that no graph built before can stand in for one built now."""
    import boundarykit.harness as harness
    import boundarykit.lattice as lattice

    def refuse(pair):
        raise AssertionError("an apex was attached")

    monkeypatch.setattr(lattice, "with_apex", refuse)
    for cached in (harness._box_setting, build_box):
        cached.cache_clear()


@pytest.mark.parametrize("cfg", [
    TrialConfig(theorem="k", box=BoxSpec(3, 7, "plain"), mode="random", max_size=12,
                trials=300, x_policy="all-outside"),
    TrialConfig(theorem="dp", box=BoxSpec(2, 8, "plain"), mode="random", max_size=8,
                trials=300, seed=5),
    TrialConfig(theorem="dp", box=BoxSpec(2, 7, "plain"), max_size=4, x_policy="fixed",
                x_vertex=_X44),
    TrialConfig(theorem="k", box=BoxSpec(2, 7, "plain"), max_size=4, x_policy="all-outside"),
    TrialConfig(theorem="k", box=BoxSpec(3, 6, "plain"), max_size=3),
    TrialConfig(theorem="dp", box=BoxSpec(2, 5, "plain"), max_size=5, x_policy="fixed",
                x_vertex=_Z25.id_of_label((1, 1)), margin=0),
], ids=["k-random-outside", "dp-random-apex", "dp-fixed", "k-all-outside", "k-apex",
        "dp-fixed-margin-0"])
def test_a_passing_campaign_builds_no_apexed_graph(monkeypatch, cfg):
    """The batch judge runs on the role graphs without the apex, and the
    box gives what a campaign needs of the apex: its id, the box's vertex
    count, and its neighbours, the surface.  So a passing campaign, under
    every policy and at every margin, builds no apexed graph."""
    _no_apex(monkeypatch)
    rep = run_verification(cfg)
    assert rep.passed and rep.trials_run > 0


_Z26 = build_box(BoxSpec(2, 6, "plain"))


@pytest.mark.parametrize("cfg, failing", [
    (TrialConfig(theorem="dp", box=BoxSpec(2, 6, "plain"), max_size=5, probe="plain"), 449),
    (TrialConfig(theorem="dp", box=BoxSpec(2, 6, "plain"), max_size=4, probe="plain",
                 x_policy="fixed", x_vertex=_Z26.id_of_label((1, 1))), 205),
    (TrialConfig(theorem="dp", box=BoxSpec(2, 5, "plain"), max_size=3, probe="plain",
                 x_policy="all-outside"), 1019),
    (TrialConfig(theorem="k", box=BoxSpec(3, 5, "plain"), mode="random", trials=60, seed=4,
                 x_policy="all-outside", g_prime="plain"), 60),
], ids=["dp-apex", "dp-fixed-on-the-surface", "dp-all-outside", "k-random-outside"])
def test_a_failing_campaign_builds_no_apexed_graph(monkeypatch, cfg, failing):
    """A failure record floods from the surface too, so no campaign,
    passing or failing, builds an apexed graph, and its records are still
    the reports on the apexed graphs: of the apex, of box observers
    inside and of box observers on the surface, which the outside joins
    to the whole surface."""
    want_trials, want = _per_observer_reference(cfg)
    _no_apex(monkeypatch)
    rep = run_verification(cfg, skip_hypotheses=True)
    assert (rep.trials_run, len(rep.failures)) == (want_trials, len(want))
    assert rep.failures == want and len(want) == failing


@pytest.mark.parametrize("theorem, box", [
    ("dp", BoxSpec(2, 5, "plain")), ("k", BoxSpec(3, 4, "plain")), ("dp", BoxSpec(4, 3, "plain")),
    ("k", BoxSpec(2, 2, "plain"))], ids=["dp-z2", "k-z3", "dp-z4", "k-z2:2"])
def test_the_surface_mask_is_the_apexs_neighbourhood(theorem, box):
    """The campaign floods the apex's copies from the setting's surface
    mask, which must be the apex's row in the apexed traversal plan: the
    box vertices with a coordinate at 1 or n, and no vertex one layer in."""
    import boundarykit.harness as harness
    augmentation = harness._augmentation(theorem, box, None, None)
    setting = harness._box_setting(theorem, box, augmentation)
    apexed = apexed_roles(theorem, box, augmentation)[0]
    assert setting.surface == _neighbourhood_plan(apexed).rows[setting.apex]
    assert setting.surface == sum(1 << v for v, lab in enumerate(setting.box.labels)
                                  if 1 in lab or box.side in lab)


def test_a_failing_fixed_campaign_at_margin_2_reports_on_the_box_and_apex(monkeypatch):
    """At margin 2 the surface stands for the outside, so a failure
    record's report is the one on the role graphs with the apex, the ℤ^d
    view: a path through the outside can go round the visible boundary,
    and 20 of these 31 records have a larger outer-visible set than on the
    box alone.  The records flood from the surface and attach no apex.
    The digest pins every record."""
    import boundarykit.harness as harness
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 5, "plain"), max_size=3, probe="plain",
                      x_policy="fixed", x_vertex=_Z25_23)
    rep = run_verification(cfg, skip_hypotheses=True)
    assert (rep.trials_run, len(rep.failures)) == (31, 31)
    roles = harness._box_setting("dp", cfg.box, "plain").roles
    on_the_box = [report_to_json(full_report(*roles, frozenset(
        _Z25.id_of_label(tuple(p)) for p in f["c"]), _Z25_23), _Z25) for f in rep.failures]
    assert sum(f["report"] != box_rep for f, box_rep in zip(rep.failures, on_the_box)) == 20
    blob = json.dumps(rep.to_json(include_elapsed=False), sort_keys=True,
                      separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "f435187c191686b9b2a24b9800c58f5fcd58c660d4c390e1bb6fa775af04705e")
    apexed = apexed_roles("dp", cfg.box, "plain")
    assert [f["report"] for f in rep.failures] == [report_to_json(full_report(*apexed, frozenset(
        _Z25.id_of_label(tuple(p)) for p in f["c"]), _Z25_23), _Z25) for f in rep.failures]
    _no_apex(monkeypatch)
    assert run_verification(cfg, skip_hypotheses=True).failures == rep.failures


def test_a_placement_count_the_listing_disagrees_with_is_an_error(monkeypatch):
    import boundarykit.harness as harness
    shapes = harness._apex_shapes
    monkeypatch.setattr(harness, "_apex_shapes", lambda cfg, augmentation, copies: (
        (masks, placements + sum(cm.bit_count() == 3 for cm in masks))
        for masks, placements in shapes(cfg, augmentation, copies)))
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 6, "plain"), max_size=4, probe="plain")
    with pytest.raises(RuntimeError, match="placements"):
        run_verification(cfg, skip_hypotheses=True)


@pytest.mark.parametrize("cfg, shapes, failing", [
    (TrialConfig(theorem="dp", box=BoxSpec(2, 6, "plain"), max_size=5,
                 probe="plain"), 89, 449),
    (TrialConfig(theorem="k", box=BoxSpec(2, 6, "plain"), max_size=4,
                 g_prime="plain"), 28, 205),
], ids=["dp-z2", "k-z2"])
def test_a_failing_apex_campaign_hands_over_to_the_per_instance_loop(
        monkeypatch, cfg, shapes, failing):
    """The shape pass judges its shapes, here all in one batch, and once
    one fails the walk lists every subset for its records and batch-judges
    each subset again, here all in one batch of one round: two batch-judge
    calls."""
    import boundarykit.harness as harness
    augmentation = cfg.probe or cfg.g_prime
    assert sum(len(masks) for masks, _ in harness._apex_shapes(cfg, augmentation, 7)) == shapes
    judge, batches = harness._failing_batch, []

    def counting_judge(*args):
        batches.append(args[4])
        return judge(*args)

    monkeypatch.setattr(harness, "_failing_batch", counting_judge)
    rep = run_verification(cfg, skip_hypotheses=True)
    assert (rep.trials_run, len(rep.failures)) == (failing, failing)
    assert [len(batch) for batch in batches] == [shapes, failing]
    assert batches[0][0].bit_count() == 1


_Z29 = build_box(BoxSpec(2, 9, "plain"))


@pytest.mark.parametrize("cfg, fixed_c, trials, failing, rounds", [
    (TrialConfig(theorem="dp", box=BoxSpec(2, 7, "plain"), mode="random", trials=300,
                 seed=5, max_size=3, probe="plain"), None, 300, 300, [[300]]),
    (TrialConfig(theorem="dp", box=BoxSpec(2, 7, "plain"), mode="random", trials=300,
                 seed=3, x_policy="all-outside", probe="plain"), None, 300, 300, [[300]]),
    (TrialConfig(theorem="k", box=BoxSpec(2, 6, "plain"), g_prime="plain"),
     frozenset({14, 15}), 1, 1, [[1]]),
    # 125 box bits: 262 copies per batch
    (TrialConfig(theorem="k", box=BoxSpec(3, 5, "plain"), mode="random", trials=300,
                 seed=4, x_policy="all-outside", g_prime="plain"), None, 300, 300,
     [[262], [38]]),
    # 95 of the 387 subsets hold the observer and take no copy
    (TrialConfig(theorem="dp", box=BoxSpec(2, 7, "plain"), max_size=4, probe="plain",
                 x_policy="fixed", x_vertex=_X44), None, 292, 292, [[292]]),
    # the outside, then the hole
    (TrialConfig(theorem="dp", box=BoxSpec(2, 7, "plain"), probe="plain",
                 x_policy="all-outside"), _RING, 42, 41, [[1, 1]]),
    # the outside, then each hole
    (TrialConfig(theorem="dp", box=BoxSpec(2, 9, "plain"), probe="plain",
                 x_policy="all-outside"), _TWO_HOLES, 69, 67, [[1, 1, 1]]),
    # every subset of dp z2:5/3 takes the outside in round 1; none has a hole
    (TrialConfig(theorem="dp", box=BoxSpec(2, 5, "plain"), max_size=3, probe="plain",
                 x_policy="all-outside"), None, 1019, 1019, [[43]]),
    # z2:2's king box has a star, whose edge its tiles lay down as a shift
    (TrialConfig(theorem="k", box=BoxSpec(2, 2, "plain"), max_size=2, margin=0,
                 x_policy="fixed", x_vertex=_Z22.id_of_label((1, 1))), None, 6, 0, [[6]]),
    # a given subset on the surface at margin 0: the box judges it
    (TrialConfig(theorem="dp", box=BoxSpec(2, 5, "plain"), probe="plain", x_policy="fixed",
                 x_vertex=_Z25.id_of_label((1, 1)), margin=0), [(1, 3), (2, 3), (2, 4)],
     1, 1, [[1]]),
    # the wall across the box at margin 1, judged on the box itself
    (TrialConfig(theorem="dp", box=BoxSpec(2, 5, "plain"), probe="plain", x_policy="fixed",
                 x_vertex=_Z25.id_of_label((1, 1)), margin=1), _WALL, 1, 1, [[1]]),
], ids=["dp-random-apex", "dp-random-all-outside", "k-set-apex", "k-random-two-batches",
        "dp-fixed", "dp-set-all-outside", "dp-set-two-holes", "dp-all-outside", "k-star-plan",
        "dp-set-fixed-on-the-surface", "dp-set-fixed-below-margin-2"])
def test_apex_only_instances_are_judged_by_the_batch_judge(
        monkeypatch, cfg, fixed_c, trials, failing, rounds):
    """Every instance is judged by the batch judge, up to ``_TILE_BITS //
    box vertices`` instances per batch; a subset holding the fixed
    observer takes no copy.  Each batch is judged in rounds, and each
    round gives one copy to every instance with undecided observers:
    ``rounds`` lists, per batch, the copies of each round.  An instance
    with one observer takes one round; a subset seen from all outside
    takes one round for the outside and one per hole."""
    import boundarykit.harness as harness
    judge, calls = harness._failing_batch, []

    def counting_judge(*args):
        calls.append(len(args[4]))
        return judge(*args)

    monkeypatch.setattr(harness, "_failing_batch", counting_judge)
    if isinstance(fixed_c, list):
        box = build_box(cfg.box)
        fixed_c = frozenset(box.id_of_label(p) for p in fixed_c)
    rep = run_verification(cfg, skip_hypotheses=True, fixed_c=fixed_c)
    assert (rep.trials_run, len(rep.failures)) == (trials, failing)
    assert calls == [copies for batch in rounds for copies in batch]


@pytest.mark.parametrize("stuck_from", [1, 2], ids=["outside", "hole"])
def test_a_round_that_settles_nothing_is_an_error(monkeypatch, stuck_from):
    """A judge whose floods reach no observer would leave an instance's
    observers undecided round after round; the campaign must stop with an
    error instead of looping.  The judge leaves the whole box minus the
    subset unreached from the first round, which floods the outside of
    ``_PLUS_RING``, or from the second, which floods its plus-shaped
    hole."""
    import boundarykit.harness as harness
    judge, rounds = harness._failing_batch, []

    def stuck_judge(*args):
        rounds.append(len(args[4]))
        unreached, missed = judge(*args)
        if len(rounds) >= stuck_from:      # the box minus each shape, all unreached
            width, shapes = args[3], args[4]
            unreached = sum(((1 << width) - 1 ^ cm) << i * width for i, cm in enumerate(shapes))
        return unreached, missed

    monkeypatch.setattr(harness, "_failing_batch", stuck_judge)
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 9, "plain"), x_policy="all-outside")
    with pytest.raises(RuntimeError, match="settled none"):
        run_verification(cfg, fixed_c=frozenset(_Z29.id_of_label(p) for p in _PLUS_RING))
    assert rounds == [1] * stuck_from


@pytest.mark.parametrize("probe, failing, digest", [
    ("plain", 1, "2d6e1f082b75e4b509c29d8c43de579cc3b618caab6e09ab2b39fbb05388c818"),
    (None, 0, "f28b82f6ed8bce746a0e0b289badf21e41e4390c4a36e70cbe21ca4f0c74380e"),
], ids=["plain-probe", "default-probe"])
def test_a_single_observer_in_a_hole_takes_the_surface_round_then_its_own(
        monkeypatch, probe, failing, digest):
    """At margin 2 every instance's first round floods from the surface.
    A fixed observer in the plus-shaped hole of ``_PLUS_RING`` is not in
    that flood, so the surface round settles none of its observers, which
    is no error; the second round floods from the observer.  Its verdict
    is the oracle's on the apexed graphs: four probe components with the
    plain probe, one with the default.  The digest pins the report."""
    import boundarykit.harness as harness
    judge, rounds = harness._failing_batch, []

    def recording_judge(*args):
        rounds.append((len(args[4]), args[5]))
        return judge(*args)

    monkeypatch.setattr(harness, "_failing_batch", recording_judge)
    x = _Z29.id_of_label((5, 5))
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 9, "plain"), probe=probe,
                      x_policy="fixed", x_vertex=x)
    c = frozenset(_Z29.id_of_label(p) for p in _PLUS_RING)
    rep = run_verification(cfg, skip_hypotheses=True, fixed_c=c)
    assert (rep.trials_run, len(rep.failures)) == (1, failing)
    assert [f["report"]["components"] for f in rep.failures] == [4] * failing
    augmentation = probe or "plus"
    assert rounds == [(1, harness._box_setting("dp", cfg.box, augmentation).surface), (1, 1 << x)]
    apexed = [_neighbourhood_plan(g) for g in apexed_roles("dp", cfg.box, augmentation)]
    assert _failing_observers(*apexed, apexed[0].mask(c), 1 << x) == failing << x
    blob = json.dumps(rep.to_json(include_elapsed=False), sort_keys=True,
                      separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_a_failing_3d_apex_control_is_pinned():
    """A 3-D negative control: dp on z3:6 probed in the plain box fails
    every one of its 2,908 placements, with 6 to 9 probe components
    each.  The digest pins each record's probe witness, the two smallest
    vertices of the two components with the smallest members, whichever
    ``expand`` pass the component floods take."""
    cfg = TrialConfig(theorem="dp", box=BoxSpec(3, 6, "plain"), max_size=4, probe="plain")
    rep = run_verification(cfg, skip_hypotheses=True)
    assert (rep.trials_run, len(rep.failures)) == (2908, 2908)
    counts = Counter(failure["report"]["components"] for failure in rep.failures)
    assert counts == {6: 460, 7: 1656, 8: 576, 9: 216}
    blob = json.dumps(rep.to_json(include_elapsed=False), sort_keys=True,
                      separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "58303d68ba5b1eea7f11ba96476b8056ce4c50b3a861352f279fd1ceda99a60f")


@pytest.mark.parametrize("cfg, count, digest", [
    # the k-random-outside benchmark workload at seeds 0 and 1
    (TrialConfig(theorem="k", box=BoxSpec(3, 7, "plain"), mode="random", max_size=12,
                 trials=3000, x_policy="all-outside"),
     3000, "1bb4b431e3ecd6f41fbaded980141f1afa92a7969618aef550583238f8cc6627"),
    (TrialConfig(theorem="k", box=BoxSpec(3, 7, "plain"), mode="random", max_size=12,
                 trials=3000, seed=1, x_policy="all-outside"),
     3000, "9af3cadfb5d1e5f4c58ff371fc6ce7ba1fce1475e01e4953dcaf7c08c7d6cbe5"),
    (TrialConfig(theorem="dp", box=BoxSpec(2, 8, "plain"), mode="random", max_size=8,
                 trials=500, seed=5),
     500, "f9acc28cb9bd24c7e0bfac6b28f08a2dc1ad9b4545ff177da075699c3ed0dbdd"),
], ids=["k-random-outside", "k-random-outside-seed-1", "dp-random-apex"])
def test_the_sampled_instance_streams_are_pinned(cfg, count, digest):
    """A passing report holds only config, seeds and counts, so its digest
    does not see which subsets and observers the sampler drew.  This pins
    every ``(seed, subset mask, observer mask)`` a random dp/k campaign
    judges: the draws from the margin-interior pool, the size draw and the
    rank draw of an all-outside observer."""
    import boundarykit.harness as harness
    augmentation = harness._augmentation(cfg.theorem, cfg.box, cfg.probe, cfg.g_prime)
    setting = harness._box_setting(cfg.theorem, cfg.box, augmentation)
    rows = [list(row) for row in harness._boundary_instances(cfg, setting, None)]
    assert len(rows) == count
    blob = json.dumps(rows, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_rank_pick_is_the_kth_sorted_observer():
    import boundarykit.harness as harness
    for box in (BoxSpec(2, 5, "plain"), BoxSpec(3, 4, "plain")):
        apex = box.side ** box.d
        top = apex - 1
        subsets = [frozenset(), frozenset({0}), frozenset({top}), frozenset({0, top}),
                   frozenset({0, 1, 2, 7}), frozenset({top - 2, top - 1, top}),
                   frozenset(range(0, apex, 3)), frozenset(range(1, apex))]
        for c in subsets:
            xs = [v for v in range(apex + 1) if v not in c]
            cm = sum(1 << v for v in c)
            assert [harness._kth_outside(cm, k) for k in range(len(xs))] == xs


def test_random_all_outside_observers_are_drawn_by_rank():
    """The random-mode observer is the draw's rank among the sorted ids
    outside the subset, with the apex last.  Each trial replays from a
    fresh ``Random`` seeded with its seed string alone, in the documented
    order: the size, the growth, the rank."""
    import random

    import boundarykit.harness as harness
    cfg = TrialConfig(theorem="k", box=BoxSpec(3, 5, "plain"), mode="random",
                      trials=60, seed=2, max_size=6, x_policy="all-outside")
    setting = harness._box_setting("k", cfg.box, "star")
    pool = harness._sampling_pool(setting.roles[1], margin_interior(setting.box, cfg.margin))
    for seed, cm, observers in harness._boundary_instances(cfg, setting, None):
        rng = random.Random(seed)
        size = rng.randint(1, min(cfg.max_size, 27))      # the subset size draw
        # an all-outside draw always finds an observer, so the first growth stands
        c = _members(harness._grow(*pool, size, rng))
        xs = [v for v in range(setting.apex + 1) if v not in c]
        assert observers == 1 << xs[rng.randrange(len(xs))]
        assert cm == sum(1 << v for v in c)


def test_every_all_outside_rank_is_drawn_the_apex_last():
    """A random ``all-outside`` rank is drawn below the number of vertices
    outside the subset, the apex included: fed each rank in turn as its
    one draw, ``_observers`` returns each outside vertex, the apex last."""
    import boundarykit.harness as harness
    cfg = TrialConfig(theorem="k", box=BoxSpec(2, 5, "plain"), mode="random", trials=1,
                      max_size=4, x_policy="all-outside")
    apex = 25
    for c in (frozenset({12}), frozenset({6, 7, 12, 13}), frozenset({6, 7, 8, 11, 12, 13, 16})):
        xs = [v for v in range(apex + 1) if v not in c]
        for rank, x in enumerate(xs):
            draws = [rank]

            def bits(k):
                assert k == len(xs).bit_length() and draws, "not one draw below len(xs)"
                return draws.pop()

            assert harness._observers(cfg, apex, sum(1 << v for v in c), bits) == 1 << x
        assert x == apex


@pytest.mark.parametrize("theorem", ["dp", "k"])
@pytest.mark.parametrize("bad", [25, -1])
def test_a_supplied_subset_is_range_checked(theorem, bad):
    """25 is the apex id of z2:5, not a box vertex."""
    cfg = TrialConfig(theorem=theorem, box=BoxSpec(2, 5, "plain"), max_size=3,
                      x_policy="fixed", x_vertex=0)
    with pytest.raises(InputError, match=f"^vertex id {bad} outside 0..24$"):
        run_verification(cfg, fixed_c=frozenset({12, bad}))


def test_fixed_observer_policy():
    box = BoxSpec(2, 5, "plain")
    g = build_box(box)
    x = g.id_of_label((1, 1))
    cfg = TrialConfig(theorem="dp", box=box, max_size=2, x_policy="fixed",
                      x_vertex=x, margin=2)
    rep = run_verification(cfg)
    assert rep.passed and rep.trials_run > 0

