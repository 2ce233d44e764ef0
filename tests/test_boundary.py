"""Boundary operators: spec'd instances, oracle equivalence."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from boundarykit import (BoundaryReport, BoxSpec, Graph, GraphPair, InputError,
                         TrialConfig, build_box, build_box_pair, component_of, full_report,
                         margin_interior, outer_boundary, outer_visible_boundary,
                         random_connected_graph, report_to_json,
                         sample_connected_subset, visible_boundary, with_apex)

from boundarykit import harness
from boundarykit.boundary import _failing_batch, _report
from boundarykit.graphs import _members, _neighbourhood_plan

from oracles import (_failing_observers, apexed_roles, boundary_by_scan, flood_components,
                     outer_visible_by_paths, visible_by_scan)


def labels_of(g, s):
    return {g.labels[v] for v in s}


def ids_of(g, coords):
    return frozenset(g.id_of_label(c) for c in coords)


# --- outer boundary -----------------------------------------------------------

def test_outer_boundary_center_vertex():
    plain = build_box(BoxSpec(2, 5, "plain"))
    star = build_box(BoxSpec(2, 5, "star"))
    c = ids_of(plain, [(3, 3)])
    assert labels_of(plain, outer_boundary(plain, c)) == {
        (2, 3), (4, 3), (3, 2), (3, 4)}
    assert labels_of(star, outer_boundary(star, c)) == {
        (a, b) for a in (2, 3, 4) for b in (2, 3, 4)} - {(3, 3)}


def test_outer_boundary_of_everything_is_empty():
    g = build_box(BoxSpec(2, 5, "plain"))
    assert outer_boundary(g, frozenset(range(g.vertex_count))) == frozenset()
    assert outer_boundary(g, frozenset()) == frozenset()


# --- visible boundary ------------------------------------------------------------

def test_visible_boundary_from_apex_sees_all_of_a_singleton():
    pair = build_box_pair(BoxSpec(2, 5, "plain"), "plus")
    g, apex = with_apex(pair).g, pair.g.vertex_count
    c = ids_of(g, [(3, 3)])
    vis = visible_boundary(g, g, c, apex)
    assert labels_of(g, vis) == {(2, 3), (4, 3), (3, 2), (3, 4)}


def ring_around_center(g):
    """The 8-vertex square ring around (4,4) in a 7x7 box."""
    return ids_of(g, [(a, b) for a in (3, 4, 5) for b in (3, 4, 5)
                      if (a, b) != (4, 4)])


def test_visible_boundary_of_a_ring_excludes_the_enclosed_side():
    pair = build_box_pair(BoxSpec(2, 7, "plain"), "plus")
    g, apex = with_apex(pair).g, pair.g.vertex_count
    c = ring_around_center(g)
    vis = visible_boundary(g, g, c, apex)
    want = {(a, 2) for a in (3, 4, 5)} | {(a, 6) for a in (3, 4, 5)} | \
           {(2, b) for b in (3, 4, 5)} | {(6, b) for b in (3, 4, 5)}
    assert labels_of(g, vis) == want          # 12 outside neighbors
    assert len(vis) == 12
    # (4,4) is boundary but enclosed, hence invisible from outside
    assert g.id_of_label((4, 4)) in outer_boundary(g, c) - vis


def test_visible_boundary_from_the_enclosed_center_is_the_center_itself():
    """The observer is the only vertex of its component; it is adjacent to
    the ring, so the visible set is exactly the observer."""
    g = build_box(BoxSpec(2, 7, "plain"))
    c = ring_around_center(g)
    center = g.id_of_label((4, 4))
    vis = visible_boundary(g, g, c, center)
    assert vis == frozenset({center})
    assert component_of(g, center, c) == frozenset({center})


def test_visible_boundary_rejects_observers_inside():
    g = build_box(BoxSpec(2, 5, "plain"))
    c = ids_of(g, [(3, 3)])
    with pytest.raises(InputError, match="outside"):
        visible_boundary(g, g, c, g.id_of_label((3, 3)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=12), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=5000), st.data())
def test_visibility_constant_across_observer_component(nv, extra, seed, data):
    g = random_connected_graph(nv, extra, seed)
    c = frozenset(data.draw(st.sets(
        st.integers(min_value=0, max_value=nv - 1), max_size=nv - 2)))
    outside = sorted(set(range(nv)) - c)
    if not outside:
        return
    x = data.draw(st.sampled_from(outside))
    comp = component_of(g, x, c)
    base = visible_boundary(g, g, c, x)
    for x2 in sorted(comp):
        assert visible_boundary(g, g, c, x2) == base


# --- outer-visible boundary ----------------------------------------------------------

def test_outer_visible_singleton_all_qualify():
    pair = build_box_pair(BoxSpec(2, 5, "plain"), "plus")
    g, apex = with_apex(pair).g, pair.g.vertex_count
    c = ids_of(g, [(3, 3)])
    ov = outer_visible_boundary(g, g, c, apex)
    assert labels_of(g, ov) == {(2, 3), (4, 3), (3, 2), (3, 4)}


def test_outer_visible_domino_equals_visible():
    pair = build_box_pair(BoxSpec(2, 7, "plain"), "plus")
    g, apex = with_apex(pair).g, pair.g.vertex_count
    c = ids_of(g, [(3, 3), (3, 4)])
    vis = visible_boundary(g, g, c, apex)
    ov = outer_visible_boundary(g, g, c, apex)
    assert len(vis) == 6 and ov == vis


def test_outer_visible_proof_shape_on_a_ring():
    """Component-of-the-complement shape: take the visible boundary S of the
    ring, let C' be the outer component of the box minus S, and observe C'
    from the enclosed center: every boundary vertex of C' is outer-visible."""
    g = build_box(BoxSpec(2, 7, "plain"))
    ring = ring_around_center(g)
    corner = g.id_of_label((1, 1))
    s_tilde = visible_boundary(g, g, ring, corner)
    assert len(s_tilde) == 12
    c_prime = component_of(g, corner, s_tilde)
    assert len(c_prime) == 49 - 12 - 9
    y = g.id_of_label((4, 4))
    assert outer_boundary(g, c_prime) == s_tilde
    assert outer_visible_boundary(g, g, c_prime, y) == s_tilde


def test_outer_visible_can_be_strictly_smaller():
    """A dead-end corridor: the far corridor vertex is visible but every
    path to it runs through a nearer visible vertex, so it is not
    outer-visible."""
    g = build_box(BoxSpec(2, 5, "plain"))
    # walls enclosing the one-wide corridor (3,1)-(3,2)-(3,3)
    c = ids_of(g, [(2, 1), (2, 2), (2, 3), (2, 4), (3, 4),
                   (4, 4), (4, 3), (4, 2), (4, 1)])
    x = g.id_of_label((3, 1))
    vis = visible_boundary(g, g, c, x)
    ov = outer_visible_boundary(g, g, c, x)
    assert labels_of(g, vis) == {(3, 1), (3, 2), (3, 3)}   # all wall-adjacent
    assert labels_of(g, ov) == {(3, 1), (3, 2)}            # (3,3) is blocked
    assert x in ov
    assert ov < vis


# --- full reports ------------------------------------------------------------------------

def test_full_report_negative_control_center_vertex():
    g = build_box(BoxSpec(2, 5, "plain"))
    c = ids_of(g, [(3, 3)])
    x = g.id_of_label((1, 1))
    rep = full_report(g, g, g, c, x)      # probe = plain: no diagonals to help
    assert rep.component_count == 4
    assert not rep.connected
    assert rep.witness_disconnect is not None
    u, v = rep.witness_disconnect
    assert u in rep.visible and v in rep.visible
    comp_u = component_of(g, u, frozenset(range(g.vertex_count)) - rep.visible)
    assert v not in comp_u


def test_full_report_positive_with_plus_probe():
    plus = build_box(BoxSpec(2, 5, "plus"))
    g = build_box(BoxSpec(2, 5, "plain"))
    c = ids_of(g, [(3, 3)])
    rep = full_report(g, g, plus, c, g.id_of_label((1, 1)))
    assert rep.connected and rep.component_count == 1
    assert rep.witness_disconnect is None


def test_report_nesting_is_validated():
    with pytest.raises(InputError, match="nest"):
        BoundaryReport(frozenset({1}), frozenset({1, 2}), frozenset(), 1, None)
    with pytest.raises(InputError, match="at least 1"):
        BoundaryReport(frozenset(), frozenset(), frozenset(), 0, None)


def test_report_json_shapes():
    g = build_box(BoxSpec(2, 5, "plain"))
    c = ids_of(g, [(3, 3)])
    rep = full_report(g, g, g, c, g.id_of_label((1, 1)))
    data = report_to_json(rep, g)
    assert data["components"] == 4
    assert data["boundary"] == [[2, 3], [3, 2], [3, 4], [4, 3]]
    assert isinstance(data["witness"], list) and len(data["witness"]) == 2

    from boundarykit import Graph
    bare = Graph(3, [(0, 1), (1, 2)])
    rep2 = full_report(bare, bare, bare, frozenset({1}), 0)
    data2 = report_to_json(rep2, bare)
    assert data2["boundary"] == [0, 2]
    assert data2["visible"] == [0]            # 2 is walled off behind c
    assert data2["components"] == 1 and "witness" not in data2

    # unlabeled witness pair: visible {1,3} probed in an edgeless graph
    square = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    rep3 = full_report(square, square, Graph(4, []), frozenset({0}), 2)
    data3 = report_to_json(rep3, square)
    assert data3["visible"] == [1, 3]
    assert data3["components"] == 2 and data3["witness"] == [1, 3]


def test_graph_size_mismatch_is_rejected():
    g = build_box(BoxSpec(2, 5, "plain"))
    h = build_box(BoxSpec(2, 4, "plain"))
    with pytest.raises(InputError, match="share"):
        full_report(g, h, g, frozenset({0}), 1)


@pytest.mark.parametrize("roles, c, x, message", [
    ("ggg", {12}, 12, "outside the subset"),
    ("ghg", {0}, 1, "share"),
    ("ggh", {0}, 1, "share"),
    ("ggg", {0, 25}, 1, "outside 0..24"),
    ("ggg", {0, -1}, 1, "outside 0..24"),
    ("ggg", {0}, 25, "outside 0..24"),
], ids=["observer-in-c", "adjacency-size", "probe-size", "id-too-large",
        "id-negative", "observer-out-of-range"])
def test_visible_component_count_checks_like_full_report(roles, c, x, message):
    """``full_report``, the public way to judge one instance, refuses an
    observer in the subset, graphs of different sizes and ids out of
    range, with a message naming the fault."""
    graphs = {"g": build_box(BoxSpec(2, 5, "plain")), "h": build_box(BoxSpec(2, 4, "plain"))}
    with pytest.raises(InputError, match=message):
        full_report(*[graphs[r] for r in roles], frozenset(c), x)


# --- definition-level oracle equivalence ----------------------------------------------

def oracle_corpus():
    """Labeled and unlabeled graphs of ≤ 20 vertices for oracle comparison."""
    out = [
        build_box(BoxSpec(2, 2, "plain")),
        build_box(BoxSpec(2, 2, "star")),
        build_box(BoxSpec(2, 3, "plain")),
        build_box(BoxSpec(2, 3, "star")),
        build_box(BoxSpec(2, 3, "plus")),
        build_box(BoxSpec(2, 4, "plain")),
        build_box(BoxSpec(3, 2, "plain")),
        build_box(BoxSpec(3, 2, "star")),
        attach_apex_pairless(build_box(BoxSpec(2, 3, "plain"))),
    ]
    for seed in range(6):
        out.append(random_connected_graph(5 + 2 * seed, 4 + seed, seed))
    return [g for g in out if g.vertex_count <= 20]


def attach_apex_pairless(g):
    from boundarykit import attach_apex
    return attach_apex(g)


@pytest.mark.parametrize("g", oracle_corpus(),
                         ids=lambda g: f"V{g.vertex_count}E{g.edge_count}")
def test_boundary_operators_match_path_oracles(g):
    import random as _random
    rng = _random.Random(g.fingerprint() & 0xFFFF)
    instances = []
    for _ in range(12):
        size = rng.randint(1, max(1, g.vertex_count // 3))
        members = rng.sample(range(g.vertex_count), size)
        c = frozenset(members)
        outside = [v for v in range(g.vertex_count) if v not in c]
        if not outside:
            continue
        instances.append((c, rng.choice(outside)))
    for c, x in instances:
        bd = outer_boundary(g, c)
        assert bd == frozenset(boundary_by_scan(g.vertex_count, g.edges, c))
        vis = visible_boundary(g, g, c, x)
        assert vis == frozenset(visible_by_scan(
            g.vertex_count, g.edges, g.edges, c, x))
        ov = outer_visible_boundary(g, g, c, x)
        assert ov == frozenset(outer_visible_by_paths(
            g.vertex_count, g.edges, c, x, vis))


@pytest.mark.parametrize("flavors", [("plain", "star"), ("plain", "plus")])
def test_boundary_operators_match_oracles_on_mixed_pairs(flavors):
    base, aug = flavors
    g = build_box(BoxSpec(2, 4, base))
    gp = build_box(BoxSpec(2, 4, aug))
    import random as _random
    rng = _random.Random(17)
    for _ in range(15):
        size = rng.randint(1, 5)
        c = frozenset(rng.sample(range(16), size))
        outside = [v for v in range(16) if v not in c]
        x = rng.choice(outside)
        assert outer_boundary(gp, c) == frozenset(
            boundary_by_scan(16, gp.edges, c))
        vis = visible_boundary(g, gp, c, x)
        assert vis == frozenset(visible_by_scan(16, g.edges, gp.edges, c, x))
        ov = outer_visible_boundary(g, gp, c, x)
        assert ov == frozenset(outer_visible_by_paths(16, g.edges, c, x, vis))


# --- the bitmask kernel beyond one machine word ------------------------------------

def apexed_box_pairs():
    """Apexed lattice pairs of more than 64 vertices: (name, pair, apex)."""
    out = []
    for spec, aug in ((BoxSpec(2, 9, "plain"), "plus"), (BoxSpec(3, 5, "plain"), "star")):
        pair = build_box_pair(spec, aug)
        out.append((f"z{spec.d}:{spec.side}+{aug}", with_apex(pair), pair.g.vertex_count))
    return out


def big_settings():
    """(traversal, adjacency, probe, subset host, apex or None) with more
    than 64 vertices: the dp and k roles on apexed boxes, the dp roles
    probed in the plain box (a negative control with disconnected visible
    sets), and random connected graphs."""
    out = []
    for name, pair, apex in apexed_box_pairs():
        if name.endswith("plus"):
            out.append((name + "/dp", (pair.g, pair.g, pair.g_plus), pair.g, apex))
            out.append((name + "/dp-plain-probe", (pair.g, pair.g, pair.g), pair.g, apex))
        else:
            out.append((name + "/k", (pair.g, pair.g_plus, pair.g), pair.g_plus, apex))
    for nv, seed in ((65, 1), (90, 2), (130, 3)):
        g = random_connected_graph(nv, nv // 2, seed)
        out.append((f"random-V{nv}", (g, g, g), g, None))
    return out


def expected_report(g, g_prime, probe, c, x):
    """The five report fields from the definition-level oracles."""
    n = g.vertex_count
    boundary = frozenset(boundary_by_scan(n, g_prime.edges, c))
    visible = frozenset(visible_by_scan(n, g.edges, g_prime.edges, c, x))
    outer = frozenset(outer_visible_by_paths(n, g.edges, c, x, visible))
    comps = flood_components(probe.edges, visible)
    witness = (min(comps[0]), min(comps[1])) if len(comps) > 1 else None
    return boundary, visible, outer, max(1, len(comps)), witness


@pytest.mark.parametrize("setting", big_settings(), ids=lambda s: s[0])
def test_full_report_matches_oracles_beyond_one_word(setting):
    """Masks span several machine words here; every field of the report,
    the component count and the witness included, matches the oracles for
    apex, interior and C-adjacent observers.  The campaigns' verdict
    kernel, given every observer outside C, fails exactly the observers
    whose report is disconnected."""
    _, (g, g_prime, probe), host, apex = setting
    rng = random.Random(g.vertex_count)
    box_ids = range(apex if apex is not None else g.vertex_count)
    allowed = margin_interior(host, 2) if apex is not None else None
    disconnected = 0
    for i in range(8):
        size = rng.randint(1, 8)
        if i % 2 == 0:
            c = sample_connected_subset(host, size, seed=f"big/{i}", allowed=allowed)
        else:
            c = frozenset(rng.sample(box_ids, size))
        adjacent = sorted({w for v in c for w in g.adjacency[v]} - c)
        interior = [v for v in box_ids if v not in c]
        observers = {rng.choice(interior)}
        if adjacent:
            observers.add(rng.choice(adjacent))
        if apex is not None:
            observers.add(apex)
        for x in sorted(observers):
            rep = full_report(g, g_prime, probe, c, x)
            want = expected_report(g, g_prime, probe, c, x)
            got = (rep.boundary, rep.visible, rep.outer_visible,
                   rep.component_count, rep.witness_disconnect)
            assert got == want, (sorted(c), x)
            disconnected += rep.component_count > 1
        trav, adj = _neighbourhood_plan(g), _neighbourhood_plan(g_prime)
        cm = trav.mask(c)
        want_failing = sum(1 << x for x in range(g.vertex_count) if x not in c
                           and full_report(g, g_prime, probe, c, x).component_count != 1)
        got_failing = _failing_observers(trav, adj, _neighbourhood_plan(probe),
                                         cm, trav.full ^ cm)
        assert got_failing == want_failing, sorted(c)
    if setting[0].endswith("plain-probe"):
        assert disconnected, "the negative control must exercise witnesses"


@pytest.mark.parametrize("g", oracle_corpus() + [
    graph for _, pair, _ in apexed_box_pairs() for graph in (pair.g, pair.g_plus)
] + [Graph(1, []), Graph(5, [])], ids=lambda g: f"V{g.vertex_count}E{g.edge_count}")
def test_outer_boundary_of_a_vertex_is_its_neighbourhood(g):
    """Exact per-edge coverage of the public operator: every singleton's
    outer boundary is its adjacency.  Singletons take the row pass of the
    neighbourhood plan; the next test covers the shift pass."""
    for v in range(g.vertex_count):
        assert outer_boundary(g, frozenset({v})) == frozenset(g.adjacency[v])


@pytest.mark.parametrize("g", oracle_corpus() + [
    graph for _, pair, _ in apexed_box_pairs() for graph in (pair.g, pair.g_plus)
], ids=lambda g: f"V{g.vertex_count}E{g.edge_count}")
def test_both_expand_passes_give_the_adjacency_union(g):
    """``expand`` ORs neighbour rows for masks of at most one vertex per
    shift, so singletons never reach the shift pass there.  Both passes
    are checked against the union of the members' adjacency: on every
    singleton, where a wrapping shift mask or an edge missing from every
    shift shows, and on seeded masks whose sizes straddle the row-pass
    limit."""
    plan = _neighbourhood_plan(g)
    limit = len(plan.shifts)
    rng = random.Random(g.vertex_count)
    masks = [1 << v for v in range(g.vertex_count)]
    for _ in range(40):
        size = rng.randint(max(1, limit - 2), min(g.vertex_count, limit + 3))
        masks.append(sum(1 << v for v in rng.sample(range(g.vertex_count), size)))
    assert any(m.bit_count() > limit for m in masks)
    for m in masks:
        want = sum(1 << w for w in {w for v in range(g.vertex_count) if m >> v & 1
                                    for w in g.adjacency[v]})
        assert plan.expand(m) == plan._expand_by_shifts(m) == want, bin(m)


# --- tiled plans and the batch judge --------------------------------------------

def assert_tiles_expand_each_copy(plan, k, seed):
    """``plan.tiled(k)``'s ``expand`` is the OR, over copies, of the plan's
    ``expand`` on that copy's slice.  Singletons at each copy's first and
    last id and seeded masks spanning every copy would show a shift that
    leaks across a copy seam."""
    n = plan.vertex_count
    tile = plan.tiled(k)
    assert tile.vertex_count == k * n
    assert tile.full == (1 << k * n) - 1
    assert (plan.ones, tile.ones) == (1, sum(1 << i * n for i in range(k)))
    assert tile.rows == ()
    rng = random.Random(seed)
    masks = [1 << i * n + v for i in range(k) for v in (0, n - 1)]
    masks += [rng.getrandbits(k * n) & rng.getrandbits(k * n) for _ in range(12)]
    for m in masks:
        want = 0
        for i in range(k):
            want |= plan.expand(m >> i * n & plan.full) << i * n
        assert tile.expand(m) == want, bin(m)


@pytest.mark.parametrize("spec", [BoxSpec(d, side, flavor) for d in (2, 3, 4)
                                  for side in (3, 4, 5) for flavor in ("plain", "plus", "star")],
                         ids=str)
def test_a_tiled_plan_expands_each_copy_on_its_own(spec):
    """``tiled(k)`` holds ``k`` disjoint copies of the plan."""
    assert_tiles_expand_each_copy(_neighbourhood_plan(build_box(spec)), 3, str(spec))


@pytest.mark.parametrize("g", [
    build_box(BoxSpec(2, 2, "plus")), build_box(BoxSpec(3, 2, "star")),
    random_connected_graph(14, 9, "tiled-stars"),
    with_apex(build_box_pair(BoxSpec(2, 4, "plain"), "plus")).g_plus,
], ids=["z2:2:plus", "z3:2:star", "random", "apexed-z2:4:plus"])
def test_a_tiled_one_edge_shift_expands_each_copy_as_the_plan_does(g):
    """Every edge difference is a shift, even one that a single edge has:
    the long diagonals of a side-2 box, the odd edges of a random graph,
    the apex's spokes.  Such a shift's ``low`` has one bit in the plan
    and one per copy in the tiled view, and each copy must expand exactly
    as the untiled plan expands it."""
    plan = _neighbourhood_plan(g)
    assert any(low.bit_count() == 1 for _, low in plan.shifts)
    for k in (1, 3):
        assert_tiles_expand_each_copy(plan, k, g.vertex_count)


def failing_copies(missed, width, count):
    """The indices of the copies whose slice of ``missed`` is not empty."""
    return [i for i in range(count) if missed >> i * width & (1 << width) - 1]


class BatchJudge:
    """A dp/k campaign's apexed role plans, for ``_failing_observers``, and
    its plans without the apex for ``_failing_batch``: tiled for batches,
    untiled for a batch of one.  An observer is a vertex id of the apexed
    graphs, the apex by default; its copy is flooded from the box surface
    for the apex and from its own bit otherwise.  The surface is the
    apex's row in the apexed traversal plan, which the campaign's surface
    mask must equal."""

    def __init__(self, cfg, copies):
        self.augmentation = harness._augmentation(cfg.theorem, cfg.box, cfg.probe,
                                                  cfg.g_prime)
        setting = harness._box_setting(cfg.theorem, cfg.box, self.augmentation)
        self.plans = [_neighbourhood_plan(g) for g in
                      apexed_roles(cfg.theorem, cfg.box, self.augmentation)]
        self.box_plans = [_neighbourhood_plan(g) for g in setting.roles]
        self.tiles = [plan.tiled(copies) for plan in self.box_plans]
        self.apex = self.width = setting.apex
        self.surface = self.plans[0].rows[self.apex]
        assert setting.surface == self.surface
        self.interior = sorted(margin_interior(setting.box, cfg.margin))
        self.connect_host = setting.roles[1]

    def source(self, x):
        return self.surface if x == self.apex else 1 << x

    def kernel(self, cm, x=None):
        """Whether ``_failing_observers`` fails the observer ``x`` for ``cm``."""
        return bool(_failing_observers(*self.plans, cm, 1 << (self.apex if x is None else x)))

    def unreached(self, cm, x):
        """What the traversal flood of ``cm``'s copy from ``x``'s source
        leaves of the box minus ``cm``."""
        trav = self.box_plans[0]
        return trav.full ^ cm ^ trav.flood(self.source(x), trav.full ^ cm)

    def batch(self, shapes, observers=None):
        """Per copy, whether ``_failing_batch`` fails it: copy ``i`` holds
        ``shapes[i]`` seen from ``observers[i]``.  Each copy's slice of the
        unreached mask the judge hands back is what that copy's own flood
        leaves unreached."""
        observers = observers or [self.apex] * len(shapes)
        sources = sum(self.source(x) << i * self.width for i, x in enumerate(observers))
        unreached, missed = _failing_batch(*self.tiles, self.width, shapes, sources)
        assert unreached == sum(self.unreached(cm, x) << i * self.width
                                for i, (cm, x) in enumerate(zip(shapes, observers)))
        failing = failing_copies(missed, self.width, len(shapes))
        assert missed >> len(shapes) * self.width == 0
        return [i in failing for i in range(len(shapes))]

    def single(self, cm, x=None):
        """Whether ``_failing_batch`` fails ``cm`` as a batch of one on the
        untiled plans, where a copy's repunit is 1 and small masks take
        the row pass."""
        x = self.apex if x is None else x
        unreached, missed = _failing_batch(*self.box_plans, self.width, [cm], self.source(x))
        assert unreached == self.unreached(cm, x)
        return bool(missed)


@pytest.mark.parametrize("cfg, failing", [
    (TrialConfig(theorem="dp", box=BoxSpec(2, 9, "plain"), max_size=6), 0),
    (TrialConfig(theorem="k", box=BoxSpec(3, 6, "plain"), max_size=3), 0),
    (TrialConfig(theorem="dp", box=BoxSpec(4, 5, "plain"), max_size=3), 0),
    (TrialConfig(theorem="dp", box=BoxSpec(2, 6, "plain"), max_size=5, probe="plain"), 89),
    (TrialConfig(theorem="k", box=BoxSpec(2, 6, "plain"), max_size=4, g_prime="plain"), 28),
], ids=["dp-z2:9/6", "k-z3:6/3", "dp-z4:5/3", "dp-449-control", "k-205-control"])
def test_the_batch_judge_fails_the_shapes_the_kernel_fails(cfg, failing):
    """On every shape of a campaign, judged in batches of 10 (so the last
    batch is short), in one batch and one by one on the untiled plans, the
    batch judge fails exactly the shapes whose apex ``_failing_observers``
    fails."""
    judge = BatchJudge(cfg, 10)
    shapes = [cm for cm, _ in harness._apex_shapes(cfg, judge.augmentation)]
    want = [judge.kernel(cm) for cm in shapes]
    assert sum(want) == failing
    assert len(shapes) % 10
    got = [v for i in range(0, len(shapes), 10) for v in judge.batch(shapes[i:i + 10])]
    assert got == want
    assert BatchJudge(cfg, len(shapes)).batch(shapes) == want
    assert [judge.single(cm) for cm in shapes] == want


# Batch judges of 12 copies for drawn interior masks: dp probed in
# ``plus`` and in the plain box (a control that fails every mask), k on a
# star adjacency, in 2-D and 3-D, and at margin 3.
DRAWN_MASK_JUDGES = [BatchJudge(cfg, 12) for cfg in (
    TrialConfig(theorem="dp", box=BoxSpec(2, 8, "plain")),
    TrialConfig(theorem="dp", box=BoxSpec(2, 8, "plain"), probe="plain"),
    TrialConfig(theorem="k", box=BoxSpec(2, 8, "plain")),
    TrialConfig(theorem="dp", box=BoxSpec(3, 6, "plain")),
    TrialConfig(theorem="k", box=BoxSpec(3, 7, "plain"), margin=3),
    TrialConfig(theorem="dp", box=BoxSpec(2, 9, "plain"), margin=3),
)]


def interior_masks(judge):
    """Hypothesis strategy: nonempty masks inside a judge's margin
    interior, connected in the campaign's host or any subset at all."""
    grown = st.builds(lambda size, seed: sum(1 << v for v in sample_connected_subset(
        judge.connect_host, size, seed, allowed=frozenset(judge.interior))),
        st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
    loose = st.sets(st.sampled_from(judge.interior), min_size=1, max_size=6).map(
        lambda vs: sum(1 << v for v in vs))
    return st.one_of(grown, loose)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_batch_judge_fails_the_drawn_masks_the_kernel_fails(data):
    """Connected and disconnected interior masks, so that verdicts mix,
    in batches of 1 to 12 on a tile of 12 copies, so that short batches
    leave copies unused, and one by one on the untiled plans; each seen
    from the apex or from a drawn box vertex outside it."""
    judge = data.draw(st.sampled_from(DRAWN_MASK_JUDGES), label="judge")
    shapes = data.draw(st.lists(interior_masks(judge), min_size=1, max_size=12),
                       label="shapes")
    observers = [data.draw(st.one_of(st.just(judge.apex), st.sampled_from(
        [v for v in range(judge.apex) if not cm >> v & 1])), label="observer")
        for cm in shapes]
    want = [judge.kernel(cm, x) for cm, x in zip(shapes, observers)]
    assert judge.batch(shapes, observers) == want
    assert [judge.single(cm, x) for cm, x in zip(shapes, observers)] == want


def test_a_failing_copy_is_found_wherever_it_sits():
    """One failing mask among passing ones, first, in the middle, last and
    in a short last batch: exactly its copy fails, and the judge hands
    back that mask alone."""
    judge = DRAWN_MASK_JUDGES[0]                    # dp, z2:8, probed in plus
    g = build_box(BoxSpec(2, 8, "plain"))
    cell = lambda *coords: sum(1 << g.id_of_label(c) for c in coords)
    apart = cell((3, 3), (6, 6))                    # two far cells: two rings
    passing = [cell((3, 3)), cell((4, 5), (5, 5)), cell((4, 4), (4, 5), (5, 4)),
               cell((6, 3))]
    assert judge.kernel(apart) and not any(judge.kernel(cm) for cm in passing)
    assert judge.single(apart) and not any(judge.single(cm) for cm in passing)
    for at in (0, len(passing) // 2, len(passing)):
        shapes = passing[:at] + [apart] + passing[at:]
        assert judge.batch(shapes) == [cm == apart for cm in shapes]
        surfaces = judge.surface * judge.tiles[0].ones & (1 << len(shapes) * judge.width) - 1
        _, missed = _failing_batch(*judge.tiles, judge.width, shapes, surfaces)
        assert failing_copies(missed, judge.width, len(shapes)) == [at]
    assert judge.batch([passing[0], apart]) == [False, True]
    assert judge.batch([apart]) == [True]


def test_a_copy_with_an_empty_visible_boundary_is_an_error():
    """An empty mask has no boundary at all; the judge must refuse its
    batch wherever the copy sits, never read it as a pass."""
    judge = DRAWN_MASK_JUDGES[0]
    ok = 1 << judge.interior[0]
    for shapes in ([0], [0, ok, ok], [ok, 0, ok], [ok, ok, 0], [ok, 0]):
        with pytest.raises(RuntimeError, match="empty visible boundary"):
            judge.batch(shapes)
    with pytest.raises(RuntimeError, match="empty visible boundary"):
        judge.single(0)
    # a copy with no flood source sees no boundary either
    for sources in (0, judge.surface, judge.surface << judge.width):
        with pytest.raises(RuntimeError, match="empty visible boundary"):
            _failing_batch(*judge.tiles, judge.width, [ok, ok], sources)


# Every single-observer instance of three campaigns, judged in batches of
# this many copies: each subset's apex and box observers are consecutive,
# so batches mix the two kinds of source, and no count below is a
# multiple of it, so the last batch is short.
_OBSERVER_COPIES = 97


@pytest.mark.parametrize("theorem, box, max_size", [
    ("dp", BoxSpec(2, 6, "plain"), 4),
    ("k", BoxSpec(2, 6, "plain"), 3),
    ("dp", BoxSpec(3, 5, "plain"), 3),
], ids=["dp-z2:6", "k-z2:6", "dp-z3:5"])
@pytest.mark.parametrize("plain", [False, True], ids=["default", "plain"])
def test_the_batch_judge_fails_the_observers_the_kernel_fails(theorem, box, max_size, plain):
    """For every connected subset of the margin-2 interior and every one
    observer, the apex or a box vertex outside the subset, the batch
    judge on the plans without the apex fails exactly the instances that
    ``_failing_observers`` fails on the apexed plans: at margin 2 the
    surface misses C and stays connected, so a box observer's flood
    reaches the apex exactly when it reaches the surface.  With the plain
    augmentation (dp probed in the plain box, k with plain adjacency)
    some of them fail."""
    field = "probe" if theorem == "dp" else "g_prime"
    cfg = TrialConfig(theorem=theorem, box=box, **({field: "plain"} if plain else {}))
    judge = BatchJudge(cfg, _OBSERVER_COPIES)
    allowed = sum(1 << v for v in judge.interior)
    instances = [(cm, x) for cm in harness._connected_masks(judge.connect_host, max_size, allowed)
                 for x in range(judge.apex + 1) if not cm >> x & 1]
    assert len(instances) % _OBSERVER_COPIES
    want = [judge.kernel(cm, x) for cm, x in instances]
    got = []
    for i in range(0, len(instances), _OBSERVER_COPIES):
        shapes, observers = zip(*instances[i:i + _OBSERVER_COPIES])
        got += judge.batch(list(shapes), list(observers))
    assert got == want
    assert (sum(want) > 0) == plain


# --- the surface rule: the apex as a flood source --------------------------------

@pytest.mark.parametrize("theorem, box, max_size, override", [
    ("dp", BoxSpec(2, 6, "plain"), 4, None),
    ("dp", BoxSpec(2, 6, "plain"), 4, "plain"),
    ("k", BoxSpec(2, 6, "plain"), 4, "plain"),
    ("k", BoxSpec(3, 5, "plain"), 2, None),
    ("dp", BoxSpec(3, 5, "plain"), 2, None),
], ids=["dp-z2:6", "dp-z2:6-plain-probe", "k-z2:6-plain-adjacency", "k-z3:5", "dp-z3:5"])
@pytest.mark.parametrize("margin", [2, 3])
def test_the_surface_rule_reports_as_the_apexed_graphs_do(theorem, box, max_size, override,
                                                           margin):
    """``_report`` on the role graphs without the apex, given the surface,
    is ``full_report`` on the apexed graphs, for every connected subset of
    the margin interior and every observer: each box vertex outside it,
    surface vertices included, and the apex, id |V|.  Gluing the region
    behind the visible boundary to the surface is what makes the
    outer-visible sets agree.  Each part of the glue (an observer on the
    surface, a region that reaches the surface, the second region flood,
    the glued surface in the outer-visible mask) is needed on at least 124
    of the 6,913 margin-2 pairs of z2:6.  The 3-D boxes take subsets of
    up to 2 cells: with 3 cells, k on z3:5 has 166,754 pairs, half a
    minute of apexed reports."""
    field = "probe" if theorem == "dp" else "g_prime"
    cfg = TrialConfig(theorem=theorem, box=box, margin=margin,
                      **({field: override} if override else {}))
    augmentation = harness._augmentation(theorem, box, cfg.probe, cfg.g_prime)
    setting = harness._box_setting(theorem, box, augmentation)
    plans = [_neighbourhood_plan(g) for g in setting.roles]
    apexed = apexed_roles(theorem, box, augmentation)
    allowed = plans[0].mask(margin_interior(setting.box, margin))
    pairs = 0
    for cm in harness._connected_masks(setting.roles[1], max_size, allowed):
        c = _members(cm)
        for x in range(setting.apex + 1):
            if not cm >> x & 1:
                want = full_report(*apexed, c, x)
                assert _report(*plans, cm, x, setting.surface) == want, (sorted(c), x)
                pairs += 1
    assert pairs > 0
