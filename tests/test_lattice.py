"""Lattice boxes, flavors, unit-face cycles, patch cycles, apex, margins."""

import pytest
from hypothesis import given, settings, strategies as st

from boundarykit import (BoxSpec, EdgeVector, GraphPair, InputError,
                         attach_apex, basic_four_cycles, box_shell, build_box,
                         build_box_pair, cube_patch_cycle, cycle_space_rank,
                         decompose, extra_edge_patches, four_cycle_gen,
                         is_generating, margin_interior,
                         parse_box_spec, with_apex)

from oracles import (chordal_by_pairs, expected_edge_pairs, gf2_rank_sets,
                     patch_path_by_search)


# --- specs --------------------------------------------------------------------

def test_parse_box_spec_roundtrip():
    spec = parse_box_spec("z2:5:star")
    assert spec == BoxSpec(2, 5, "star")
    assert str(spec) == "z2:5:star"
    assert parse_box_spec(" z3:4:plain ") == BoxSpec(3, 4, "plain")


@pytest.mark.parametrize("bad", [
    "", "z2:5", "2:5:plain", "z2:5:king", "zx:5:plain", "z2:5:plain:extra",
])
def test_parse_box_spec_rejects_malformed(bad):
    with pytest.raises(InputError, match="box spec"):
        parse_box_spec(bad)


def test_box_spec_validation():
    with pytest.raises(InputError, match="dimension"):
        BoxSpec(0, 3, "plain")
    with pytest.raises(InputError, match="side"):
        BoxSpec(2, 0, "plain")
    with pytest.raises(InputError, match="flavor"):
        BoxSpec(2, 3, "king")
    with pytest.raises(InputError, match="2-faces"):
        BoxSpec(1, 3, "plus")
    with pytest.raises(InputError, match="id-space"):
        BoxSpec(9, 10, "plain")
    for d, side in [(True, 3), (2, True), (2.0, 3), (2, 3.0), ("2", 3)]:
        with pytest.raises(InputError, match="must be an int"):
            BoxSpec(d, side, "plain")


# --- box construction ------------------------------------------------------------

def test_unit_square_boxes():
    plain = build_box(BoxSpec(2, 2, "plain"))
    assert plain.vertex_count == 4 and plain.edge_count == 4
    star = build_box(BoxSpec(2, 2, "star"))
    assert star.vertex_count == 4 and star.edge_count == 6   # complete graph
    plus = build_box(BoxSpec(2, 2, "plus"))
    assert plus.edge_count == 6                               # same here


def test_ids_enumerate_first_coordinate_fastest():
    g = build_box(BoxSpec(2, 3, "plain"))
    assert g.labels[0] == (1, 1)
    assert g.labels[1] == (2, 1)
    assert g.labels[3] == (1, 2)
    assert g.id_of_label((3, 3)) == 8
    h = build_box(BoxSpec(3, 2, "plain"))
    assert h.labels[1] == (2, 1, 1)
    assert h.labels[2] == (1, 2, 1)
    assert h.labels[4] == (1, 1, 2)


@pytest.mark.parametrize("d,n", [(1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                 (3, 2), (3, 3), (4, 2), (4, 3)])
@pytest.mark.parametrize("flavor", ["plain", "star", "plus"])
def test_box_edges_match_pair_scan_oracle(d, n, flavor):
    if flavor == "plus" and d < 2:
        return
    g = build_box(BoxSpec(d, n, flavor))
    got = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges}
    assert got == expected_edge_pairs(d, n, flavor)


def test_star_cube_edge_count():
    g = build_box(BoxSpec(3, 3, "star"))
    assert g.vertex_count == 27
    assert g.edge_count == 158
    assert g.edge_count == len(expected_edge_pairs(3, 3, "star"))


def test_flavor_containment_chain():
    for d, n in [(2, 2), (2, 4), (3, 2), (3, 3)]:
        plain = build_box(BoxSpec(d, n, "plain"))
        plus = build_box(BoxSpec(d, n, "plus"))
        star = build_box(BoxSpec(d, n, "star"))
        assert set(plain.edges) <= set(plus.edges) <= set(star.edges)
        if d >= 3 and n >= 2:
            assert set(plus.edges) < set(star.edges)  # corner diagonals missing


def test_build_box_is_memoized():
    assert build_box(BoxSpec(2, 4, "plain")) is build_box(BoxSpec(2, 4, "plain"))


def test_build_box_pair():
    pair = build_box_pair(BoxSpec(2, 3, "plain"), "star")
    assert pair.g.edge_count == 12 and pair.g_plus.edge_count == 20
    assert isinstance(pair, GraphPair)


# --- unit-face cycles --------------------------------------------------------------

def test_basic_four_cycles_counts_and_rank():
    cycles = basic_four_cycles(BoxSpec(2, 3, "plain"))
    assert len(cycles) == 4
    assert all(c.is_cycle() and len(c) == 4 for c in cycles)
    assert gf2_rank_sets([c.edge_ids() for c in cycles]) == 4 == 12 - 9 + 1

    cube = basic_four_cycles(BoxSpec(3, 2, "plain"))
    assert len(cube) == 6
    assert gf2_rank_sets([c.edge_ids() for c in cube]) == 5 == 12 - 8 + 1


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (2, 5),
                                 (3, 2), (3, 3), (3, 4), (3, 5)])
def test_four_cycles_generate_and_count_formula(d, n):
    spec = BoxSpec(d, n, "plain")
    cycles = basic_four_cycles(spec)
    from math import comb
    assert len(cycles) == comb(d, 2) * (n - 1) ** 2 * n ** (d - 2)
    gen = four_cycle_gen(spec)
    assert is_generating(gen, build_box(spec))


def test_four_cycles_are_chordal_in_plus_never_in_plain():
    for d, n in [(2, 3), (3, 2)]:
        plain = build_box(BoxSpec(d, n, "plain"))
        plus = build_box(BoxSpec(d, n, "plus"))
        for c in basic_four_cycles(BoxSpec(d, n, "plain")):
            assert chordal_by_pairs(c.edges(), plus.edges)
            assert not chordal_by_pairs(c.edges(), plain.edges)


def test_basic_four_cycles_preconditions():
    with pytest.raises(InputError, match="plain"):
        basic_four_cycles(BoxSpec(2, 3, "star"))
    with pytest.raises(InputError, match="one-dimensional"):
        basic_four_cycles(BoxSpec(1, 5, "plain"))


# --- patch cycles -------------------------------------------------------------------

def test_patch_cycle_diagonal_picks_low_id_corner():
    pair = build_box_pair(BoxSpec(2, 3, "plain"), "star")
    g = pair.g
    e = (g.id_of_label((1, 1)), g.id_of_label((2, 2)))
    tri = cube_patch_cycle(pair, e)
    assert {w for edge in tri.edges() for w in edge} == {
        g.id_of_label((1, 1)), g.id_of_label((2, 1)), g.id_of_label((2, 2))}


def test_patch_cycle_antidiagonal_goes_through_low_corner():
    pair = build_box_pair(BoxSpec(2, 3, "plain"), "star")
    g = pair.g
    e = (g.id_of_label((1, 2)), g.id_of_label((2, 1)))
    touched = {w for edge in cube_patch_cycle(pair, e).edges() for w in edge}
    assert g.id_of_label((1, 1)) in touched
    assert g.id_of_label((2, 2)) not in touched


def test_patch_cycle_cube_main_diagonal():
    pair = build_box_pair(BoxSpec(3, 2, "plain"), "star")
    g = pair.g
    e = (g.id_of_label((1, 1, 1)), g.id_of_label((2, 2, 2)))
    vec = cube_patch_cycle(pair, e)
    want_path = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]
    assert {w for edge in vec.edges() for w in edge} == {
        g.id_of_label(c) for c in want_path}
    assert len(vec) == 4


def test_patch_cycles_satisfy_their_contract():
    for base, flavor in [(BoxSpec(2, 3, "plain"), "star"),
                         (BoxSpec(2, 3, "plain"), "plus"),
                         (BoxSpec(3, 2, "plain"), "star")]:
        pair = build_box_pair(base, flavor)
        patches = extra_edge_patches(pair)
        extra = [e for e in pair.g_plus.edges if not pair.g.has_edge(*e)]
        assert sorted(patches) == sorted(extra)
        for e, vec in patches.items():
            assert vec.is_cycle()
            eid = pair.g_plus.edge_id(*e)
            assert (vec.bits >> eid) & 1
            for pe in vec.edges():
                if tuple(sorted(pe)) != tuple(sorted(e)):
                    assert pair.g.has_edge(*pe)
            assert chordal_by_pairs(vec.edges(), pair.g_plus.edges)


@pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (4, 2)])
@pytest.mark.parametrize("flavor", ["star", "plus"])
def test_patch_cycle_is_the_smallest_path_of_the_axis_order_search(d, n, flavor):
    pair = build_box_pair(BoxSpec(d, n, "plain"), flavor)
    extra = [e for e in pair.g_plus.edges if not pair.g.has_edge(*e)]
    assert extra
    for u, v in extra:
        path = patch_path_by_search(pair.g, u, v)
        want = EdgeVector.from_edges(pair.g_plus, list(zip(path, path[1:])) + [(u, v)])
        assert cube_patch_cycle(pair, (v, u)).bits == want.bits


def test_patch_cycle_rejects_bad_edges():
    pair = build_box_pair(BoxSpec(2, 3, "plain"), "star")
    g = pair.g
    with pytest.raises(InputError, match="base graph"):
        cube_patch_cycle(pair, (g.id_of_label((1, 1)), g.id_of_label((2, 1))))
    with pytest.raises(InputError, match="augmented"):
        cube_patch_cycle(pair, (g.id_of_label((1, 1)), g.id_of_label((3, 3))))


# --- apex ----------------------------------------------------------------------------

def test_apex_degrees():
    for d, n, want in [(2, 3, 8), (2, 4, 12), (3, 3, 26)]:
        pair = build_box_pair(BoxSpec(d, n, "plain"), "star")
        apexed, apex = with_apex(pair), pair.g.vertex_count
        assert apex == n ** d
        assert apexed.g.vertex_count == apexed.g_plus.vertex_count == apex + 1
        assert len(apexed.g.adjacency[apex]) == want
        assert len(apexed.g_plus.adjacency[apex]) == want
        assert len(box_shell(pair.g)) == want
        assert apexed.g.labels[apex] == (0,) * d


def test_apex_preserves_box_ids_and_adjacency():
    pair = build_box_pair(BoxSpec(2, 3, "plain"), "star")
    apexed, apex = with_apex(pair), pair.g.vertex_count
    for v in range(pair.g.vertex_count):
        inner = [w for w in apexed.g.adjacency[v] if w != apex]
        assert tuple(inner) == pair.g.adjacency[v]
        assert apexed.g.labels[v] == pair.g.labels[v]


def test_apex_spokes_go_exactly_to_the_shell():
    g = build_box(BoxSpec(2, 4, "plain"))
    shell = box_shell(g)
    assert shell == frozenset(v for v, lab in enumerate(g.labels)
                              if 1 in lab or 4 in lab)
    aug = attach_apex(g)
    assert set(aug.adjacency[g.vertex_count]) == shell


def test_apex_requires_labels():
    from boundarykit import Graph
    with pytest.raises(InputError, match="labels"):
        attach_apex(Graph(3, [(0, 1)]))


# --- margins ------------------------------------------------------------------------

def test_margin_interior():
    g = build_box(BoxSpec(2, 5, "plain"))
    inner = margin_interior(g, 2)
    assert {g.labels[v] for v in inner} == {
        (a, b) for a in (2, 3, 4) for b in (2, 3, 4)}
    assert margin_interior(g, 0) == frozenset(range(25))
    assert margin_interior(g, 3) == frozenset({g.id_of_label((3, 3))})
    assert margin_interior(g, 4) == frozenset()


@pytest.mark.parametrize("margin", [-1, -3])
def test_margin_interior_refuses_a_negative_margin(margin):
    """A negative margin used to give the whole box."""
    g = build_box(BoxSpec(2, 5, "plain"))
    with pytest.raises(InputError, match="^margin must be ≥ 0$"):
        margin_interior(g, margin)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=3), st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=3))
def test_margin_interior_matches_coordinate_filter(d, n, margin):
    g = build_box(BoxSpec(d, n, "plain"))
    got = margin_interior(g, margin)
    want = {v for v, lab in enumerate(g.labels)
            if all(margin <= c <= n + 1 - margin for c in lab)} \
        if margin > 0 else set(range(g.vertex_count))
    assert got == frozenset(want)


# --- apex faithfulness: shell-vertex visibility agrees with apex visibility ------------

def test_apex_visibility_equals_shell_vertex_visibility():
    from boundarykit import visible_boundary
    pair = build_box_pair(BoxSpec(2, 5, "plain"), "star")
    apexed, apex = with_apex(pair), pair.g.vertex_count
    for c_coords in [[(3, 3)], [(3, 3), (3, 4)], [(2, 2), (3, 2), (3, 3)]]:
        c = frozenset(pair.g.id_of_label(t) for t in c_coords)
        from_apex = visible_boundary(apexed.g, apexed.g_plus, c, apex)
        per_shell = set()
        for v in sorted(box_shell(pair.g)):
            per_shell |= visible_boundary(pair.g, pair.g_plus, c, v)
        assert from_apex - {apex} == frozenset(per_shell)
