"""Boundary operators on graph pairs.

All operators take a *traversal* graph ``g`` (paths live here), an
*adjacency* graph ``g_prime`` (membership in the boundary is decided by its
edges), a subset ``c``, and an observer vertex ``x`` outside ``c``:

* outer boundary — vertices outside ``c`` with a ``g_prime``-neighbor in it;
* visible boundary — outer-boundary vertices reachable from ``x`` by a
  ``g``-path avoiding ``c`` (the observer itself qualifies when adjacent);
* outer-visible boundary — visible vertices reachable by such a path whose
  internal vertices also avoid the visible boundary.

"Path avoiding a set" is implemented as reachability with the set
forbidden; endpoints are never counted as internal vertices.  Inner-
boundary mirrors swap the roles of ``c`` and its complement.

Every operator runs on one private bitmask kernel.  Vertex sets become int
masks, validated once on the way in and turned back into frozensets once
per result.  A graph's neighbourhood plan (``graphs._NeighbourhoodPlan``)
maps a mask to its neighbours, ORing one neighbour row per vertex for a
small mask and otherwise shifting the whole mask along a few shifts and
hub stars.  Reachability is a level-synchronous flood: ``frontier =
expand(frontier) & allowed & ~seen``.  A flood level then costs one
row per frontier vertex or one shift/star pass, as the frontier's size
picks, instead of one adjacency scan per visited vertex.  This matters
because a campaign judges every subset and observer, an apex-only subset
once per translation class, and two of a report's floods cover the
whole box.  A report is

    boundary      = expand_g′(C) & ~C
    visible       = boundary & flood_g(x, ~C)
    region        = x | flood_g(expand_g(x), ~(C | visible))
    outer_visible = visible & (expand_g(region) | x)

and the probe components come from the plan's ``components``, which peels
them off from the lowest remaining bit, so they come ordered by smallest
member.  A campaign needs only verdicts, and S, the visible boundary, is
connected exactly when one probe flood from its lowest vertex covers it.
Two verdict functions run that test, with no outer-visible flood, no
frozensets and no report; the campaign builds a full report only for an
observer that fails.

* ``_failing_batch`` decides every instance whose one observer is the
  apex.  Each shape, an interior subset, is one copy of the box in one
  int, on plans of the box's roles without the apex: ``tiled`` plans for
  the batches of an exhaustive campaign's shape pass, so each flood level
  advances every copy's flood at once, and the box's own plans for a
  batch of one.  That is the bit-parallel traversal of Then et al. (*The
  More the Merrier: Efficient Multi-Source Graph Traversal*, PVLDB 8(4),
  2014), with disjoint copies of one graph in place of many sources in
  it.  ``harness._shape_key`` says why a copy's verdict is the apex
  verdict.
* ``_failing_observers`` takes the observer masks that hold a box vertex
  (``fixed``, ``all-outside``).  The visible boundary depends on the
  observer only through the observer's component of the traversal graph
  minus C, so it computes the boundary once and floods and judges each
  component that holds an observer once.

The operators' and ``_failing_observers``' judges are the definition-level
oracles of ``tests/oracles.py`` (boundary scans, DFS path searches,
union-find components), compared in ``tests/test_boundary.py`` on graphs
up to and beyond 64 vertices, where masks span several machine words;
``_failing_observers`` on the apex is the batch judge's, on every shape
of five campaigns, in batches and one by one, and on drawn masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import InputError
from .graphs import (Graph, _members, _neighbourhood_plan, _vertex_json,
                     vertexset_to_json)


@dataclass(frozen=True)
class BoundaryReport:
    """Boundary sets of one (c, x) instance plus the connectivity verdict of
    the visible set inside a probe graph."""

    boundary: frozenset
    visible: frozenset
    outer_visible: frozenset
    component_count: int
    witness_disconnect: Optional[Tuple[int, int]]

    def __post_init__(self):
        if not self.outer_visible <= self.visible <= self.boundary:
            raise InputError("report sets must nest: outer_visible ⊆ visible ⊆ boundary")
        if self.component_count < 1:
            raise InputError("component count is at least 1 (empty set counts as one)")

    @property
    def connected(self) -> bool:
        return self.component_count == 1


def _require_same_vertices(*graphs: Graph) -> None:
    counts = {g.vertex_count for g in graphs}
    if len(counts) > 1:
        raise InputError("all graphs of an instance must share one vertex set")


def _require_observer(g: Graph, c: frozenset, x: int) -> None:
    g.require_vertex(x)
    if x in c:
        raise InputError("the observer must lie outside the subset")


# --- the bitmask kernel -------------------------------------------------------
# ``trav``, ``adj`` and ``probe`` are the neighbourhood plans of the
# traversal, adjacency and probe graphs; every vertex set is a mask.

def _visible_masks(trav, adj, cm: int, x: int):
    """Masks of the outer and the visible boundary of ``cm`` seen from ``x``."""
    boundary = adj.expand(cm) & ~cm
    return boundary, boundary & trav.flood(1 << x, trav.full ^ cm)


def _outer_visible_mask(trav, cm: int, x: int, visible: int) -> int:
    """Members of ``visible`` reached from ``x`` by a path avoiding ``cm``
    whose internal vertices avoid ``visible``.  ``x`` may itself be
    visible; endpoints are not internal, so the region is grown from
    ``x``'s neighbours."""
    xm = 1 << x
    region = xm | trav.flood(trav.expand(xm), trav.full ^ (cm | visible))
    return visible & (trav.expand(region) | xm)


def _probe_components(probe, s: int):
    """Component count of ``s`` inside the probe graph (the empty set
    counts as one component, matching the convention that it is
    connected) and, when disconnected, the smallest vertices of the two
    components with the smallest members."""
    comps = probe.components(s)
    if len(comps) <= 1:
        return 1, None
    return len(comps), tuple((m & -m).bit_length() - 1 for m in comps[:2])


def _failing_observers(trav, adj, probe, cm: int, observers: int) -> int:
    """The mask of those ``observers`` (a mask disjoint from ``cm``) whose
    visible boundary of ``cm`` is disconnected in the probe graph.  That
    boundary depends on the observer only through its component of the
    traversal graph minus ``cm``, so each component holding an observer
    is flooded once, and its boundary S is judged by one probe flood
    from S's lowest vertex, as ``_failing_batch`` judges a copy.
    Campaigns call it on observer masks that hold a box vertex; on the
    apex alone it is the tests' oracle for ``_failing_batch``."""
    boundary = adj.expand(cm) & ~cm
    outside = trav.full ^ cm
    failing = 0
    while observers:
        comp = trav.flood(observers & -observers, outside)
        if (s := boundary & comp) & ~probe.flood(s & -s, s):
            failing |= comp & observers
        observers &= ~comp
    return failing


def _failing_batch(trav, adj, probe, surface: int, width: int, shapes) -> list:
    """The ``shapes`` whose apex verdict fails, in batch order.  The shapes
    are interior masks on a box of ``width`` vertices, each at L∞ distance
    ≥ 2 from the box's complement, judged at once on plans of the box's
    roles without the apex: ``tiled`` plans for a batch, shape ``i`` as
    copy ``i`` at bits ``i·width`` and up, or the box's own plans for a
    batch of one.  ``surface`` is the box surface, the apex's
    neighbourhood.  In every copy S is the adjacency boundary inside the
    traversal flood from the surface, and a copy fails when the probe
    flood of S from its lowest vertex misses part of S, exactly when
    ``_failing_observers(…, 1 << apex)`` fails its shape on the apexed
    graphs; ``harness._shape_key`` says why."""
    c = bits = 0
    for cm in shapes:
        c |= cm << bits
        bits += width
    box = (1 << width) - 1
    ones = ((1 << bits) - 1) // box         # bit 0 of every copy; 1 for one copy
    # ``box * ones`` is every copy's whole box
    s = adj.expand(c) & trav.flood(surface * ones, box * ones ^ c)
    # a nonempty copy's lowest bit; an empty copy borrows from the next one
    # up, so the batch holds fewer bits than shapes
    seeds = s & ~(s - ones)
    if seeds.bit_count() != len(shapes):
        raise RuntimeError("a shape of the batch has an empty visible boundary")
    missed = s & ~probe.flood(seeds, s)
    return [cm for i, cm in enumerate(shapes) if missed >> i * width & box] if missed else []


# --- the operators ------------------------------------------------------------

def outer_boundary(g_prime: Graph, c: frozenset) -> frozenset:
    """Vertices outside ``c`` with a ``g_prime``-neighbor inside it."""
    adj = _neighbourhood_plan(g_prime)
    cm = adj.mask(c)
    return _members(adj.expand(cm) & ~cm)


def visible_boundary(g: Graph, g_prime: Graph, c: frozenset, x: int) -> frozenset:
    """Outer-boundary vertices reachable from ``x`` by a ``g``-path that
    avoids ``c``."""
    _require_same_vertices(g, g_prime)
    _require_observer(g, c, x)
    adj = _neighbourhood_plan(g_prime)
    _, visible = _visible_masks(_neighbourhood_plan(g), adj, adj.mask(c), x)
    return _members(visible)


def outer_visible_boundary(g: Graph, g_prime: Graph, c: frozenset, x: int) -> frozenset:
    """Visible-boundary vertices admitting a ``g``-path from ``x`` (avoiding
    ``c``) with no internal vertex in the visible boundary."""
    _require_same_vertices(g, g_prime)
    _require_observer(g, c, x)
    trav, adj = _neighbourhood_plan(g), _neighbourhood_plan(g_prime)
    cm = adj.mask(c)
    _, visible = _visible_masks(trav, adj, cm, x)
    return _members(_outer_visible_mask(trav, cm, x, visible))


def full_report(g: Graph, g_prime: Graph, probe: Graph, c: frozenset,
                x: int) -> BoundaryReport:
    """All three boundary sets of (c, x) plus connectivity of the visible
    set inside ``probe``."""
    _require_same_vertices(g, g_prime, probe)
    adj = _neighbourhood_plan(g_prime)
    cm = adj.mask(c)
    _require_observer(g, c, x)
    trav = _neighbourhood_plan(g)
    boundary, visible = _visible_masks(trav, adj, cm, x)
    outer_visible = _outer_visible_mask(trav, cm, x, visible)
    count, witness = _probe_components(_neighbourhood_plan(probe), visible)
    return BoundaryReport(_members(boundary), _members(visible), _members(outer_visible),
                          count, witness)


def inner_boundary_variants(g: Graph, g_prime: Graph, c: frozenset,
                            x: int) -> BoundaryReport:
    """Mirror report with the roles of ``c`` and its complement exchanged.

    Inner boundary: members of ``c`` with a ``g_prime``-neighbor outside.
    Visible-inner: those ``g_prime``-adjacent to the component of ``x`` in
    ``g`` minus ``c``.  The outer-visible refinement mirrors vacuously — a
    path from ``x`` that avoids ``c`` except at its final vertex has no
    internal vertex inside ``c``, hence none in the visible-inner set — so
    it equals the visible-inner set.  Connectivity is probed in ``g_prime``.
    """
    _require_same_vertices(g, g_prime)
    _require_observer(g, c, x)
    trav, adj = _neighbourhood_plan(g), _neighbourhood_plan(g_prime)
    cm = trav.mask(c)
    outside = trav.full ^ cm
    inner = cm & adj.expand(outside)
    visible_inner = inner & adj.expand(trav.flood(1 << x, outside))
    count, witness = _probe_components(adj, visible_inner)
    visible_set = _members(visible_inner)
    return BoundaryReport(_members(inner), visible_set, visible_set, count, witness)


def report_to_json(report: BoundaryReport, g: Graph) -> dict:
    """Serialize a report; vertex sets become sorted coordinate tuples when
    the graph is labeled, sorted ids otherwise."""
    out = {
        "boundary": vertexset_to_json(g, report.boundary),
        "visible": vertexset_to_json(g, report.visible),
        "outer_visible": vertexset_to_json(g, report.outer_visible),
        "components": report.component_count,
    }
    if report.witness_disconnect is not None:
        out["witness"] = [_vertex_json(g, v) for v in report.witness_disconnect]
    return out
