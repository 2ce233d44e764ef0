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
forbidden; endpoints are never counted as internal vertices.

Every operator runs on one private bitmask kernel, ``_report_masks``.
``full_report`` and the visible and outer-visible views share one
checked entry, ``_checked`` (one vertex set for all graphs, ids in
range, an observer outside C); each view then reads one mask of
``_report_masks``, with no probe components and no report.  Vertex sets
become int masks, validated once on the way in and turned back into
frozensets once per result.  Every report leaves through
``_report_json``: ``report_to_json`` of a ``BoundaryReport``, or the
masks of ``_report_fields`` as they are, for ``boundary --x apex`` and
the dp/k failure records.  A graph's neighbourhood plan
(``graphs._NeighbourhoodPlan``) maps a mask to its neighbours, ORing one
neighbour row per vertex for a small mask and otherwise shifting the
whole mask once per edge difference.  Reachability is a
level-synchronous flood: ``frontier = expand(frontier) & rest``, where
``rest`` is what ``allowed`` holds that no level has reached.  A flood
level then costs one row per frontier vertex or one shift pass, as the
frontier's size picks, instead of one adjacency scan per visited vertex;
on a tiled plan it is ``close(frontier) & rest``, by the plan's passes:
d one-shift axis passes on the king box (the face-diagonal box in
d = 2), one pass of every shift otherwise.  This matters because a
campaign judges every subset and observer, an apex-only subset once per
translation class, and two of a report's floods cover the whole box.  A
report is

    boundary      = expand_g′(C) & ~C
    visible       = boundary & flood_g(x, ~C)
    region        = flood_g(expand_g(x), ~(C | visible))
    glued         = surface when x is the apex, lies on the surface, or
                    its region meets the surface; else 0
    region       |= flood_g(glued, ~(C | visible))
    outer_visible = visible & (expand_g(region | x) | glued | x)

where the apex, id |V|, is no vertex of the plans but a rule: its
floods start from ``surface``, the box surface (its x bit is 0).  The
surface is given at margin ≥ 2, where the box stands for ℤ^d and a
path may leave it anywhere on the surface and come back anywhere else;
it is 0 on the bounded graph itself, where the glue vanishes.  The
kernel's docstring says why that rule is the report on the graphs with
the apex attached, the lattice module's model, which no campaign or report
builds.  The probe components come from the plan's ``components``,
which peels them off from the lowest remaining bit, so they come
ordered by smallest member.  A campaign needs only verdicts, and S, the
visible boundary, is connected exactly when one probe flood from its
lowest vertex covers it.  One judge, ``_failing_batch``, runs that test
for every dp/k instance, with no outer-visible flood, no frozensets and
no report; the campaign builds a full report only for an observer that
fails.

Each instance is one copy of the box in one int, on plans of the box's
roles, flooded from the box surface in its first round at margin ≥ 2
and from one box observer otherwise.  ``tiled`` plans carry the
batches, so each flood level advances every copy's flood at once.  That
is the bit-parallel traversal of Then et al. (*The More the Merrier:
Efficient Multi-Source Graph Traversal*, PVLDB 8(4), 2014), with
disjoint copies of one graph in place of many sources in it.  The judge
returns, with the verdicts, what each copy's traversal flood left
unreached of the box minus C: the visible boundary depends on the
observer only through its component of the traversal graph minus C, so
one copy settles every observer its flood reached, and an instance with
several observers takes one copy per component, in rounds.  Its
docstring says why a copy's verdict is the verdict in ℤ^d.

The operators are checked against the definition-level oracles of
``tests/oracles.py`` (boundary scans, DFS path searches, union-find
components) in ``tests/test_boundary.py``, on graphs up to and beyond 64
vertices, where masks span several machine words.  The surface rule is
checked against ``full_report`` on the apexed graphs, for every subset
and observer of small boxes.  The batch judge's oracle there is
``_failing_observers``, which floods and judges each observer component
on the apexed plans: on every shape of five campaigns, in batches and
one by one; on every single observer of every subset of three
campaigns; and on drawn masks and observers.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .errors import InputError
from .graphs import Graph, _mask_json, _members, _neighbourhood_plan, _Record, _vertex_json


class BoundaryReport(_Record):
    """Boundary sets of one (c, x) instance plus the connectivity verdict of
    the visible set inside a probe graph."""

    __slots__ = _fields = ("boundary", "visible", "outer_visible", "component_count",
                           "witness_disconnect")

    def __init__(self, boundary: frozenset, visible: frozenset, outer_visible: frozenset,
                 component_count: int, witness_disconnect: Optional[Tuple[int, int]]):
        self._set(boundary, visible, outer_visible, component_count, witness_disconnect)
        if not self.outer_visible <= self.visible <= self.boundary:
            raise InputError("report sets must nest: outer_visible ⊆ visible ⊆ boundary")
        if self.component_count < 1:
            raise InputError("component count is at least 1 (empty set counts as one)")

    @property
    def connected(self) -> bool:
        return self.component_count == 1


# --- the bitmask kernel -------------------------------------------------------
# ``trav``, ``adj`` and ``probe`` are the neighbourhood plans of the
# traversal, adjacency and probe graphs; every vertex set is a mask.

def _report_masks(trav, adj, cm: int, x: int, surface: int = 0) -> tuple:
    """The boundary, visible and outer-visible masks of ``cm`` seen from
    ``x``, a vertex of the plans or the apex, id ``trav.vertex_count``,
    which no plan holds.  ``surface`` is the box surface when the box
    stands for ℤ^d: ``cm`` at margin ≥ 2 in a box of d ≥ 2, or any
    subset off the surface seen from the apex.  It is 0 on the bounded
    graph itself, where the kernel is the definition.

    Given the surface, the masks are those of ``full_report`` on the
    graphs with the apex attached, the lattice module's model, which joins
    every surface vertex:

    * The apex lies in no boundary: its neighbours are surface vertices,
      none in ``cm``.  So the boundary is the box's, and an apexed flood,
      restricted to the box, is the box flood plus the flood from the
      surface whenever it reaches the apex.  The apex's own floods start
      from the surface.
    * The surface is connected in the plain box, which the traversal
      graph holds, and misses ``cm``, so it lies in one component of the
      box minus ``cm``: a box observer's visible flood takes in all of
      the surface or none of it, and needs no glue.
    * The region behind the visible boundary avoids ``visible`` too,
      which may cut the surface apart.  The apexed region reaches the
      apex when ``x`` is the apex, lies on the surface (the apex is its
      neighbour) or reaches a surface vertex; it then takes in every
      component of the allowed set that the surface meets, and its
      neighbours take in the whole surface, visible surface vertices
      included: ``glued``."""
    xm = 1 << x & trav.full             # no bit for the apex
    allowed = trav.full ^ cm
    boundary = adj.expand(cm) & ~cm
    visible = boundary & trav.flood(xm or surface, allowed)
    allowed ^= visible
    region = trav.flood(trav.expand(xm) if xm else surface, allowed)
    glued = surface if not xm or (xm | region) & surface else 0
    # the surface's components of ``allowed`` that the region missed
    region |= trav.flood(glued, allowed ^ region)
    return boundary, visible, visible & (trav.expand(region | xm) | glued | xm)


def _report_fields(trav, adj, probe, cm: int, x: int, surface: int = 0) -> tuple:
    """``_report_masks`` and the probe components of the visible boundary:
    a ``BoundaryReport``'s fields, each vertex set a mask."""
    boundary, visible, outer_visible = _report_masks(trav, adj, cm, x, surface)
    comps = probe.components(visible)
    witness = tuple((m & -m).bit_length() - 1 for m in comps[:2]) if len(comps) > 1 else None
    return boundary, visible, outer_visible, max(len(comps), 1), witness


def _failing_batch(trav, adj, probe, width: int, shapes, sources: int) -> tuple:
    """The unreached and the missed mask of a batch of copies.  Copy
    ``i`` holds the subset mask ``shapes[i]`` at bits ``i·width`` and up,
    on ``tiled`` plans of the box's roles (or the box's own plans for a
    batch of one), and ``sources`` holds each copy's flood source at the
    copy's offset: the box surface (the apex's neighbourhood), which
    judges the outside, or one box vertex outside the shape.  In every
    copy the flood is the traversal flood from the source in the box
    minus the shape, and the unreached mask holds the rest of the box
    minus the shape.  S is the adjacency boundary inside the flood, taken
    as the flood's part of C's closed adjacency neighbourhood, as the
    flood misses C, and the missed mask holds the members of S that the
    probe flood of S from its lowest vertex misses: the copy fails when
    its slice of it is not empty.

    That copy's verdict is the verdict in ℤ^d, the one on the graphs
    with the apex attached, for every observer in the flood, and for the
    apex when the flood touches the surface.  The visible boundary
    depends on the observer only through its component of the traversal
    graph minus C, so a copy judges a whole component:

    * Below margin 2 only a fixed box vertex observes, and the campaign
      judges on the box itself, so x's flood in the box minus C is x's
      component there.
    * At margin ≥ 2 every subset lies in the margin interior, so it
      misses the box surface, which is the apex's neighbourhood.  The
      surface is connected in the plain box, the traversal graph of both
      statements, so it lies in one component of the box minus C.  So x's
      component of (box + apex) − C, restricted to the box, is x's flood
      in the box minus C, and it takes in the apex exactly when that
      flood reaches the surface; the apex's own component is the apex
      plus the flood from the surface.
    * The apex lies in no boundary of C: its only neighbours are surface
      vertices, none in C.  So S is the adjacency boundary of C inside
      that flood, with or without the apex.  S is never empty: the box is
      connected and C is nonempty, so the flood holds a traversal
      neighbour of C, which the adjacency graph, containing the traversal
      graph, also joins to C.
    * The probe components of S are those of the subgraph induced on S,
      which the apex is not in, so its edges never join two of them.

    So a campaign judges an instance in rounds, each giving it one copy
    that settles every observer its flood reached.  At margin ≥ 2 the
    first round floods from the surface, which judges the outside: the
    apex and every observer in its component.  Each later round, and
    every round below margin 2, floods from the lowest undecided
    observer, one hole at a time."""
    c = _packed(shapes, width)
    batch = (1 << len(shapes) * width) - 1
    ones = trav.ones & batch                # bit 0 of every copy
    allowed = (trav.full & batch) ^ c
    flood = trav.flood(sources, allowed)
    s = adj.close(c) & flood
    # a nonempty copy's lowest bit; an empty copy borrows from the next one
    # up, so the batch holds fewer bits than shapes
    seeds = s & ~(s - ones)
    if seeds.bit_count() != len(shapes):
        raise RuntimeError("a copy of the batch has an empty visible boundary")
    return allowed ^ flood, s & ~probe.flood(seeds, s)


def _packed(masks: list, width: int) -> int:
    """The OR of ``masks[i] << i·width`` over a nonempty list: one copy per
    mask, as a batch holds them.  Neighbouring pairs merge level by level
    (an odd last mask moves up as it is), at double the stride each time,
    so the n − 1 ORs work on ints that grow with the level, not with the
    batch: about n·width·log2(n) bits in all, where ORing each copy into
    one growing int moves n²·width/2."""
    while len(masks) > 1:
        masks = ([low | high << width for low, high in zip(masks[::2], masks[1::2])]
                 + masks[len(masks) & ~1:])
        width *= 2
    return masks[0]


# --- the operators ------------------------------------------------------------

def outer_boundary(g_prime: Graph, c: frozenset) -> frozenset:
    """Vertices outside ``c`` with a ``g_prime``-neighbor inside it."""
    adj = _neighbourhood_plan(g_prime)
    cm = adj.mask(c)
    return _members(adj.expand(cm) & ~cm)


def visible_boundary(g: Graph, g_prime: Graph, c: frozenset, x: int) -> frozenset:
    """Outer-boundary vertices reachable from ``x`` by a ``g``-path that
    avoids ``c``: ``full_report``'s visible set."""
    return _members(_report_masks(*_checked(g, g_prime, g_prime, c, x), x)[1])


def outer_visible_boundary(g: Graph, g_prime: Graph, c: frozenset, x: int) -> frozenset:
    """Visible-boundary vertices admitting a ``g``-path from ``x`` (avoiding
    ``c``) with no internal vertex in the visible boundary:
    ``full_report``'s outer-visible set."""
    return _members(_report_masks(*_checked(g, g_prime, g_prime, c, x), x)[2])


def full_report(g: Graph, g_prime: Graph, probe: Graph, c: frozenset,
                x: int) -> BoundaryReport:
    """All three boundary sets of (c, x) plus connectivity of the visible
    set inside ``probe``: its component count (the empty set counts as
    one component, matching the convention that it is connected) and,
    when disconnected, the smallest vertices of the two components with
    the smallest members."""
    trav, adj, cm = _checked(g, g_prime, probe, c, x)
    fields = _report_fields(trav, adj, _neighbourhood_plan(probe), cm, x)
    return BoundaryReport(*map(_members, fields[:3]), *fields[3:])


def _checked(g: Graph, g_prime: Graph, probe: Graph, c: frozenset, x: int) -> tuple:
    """The traversal and adjacency plans and the mask of ``c``, after the
    checks of every entry into the kernel: it refuses graphs of different
    sizes, ids out of range (those of ``c`` first) and an observer in
    ``c``."""
    if not g.vertex_count == g_prime.vertex_count == probe.vertex_count:
        raise InputError("all graphs of an instance must share one vertex set")
    adj = _neighbourhood_plan(g_prime)
    cm = adj.mask(c)
    g.require_vertex(x)
    if cm >> x & 1:
        raise InputError("the observer must lie outside the subset")
    return _neighbourhood_plan(g), adj, cm


def report_to_json(report: BoundaryReport, g: Graph) -> dict:
    """Serialize a report; vertex sets become sorted coordinate tuples when
    the graph is labeled, sorted ids otherwise."""
    mask = _neighbourhood_plan(g).mask              # range-checks the ids
    return _report_json(g, mask(report.boundary), mask(report.visible),
                        mask(report.outer_visible), report.component_count,
                        report.witness_disconnect)


def _report_json(g: Graph, boundary: int, visible: int, outer_visible: int,
                 component_count: int, witness: Optional[Tuple[int, int]]) -> dict:
    """``report_to_json`` of a report given by ``_report_fields``."""
    out = {
        "boundary": _mask_json(g, boundary),
        "visible": _mask_json(g, visible),
        "outer_visible": _mask_json(g, outer_visible),
        "components": component_count,
    }
    if witness is not None:
        out["witness"] = [_vertex_json(g, v) for v in witness]
    return out
