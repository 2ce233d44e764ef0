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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import InputError
from .graphs import (Graph, component_of, set_components, vertexset_to_json)


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


def outer_boundary(g_prime: Graph, c: frozenset) -> frozenset:
    """Vertices outside ``c`` with a ``g_prime``-neighbor inside it."""
    out = set()
    for v in c:
        g_prime.require_vertex(v)
    for v in c:
        for w in g_prime.adjacency[v]:
            if w not in c:
                out.add(w)
    return frozenset(out)


def visible_boundary(g: Graph, g_prime: Graph, c: frozenset, x: int) -> frozenset:
    """Outer-boundary vertices reachable from ``x`` by a ``g``-path that
    avoids ``c``."""
    _require_same_vertices(g, g_prime)
    _require_observer(g, c, x)
    return outer_boundary(g_prime, c) & component_of(g, x, c)


def _outer_visible_from(g: Graph, c: frozenset, x: int,
                        visible: frozenset) -> frozenset:
    """Members of ``visible`` reachable from ``x`` by a ``g``-path avoiding
    ``c`` whose internal vertices also avoid ``visible``.

    ``x`` itself may belong to ``visible``; endpoints are not internal, so
    the reachable region is grown from ``x``'s neighbors rather than from
    ``x`` directly.
    """
    blocked = c | visible
    region = {x}
    for w in g.adjacency[x]:
        if w not in blocked and w not in region:
            region |= component_of(g, w, blocked)
    out = set()
    for v in visible:
        if v == x or any(u in region for u in g.adjacency[v]):
            out.add(v)
    return frozenset(out)


def outer_visible_boundary(g: Graph, g_prime: Graph, c: frozenset, x: int) -> frozenset:
    """Visible-boundary vertices admitting a ``g``-path from ``x`` (avoiding
    ``c``) with no internal vertex in the visible boundary."""
    visible = visible_boundary(g, g_prime, c, x)
    return _outer_visible_from(g, c, x, visible)


def _components_and_witness(probe: Graph, s: frozenset):
    """Component count of ``s`` inside ``probe`` (empty set counts as one
    component, matching the convention that it is connected) and, when
    disconnected, the lexicographically smallest vertex pair spanning two
    components."""
    comps = set_components(probe, s)
    if len(comps) <= 1:
        return max(1, len(comps)), None
    return len(comps), (min(comps[0]), min(comps[1]))


def full_report(g: Graph, g_prime: Graph, probe: Graph, c: frozenset,
                x: int) -> BoundaryReport:
    """All three boundary sets of (c, x) plus connectivity of the visible
    set inside ``probe``."""
    _require_same_vertices(g, g_prime, probe)
    boundary = outer_boundary(g_prime, c)
    _require_observer(g, c, x)
    visible = boundary & component_of(g, x, c)
    outer_visible = _outer_visible_from(g, c, x, visible)
    count, witness = _components_and_witness(probe, visible)
    return BoundaryReport(boundary, visible, outer_visible, count, witness)


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
    for v in c:
        g.require_vertex(v)
    inner = frozenset(v for v in c
                      if any(w not in c for w in g_prime.adjacency[v]))
    region = component_of(g, x, c)
    visible_inner = frozenset(v for v in inner
                              if any(w in region for w in g_prime.adjacency[v]))
    count, witness = _components_and_witness(g_prime, visible_inner)
    return BoundaryReport(inner, visible_inner, visible_inner, count, witness)


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
        u, v = report.witness_disconnect
        if g.labels is not None:
            out["witness"] = [list(g.labels[u]), list(g.labels[v])]
        else:
            out["witness"] = [u, v]
    return out
