"""Finite lattice boxes and their augmentations.

A box has vertex set {1,…,n}^d.  Vertex ids enumerate coordinates with
the *first* coordinate varying fastest, so a move along axis i changes
the id by the stride n^i, and id order coincides with reversed-tuple
lexicographic order on coordinates; labels carry the 1-based coordinate
tuples.

A flavor is its reach: the number of coordinates one step may change,
each by ±1.

* ``plain`` — reach 1: nearest-neighbor edges (L1 distance 1);
* ``plus``  — reach 2: plain edges plus both diagonals of every
  axis-aligned unit 2-face (a strict subgraph of star for d ≥ 3, n ≥ 2);
* ``star``  — reach d: king-move edges (L∞ distance 1).

The apex construction attaches one extra vertex to every surface vertex of
a box pair.  It stands in for "infinitely far away": for a subset that
keeps L∞-distance ≥ 2 from the surface, any walk leaving the box's
interior can wander arbitrarily and return anywhere on the surface, which
is exactly what routing through the apex models.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Dict, List, Sequence, Tuple

from .cyclespace import CycleGen, EdgeVector
from .errors import InputError
from .graphs import Graph, GraphPair, _is_id

# How many coordinates one step of each flavor may change; None: all d.
_REACH = {"plain": 1, "star": None, "plus": 2}
FLAVORS = tuple(_REACH)

# Guard against accidentally huge boxes; verification targets are tiny.
MAX_BOX_VERTICES = 2_000_000


@dataclass(frozen=True)
class BoxSpec:
    """Shape and flavor of a lattice box: {1,…,side}^d."""

    d: int
    side: int
    flavor: str

    def __post_init__(self):
        for name in ("d", "side"):
            if not _is_id(getattr(self, name)):
                raise InputError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.d < 1:
            raise InputError(f"dimension must be ≥ 1, got {self.d}")
        if self.side < 1:
            raise InputError(f"side must be ≥ 1, got {self.side}")
        if self.flavor not in FLAVORS:
            raise InputError(f"flavor must be one of {FLAVORS}, got {self.flavor!r}")
        if self.flavor == "plus" and self.d < 2:
            raise InputError("plus flavor needs d ≥ 2 (no 2-faces in one dimension)")
        if self.side ** self.d > MAX_BOX_VERTICES:
            raise InputError(f"box with {self.side}^{self.d} vertices exceeds the id-space guard")

    def __str__(self) -> str:
        return f"z{self.d}:{self.side}:{self.flavor}"


_SPEC_RE = re.compile(r"^z(\d+):(\d+):(plain|star|plus)$")


def parse_box_spec(text: str) -> BoxSpec:
    """Parse a box spec string of the form ``z{d}:{n}:{plain|star|plus}``."""
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise InputError(f"bad box spec {text!r}; expected z{{d}}:{{n}}:{{plain|star|plus}}")
    return BoxSpec(int(m.group(1)), int(m.group(2)), m.group(3))


@lru_cache(maxsize=None)
def build_box(spec: BoxSpec) -> Graph:
    """Build (and memoize) the box graph for a spec.

    One loop over the flavor's id-raising steps: moves in {-1, 0, 1}^d that
    change at most the flavor's reach of coordinates, the highest changed
    one by +1.  A step joins v to v + δ, δ its stride-weighted sum, when
    every moved coordinate stays in 1..n.

    Memoization means repeated requests share one Graph object, so edge
    vectors built against it stay host-compatible across call sites.
    """
    n, d = spec.side, spec.d
    reach = _REACH[spec.flavor] or d
    labels = [coord[::-1] for coord in product(range(1, n + 1), repeat=d)]
    steps = []
    for move in product((-1, 0, 1), repeat=d):
        moved = [(i, m) for i, m in enumerate(move) if m]
        if moved and len(moved) <= reach and moved[-1][1] == 1:
            steps.append((moved, sum(m * n ** i for i, m in moved)))
    edges = [(v, v + delta) for v, coord in enumerate(labels)
             for moved, delta in steps
             if all(1 <= coord[i] + m <= n for i, m in moved)]
    return Graph(len(labels), edges, labels=labels)


def build_box_pair(base: BoxSpec, plus_flavor: str) -> GraphPair:
    """Pair a plain box with its ``plus_flavor`` augmentation (same d, n)."""
    g = build_box(BoxSpec(base.d, base.side, "plain"))
    g_plus = build_box(BoxSpec(base.d, base.side, plus_flavor))
    return GraphPair(g, g_plus)


def basic_four_cycles(spec: BoxSpec) -> List[EdgeVector]:
    """One 4-cycle per axis-aligned unit 2-face of the plain box.

    Ordered by axis pair, then by base-corner id.  These generate the plain
    box's full cycle space.
    """
    if spec.flavor != "plain":
        raise InputError("unit-face cycles are built over the plain box")
    if spec.d < 2:
        raise InputError("a one-dimensional box has a trivial cycle space")
    g = build_box(spec)
    n, d = spec.side, spec.d
    out = []
    for i, j in combinations(range(d), 2):
        ei, ej = n ** i, n ** j
        for v in range(g.vertex_count):
            coord = g.labels[v]
            if coord[i] < n and coord[j] < n:
                out.append(EdgeVector.from_edges(g, [
                    (v, v + ei), (v, v + ej),
                    (v + ei, v + ei + ej), (v + ej, v + ei + ej)]))
    return out


@lru_cache(maxsize=None)
def four_cycle_gen(spec: BoxSpec) -> CycleGen:
    """The unit-face cycles wrapped as a generating collection (memoized,
    like ``build_box``)."""
    plain = BoxSpec(spec.d, spec.side, "plain")
    return CycleGen(build_box(plain), basic_four_cycles(plain))


def cube_patch_cycle(pair: GraphPair, e: Sequence[int]) -> EdgeVector:
    """Shortest cycle through the non-base edge ``e`` whose other edges are
    base edges inside one unit cube.

    ``pair`` couples a plain box with its star (or plus) box; ``e`` must be
    an augmentation edge absent from the plain box.  The cycle closes ``e``
    with a monotone nearest-neighbor path that fixes one differing
    coordinate per step, so every vertex stays inside each unit cube
    containing both endpoints.  From the smaller endpoint, the path takes
    its decreasing moves first, from the highest axis down, then its
    increasing moves from the lowest axis up.  That one sort by signed
    axis rank gives the lexicographically smallest vertex-id sequence of
    the (#differing-coords)! candidate paths.  The result is a cycle,
    chordal in the augmentation, with every edge but ``e`` in the base
    graph; ``check_k_hypotheses`` is the judge of those facts, for every
    patch it is given.
    """
    u, v = e
    if u > v:
        u, v = v, u
    g, gs = pair.g, pair.g_plus
    if g.labels is None:
        raise InputError("cube patch cycles need coordinate labels")
    if g.has_edge(u, v):
        raise InputError("edge already belongs to the base graph")
    if not gs.has_edge(u, v):
        raise InputError("not an edge of the augmented graph")
    cu, cv = g.labels[u], g.labels[v]
    if any(abs(a - b) > 1 for a, b in zip(cu, cv)):
        raise InputError("endpoints do not share a unit cube")
    order = sorted((i for i, (a, b) in enumerate(zip(cu, cv)) if a != b),
                   key=lambda i: (cv[i] - cu[i]) * (i + 1))
    cur = list(cu)
    path = [u]
    for axis in order[:-1]:             # the last step lands on v
        cur[axis] = cv[axis]
        path.append(g.id_of_label(cur))
    path.append(v)
    return EdgeVector.from_edges(gs, list(zip(path, path[1:])) + [(u, v)])


def extra_edge_patches(pair: GraphPair) -> Dict[Tuple[int, int], EdgeVector]:
    """Cube patch cycles for every edge of the pair's augmentation that is
    missing from its base graph, keyed by sorted endpoint pair."""
    return {e: cube_patch_cycle(pair, e)
            for e in pair.g_plus.edges if not pair.g.has_edge(*e)}


def box_shell(g: Graph) -> frozenset:
    """Surface vertices of a labeled box: those with some extreme coordinate."""
    if g.labels is None:
        raise InputError("apex construction needs coordinate labels")
    lo = min(min(lab) for lab in g.labels)
    hi = max(max(lab) for lab in g.labels)
    return frozenset(v for v, lab in enumerate(g.labels)
                     if lo in lab or hi in lab)


def attach_apex(g: Graph) -> Graph:
    """Augment one labeled box graph with an apex vertex adjacent to its
    whole surface.  The apex takes the next free id and the all-zeros label
    (disjoint from box coordinates, which are 1-based)."""
    shell = box_shell(g)
    apex = g.vertex_count
    labels = list(g.labels) + [(0,) * len(g.labels[0])]
    spokes = [(v, apex) for v in sorted(shell)]
    return Graph(g.vertex_count + 1, list(g.edges) + spokes, labels=labels)


def with_apex(pair: GraphPair) -> GraphPair:
    """Attach a fresh apex vertex to every surface vertex of a labeled box
    pair, in both graphs; box vertices keep their ids and the apex takes
    id ``pair.g.vertex_count``."""
    return GraphPair(attach_apex(pair.g), attach_apex(pair.g_plus))


def margin_interior(g: Graph, margin: int) -> frozenset:
    """Vertices of a labeled box that keep L∞-distance ≥ ``margin`` from the
    box's complement: every coordinate in [margin, n+1−margin]."""
    if g.labels is None:
        raise InputError("margins are defined for labeled boxes")
    if not _is_id(margin):
        raise InputError(f"margin must be an int, got {margin!r}")
    if margin < 0:
        raise InputError("margin must be ≥ 0")
    n = max(max(lab) for lab in g.labels)
    lo, hi = margin, n + 1 - margin
    return frozenset(v for v, lab in enumerate(g.labels)
                     if all(lo <= c <= hi for c in lab))
