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
is exactly what routing through the apex models.  It is the model, not
the engine: campaigns and reports keep the apex out of every graph and
flood from the surface instead (``boundary._report_masks``), and the
tests judge that rule against reports on the apexed graphs.
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

# Guard against boxes whose plans cannot fit in memory: a neighbourhood
# plan keeps one neighbour mask per vertex, as wide as its largest id, so
# V vertices take about V²/16 bytes per plan (``boundary --x apex`` on
# z2:181, 32,761 vertices, whose three roles share one plan, peaks at
# 148 MiB RSS on Python 3.11).  Verification targets are far smaller.
MAX_BOX_VERTICES = 32_768


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
            raise InputError(f"box with {self.side}^{self.d} vertices exceeds the id-space "
                             f"guard of {MAX_BOX_VERTICES} vertices")

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
    one by +1.  A step joins v to v + δ, δ its stride-weighted sum, for
    every v whose moved coordinates stay in 1..n: the ids built axis by
    axis from the coordinate range the move allows there.

    Memoization means repeated requests share one Graph object, so edge
    vectors built against it stay host-compatible across call sites.
    """
    n, d = spec.side, spec.d
    reach = _REACH[spec.flavor] or d
    labels = [coord[::-1] for coord in product(range(1, n + 1), repeat=d)]
    edges = []
    for move in product((-1, 0, 1), repeat=d):
        moved = [m for m in move if m]
        if moved and len(moved) <= reach and moved[-1] == 1:
            ids = [0]
            for i, m in enumerate(move):        # coordinate c + 1 in 1 + (m < 0)..n − (m > 0)
                ids = [v + c * n ** i for c in range(m < 0, n - (m > 0)) for v in ids]
            delta = sum(m * n ** i for i, m in enumerate(move))
            edges += [(v, v + delta) for v in ids]
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
    n, ids = spec.side, g._edge_ids
    return [EdgeVector(g, 1 << ids[v, v + ei] | 1 << ids[v, v + ej]
                       | 1 << ids[v + ei, v + ei + ej] | 1 << ids[v + ej, v + ei + ej])
            for i, j in combinations(range(spec.d), 2) for ei, ej in [(n ** i, n ** j)]
            for v, coord in enumerate(g.labels) if coord[i] < n and coord[j] < n]


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
    the (#differing-coords)! candidate paths.  A move along axis i is a
    step of ±n^i in the box's ids, so the path is walked on strides, and
    each step's edge is looked up in the augmentation, which holds the
    base graph.  The result is a cycle, chordal in the augmentation, with
    every edge but ``e`` in the base graph; ``check_k_hypotheses`` is the
    judge of those facts, for every patch it is given.
    """
    u, v = sorted(e)
    g = pair.g
    if g.has_edge(u, v):
        raise InputError("edge already belongs to the base graph")
    if not pair.g_plus.has_edge(u, v):
        raise InputError("not an edge of the augmented graph")
    if g.labels is not None and any(abs(a - b) > 1 for a, b in zip(g.labels[u], g.labels[v])):
        raise InputError("endpoints do not share a unit cube")
    return _patch_cycles(pair, [(u, v)])[u, v]


def extra_edge_patches(pair: GraphPair) -> Dict[Tuple[int, int], EdgeVector]:
    """Cube patch cycles for every edge of the pair's augmentation that is
    missing from its base graph, keyed by sorted endpoint pair."""
    return _patch_cycles(pair, [e for e in pair.g_plus.edges if not pair.g.has_edge(*e)])


def _patch_cycles(pair: GraphPair, edges) -> Dict[Tuple[int, int], EdgeVector]:
    """The cube patch cycle of each edge ``(u, v)``, ``u < v``, of ``edges``:
    augmentation edges absent from the base box, whose endpoints share a
    unit cube.  The ids must be the box's, so that axis i has stride n^i;
    the last vertex's label, (n, …, n), gives n."""
    g_plus = pair.g_plus
    labels, ids = g_plus.labels, g_plus._edge_ids
    if not edges:
        return {}
    if labels is None:
        raise InputError("cube patch cycles need coordinate labels")
    n = max(labels[-1])
    out = {}
    for u, v in edges:
        bits, cur = 1 << ids[u, v], u
        # the moves by signed axis rank (b − a)·(i + 1); one along axis i steps ±n^i
        for _, step in sorted(((b - a) * (i + 1), (b - a) * n ** i)
                              for i, (a, b) in enumerate(zip(labels[u], labels[v])) if a != b):
            bits |= 1 << ids[(cur, cur + step) if step > 0 else (cur + step, cur)]
            cur += step
        out[u, v] = EdgeVector(g_plus, bits)
    return out


def _require_box_labels(g: Graph) -> None:
    """Refuse a graph whose labels cannot be a box's coordinates: no
    labels, no vertex, or labels that are empty or of unequal length."""
    lengths = {len(lab) for lab in g.labels or ()}
    if len(lengths) != 1 or 0 in lengths:
        raise InputError("the apex and margins need coordinate labels: nonempty "
                         "tuples of one length, on at least one vertex")


def box_shell(g: Graph) -> frozenset:
    """Surface vertices of a labeled box: those with some extreme coordinate."""
    _require_box_labels(g)
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
    _require_box_labels(g)
    if not _is_id(margin):
        raise InputError(f"margin must be an int, got {margin!r}")
    if margin < 0:
        raise InputError("margin must be ≥ 0")
    n = max(max(lab) for lab in g.labels)
    lo, hi = margin, n + 1 - margin
    return frozenset(v for v, lab in enumerate(g.labels)
                     if all(lo <= c <= hi for c in lab))
