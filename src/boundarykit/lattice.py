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
is exactly what routing through the apex models.  That model is
``with_apex``, not the engine: campaigns and reports keep the apex out of
every graph and flood from the surface instead
(``boundary._report_masks``), and the tests judge that rule against
reports on the apexed graphs.

The dp/k premises of a box pair are judged on lane masks
(``_box_premises``): for each step, the mask of the base vertices where a
unit face or a patch cycle fits, checked against the plans' shift masks
one fact at a time for every lane at once, and a triangular certificate
that the faces span.  ``four_cycle_gen`` and ``extra_edge_patches``
build the same generators as edge vectors, for the crossing lemma and for
the public checkers that the tests judge the lane judge against.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from itertools import accumulate, combinations, product
from math import comb
from typing import Dict, List, Tuple

from .cyclespace import (CycleGen, EdgeVector, _forward_echelon, _triangular_rank,
                         cycle_space_rank)
from .errors import InputError
from .graphs import Graph, GraphPair, _is_id, _neighbourhood_plan, _Record

# How many coordinates one step of each flavor may change; None: all d.
_REACH = {"plain": 1, "star": None, "plus": 2}
FLAVORS = tuple(_REACH)

# Guard against boxes whose plans cannot fit in memory: a neighbourhood
# plan keeps one neighbour mask per vertex, as wide as its largest id, so
# V vertices take about V²/16 bytes per plan (``boundary --x apex`` on
# z2:181, 32,761 vertices, whose three roles share one plan, peaks at
# 148 MiB RSS on Python 3.11).  Verification targets are far smaller.
# A box graph takes about 300 bytes per edge (z3:32 star, 398,908 edges,
# 120 MiB), so 16 edges per admitted vertex cap one near 150 MiB.
MAX_BOX_VERTICES = 32_768


class BoxSpec(_Record):
    """Shape and flavor of a lattice box: {1,…,side}^d."""

    __slots__ = _fields = ("d", "side", "flavor")

    def __init__(self, d: int, side: int, flavor: str):
        self._set(d, side, flavor)
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
        # side^d ≥ 2^d > MAX_BOX_VERTICES once d reaches its bit length:
        # such a box is refused before the power builds a huge int
        if self.side > 1 and (self.d >= MAX_BOX_VERTICES.bit_length()
                              or self.side ** self.d > MAX_BOX_VERTICES):
            raise InputError(f"box with {self.side}^{self.d} vertices exceeds the id-space "
                             f"guard of {MAX_BOX_VERTICES} vertices")
        # past that guard d < 16 when side ≥ 2, and a side-1 box has no edge
        if self.side > 1 and _edge_count(self) > 16 * MAX_BOX_VERTICES:
            raise InputError(f"box {self} with {_edge_count(self)} edges exceeds the edge "
                             f"guard of {16 * MAX_BOX_VERTICES} edges")

    def __str__(self) -> str:
        return f"z{self.d}:{self.side}:{self.flavor}"


def _edge_count(spec: BoxSpec) -> int:
    """The box's edges in closed form: C(d, k)·2^(k−1) id-raising moves
    change k coordinates, and each fits at (n − 1)^k·n^(d−k) vertices."""
    n, d = spec.side, spec.d
    return sum(comb(d, k) * 2 ** (k - 1) * (n - 1) ** k * n ** (d - k)
               for k in range(1, (_REACH[spec.flavor] or d) + 1))


_SPEC_RE = re.compile(r"^z(\d+):(\d+):(plain|star|plus)$")


def parse_box_spec(text: str) -> BoxSpec:
    """Parse a box spec string of the form ``z{d}:{n}:{plain|star|plus}``."""
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise InputError(f"bad box spec {text!r}; expected z{{d}}:{{n}}:{{plain|star|plus}}")
    try:
        d, side = int(m.group(1)), int(m.group(2))
    except ValueError:      # more digits than int() converts
        raise InputError(f"box spec numbers must have at most "
                         f"{sys.get_int_max_str_digits()} digits") from None
    return BoxSpec(d, side, m.group(3))


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
    for move in _raising_moves(d, reach, n):
        ids = [0]
        for i, m in enumerate(move):            # coordinate c + 1 in 1 + (m < 0)..n − (m > 0)
            ids = [v + c * n ** i for c in range(m < 0, n - (m > 0)) for v in ids]
        delta = sum(m * n ** i for i, m in enumerate(move))
        edges += [(v, v + delta) for v in ids]
    return Graph.__new__(Graph)._build(len(labels), edges, tuple(labels))


def _raising_moves(d: int, reach: int, side: int) -> list:
    """The steps in {−1, 0, 1}^d that change 1..``reach`` coordinates, the
    highest changed one by +1: each joins a vertex to a larger id.  Each
    k-subset of axes, k ≤ ``reach``, takes every sign pattern that ends in
    +1.  A box of side 1 has none, as no step fits in it."""
    return [tuple(move.get(i, 0) for i in range(d))
            for k in range(1, reach + 1 if side > 1 else 1) for axes in combinations(range(d), k)
            for signs in product((-1, 1), repeat=k - 1) for move in [dict(zip(axes, signs + (1,)))]]


def build_box_pair(base: BoxSpec, plus_flavor: str) -> GraphPair:
    """Pair a plain box with its ``plus_flavor`` augmentation (same d, n)."""
    specs = [BoxSpec(base.d, base.side, flavor) for flavor in ("plain", plus_flavor)]
    return GraphPair(*map(build_box, specs))


@lru_cache(maxsize=None)
def four_cycle_gen(spec: BoxSpec) -> CycleGen:
    """The unit-face 4-cycles of the plain box of ``spec``'s shape, whatever
    its flavor, as a memoized generating collection: by axis pair, then by
    base-corner id.  They generate the plain box's cycle space."""
    if spec.d < 2:
        raise InputError("a one-dimensional box has a trivial cycle space")
    g = build_box(BoxSpec(spec.d, spec.side, "plain"))
    n, ids = spec.side, g._edge_ids
    return CycleGen(g, [EdgeVector(g, 1 << ids[v, v + ei] | 1 << ids[v, v + ej]
                                   | 1 << ids[v + ei, v + ei + ej] | 1 << ids[v + ej, v + ei + ej])
                        for i, j in combinations(range(spec.d), 2) for ei, ej in [(n ** i, n ** j)]
                        for v, coord in enumerate(g.labels) if coord[i] < n and coord[j] < n])


def extra_edge_patches(pair: GraphPair) -> Dict[Tuple[int, int], EdgeVector]:
    """The cube patch cycle of each augmentation-only edge (u, v), u < v,
    of a box pair, keyed by (u, v): the edge closed by a monotone path of
    base edges that fixes one differing coordinate per step, so it stays in
    every unit cube holding both endpoints.  An edge whose endpoints share
    no unit cube is refused.  From u, the path takes its decreasing moves
    from the highest axis down, then its increasing moves from the lowest
    axis up: that one sort by signed axis rank gives the lexicographically
    smallest vertex-id sequence of the (#differing coordinates)! candidate
    paths.  The ids must be the box's, with stride n^i on axis i and n read
    from the last label; ``check_k_hypotheses`` judges the cycles."""
    g_plus = pair.g_plus
    labels, ids = g_plus.labels, g_plus._edge_ids
    extra = [e for e in g_plus.edges if not pair.g.has_edge(*e)]
    if not extra:
        return {}
    if labels is None:
        raise InputError("cube patch cycles need coordinate labels")
    n, out = max(labels[-1]), {}
    for u, v in extra:
        moves = [(b - a, i) for i, (a, b) in enumerate(zip(labels[u], labels[v])) if a != b]
        if any(abs(m) > 1 for m, _ in moves):
            raise InputError(f"edge {labels[u]}–{labels[v]}: endpoints do not share a unit cube")
        bits, cur = 1 << ids[u, v], u
        # the moves by signed axis rank m·(i + 1); one along axis i steps m·n^i
        for _, step in sorted((m * (i + 1), m * n ** i) for m, i in moves):
            bits |= 1 << ids[(cur, cur + step) if step > 0 else (cur + step, cur)]
            cur += step
        out[u, v] = EdgeVector(g_plus, bits)
    return out


def _box_premises(spec: BoxSpec, augmentation: str, patched: bool) -> Tuple[GraphPair, bool, dict]:
    """The pair of the plain box ``spec`` and its ``augmentation``, its
    premise verdict and its premise report fields: the augmentation, the
    unit-face count and, when ``patched``, the patch-cycle count.  They
    come from one bit-parallel judge on the box's strides.

    A generator is a lane mask, the base vertices u where it fits, and a
    walk, its vertices as id offsets from u.  A unit face of the axes i < j
    walks 0, n^i, n^i + n^j, n^j.  A patch cycle walks the steps of its
    move by signed axis rank, as ``extra_edge_patches`` says, and its lanes
    are the move's augmentation-only edges; its walk and lanes are taken
    from its lowest vertex.  Moves are keyed by their coordinates: on side
    2, (1, 0) and (−1, 1) share the id difference 1.  ``_lanes_hold``
    checks each fact in one int op for every lane against the plans' shift
    masks.  The lane popcounts give the counts, and the patch lanes must
    cover every augmentation-only edge.  The faces span when
    ``_triangular_rank``, taking them by lowest corner, then by plane, with
    edge (x, x + n^i) keyed x·d + i, reaches the cycle rank; when it falls
    short, the echelon decides."""
    if spec.d < 2:
        raise InputError("a one-dimensional box has a trivial cycle space")
    pair = build_box_pair(spec, augmentation)
    n, d = spec.side, spec.d
    low, up = (dict(_neighbourhood_plan(g).shifts) for g in (pair.g, pair.g_plus))
    gens = []
    # dp needs only the faces; no move past a flavor's reach is one of its edges
    for move in _raising_moves(d, max(2, _REACH.get(augmentation) or d) if patched else 2, n):
        lanes = 1                       # each coordinate in the range the move leaves it
        for i, m in enumerate(move):
            lanes = sum(lanes << c * n ** i for c in range(m < 0, n - (m > 0)))
        # the walk by signed axis rank, as offsets from its lowest vertex; u is walk[0]
        steps = [s for _, s in sorted((m * (i + 1), m * n ** i) for i, m in enumerate(move) if m)]
        walk = list(accumulate([-sum(s for s in steps if s < 0)] + steps))
        if sorted(move) == [0] * (d - 2) + [1, 1]:     # a unit face: 0, n^i, n^i + n^j, n^j
            gens.append((lanes, walk + [walk[2] - walk[1]], True))
        if patched:
            lanes &= up.get(walk[-1] - walk[0], 0) & ~low.get(walk[-1] - walk[0], 0)
            gens.append((lanes >> walk[0], walk, False))
    faces, patches = (sum(f.bit_count() for f, _, face in gens if face == k) for k in (1, 0))

    def keyed():        # built only once the lanes hold, and afresh for each reader
        return ((u * d, 1 << i | 1 << j | 1 << n ** i * d + j | 1 << n ** j * d + i) for u, c
                in enumerate(pair.g.labels) for i, j in combinations(range(d), 2)
                if c[i] < n > c[j])
    rank = cycle_space_rank(pair.g)
    holds = (all(_lanes_hold(*gen, low, up) for gen in gens)
             and (not patched or patches == pair.g_plus.edge_count - pair.g.edge_count)
             and (_triangular_rank(keyed()) == rank
                  or len(_forward_echelon([bits << at for at, bits in keyed()])) == rank))
    return pair, holds, {"augmentation": augmentation, "generators": faces,
                         **({"patch_cycles": patches} if patched else {})}


def _lanes_hold(lanes: int, walk: List[int], closed: bool, low: dict, up: dict) -> bool:
    """Whether, at every lane u, each step of the walk u + ``walk`` (and
    the one back to its start when ``closed``) is an edge of G and every
    pair of its vertices is an edge of G⁺; ``low`` and ``up`` map an id
    difference to the shift mask of G's and of G⁺'s plan.  Edge
    (u + a, u + b), a < b, exists at every lane when
    ``(lanes << a) & ~low[b − a]`` is 0.  Distinct offsets make distinct
    vertices, and two equal ones fail the pair test, as no plan has a
    shift 0."""
    steps = zip(walk, walk[1:] + walk[:closed])
    return not (any(lanes << min(a, b) & ~low.get(abs(a - b), 0) for a, b in steps)
                or any(lanes << a & ~up.get(b - a, 0) for a, b in combinations(sorted(walk), 2)))


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


def with_apex(pair: GraphPair) -> GraphPair:
    """Attach a fresh apex vertex to every surface vertex of a labeled box
    pair, in both graphs; box vertices keep their ids, and the apex takes
    id ``pair.g.vertex_count`` and the all-zeros label (disjoint from box
    coordinates, which are 1-based)."""
    apex = pair.g.vertex_count
    spokes = [(v, apex) for v in sorted(box_shell(pair.g))]
    labels = pair.g.labels + ((0,) * len(pair.g.labels[0]),)
    return GraphPair(*(Graph(apex + 1, list(g.edges) + spokes, labels=labels)
                       for g in (pair.g, pair.g_plus)))


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
