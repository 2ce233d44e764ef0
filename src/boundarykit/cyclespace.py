"""GF(2) algebra on edge sets of a fixed host graph.

An edge set is encoded as an integer bitmask over dense edge ids; vector
addition is symmetric difference (XOR).  The even-degree vectors form the
host's cycle space; a *cycle* is a nonzero connected vector in which every
touched vertex has degree exactly 2.

`CycleGen` holds an ordered generating collection together with a GF(2)
forward echelon, rows keyed by their pivot (a row's lowest set bit) and
carrying combination bookkeeping, so membership and decomposition queries
are deterministic and cheap after a one-time build.

The module ends with `crossing_cycle_witness`, a constructive procedure
that, given a minimal vertex cutset split into two halves, produces a
generator crossing both halves with an odd number of edges into the
observer's side — the engine behind the boundary-connectivity checks in
the verification harness.  It runs on the graph's neighbourhood plan, and
its scan is one parity test per summand: by the lemma's parity argument,
an odd crossing into one half implies that the summand touches both.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import InputError, NotInSpanError
from .graphs import (Graph, _bit_ids, _minimal_side, _neighbourhood_plan, count_components,
                     shortest_path)


def _require_same_host(a: "EdgeVector", b: "EdgeVector") -> None:
    if not a.host.same_as(b.host):
        raise InputError("edge vectors live in different host graphs")


class EdgeVector:
    """A set of edges of ``host``, treated as a GF(2) vector over edge ids."""

    __slots__ = ("host", "bits")

    def __init__(self, host: Graph, bits: int = 0):
        if bits < 0 or bits >> host.edge_count:
            raise InputError("bits outside the host graph's edge-id range")
        self.host = host
        self.bits = bits

    @classmethod
    def from_edges(cls, host: Graph, pairs: Iterable[Sequence[int]]) -> "EdgeVector":
        bits = 0
        for u, v in pairs:
            bits |= 1 << host.edge_id(u, v)
        return cls(host, bits)

    @classmethod
    def from_vertex_path(cls, host: Graph, path: Sequence[int]) -> "EdgeVector":
        """Edge vector of a walk given by its vertex sequence; edges traversed
        an even number of times cancel."""
        bits = 0
        for u, v in zip(path, path[1:]):
            bits ^= 1 << host.edge_id(u, v)
        return cls(host, bits)

    def __add__(self, other: "EdgeVector") -> "EdgeVector":
        _require_same_host(self, other)
        return EdgeVector(self.host, self.bits ^ other.bits)

    __xor__ = __add__

    def __eq__(self, other) -> bool:
        return (isinstance(other, EdgeVector) and self.bits == other.bits
                and self.host.same_as(other.host))

    def __hash__(self) -> int:
        return hash((self.host.fingerprint(), self.bits))

    def __bool__(self) -> bool:
        return self.bits != 0

    def __len__(self) -> int:
        return self.bits.bit_count()

    def edge_ids(self) -> List[int]:
        return _bit_ids(self.bits)

    def edges(self) -> List[Tuple[int, int]]:
        edges = self.host.edges     # ``bits`` was range-checked on the way in
        return [edges[i] for i in self.edge_ids()]

    def is_even(self) -> bool:
        """Whether every vertex has even degree (cycle-space membership)."""
        odd = 0
        for u, v in self.edges():
            odd ^= (1 << u) | (1 << v)
        return not odd

    def is_cycle(self) -> bool:
        """Nonzero, 2-regular on its touched vertices, and connected."""
        return self._cycle_vertices() != 0

    def _cycle_vertices(self) -> int:
        """The mask of the touched vertices when the vector is a cycle, else
        0: the cycle test and the vertex set a clique test reads, from one
        listing of the edges."""
        edges = self.edges()
        if not edges:
            return 0
        # one pass: the endpoint masks, and per vertex the XOR of its neighbours
        touched = odd = 0
        nbr_xor = {}
        for u, v in edges:
            m = (1 << u) | (1 << v)
            touched |= m
            odd ^= m
            nbr_xor[u] = nbr_xor.get(u, 0) ^ v
            nbr_xor[v] = nbr_xor.get(v, 0) ^ u
        # Every degree is even and the degrees sum to twice the edge count,
        # so all are 2 exactly when there are as many vertices as edges.
        if odd or touched.bit_count() != len(edges):
            return 0
        # Walk from the first edge, leaving each vertex by the neighbour one
        # did not come from: back at the start after as many steps as the
        # walk's component has edges.
        start, cur = edges[0]
        prev, steps = start, 1
        while cur != start:
            prev, cur = cur, nbr_xor[cur] ^ prev
            steps += 1
        return touched if steps == len(edges) else 0

    def to_json(self) -> list:
        return [list(e) for e in self.edges()]

    def __repr__(self) -> str:
        return f"EdgeVector({len(self)} edges of {self.host!r})"


def cycle_space_rank(g: Graph) -> int:
    """Dimension of the cycle space: |E| − |V| + number of components."""
    return g.edge_count - g.vertex_count + count_components(g)


class CycleGen:
    """Ordered collection of cycles with a cached GF(2) forward echelon.

    Rows are keyed by their pivot, a row's lowest set bit, and know which
    input cycles sum to them.  A generator that reduces to zero depends on
    earlier ones: it never receives a pivot and never appears in a
    decomposition, which is thus the unique combination of the others.
    ``_vertices`` keeps each generator's vertex mask, from the one walk
    that checks it is a cycle, for the premise checks to read.
    """

    __slots__ = ("host", "cycles", "_vertices", "_rows")

    def __init__(self, host: Graph, cycles: Sequence[EdgeVector]):
        self.host = host
        self.cycles = tuple(cycles)
        for i, c in enumerate(self.cycles):
            if not c.host.same_as(host):
                raise InputError(f"cycle {i} lives in a different host graph")
        self._vertices = [c._cycle_vertices() for c in self.cycles]
        if 0 in self._vertices:
            raise InputError(f"generator {self._vertices.index(0)} is not a cycle")
        rows = {}           # pivot edge id -> (vector, combination over generators)
        for i, cyc in enumerate(self.cycles):
            v, combo = cyc.bits, 1 << i
            while v:
                pivot = (v & -v).bit_length() - 1
                row = rows.get(pivot)
                if row is None:
                    rows[pivot] = (v, combo)
                    break
                v ^= row[0]
                combo ^= row[1]
        self._rows = rows

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def solve(self, bits: int) -> Optional[int]:
        """Combination (as a bitmask over generator indices) summing to
        ``bits``, or None when it lies outside the span."""
        t, combo = bits, 0
        while t:
            row = self._rows.get((t & -t).bit_length() - 1)
            if row is None:
                return None
            t ^= row[0]
            combo ^= row[1]
        return combo

    def __repr__(self) -> str:
        return f"CycleGen({len(self.cycles)} cycles, rank {self.rank})"


def fundamental_basis(g: Graph) -> CycleGen:
    """Fundamental cycles of a BFS spanning tree rooted at vertex 0.

    Each non-tree edge closes exactly one cycle with the tree: the two
    root-to-endpoint tree paths XOR down to the tree path between the
    endpoints.  Requires a connected host.
    """
    if g.vertex_count == 0:
        raise InputError("empty graph has no spanning tree")
    root_path = [0] * g.vertex_count  # edge bits of the tree path to the root
    seen = {0}
    queue = deque([0])
    tree_edges = set()
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                eid = g.edge_id(v, w)
                tree_edges.add(eid)
                root_path[w] = root_path[v] ^ (1 << eid)
                queue.append(w)
    if len(seen) != g.vertex_count:
        raise InputError("graph must be connected for a fundamental basis")
    cycles = []
    for eid, (u, v) in enumerate(g.edges):
        if eid not in tree_edges:
            cycles.append(EdgeVector(g, root_path[u] ^ root_path[v] ^ (1 << eid)))
    return CycleGen(g, cycles)


def is_generating(gen: CycleGen, g: Graph) -> bool:
    """Whether ``gen`` spans the full cycle space of ``g``."""
    if not gen.host.same_as(g):
        raise InputError("generating set lives in a different graph")
    return gen.rank == cycle_space_rank(g)


def _is_clique(touched: int, g_plus: Graph) -> bool:
    """Whether the vertices of the mask ``touched`` are pairwise adjacent in
    ``g_plus``: the chordality test for the vertices of a cycle on
    ``g_plus``'s vertex set, as ``EdgeVector._cycle_vertices`` gives them
    (``CycleGen._vertices`` keeps them for generators).  Each vertex's
    row of ``g_plus``'s neighbourhood plan, the plan a campaign builds
    anyway, must hold every other touched vertex."""
    rows = _neighbourhood_plan(g_plus).rows
    rest = touched
    while rest:
        low = rest & -rest
        if touched & ~(rows[low.bit_length() - 1] | low):
            return False
        rest ^= low
    return True


def decompose(target: EdgeVector, gen: CycleGen) -> List[int]:
    """Indices of generators whose GF(2) sum is ``target``.

    Deterministic: the unique combination selected by the cached echelon
    (dependent generators always get coefficient 0).  The zero vector
    decomposes as the empty list.
    """
    if not gen.host.same_as(target.host):
        raise InputError("target lives outside the generating set's host graph")
    if not target.is_even():
        raise InputError("target has odd-degree vertices, not a cycle-space element")
    combo = gen.solve(target.bits)
    if combo is None:
        raise NotInSpanError("target is not in the span of the generating set")
    idxs = _bit_ids(combo)
    acc = 0
    for i in idxs:
        acc ^= gen.cycles[i].bits
    if acc != target.bits:
        raise RuntimeError("echelon bookkeeping produced an invalid combination")
    return idxs


def crossing_cycle_witness(g: Graph, gen: CycleGen, s1: frozenset,
                           s2: frozenset, x: int, y: int) -> EdgeVector:
    """Generator crossing both halves of a split minimal cutset.

    Given a minimal cutset ``s1 ∪ s2`` separating ``x`` from ``y`` and a
    generating set for the cycle space of ``g``, returns a generator O with
    O touching ``s1``, O touching ``s2``, and an odd number of O's edges
    joining ``s2`` to the component of ``x`` in ``g`` minus the cutset.

    Construction: take a shortest x–y path avoiding ``s2`` and one avoiding
    ``s1`` (both exist by minimality), decompose their sum over ``gen``, and
    return the first summand with an odd crossing count.  The scan provably
    succeeds; if it ever does not, that is a bug worth a loud crash, so this
    raises RuntimeError rather than returning a default.
    """
    if not s1 or not s2:
        raise InputError("both cutset halves must be nonempty")
    if s1 & s2:
        raise InputError("cutset halves must be disjoint")
    s = s1 | s2
    if x == y:
        raise InputError("x and y must differ")
    if x in s or y in s:
        raise InputError("x and y must avoid the cutset")
    if not is_generating(gen, g):
        raise InputError("the generating set does not span the cycle space")
    side = _minimal_side(g, s, x, frozenset({y}))     # x's side of g minus s
    if side is None:
        raise InputError("s1 ∪ s2 is not a minimal cutset between x and y")

    p1 = shortest_path(g, x, y, forbidden=s2)
    p2 = shortest_path(g, x, y, forbidden=s1)
    if p1 is None or p2 is None:
        raise RuntimeError("minimality guaranteed a path around either half; none found")
    target = (EdgeVector.from_vertex_path(g, p1)
              + EdgeVector.from_vertex_path(g, p2))

    # the edges joining s2 to x's side, each met once from its s2 end
    crossing = sum(1 << g.edge_id(u, w) for u in s2 for w in g.adjacency[u]
                   if side >> w & 1)
    # A summand O is an even edge set, so it leaves ``side`` an even number
    # of times, and every edge leaving ``side`` ends in s = s1 ∪ s2.  An odd
    # count into s2 thus forces an odd count into s1: O touches both halves,
    # and no summand needs a separate touch test.
    for i in decompose(target, gen):
        o = gen.cycles[i]
        if (o.bits & crossing).bit_count() % 2 == 1:
            return o
    raise RuntimeError(
        "no summand touching s1 has an odd crossing count; this contradicts "
        "the cutset-crossing principle — inputs or algebra are inconsistent")
