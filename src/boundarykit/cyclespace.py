"""GF(2) algebra on edge sets of a fixed host graph.

An edge set is encoded as an integer bitmask over dense edge ids; vector
addition is symmetric difference (XOR).  The even-degree vectors form the
host's cycle space; a *cycle* is a nonzero connected vector in which every
touched vertex has degree exactly 2.

`CycleGen` holds an ordered generating collection together with a GF(2)
forward echelon, rows keyed by their pivot (a row's lowest set bit) and
carrying combination bookkeeping, so membership and decomposition queries
are deterministic and cheap after a one-time build on first use.  Whether
generators span is first asked of a triangular certificate
(``_triangular_rank``), which needs no echelon when it reaches the rank.

The module ends with `crossing_cycle_witness`, a constructive procedure
that, given a minimal vertex cutset split into two halves, produces a
generator crossing both halves with an odd number of edges into the
observer's side — the engine behind the boundary-connectivity checks in
the verification harness.  It runs on the graph's neighbourhood plan, and
its scan is one parity test per summand: by the lemma's parity argument,
an odd crossing into one half implies that the summand touches both.
Each public name checks its arguments and wraps one mask kernel
(``_decompose``, ``_crossing_witness``), which campaigns call directly.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import InputError, NotInSpanError
from .graphs import (Graph, _bit_ids, _minimal_side, _neighbourhood_plan, _shortest_path,
                     count_components)


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
        return cls(host, _walk_bits(host, path))

    def __add__(self, other: "EdgeVector") -> "EdgeVector":
        _require_same_host(self, other)
        return EdgeVector(self.host, self.bits ^ other.bits)

    __xor__ = __add__

    def __eq__(self, other) -> bool:
        return (isinstance(other, EdgeVector) and self.bits == other.bits
                and self.host.same_as(other.host))

    def __hash__(self) -> int:
        # equal vectors have equal bits; equality itself rests on ``same_as``
        return hash(self.bits)

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
        return not _odd_ends(self.host.edges, self.bits)

    def is_cycle(self) -> bool:
        """Nonzero, 2-regular on its touched vertices, and connected."""
        return self._cycle_vertices() != 0

    def _cycle_vertices(self) -> int:
        """The mask of the touched vertices when the vector is a cycle, else
        0: the cycle test and the vertex set a clique test reads, from one
        listing of the edges."""
        edges, rest, count = self.host.edges, self.bits, self.bits.bit_count()
        touched = odd = 0
        while rest:                     # the endpoint masks, edge by edge
            low = rest & -rest
            u, v = edges[low.bit_length() - 1]
            m = (1 << u) | (1 << v)
            touched |= m
            odd ^= m
            rest ^= low
        # Every degree is even and the degrees sum to twice the edge count,
        # so all are 2 exactly when there are as many vertices as edges.
        if not count or odd or touched.bit_count() != count:
            return 0
        # A 2-regular simple edge set is a disjoint union of cycles of ≥ 3
        # edges each, so with fewer than 6 edges it is one cycle.
        if count < 6:
            return touched
        # Walk from the first edge, leaving each vertex by the neighbour one
        # did not come from: back at the start after as many steps as the
        # walk's component has edges.
        edges = self.edges()
        nbr_xor = {}
        for u, v in edges:
            nbr_xor[u] = nbr_xor.get(u, 0) ^ v
            nbr_xor[v] = nbr_xor.get(v, 0) ^ u
        start, cur = edges[0]
        prev, steps = start, 1
        while cur != start:
            prev, cur = cur, nbr_xor[cur] ^ prev
            steps += 1
        return touched if steps == count else 0

    def to_json(self) -> list:
        return [list(e) for e in self.edges()]

    def __repr__(self) -> str:
        return f"EdgeVector({len(self)} edges of {self.host!r})"


def _walk_bits(g: Graph, path: Sequence[int]) -> int:
    """The edge bits of the walk ``path``: XOR, so repeated edges cancel."""
    ids, bits = g._edge_ids, 0
    for u, v in zip(path, path[1:]):
        key = (u, v) if u < v else (v, u)
        if key not in ids:
            g.edge_id(u, v)             # raises the missing edge's InputError
        bits ^= 1 << ids[key]
    return bits


def _odd_ends(edges: tuple, bits: int) -> int:
    """The mask of the vertices of odd degree in the edges ``bits``."""
    odd = 0
    while bits:
        low = bits & -bits
        u, v = edges[low.bit_length() - 1]
        odd ^= (1 << u) | (1 << v)
        bits ^= low
    return odd


def cycle_space_rank(g: Graph) -> int:
    """Dimension of the cycle space: |E| − |V| + number of components."""
    return g.edge_count - g.vertex_count + count_components(g)


class CycleGen:
    """Ordered collection of cycles with a GF(2) forward echelon, built on
    the first ``rank`` or ``solve``.

    Rows are keyed by their pivot, a row's lowest set bit, and know which
    input cycles sum to them.  A generator that reduces to zero depends on
    earlier ones: it never receives a pivot and never appears in a
    decomposition, which is thus the unique combination of the others.
    ``_vertices`` keeps each generator's vertex mask, from the one walk
    that checks it is a cycle, for the premise checks to read;
    ``fundamental_basis`` builds its cycles with their masks and skips
    the walk (``_trusted``).
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
        self._rows = None

    @classmethod
    def _trusted(cls, host: Graph, cycles: list, vertices: list) -> "CycleGen":
        """A generating set of ``cycles``, cycles of ``host`` by
        construction, with their vertex masks ``vertices``: neither the
        host check nor the cycle walk runs."""
        gen = object.__new__(cls)
        gen.host, gen.cycles, gen._vertices, gen._rows = host, tuple(cycles), vertices, None
        return gen

    def __len__(self) -> int:
        return len(self.cycles)

    def _echelon(self) -> dict:
        if self._rows is None:
            self._rows = _forward_echelon([c.bits for c in self.cycles])
        return self._rows

    @property
    def rank(self) -> int:
        return len(self._echelon())

    def solve(self, bits: int) -> Optional[int]:
        """Combination (as a bitmask over generator indices) summing to
        ``bits``, or None when it lies outside the span."""
        rest, combo = _reduce(self._echelon(), bits, 0)
        return None if rest else combo

    def __repr__(self) -> str:
        return f"CycleGen({len(self.cycles)} cycles, rank {self.rank})"


def _reduce(rows: dict, v: int, combo: int) -> Tuple[int, int]:
    """``v`` reduced by the echelon ``rows`` until it is 0 or its lowest
    bit is no pivot, and ``combo`` XORed with the combinations of the rows
    used."""
    while v:
        row = rows.get((v & -v).bit_length() - 1)
        if row is None:
            break
        v, combo = v ^ row[0], combo ^ row[1]
    return v, combo


def _forward_echelon(vectors: Sequence[int]) -> dict:
    """The forward echelon of ``vectors``: pivot edge id -> (row, combination
    over the vectors' indices).  A vector that reduces to 0 adds no row."""
    rows = {}
    for i, v in enumerate(vectors):
        v, combo = _reduce(rows, v, 1 << i)
        if v:
            rows[(v & -v).bit_length() - 1] = (v, combo)
    return rows


def _triangular_rank(generators: Iterable[Tuple[int, int]]) -> int:
    """How many of ``generators`` have an edge that no earlier one has, in
    the order given.  Each is a pair ``(offset, bits)``: its edges are the
    keys ``offset + k`` for the bits ``k`` of ``bits``, with offsets that
    never fall.  The accepted generators are triangular, each with an edge
    the ones before it lack, so they are independent; when they number the
    cycle rank, the generators span.  This is a greedy acyclic matching
    (Forman, *Morse theory for cell complexes*, Adv. Math. 134, 1998).
    Keys below the current offset are dropped from the covered mask, since
    no later generator has them."""
    covered = rank = at = 0
    for offset, bits in generators:
        covered, at = covered >> offset - at, offset
        if bits & ~covered:
            covered, rank = covered | bits, rank + 1
    return rank


def fundamental_basis(g: Graph) -> CycleGen:
    """Fundamental cycles of a BFS spanning tree rooted at vertex 0.

    Each non-tree edge closes exactly one cycle with the tree: the two
    root-to-endpoint tree paths XOR down to the tree path between the
    endpoints.  The tree is built on int masks: each vertex keeps the edge
    bits and the vertex mask of its path to the root, and its vertex mask
    is nonzero once it is reached.  A cycle's vertices are the two paths'
    vertex masks XORed, plus the endpoints' lowest common ancestor, whose
    path is the two paths' intersection.  A tree path closed by one
    non-tree edge is a cycle by construction, so ``CycleGen._trusted``
    takes the cycles and their vertex masks unchecked.  Requires a
    connected host.
    """
    n = g.vertex_count
    if n == 0:
        raise InputError("empty graph has no spanning tree")
    adjacency, ids = g.adjacency, g._edge_ids
    path = [0] * n                  # edge bits of the tree path to the root
    above = [0] * n                 # vertex mask of that path, the vertex included
    above[0] = 1
    order = [0]
    tree = 0
    for v in order:                 # BFS: ``order`` grows as the loop runs
        pv, av = path[v], above[v]
        for w in adjacency[v]:
            if not above[w]:
                bit = 1 << ids[(v, w) if v < w else (w, v)]
                tree |= bit
                path[w] = pv | bit
                above[w] = av | 1 << w
                order.append(w)
    if len(order) != n:
        raise InputError("graph must be connected for a fundamental basis")
    vertex_at = {m: 1 << v for v, m in enumerate(above)}   # path mask -> its end
    edges = g.edges
    cycles, vertices = [], []
    rest = ((1 << len(edges)) - 1) ^ tree
    while rest:                     # the non-tree edges, in id order
        low = rest & -rest
        u, v = edges[low.bit_length() - 1]
        au, av = above[u], above[v]
        cycles.append(EdgeVector(g, path[u] ^ path[v] | low))
        vertices.append(au ^ av | vertex_at[au & av])
        rest ^= low
    return CycleGen._trusted(g, cycles, vertices)


def is_generating(gen: CycleGen, g: Graph) -> bool:
    """Whether ``gen`` spans the full cycle space of ``g``.  Unless the
    echelon is built already, the triangular certificate is tried first, on
    the generators by lowest vertex, then by index; when it falls short,
    the echelon decides."""
    if not gen.host.same_as(g):
        raise InputError("generating set lives in a different graph")
    rank = cycle_space_rank(g)
    if gen._rows is None:
        by_lowest = sorted(zip(gen._vertices, gen.cycles), key=lambda p: p[0] & -p[0])
        if _triangular_rank((0, c.bits) for _, c in by_lowest) == rank:
            return True
    return gen.rank == rank


def _is_clique(touched: int, g_plus: Graph) -> bool:
    """Whether the vertices of the mask ``touched`` are pairwise adjacent in
    ``g_plus``: the chordality test for the vertices of a cycle on
    ``g_plus``'s vertex set, as ``EdgeVector._cycle_vertices`` gives them
    (``CycleGen._vertices`` keeps them for generators)."""
    return all(g_plus.has_edge(u, v) for u, v in combinations(_bit_ids(touched), 2))


def decompose(target: EdgeVector, gen: CycleGen) -> List[int]:
    """Indices of generators whose GF(2) sum is ``target``.

    Deterministic: the unique combination selected by the cached echelon
    (dependent generators always get coefficient 0).  The zero vector
    decomposes as the empty list.
    """
    if not gen.host.same_as(target.host):
        raise InputError("target lives outside the generating set's host graph")
    return _decompose(gen, target.bits)


def _decompose(gen: CycleGen, bits: int) -> List[int]:
    """``decompose`` of the edge bits ``bits`` of ``gen``'s host."""
    if _odd_ends(gen.host.edges, bits):
        raise InputError("target has odd-degree vertices, not a cycle-space element")
    combo = gen.solve(bits)
    if combo is None:
        raise NotInSpanError("target is not in the span of the generating set")
    idxs = _bit_ids(combo)
    acc = 0
    for i in idxs:
        acc ^= gen.cycles[i].bits
    if acc != bits:
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
    raises RuntimeError rather than returning a default.  The ids are
    checked first, then ``_crossing_witness`` runs on the halves' masks.
    """
    g.require_vertex(x)
    g.require_vertex(y)
    mask = _neighbourhood_plan(g).mask
    return _crossing_witness(g, gen, mask(s1), mask(s2), x, y)


def _crossing_witness(g: Graph, gen: CycleGen, s1m: int, s2m: int,
                      x: int, y: int) -> EdgeVector:
    """``crossing_cycle_witness`` on the masks ``s1m`` and ``s2m`` of the
    halves, for vertex ids ``x`` and ``y`` of ``g``."""
    if not s1m or not s2m:
        raise InputError("both cutset halves must be nonempty")
    if s1m & s2m:
        raise InputError("cutset halves must be disjoint")
    sm = s1m | s2m
    if x == y:
        raise InputError("x and y must differ")
    if (sm >> x | sm >> y) & 1:
        raise InputError("x and y must avoid the cutset")
    gen._echelon()      # decompose needs it; built first, it gives the span check its rank
    if not is_generating(gen, g):
        raise InputError("the generating set does not span the cycle space")
    plan = _neighbourhood_plan(g)
    full = plan.full
    side = _minimal_side(plan, sm, 1 << y, plan.flood(1 << x, full ^ sm))   # x's side of g − s
    if side is None:
        raise InputError("s1 ∪ s2 is not a minimal cutset between x and y")

    p1 = _shortest_path(g, plan, x, y, full ^ s2m)
    p2 = _shortest_path(g, plan, x, y, full ^ s1m)
    if p1 is None or p2 is None:
        raise RuntimeError("minimality guaranteed a path around either half; none found")

    # the edges joining s2 to x's side, each met once from its s2 end
    ids = g._edge_ids
    crossing = sum(1 << ids[(u, w) if u < w else (w, u)]
                   for u in _bit_ids(s2m) for w in g.adjacency[u] if side >> w & 1)
    # A summand O is an even edge set, so it leaves ``side`` an even number
    # of times, and every edge leaving ``side`` ends in s = s1 ∪ s2.  An odd
    # count into s2 thus forces an odd count into s1: O touches both halves,
    # and no summand needs a separate touch test.
    for i in _decompose(gen, _walk_bits(g, p1) ^ _walk_bits(g, p2)):
        o = gen.cycles[i]
        if (o.bits & crossing).bit_count() % 2 == 1:
            return o
    raise RuntimeError(
        "no summand touching s1 has an odd crossing count; this contradicts "
        "the cutset-crossing principle — inputs or algebra are inconsistent")
