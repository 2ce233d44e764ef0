"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different data structures and
algorithms than the library: union-find instead of BFS, DFS path search
instead of component intersection, sorted-tuple GF(2) elimination instead of
int bitmasks, and powerset filtering instead of incremental growth.  Slow is
fine; these only run on small inputs.  Two exceptions keep the
algorithm, because the order they pin is the point: the order oracle of
the subset enumerator, the same growth on tuples and frozensets, and the
path oracle, the vertex-queue BFS that ``shortest_path`` replaced.  A
brute-force search over all simple paths judges the path oracle's order.
A third exception, ``_failing_observers``, runs on the library's
neighbourhood plans: it judges each observer component on the apexed
graphs themselves, with none of the batch judge's copies, surface floods
or rounds, and the definition-level oracles judge it in turn.  Those
apexed graphs, ``apexed_roles``, are the library's own ``with_apex``
model of the outside: a vertex glued to the box surface, which no
campaign or report builds any longer, since each floods from the surface
instead.  The tests judge that surface rule against this model.  The
growth oracle, ``connected_subset_by_randrange``, keeps the sampler's
algorithm too, on the stdlib's ``randrange`` and a bitmask, because the
draws it takes from the stream are the point.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations, permutations
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)


# --- connectivity ------------------------------------------------------------

class _UnionFind:
    def __init__(self, items: Iterable[int]):
        self.parent = {v: v for v in items}

    def find(self, v: int) -> int:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def flood_components(edges: Sequence[Tuple[int, int]],
                     s: Iterable[int]) -> List[Set[int]]:
    """Components of the subgraph induced on ``s``, via union-find."""
    s = set(s)
    uf = _UnionFind(s)
    for u, v in edges:
        if u in s and v in s:
            uf.union(u, v)
    groups: Dict[int, Set[int]] = {}
    for v in s:
        groups.setdefault(uf.find(v), set()).add(v)
    return sorted(groups.values(), key=min)


def connected_by_flood(edges: Sequence[Tuple[int, int]],
                       s: Iterable[int]) -> bool:
    return len(flood_components(edges, s)) <= 1


def chordal_by_pairs(cycle_edges: Iterable[Tuple[int, int]],
                     plus_edges: Iterable[Tuple[int, int]]) -> bool:
    """Whether every two vertices of the cycle with edges ``cycle_edges``
    are joined by one of ``plus_edges``."""
    joined = {frozenset(e) for e in plus_edges}
    touched = {v for e in cycle_edges for v in e}
    return all(frozenset(p) in joined for p in combinations(touched, 2))


def clique_by_pairs(touched: int, g) -> bool:
    """Whether the vertices of the mask ``touched`` are pairwise adjacent
    in the graph ``g``: one ``has_edge`` lookup per pair."""
    vs = [v for v in range(touched.bit_length()) if touched >> v & 1]
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def path_exists_avoiding(vertex_count: int, edges: Sequence[Tuple[int, int]],
                         x: int, y: int, forbidden: Iterable[int]) -> bool:
    """Iterative DFS for an x→y path avoiding ``forbidden`` internally and at
    the endpoints (endpoints themselves must not be forbidden)."""
    forbidden = set(forbidden)
    if x in forbidden or y in forbidden:
        return False
    adj: Dict[int, List[int]] = {v: [] for v in range(vertex_count)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    stack, seen = [x], {x}
    while stack:
        v = stack.pop()
        if v == y:
            return True
        for w in adj[v]:
            if w not in seen and w not in forbidden:
                seen.add(w)
                stack.append(w)
    return False


def shortest_path_by_queue(adjacency: Sequence[Sequence[int]], x: int, y: int,
                           forbidden: Iterable[int]) -> Optional[List[int]]:
    """The path oracle: BFS from x over a vertex queue, scanning each
    adjacency row in its (id) order, and the parent chain back from y;
    None when forbidden vertices cut y off."""
    forbidden = set(forbidden)
    if x in forbidden or y in forbidden:
        return None
    parent = {x: None}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        if v == y:
            path = []
            while v is not None:
                path.append(v)
                v = parent[v]
            return path[::-1]
        for w in adjacency[v]:
            if w not in parent and w not in forbidden:
                parent[w] = v
                queue.append(w)
    return None


def distance_by_relaxation(vertex_count: int, edges: Sequence[Tuple[int, int]],
                           x: int, y: int, forbidden: Iterable[int]) -> Optional[int]:
    """Number of edges of a shortest x→y path avoiding ``forbidden``, by
    relaxing every edge until no distance drops; None when y is cut off."""
    forbidden = set(forbidden)
    if x in forbidden or y in forbidden:
        return None
    dist = {x: 0}
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            if u in forbidden or v in forbidden:
                continue
            for a, b in ((u, v), (v, u)):
                if a in dist and dist[a] + 1 < dist.get(b, vertex_count):
                    dist[b] = dist[a] + 1
                    changed = True
    return dist.get(y)


def lexmin_shortest_path_by_search(vertex_count: int,
                                   edges: Sequence[Tuple[int, int]], x: int,
                                   y: int, forbidden: Iterable[int]
                                   ) -> Optional[List[int]]:
    """The smallest of all simple x→y paths avoiding ``forbidden``, by
    (length, vertex list), found by listing every such path with a DFS;
    None when there is none.  Exponential: small graphs only."""
    forbidden = set(forbidden)
    if x in forbidden or y in forbidden:
        return None
    adj: Dict[int, Set[int]] = {v: set() for v in range(vertex_count)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = None
    stack = [[x]]
    while stack:
        path = stack.pop()
        if path[-1] == y:
            if best is None or (len(path), path) < (len(best), best):
                best = path
            continue
        for w in adj[path[-1]]:
            if w not in forbidden and w not in path:
                stack.append(path + [w])
    return best


def is_minimal_cutset_oracle(vertex_count: int, edges: Sequence[Tuple[int, int]],
                             s: Iterable[int], x: int,
                             target: Iterable[int]) -> bool:
    """Brute force: s separates x from every target vertex, and no proper
    subset of s does."""
    s = set(s)
    target = set(target)
    if any(path_exists_avoiding(vertex_count, edges, x, y, s) for y in target):
        return False
    for v in s:
        smaller = s - {v}
        if not any(path_exists_avoiding(vertex_count, edges, x, y, smaller)
                   for y in target):
            return False
    return True


def crossing_postconditions_by_sets(g, o, s1: FrozenSet[int], s2: FrozenSet[int],
                                    x: int, s: FrozenSet[int]) -> List[str]:
    """The lemma campaign's postconditions of a crossing witness ``o``, on
    frozensets: the problem list of ``harness._crossing_postconditions``,
    with x's side of ``g`` minus ``s`` by union-find and ``o``'s edges
    scanned as pairs."""
    problems = []
    edges = o.edges()
    if not any(u in s1 or v in s1 for u, v in edges):
        problems.append("witness does not touch the first half")
    if not any(u in s2 or v in s2 for u, v in edges):
        problems.append("witness does not touch the second half")
    rest = set(range(g.vertex_count)) - set(s)
    side = next(c for c in flood_components(g.edges, rest) if x in c)
    crossing = sum(1 for u, v in edges
                   if (u in s2 and v in side) or (v in s2 and u in side))
    if crossing % 2 == 0:
        problems.append(f"crossing count {crossing} is even")
    return problems


# --- boundaries --------------------------------------------------------------

def boundary_by_scan(vertex_count: int, prime_edges: Sequence[Tuple[int, int]],
                     c: Iterable[int]) -> Set[int]:
    """Vertices outside c joined to c by an edge of the richer graph."""
    c = set(c)
    out = set()
    for u, v in prime_edges:
        if u in c and v not in c:
            out.add(v)
        if v in c and u not in c:
            out.add(u)
    return out


def visible_by_scan(vertex_count: int, edges: Sequence[Tuple[int, int]],
                    prime_edges: Sequence[Tuple[int, int]],
                    c: Iterable[int], x: int) -> Set[int]:
    """Boundary vertices reachable from x without entering c."""
    c = set(c)
    bd = boundary_by_scan(vertex_count, prime_edges, c)
    return {v for v in bd
            if path_exists_avoiding(vertex_count, edges, x, v, c)}


def outer_visible_by_paths(vertex_count: int, edges: Sequence[Tuple[int, int]],
                           c: Iterable[int], x: int,
                           visible: Iterable[int]) -> Set[int]:
    """Path formulation of the outer-visible refinement: v in the visible set
    qualifies when v == x or some x→v path has every interior vertex outside
    both c and the visible set."""
    c = set(c)
    visible = set(visible)
    out = set()
    for v in visible:
        if v == x:
            out.add(v)
            continue
        blocked = (c | visible) - {v}
        blocked.discard(x)
        if path_exists_avoiding(vertex_count, edges, x, v, blocked):
            out.add(v)
    return out


def _failing_observers(trav, adj, probe, cm: int, observers: int) -> int:
    """The mask of those ``observers`` (a mask disjoint from ``cm``) whose
    visible boundary of ``cm`` is disconnected in the probe graph, given
    the neighbourhood plans of the traversal, adjacency and probe graphs.
    That boundary depends on the observer only through its component of
    the traversal graph minus ``cm``, so each component holding an
    observer is flooded once and its boundary S judged by one probe flood
    from S's lowest vertex.  On the apexed graphs it is the batch judge's
    oracle."""
    boundary = adj.expand(cm) & ~cm
    outside = trav.full ^ cm
    failing = 0
    while observers:
        comp = trav.flood(observers & -observers, outside)
        if (s := boundary & comp) & ~probe.flood(s & -s, s):
            failing |= comp & observers
        observers &= ~comp
    return failing


@lru_cache(maxsize=None)
def apexed_roles(theorem: str, box, augmentation: str) -> tuple:
    """The traversal, adjacency and probe graphs of a dp/k campaign on the
    plain ``box`` with ``augmentation``, with the apex attached by
    ``with_apex``: the apex takes id |V| and is joined to every surface
    vertex.  Built once per box, like the box builders."""
    from boundarykit import build_box_pair, harness, with_apex
    apexed = with_apex(build_box_pair(box, augmentation))
    return tuple(getattr(apexed, name) for name in harness._BOUNDARY_THEOREMS[theorem].roles)


def apexed_graph(g):
    """``g`` with the apex of ``with_apex`` attached: the pair of ``g`` with
    itself, apexed, has it as both graphs."""
    from boundarykit import GraphPair, with_apex
    return with_apex(GraphPair(g, g)).g


# --- GF(2) linear algebra ----------------------------------------------------

def gf2_rank_sets(vectors: Sequence[Iterable[int]]) -> int:
    """Rank of 0/1 vectors given as index collections, with set symmetric
    difference as addition; nothing shared with the bitmask implementation."""
    basis: List[Set[int]] = []
    for vec in vectors:
        cur = set(vec)
        for b in basis:
            if min(b) in cur:
                cur ^= b
        if cur:
            basis.append(cur)
            basis.sort(key=min)
    return len(basis)


def gf2_in_span(vectors: Sequence[Iterable[int]],
                target: Iterable[int]) -> bool:
    return gf2_rank_sets(list(vectors)) == gf2_rank_sets(list(vectors) + [set(target)])


def cycle_check_by_degrees(vertex_count: int,
                           edges_of_vector: Sequence[Tuple[int, int]]) -> bool:
    """Nonempty, every touched vertex has degree exactly 2, and the touched
    vertices are mutually connected through the vector's own edges."""
    if not edges_of_vector:
        return False
    deg: Dict[int, int] = {}
    for u, v in edges_of_vector:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    return connected_by_flood(edges_of_vector, deg.keys())


# --- lattice geometry --------------------------------------------------------

def box_coords(d: int, n: int) -> List[Tuple[int, ...]]:
    """All coordinate tuples of the box, ordered first coordinate fastest."""
    coords = [()]
    for _ in range(d):
        coords = [c + (k,) for k in range(1, n + 1) for c in coords]
    # first coordinate fastest means the LAST loop above varies slowest
    return coords


def expected_edge_pairs(d: int, n: int, flavor: str) -> Set[FrozenSet[Tuple[int, ...]]]:
    """Edges of a box flavor as unordered coordinate pairs, by pair scanning."""
    coords = box_coords(d, n)
    out = set()
    for a, b in combinations(coords, 2):
        diffs = [abs(p - q) for p, q in zip(a, b)]
        linf = max(diffs)
        changed = sum(1 for t in diffs if t != 0)
        if flavor == "plain":
            keep = linf == 1 and changed == 1
        elif flavor == "star":
            keep = linf == 1
        else:  # plus: plain plus both diagonals of every unit square face
            keep = linf == 1 and changed <= 2
        if keep:
            out.add(frozenset((a, b)))
    return out


def patch_path_by_search(g, u: int, v: int) -> List[int]:
    """The lexicographically smallest vertex-id path from ``u`` to ``v``
    that fixes one differing coordinate per step, found by trying every
    order of the differing axes on a labeled box."""
    if u > v:
        u, v = v, u
    cu, cv = g.labels[u], g.labels[v]
    best = None
    for perm in permutations([i for i in range(len(cu)) if cu[i] != cv[i]]):
        cur = list(cu)
        path = [u]
        for axis in perm:
            cur[axis] = cv[axis]
            path.append(g.id_of_label(cur))
        if best is None or path < best:
            best = path
    return best


def connected_subsets_by_powerset(vertex_count: int,
                                  edges: Sequence[Tuple[int, int]],
                                  max_size: int,
                                  allowed: Optional[Iterable[int]] = None
                                  ) -> Set[FrozenSet[int]]:
    pool = sorted(allowed) if allowed is not None else list(range(vertex_count))
    out = set()
    for k in range(1, max_size + 1):
        for combo in combinations(pool, k):
            if connected_by_flood(edges, combo):
                out.add(frozenset(combo))
    return out


def connected_subsets_by_growth(adjacency: Sequence[Sequence[int]], max_size: int,
                                allowed: Optional[Iterable[int]] = None
                                ) -> Iterator[FrozenSet[int]]:
    """The order oracle of the enumerator: Redelmeier's growth on tuples
    and frozensets, recursive.  Per root in ascending order, each subset
    comes before its extensions; the child adding the i-th extension u
    keeps the extensions after u, then u's unseen larger allowed
    neighbours in adjacency order."""
    allowed = frozenset(range(len(adjacency)) if allowed is None else allowed)

    def grow(sub, ext, seen, root):
        yield frozenset(sub)
        if len(sub) == max_size:
            return
        for i, u in enumerate(ext):
            fresh = [w for w in adjacency[u]
                     if w > root and w in allowed and w not in seen]
            yield from grow(sub + (u,), ext[i + 1:] + fresh,
                            seen | frozenset(fresh), root)

    for root in sorted(allowed):
        ext = [w for w in adjacency[root] if w > root and w in allowed]
        yield from grow((root,), ext, frozenset([root, *ext]), root)


def connected_subset_by_randrange(pool, nbrs, size: int, rng) -> int:
    """The draw oracle of the sampler's growth: the same growth written
    with ``rng.randrange`` and a chosen-mask, whose frontier gains each
    new vertex's unchosen neighbours, stale duplicates kept.  Returns the
    subset's mask, or None when 64 starts cannot grow ``size`` vertices."""
    for _attempt in range(64):
        start = pool[rng.randrange(len(pool))]
        chosen, count = 1 << start, 1
        frontier = list(nbrs[start])
        while frontier and count < size:
            w = frontier.pop(rng.randrange(len(frontier)))
            if chosen >> w & 1:
                continue
            chosen |= 1 << w
            count += 1
            frontier.extend([z for z in nbrs[w] if not chosen >> z & 1])
        if count == size:
            return chosen
    return None
