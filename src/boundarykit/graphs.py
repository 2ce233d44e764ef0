"""Finite undirected simple graphs with dense integer ids.

Vertices are ``0..vertex_count-1``; an edge is an unordered pair of distinct
vertices and carries a dense edge id, assigned in lexicographic order of the
sorted endpoint pairs.  Optional per-vertex labels attach a coordinate tuple
(used by the lattice builders).  Graphs are immutable once constructed,
apart from a derived neighbourhood plan that is built on first use and
kept on the graph; every operation in this module is a pure function.

Vertex sets cross the public API as ``frozenset`` objects over vertex ids.
Reachability in this module and in the boundary layer runs on int
bitmasks (bit ``v`` set for vertex ``v``) through the private
``_NeighbourhoodPlan``: ``mask`` range-checks a set into a mask,
``expand`` maps a mask to the mask of its neighbours, by ORing
per-vertex neighbour rows when the mask holds few vertices and by one
whole-int shift per edge difference otherwise, ``flood`` grows a mask
inside an allowed mask one BFS level per step and stops once the allowed
mask is filled, and ``components`` peels a mask into its components.
The component, connectivity, cutset and shortest-path queries here,
every boundary operator and the crossing witness share that one engine;
no query keeps a vertex queue.
Every plan also has a ``tiled`` view: ``k`` disjoint copies of the graph
in one int, so that one flood floods every copy at once.  The boundary
layer judges its batches of dp/k instances on it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import InputError

VertexSet = frozenset  # frozenset[int]
Coord = tuple  # tuple[int, ...]


def _is_id(v) -> bool:
    """Whether ``v`` is an int usable as a vertex id; bools are not."""
    return isinstance(v, int) and not isinstance(v, bool)


class Graph:
    """Immutable simple undirected graph.

    Attributes:
        vertex_count: number of vertices.
        adjacency: per-vertex sorted tuple of neighbor ids.
        edges: tuple of ``(u, v)`` pairs with ``u < v``, sorted; the index of
            a pair in this tuple is its edge id.
        labels: optional tuple of coordinate tuples, one per vertex, pairwise
            distinct.
    """

    __slots__ = ("vertex_count", "adjacency", "edges", "labels",
                 "_edge_ids", "_label_ids", "_plan")

    def __init__(self, vertex_count: int,
                 edges: Iterable[Sequence[int]],
                 labels: Optional[Sequence[Coord]] = None):
        if not _is_id(vertex_count) or vertex_count < 0:
            raise InputError(f"vertex_count must be a nonnegative int, got {vertex_count!r}")
        pairs = []
        for pair in edges:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and _is_id(pair[0]) and _is_id(pair[1])):
                raise InputError(f"an edge is a pair of vertex ids, got {pair!r}")
            pairs.append(tuple(sorted(pair)))
        if labels is not None:
            if not isinstance(labels, (list, tuple)):
                raise InputError(f"labels are a list of coordinate tuples, got {labels!r}")
            for lab in labels:
                if not (isinstance(lab, (list, tuple)) and all(_is_id(c) for c in lab)):
                    raise InputError(f"a label is a tuple of integer coordinates, got {lab!r}")
            labels = tuple(tuple(lab) for lab in labels)
        self._build(vertex_count, pairs, labels)

    def _build(self, vertex_count: int, pairs, labels: Optional[tuple] = None) -> "Graph":
        """The constructor core, and the whole constructor for callers that
        built their input from ints, as ``Graph.__new__(Graph)._build(…)``:
        ``pairs`` of ids ``(u, v)``, ``u ≤ v``, and ``labels`` a tuple of
        int tuples or None.  It keeps the range, loop, duplicate and label
        invariants by whole-list checks, and names an offender only once one
        fails.  Sorted edges list each vertex's smaller neighbours before
        its larger ones, each in ascending order, so the adjacency comes out
        sorted."""
        self.vertex_count = vertex_count
        self.edges = edges = tuple(sorted(pairs))
        if edges:
            us, vs = zip(*edges)
            if us[0] < 0 or max(vs) >= vertex_count or any(map(int.__eq__, us, vs)):
                u, v = next(e for e in edges if not 0 <= e[0] < e[1] < vertex_count)
                raise InputError(f"loop at vertex {u} is not allowed" if u == v else
                                 f"edge ({u}, {v}) has an endpoint outside 0..{vertex_count - 1}")
        ids = self._edge_ids = {e: i for i, e in enumerate(edges)}
        if len(ids) != len(edges):
            duplicate = next(e for i, e in enumerate(edges) if ids[e] != i)
            raise InputError(f"duplicate edge {duplicate}")
        adj = [[] for _ in range(vertex_count)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = tuple(map(tuple, adj))
        self.labels, self._label_ids = labels, None
        if labels is not None:
            if len(labels) != vertex_count:
                raise InputError(f"{len(labels)} labels for {vertex_count} vertices")
            self._label_ids = {lab: i for i, lab in enumerate(labels)}
            if len(self._label_ids) != vertex_count:
                raise InputError("vertex labels must be pairwise distinct")
        self._plan = None
        return self

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def require_vertex(self, v: int) -> None:
        if not _is_id(v):
            raise InputError(f"a vertex id is an int, got {v!r}")
        if not (0 <= v < self.vertex_count):
            raise InputError(f"vertex id {v} outside 0..{self.vertex_count - 1}")

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._edge_ids

    def edge_id(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_ids[key]
        except KeyError:
            raise InputError(f"no edge {key} in graph") from None

    def id_of_label(self, coord: Sequence[int]) -> int:
        if self._label_ids is None:
            raise InputError("graph has no labels")
        key = tuple(coord)
        for c in key:
            if type(c) is not int and not _is_id(c):    # exact ints skip the call
                raise InputError(f"a label is a tuple of integer coordinates, got {coord!r}")
        try:
            return self._label_ids[key]
        except KeyError:
            raise InputError(f"no vertex labeled {key}") from None

    def same_as(self, other: "Graph") -> bool:
        """Whether ``other`` has the same vertices, edges and labels."""
        return self is other or (self.vertex_count == other.vertex_count
                                 and self.edges == other.edges
                                 and self.labels == other.labels)

    def to_json(self) -> dict:
        out = {"vertices": self.vertex_count,
               "edges": [list(e) for e in self.edges]}
        if self.labels is not None:
            out["labels"] = [list(lab) for lab in self.labels]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Graph":
        try:
            vertices = data["vertices"]
            edges = data["edges"]
        except (TypeError, KeyError) as exc:
            raise InputError(f"graph JSON needs 'vertices' and 'edges': {exc}") from None
        if not isinstance(edges, list):
            raise InputError(f"graph JSON 'edges' is a list of [u, v] pairs, got {edges!r}")
        return cls(vertices, edges, labels=data.get("labels"))

    def __repr__(self) -> str:
        return f"Graph(|V|={self.vertex_count}, |E|={len(self.edges)})"


class _Record:
    """Base of the package's immutable records.  A record's fields are its
    ``_fields``, also its ``__slots__``, set once by ``_set`` in its
    ``__init__``, which then validates them.  Records are equal when their
    types are the same and their fields are equal, hash as their field
    tuple, and print as ``Name(field=value, …)``.  Assignment and deletion
    raise AttributeError.  ``pickle`` and ``copy`` rebuild a record
    through its ``__init__``, so the copy is validated again."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class GraphPair(_Record):
    """Two graphs on the same vertex set with ``g``'s edges contained in
    ``g_plus``'s."""

    __slots__ = _fields = ("g", "g_plus")

    def __init__(self, g: Graph, g_plus: Graph):
        self._set(g, g_plus)
        if self.g.vertex_count != self.g_plus.vertex_count:
            raise InputError("pair graphs must share the vertex set")
        if self.g.labels != self.g_plus.labels:
            raise InputError("pair graphs must carry identical labels")
        missing = [e for e in self.g.edges if not self.g_plus.has_edge(*e)]
        if missing:
            raise InputError(f"{len(missing)} edges of g missing from g_plus, e.g. {missing[0]}")


class _NeighbourhoodPlan:
    """A graph's edges as whole-int operations on vertex bitmasks.

    Edges are grouped by their id difference ``δ = v − u``, and each
    difference becomes a shift ``(δ, low)``, ``low`` the mask of those
    edges' lower endpoints.  On a lattice box the shifts are the axis and
    diagonal steps.  ``rows`` holds each vertex's neighbour mask.
    ``expand`` ORs the rows of a mask with at most as many vertices as the
    plan has shifts, and otherwise runs the shift pass, whose cost does
    not grow with the mask.  Both passes are exact for every graph; there
    is no lattice-only path.  ``tiled(k)`` is a view of ``k`` disjoint
    copies of the plan: the same shifts, each ``low`` repeated in every
    copy, and no rows, so every mask takes the shift pass and one pass
    expands every copy.  ``ones`` holds bit 0 of every copy: 1 for a plan
    that is not tiled.
    """

    __slots__ = ("vertex_count", "full", "ones", "shifts", "rows", "_row_limit", "_count")

    def __init__(self, g: Graph):
        self.vertex_count = g.vertex_count
        self.full = (1 << g.vertex_count) - 1
        self.ones = 1
        lows = {}
        rows = [0] * g.vertex_count
        for u, v in g.edges:
            lows[v - u] = lows.get(v - u, 0) | 1 << u
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.shifts = tuple(sorted(lows.items()))
        self.rows = tuple(rows)
        self._row_limit = len(self.shifts)
        self._count = None

    def mask(self, s) -> int:
        """Bitmask of the vertex ids in ``s``, each type- and range-checked."""
        n = self.vertex_count
        m = 0
        for v in s:
            if type(v) is not int and not _is_id(v):    # exact ints skip the call
                raise InputError(f"a vertex id is an int, got {v!r}")
            if not 0 <= v < n:
                raise InputError(f"vertex id {v} outside 0..{n - 1}")
            m |= 1 << v
        return m

    def expand(self, m: int) -> int:
        """Mask of the vertices with a neighbour in ``m``: the rows of
        ``m``'s vertices when it has no more of them than the plan has
        shifts, else the shift pass."""
        if m.bit_count() > self._row_limit:
            return self._expand_by_shifts(m)
        rows = self.rows
        out = 0
        while m:
            low = m & -m
            out |= rows[low.bit_length() - 1]
            m ^= low
        return out

    def tiled(self, k: int) -> "_NeighbourhoodPlan":
        """``k`` disjoint copies of this plan, copy ``i`` on ids
        ``i·n … i·n + n − 1`` for ``n = vertex_count``.  One
        multiplication repeats each shift's ``low`` mask in every copy; a
        shift joins ``u`` to ``u + δ`` only for ``u`` in ``low``, where
        both lie in one copy, so no shift crosses a seam.  The view has no
        rows: every mask takes the shift pass."""
        n = self.vertex_count
        ones = ((1 << k * n) - 1) // ((1 << n) - 1) if n else 0    # bit 0 of each copy
        tile = object.__new__(_NeighbourhoodPlan)
        tile.vertex_count = k * n
        tile.full = self.full * ones
        tile.ones = ones
        tile.shifts = tuple((delta, low * ones) for delta, low in self.shifts)
        tile.rows = ()
        tile._row_limit = -1
        tile._count = None
        return tile

    def _expand_by_shifts(self, m: int) -> int:
        """``expand`` by one pass over the shifts."""
        out = 0
        for delta, low in self.shifts:
            out |= ((m & low) << delta) | ((m >> delta) & low)
        return out

    def flood(self, seed: int, allowed: int) -> int:
        """Vertices of ``allowed`` joined to ``seed & allowed`` by a path
        inside ``allowed``, grown one BFS level per step.  The flood stops
        as soon as it has filled ``allowed``: a level after that could
        expand into nothing, so it is skipped."""
        seen = frontier = seed & allowed
        rest = allowed ^ seen
        while frontier and rest:
            frontier = self.expand(frontier) & rest
            rest ^= frontier
            seen |= frontier
        return seen

    def components(self, m: int) -> list:
        """Masks of the components of the subgraph induced on ``m``,
        peeled off from the lowest remaining bit, so they come ordered by
        smallest member."""
        comps = []
        while m:
            comp = self.flood(m & -m, m)
            comps.append(comp)
            m ^= comp
        return comps

    def component_count(self) -> int:
        """Number of components of the whole graph, counted on first use;
        the plan belongs to an immutable graph, so it never changes."""
        if self._count is None:
            self._count = len(self.components(self.full))
        return self._count


def _neighbourhood_plan(g: Graph) -> _NeighbourhoodPlan:
    """``g``'s plan, built on first use and kept on ``g``."""
    if g._plan is None:
        g._plan = _NeighbourhoodPlan(g)
    return g._plan


def _bit_ids(m: int) -> list:
    """Indices of the bits set in ``m``, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _members(m: int) -> frozenset:
    """Vertex ids of the bits set in ``m``."""
    return frozenset(_bit_ids(m))


def component_of(g: Graph, start: int, forbidden: frozenset = frozenset()) -> frozenset:
    """Vertex set of the connected component of ``start`` in the subgraph
    induced on the complement of ``forbidden``."""
    g.require_vertex(start)
    plan = _neighbourhood_plan(g)
    fm = plan.mask(forbidden)
    if fm >> start & 1:
        raise InputError(f"start vertex {start} is forbidden")
    return _members(plan.flood(1 << start, plan.full ^ fm))


def set_components(g: Graph, s: frozenset) -> list:
    """Connected components of the subgraph induced on ``s``, each a
    frozenset, ordered by their smallest member."""
    plan = _neighbourhood_plan(g)
    return [_members(comp) for comp in plan.components(plan.mask(s))]


def count_components(g: Graph) -> int:
    """Number of connected components of the whole graph."""
    return _neighbourhood_plan(g).component_count()


def _separation(g: Graph, s: frozenset, x: int, target: frozenset):
    """The plan, the masks of ``s`` and ``target``, and ``x``'s side of
    ``g`` minus ``s``, after the checks every cutset query makes."""
    g.require_vertex(x)
    plan = _neighbourhood_plan(g)
    sm, tm, xm = plan.mask(s), plan.mask(target), 1 << x
    if xm & sm:
        raise InputError("x must not lie in the cutset")
    if xm & tm:
        raise InputError("x must not lie in the target set")
    if tm & sm:
        raise InputError("target and cutset must be disjoint")
    return plan, sm, tm, plan.flood(xm, plan.full ^ sm)


def is_cutset(g: Graph, s: frozenset, x: int, target: frozenset) -> bool:
    """Whether every path from ``x`` to a vertex of ``target`` meets ``s``."""
    _, _, tm, side = _separation(g, s, x, target)
    return not side & tm


def is_minimal_cutset(g: Graph, s: frozenset, x: int, target: frozenset) -> bool:
    """Whether ``s`` separates ``x`` from ``target`` but no proper subset does."""
    plan, sm, tm, side = _separation(g, s, x, target)
    return _minimal_side(plan, sm, tm, side) is not None


def _minimal_side(plan: _NeighbourhoodPlan, sm: int, tm: int, side: int) -> Optional[int]:
    """``side``, x's side of the graph minus the mask ``sm``, when ``sm``
    is a minimal cutset between x and the mask ``tm``, else None.

    It suffices that dropping any single member reopens a path, since
    dropping more members only opens more.  Dropping ``v`` reopens one
    exactly when ``v`` has a neighbour in ``side`` and one on the
    targets' side, so one more flood decides it."""
    if side & tm:
        return None
    targets_side = plan.flood(tm, plan.full ^ sm)
    if sm & ~(plan.expand(side) & plan.expand(targets_side)):
        return None
    return side


def shortest_path(g: Graph, x: int, y: int,
                  forbidden: frozenset = frozenset()):
    """Shortest ``x``-``y`` path avoiding ``forbidden``, as a vertex list, or
    None when no such path exists.  Deterministic: of all shortest paths it
    returns the lexicographically smallest vertex list, the one a BFS from
    ``x`` scanning neighbours in id order finds.  The distance levels of
    ``y`` are flooded until one holds ``x``.  The walk from ``x`` then
    steps to the smallest neighbour one level closer to ``y``: every such
    step still ends in a shortest path, so the greedy choice is the
    smallest at each position."""
    g.require_vertex(x)
    g.require_vertex(y)
    plan = _neighbourhood_plan(g)
    return _shortest_path(g, plan, x, y, plan.full ^ plan.mask(forbidden))


def _shortest_path(g: Graph, plan: _NeighbourhoodPlan, x: int, y: int, rest: int):
    """``shortest_path`` inside the mask ``rest`` of allowed vertices."""
    xm, frontier = 1 << x, 1 << y
    if not (rest & xm and rest & frontier):
        return None
    levels = []                     # levels[k]: vertices at distance k from y
    while not frontier & xm:
        rest ^= frontier
        levels.append(frontier)
        frontier = plan.expand(frontier) & rest
        if not frontier:
            return None
    path = [x]
    for level in reversed(levels):
        for v in g.adjacency[path[-1]]:     # ascending ids: the first one wins
            if level >> v & 1:
                path.append(v)
                break
    return path


def _vertex_json(g: Graph, v: int):
    """Serialize a vertex: its coordinate list if ``g`` is labeled, else its id."""
    return list(g.labels[v]) if g.labels is not None else v


def vertexset_to_json(g: Graph, s: frozenset) -> list:
    """Serialize a vertex set: sorted coordinate tuples for labeled graphs,
    sorted ids otherwise."""
    return _mask_json(g, _neighbourhood_plan(g).mask(s))     # mask range-checks the ids


def _mask_json(g: Graph, m: int) -> list:
    """``vertexset_to_json`` of the vertices of ``m``, a mask of ``g``'s ids."""
    ids = _bit_ids(m)                               # ascending
    if g.labels is None:
        return ids
    labels = g.labels
    return [list(lab) for lab in sorted([labels[v] for v in ids])]


def vertexset_from_json(g: Graph, data: list) -> frozenset:
    """Parse a vertex set given as a list of ids or, for labeled graphs,
    coordinate tuples."""
    if not isinstance(data, list):
        raise InputError(f"a vertex set is a list of ids or coordinate tuples, got {data!r}")
    ids = set()
    for item in data:
        if _is_id(item):
            g.require_vertex(item)
            ids.add(item)
        elif isinstance(item, (list, tuple)):
            ids.add(g.id_of_label(item))
        else:
            raise InputError(f"vertex set entries must be ids or coordinate tuples, got {item!r}")
    return frozenset(ids)
