"""Verification harness: subset enumeration/sampling, premise checkers, and
seeded campaigns for the two boundary-connectivity statements and the
cutset-crossing principle.

Campaign kinds (the short names are the CLI tokens):

* ``dp`` — for a subset connected in the plain box and an observer outside
  it, the visible boundary (adjacency = plain) is connected inside a probe
  graph, by default the face-diagonal augmentation ``plus``.
* ``k`` — for a subset connected in the king-move box, the star-visible
  boundary (adjacency = star) is connected inside the plain box itself.
* ``lemma`` — sampled minimal cutsets split in two must be crossed by a
  generator with an odd edge count into the observer's side; the
  constructive witness is re-verified from definitions.

Observers default to the apex vertex (the far-away surrogate, whose
visible boundary is the exterior boundary of Kesten and of
Deuschel–Pisztora), id ``width``, the box's vertex count; nothing
attaches it.  Whenever the apex observes (every policy but ``fixed``), subsets keep an L∞ margin of at
least 2 from the box surface, and a given subset must lie inside the
margin interior under every policy.  Why the surface then stands for the
outside, in verdicts and in failure records, is argued once, in
``boundary._report_masks``; a ``fixed`` campaign below margin 2 reports
on the box itself.  A margin that leaves no room for subsets is refused,
in exhaustive as in random mode, rather than passing with no trials, and
before the box set-up, whose cost grows as 3^d even at side 1; so is a
campaign in which every subset holds the fixed observer.

A dp/k campaign gives each subset an observer mask: the apex, the fixed
vertex unless the subset holds it, or, under ``all-outside``, every
vertex outside an enumerated or given subset.  A random ``all-outside``
trial draws one of those by rank k, the k-th id outside the subset (the
apex, the largest id, last), found by walking the subset's bits.  Each
observer counts as one trial, in the order apex first, then by id, and
only a failing observer gets a full ``BoundaryReport``, for its failure
record.  One judge, ``boundary._failing_batch``, takes every instance but
a subset holding the fixed observer, which has no observer, no trial and
no copy.

The campaign takes ``_TILE_BITS // box vertices`` instances per batch and
judges each batch in rounds on tiled plans of the box;
``boundary._failing_batch`` says what each round floods from and why a
copy's verdict settles every observer its flood reached.  Only the copies
whose flood left vertices unreached, the holed ones, are sliced, so an
instance whose observers are all outside takes one round, an observer in
a hole two, and an ``all-outside`` subset one round for the outside and
one per hole.  A surface round may settle none of an instance's
observers, when each lies in a hole and the apex does not observe; any
other round that settles none is an error, not a loop.

An exhaustive ``apex`` campaign first judges each translation class
once: ``_apex_shapes`` lists the shapes, carrying each shape's campaign
mask and axis occupancy on the Redelmeier stack, one OR per added cell.
It decodes each distinct occupancy into the shape's lowest placement and
placement count once per pass (90 occupancies for the 3,790 shapes of
z2:9, size ≤ 8), so listing a shape costs one AND and one dict lookup
beyond its growth step.
The pass hands the campaign whole batches, each with its total of
placements; the batch judge takes one shape per copy (z2:9, size ≤ 8:
3,790 shapes in 10 batches for 61,167 trials), and the campaign counts
their translates.  Only once a shape fails does it walk every subset,
judging each again in batches, for the failure records.

Campaign subsets are int masks from enumeration (``_connected_masks``) or
sampling (``_grow``) to verdict; frozensets appear only in the public views
of those two and in failure records.  A crossing trial's subset, cutset
and halves are masks too, from the draw through
``cyclespace._crossing_witness`` to the postconditions, which flood x's
side afresh.

Campaigns run their trials in one sequential loop, in batches whose
records come out in trial order; every trial is a pure function of
immutable graphs plus the seed string ``"{seed}:{index}"``, which seeds
the one ``Random`` that all of the trial's draws come from, so a trial
replays from its seed string alone and the same config and seed give
byte-identical reports.  The graphs, generators and
premise verdict of a box are built once per process and shared by every
campaign on that box.  A graph's plan is built where a campaign first
reads it.  No campaign, passing or failing, builds an apexed graph: the
box gives the apex's id, the interior and the surface mask.  The set-up
builds the box pair and judges its premises with one bit-parallel judge
on the box's strides, ``lattice._box_premises``; it builds no edge
vector and no generating set.  ``check_dp_hypotheses`` and
``check_k_hypotheses`` stay public for any generating set or patch map;
no campaign calls them.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache
from itertools import filterfalse, islice
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .boundary import _failing_batch, _packed, _report_fields, _report_json, _report_masks
from .cyclespace import (CycleGen, EdgeVector, _crossing_witness, _is_clique,
                         fundamental_basis, is_generating)
from .errors import InputError
from .graphs import (Graph, GraphPair, _bit_ids, _is_id, _mask_json, _members,
                     _neighbourhood_plan, _Record, _vertex_json)
from .lattice import (FLAVORS, BoxSpec, _box_premises, box_shell, build_box,
                      four_cycle_gen, margin_interior)

THEOREMS = ("dp", "k", "lemma")
MODES = ("exhaustive", "random")
X_POLICIES = ("apex", "all-outside", "fixed")

# Exhaustive enumeration is refused beyond this, to keep desk-scale runs
# desk-scale: either few candidate vertices or small subsets.
EXHAUSTIVE_VERTEX_BUDGET = 25
EXHAUSTIVE_SIZE_BUDGET = 9

# A campaign judges its instances, and an exhaustive apex campaign its
# shapes, in batches of this many box bits, one per box-sized copy
# (``boundary._failing_batch``).
_TILE_BITS = 1 << 15


def enumerate_connected_subsets(g: Graph, max_size: int,
                                allowed: Optional[frozenset] = None) -> Iterator[frozenset]:
    """Yield every connected subset of 1..max_size vertices exactly once,
    in the order of ``_connected_masks``: grouped by smallest member
    (ascending), each subset before its extensions.  ``allowed`` restricts
    both members and connectivity to a vertex subset."""
    if not _is_id(max_size):
        raise InputError(f"max_size must be an int, got {max_size!r}")
    plan = _neighbourhood_plan(g)
    allowed_mask = plan.full if allowed is None else plan.mask(allowed)
    _require_budget(allowed_mask.bit_count(), max_size)
    if max_size < 1:
        raise InputError("max_size must be ≥ 1")
    for m in _connected_masks(g, max_size, allowed_mask):
        yield _members(m)


def _require_budget(vertices: int, max_size: int) -> None:
    """Refuse an exhaustive enumeration of subsets of up to ``max_size``
    out of ``vertices`` candidates beyond the budget."""
    if max_size > EXHAUSTIVE_SIZE_BUDGET and vertices > EXHAUSTIVE_VERTEX_BUDGET:
        raise InputError(
            f"enumeration budget exceeded: {vertices} vertices with "
            f"max_size {max_size}; need ≤ {EXHAUSTIVE_VERTEX_BUDGET} vertices or "
            f"max_size ≤ {EXHAUSTIVE_SIZE_BUDGET}")


def _connected_masks(g: Graph, max_size: int, allowed: int, tags=None) -> Iterator[int]:
    """The OR of ``tags`` (a list, one int per vertex; by default v's tag
    is ``1 << v``, so the OR is the subset's mask) over each subset of
    ``allowed`` with 1..max_size vertices, connected inside it, each subset
    once: Redelmeier's growth (*Counting polyominoes: yet another attack*,
    Discrete Math. 36, 1981).  Each root in ascending order grows, depth
    first, the subsets it is the smallest member of.  The child adding the
    i-th entry u of a subset's extension list carries its parent's value OR
    u's tag, and gets the entries after u, then u's larger allowed
    neighbours not yet ``seen`` under this root, in adjacency order.  The
    children of a subset of ``max_size - 1`` vertices are leaves, so they
    are yielded inline, in extension-list order, which is the order the
    stack would pop them in; they get no stack frame."""
    nbrs = _neighbourhood_plan(g).rows
    tags = tags or [1 << v for v in range(g.vertex_count)]
    rest = allowed
    while rest:
        low = rest & -rest
        rest ^= low                       # the allowed ids above the root
        root = low.bit_length() - 1
        stack = [(tags[root], 1, [w for w in g.adjacency[root] if rest >> w & 1],
                  low | nbrs[root] & rest)]
        while stack:
            acc, size, ext, seen = stack.pop()
            yield acc
            if size + 1 >= max_size:
                if size < max_size:
                    for u in ext:
                        yield acc | tags[u]
                continue
            free = rest & ~seen
            deep = size + 2 < max_size        # else the children only yield leaves
            for i in range(len(ext) - 1, -1, -1):    # pushed last, popped first
                u = ext[i]
                fresh = nbrs[u] & free
                stack.append((acc | tags[u], size + 1,
                              ext[i + 1:] + [w for w in g.adjacency[u] if fresh >> w & 1],
                              deep and seen | fresh))


def sample_connected_subset(g: Graph, size: int, seed,
                            allowed: Optional[frozenset] = None) -> frozenset:
    """Seeded randomized growth of a connected subset of exactly ``size``
    vertices (within ``allowed`` when given).  Deterministic per seed."""
    return _members(_grow(*_sampling_pool(g, allowed), size, random.Random(seed)))


def _sampling_pool(g: Graph, allowed=None) -> tuple:
    """The sorted, range-checked pool of ``allowed`` (every vertex when
    None) and each pool vertex's neighbours inside it, in adjacency order:
    what every ``_grow`` from the pool reads.  A campaign builds it once."""
    if allowed is None:
        return range(g.vertex_count), g.adjacency
    pool = tuple(sorted(allowed))
    for v in pool:
        g.require_vertex(v)
    inside = frozenset(pool)
    return pool, {v: tuple(w for w in g.adjacency[v] if w in inside) for v in pool}


def _grow(pool, nbrs, size: int, rng: random.Random) -> int:
    """The mask of a connected subset of exactly ``size`` vertices of
    ``pool``, grown from a random start drawn from the seeded ``rng`` by
    popping random frontier entries; up to 64 starts.  Deterministic per
    seed.  Every draw takes what ``rng.randrange`` would: a start by
    ``_below``, a frontier index by ``_below``'s rule in the loop's own
    frame.  So the frontier keeps the order and the stale duplicates that
    ``pop`` indexes into: the chosen vertices live in a set, each new
    vertex's unchosen neighbours join in adjacency order, and the mask is
    built once, at the end."""
    if not _is_id(size):
        raise InputError(f"size must be an int, got {size!r}")
    if not 1 <= size <= len(pool):
        raise InputError(f"cannot grow {size} vertices out of {len(pool)} candidates")
    bits = rng.getrandbits
    for _attempt in range(64):
        start = pool[_below(bits, len(pool))]
        seen = {start}
        frontier = list(nbrs[start])
        while frontier and len(seen) < size:
            n = len(frontier)
            k = n.bit_length()
            r = bits(k)
            while r >= n:
                r = bits(k)
            w = frontier.pop(r)
            if w in seen:
                continue
            seen.add(w)
            frontier.extend(filterfalse(seen.__contains__, nbrs[w]))
        if len(seen) == size:
            return sum(map((1).__lshift__, seen))
    raise InputError("the allowed region cannot grow a connected subset of the requested size")


def _below(bits, n: int) -> int:
    """A draw in ``0..n-1`` from ``bits``, a ``Random.getrandbits``, by the
    rule of CPython's ``Random._randbelow_with_getrandbits``: draw
    ``n.bit_length()`` bits until the value is below ``n``.  On Python
    3.10–3.13 ``randrange(n)`` is that rule, ``randint(a, b)`` is ``a``
    plus it below ``b − a + 1`` and ``shuffle`` swaps by it, so ``_below``
    draws the same values from the same stream without their frames.  An
    empty range raises ``ValueError``, as ``randrange(0)`` does, instead
    of rejecting ``getrandbits(0) == 0`` forever.  The hottest loops copy
    the rule into their own frame, where the range is never empty:
    ``_shuffle``, the spanning-tree and chord loops of ``_random_graph``
    and ``_grow``'s frontier loop."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        if n < 1:
            raise ValueError(f"empty range below {n!r}")
        r = bits(k)
    return r


def _shuffle(bits, x: list) -> None:
    """``Random.shuffle`` of ``x`` in place by ``_below``'s rule: the same
    swaps from the same stream."""
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = bits(k)
        while j > i:
            j = bits(k)
        x[i], x[j] = x[j], x[i]


def random_connected_graph(vertex_count: int, extra_edges: int, seed) -> Graph:
    """Seeded random spanning tree plus up to ``extra_edges`` random chords."""
    return _random_graph(vertex_count, extra_edges, random.Random(seed))


def _random_graph(vertex_count: int, extra_edges: int, rng: random.Random) -> Graph:
    """``random_connected_graph`` drawn from ``rng``, which a crossing
    trial shares with its other draws."""
    for name, count in (("vertex_count", vertex_count), ("extra_edges", extra_edges)):
        if not _is_id(count):
            raise InputError(f"{name} must be an int, got {count!r}")
    if vertex_count < 1:
        raise InputError("need at least one vertex")
    if extra_edges < 0:
        raise InputError(f"extra_edges must be ≥ 0, got {extra_edges}")
    # every draw below is ``_below``'s rule, in this frame
    bits = rng.getrandbits
    order = list(range(vertex_count))
    _shuffle(bits, order)
    edges = set()
    for i in range(1, vertex_count):
        k = i.bit_length()
        j = bits(k)
        while j >= i:
            j = bits(k)
        u, v = order[i], order[j]
        edges.add((u, v) if u < v else (v, u))
    k = vertex_count.bit_length()
    added = attempts = 0
    while added < extra_edges and attempts < 20 * extra_edges + 100:
        attempts += 1
        u = bits(k)
        while u >= vertex_count:
            u = bits(k)
        v = bits(k)
        while v >= vertex_count:
            v = bits(k)
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e not in edges:
            edges.add(e)
            added += 1
    return Graph.__new__(Graph)._build(vertex_count, edges)


# --- premise checkers ------------------------------------------------------

def check_dp_hypotheses(pair: GraphPair, gen: CycleGen) -> bool:
    """Premises of the visible-boundary connectivity statement: ``gen``
    spans the base graph's cycle space and every generator is chordal in
    the augmentation."""
    if not gen.host.same_as(pair.g):
        raise InputError("generators must live in the pair's base graph")
    # CycleGen admits cycles only, so chordality is the clique test alone.
    return (is_generating(gen, pair.g)
            and all(_is_clique(touched, pair.g_plus) for touched in gen._vertices))


def check_k_hypotheses(pair: GraphPair, gen: CycleGen,
                       patch_map: Dict[Tuple[int, int], EdgeVector]) -> bool:
    """Premises of the star-boundary connectivity statement: the base
    premises plus, for every augmentation-only edge e, a patch cycle
    through e whose other edges lie in the base graph, chordal in the
    augmentation.  ``patch_map`` must be keyed by exactly those edges."""
    g_plus = pair.g_plus
    extra = {e: eid for eid, e in enumerate(g_plus.edges) if e not in pair.g._edge_ids}
    extra_mask = sum(1 << eid for eid in extra.values())
    patches = {tuple(sorted(k)): vec for k, vec in patch_map.items()}
    missing = [e for e in extra if e not in patches]
    if missing:
        raise InputError(
            f"{len(missing)} augmentation edges lack patch cycles, e.g. {missing[:3]}")
    foreign = sorted(set(patches) - set(extra))
    if foreign:
        raise InputError(
            f"patch map keys must be augmentation-only edges; offenders e.g. {foreign[:3]}")
    if not check_dp_hypotheses(pair, gen):
        return False
    for e, eid in extra.items():
        vec = patches[e]
        if not vec.host.same_as(g_plus):
            raise InputError("patch cycles must live in the augmentation graph")
        touched = vec._cycle_vertices()
        # a cycle, with e its one edge outside the base graph, chordal in g_plus
        if not touched or vec.bits & extra_mask != 1 << eid or not _is_clique(touched, g_plus):
            return False
    return True


# --- the two boundary statements -------------------------------------------

class _Theorem(NamedTuple):
    """How a boundary statement uses a plain box ``g`` and its augmentation
    ``g_plus``; graph roles name an attribute of the pair.  Each statement
    takes its subsets connected in its adjacency graph, ``roles[1]``: the
    plain box for dp, the king box for k."""

    augmentation: str                 # default flavor of g_plus
    override: str                     # TrialConfig field replacing it
    flag: str                         # the CLI flag setting that field
    roles: Tuple[str, str, str]       # traversal, adjacency, probe
    patched: bool                     # patch cycles are part of the premises


_BOUNDARY_THEOREMS = {
    "dp": _Theorem("plus", "probe", "--probe", ("g", "g", "g_plus"), patched=False),
    "k": _Theorem("star", "g_prime", "--gplus", ("g", "g_plus", "g"), patched=True),
}


def _require_box_spec(box) -> None:
    if not isinstance(box, BoxSpec):
        raise InputError(f"box must be a BoxSpec, got {box!r}")


def _augmentation(theorem: str, box: BoxSpec, probe: Optional[str],
                  g_prime: Optional[str]) -> Optional[str]:
    """The augmentation flavor of a ``theorem`` campaign: its override
    when given, else its default (None for lemma).  Refuses an override
    that belongs to another theorem, and a box that is not plain: every
    campaign runs on the plain box, and only the override picks the
    augmentation."""
    _require_box_spec(box)
    overrides = {"probe": probe, "g_prime": g_prime}
    for name, row in _BOUNDARY_THEOREMS.items():
        value = overrides[row.override]
        if value is not None and value not in FLAVORS:
            raise InputError(f"{row.override} (CLI: {row.flag}) must be one of "
                             f"{FLAVORS}, got {value!r}")
        if value is not None and theorem != name:
            raise InputError(f"{row.override} (CLI: {row.flag}) overrides "
                             f"apply to {name} campaigns only")
    row = _BOUNDARY_THEOREMS.get(theorem)
    if box.flavor != "plain":
        hint = (f"; set the augmentation with {row.override} (CLI: {row.flag})"
                if row else "")
        raise InputError(f"{theorem} campaigns run on the plain box, not on {box}{hint}")
    return row and (overrides[row.override] or row.augmentation)


class _BoxSetting(NamedTuple):
    """Everything a dp/k campaign needs that depends only on the box."""

    box: Graph                          # the plain box
    apex: int                           # the apex's id: the box's vertex count
    surface: int                        # mask of the apex's neighbours in the box
    roles: Tuple[Graph, Graph, Graph]   # traversal, adjacency, probe; no apex
    premises_hold: bool
    detail: dict                        # premise-report fields


@lru_cache(maxsize=None)
def _box_setting(theorem: str, box: BoxSpec, augmentation: str) -> _BoxSetting:
    row = _BOUNDARY_THEOREMS[theorem]
    pair, premises_hold, detail = _box_premises(box, augmentation, row.patched)
    return _BoxSetting(pair.g, pair.g.vertex_count, sum(1 << v for v in box_shell(pair.g)),
                       tuple(getattr(pair, name) for name in row.roles), premises_hold, detail)


# --- campaign configuration ------------------------------------------------

class TrialConfig(_Record):
    """One verification campaign, fully determined by its fields.

    ``box`` must be a plain box spec; the augmentation of a dp or k
    campaign is picked by its override, not by the box's flavor.
    ``x_policy`` picks observers: the apex surrogate, every vertex outside
    the subset plus the apex (``all-outside``), or one ``fixed`` box
    vertex, the id ``x_vertex`` in ``0 ≤ x_vertex < box.side ** box.d``.
    ``x_vertex`` is required under ``fixed`` and refused under any other
    policy; the apex is observed under ``apex``, never as a fixed id.
    Every policy but ``fixed`` lets the apex observe and needs
    ``margin ≥ 2``.  ``probe`` overrides the connectivity probe of ``dp``
    campaigns (default ``plus``); ``g_prime`` overrides the adjacency
    graph of ``k`` campaigns (default ``star``) — both exist mainly for
    negative controls.  ``lemma`` campaigns sample their own observers,
    so they refuse any ``x_policy`` but ``apex`` and any ``margin`` but 2,
    and alternate between the configured box, which needs d ≥ 2 and
    side ≥ 2, and seeded random connected graphs.  ``max_size``,
    ``trials``, ``seed``, ``margin`` and ``x_vertex`` must be ints; bools
    and floats are refused.
    """

    __slots__ = _fields = ("theorem", "box", "mode", "max_size", "trials", "seed",
                           "margin", "x_policy", "x_vertex", "probe", "g_prime")

    def __init__(self, theorem: str, box: BoxSpec, mode: str = "exhaustive",
                 max_size: int = 6, trials: int = 1000, seed: int = 0, margin: int = 2,
                 x_policy: str = "apex", x_vertex: Optional[int] = None,
                 probe: Optional[str] = None, g_prime: Optional[str] = None):
        self._set(theorem, box, mode, max_size, trials, seed, margin, x_policy,
                  x_vertex, probe, g_prime)
        if self.theorem not in THEOREMS:
            raise InputError(f"theorem must be one of {THEOREMS}, got {self.theorem!r}")
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.x_policy not in X_POLICIES:
            raise InputError(f"x_policy must be one of {X_POLICIES}, got {self.x_policy!r}")
        for name in ("max_size", "trials", "seed", "margin", "x_vertex"):
            value = getattr(self, name)
            if not _is_id(value) and not (name == "x_vertex" and value is None):
                raise InputError(f"{name} must be an int, got {value!r}")
        if self.max_size < 1:
            raise InputError("max_size must be ≥ 1")
        if self.margin < 0:
            raise InputError("margin must be ≥ 0")
        if self.mode == "random" and self.trials < 1:
            raise InputError("random mode needs trials ≥ 1")
        _require_box_spec(self.box)
        box_vertices = self.box.side ** self.box.d
        if self.mode == "exhaustive":
            _require_budget(box_vertices, self.max_size)
        if ((self.x_policy == "fixed") != (self.x_vertex is not None)
                or self.x_vertex is not None and not 0 <= self.x_vertex < box_vertices):
            raise InputError(
                f"x_vertex must be a box vertex id in 0..{box_vertices - 1} under "
                f"x_policy 'fixed' and unset otherwise, got {self.x_vertex!r} under "
                f"{self.x_policy!r}; the apex observes under x_policy 'apex' (CLI: --x apex)")
        if self.theorem == "lemma" and (self.x_policy, self.margin) != ("apex", 2):
            raise InputError("the crossing-lemma campaign picks its own observers: "
                             "keep x_policy 'apex' and margin 2 (CLI: leave out --x "
                             "and --margin)")
        if self.x_policy != "fixed" and self.margin < 2:
            raise InputError("apex observers need margin ≥ 2 to stay faithful")
        if self.theorem == "lemma" and self.mode != "random":
            raise InputError("the crossing-lemma campaign samples instances; "
                             "use mode=random (CLI: --trials)")
        if self.theorem != "lemma" and self.box.d < 2:
            raise InputError("boundary campaigns need d ≥ 2 (cycle space is trivial otherwise)")
        if self.theorem == "lemma" and (self.box.d < 2 or self.box.side < 2):
            raise InputError("the crossing-lemma campaign needs a box with d ≥ 2 and "
                             f"side ≥ 2, got {self.box}: every minimal cutset of a tree "
                             "is one vertex, so no trial could split one on the box")
        _augmentation(self.theorem, self.box, self.probe, self.g_prime)

    def echo(self) -> dict:
        """The fields as a JSON-ready dict in field order, the box as its
        spec string."""
        return dict(zip(self._fields, self._values()), box=str(self.box))


class VerifyReport:
    """Outcome of one campaign; failures carry full replay data."""

    def __init__(self, config: dict, trials_run: int, failures: List[dict],
                 trial_seeds: List[str], elapsed: float):
        self.config = config
        self.trials_run = trials_run
        self.failures = failures
        self.trial_seeds = trial_seeds
        self.elapsed = elapsed

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self, include_elapsed: bool = True) -> dict:
        out = {
            "schema": 1,
            "config": self.config,
            "trials_run": self.trials_run,
            "failures": self.failures,
            "trial_seeds": self.trial_seeds,
            "passed": self.passed,
        }
        if include_elapsed:
            out["elapsed"] = round(self.elapsed, 6)
        return out


def _trial_seed(seed: int, index: int) -> str:
    return f"{seed}:{index}"


# --- boundary campaigns (dp / k) -------------------------------------------

def _observers(cfg: TrialConfig, apex: int, cm: int, bits=None) -> int:
    """The mask of the observers of the subset with mask ``cm`` among the
    box vertices and the apex, whose id ``apex`` is the largest.  Under
    ``all-outside`` every vertex outside the subset observes, unless a
    random trial passes its stream's ``getrandbits``, which draws one of
    them by rank."""
    if cfg.x_policy == "apex":
        return 1 << apex
    if cfg.x_policy == "fixed":
        return 1 << cfg.x_vertex & ~cm
    if bits is None:
        return (2 << apex) - 1 ^ cm
    return 1 << _kth_outside(cm, _below(bits, apex + 1 - cm.bit_count()))


def _kth_outside(cm: int, k: int) -> int:
    """The ``k``-th smallest id (from 0) outside the mask ``cm``, found by
    walking its bits upward instead of listing the ids outside it.  For a
    subset mask that is the k-th all-outside observer, the apex, the
    largest id, last."""
    while cm and (cm & -cm).bit_length() <= k + 1:      # lowest member ≤ k
        k += 1
        cm &= cm - 1
    return k


def _boundary_instances(cfg: TrialConfig, setting: _BoxSetting,
                        fixed_c: Optional[frozenset]) -> Iterator[tuple]:
    """Yield ``(seed string or None, subset mask, observer mask)`` for every
    subset of a dp/k campaign, in trial order.  The campaign's checks run
    once, before the first subset."""
    interior = margin_interior(setting.box, cfg.margin)
    allowed = _neighbourhood_plan(setting.box).mask(interior)
    host = setting.roles[1]
    if fixed_c is not None:
        plan = _neighbourhood_plan(host)
        cm = plan.mask(fixed_c)
        if not cm:
            raise InputError("the supplied subset is empty; a campaign needs a nonempty subset")
        if plan.flood(cm & -cm, cm) != cm:
            raise InputError(
                "precondition: the supplied subset is not connected in the graph "
                "the theorem requires (dp: plain box, k: the adjacency graph)")
        if cm & ~allowed:
            raise InputError(f"precondition: the supplied subset must lie inside margin "
                             f"{cfg.margin} (CLI: --margin)")
        masks = [cm]
    elif cfg.mode == "exhaustive":
        # TrialConfig has refused a size cap beyond the enumeration budget
        masks = _connected_masks(host, cfg.max_size, allowed)
    else:
        yield from _sampled_instances(cfg, _sampling_pool(host, interior), setting.apex)
        return
    for cm in masks:
        yield None, cm, _observers(cfg, setting.apex, cm)


def _sampled_instances(cfg: TrialConfig, pool: tuple, apex: int) -> Iterator[tuple]:
    """The instances of a random dp/k campaign, one observer per trial,
    grown from the campaign's one sampling ``pool``.  Trial i draws from
    one stream, seeded once with its seed string ``"{seed}:{i}"``: the
    subset size, then the growth (a retry grows on from where the last
    one stopped), then the rank of an ``all-outside`` observer."""
    size_cap = min(cfg.max_size, len(pool[0]))
    for i in range(cfg.trials):
        seed_str = _trial_seed(cfg.seed, i)
        rng = random.Random(seed_str)
        bits = rng.getrandbits
        size = 1 + _below(bits, size_cap)
        for _attempt in range(64):
            cm = _grow(*pool, size, rng)
            observers = _observers(cfg, apex, cm, bits)
            if observers:
                break
        else:
            raise InputError("could not sample a subset compatible with the observer policy")
        yield seed_str, cm, observers


def _apex_shapes(cfg: TrialConfig, augmentation: str,
                 copies: int) -> Iterator[Tuple[List[int], int]]:
    """The shapes of an exhaustive apex campaign in batches of ``copies``
    (the last one may be short): ``(masks, placements)``, each shape's mask
    at its lowest placement and the batch's total of placements.  They are
    grown from one root at ``(s, …, s, 1)`` of a box of side ``2s − 1``,
    ``s = min(w, max_size)``, over the ids above it whose last coordinate is ≤ s.
    ``_connected_masks`` ORs each shape's packed value from one tag per vertex:
    bit ``i·side + c_i − 1`` per coordinate (the shape's occupancy of each axis),
    then a flag bit set on the root only, which ends the pass with the root's
    shapes, then the vertex's campaign-box bit, each coordinate up by margin − 1.
    The shift to the lowest placement and the placement count read only the
    occupancy fields, so the pass decodes them once per distinct value of
    those fields and the flag, in ``fits``, and a shape whose key is there
    costs one AND and one lookup; a key without the flag is never stored, so
    it ends the pass at its first sight.

    A shape is a translation class of the campaign's subsets, keyed by the
    mask shifted down to its lowest id.  Translation keeps id order, so the
    pass grows each key once, from its lowest cell; with axis spans
    ``span_i`` it fits the interior cube of side ``w`` at ``∏(w − span_i)``
    places, its subsets.  Why one apex verdict serves every placement:

    * Every apex-observing instance keeps margin ≥ 2 (``TrialConfig`` and
      ``_boundary_instances`` enforce it): each subset vertex keeps L∞
      distance ≥ 2 from the outside of the box, so the subset misses the
      surface the apex is glued to and its whole boundary lies in the box.
    * The box-plus-apex verdict is then the ℤ^d verdict: the apex stands
      for the unbounded outside, and in ℤ^d the exterior boundary and its
      connectivity are invariant under translation.
    * Two connected interior subsets with equal keys are lattice
      translates: their ids differ by one offset.  Across a host edge
      (plain or king) the id difference is Σ e_i·n^i with every
      coordinate move |e_i| ≤ 1, and the shifted pair, interior too, reads
      it as Σ e'_i·n^i with |e'_i| < n − 2.  Digits that differ by less
      than n give one number only when they agree, so the offset cannot
      wrap a row: every edge keeps its coordinate move, and along the
      connected subset every member shifts by the same vector.
    """
    d, n, margin = cfg.box.d, cfg.box.side, cfg.margin
    w = n + 2 - 2 * margin          # ≥ 1: the campaign has refused a margin without room
    s = min(w, cfg.max_size)
    side = 2 * s - 1
    plain = _BOUNDARY_THEOREMS[cfg.theorem].roles[1] == "g"     # else connected in g_plus
    host = build_box(BoxSpec(d, side, "plain" if plain else augmentation))
    root = (s - 1) * sum(side ** i for i in range(d - 1))
    strides, axis_bits, flag = [n ** i for i in range(d)], (1 << side) - 1, d * side
    tags = [sum(1 << i * side + c - 1 for i, c in enumerate(lab)) | (v == root) << flag
            | 2 << flag + sum((c + margin - 2) * k for c, k in zip(lab, strides))
            for v, lab in enumerate(host.labels)]
    occupancy, fits = (2 << flag) - 1, {}     # the axis fields and the root flag
    masks, total = [], 0
    for packed in _connected_masks(host, cfg.max_size, (1 << s * side ** (d - 1)) - (1 << root),
                                   tags):
        key = packed & occupancy
        fit = fits.get(key)
        if fit is None:
            if not key >> flag & 1:
                break
            axes, shift, placements = key, flag + 1, 1
            for k in strides:
                axis, axes = axes & axis_bits, axes >> side
                low = (axis & -axis).bit_length() - 1
                placements *= max(w - axis.bit_length() + 1 + low, 0)     # w − span
                shift += low * k
            fit = fits[key] = shift, placements
        if fit[1]:
            masks.append(packed >> fit[0])
            total += fit[1]
            if len(masks) == copies:
                yield masks, total
                masks, total = [], 0
    if masks:
        yield masks, total


def _failure_record(setting: _BoxSetting, surface: int, trial: int,
                    seed_str: Optional[str], cm: int, x: int) -> dict:
    plans = [_neighbourhood_plan(g) for g in setting.roles]
    return {
        "trial": trial,
        "seed": seed_str,
        "kind": "disconnected-visible-boundary",
        "c": _mask_json(setting.box, cm),
        "x": "apex" if x == setting.apex else _vertex_json(setting.box, x),
        "report": _report_json(setting.box, *_report_fields(*plans, cm, x, surface)),
    }


def _run_boundary_campaign(cfg: TrialConfig, skip_hypotheses: bool,
                           fixed_c: Optional[frozenset]):
    augmentation = _augmentation(cfg.theorem, cfg.box, cfg.probe, cfg.g_prime)
    if fixed_c is None and 2 * cfg.margin >= cfg.box.side + 2:     # an empty interior
        raise InputError(f"margin {cfg.margin} leaves no room for subsets in {cfg.box}")
    setting = _box_setting(cfg.theorem, cfg.box, augmentation)
    if not setting.premises_hold and not skip_hypotheses:
        raise InputError(
            "theorem premises fail for this configuration; "
            "pass skip_hypotheses (CLI: --skip-hypotheses) to run it as a negative control")
    apex = width = setting.apex                 # the apex's id, the box's vertex count
    copies = max(1, _TILE_BITS // width)
    tiles = [_neighbourhood_plan(g).tiled(copies) for g in setting.roles]
    # at margin ≥ 2 the surface stands for the outside, in verdicts and in
    # records, even a box observer's, whose paths may go round through the
    # outside; below that (fixed observers only) a subset may touch the
    # surface, so the campaign judges and records on the bounded box, as
    # ``boundary --x <vertex>`` does at every margin
    surface = setting.surface if cfg.margin >= 2 else 0
    # the surface in every copy; a short batch keeps its first copies
    surfaces = surface * tiles[0].ones
    placements = None
    if cfg.mode == "exhaustive" and cfg.x_policy == "apex" and fixed_c is None:
        placements, failed = 0, False
        for masks, count in _apex_shapes(cfg, augmentation, copies):
            placements += count
            failed = failed or bool(_failing_batch(*tiles, width, masks,
                                                   surfaces & (1 << len(masks) * width) - 1)[1])
        if not failed:
            return placements, []
        # a shape fails: the loop below lists every subset for its records
    trials_run = 0
    failures: List[dict] = []
    box = (1 << width) - 1
    instances = _boundary_instances(cfg, setting, fixed_c)
    while batch := list(islice(instances, copies)):
        # each round gives every instance with undecided observers one copy:
        # at margin ≥ 2 the first floods the outside from the surface, and
        # every other round from the instance's lowest undecided observer
        undecided = [observers for _, _, observers in batch]
        failing = [0] * len(batch)
        from_surface = bool(surface)
        while live := [i for i, rest in enumerate(undecided) if rest]:
            sources = (surfaces & (1 << len(live) * width) - 1 if from_surface
                       else _packed([undecided[i] & -undecided[i] for i in live], width))
            unreached, missed = _failing_batch(*tiles, width, [batch[i][1] for i in live],
                                               sources)
            # a copy whose flood filled the box minus its subset settles every
            # observer; only the copies with unreached vertices are sliced
            settled = [undecided[i] for i in live]
            rest = unreached
            while rest:
                k = ((rest & -rest).bit_length() - 1) // width
                rest &= -1 << (k + 1) * width
                reached = box ^ batch[live[k]][1] ^ unreached >> k * width & box
                settled[k] &= reached | bool(reached & surface) << apex
                # only a surface flood may miss every observer (each in a hole),
                # and not when the apex, whose flood it is, observes
                if not settled[k] and (not from_surface or undecided[live[k]] >> apex):
                    raise RuntimeError("a round settled none of an instance's observers")
            for k, i in enumerate(live):
                if missed and missed >> k * width & box:
                    failing[i] |= settled[k]
                undecided[i] ^= settled[k]
            from_surface = False
        for (seed_str, cm, observers), fails in zip(batch, failing):
            if fails:
                # trial order: the apex first, then by id
                order = sorted(_members(observers), key=lambda v: (v != apex, v))
                for i, x in enumerate(order):
                    if fails >> x & 1:
                        failures.append(_failure_record(setting, surface, trials_run + i,
                                                        seed_str, cm, x))
            trials_run += observers.bit_count()
    if not trials_run:
        raise InputError("the campaign has no instance to judge: every subset "
                         "holds the fixed observer")
    if placements not in (None, trials_run):
        raise RuntimeError(f"{placements} placements, but {trials_run} subsets")
    return trials_run, failures


# --- crossing-lemma campaign ------------------------------------------------

def _crossing_postconditions(g: Graph, o: EdgeVector, s1m: int, s2m: int,
                             x: int, sm: int) -> List[str]:
    """Definition-level re-verification of a crossing witness on the masks
    of the halves and the cutset, with x's side from its own flood;
    returns the list of violated postconditions (empty = all good)."""
    plan = _neighbourhood_plan(g)
    side = plan.flood(1 << x, plan.full ^ sm)
    edges, rest = g.edges, o.bits
    ends = crossing = 0
    while rest:
        low = rest & -rest
        u, v = edges[low.bit_length() - 1]
        ends |= 1 << u | 1 << v
        crossing += (s2m >> u & side >> v | s2m >> v & side >> u) & 1
        rest ^= low
    problems = []
    if not ends & s1m:
        problems.append("witness does not touch the first half")
    if not ends & s2m:
        problems.append("witness does not touch the second half")
    if crossing % 2 == 0:
        problems.append(f"crossing count {crossing} is even")
    return problems


def _run_crossing_campaign(cfg: TrialConfig, skip_hypotheses: bool,
                           fixed_c: Optional[frozenset]):
    if fixed_c is not None:
        raise InputError("crossing-lemma campaigns sample their own instances")
    box = build_box(cfg.box)
    box_gen = four_cycle_gen(cfg.box)
    if not skip_hypotheses and not is_generating(box_gen, box):
        raise InputError("the box generating set does not span its cycle space")
    failures = []
    for index in range(cfg.trials):
        failure = _crossing_trial(index, _trial_seed(cfg.seed, index), box, box_gen,
                                  cfg.max_size)
        if failure is not None:
            failures.append(failure)
    return cfg.trials, failures


def _crossing_trial(index: int, seed_str: str, box: Graph, box_gen: CycleGen,
                    max_size: int) -> Optional[dict]:
    """One crossing trial: its failure record, or None when it passes."""
    rng = random.Random(seed_str)
    bits = rng.getrandbits
    # Alternate hosts: even trials exercise the configured box with its
    # unit-face generators, odd trials a random connected graph with a
    # spanning-tree basis.  Every draw of the trial, hosts included, comes
    # from its one stream, so the trial replays from its seed string.
    for round_ in range(8):
        if index % 2 == 0 and round_ == 0:
            g, gen = box, box_gen
        else:
            nv = 8 + _below(bits, 9)
            least = max(2, nv // 4)
            g = _random_graph(nv, least + _below(bits, nv + 1 - least), rng)
            gen = fundamental_basis(g)
        instance = _sample_crossing_instance(g, rng, max_size)
        if instance is None:
            continue
        cm, x, y, sm, s1m, s2m = instance
        # The witness checks that s is a minimal cutset; a sampler that
        # produced another kind of set shows up here as a witness error.
        try:
            o = _crossing_witness(g, gen, s1m, s2m, x, y)
        except Exception as exc:
            failure = {"kind": "witness-error", "error": str(exc)}
        else:
            problems = _crossing_postconditions(g, o, s1m, s2m, x, sm)
            if not any(o.bits == member.bits for member in gen.cycles):
                problems.append("witness is not a member of the generating set")
            if not problems:
                return None
            failure = {"kind": "postcondition-failure", "problems": problems,
                       "witness": o.to_json()}
        return {"trial": index, "seed": seed_str,
                "c": _mask_json(g, cm),
                "x": _vertex_json(g, x), "y": _vertex_json(g, y),
                "s1": _mask_json(g, s1m),
                "s2": _mask_json(g, s2m), **failure}
    raise RuntimeError(
        f"trial {index} ({seed_str}) could not sample a usable cutset instance; "
        "the sampler or the configuration is off — refusing to skip silently")


def _sample_crossing_instance(g: Graph, rng: random.Random, max_size: int):
    """One attempt batch at (c, x, y, cutset, halves) on a host graph, the
    vertex sets as masks.  The observer x is drawn by rank among the
    vertices neither in c nor next to it."""
    pool = _sampling_pool(g)
    plan = _neighbourhood_plan(g)
    bits = rng.getrandbits
    for _attempt in range(40):
        size = 1 + _below(bits, max(1, min(max_size, g.vertex_count - 3)))
        # every host is connected and ``size`` ≤ its vertex count: one start grows it
        cm = _grow(*pool, size, rng)
        blocked = cm | plan.expand(cm)
        eligible = g.vertex_count - blocked.bit_count()
        if not eligible:
            continue
        x = _kth_outside(blocked, _below(bits, eligible))
        sm = _report_masks(plan, plan, cm, x)[2]
        if sm.bit_count() < 2:
            continue
        members = _bit_ids(sm)
        _shuffle(bits, members)
        cut = 1 + _below(bits, len(members) - 1)
        s1m = sum(map((1).__lshift__, members[:cut]))
        ys = _bit_ids(cm)
        y = ys[_below(bits, len(ys))]
        return cm, x, y, sm, s1m, sm ^ s1m
    return None


# --- entry points -----------------------------------------------------------

def run_verification(cfg: TrialConfig, skip_hypotheses: bool = False,
                     fixed_c: Optional[frozenset] = None) -> VerifyReport:
    """Run one campaign.  Premises are checked first and failing ones refuse
    to run unless ``skip_hypotheses`` is set (negative controls).  With
    ``fixed_c``, the campaign runs that single subset (ids of the box graph)
    against the configured observers instead of generating subsets."""
    start = time.perf_counter()
    run = (_run_boundary_campaign if cfg.theorem in _BOUNDARY_THEOREMS
           else _run_crossing_campaign)
    trials_run, failures = run(cfg, skip_hypotheses, fixed_c)
    # a random campaign echoes the seed of every trial; a given subset has none
    trial_seeds = ([_trial_seed(cfg.seed, i) for i in range(cfg.trials)]
                   if cfg.mode == "random" and fixed_c is None else [])
    return VerifyReport(cfg.echo(), trials_run, failures, trial_seeds,
                        time.perf_counter() - start)


def hypothesis_report(theorem: str, box: BoxSpec, probe: Optional[str] = None,
                      g_prime: Optional[str] = None) -> dict:
    """Premise verdict for a theorem on a box, as a JSON-ready dict;
    ``probe`` overrides the dp augmentation, ``g_prime`` the k one."""
    if theorem not in _BOUNDARY_THEOREMS:
        raise InputError("premise checks exist for the dp and k theorems")
    setting = _box_setting(theorem, box, _augmentation(theorem, box, probe, g_prime))
    return {"schema": 1, "theorem": theorem, "box": str(box),
            "pass": setting.premises_hold, **setting.detail}
