"""Acceptance gate: the ten shipping criteria, one printed line each.

Each test prints ``[acceptance] criterion N: PASS/FAIL — detail`` through the
capture plug so the verdicts are visible in any pytest run, then asserts.
"""

import functools
import json
import random
import subprocess
import sys
import time

import pytest

from boundarykit import (BoxSpec, InputError, TrialConfig, build_box,
                         build_box_pair, check_dp_hypotheses,
                         check_k_hypotheses, extra_edge_patches,
                         four_cycle_gen, outer_boundary, outer_visible_boundary,
                         random_connected_graph, run_verification,
                         sample_connected_subset, visible_boundary)

from oracles import apexed_graph


def _emit(capsys, n, ok, detail):
    line = f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# --- criterion 1: cycle-space rank sanity --------------------------------------------

def test_criterion_01_cycle_space_rank(capsys):
    t0 = time.perf_counter()
    checked = []
    for d in (2, 3):
        for n in (2, 3, 4, 5):
            spec = BoxSpec(d, n, "plain")
            g = build_box(spec)
            want = g.edge_count - g.vertex_count + 1
            got = four_cycle_gen(spec).rank
            checked.append(got == want)
    elapsed = time.perf_counter() - t0
    ok = all(checked) and elapsed < 1.0
    _emit(capsys, 1, ok,
          f"unit-face generators span rank |E|-|V|+1 on all {len(checked)} "
          f"plain boxes (d=2,3; n=2..5) in {elapsed:.3f}s")


# --- criteria 2+3: exhaustive visible-boundary connectivity, probed in plus ----------

@functools.lru_cache(maxsize=1)
def _dp_exhaustive_runs():
    t0 = time.perf_counter()
    reports = {}
    for spec in (BoxSpec(2, 4, "plain"), BoxSpec(3, 3, "plain")):
        cfg = TrialConfig(theorem="dp", box=spec, mode="exhaustive",
                          max_size=6, margin=2, x_policy="all-outside",
                          probe="plus")
        reports[str(spec)] = run_verification(cfg)
    return reports, time.perf_counter() - t0


def test_criterion_02_dp_exhaustive(capsys):
    reports, elapsed = _dp_exhaustive_runs()
    ok = (all(r.passed and not r.failures for r in reports.values())
          and elapsed < 60.0)
    trials = {box: r.trials_run for box, r in reports.items()}
    _emit(capsys, 2, ok,
          f"every connected subset (size ≤ 6, margin 2) × every observer "
          f"(apex + all outside vertices) has a plus-connected visible "
          f"boundary: {trials} trials, 0 failures, {elapsed:.2f}s")


def test_criterion_03_dp_probe_is_plus_not_star(capsys):
    reports, _ = _dp_exhaustive_runs()
    zero_failures = all(r.passed for r in reports.values())
    probed_plus = all(r.to_json()["config"]["probe"] == "plus"
                      for r in reports.values())
    plus2 = set(build_box(BoxSpec(2, 4, "plus")).edges)
    star2 = set(build_box(BoxSpec(2, 4, "star")).edges)
    plus3 = set(build_box(BoxSpec(3, 3, "plus")).edges)
    star3 = set(build_box(BoxSpec(3, 3, "star")).edges)
    containment = plus2 <= star2 and plus3 < star3   # strict once d ≥ 3
    ok = zero_failures and probed_plus and containment
    _emit(capsys, 3, ok,
          f"connectivity already holds in the plus graph "
          f"({len(plus3)} edges, a strict subgraph of the {len(star3)}-edge "
          f"king graph in d=3), not only in the king graph")


# --- criterion 4: exhaustive star-visible boundary in a 5×5 box ----------------------

def test_criterion_04_k_exhaustive(capsys):
    t0 = time.perf_counter()
    cfg = TrialConfig(theorem="k", box=BoxSpec(2, 5, "plain"),
                      mode="exhaustive", max_size=5, margin=2,
                      x_policy="apex")
    rep = run_verification(cfg)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and not rep.failures and elapsed < 120.0
    _emit(capsys, 4, ok,
          f"every king-connected subset (size ≤ 5, margin 2) of the 5×5 box "
          f"has a grid-connected king-visible boundary: {rep.trials_run} "
          f"trials, 0 failures, {elapsed:.2f}s")


# --- criterion 5: randomized star-visible boundary campaigns -------------------------

def test_criterion_05_k_randomized(capsys):
    t0 = time.perf_counter()
    big = run_verification(TrialConfig(
        theorem="k", box=BoxSpec(2, 9, "plain"), mode="random",
        trials=10_000, seed=0, max_size=12))
    deep = run_verification(TrialConfig(
        theorem="k", box=BoxSpec(3, 5, "plain"), mode="random",
        trials=1_000, seed=1, max_size=12))
    elapsed = time.perf_counter() - t0
    ok = (big.passed and deep.passed and big.trials_run == 10_000
          and deep.trials_run == 1_000 and elapsed < 300.0)
    _emit(capsys, 5, ok,
          f"10^4 seeded trials on the 9×9 box + 10^3 on the 5×5×5 box "
          f"(subsets up to 12 vertices): 0 failures, {elapsed:.2f}s")


# --- criterion 6: constructive crossing-cycle witness at scale ------------------------

def test_criterion_06_crossing_witness(capsys):
    t0 = time.perf_counter()
    runs = [
        run_verification(TrialConfig(theorem="lemma", box=BoxSpec(2, 5, "plain"),
                                     mode="random", trials=4_000, seed=6)),
        run_verification(TrialConfig(theorem="lemma", box=BoxSpec(3, 3, "plain"),
                                     mode="random", trials=3_000, seed=6)),
        run_verification(TrialConfig(theorem="lemma", box=BoxSpec(2, 7, "plain"),
                                     mode="random", trials=3_000, seed=6)),
    ]
    elapsed = time.perf_counter() - t0
    total = sum(r.trials_run for r in runs)
    ok = all(r.passed and not r.failures for r in runs) and total >= 10_000
    _emit(capsys, 6, ok,
          f"{total} sampled (graph, minimal cutset, bipartition) instances "
          f"across lattice boxes and random connected graphs: every witness "
          f"generator touches both halves and crosses into the observer side "
          f"an odd number of times, re-checked definitionally; 0 failures, "
          f"{elapsed:.2f}s")


# --- criterion 7: premise checkers across the d × n grid ------------------------------

def test_criterion_07_hypothesis_checkers(capsys):
    results = []
    for d in (2, 3):
        for n in (2, 3, 4):
            base = BoxSpec(d, n, "plain")
            gen = four_cycle_gen(base)
            results.append(check_dp_hypotheses(build_box_pair(base, "plus"), gen))
            pair = build_box_pair(base, "star")
            results.append(check_k_hypotheses(pair, gen,
                                              extra_edge_patches(pair)))
    ok = all(results)
    _emit(capsys, 7, ok,
          f"generating + chordal premises and per-edge patch-cycle premises "
          f"hold on all {len(results)} (d ∈ {{2,3}}, n ≤ 4) box pairs")


# --- criterion 8: negative controls behave exactly as stated --------------------------

def test_criterion_08_negative_controls(capsys):
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 5, "plain"), max_size=2,
                      probe="plain")
    refused = False
    try:
        run_verification(cfg)
    except InputError:
        refused = True
    rep = run_verification(cfg, skip_hypotheses=True)
    center = [f for f in rep.failures if f["c"] == [[3, 3]]]
    dp_control = (refused and not rep.passed and center
                  and center[0]["report"]["components"] == 4)

    g = build_box(BoxSpec(2, 5, "plain"))
    diag = frozenset({g.id_of_label((3, 3)), g.id_of_label((4, 4))})
    k_cfg = TrialConfig(theorem="k", box=BoxSpec(2, 5, "plain"),
                        g_prime="plain")
    try:
        run_verification(k_cfg, skip_hypotheses=True, fixed_c=diag)
        k_control = False
    except InputError as exc:
        k_control = "precondition" in str(exc)

    ok = dp_control and k_control
    _emit(capsys, 8, ok,
          "grid-only probe exposes a 4-component visible boundary for the "
          "center vertex of the 5×5 box; the diagonal pair {(3,3),(4,4)} is "
          "rejected at the connectivity precondition when adjacency is "
          "grid-only")


# --- criterion 9: definition-level oracle equivalence ----------------------------------

def _simple_path_exists(adj, x, y, banned_all, banned_internal):
    """Literal backtracking search over simple paths.

    Accepts a path x … y none of whose vertices lie in ``banned_all`` and
    none of whose *internal* vertices lie in ``banned_internal``.
    """
    if x in banned_all or y in banned_all:
        return False
    if x == y:
        return True
    on_path = {x}

    def walk(u):
        for w in adj[u]:
            if w == y:
                return True
            if w in on_path or w in banned_all or w in banned_internal:
                continue
            on_path.add(w)
            if walk(w):
                return True
            on_path.discard(w)
        return False

    return walk(x)


def _raw_definition_boundaries(g, g_prime, c, x):
    outer = {v for v in range(g_prime.vertex_count)
             if v not in c and any(w in c for w in g_prime.adjacency[v])}
    visible = {v for v in outer
               if _simple_path_exists(g.adjacency, x, v, c, frozenset())}
    outer_visible = {v for v in visible
                     if _simple_path_exists(g.adjacency, x, v, c, visible)}
    return outer, visible, outer_visible


def test_criterion_09_oracle_equivalence(capsys):
    plain3 = build_box(BoxSpec(2, 3, "plain"))
    corpus = [
        (build_box(BoxSpec(2, 2, "plain")),) * 2,
        (plain3, plain3),
        (plain3, build_box(BoxSpec(2, 3, "star"))),
        (plain3, build_box(BoxSpec(2, 3, "plus"))),
        (build_box(BoxSpec(2, 3, "star")),) * 2,
        (build_box(BoxSpec(2, 4, "plain")),) * 2,
        (build_box(BoxSpec(2, 4, "plain")), build_box(BoxSpec(2, 4, "star"))),
        (build_box(BoxSpec(3, 2, "plain")),) * 2,
        (build_box(BoxSpec(3, 2, "plain")), build_box(BoxSpec(3, 2, "star"))),
        (apexed_graph(plain3),) * 2,
    ]
    for s in range(6):
        corpus.append((random_connected_graph(6 + 2 * s, 5 + s, s),) * 2)

    instances = 0
    agree = True
    for g, g_prime in corpus:
        assert g.vertex_count <= 20
        rng = random.Random(hash((g.vertex_count, g.edges, g.labels))
                            ^ hash((g_prime.vertex_count, g_prime.edges, g_prime.labels)))
        for i in range(16):
            size = 1 + rng.randrange(min(4, g.vertex_count - 1))
            c = sample_connected_subset(g, size, seed=f"acc9:{i}:{rng.random()}")
            outside = [v for v in range(g.vertex_count) if v not in c]
            if not outside:
                continue
            x = rng.choice(outside)
            want = _raw_definition_boundaries(g, g_prime, c, x)
            got = (outer_boundary(g_prime, c),
                   visible_boundary(g, g_prime, c, x),
                   outer_visible_boundary(g, g_prime, c, x))
            agree = agree and tuple(map(frozenset, want)) == got
            instances += 1
    ok = agree and instances > 200
    _emit(capsys, 9, ok,
          f"boundary / visible / outer-visible operators match the literal "
          f"simple-path-enumeration definitions on {instances} instances over "
          f"{len(corpus)} corpus graph pairs (all ≤ 20 vertices)")


# --- criterion 10: byte-identical reports ----------------------------------------------

def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "boundarykit", *argv],
                          capture_output=True, text=True)


def test_criterion_10_determinism(capsys):
    checks = []
    for argv in [
        ("verify", "k", "--box", "z2:7:plain", "--trials", "300",
         "--seed", "7", "--no-elapsed"),
        ("verify", "dp", "--box", "z2:6:plain", "--trials", "200",
         "--seed", "3", "--max-size", "5", "--no-elapsed"),
        ("verify", "lemma", "--box", "z2:5:plain", "--trials", "200",
         "--seed", "11", "--no-elapsed"),
    ]:
        a, b = _cli(*argv), _cli(*argv)
        checks.append(a.returncode == b.returncode == 0
                      and a.stdout == b.stdout and a.stdout.strip() != "")
    # elapsed masking: identical apart from the wall-clock field
    argv = ("verify", "k", "--box", "z2:5:plain", "--trials", "100", "--seed", "5")
    a, b = json.loads(_cli(*argv).stdout), json.loads(_cli(*argv).stdout)
    a.pop("elapsed"), b.pop("elapsed")
    checks.append(json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True))
    ok = all(checks)
    _emit(capsys, 10, ok,
          "repeated verify invocations with identical flags+seed emit "
          "byte-identical reports (elapsed masked) across dp, k, and "
          "crossing-lemma campaigns")
