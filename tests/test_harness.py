"""Harness: enumeration, sampling, premise checks, campaigns, determinism."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from boundarykit import (BoxSpec, CycleGen, EdgeVector, InputError,
                         TrialConfig, build_box, build_box_pair,
                         check_dp_hypotheses, check_k_hypotheses,
                         cube_patch_cycle, enumerate_connected_subsets,
                         extra_edge_patches, four_cycle_gen, full_report,
                         fundamental_basis, hypothesis_report, is_connected_in,
                         margin_interior, random_connected_graph, report_to_json,
                         run_verification, sample_connected_subset,
                         vertexset_to_json)

from oracles import connected_subsets_by_powerset


# --- exhaustive enumeration -----------------------------------------------------

def test_enumerate_two_by_two_box():
    g = build_box(BoxSpec(2, 2, "plain"))
    subs = list(enumerate_connected_subsets(g, 4))
    assert len(subs) == 13          # 4 singles + 4 dominoes + 4 triominoes + 1 square
    assert len(set(subs)) == 13     # exactly once each
    by_size = sorted(len(s) for s in subs)
    assert by_size == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4]


def test_enumerate_singletons_and_pairs():
    g = build_box(BoxSpec(2, 3, "plain"))
    singles = list(enumerate_connected_subsets(g, 1))
    assert len(singles) == 9 and all(len(s) == 1 for s in singles)
    up_to_two = list(enumerate_connected_subsets(g, 2))
    assert len(up_to_two) == 9 + 12          # singletons + one per edge


def test_enumerate_respects_allowed_region():
    g = build_box(BoxSpec(2, 5, "plain"))
    inner = margin_interior(g, 2)
    subs = list(enumerate_connected_subsets(g, 3, allowed=inner))
    assert all(s <= inner for s in subs)
    want = connected_subsets_by_powerset(g.vertex_count, g.edges, 3,
                                         allowed=inner)
    assert set(subs) == want


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=4))
def test_enumeration_matches_powerset_oracle(nv, extra, seed, max_size):
    g = random_connected_graph(nv, extra, seed)
    got = list(enumerate_connected_subsets(g, max_size))
    assert len(got) == len(set(got))
    assert set(got) == connected_subsets_by_powerset(nv, g.edges, max_size)


def test_enumeration_budget_guard():
    g = build_box(BoxSpec(2, 6, "plain"))           # 36 > 25 vertices
    with pytest.raises(InputError, match="budget"):
        list(enumerate_connected_subsets(g, 10))
    # fine with a small size cap even on the big box
    assert sum(1 for _ in enumerate_connected_subsets(g, 1)) == 36


def test_enumeration_canonical_order_is_stable():
    g = build_box(BoxSpec(2, 2, "plain"))
    first = [tuple(sorted(s)) for s in enumerate_connected_subsets(g, 4)]
    second = [tuple(sorted(s)) for s in enumerate_connected_subsets(g, 4)]
    assert first == second
    assert first[0] == (0,)


# --- randomized sampling -----------------------------------------------------------

def test_sample_connected_subset_basics():
    g = build_box(BoxSpec(2, 6, "plain"))
    assert len(sample_connected_subset(g, 1, seed="s")) == 1
    a = sample_connected_subset(g, 8, seed="twice")
    b = sample_connected_subset(g, 8, seed="twice")
    assert a == b
    with pytest.raises(InputError, match="grow"):
        sample_connected_subset(g, 37, seed="too-big")


def test_ten_thousand_samples_in_six_by_six_are_connected():
    g = build_box(BoxSpec(2, 6, "plain"))
    for i in range(10_000):
        s = sample_connected_subset(g, 8, seed=f"bulk:{i}")
        assert len(s) == 8
        assert is_connected_in(g, s)


def test_sampling_respects_allowed_region():
    g = build_box(BoxSpec(2, 5, "plain"))
    inner = margin_interior(g, 2)
    for i in range(50):
        s = sample_connected_subset(g, 4, seed=i, allowed=inner)
        assert s <= inner and is_connected_in(g, s)


# --- premise checkers ----------------------------------------------------------------

def test_dp_premises_hold_with_plus_and_fail_with_plain():
    base = BoxSpec(2, 4, "plain")
    gen = four_cycle_gen(base)
    assert check_dp_hypotheses(build_box_pair(base, "plus"), gen)
    assert check_dp_hypotheses(build_box_pair(base, "star"), gen)
    assert not check_dp_hypotheses(build_box_pair(base, "plain"), gen)


def test_dp_premises_fail_for_long_fundamental_cycles():
    base = BoxSpec(2, 4, "plain")
    fund = fundamental_basis(build_box(base))
    assert not check_dp_hypotheses(build_box_pair(base, "star"), fund)


def test_dp_premises_need_matching_host():
    gen = four_cycle_gen(BoxSpec(2, 3, "plain"))
    with pytest.raises(InputError, match="base graph"):
        check_dp_hypotheses(build_box_pair(BoxSpec(2, 4, "plain"), "plus"), gen)


def test_k_premises_hold_with_generated_patches():
    for base in [BoxSpec(2, 3, "plain"), BoxSpec(3, 2, "plain")]:
        pair = build_box_pair(base, "star")
        gen = four_cycle_gen(base)
        assert check_k_hypotheses(pair, gen, extra_edge_patches(pair))


def test_k_premises_fail_on_a_non_chordal_replacement():
    base = BoxSpec(2, 3, "plain")
    pair = build_box_pair(base, "star")
    gen = four_cycle_gen(base)
    patches = dict(extra_edge_patches(pair))
    g = pair.g
    e = (g.id_of_label((1, 1)), g.id_of_label((2, 2)))
    e = (min(e), max(e))
    # a 6-cycle through e: hits (3,3)-territory, so (1,1) pairs at distance 2
    ring_coords = [(1, 1), (2, 1), (3, 1), (3, 2), (3, 3), (2, 2), (1, 1)]
    six = EdgeVector.from_vertex_path(
        pair.g_plus, [pair.g_plus.id_of_label(c) for c in ring_coords])
    assert six.is_cycle() and len(six) == 6
    patches[e] = six
    assert not check_k_hypotheses(pair, gen, patches)

    # also: a chordality-only failure (other edges all in the base graph)
    path_coords = [(2, 2), (2, 3), (1, 3), (1, 2), (1, 1)]
    five = EdgeVector.from_edges(
        pair.g_plus,
        list(zip([pair.g_plus.id_of_label(c) for c in path_coords],
                 [pair.g_plus.id_of_label(c) for c in path_coords[1:]]))
        + [e])
    assert five.is_cycle() and len(five) == 5
    patches[e] = five
    assert not check_k_hypotheses(pair, gen, patches)


def test_k_premises_report_missing_and_foreign_keys():
    base = BoxSpec(2, 3, "plain")
    pair = build_box_pair(base, "star")
    gen = four_cycle_gen(base)
    patches = dict(extra_edge_patches(pair))
    victim = next(iter(patches))
    removed = patches.pop(victim)
    with pytest.raises(InputError, match="lack patch cycles"):
        check_k_hypotheses(pair, gen, patches)
    patches[victim] = removed
    patches[(0, 1)] = removed               # (1,1)-(2,1) is a plain edge
    with pytest.raises(InputError, match="augmentation-only"):
        check_k_hypotheses(pair, gen, patches)


def test_hypothesis_report_shapes():
    rep = hypothesis_report("dp", BoxSpec(2, 3, "plain"))
    assert rep == {"schema": 1, "theorem": "dp", "box": "z2:3:plain",
                   "pass": True, "generators": 4, "augmentation": "plus"}
    rep_k = hypothesis_report("k", BoxSpec(2, 3, "plain"))
    assert rep_k == {"schema": 1, "theorem": "k", "box": "z2:3:plain",
                     "pass": True, "generators": 4, "patch_cycles": 8,
                     "augmentation": "star"}
    rep_neg = hypothesis_report("dp", BoxSpec(2, 3, "plain"), probe="plain")
    assert not rep_neg["pass"]
    with pytest.raises(InputError):
        hypothesis_report("lemma", BoxSpec(2, 3, "plain"))


# --- trial configuration ----------------------------------------------------------------

def test_trial_config_validation():
    box = BoxSpec(2, 4, "plain")
    with pytest.raises(InputError, match="theorem"):
        TrialConfig(theorem="nope", box=box)
    with pytest.raises(InputError, match="mode"):
        TrialConfig(theorem="dp", box=box, mode="sometimes")
    with pytest.raises(InputError, match="budget"):
        TrialConfig(theorem="dp", box=BoxSpec(2, 6, "plain"), max_size=10)
    with pytest.raises(InputError, match="margin"):
        TrialConfig(theorem="dp", box=box, margin=1)
    with pytest.raises(InputError, match="x_vertex"):
        TrialConfig(theorem="dp", box=box, x_policy="fixed")
    with pytest.raises(InputError, match="mode=random"):
        TrialConfig(theorem="lemma", box=box, mode="exhaustive")
    with pytest.raises(InputError, match="d ≥ 2"):
        TrialConfig(theorem="dp", box=BoxSpec(1, 9, "plain"))
    with pytest.raises(InputError, match="probe"):
        TrialConfig(theorem="k", box=box, probe="plain")
    with pytest.raises(InputError, match="g_prime"):
        TrialConfig(theorem="dp", box=box, g_prime="plain")
    # the apex observes under all-outside and as the fixed apex id (16)
    # too, and it sees the whole surface
    for policy in ({"x_policy": "all-outside"}, {"x_policy": "fixed", "x_vertex": 16}):
        for margin in (0, 1):
            with pytest.raises(InputError, match="margin ≥ 2"):
                TrialConfig(theorem="dp", box=box, margin=margin, **policy)
    # margin 1 is fine when the observer is a fixed vertex
    TrialConfig(theorem="dp", box=box, margin=1, x_policy="fixed", x_vertex=0)
    # ... and so is any margin for the lemma, which has no apex
    TrialConfig(theorem="lemma", box=box, mode="random", margin=0, x_policy="all-outside")


# --- campaigns ----------------------------------------------------------------------------

def test_dp_exhaustive_small_box_passes():
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 4, "plain"), max_size=4)
    rep = run_verification(cfg)
    assert rep.passed and rep.trials_run == 13
    assert rep.failures == [] and rep.trial_seeds == []
    data = rep.to_json()
    assert data["schema"] == 1 and data["passed"] is True
    assert "elapsed" in data and "elapsed" not in rep.to_json(include_elapsed=False)


def test_dp_all_outside_observers():
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 4, "plain"), max_size=3,
                      x_policy="all-outside")
    rep = run_verification(cfg)
    assert rep.passed
    assert rep.trials_run > 13 * 10        # many observers per subset


def test_k_exhaustive_small_box_passes():
    cfg = TrialConfig(theorem="k", box=BoxSpec(2, 5, "plain"), max_size=3)
    rep = run_verification(cfg)
    assert rep.passed and rep.trials_run > 0


def test_dp_random_mode_is_seed_deterministic():
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 6, "plain"), mode="random",
                      trials=40, seed=11, max_size=5)
    a = run_verification(cfg).to_json(include_elapsed=False)
    b = run_verification(cfg).to_json(include_elapsed=False)
    assert a == b
    assert a["trial_seeds"][:3] == ["11:0", "11:1", "11:2"]
    c = run_verification(TrialConfig(
        theorem="dp", box=BoxSpec(2, 6, "plain"), mode="random",
        trials=40, seed=12, max_size=5)).to_json(include_elapsed=False)
    assert c["trial_seeds"] != a["trial_seeds"]


def test_lemma_reports_identical_across_runs():
    cfg = TrialConfig(theorem="lemma", box=BoxSpec(2, 5, "plain"),
                      mode="random", trials=30, seed=3)
    first = run_verification(cfg).to_json(include_elapsed=False)
    second = run_verification(cfg).to_json(include_elapsed=False)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_dp_negative_control_finds_the_center_vertex():
    cfg = TrialConfig(theorem="dp", box=BoxSpec(2, 5, "plain"), max_size=2,
                      probe="plain")
    with pytest.raises(InputError, match="premises"):
        run_verification(cfg)
    rep = run_verification(cfg, skip_hypotheses=True)
    assert not rep.passed
    centers = [f for f in rep.failures if f["c"] == [[3, 3]]]
    assert centers and centers[0]["kind"] == "disconnected-visible-boundary"
    assert centers[0]["report"]["components"] == 4
    assert centers[0]["x"] == "apex"


def test_k_negative_control_rejects_disconnected_subset():
    box = BoxSpec(2, 5, "plain")
    g = build_box(box)
    diag = frozenset({g.id_of_label((3, 3)), g.id_of_label((4, 4))})
    cfg = TrialConfig(theorem="k", box=box, g_prime="plain")
    with pytest.raises(InputError, match="precondition"):
        run_verification(cfg, skip_hypotheses=True, fixed_c=diag)
    # the same subset is fine when adjacency is the star graph
    rep = run_verification(TrialConfig(theorem="k", box=box),
                           fixed_c=diag)
    assert rep.passed and rep.trials_run == 1


def test_fixed_subset_must_stay_inside_the_margin():
    box = BoxSpec(2, 5, "plain")
    g = build_box(box)
    edge_hugger = frozenset({g.id_of_label((1, 1))})
    for policy in ({"x_policy": "apex"}, {"x_policy": "all-outside"},
                   {"x_policy": "fixed", "x_vertex": 25}):
        cfg = TrialConfig(theorem="dp", box=box, **policy)
        with pytest.raises(InputError, match="margin"):
            run_verification(cfg, fixed_c=edge_hugger)


def test_lemma_campaign_passes_and_reports_seeds():
    cfg = TrialConfig(theorem="lemma", box=BoxSpec(2, 5, "plain"),
                      mode="random", trials=60, seed=9)
    rep = run_verification(cfg)
    assert rep.passed and rep.trials_run == 60
    assert rep.trial_seeds == [f"9:{i}" for i in range(60)]


def test_lemma_non_minimal_cutset_is_a_witness_error(monkeypatch):
    import boundarykit.harness as harness
    box = build_box(BoxSpec(2, 5, "plain"))

    def ids(*coords):
        return frozenset(box.id_of_label(c) for c in coords)

    # (2,2) is redundant: the four axis neighbours of (3,3) already cut it off
    s1, s2 = ids((2, 2), (3, 2)), ids((2, 3), (4, 3), (3, 4))
    instance = (ids((3, 3)), box.id_of_label((5, 5)), box.id_of_label((3, 3)),
                s1 | s2, s1, s2)
    monkeypatch.setattr(harness, "_sample_crossing_instance",
                        lambda *args: instance)
    rep = run_verification(TrialConfig(theorem="lemma", box=BoxSpec(2, 5, "plain"),
                                       mode="random", trials=1))
    assert [f["kind"] for f in rep.failures] == ["witness-error"]
    assert "not a minimal cutset" in rep.failures[0]["error"]


def test_lemma_campaign_rejects_fixed_subsets():
    cfg = TrialConfig(theorem="lemma", box=BoxSpec(2, 5, "plain"),
                      mode="random", trials=5)
    with pytest.raises(InputError, match="sample"):
        run_verification(cfg, fixed_c=frozenset({12}))


def test_lemma_campaign_with_one_dimensional_box():
    cfg = TrialConfig(theorem="lemma", box=BoxSpec(1, 9, "plain"),
                      mode="random", trials=10, seed=2)
    rep = run_verification(cfg)
    assert rep.passed


@pytest.mark.parametrize("cfg", [
    TrialConfig(theorem="dp", box=BoxSpec(2, 5, "plain"), max_size=3,
                probe="plain", x_policy="all-outside"),
    TrialConfig(theorem="k", box=BoxSpec(2, 5, "plain"), max_size=3,
                g_prime="plain", x_policy="all-outside"),
    TrialConfig(theorem="k", box=BoxSpec(3, 5, "plain"), mode="random",
                trials=150, seed=4, max_size=6, x_policy="all-outside"),
], ids=["dp-plain-probe", "k-plain-adjacency", "k-random"])
def test_failures_are_exactly_the_disconnected_full_reports(cfg):
    """Campaigns judge instances by their component count alone; the
    failing instances and their report bytes must be those of
    ``full_report`` on every instance."""
    import boundarykit.harness as harness
    row = harness._BOUNDARY_THEOREMS[cfg.theorem]
    setting = harness._box_setting(cfg.theorem, cfg.box,
                                   getattr(cfg, row.override) or row.augmentation)
    g, g_prime, probe = setting.roles
    want = []
    for trial, (_, c, x) in enumerate(harness._boundary_instances(cfg, setting, None)):
        rep = full_report(g, g_prime, probe, c, x)
        if rep.component_count != 1:
            want.append((trial, vertexset_to_json(setting.box, c),
                         report_to_json(rep, g)))
    rep = run_verification(cfg, skip_hypotheses=True)
    got = [(f["trial"], f["c"], f["report"]) for f in rep.failures]
    assert got == want
    assert bool(want) == (cfg.probe == "plain" or cfg.g_prime == "plain")


def test_fixed_observer_policy():
    box = BoxSpec(2, 5, "plain")
    g = build_box(box)
    x = g.id_of_label((1, 1))
    cfg = TrialConfig(theorem="dp", box=box, max_size=2, x_policy="fixed",
                      x_vertex=x, margin=2)
    rep = run_verification(cfg)
    assert rep.passed and rep.trials_run > 0

