"""Checks of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import boundarykit  # noqa: E402
from run import END_TO_END, per_layer_units  # noqa: E402
from tracer import Tracer, percentile, self_times  # noqa: E402
from workloads import campaign_config, sample_seed, DEFAULT_SEED  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6].
    # Completion order: a, c, b, root.
    spans = [(1, 1.0, 3.0, 0, 1), (3, 5.0, 6.0, 2, 3),
             (2, 4.0, 8.0, 0, 2), (0, 0.0, 10.0, -1, 0)]
    got = {nid: (dur, own) for nid, dur, own in self_times(spans)}
    assert got == {1: (2.0, 2.0), 3: (1.0, 1.0), 2: (4.0, 3.0), 0: (10.0, 4.0)}


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile(list(range(1, 11)), 99) == 10
    assert percentile(list(range(1, 11)), 50) == 5
    assert percentile([7.5], 99) == 7.5
    assert percentile([], 50) == 0.0


def test_tracer_wraps_every_binding_and_restores_them():
    original = boundarykit.graphs.component_of
    tracer = Tracer()
    tracer.install(boundarykit)
    try:
        wrapped = boundarykit.graphs.component_of
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert boundarykit.boundary.component_of is wrapped
        assert boundarykit.component_of is wrapped
        cfg = boundarykit.TrialConfig("dp", boundarykit.parse_box_spec("z2:6:plain"),
                                      max_size=3)
        rep = boundarykit.run_verification(cfg)
    finally:
        tracer.uninstall()
    assert boundarykit.graphs.component_of is original
    assert boundarykit.boundary.component_of is original

    rows = tracer.summary()
    assert rows["boundary.full_report"]["calls"] == rep.trials_run
    assert rows["boundary.outer_boundary"]["calls"] == 2 * rep.trials_run
    enum = rows["harness.enumerate_connected_subsets"]
    assert enum["work"] == rep.trials_run          # one apex observer per subset
    assert enum["calls"] == enum["work"] + 1       # the last next() stops
    assert rows["graphs.component_of"]["work"] > 0
    # Self times partition the root span.
    root = [s for s in tracer.spans if s[3] < 0]
    assert len(root) == 2                          # parse_box_spec, run_verification
    total_self = sum(r["self_s"] for r in rows.values())
    assert abs(total_self - sum(s[2] - s[1] for s in root)) < 1e-9


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_seeds():
    assert campaign_config("dp-exhaustive-apex", 5)["seed"] == DEFAULT_SEED
    assert campaign_config("lemma-random", 5)["seed"] == 5
    seeds = [sample_seed(s, i) for s in range(20) for i in range(20)]
    assert DEFAULT_SEED not in seeds
    assert seeds == [sample_seed(s, i) for s in range(20) for i in range(20)]
