"""Campaign workloads of the benchmark, their pinned results and the
negative control.

Plain data only: the parent process never imports boundarykit; each child
process turns a config dict into a ``TrialConfig``.  The workload seed is a
benchmark argument and reaches the package only through the config's
``seed`` field.

Pins were taken on the commit that added the benchmark.  A digest is the
sha256 of ``VerifyReport.to_json(include_elapsed=False)`` serialised with
sorted keys and compact separators.  A change that alters a pinned digest
changes the package's verdicts or report format; it must update the pin
here and say why.
"""

import random

DEFAULT_SEED = 0

WORKLOADS = {
    # Redelmeier enumeration plus the boundary kernel with apex observers.
    # Consecutive subsets share a parent; every task is materialised before
    # the run, which is what peak_rss_mib sees.  Exhaustive, so the config
    # is the same for every workload seed.
    "dp-exhaustive-apex": {
        "config": {"theorem": "dp", "box": "z2:9:plain", "mode": "exhaustive",
                   "max_size": 8, "x_policy": "apex"},
        "instances": 61167,
        "digest": "1657acfa089c0de2f9a3a29041dd932450ba3f489da896a4bc89a2388048c7c3",
    },
    # Same boundary layer, used differently: 3-D box, 26-neighbour star
    # adjacency, independent sampled subsets, interior observers.  Bypasses
    # enumeration and apex-only tricks; carries a real set-up cost.
    "k-random-outside": {
        "config": {"theorem": "k", "box": "z3:7:plain", "mode": "random",
                   "max_size": 12, "trials": 3000, "x_policy": "all-outside"},
        "instances": 3000,
        "digest": "ed990f26e5e8a8cb77d0678eb339d91f070e5daa50336ff936a720b3d492a4d7",
    },
    # Dominated by cyclespace and the cutset and path searches in graphs;
    # the boundary operators are a small share of it.
    "lemma-random": {
        "config": {"theorem": "lemma", "box": "z2:5:plain", "mode": "random",
                   "max_size": 6, "trials": 4000},
        "instances": 4000,
        "digest": "38d4e09616c91e318b2043937191eb8a27b511cac295424b282969ce0d689613",
    },
}

# dp probed in the plain box instead of the face-diagonal augmentation: the
# statement is false there, so a correct kernel reports exactly these
# failures.  A kernel that always answers "connected" reports none.
NEGATIVE_CONTROL = {
    "config": {"theorem": "dp", "box": "z2:6:plain", "mode": "exhaustive",
               "max_size": 5, "x_policy": "apex", "probe": "plain"},
    "failures": 449,
    "digest": "a0b88b4496c57be92419608ae791e134cc7cdf35b9401d0421a5b39ab3605546",
}


def campaign_config(workload: str, seed: int) -> dict:
    """The workload's config for one campaign; random workloads take
    ``seed``, exhaustive ones ignore it."""
    cfg = dict(WORKLOADS[workload]["config"])
    cfg["seed"] = seed if cfg["mode"] == "random" else DEFAULT_SEED
    return cfg


def setup_config(workload: str, seed: int) -> dict:
    """A one-trial random campaign with the workload's theorem, box and
    observer policy: what a user pays before the first verified instance."""
    cfg = dict(WORKLOADS[workload]["config"])
    cfg.update(mode="random", trials=1, seed=seed)
    return cfg


def sample_seed(run_seed: int, index: int) -> int:
    """Config seed of the ``index``-th campaign of a benchmark run; never
    the default seed, whose digest the gate pins."""
    return 1 + random.Random(f"{run_seed}/{index}").randrange(2 ** 31 - 1)
