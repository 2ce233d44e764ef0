#!/usr/bin/env python3
"""Run the standard verification battery and print one line per entry.

Exit status is 0 when every entry behaves as expected (including the
negative controls, which are expected to fail or be refused) and 1
otherwise.  ``--scale`` multiplies the randomized trial counts.
"""

import argparse
import sys
import time

from boundarykit import (BoxSpec, InputError, TrialConfig, build_box,
                         build_box_pair, check_dp_hypotheses,
                         check_k_hypotheses, extra_edge_patches,
                         four_cycle_gen, run_verification)


def _campaign(name, cfg, expect_pass=True, **kwargs):
    def run(scale):
        if cfg.mode == "random":
            scaled = TrialConfig(**{**cfg.echo(), "box": cfg.box,
                                    "trials": max(1, int(cfg.trials * scale))})
        else:
            scaled = cfg
        rep = run_verification(scaled, **kwargs)
        ok = rep.passed == expect_pass
        detail = (f"{rep.trials_run} trials, {len(rep.failures)} failures, "
                  f"{rep.elapsed:.2f}s")
        if not expect_pass and rep.failures:
            detail += f"; first counterexample c={rep.failures[0]['c']}"
        return ok, detail
    return name, run


def _premise_grid(scale):
    checked = 0
    for d, sides in ((2, (2, 3, 4)), (3, (2, 3, 4, 7)), (4, (2, 3, 4))):
        for n in sides:
            base = BoxSpec(d, n, "plain")
            gen = four_cycle_gen(base)
            if not check_dp_hypotheses(build_box_pair(base, "plus"), gen):
                return False, f"plus premises fail on {base}"
            pair = build_box_pair(base, "star")
            if not check_k_hypotheses(pair, gen, extra_edge_patches(pair)):
                return False, f"patch premises fail on {base}"
            checked += 2
    return True, (f"{checked} premise checks over d = 2 with n ≤ 4, d = 3 with "
                  f"n ≤ 4 and n = 7, d = 4 with n ≤ 4")


def _refused_precondition(scale):
    g = build_box(BoxSpec(2, 5, "plain"))
    diag = frozenset({g.id_of_label((3, 3)), g.id_of_label((4, 4))})
    cfg = TrialConfig(theorem="k", box=BoxSpec(2, 5, "plain"), g_prime="plain")
    try:
        run_verification(cfg, skip_hypotheses=True, fixed_c=diag)
    except InputError as exc:
        return "precondition" in str(exc), f"refused: {exc}"
    return False, "diagonal pair was not rejected"


def _determinism(scale):
    cfg = TrialConfig(theorem="k", box=BoxSpec(2, 7, "plain"), mode="random",
                      trials=300, seed=7)
    a = run_verification(cfg).to_json(include_elapsed=False)
    b = run_verification(cfg).to_json(include_elapsed=False)
    return a == b, "two runs, identical reports (elapsed masked)"


ENTRIES = [
    ("premise-grid", _premise_grid),
    _campaign("dp-exhaustive-z2:4",
              TrialConfig(theorem="dp", box=BoxSpec(2, 4, "plain"),
                          max_size=6, x_policy="all-outside")),
    _campaign("dp-exhaustive-z3:3",
              TrialConfig(theorem="dp", box=BoxSpec(3, 3, "plain"),
                          max_size=6, x_policy="all-outside")),
    _campaign("k-exhaustive-z2:5",
              TrialConfig(theorem="k", box=BoxSpec(2, 5, "plain"), max_size=5)),
    _campaign("k-random-z2:9",
              TrialConfig(theorem="k", box=BoxSpec(2, 9, "plain"),
                          mode="random", trials=2000, seed=0, max_size=12)),
    _campaign("k-random-z3:5",
              TrialConfig(theorem="k", box=BoxSpec(3, 5, "plain"),
                          mode="random", trials=500, seed=1, max_size=12)),
    _campaign("crossing-z2:5",
              TrialConfig(theorem="lemma", box=BoxSpec(2, 5, "plain"),
                          mode="random", trials=3000, seed=6)),
    _campaign("crossing-z3:3",
              TrialConfig(theorem="lemma", box=BoxSpec(3, 3, "plain"),
                          mode="random", trials=1000, seed=6)),
    _campaign("control-grid-probe-finds-counterexample",
              TrialConfig(theorem="dp", box=BoxSpec(2, 5, "plain"),
                          max_size=2, probe="plain"),
              expect_pass=False, skip_hypotheses=True),
    ("control-disconnected-subset-refused", _refused_precondition),
    ("determinism", _determinism),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier for randomized trial counts")
    args = parser.parse_args(argv)

    failures = 0
    t0 = time.perf_counter()
    for name, run in ENTRIES:
        ok, detail = run(args.scale)
        print(f"[sweep] {name}: {'ok' if ok else 'FAIL'} — {detail}")
        failures += 0 if ok else 1
    verdict = "all entries behaved as expected" if not failures else \
        f"{failures} entries misbehaved"
    print(f"[sweep] done: {verdict} in {time.perf_counter() - t0:.2f}s")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
