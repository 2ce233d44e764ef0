#!/usr/bin/env python3
"""Campaign benchmark for boundarykit.

    python3 bench/run.py --workload dp-exhaustive-apex --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Runs verification campaigns through the public API of the package in
``src/`` of this checkout, one fresh interpreter per sample, one sample at a
time.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same campaign untraced and traced, alternately, and reports per-layer
counts and self times.  Every run first passes a correctness gate: pinned
report digests, exact instance counts and a negative control.  Any failed
check exits 1 and prints no numbers.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record of each run, with the noise readings, goes to ``.bench_out/``.
See bench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S
from workloads import (DEFAULT_SEED, NEGATIVE_CONTROL, WORKLOADS,
                       campaign_config, sample_seed, setup_config)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

RUN_LIMIT_S = 170          # a run must exit within 180 s
MIN_SAMPLES = 3            # campaigns per untraced run, whatever --seconds says
SETUPS_PER_SAMPLE = 1      # extra set-up-only interpreters per campaign
MIN_TRACE_PASSES = 2       # exact counts are compared across these

END_TO_END = {
    "instances_per_s": "1/s",
    "campaign_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Traced functions reported with calls and self time.
LAYER_FUNCTIONS = (
    "graphs.component_of", "graphs.set_components", "graphs.is_cutset",
    "graphs.is_minimal_cutset", "graphs.shortest_path",
    "boundary.full_report", "boundary.outer_boundary",
    "boundary.visible_boundary", "boundary.outer_visible_boundary",
    "harness.enumerate_connected_subsets", "harness.sample_connected_subset",
    "harness.random_connected_graph",
    "lattice.build_box", "lattice.four_cycle_gen",
    "lattice.extra_edge_patches", "lattice.with_apex",
    "cyclespace.crossing_cycle_witness", "cyclespace.is_generating",
    "cyclespace.decompose", "cyclespace.fundamental_basis",
)
SELF_ONLY = ("harness.check_dp_hypotheses", "harness.check_k_hypotheses",
             "harness.run_verification")
LATENCY = ("boundary.full_report", "cyclespace.crossing_cycle_witness")
LAYERS = ("graphs", "lattice", "cyclespace", "boundary", "harness")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    for fn in SELF_ONLY:
        units[f"{fn}.self_s"] = "s"
    for fn in LATENCY:
        units[f"{fn}.p50_us"] = "us"
        units[f"{fn}.p99_us"] = "us"
    units["graphs.component_of.vertices"] = "count"
    units["harness.enumerate_connected_subsets.subsets_per_s"] = "1/s"
    units["harness.sample_connected_subset.yield"] = "ratio"
    units["cyclespace.EdgeVector.is_cycle.calls"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace_overhead"] = "ratio"
    return units


class CheckFailed(Exception):
    """A correctness check failed; the run posts no numbers."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("BOUNDARYKIT_THREADS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_script(args: list, what: str, deadline: float) -> dict:
    """Run a benchmark script in a fresh interpreter; return the JSON object
    on the last line of its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise CheckFailed("run time budget exhausted before a sample could start")
    try:
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{what} exceeded the run time budget") from None
    if proc.returncode != 0:
        raise CheckFailed(f"{what} raised (exit {proc.returncode}):\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_child(mode: str, request: dict, deadline: float) -> dict:
    return run_script([str(HERE / "child.py"), str(SRC), mode, json.dumps(request)],
                      f"{mode} sample", deadline)


class Bracketed:
    """Runs samples with a reference-kernel interpreter before and after
    each one; consecutive samples share the reference between them."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.references = [self._reference()]

    def _reference(self) -> float:
        return run_script([str(HERE / "calibrate.py")], "reference kernel",
                          self.deadline)["reference_s"]

    def run(self, mode: str, request: dict) -> dict:
        out = run_child(mode, request, self.deadline)
        self.references.append(self._reference())
        out["reference_s"] = self.references[-2:]
        return out


def speed_scale(out: dict) -> float:
    """Factor that scales a sample's times to the nominal machine speed."""
    return NOMINAL_S / statistics.mean(out["reference_s"])


def check_campaign(workload: str, cfg: dict, result: dict) -> None:
    """A campaign passed, ran every instance, and matches its pin when it
    ran with the default seed."""
    spec = WORKLOADS[workload]
    if not result["passed"] or result["failures"]:
        raise CheckFailed(f"{workload} (seed {cfg['seed']}) reported "
                          f"{result['failures']} failures")
    if result["trials_run"] != spec["instances"]:
        raise CheckFailed(f"{workload} ran {result['trials_run']} instances, "
                          f"expected exactly {spec['instances']}")
    if cfg["seed"] == DEFAULT_SEED and result["digest"] != spec["digest"]:
        raise CheckFailed(f"{workload} report digest {result['digest']} differs from "
                          f"the pinned {spec['digest']}")


def gate(workload: str, deadline: float) -> None:
    """Negative control, plus the pinned default-seed campaign for random
    workloads (an exhaustive workload's samples all use the default seed
    and are checked against the pin one by one)."""
    request = {"negative": {**NEGATIVE_CONTROL["config"], "seed": DEFAULT_SEED}}
    pinned = campaign_config(workload, DEFAULT_SEED)
    if pinned["mode"] == "random":
        request["pinned"] = pinned
    out = run_child("gate", request, deadline)
    neg = out["negative"]
    if (neg["failures"] != NEGATIVE_CONTROL["failures"]
            or neg["failures_digest"] != NEGATIVE_CONTROL["digest"]):
        raise CheckFailed(
            f"negative control gave {neg['failures']} failures (digest "
            f"{neg['failures_digest']}), pinned {NEGATIVE_CONTROL['failures']} "
            f"({NEGATIVE_CONTROL['digest']})")
    if "pinned" in out:
        check_campaign(workload, pinned, out["pinned"])


def campaign_request(workload: str, seed: int) -> dict:
    return {"setup": setup_config(workload, seed),
            "campaign": campaign_config(workload, seed)}


def measure(workload: str, run_seed: int, seconds: float, deadline: float) -> dict:
    """Untraced samples for ``seconds`` (at least MIN_SAMPLES campaigns)."""
    setups, samples = [], []
    bracketed = Bracketed(deadline)
    stop = time.monotonic() + seconds
    while len(samples) < MIN_SAMPLES or time.monotonic() < stop:
        seed = sample_seed(run_seed, len(samples))
        started = time.monotonic()
        for _ in range(SETUPS_PER_SAMPLE):
            setups.append(bracketed.run("setup", {"setup": setup_config(workload, seed)}))
        request = campaign_request(workload, seed)
        out = bracketed.run("campaign", request)
        check_campaign(workload, request["campaign"], out["campaign"])
        setups.append(out)
        samples.append(out)
        spent = time.monotonic() - started
        if len(samples) >= MIN_SAMPLES and time.monotonic() + 1.5 * spent > deadline:
            break
    instances = WORKLOADS[workload]["instances"]
    campaign_s = [s["campaign"]["seconds"] * speed_scale(s) for s in samples]
    return {
        "series": {
            "instances_per_s": [instances / t for t in campaign_s],
            "campaign_s": campaign_s,
            "setup_s": [s["setup_s"] * speed_scale(s) for s in setups],
            "peak_rss_mib": [s["peak_rss_mib"] for s in samples],
        },
        "wall": {
            "campaign_s": [s["campaign"]["seconds"] for s in samples],
            "setup_s": [s["setup_s"] for s in setups],
            "reference_s": bracketed.references,
        },
        "attempted": instances * len(samples),
        "samples": samples,
    }


def trace(workload: str, run_seed: int, seconds: float, deadline: float) -> dict:
    """Alternate untraced and traced campaigns of one seed; exact counts must
    agree across every traced pass."""
    seed = sample_seed(run_seed, 0)
    base, passes = [], []
    bracketed = Bracketed(deadline)
    stop = time.monotonic() + seconds
    while len(passes) < MIN_TRACE_PASSES or time.monotonic() < stop:
        started = time.monotonic()
        for mode in ("campaign", "trace"):
            request = campaign_request(workload, seed)
            if mode == "trace":
                # Spans are bulky: the next traced run of the workload overwrites them.
                request["spans"] = str(OUT / f"spans-{workload}-pass{len(passes)}.tsv.gz")
            out = bracketed.run(mode, request)
            check_campaign(workload, request["campaign"], out["campaign"])
            (passes if mode == "trace" else base).append(out)
        spent = time.monotonic() - started
        if len(passes) >= MIN_TRACE_PASSES and time.monotonic() + 1.5 * spent > deadline:
            break
    counts = [{name: (row["calls"], row["work"]) for name, row in p["layers"].items()}
              for p in passes]
    for k, other in enumerate(counts[1:], start=1):
        if other != counts[0]:
            differing = sorted(n for n in counts[0] if counts[0][n] != other.get(n))
            raise CheckFailed(f"traced pass {k} counts differ from pass 0: {differing[:5]}")
    base_s = statistics.median(s["campaign"]["seconds"] * speed_scale(s) for s in base)
    traced_s = statistics.median(p["campaign"]["seconds"] * speed_scale(p) for p in passes)
    scaled = [{name: {**row, **{k: row[k] * speed_scale(p) for k in ("self_s", "p50_s", "p99_s")}}
               for name, row in p["layers"].items()} for p in passes]
    return {
        "layers": layer_metrics(scaled, workload),
        "overhead": {"traced_campaign_s": traced_s, "untraced_campaign_s": base_s,
                     "passes": len(passes), "base_samples": len(base)},
        "attempted": WORKLOADS[workload]["instances"] * (len(base) + len(passes)),
        "samples": base + passes,
    }


def layer_metrics(passes: list, workload: str) -> dict:
    """Per-layer metric values: counts from the first pass (all passes
    agree), times as the median over passes."""
    first = passes[0]

    def med(name, key):
        return statistics.median(p[name][key] for p in passes)

    values = {}
    for fn in LAYER_FUNCTIONS:
        values[f"{fn}.calls"] = first[fn]["calls"]
        values[f"{fn}.self_s"] = med(fn, "self_s")
    for fn in SELF_ONLY:
        values[f"{fn}.self_s"] = med(fn, "self_s")
    for fn in LATENCY:
        values[f"{fn}.p50_us"] = med(fn, "p50_s") * 1e6
        values[f"{fn}.p99_us"] = med(fn, "p99_s") * 1e6
    values["graphs.component_of.vertices"] = first["graphs.component_of"]["work"]
    enum = "harness.enumerate_connected_subsets"
    enum_s = med(enum, "self_s")
    values[f"{enum}.subsets_per_s"] = first[enum]["work"] / enum_s if enum_s else 0.0
    sampler_calls = first["harness.sample_connected_subset"]["calls"]
    # Instances built on a sampled subset (the set-up trial's, and the
    # campaign's when it samples) per sampler call.
    sampled = 1 + (WORKLOADS[workload]["instances"]
                   if WORKLOADS[workload]["config"]["mode"] == "random" else 0)
    values["harness.sample_connected_subset.yield"] = (
        sampled / sampler_calls if sampler_calls else 0.0)
    values["cyclespace.EdgeVector.is_cycle.calls"] = first["cyclespace.EdgeVector.is_cycle"]["calls"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = statistics.median(
            sum(row["self_s"] for name, row in p.items() if name.startswith(layer + "."))
            for p in passes)
    return values


def read_steal():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        ticks = [int(v) for v in fields[1:]]
        return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        return None


def git_sha() -> str:
    """HEAD of the checkout read from .git without running git; "none"
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "boundarykit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def noise_start() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus": sorted(os.sched_getaffinity(0)),
            "git_sha": git_sha(), "src_digest": src_digest(),
            "load_start": os.getloadavg(), "_steal": read_steal(),
            "_t": time.monotonic()}


def noise_end(env: dict) -> dict:
    steal0, steal1 = env.pop("_steal"), read_steal()
    env["wall_s"] = time.monotonic() - env.pop("_t")
    env["load_end"] = os.getloadavg()
    if steal0 and steal1:
        env["steal_jiffies"] = steal1[0] - steal0[0]
        total = steal1[1] - steal0[1]
        env["steal_share"] = env["steal_jiffies"] / total if total else 0.0
    else:
        env["steal_jiffies"] = env["steal_share"] = None
    return env


def spread(values: list) -> dict:
    ordered = sorted(values)
    q1, _, q3 = (statistics.quantiles(ordered, n=4) if len(ordered) > 1
                 else ordered * 3)
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "min": ordered[0], "max": ordered[-1], "n": len(ordered)}


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    env = noise_start()
    gate(workload, deadline)
    result = (trace if traced else measure)(workload, seed, seconds, deadline)
    env = noise_end(env)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(traced), "env": env, **result}
    with open(OUT / f"{workload}-seed{seed}-trace{int(traced)}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"== {workload}  seed {seed}  {'traced' if traced else 'untraced'}  "
          f"({WORKLOADS[workload]['instances']} instances per campaign)")
    if traced:
        units = per_layer_units()
        ov = result["overhead"]
        metrics = dict(result["layers"])
        metrics["trace_overhead"] = ov["traced_campaign_s"] / ov["untraced_campaign_s"]
        for name, unit in units.items():
            print(f"  {name:52s} {metrics[name]:>14.6g} {unit}")
        print(f"  trace_overhead = {ov['traced_campaign_s']:.4f} s traced "
              f"({ov['passes']} passes) / {ov['untraced_campaign_s']:.4f} s untraced "
              f"({ov['base_samples']} samples)")
        print("  no layer waits on another (one thread), so there are no wait-time metrics")
    else:
        units = END_TO_END
        metrics = {}
        for name, unit in units.items():
            s = spread(result["series"][name])
            metrics[name] = s["median"]
            print(f"  {name:16s} median {s['median']:.6g} {unit}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  min {s['min']:.6g}  max {s['max']:.6g}  n={s['n']}")
        wall = {name: spread(values) for name, values in result["wall"].items()}
        print("  unscaled wall medians: " + "  ".join(
            f"{name} {w['median']:.6g} s (min {w['min']:.6g}, max {w['max']:.6g})"
            for name, w in wall.items()) + f"; nominal reference {NOMINAL_S} s")
    failed = sum(s["campaign"]["failures"] for s in result["samples"])
    print(f"  failed_share     {failed / result['attempted']:g} ratio  ({failed} failure "
          f"records / {result['attempted']} instances attempted; a campaign that "
          f"raises stops the run)")
    steal = ("n/a" if env["steal_share"] is None
             else f"{env['steal_jiffies']} jiffies ({100 * env['steal_share']:.2f}%)")
    print(f"  env: python {env['python']}  nproc {env['nproc']}  cpu {env['cpus']}  "
          f"git {env['git_sha'][:12]}  "
          f"src {env['src_digest']}  load {env['load_start'][0]:.2f}->{env['load_end'][0]:.2f}  "
          f"steal {steal}  wall {env['wall_s']:.1f} s")
    return {"attempted": result["attempted"], "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Every interpreter of the run inherits this: the reference kernel and
    # the samples must see the same CPU's speed.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "boundarykit" / "__init__.py").is_file():
        print(f"error: no boundarykit package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({"correct": True,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
