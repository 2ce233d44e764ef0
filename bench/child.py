"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    child.py <src_dir> <mode> <request-json>

Modes:

* ``setup`` — import boundarykit and run the one-trial set-up campaign;
* ``campaign`` — the same, then the workload campaign;
* ``trace`` — a campaign with the span tracer installed before set-up;
* ``gate`` — the negative control and, when given, a pinned campaign.

The last line of stdout is one JSON object with the measurements.  The
package is imported from ``src_dir`` and nowhere else.
"""

import sys
import time


def main() -> None:
    src_dir, mode, request = sys.argv[1:4]
    t_start = time.perf_counter()
    sys.path.insert(0, src_dir)
    import boundarykit
    out = {"import_s": time.perf_counter() - t_start}

    import hashlib
    import json
    import os
    import resource

    req = json.loads(request)
    if not os.path.abspath(boundarykit.__file__).startswith(os.path.abspath(src_dir) + os.sep):
        raise SystemExit(f"boundarykit imported from {boundarykit.__file__}, not {src_dir}")

    def make(cfg):
        cfg = dict(cfg)
        cfg["box"] = boundarykit.parse_box_spec(cfg["box"])
        return boundarykit.TrialConfig(**cfg)

    def digest(data) -> str:
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def campaign(cfg, skip_hypotheses=False) -> dict:
        t0 = time.perf_counter()
        rep = boundarykit.run_verification(make(cfg), skip_hypotheses=skip_hypotheses)
        seconds = time.perf_counter() - t0
        return {"seconds": seconds, "trials_run": rep.trials_run,
                "failures": len(rep.failures), "passed": rep.passed,
                "digest": digest(rep.to_json(include_elapsed=False)),
                "failures_digest": digest(rep.failures)}

    if mode == "gate":
        out["negative"] = campaign(req["negative"], skip_hypotheses=True)
        if req.get("pinned"):
            out["pinned"] = campaign(req["pinned"])
    else:
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(boundarykit)
        boundarykit.run_verification(make(req["setup"]))
        out["setup_s"] = time.perf_counter() - t_start
        if mode != "setup":
            out["campaign"] = campaign(req["campaign"])
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.summary()
            if req.get("spans"):
                tracer.write_spans(req["spans"])
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
