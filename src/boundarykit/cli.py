"""Command-line interface.

Subcommands:

* ``boundary``   — boundary report for one subset over a box or a JSON
                   graph-pair file;
* ``verify``     — run a dp / k / lemma campaign and emit a JSON report;
* ``hypotheses`` — check a theorem's premises on a box;
* ``enumerate``  — stream connected subsets of a box as JSON lines.

Exit codes: 0 = pass/success, 1 = verification failure (or failed premise
check), 2 = usage or input error.  All structured output goes to stdout as
JSON with sorted keys; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .boundary import _report_fields, _report_json, full_report, report_to_json
from .errors import InputError
from .graphs import (Graph, GraphPair, _neighbourhood_plan, vertexset_from_json,
                     vertexset_to_json)
from .harness import (THEOREMS, TrialConfig, enumerate_connected_subsets,
                      hypothesis_report, run_verification)
from .lattice import (FLAVORS, BoxSpec, box_shell, build_box, margin_interior,
                      parse_box_spec)


def _decode_json(text, complaint: str):
    """``text``, a CLI argument or the bytes of a UTF-8 file, decoded as
    JSON.  Every way decoding can fail (bad JSON, bad UTF-8, nesting too
    deep for the decoder, an int too long to convert) is an InputError
    that starts with ``complaint``."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except RecursionError:
        reason = "nested too deeply"
    except ValueError as exc:       # JSONDecodeError and UnicodeDecodeError among them
        reason = str(exc)
    raise InputError(f"{complaint}: {reason}")


def _load_pair_file(path: str) -> GraphPair:
    """Read a graph-pair file: ``{"g": <graph>, "extra_plus_edges": [[u,v],…]}``."""
    with open(path, "rb") as fh:
        data = _decode_json(fh.read(), f"{path} is not a UTF-8 JSON file")
    if not isinstance(data, dict) or "g" not in data:
        raise InputError(f"{path}: graph-pair files need a 'g' entry")
    g = Graph.from_json(data["g"])
    extra = data.get("extra_plus_edges", [])
    if not isinstance(extra, list):
        raise InputError(f"{path}: 'extra_plus_edges' is a list of [u, v] pairs, got {extra!r}")
    g_plus = Graph(g.vertex_count, list(g.edges) + extra, labels=g.labels)
    return GraphPair(g, g_plus)


def _parse_vertex(g: Graph, text: str) -> int:
    """A vertex given as an integer id or a JSON coordinate tuple."""
    data = _decode_json(text, f"vertex {text!r} is neither an id nor a coordinate tuple")
    if isinstance(data, int) and not isinstance(data, bool):
        g.require_vertex(data)
        return data
    if isinstance(data, list):
        return g.id_of_label(data)
    raise InputError(f"vertex {text!r} is neither an id nor a coordinate tuple")


def _cmd_boundary(args) -> int:
    if (args.box is None) == (args.pair is None):
        raise InputError("give exactly one of --box or --pair")
    if args.box is not None:
        spec = parse_box_spec(args.box)
        g = build_box(spec)
        gprime_flavor = args.gprime or spec.flavor
        if gprime_flavor not in FLAVORS:
            raise InputError(f"--gprime for boxes must be one of {FLAVORS}")
        g_prime = build_box(BoxSpec(spec.d, spec.side, gprime_flavor))
        probe_flavor = args.probe or gprime_flavor
        if probe_flavor not in FLAVORS:
            raise InputError(f"--probe for boxes must be one of {FLAVORS}")
        probe = build_box(BoxSpec(spec.d, spec.side, probe_flavor))
    else:
        pair = _load_pair_file(args.pair)
        g = pair.g
        g_prime = {None: pair.g_plus, "gplus": pair.g_plus, "g": pair.g}.get(args.gprime)
        if g_prime is None:
            raise InputError("--gprime for pair files must be 'g' or 'gplus'")
        probe = {None: g_prime, "g": pair.g, "gplus": pair.g_plus}.get(args.probe)
        if probe is None:
            raise InputError("--probe for pair files must be 'g' or 'gplus'")

    c = vertexset_from_json(g, _decode_json(args.set, "--set is not a JSON vertex set"))
    if args.x == "apex":
        # the apex, id |V|, is no vertex of the graphs: its flood is the one
        # from the surface, which the subset must miss
        shell = box_shell(g)
        if c & shell:
            raise InputError("precondition: apex observers need the subset inside "
                             "margin 2 (off the box surface)")
        plans = [_neighbourhood_plan(graph) for graph in (g, g_prime, probe)]
        out = _report_json(g, *_report_fields(*plans, plans[0].mask(c), g.vertex_count,
                                               plans[0].mask(shell)))
    else:
        out = report_to_json(full_report(g, g_prime, probe, c, _parse_vertex(g, args.x)), g)
    print(json.dumps({"schema": 1, **out}, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    spec = parse_box_spec(args.box)
    mode = "random" if args.trials is not None else "exhaustive"
    trials = args.trials if args.trials is not None else 1000

    x_policy, x_vertex = "apex", None
    if args.x in ("apex", "all-outside"):
        x_policy = args.x
    else:
        x_policy = "fixed"
        x_vertex = _parse_vertex(build_box(spec), args.x)

    cfg = TrialConfig(theorem=args.theorem, box=spec, mode=mode,
                      max_size=args.max_size, trials=trials, seed=args.seed,
                      margin=args.margin, x_policy=x_policy, x_vertex=x_vertex,
                      probe=args.probe, g_prime=args.gplus)
    fixed_c = None
    if args.set is not None:
        fixed_c = vertexset_from_json(build_box(spec),
                                      _decode_json(args.set, "--set is not a JSON vertex set"))
    report = run_verification(cfg, skip_hypotheses=args.skip_hypotheses,
                              fixed_c=fixed_c)
    print(json.dumps(report.to_json(include_elapsed=not args.no_elapsed),
                     sort_keys=True))
    return 0 if report.passed else 1


def _cmd_hypotheses(args) -> int:
    spec = parse_box_spec(args.box)
    rep = hypothesis_report(args.theorem, spec, probe=args.probe,
                            g_prime=args.gplus)
    print(json.dumps(rep, sort_keys=True))
    return 0 if rep["pass"] else 1


def _cmd_enumerate(args) -> int:
    spec = parse_box_spec(args.box)
    g = build_box(spec)
    allowed = margin_interior(g, args.margin)
    for s in enumerate_connected_subsets(g, args.max_size, allowed=allowed):
        print(json.dumps(vertexset_to_json(g, s)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundarykit",
        description="Boundary-connectivity toolkit: boundary reports, premise "
                    "checks, and exhaustive/randomized theorem verification on "
                    "lattice boxes.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("boundary", help="boundary report for one subset")
    b.add_argument("--box", help="box spec, e.g. z2:5:plain")
    b.add_argument("--pair", help="path to a JSON graph-pair file")
    b.add_argument("--set", required=True,
                   help="JSON vertex set: ids or coordinate tuples")
    b.add_argument("--x", required=True,
                   help="observer: 'apex', an id, or a coordinate tuple")
    b.add_argument("--gprime", help="adjacency graph (box flavor, or g/gplus)")
    b.add_argument("--probe",
                   help="connectivity probe graph (box flavor, or g/gplus); "
                        "defaults to the adjacency graph")
    b.set_defaults(func=_cmd_boundary)

    v = sub.add_parser("verify", help="run a verification campaign")
    v.add_argument("theorem", choices=THEOREMS)
    v.add_argument("--box", required=True, help="box spec, e.g. z2:4:plain")
    v.add_argument("--max-size", type=int, default=6, dest="max_size")
    v.add_argument("--trials", type=int,
                   help="sample this many random trials instead of enumerating")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--margin", type=int, default=2)
    v.add_argument("--x", default="apex",
                   help="'apex', 'all-outside', an id, or a coordinate tuple")
    v.add_argument("--probe", choices=FLAVORS,
                   help="dp probe override (negative controls)")
    v.add_argument("--gplus", choices=FLAVORS,
                   help="k adjacency override (negative controls)")
    v.add_argument("--set", help="verify one fixed subset instead of generating")
    v.add_argument("--skip-hypotheses", action="store_true",
                   dest="skip_hypotheses",
                   help="run even when the theorem premises fail")
    v.add_argument("--no-elapsed", action="store_true", dest="no_elapsed",
                   help="omit wall-clock time for byte-comparable reports")
    v.set_defaults(func=_cmd_verify)

    h = sub.add_parser("hypotheses", help="check a theorem's premises on a box")
    h.add_argument("theorem", choices=["dp", "k"])
    h.add_argument("--box", required=True)
    h.add_argument("--probe", choices=FLAVORS, help="dp augmentation override")
    h.add_argument("--gplus", choices=FLAVORS, help="k augmentation override")
    h.set_defaults(func=_cmd_hypotheses)

    e = sub.add_parser("enumerate", help="stream connected subsets as JSON lines")
    e.add_argument("--box", required=True)
    e.add_argument("--max-size", type=int, required=True, dest="max_size")
    e.add_argument("--margin", type=int, default=0)
    e.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
