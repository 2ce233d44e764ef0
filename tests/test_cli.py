"""Command-line interface: subcommands, exit codes, JSON output, determinism."""

import json
import subprocess
import sys

import pytest

from boundarykit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# --- boundary ---------------------------------------------------------------------

def test_boundary_center_singleton_plus_probe(capsys):
    code, data = run_json(capsys, "boundary", "--box", "z2:5:plain",
                          "--set", "[[3,3]]", "--x", "apex", "--probe", "plus")
    assert code == 0 and data["schema"] == 1
    assert data["components"] == 1 and "witness" not in data
    assert sorted(data["boundary"]) == [[2, 3], [3, 2], [3, 4], [4, 3]]
    assert data["visible"] == data["boundary"] == data["outer_visible"]


def test_boundary_center_singleton_default_probe_disconnects(capsys):
    code, data = run_json(capsys, "boundary", "--box", "z2:5:plain",
                          "--set", "[[3,3]]", "--x", "apex")
    assert code == 0
    assert data["components"] == 4
    w = data["witness"]
    assert len(w) == 2 and all(coords in data["visible"] for coords in w)


def test_boundary_star_adjacency_star_probe(capsys):
    code, data = run_json(capsys, "boundary", "--box", "z2:5:plain",
                          "--set", "[[3,3]]", "--x", "apex", "--gprime", "star")
    assert code == 0
    assert len(data["boundary"]) == 8       # king-move ring
    assert data["components"] == 1          # probe defaults to the star graph


def test_boundary_fixed_observer_coordinate_and_id(capsys):
    code_a, by_coord = run_json(capsys, "boundary", "--box", "z2:5:plain",
                                "--set", "[[3,3]]", "--x", "[1,1]")
    code_b, by_id = run_json(capsys, "boundary", "--box", "z2:5:plain",
                             "--set", "[[3,3]]", "--x", "0")
    assert code_a == code_b == 0 and by_coord == by_id


def test_boundary_requires_exactly_one_source(capsys, tmp_path):
    code, out, err = run_cli(capsys, "boundary", "--set", "[0]", "--x", "1")
    assert code == 2 and out == "" and err.startswith("error:")
    pair = tmp_path / "pair.json"
    pair.write_text('{"g": {"vertices": 2, "edges": [[0, 1]]}}')
    code, out, err = run_cli(capsys, "boundary", "--box", "z2:3:plain",
                             "--pair", str(pair), "--set", "[0]", "--x", "1")
    assert code == 2 and "exactly one" in err


def test_boundary_pair_file(capsys, tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "g": {"vertices": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]},
        "extra_plus_edges": [[0, 2]],
    }))
    # adjacency gplus: boundary of {0} is {1,2,3}, path-connected in gplus
    code, data = run_json(capsys, "boundary", "--pair", str(pair),
                          "--set", "[0]", "--x", "2")
    assert code == 0
    assert data["boundary"] == [1, 2, 3] and data["components"] == 1
    # adjacency g: boundary {1,3}, probed in g they fall apart
    code, data = run_json(capsys, "boundary", "--pair", str(pair),
                          "--set", "[0]", "--x", "2",
                          "--gprime", "g", "--probe", "g")
    assert code == 0
    assert data["boundary"] == [1, 3]
    assert data["components"] == 2 and data["witness"] == [1, 3]


def test_boundary_pair_file_flag_values(capsys, tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "g": {"vertices": 3, "edges": [[0, 1], [1, 2]]},
        "extra_plus_edges": [[0, 2]],
    }))
    code, out, err = run_cli(capsys, "boundary", "--pair", str(pair),
                             "--set", "[0]", "--x", "2", "--gprime", "star")
    assert code == 2 and "'g' or 'gplus'" in err
    code, out, err = run_cli(capsys, "boundary", "--pair", str(pair),
                             "--set", "[0]", "--x", "apex")
    assert code == 2 and "label" in err       # apex needs coordinate labels


def test_boundary_missing_pair_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "boundary", "--pair",
                             str(tmp_path / "nope.json"),
                             "--set", "[0]", "--x", "1")
    assert code == 2 and err.startswith("error:")


def test_boundary_rejects_malformed_inputs(capsys):
    code, _, err = run_cli(capsys, "boundary", "--box", "z2:oops",
                           "--set", "[[1,1]]", "--x", "apex")
    assert code == 2 and "box spec" in err
    code, _, err = run_cli(capsys, "boundary", "--box", "z2:3:plain",
                           "--set", "[[1,1]", "--x", "apex")
    assert code == 2
    code, _, err = run_cli(capsys, "boundary", "--box", "z2:3:plain",
                           "--set", "[[1,1]]", "--x", "nowhere")
    assert code == 2 and "neither" in err
    code, _, err = run_cli(capsys, "boundary", "--box", "z2:3:plain",
                           "--set", "[[1,1]]", "--x", "[1,1]")
    assert code == 2 and "outside" in err



def test_boundary_non_list_set_exits_two(capsys):
    code, out, err = run_cli(capsys, "boundary", "--box", "z2:5:plain",
                             "--set", "5", "--x", "apex")
    assert code == 2 and out == "" and err.startswith("error:") and "list" in err


def test_boundary_pair_file_edge_must_be_a_pair(capsys, tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text('{"g": {"vertices": 3, "edges": [[0, 1, 2]]}}')
    code, out, err = run_cli(capsys, "boundary", "--pair", str(pair),
                             "--set", "[0]", "--x", "1")
    assert code == 2 and out == "" and err.startswith("error:")
    assert "pair of vertex ids" in err


PATH_G = {"vertices": 3, "edges": [[0, 1], [1, 2]]}


@pytest.mark.parametrize("data", [
    {"g": PATH_G, "extra_plus_edges": [5]},
    {"g": PATH_G, "extra_plus_edges": 7},
    {"g": {**PATH_G, "labels": 5}},
    {"g": {**PATH_G, "labels": [1, 2, 3]}},
    {"g": {**PATH_G, "edges": 7}},
], ids=["extra-entry-not-pair", "extra-not-list", "labels-not-list",
        "label-not-tuple", "edges-not-list"])
def test_boundary_malformed_pair_file_exits_two(capsys, tmp_path, data):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "boundary", "--pair", str(pair),
                             "--set", "[0]", "--x", "2")
    assert code == 2 and out == "" and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("pair_bytes, x, message", [
    (b'{"g": {"vertices": 1, "edges": [], "labels": [[]]}}', "apex", "one length"),
    (b'{"g": {"vertices": 3, "edges": [[0, 1], [1, 2]]}, "note": "\xff"}', "0",
     "is not a UTF-8 JSON file"),
], ids=["empty-label-apex", "not-utf8"])
def test_boundary_bad_pair_file_exits_two(capsys, tmp_path, pair_bytes, x, message):
    """An empty coordinate label under ``--x apex`` used to end in a
    ValueError traceback from ``min``, and a file that is not UTF-8 in a
    UnicodeDecodeError one, both with exit 1."""
    pair = tmp_path / "pair.json"
    pair.write_bytes(pair_bytes)
    code, out, err = run_cli(capsys, "boundary", "--pair", str(pair), "--set", "[]", "--x", x)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("source, flags, message", [
    ("box", ("--gprime", "g"), "--gprime for boxes must be one of"),
    ("box", ("--probe", "gplus"), "--probe for boxes must be one of"),
    ("pair", ("--probe", "plain"), "--probe for pair files must be 'g' or 'gplus'"),
    ("no-g", (), "graph-pair files need a 'g' entry"),
], ids=["box-gprime-g", "box-probe-gplus", "pair-probe-plain", "pair-file-without-g"])
def test_boundary_refuses_a_role_its_source_does_not_have(capsys, tmp_path, source,
                                                          flags, message):
    """Boxes take flavors and pair files take ``g``/``gplus``; a pair file
    needs its ``g``.  Each mix-up exits 2 with its message."""
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"h": PATH_G} if source == "no-g" else {"g": PATH_G}))
    where = (("--box", "z2:5:plain", "--set", "[[3,3]]", "--x", "apex") if source == "box"
             else ("--pair", str(pair), "--set", "[0]", "--x", "2"))
    code, out, err = run_cli(capsys, "boundary", *where, *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


BOX_BOUNDARY = ("boundary", "--box", "z2:5:plain")
BOX_VERIFY = ("verify", "dp", "--box", "z2:5:plain")
DEEP = "[" * 3000 + "]" * 3000      # deeper than the JSON decoder's recursion limit


@pytest.mark.parametrize("argv", [
    (*BOX_BOUNDARY, "--set", "[true]", "--x", "0"),
    (*BOX_BOUNDARY, "--set", "[[3,3]]", "--x", "true"),
    (*BOX_BOUNDARY, "--set", "[[3,true]]", "--x", "0"),
    (*BOX_BOUNDARY, "--set", "[[3,3.0]]", "--x", "0"),
    (*BOX_BOUNDARY, "--set", "[[3,3]]", "--x", "[1.0,1]"),
    (*BOX_BOUNDARY, "--set", "[[3,3]]", "--x", "[[1,1]]"),
    (*BOX_BOUNDARY, "--set", "[[[3,3]]]", "--x", "0"),
    (*BOX_VERIFY, "--set", "[[3,3]]", "--x", "[[1,1]]"),
    (*BOX_BOUNDARY, "--set", DEEP, "--x", "apex"),
    (*BOX_BOUNDARY, "--set", "[[3,3]]", "--x", DEEP),
    (*BOX_VERIFY, "--set", DEEP),
    (*BOX_VERIFY, "--x", DEEP),
], ids=["set", "observer", "set-bool-coordinate", "set-float-coordinate",
        "observer-float-coordinate", "observer-nested", "set-nested",
        "verify-observer-nested", "set-nested-deep", "observer-nested-deep",
        "verify-set-nested-deep", "verify-observer-nested-deep"])
def test_booleans_are_not_vertex_ids(capsys, argv):
    """Ids and coordinates are ints: bools, floats and nested lists exit 2.
    So does a list nested deeper than the JSON decoder can go, which used
    to end in a RecursionError traceback with exit 1."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")
    assert "Traceback" not in err


def test_boundary_apex_refuses_subsets_on_the_box_surface(capsys):
    code, out, err = run_cli(capsys, "boundary", "--box", "z2:5:plain",
                             "--set", "[[1,1]]", "--x", "apex")
    assert code == 2 and out == "" and err.startswith("error:")
    assert "margin 2" in err


@pytest.mark.parametrize("argv", [
    ("--box", "z2:5:plain", "--set", "[[3,3]]"),
    ("--box", "z2:7:plain", "--set", "[[3,3],[3,4],[3,5],[4,5],[5,5],[5,4],[5,3],[4,3]]",
     "--gprime", "star", "--probe", "plain"),
    ("--box", "z2:7:star", "--set", "[[3,3],[4,4],[5,5],[3,5],[5,3]]", "--probe", "plain"),
    ("--box", "z3:5:plain", "--set", "[[2,2,2],[3,2,2],[3,3,2],[3,3,3]]", "--gprime", "star",
     "--probe", "plain"),
    ("--box", "z1:7:plain", "--set", "[[3],[4]]"),
    ("--box", "z2:5:plain", "--set", "[]"),
], ids=["z2-cell", "z2-ring-star", "z2-star-box", "z3-plain-probe", "z1", "empty-set"])
def test_boundary_apex_reports_as_the_apexed_graphs_do(capsys, monkeypatch, argv):
    """``--x apex`` floods from the box surface and attaches no apex, and
    its report is ``full_report`` on the graphs with the apex attached:
    for an 8-ring, whose hole it does not see, and on a 1-D box, whose
    two surface vertices only the outside joins."""
    import boundarykit.lattice as lattice
    from boundarykit import (BoxSpec, attach_apex, build_box, full_report, parse_box_spec,
                             report_to_json, vertexset_from_json)
    opts = dict(zip(argv[::2], argv[1::2]))
    spec = parse_box_spec(opts["--box"])
    g_prime = opts.get("--gprime", spec.flavor)
    apexed = [attach_apex(build_box(BoxSpec(spec.d, spec.side, flavor)))
              for flavor in (spec.flavor, g_prime, opts.get("--probe", g_prime))]
    c = vertexset_from_json(apexed[0], json.loads(opts["--set"]))
    want = report_to_json(full_report(*apexed, c, apexed[0].vertex_count - 1), apexed[0])

    def refuse(g):
        raise AssertionError("an apex was attached")

    monkeypatch.setattr(lattice, "attach_apex", refuse)
    code, data = run_json(capsys, "boundary", *argv, "--x", "apex")
    assert code == 0 and data.pop("schema") == 1
    assert data == want


# --- verify -----------------------------------------------------------------------

def test_verify_dp_exhaustive_passes(capsys):
    code, data = run_json(capsys, "verify", "dp", "--box", "z2:4:plain",
                          "--max-size", "6")
    assert code == 0
    assert data["passed"] is True and data["failures"] == []
    assert data["config"]["mode"] == "exhaustive"
    assert data["trials_run"] == 13
    assert isinstance(data["elapsed"], float)


def test_verify_mode_inference(capsys):
    code, data = run_json(capsys, "verify", "dp", "--box", "z2:5:plain",
                          "--trials", "10", "--seed", "4", "--max-size", "4")
    assert code == 0
    assert data["config"]["mode"] == "random"
    assert data["trial_seeds"] == [f"4:{i}" for i in range(10)]
    code, data = run_json(capsys, "verify", "dp", "--box", "z2:4:plain",
                          "--max-size", "3")
    assert data["config"]["mode"] == "exhaustive"


@pytest.mark.parametrize("argv, flag", [
    (["boundary", "--box", "z2:5:plain", "--set", "[[3,3]]", "--x", "apex", "--inner"],
     "--inner"),
    (["verify", "dp", "--box", "z2:4:plain", "--mode", "exhaustive"], "--mode"),
])
def test_removed_flags_are_usage_errors(capsys, argv, flag):
    """The inner-boundary mirror and ``--mode`` (which ``--trials``
    decides) are gone: argparse refuses them with its usage message."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage:") and f"unrecognized arguments: {flag}" in captured.err
    assert "Traceback" not in captured.err


def test_lemma_campaign_without_trials_names_the_flag(capsys):
    code, out, err = run_cli(capsys, "verify", "lemma", "--box", "z2:5:plain")
    assert code == 2 and out == ""
    assert err == ("error: the crossing-lemma campaign samples instances; "
                   "use mode=random (CLI: --trials)\n")


def test_fixed_observer_below_margin_2_is_judged_on_the_box(capsys):
    """A subset on the surface, seen from a fixed corner at margin 0: the
    campaign judges it on the box itself, with no apex to join the two
    pieces of its visible boundary, so its one record is the ``boundary``
    report of the same instance."""
    subset = "[[2,1],[3,1],[4,1],[2,2],[3,2],[4,2]]"
    code, data = run_json(capsys, "verify", "dp", "--box", "z2:4:plain", "--x", "[1,1]",
                          "--margin", "0", "--set", subset, "--probe", "plain",
                          "--skip-hypotheses")
    assert code == 1 and data["trials_run"] == 1
    code, report = run_json(capsys, "boundary", "--box", "z2:4:plain", "--x", "[1,1]",
                            "--set", subset, "--gprime", "plain", "--probe", "plain")
    assert code == 0 and report.pop("schema") == 1
    assert [f["report"] for f in data["failures"]] == [report]
    assert report["components"] == 2 and report["witness"] == [[1, 1], [2, 3]]


def test_a_fixed_observer_record_at_margin_2_sees_round_the_outside(capsys):
    """At margin ≥ 2 a box observer's failure record gives the view in
    ℤ^d, where a path may go round through the outside, and ``boundary
    --x <vertex>`` the view in the bounded box.  Seen from the corner
    (1, 1), the ring of the cell (2, 2) is all visible; the record's
    outer-visible set is the whole ring, whose far side a path reaches
    round the outside, and the box's only the two near cells.  Its bytes
    are pinned as ``dp-fixed-corner`` in ``test_controls.py``."""
    argv = ("--box", "z2:5:plain", "--x", "[1,1]", "--set", "[[2,2]]", "--probe", "plain")
    code, out, err = run_cli(capsys, "verify", "dp", *argv, "--skip-hypotheses", "--no-elapsed")
    assert code == 1 and err == ""
    [record] = json.loads(out)["failures"]
    assert record["report"]["outer_visible"] == [[1, 2], [2, 1], [2, 3], [3, 2]]
    code, report = run_json(capsys, "boundary", *argv, "--gprime", "plain")
    assert code == 0
    assert report["outer_visible"] == [[1, 2], [2, 1]]
    assert {k: v for k, v in report.items() if k not in ("schema", "outer_visible")} == {
        k: v for k, v in record["report"].items() if k != "outer_visible"}


def test_verify_negative_control_exits_one(capsys):
    code, out, err = run_cli(capsys, "verify", "dp", "--box", "z2:5:plain",
                             "--max-size", "2", "--probe", "plain",
                             "--skip-hypotheses")
    assert code == 1 and err == ""
    data = json.loads(out)
    assert data["passed"] is False
    assert any(f["c"] == [[3, 3]] for f in data["failures"])


@pytest.mark.parametrize("argv, message", [
    (("--max-size", "1", "--margin", "0", "--x", "all-outside"), "margin ≥ 2"),
    (("--x", "all-outside", "--set", "[[1,1]]"), "inside margin 2"),
], ids=["margin-0", "fixed-subset-on-surface"])
def test_verify_all_outside_keeps_the_apex_off_the_surface(capsys, argv, message):
    """``all-outside`` observers include the apex, which sees the whole
    surface; without the margin its label would leak into failure reports."""
    code, out, err = run_cli(capsys, "verify", "dp", "--box", "z2:5:plain",
                             "--probe", "plain", "--skip-hypotheses", *argv)
    assert code == 2 and out == "" and err.startswith("error:")
    assert message in err


def test_verify_refuses_a_margin_without_room(capsys):
    """An exhaustive campaign with no subset to check exits 2, not 0."""
    code, out, err = run_cli(capsys, "verify", "dp", "--box", "z2:4:plain",
                             "--margin", "3", "--max-size", "3")
    assert code == 2 and out == "" and err.startswith("error:")
    assert "leaves no room" in err


NO_INSTANCE = "no instance to judge"


@pytest.mark.parametrize("argv, message", [
    (["dp", "--box", "z2:3:plain", "--x", "[2,2]"], NO_INSTANCE),
    (["dp", "--box", "z2:3:plain", "--margin", "0", "--x", "[2,2]", "--set", "[[2,2]]"],
     NO_INSTANCE),
    (["k", "--box", "z2:5:plain", "--x", "[3,3]", "--set", "[[3,3],[3,4]]"], NO_INSTANCE),
    (["dp", "--box", "z2:3:plain", "--x", "[2,2]", "--trials", "5"],
     "could not sample a subset compatible with the observer policy"),
], ids=["margin-leaves-only-x", "set-is-x", "k-set-holds-x", "random-draws-only-x"])
def test_verify_refuses_a_campaign_with_no_instance(capsys, argv, message):
    """Every subset holds the fixed observer: exit 2, not a pass with 0
    trials.  A random campaign, whose every draw is the observer's vertex,
    gives up sampling with its own message."""
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == "" and err.startswith("error:")
    assert message in err


def test_verify_refuses_broken_premises_without_skip(capsys):
    code, out, err = run_cli(capsys, "verify", "dp", "--box", "z2:5:plain",
                             "--max-size", "2", "--probe", "plain")
    assert code == 2 and "skip-hypotheses" in err


def test_verify_k_rejects_disconnected_fixed_subset(capsys):
    code, out, err = run_cli(capsys, "verify", "k", "--box", "z2:5:plain",
                             "--gplus", "plain", "--skip-hypotheses",
                             "--set", "[[3,3],[4,4]]")
    assert code == 2 and "precondition" in err
    code, data = run_json(capsys, "verify", "k", "--box", "z2:5:plain",
                          "--set", "[[3,3],[4,4]]")
    assert code == 0 and data["trials_run"] == 1


@pytest.mark.parametrize("x", ["apex", "all-outside"])
def test_verify_refuses_an_empty_set(capsys, x):
    """An empty --set used to pass with one vacuous trial (26 under
    all-outside on z2:5); it is bad input, so exit 2."""
    code, out, err = run_cli(capsys, "verify", "dp", "--box", "z2:5:plain",
                             "--set", "[]", "--x", x)
    assert code == 2 and out == "" and err.startswith("error:")
    assert "empty" in err


def test_verify_fixed_observer(capsys):
    code, data = run_json(capsys, "verify", "dp", "--box", "z2:5:plain",
                          "--max-size", "2", "--x", "[1,1]")
    assert code == 0 and data["config"]["x_policy"] == "fixed"


def test_verify_fixed_observer_is_a_box_vertex(capsys):
    """``--x`` names a box vertex; the apex id 81 of z2:9 is none, and the
    apex is spelled ``--x apex``."""
    code, out, err = run_cli(capsys, "verify", "dp", "--box", "z2:9:plain", "--x", "81")
    assert code == 2 and out == "" and err.startswith("error:")


_WALL = "[[3,1],[3,2],[3,3],[3,4],[3,5],[2,3]]"


@pytest.mark.parametrize("argv", [
    ("--margin", "100", "--set", "[[3,3]]"),
    ("--set", _WALL, "--probe", "plain", "--skip-hypotheses"),
], ids=["no-room", "wall-at-margin-2"])
def test_a_given_subset_outside_the_margin_is_refused(capsys, argv):
    """A ``--set`` subset must lie inside the margin interior under every
    policy, a fixed observer's too: margin 100 leaves z2:5 no room, and a
    wall across the box touches the surface the apex is glued to at
    margin 2."""
    code, out, err = run_cli(capsys, "verify", "dp", "--box", "z2:5:plain", "--x", "[1,1]",
                             *argv)
    assert code == 2 and out == "" and err.startswith("error:")
    assert "--margin" in err


def test_a_given_subset_on_the_surface_is_judged_on_the_box_at_margin_1(capsys):
    """At margin 1 the wall is judged on the box itself: seen from (1, 1)
    its visible boundary is three probe components.  Its bytes are pinned
    as ``dp-wall-margin1`` in ``test_controls.py``."""
    code, out, err = run_cli(capsys, "verify", "dp", "--box", "z2:5:plain", "--x", "[1,1]",
                             "--margin", "1", "--set", _WALL, "--probe", "plain",
                             "--skip-hypotheses", "--no-elapsed")
    data = json.loads(out)
    assert (code, err, data["trials_run"], len(data["failures"])) == (1, "", 1, 1)
    assert data["failures"][0]["report"]["components"] == 3


def test_verify_no_elapsed_flag(capsys):
    code, data = run_json(capsys, "verify", "lemma", "--box", "z2:4:plain",
                          "--trials", "5", "--seed", "1", "--no-elapsed")
    assert code == 0 and "elapsed" not in data


def test_verify_rejects_bad_theorem_and_box(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "qq", "--box", "z2:4:plain"])
    assert exc.value.code == 2                 # argparse rejects the choice
    code, _, err = run_cli(capsys, "verify", "dp", "--box", "z9")
    assert code == 2 and "box spec" in err


# --- hypotheses ---------------------------------------------------------------------

def test_hypotheses_reports(capsys):
    code, data = run_json(capsys, "hypotheses", "dp", "--box", "z2:3:plain")
    assert code == 0 and data["pass"] is True and data["generators"] == 4
    code, out, err = run_cli(capsys, "hypotheses", "dp", "--box", "z2:3:plain",
                             "--probe", "plain")
    assert code == 1 and json.loads(out)["pass"] is False
    code, data = run_json(capsys, "hypotheses", "k", "--box", "z3:2:plain")
    assert code == 0 and data["patch_cycles"] > 0


@pytest.mark.parametrize("argv, message", [
    (["dp", "--gplus", "plain"], "g_prime (CLI: --gplus) overrides apply to k campaigns only"),
    (["k", "--probe", "plain"], "probe (CLI: --probe) overrides apply to dp campaigns only"),
])
def test_hypotheses_refuses_the_other_theorems_override(capsys, argv, message):
    code, out, err = run_cli(capsys, "hypotheses", *argv, "--box", "z2:3:plain")
    assert code == 2 and out == "" and err.startswith("error:")
    assert message in err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "dp", "--max-size", "3"], "--probe"),
    (["verify", "k", "--trials", "5"], "--gplus"),
    (["hypotheses", "dp"], "--probe"),
    (["hypotheses", "k"], "--gplus"),
])
@pytest.mark.parametrize("box", ["z2:5:star", "z2:5:plus"])
def test_verify_and_hypotheses_refuse_a_flavored_box(capsys, argv, flag, box):
    code, out, err = run_cli(capsys, *argv, "--box", box)
    assert code == 2 and out == "" and err.startswith("error:")
    assert f"run on the plain box, not on {box}" in err and f"(CLI: {flag})" in err


def test_lemma_campaign_refuses_a_flavored_box(capsys):
    code, out, err = run_cli(capsys, "verify", "lemma", "--box", "z2:5:star",
                             "--trials", "5")
    assert code == 2 and out == ""
    assert err == "error: lemma campaigns run on the plain box, not on z2:5:star\n"


@pytest.mark.parametrize("argv", [
    ["--x", "[2,2]", "--margin", "0"],
    ["--x", "[2,2]"],
    ["--x", "all-outside"],
    ["--margin", "3"],
], ids=["fixed-margin-0", "fixed", "all-outside", "margin-3"])
def test_lemma_campaign_refuses_observer_fields(capsys, argv):
    """The lemma picks its own observers; an observer or margin it would
    never read is refused instead of being echoed in the report."""
    code, out, err = run_cli(capsys, "verify", "lemma", "--box", "z2:5:plain",
                             "--trials", "3", *argv)
    assert code == 2 and out == ""
    assert err == ("error: the crossing-lemma campaign picks its own observers: keep "
                   "x_policy 'apex' and margin 2 (CLI: leave out --x and --margin)\n")


def test_boundary_and_enumerate_keep_box_flavors(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--box", "z2:2:star",
                             "--max-size", "4")
    assert code == 0 and err == ""
    # in the star box every subset of the 2x2 box is connected
    assert len(out.splitlines()) == 15
    code, data = run_json(capsys, "boundary", "--box", "z2:5:star", "--set", "[[3,3]]",
                          "--x", "apex")
    assert code == 0 and len(data["boundary"]) == 8     # king-move ring


# --- enumerate ----------------------------------------------------------------------

def test_enumerate_streams_subsets(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--box", "z2:2:plain",
                             "--max-size", "4")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 13
    first = json.loads(lines[0])
    assert first == [[1, 1]]                   # coordinate labels, sorted
    assert len({tuple(map(tuple, json.loads(l))) for l in lines}) == 13


def test_enumerate_with_margin(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--box", "z2:5:plain",
                           "--max-size", "1", "--margin", "2")
    coords = [tuple(json.loads(l)[0]) for l in out.strip().splitlines()]
    assert sorted(coords) == [(i, j) for i in (2, 3, 4) for j in (2, 3, 4)]


@pytest.mark.parametrize("margin", ["-1", "-3"])
def test_enumerate_refuses_a_negative_margin(capsys, margin):
    """A negative margin used to exit 0 and list the whole box, while
    ``verify`` refused it."""
    code, out, err = run_cli(capsys, "enumerate", "--box", "z2:3:plain",
                             "--max-size", "1", "--margin", margin)
    assert code == 2 and out == ""
    assert err == "error: margin must be ≥ 0\n"


@pytest.mark.parametrize("max_size", ["0", "-2"])
def test_enumerate_refuses_a_size_cap_below_one(capsys, max_size):
    """A cap below one used to exit 0 with no output; it is bad input."""
    code, out, err = run_cli(capsys, "enumerate", "--box", "z2:3:plain",
                             "--max-size", max_size)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "max_size must be ≥ 1" in err


def test_enumerate_budget_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--box", "z2:6:plain",
                           "--max-size", "12")
    assert code == 2 and "budget" in err


# --- process-level behaviour -----------------------------------------------------------

def _run_module(*argv):
    return subprocess.run([sys.executable, "-m", "boundarykit", *argv],
                          capture_output=True, text=True)


def test_module_entry_point_and_exit_codes():
    ok = _run_module("hypotheses", "dp", "--box", "z2:3:plain")
    assert ok.returncode == 0 and json.loads(ok.stdout)["pass"] is True
    bad = _run_module("boundary", "--box", "z2:oops", "--set", "[]", "--x", "0")
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("error:")


def test_repeat_runs_are_byte_identical():
    argv = ("verify", "k", "--box", "z2:7:plain", "--trials", "50",
            "--seed", "7", "--no-elapsed")
    first = _run_module(*argv)
    second = _run_module(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout and first.stdout.strip()
