"""Every CLI control, pinned: one row per command, run through ``cli.main``
(``verify`` with ``--no-elapsed``), with its exit code, its counts and the
sha256 of its stdout.  When a digest breaks, the counts (``_COUNTS``; the
line count for ``enumerate``) show whether a verdict moved or only the
bytes did.  Two runs under different hash seeds that both match a digest
gave byte-identical reports."""

import hashlib
import json

import pytest

from boundarykit.cli import main

_SKIP = "--probe plain --skip-hypotheses"
# a 16-cell ring around a plus-shaped hole of z2:9
_PLUS_RING = ("[[7,5],[7,6],[6,6],[6,7],[5,7],[4,7],[4,6],[3,6],[3,5],[3,4],[4,4],[4,3],"
              "[5,3],[6,3],[6,4],[7,4]]")

CONTROLS = [
    ("dp", f"verify dp --box z2:6:plain --max-size 5 {_SKIP}",
     1, (449, 449), "a92ec45a7c840caf2856c98fbf4e21c8a7b360e3dcefe5b274b27910a2bf747a"),
    ("k", "verify k --box z3:5:plain --trials 300 --seed 4 --x all-outside",
     0, (300, 0), "2447f7a03c76d0a8391240f5c048992d72f4dc750c3d732d713c1e7b2429909a"),
    ("dp-outside", f"verify dp --box z2:5:plain --max-size 8 --x all-outside {_SKIP}",
     1, (4570, 4565), "0f2588cc6973c0fd2c51e5b57b5ed491233662f7a7541bec51b62391c7d7c064"),
    ("dp-fixed", f"verify dp --box z2:7:plain --x [4,4] --max-size 4 {_SKIP}",
     1, (292, 292), "6f8bb90414282e262ad3160398808e5a21d2600f6718627980aec57f5a92f75b"),
    # a fixed observer on the surface at margin 2, which the outside joins
    # to the whole surface in its records
    ("dp-fixed-surface", f"verify dp --box z2:6:plain --x [1,1] --max-size 4 {_SKIP}",
     1, (205, 205), "b222aeb345baa8979eab1f41d9a31abaf12dd8c2a122406df4b0d6a77fdcbc36"),
    # one cell seen from a surface corner: the record's outer-visible set is
    # the cell's whole ring, the ℤ^d view
    ("dp-fixed-corner", f"verify dp --box z2:5:plain --x [1,1] --set [[2,2]] {_SKIP}",
     1, (1, 1), "260bc2a1f8705d6bc30a12bd86eb84486536b70da8792a23a3d4b522bebaa5a2"),
    ("k-apex", "verify k --box z2:6:plain --max-size 4 --gplus plain --skip-hypotheses",
     1, (205, 205), "5765d3d160d5ca92a782649f6313595cd3486c54b93d0b631be01f21c203467f"),
    # fixed observers below margin 2, judged on the box without the apex
    ("dp-fixed-margin0", f"verify dp --box z2:5:plain --x [1,1] --margin 0 --max-size 4 {_SKIP}",
     1, (366, 359), "ad3a95a7e4fffb23b30ea1cd0229a1f1224bed22a22adc39a60574ce1f5ef431"),
    ("dp-fixed-margin0-pass", "verify dp --box z2:5:plain --x [1,1] --margin 0 --max-size 5",
     0, (900, 0), "c98a28ab7bc5e60d49824c047e22ed768d26ac55844cf0a9177c08ff724af2fe"),
    # a wall on the surface at margin 1, judged on the box itself: seen from
    # (1, 1) its visible boundary is three probe components
    ("dp-wall-margin1", "verify dp --box z2:5:plain --x [1,1] --margin 1 "
     f"--set [[3,1],[3,2],[3,3],[3,4],[3,5],[2,3]] {_SKIP}",
     1, (1, 1), "1fddf73e5dc867944dc18e3cff0b83a0d56bed5272307f320f055a96b6ff146b"),
    # on z2:2 the king box's one long diagonal is a star, which its tiles lay
    # down as a one-edge shift; with plain adjacency the plans have no star
    ("k-side2-star", "verify k --box z2:2:plain --x [1,1] --margin 0 --max-size 2",
     0, (6, 0), "f7b001494149f01ef767cbbf68de40e919c4fec0aea814af06f37d8903705231"),
    ("k-side2-plain-adjacency", "verify k --box z2:2:plain --x [1,1] --margin 0 --max-size 2 "
     "--gplus plain --skip-hypotheses",
     1, (5, 3), "659f2569b92bfec17c07bc442ee7ab4f5026f159273117203c182b6a2ebb708c"),
    # passing exhaustive apex campaigns, which count each shape's translates:
    # their placement totals are the trial counts
    ("dp-apex", "verify dp --box z2:9:plain --max-size 8",
     0, (61167, 0), "a66072b9ca21d84129ff2ec7c0b9a58f8fb3178f4034b636e12bc11483f9d791"),
    ("k-apex-z3", "verify k --box z3:7:plain --max-size 4",
     0, (180323, 0), "4fb4491315ba2f15ec8189f3be52bec0b7429bce7ab2d25cfdf15cbe7a0d3078"),
    ("dp-apex-z3", "verify dp --box z3:7:plain --max-size 6",
     0, (165854, 0), "3c36ef0ba19a3cc7412108da5de59014a8c5a0032bb7d7f5c2a9deeef8b9c7db"),
    # the batch judge on copies of 625 bits, and at a margin other than 2
    ("dp-apex-z4", "verify dp --box z4:5:plain --max-size 4",
     0, (6285, 0), "362c8b4abe1bd03027b080265d9123399aa3b41b7fd3433aac77f94f0540d9d3"),
    ("k-apex-margin3", "verify k --box z3:8:plain --max-size 4 --margin 3",
     0, (58764, 0), "063113de2b8397fe4d7be4713433128b51180153c46b869a953283b7c16c7d66"),
    # frontier shape passes: every polyomino of ≤ 9 cells and every polyplet
    # of ≤ 8 cells, each judged once
    ("dp-apex-n9", "verify dp --box z2:11:plain --max-size 9",
     0, (441117, 0), "7495f964568875a93991d20eba5ce43f76b214c9193d4a97507f53c36f61a5a0"),
    ("k-apex-n8", "verify k --box z2:10:plain --max-size 8",
     0, (2880731, 0), "b41a8a1baa51419992030aad077f4f5ff2b6eb97368bf808dd249882b8d03fe9"),
    # a failing exhaustive apex campaign, whose failing shapes have many translates:
    # the walk batch-judges every subset again and records every failing one
    ("dp-apex-fail", f"verify dp --box z2:9:plain --max-size 6 {_SKIP}",
     1, (7150, 7150), "86d873d57fd6fa1b4e90c4ab5617b265c07ca03ffe40ca29a6308e9b6514c7b1"),
    # passing exhaustive all-outside campaigns: the batch judge takes each
    # subset in rounds, one copy per observer component
    ("dp-outside-pass", "verify dp --box z2:9:plain --max-size 6 --x all-outside",
     0, (547370, 0), "559724082eae72bd8b0fd604017de6fc2770cf964702a4068b627eeb68155f1f"),
    ("k-outside-pass", "verify k --box z2:8:plain --max-size 5 --x all-outside",
     0, (590881, 0), "84c2ff4361d4112fef08863ce82d748607f272657f4aaf631dffde9d32747f1e"),
    ("k-outside-z3", "verify k --box z3:6:plain --max-size 4 --x all-outside",
     0, (12522620, 0), "a5f7deeb7dddf0d57f33ec284b3f7aab568c7df38905a473830669a66f6e5f3c"),
    # the ring around a plus-shaped hole: the only control whose hole fails,
    # judged in a second round
    ("dp-plus-hole", f"verify dp --box z2:9:plain --x all-outside --set {_PLUS_RING} {_SKIP}",
     1, (66, 66), "382ff1726b2120d258b651465a2e3084a09d208eee42b779ea5f78b58bfb6996"),
    # one fixed observer in that hole: the surface round settles none of its
    # observers, and a second round floods from it
    ("dp-fixed-hole", f"verify dp --box z2:9:plain --x [5,5] --set {_PLUS_RING} {_SKIP}",
     1, (1, 1), "2fe58eb07789aefe804c73a27697fc8370768978bbf4cbf92dd12e36425444b6"),
    # report bytes that carry sampler draws: random trials, every one failing, each
    # record its subset (all-outside draws observers by rank); each trial's one
    # observer is judged as one copy of a tiled batch, so these are batched verdicts
    ("dp-random", f"verify dp --box z2:7:plain --trials 300 --seed 3 --x all-outside {_SKIP}",
     1, (300, 300), "fcaf7f9d66c47aca6c76ac6d258b96da4a5054ab110eb6fd693cc6ac3642bfde"),
    ("dp-random-apex", f"verify dp --box z2:7:plain --trials 300 --seed 5 --max-size 3 {_SKIP}",
     1, (300, 300), "f5021bac980951cb7a6448e01023d36f8233e46cc0a9b1b16c233ba20cfc2d51"),
    ("k-random-fail", "verify k --box z3:5:plain --trials 300 --seed 4 --x all-outside "
     "--gplus plain --skip-hypotheses",
     1, (300, 300), "2d2db67a770ce325672e2572a82229d27c90ce2ba62cd97e73a1fb008c61e8d3"),
    ("dp-random-fixed", "verify dp --box z2:7:plain --x [4,4] --trials 300 --seed 6 "
     f"--max-size 5 {_SKIP}",
     1, (300, 300), "b31b5c79c76eaa5952a34f9740032dfd41d3e23ed2a34dad0dc4d09b6e9566b8"),
    # premise verdicts: (generators, patch cycles), None where dp has none
    ("hyp-k-z3", "hypotheses k --box z3:7:plain",
     0, (756, 2376), "d94aa975c86b3b0a2a19e5f24615d5d8721aa3b2f8c137b83b545aad8e9f9560"),
    ("hyp-k-z4", "hypotheses k --box z4:4:plain",
     0, (864, 4104), "5d66ae65473acce2558ab141389f5da8a120c84e9fc505922fb89763805a4e26"),
    ("hyp-dp-z4", "hypotheses dp --box z4:5:plain",
     0, (2400, None), "091ba612f9fc7cc544c3c7d8a5d86c041f472f712a4c148838211c3727400cde"),
    ("hyp-dp-plain-probe", "hypotheses dp --box z3:4:plain --probe plain",
     1, (108, None), "18ad11159d9757d226dd353e695efaa20823475164222ddbb768ae2b4afbf9cf"),
    ("hyp-k-plain-adjacency", "hypotheses k --box z3:5:plain --gplus plain",
     1, (240, 0), "41a3d4d6040031b0533223508a866d092abc8c2f475c25695f7a744c9f0c8f21"),
    # the enumerator's listing, whose order failure-record trial indices rest on
    ("enumerate", "enumerate --box z3:5:plain --max-size 4 --margin 1",
     0, 6928, "7014d376dee5ec4484e14f8fa2a7fdf73092279007b52bc1541f741b78bebf7a"),
    # the boundary subcommand's one report: four probe components
    ("boundary", "boundary --box z2:5:plain --set [[3,3]] --x apex",
     0, (4, [[3, 2], [2, 3]]), "a91dfa6e495e5431fb0bed1d8f0708258b766a8fb1826c956a1031356b07abdb"),
]

_COUNTS = {
    "verify": lambda report: (report["trials_run"], len(report["failures"])),
    "hypotheses": lambda report: (report["generators"], report.get("patch_cycles")),
    "boundary": lambda report: (report["components"], report["witness"]),
}


@pytest.mark.parametrize("command, want_exit, counts, digest",
                         [row[1:] for row in CONTROLS], ids=[row[0] for row in CONTROLS])
def test_control(capsys, command, want_exit, counts, digest):
    argv = command.split() + ["--no-elapsed"] * command.startswith("verify")
    code = main(argv)
    out, err = capsys.readouterr()
    got = out.count("\n") if argv[0] == "enumerate" else _COUNTS[argv[0]](json.loads(out))
    assert (code, err, got) == (want_exit, "", counts)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
