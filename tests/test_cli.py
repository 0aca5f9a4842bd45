import contextlib
import importlib.util
import io
import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bruteforce as bf
from vclabels import setsystem
from vclabels.cli import _parse, build_parser, main
from vclabels.harness import IctTensor, IctWitness, build_ict_tensor
from vclabels.labelcalc import avoid_family
from vclabels.orderformula import Top
from vclabels.setsystem import SetSystem, _count_words


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MIXED = "ground 3\n000\n100\n110\n001\n"


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text(MIXED, encoding="utf-8")
    return str(path)


def test_compile_subcommand(capsys):
    code, out, _ = run_cli(capsys, "compile", "--label", "101")
    assert code == 0
    assert out == "formula (x!=x | x>y1) & x<y2\nexpression (a,b)\n"


def test_avoid_subcommand(capsys):
    code, out, _ = run_cli(capsys, "avoid", "--label", "0", "--ground", "4")
    assert code == 0
    assert out == "ground 4\n1111\n"


def test_avoid_round_trips_through_classify(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "avoid", "--label", "101", "--ground", "4")
    assert code == 0
    path = tmp_path / "fam.txt"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 0
    assert "vc_dimension 2" in out
    assert "is_maximum true" in out
    assert "is_maximal true" in out
    assert "members 11" in out


def test_avoid_on_ground_zero_round_trips_through_classify(capsys, tmp_path):
    # The one member of the ground-0 family is a blank line after the header.
    code, out, _ = run_cli(capsys, "avoid", "--label", "1", "--ground", "0")
    assert (code, out) == (0, "ground 0\n\n")
    path = tmp_path / "fam.txt"
    path.write_text(out, encoding="utf-8")
    assert run_cli(capsys, "classify", "--in", str(path)) == (
        0,
        "ground 0\nmembers 1\nvc_dimension 0\nis_maximum true\n"
        "is_maximal true\nsauer_profile 0:1\n",
        "",
    )
    assert run_cli(capsys, "labels", "--in", str(path)) == (
        0, "dimension 0\nconstant vacuous\n", ""
    )


def _family_text(m, words):
    return f"ground {m}\n" + "".join("".join(map(str, word)) + "\n" for word in words)


def test_avoid_prints_the_family_text(capsys):
    for length in range(1, 6):
        for eta in itertools.product((0, 1), repeat=length):
            label = "".join(map(str, eta))
            for m in range(13):
                text = avoid_family(m, eta).to_text()
                if m <= 8:
                    assert text == _family_text(m, sorted(bf.avoid_members(m, eta)))
                argv = ["avoid", "--label", label, "--ground", str(m)]
                assert run_cli(capsys, *argv) == (0, text, "")


@pytest.mark.parametrize(
    "label, ground", [("1010", 20), ("10101", 16), ("110100", 18), ("1" * 13, 12)]
)
def test_avoid_writes_the_header_and_then_one_string_per_block(monkeypatch, label, ground):
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["avoid", "--label", label, "--ground", str(ground)]) == 0
    family = avoid_family(ground, tuple(map(int, label)))
    assert "".join(writes) == family.to_text()
    assert SetSystem.from_text("".join(writes)) == family
    assert writes[0] == f"ground {ground}\n"
    lines = [text.count("\n") for text in writes[1:]]
    full = setsystem.BLOCK_WORDS
    assert len(lines) >= 2
    assert all(count in (full, full + 1) for count in lines[:-1])


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--ground", "21"], "error: size guard: family on ground 21 exceeds cap 20\n"),
        (["--ground", "-1"], "error: ground size must be nonnegative\n"),
        (
            ["--ground", "4", "--label", "1a"],
            "error: a label literal is a nonempty string over 0/1, got '1a'\n",
        ),
    ],
    ids=["ground-21", "ground-minus-1", "bad-label"],
)
def test_avoid_prints_nothing_on_an_error(capsys, argv, err):
    # The checks run before the header is written.
    assert run_cli(capsys, "avoid", "--label", "101", *argv) == (2, "", err)


def test_avoid_exits_quietly_when_the_reader_closes_after_the_first_block():
    proc = subprocess.Popen(
        [sys.executable, "-m", "vclabels", "avoid", "--label", "1" * 21, "--ground", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = _family_text(20, itertools.islice(itertools.product((0, 1), repeat=20), 1024))
    try:
        assert proc.stdout.read(len(first)) == first.encode()
    finally:
        proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (2, b"")


# Runs the command in its arguments and prints its exit status and peak
# RSS.  A child forked from the test process would count that process's
# memory in its peak.
PEAK_RSS = """
import resource, subprocess, sys
status = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
print(status, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_avoid_of_a_million_lines_holds_no_family():
    # Building the family, its lines and the whole text peaks near 360 MB.
    argv = ["-m", "vclabels", "avoid", "--label", "1" * 21, "--ground", "20"]
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, sys.executable, *argv],
        capture_output=True, text=True, check=True,
    )
    status, peak_kb = map(int, done.stdout.split())
    assert status == 0
    assert peak_kb < 48 * 1024


def test_labels_names_subsets_that_are_not_locally_maximum(capsys, tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text("ground 3\n000\n111\n", encoding="utf-8")
    assert run_cli(capsys, "labels", "--in", str(path)) == (
        0,
        "dimension 1\nsubset 0,1 not-locally-maximum\nsubset 0,2 not-locally-maximum\n"
        "subset 1,2 not-locally-maximum\nconstant no\n",
        "",
    )


def test_classify_above_ground_16_when_the_maximum_test_settles_it(capsys, tmp_path):
    code, text, _ = run_cli(capsys, "avoid", "--label", "1010", "--ground", "20")
    path = tmp_path / "fam.txt"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, "classify", "--in", str(path))
    assert code == 0
    assert "members 1351\nvc_dimension 3\nis_maximum true\nis_maximal true\n" in out
    # Less one member, or with a second member on ground 17, a family needs
    # the fold, which the cap bounds.
    less_one = text.rsplit("\n", 2)[0] + "\n"
    two_members = f"ground 17\n{'0' * 17}\n{'1' * 17}\n"
    for text, m in ((less_one, 20), (two_members, 17)):
        path.write_text(text, encoding="utf-8")
        assert run_cli(capsys, "classify", "--in", str(path)) == (
            2, "", f"error: size guard: classification on ground {m} exceeds cap 16\n"
        )


def test_verify_l2(capsys):
    code, out, _ = run_cli(capsys, "verify", "l2", "--label", "101", "--pairs", "4")
    assert code == 0
    assert out == "PASS family=11 expected=11\n"


def test_verify_l2_at_the_pair_cap(capsys, monkeypatch):
    # No verdict builds a family, so the enumeration ground cap does not
    # bound the pair count.
    code, out, _ = run_cli(capsys, "verify", "l2", "--label", "10101", "--pairs", "20")
    assert code == 0
    assert out == "PASS family=6196 expected=6196\n"
    code, out, _ = run_cli(capsys, "verify", "l2", "--label", "10101", "--pairs", "21")
    assert code == 0
    assert out == "PASS family=7547 expected=7547\n"
    code, out, _ = run_cli(capsys, "verify", "l2", "--label", "10" * 64, "--pairs", "1000")
    assert code == 0
    assert out.startswith("PASS family=")
    # A failure's size is a count of words, so it is not bounded either.
    monkeypatch.setattr("vclabels.labelcompiler.compile_label", lambda eta: Top())
    code, out, _ = run_cli(capsys, "verify", "l2", "--label", "10101", "--pairs", "21")
    assert code == 1
    assert out == "FAIL family=1 expected=7547\n"
    code, out, _ = run_cli(capsys, "verify", "l2", "--label", "10101", "--pairs", "1000")
    assert code == 1
    assert out == "FAIL family=1 expected=41583792251\n"


def test_verify_l2_takes_labels_longer_than_five_bits(capsys):
    code, out, _ = run_cli(capsys, "verify", "l2", "--label", "101010", "--pairs", "4")
    assert code == 0
    assert out == "PASS family=16 expected=16\n"


def test_verify_t2(capsys):
    code, out, _ = run_cli(capsys, "verify", "t2", "--depth", "2", "--cols", "3")
    assert code == 0
    assert out == "PASS witnesses=9 family=3 expected=3\n"


def test_verify_sauer(capsys):
    code, out, _ = run_cli(capsys, "verify", "sauer", "--label", "101", "--ground", "8")
    assert code == 0
    assert out == "PASS cases=9\n"
    # The sizes are word counts, so the enumeration ground cap does not apply.
    for ground in (21, 1000):
        code, out, _ = run_cli(capsys, "verify", "sauer", "--label", "101", "--ground", str(ground))
        assert (code, out) == (0, f"PASS cases={ground + 1}\n")


@pytest.mark.parametrize("ground", ["-1", "-5"])
def test_verify_sauer_rejects_a_negative_ground(capsys, tmp_path, ground):
    # A verifier that checks no ground must not pass.
    report = tmp_path / "report.txt"
    code, out, err = run_cli(
        capsys, "verify", "sauer", "--label", "101", "--ground", ground,
        "--report", str(report),
    )
    assert (code, out, err) == (2, "", "error: ground size must be nonnegative\n")
    assert not report.exists()
    assert run_cli(capsys, "avoid", "--label", "101", "--ground", ground) == (
        code, out, err
    )


def test_verify_report_file(capsys, tmp_path):
    report = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, "verify", "l2", "--label", "101", "--pairs", "4",
        "--report", str(report),
    )
    assert code == 0
    assert (
        report.read_text(encoding="utf-8")
        == "claim=l2 label=101 pairs=4 family=11 expected=11 pass=true\n"
    )


def test_verify_prints_no_verdict_when_its_report_cannot_be_written(capsys, tmp_path):
    report = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(
        capsys, "verify", "sauer", "--label", "10", "--report", str(report)
    )
    assert (code, out) == (2, "")
    assert err == f"error: file: [Errno 2] No such file or directory: '{report}'\n"


def _count_words_missing_the_empty_word(levels, start, step):
    return [0, *_count_words(levels, start, step)[1:]]


def _ict_tensor_with_flipped_bit(depth, cols):
    tensor = build_ict_tensor(depth, cols)
    first = tensor.witnesses[0]
    row = (1 - first.sat[0][0],) + first.sat[0][1:]
    flipped = IctWitness(first.path, (row,) + first.sat[1:])
    return IctTensor(depth, cols, (flipped,) + tensor.witnesses[1:])


@pytest.mark.parametrize(
    "target, fake, argv, expected",
    [
        (
            "vclabels.cli._count_words",
            _count_words_missing_the_empty_word,
            ["sauer", "--label", "101", "--ground", "8"],
            "FAIL cases=9 first_failure=0\n",
        ),
        (
            "vclabels.labelcompiler.compile_label",
            lambda eta: Top(),
            ["l2", "--label", "101", "--pairs", "4"],
            "FAIL family=1 expected=11\n",
        ),
        (
            "vclabels.cli.build_ict_tensor",
            _ict_tensor_with_flipped_bit,
            ["t2", "--depth", "2", "--cols", "3"],
            "FAIL witnesses=9 family=0 expected=3\n",
        ),
    ],
    ids=["sauer", "l2", "t2"],
)
def test_verify_negative_controls(
    capsys, monkeypatch, tmp_path, target, fake, argv, expected
):
    monkeypatch.setattr(target, fake)
    report = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "verify", *argv, "--report", str(report))
    assert code == 1
    assert out == expected
    assert report.read_text(encoding="utf-8").endswith(" pass=false\n")


def test_translate_both_directions(capsys):
    code, out, _ = run_cli(capsys, "translate", "--label", "11001010")
    assert code == 0
    assert out == "expression {a} u (b,d)\\{c} u (e,f) u (g,inf)\n"

    code, out, _ = run_cli(
        capsys, "translate", "--expr", "(-inf,b)\\{a} u {c,d} u (e,f)"
    )
    assert code == 0
    assert out == "label 0011101\n"


def test_label_subcommand(capsys):
    code, out, _ = run_cli(capsys, "label", "--formula", "x<y1", "--arity", "1")
    assert code == 0
    assert out == "label 01\n"
    code, out, _ = run_cli(capsys, "label", "--formula", "x>y1 & x<y2")
    assert code == 0
    assert out == "label 101\n"
    assert run_cli(capsys, "label", "--formula", "x<y2", "--arity", "1") == (
        2, "", "error: declared arity 1 is below the formula arity 2\n"
    )


def test_label_round_trips_a_compiled_100_bit_label(capsys):
    bits = "".join(random.Random(8).choice("01") for _ in range(100))
    code, out, _ = run_cli(capsys, "compile", "--label", bits)
    assert code == 0
    formula = out.splitlines()[0].removeprefix("formula ")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "vclabels", "label", "--formula", formula],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout, done.stderr) == (0, f"label {bits}\n", "")
    assert elapsed < 1.0


def test_classify_subcommand(capsys, mixed_file):
    code, out, _ = run_cli(capsys, "classify", "--in", mixed_file)
    assert code == 0
    assert out.splitlines() == [
        "ground 3",
        "members 4",
        "vc_dimension 1",
        "is_maximum true",
        "is_maximal true",
        "sauer_profile 0:1 1:2 2:3 3:4",
    ]


def test_labels_subcommand(capsys, mixed_file):
    code, out, _ = run_cli(capsys, "labels", "--in", mixed_file)
    assert code == 0
    assert out.splitlines() == [
        "dimension 1",
        "subset 0,1 label 01",
        "subset 0,2 label 11",
        "subset 1,2 label 11",
        "constant no",
    ]


def test_labels_constant_family(capsys, tmp_path):
    path = tmp_path / "bounded.txt"
    path.write_text(SetSystem.size_at_most(4, 1).to_text(), encoding="utf-8")
    code, out, _ = run_cli(capsys, "labels", "--in", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "constant yes 11"


def test_a_power_set_has_no_forbidden_labels(capsys, tmp_path):
    path = tmp_path / "power.txt"
    path.write_text(SetSystem.power_set(3).to_text(), encoding="utf-8")
    code, out, _ = run_cli(capsys, "labels", "--in", str(path))
    assert (code, out) == (0, "dimension 3\nconstant vacuous\n")
    code, out, err = run_cli(capsys, "homogenize", "--in", str(path))
    assert (code, out) == (2, "")
    assert "the family shatters its whole ground" in err


def test_homogenize_subcommand(capsys, mixed_file):
    code, out, _ = run_cli(capsys, "homogenize", "--in", mixed_file)
    assert code == 0
    assert out == "subset 1,2\nlabel 11\nsize 2\n"


def test_homogenize_of_a_permuted_family_at_ground_20(capsys, tmp_path):
    # Points 0-19 of avoid 10 (the words 0...01...1) reordered: the pair
    # {i, j} with i < j carries 10 if order[i] < order[j] and 01 otherwise,
    # so a homogeneous set is a monotone subsequence of order.  The longest
    # here falls through 10 points; this is the lex-least mask of those,
    # as the exhaustive oracle finds.  Taking points greedily from the left
    # stops at 0-3.
    order = [18, 16, 5, 0, 11, 14, 15, 19, 12, 10, 2, 4, 9, 8, 7, 13, 3, 1, 6, 17]
    family = SetSystem.from_masks(
        20, (tuple(mask[j] for j in order) for mask in avoid_family(20, (1, 0)).members)
    )
    path = tmp_path / "permuted.txt"
    path.write_text(family.to_text(), encoding="utf-8")
    code, out, _ = run_cli(capsys, "homogenize", "--in", str(path))
    assert code == 0
    assert out == "subset 0,1,6,8,9,12,13,14,16,17\nlabel 01\nsize 10\n"


def test_labels_and_homogenize_of_a_settled_family_at_ground_20(tmp_path):
    # The shatter search gives these labels; a scan of every 5-subset took
    # about 9 s for each command.
    eta = (1, 0, 1, 0, 1)
    family = avoid_family(20, eta)
    path = tmp_path / "avoid.txt"
    path.write_text(family.to_text(), encoding="utf-8")
    first, last = tuple(range(5)), tuple(range(15, 20))
    assert bf.forbidden(family.members, first) == bf.forbidden(family.members, last) == eta
    outputs = {}
    for command in ("labels", "homogenize"):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "vclabels", command, "--in", str(path)],
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - start
        assert (done.returncode, done.stderr) == (0, "")
        assert elapsed < 3.0, f"{command} took {elapsed:.2f}s"
        outputs[command] = done.stdout.splitlines()
    lines = outputs["labels"]
    assert len(lines) == 2 + math.comb(20, 5)
    assert lines[:2] == ["dimension 4", "subset 0,1,2,3,4 label 10101"]
    assert lines[-2:] == ["subset 15,16,17,18,19 label 10101", "constant yes 10101"]
    assert outputs["homogenize"] == [
        f"subset {','.join(map(str, range(20)))}", "label 10101", "size 20"
    ]


def test_usage_errors_exit_2(capsys):
    for claim in ("sauer", "l2"):
        assert run_cli(capsys, "verify", claim) == (
            2, "", f"error: usage: verify {claim} requires --label\n"
        )
    assert run_cli(capsys, "compile")[0] == 2
    assert run_cli(capsys, "nosuch")[0] == 2
    assert run_cli(capsys, "translate", "--label", "1", "--expr", "{}")[0] == 2


# Command lines of every shape the benchmark and tools/cli_parity.py run.
PLAIN_ARGVS = [
    ["classify", "--in", "family.txt"],
    ["labels", "--in", "family.txt"],
    ["homogenize", "--in", "family.txt"],
    ["label", "--formula", "x>y1 & x<y2"],
    ["label", "--formula", "!(x!=x | x>y1)", "--arity", "1"],
    ["compile", "--label", "101"],
    ["translate", "--label", "11001010"],
    ["translate", "--expr", "(-inf,g)\\{a} u {h} u (i,j)"],
    ["avoid", "--label", "1010", "--ground", "20"],
    ["verify", "sauer", "--label", "101", "--ground", "8"],
    ["verify", "sauer", "--label", "101", "--ground", "8", "--report", "report"],
    ["verify", "sauer", "--report", "report"],  # the handler's usage error
    ["verify", "l2", "--label", "101", "--pairs", "4", "--report", "report"],
    ["verify", "t2"],
    ["verify", "t2", "--depth", "2", "--cols", "3", "--report", "report"],
]
INT_FLAGS = {"--ground", "--pairs", "--depth", "--cols", "--arity"}


def _perturbed(argv):
    """Command lines one edit away from ``argv``, most of which argparse reads
    differently from plain ``--flag value`` pairs or refuses."""
    for i in (i for i in range(1, len(argv) - 1) if argv[i].startswith("--")):
        flag, value = argv[i], argv[i + 1]
        yield argv[:i] + [flag[:-1]] + argv[i + 1:]  # abbreviated
        yield argv[:i] + [f"{flag}={value}"] + argv[i + 2:]
        yield argv + [flag, value]  # repeated
        yield argv[:i] + argv[i + 2:]  # missing
        yield argv[:i + 1]  # no value
        for bad in ("-1", "-", "--x", "-5", ""):
            yield argv[:i + 1] + [bad] + argv[i + 2:]
        if flag in INT_FLAGS:
            for bad in ("x", "1.5", "0x10", " 7 ", "1_0", "+3"):
                yield argv[:i + 1] + [bad] + argv[i + 2:]
    for i in range(len(argv) + 1):
        for word in ("--", "-h", "--help", "extra", "sauer"):
            yield argv[:i] + [word] + argv[i:]
    if argv[0] == "verify":
        yield [argv[0], *argv[2:], argv[1]]  # the claim after the options
        yield [argv[0], *argv[2:]]  # no claim
        yield [argv[0], "nosuch", *argv[2:]]
    if argv[0] == "translate":
        yield ["translate"]
        yield ["translate", "--label", "1", "--expr", "{}"]
        yield ["translate", "--expr", "{}", "--label", "1"]
    yield ["nosuch", *argv[1:]]
    yield [argv[0][:-1], *argv[1:]]
    yield argv[1:]


def _argparse_args(argv):
    """What argparse gives for ``argv``, as a dict, or None if it exits."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


def test_plain_command_lines_skip_argparse():
    for argv in PLAIN_ARGVS:
        assert _parse(argv) == _argparse_args(argv) is not None, argv


@pytest.mark.parametrize("argv", PLAIN_ARGVS, ids=" ".join)
def test_the_table_parser_reads_like_argparse_or_defers_to_it(argv):
    for case in _perturbed(argv):
        parsed = _parse(case)
        assert parsed is None or parsed == _argparse_args(case), case


FLAGS = [
    "--in", "--label", "--expr", "--ground", "--pairs", "--depth", "--formula", "--arity",
    "--report", "--lab", "--ground=3", "--", "-h", "sauer",
]
VALUES = ["10", "2", " 3", "x", "", "-1", "--label", "l2"]


@given(
    st.sampled_from(["verify", "translate", "avoid", "label", "classify", "nosuch"]),
    st.lists(st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)), max_size=4),
    st.sampled_from([[], ["sauer"], ["t2"], ["x"]]),
    st.integers(0, 8),
)
def test_the_table_parser_on_random_command_lines(command, pairs, claim, at):
    words = [word for pair in pairs for word in pair]
    argv = [command, *words[:at], *claim, *words[at:]]
    parsed = _parse(argv)
    assert parsed is None or parsed == _argparse_args(argv)


def test_every_benchmark_command_line_skips_argparse(tmp_path):
    path = Path(__file__).parents[1] / "perfbench" / "workload_gen.py"
    spec = importlib.util.spec_from_file_location("workload_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for workload in ("cli-classify", "cli-enumerate"):
        for index in range(3):
            for job in gen.cli_round(workload, 1, index, tmp_path, "in"):
                assert _parse(job["argv"]) is not None, job


def test_bad_label_literal_exit_2(capsys):
    code, _, err = run_cli(capsys, "compile", "--label", "abc")
    assert code == 2
    assert "error:" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--in", "/nonexistent/file.txt")
    assert code == 2
    assert err.startswith("error: file:")


def test_family_file_that_is_not_utf8_is_a_file_error(capsys, tmp_path):
    path = tmp_path / "family.txt"
    path.write_bytes(b"ground 3\n\xff01\n")
    reason = "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"
    for command in ("classify", "labels", "homogenize"):
        code, out, err = run_cli(capsys, command, "--in", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: file: {path}: {reason}\n"


def test_size_guard_exit_2(capsys):
    code, _, err = run_cli(capsys, "avoid", "--label", "1", "--ground", "21")
    assert code == 2
    assert err.startswith("error: size guard:")


def test_long_label_is_a_size_guard_error(capsys):
    for argv in (["compile", "--label"], ["verify", "l2", "--label"]):
        code, out, err = run_cli(capsys, *argv, "10" * 600)
        assert code == 2
        assert out == ""
        assert err == "error: size guard: label of 1200 bits exceeds cap 128\n"


def test_deep_formula_is_a_syntax_error(capsys):
    code, out, err = run_cli(capsys, "label", "--formula", "!" * 1000 + "x<y1")
    assert code == 2
    assert out == ""
    assert err == "error: formula nests deeper than 200 levels (position 200)\n"


@pytest.mark.parametrize(
    "argv",
    [["compile", "--label", "1010"], ["avoid", "--label", "10101", "--ground", "20"]],
)
def test_closed_stdout_is_quiet(argv):
    # A buffered stdout whose reader is gone before the first write: the
    # short output fails at the final flush, the long one while printing.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "vclabels", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, b"")


def test_module_invocation_deterministic():
    command = [sys.executable, "-m", "vclabels", "compile", "--label", "1010"]
    first = subprocess.run(command, capture_output=True, text=True)
    second = subprocess.run(command, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout == "formula (x!=x | x>y1) & x<y2 | x>y3\nexpression (a,b) u (c,inf)\n"
