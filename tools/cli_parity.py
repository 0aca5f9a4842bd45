"""Fingerprint the CLI's output on a fixed sweep of inputs.

Usage: python tools/cli_parity.py [--in-process] SRC_DIR > out.txt

Runs ``python -m vclabels`` from the package under SRC_DIR (a ``src``
directory) once per case, one case at a time, each in a fresh temporary
directory that holds the case's input file and ``--report`` file.  Prints
one line per case: the case id, the exit status, and the SHA-256 digests of
stdout, stderr and the report file ("-" when the case writes none).  Run it
on two trees and ``diff`` the outputs to see which cases changed.

With ``--in-process`` each case calls ``vclabels.cli.main`` in this
process instead, with stdout and stderr captured, which is about twenty
times faster and gives the same lines; only a change to start-up needs the
fresh processes.  ``tools/cli_parity.txt`` holds the sweep of the current
tree, and a tier-1 test compares the in-process sweep with it.  Both modes
run with ``COLUMNS=80``, so argparse wraps its help the same way whatever
the terminal.

The set-system files are written here, with a subsequence test and a
prefix matcher of its own for the avoidance families, so no input comes
from the package under test.  Standard library only.

The last cases are help and usage errors, which argparse prints, and
command lines in other forms than plain ``--flag value`` pairs, such as
``--ground=4``.

A case may take an argument from an earlier case's stdout: ``label``
cases read the formula the last ``compile`` case printed, and
``translate --expr`` cases the expression the last ``translate --label``
case printed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

FAMILY_LABELS = ("10", "011", "101", "1010", "0110", "11001")
LONG_LABEL = "10" * 64
# Arguments filled in from the first stdout line of an earlier case.
FORMULA, EXPRESSION = "<formula>", "<expression>"
PRINTED = {
    ("compile", "--label"): ("formula ", FORMULA),
    ("translate", "--label"): ("expression ", EXPRESSION),
}


def labels(most_bits: int):
    """Every label of 1 to ``most_bits`` bits, shortest first."""
    for length in range(1, most_bits + 1):
        for bits in itertools.product("01", repeat=length):
            yield "".join(bits)


def avoids(word: str, label: str) -> bool:
    """True iff ``label`` is not a subsequence of ``word``."""
    rest = iter(word)
    return not all(bit in rest for bit in label)


def family_text(m: int, words) -> str:
    return "".join(f"{line}\n" for line in [f"ground {m}", *sorted(set(words))])


def permuted_avoidance(m: int, label: str, rng: random.Random) -> list[str]:
    """The words avoiding ``label`` on m points, under a random permutation."""
    order = list(range(m))
    rng.shuffle(order)
    words = ("".join(bits) for bits in itertools.product("01", repeat=m))
    return ["".join(word[j] for j in order) for word in words if avoids(word, label)]


def family_cases():
    """(case id, file text) for every family the sweep classifies."""
    rng = random.Random(1301)
    for m in range(8, 15):
        for label in FAMILY_LABELS:
            words = permuted_avoidance(m, label, rng)
            yield f"avoid-{label}-g{m}", family_text(m, words)
            words.pop(rng.randrange(len(words)))
            yield f"avoid-{label}-g{m}-less1", family_text(m, words)
    for m in range(1, 13):
        count = rng.randint(1, 2**m)
        values = rng.sample(range(2**m), count)
        words = (format(v, f"0{m}b") for v in values)
        yield f"random-g{m}-n{count}", family_text(m, words)
    for m in range(5):
        # On ground 0 the one member is a blank line after the header.
        yield f"power-g{m}", family_text(m, map("".join, itertools.product("01", repeat=m)))
    yield "one-g17", family_text(17, ["1" + "0" * 16])


def avoiding_words(m: int, label: str) -> list[str]:
    """The words of m bits avoiding ``label``, in lexicographic order.

    Each prefix carries the length of the longest prefix of ``label`` it
    contains as a subsequence, so no 2^m scan is needed.
    """
    words = [("", 0)]
    for _ in range(m):
        grown = (
            (word + bit, matched + (bit == label[matched]))
            for word, matched in words
            for bit in "01"
        )
        words = [(word, matched) for word, matched in grown if matched < len(label)]
    return [word for word, _ in words]


def large_family_cases():
    """(case id, file text, commands) above ground 16 and on ground 0.

    The avoidance families are maximum, also when permuted; each less one
    member is not, and needs the fold that the classify cap bounds.
    """
    rng = random.Random(1501)
    commands = ("classify", "labels", "homogenize")
    for m in (17, 20):
        for label in labels(4):
            words = avoiding_words(m, label)
            yield f"avoid-{label}-g{m}", family_text(m, words), commands
            words.pop(rng.randrange(len(words)))
            yield f"avoid-{label}-g{m}-less1", family_text(m, words), commands
    yield "empty-g0", "ground 0\n", commands
    yield "power-g0-comments", "# one blank member\n\nground 0\n# c\n\n\n", commands
    for m in (17, 20):
        for label in (label for label in FAMILY_LABELS if len(label) <= 4):
            order = list(range(m))
            rng.shuffle(order)
            words = ("".join(word[j] for j in order) for word in avoiding_words(m, label))
            yield f"avoid-{label}-g{m}-permuted", family_text(m, words), commands
    for label in ("10101", "11001"):
        yield f"avoid-{label}-g20", family_text(20, avoiding_words(20, label)), commands


def swapped_cases():
    """(case id, file text, commands) of permuted avoidance families with one
    member swapped for an absent word: Sauer-sized, and not maximum."""
    rng = random.Random(1801)
    commands = ("classify", "labels", "homogenize")
    for m in range(8, 15):
        for label in FAMILY_LABELS:
            words = permuted_avoidance(m, label, rng)
            absent = sorted(set(map("".join, itertools.product("01", repeat=m))) - set(words))
            words[rng.randrange(len(words))] = rng.choice(absent)
            yield f"avoid-{label}-g{m}-swap1", family_text(m, words), commands


def sized_cases():
    """(case id, file text, commands) of the families of at most m // 2 of m
    points, m = 10..14: maximum, and over the shatter search's budget."""
    commands = ("classify", "labels", "homogenize")
    for m in range(10, 15):
        words = (format(v, f"0{m}b") for v in range(2**m) if v.bit_count() <= m // 2)
        yield f"size-at-most-g{m}-d{m // 2}", family_text(m, words), commands


def fold_end_cases():
    """(case id, file text, commands) of permuted ``1010`` and ``0110``
    avoidance families with one member removed or swapped for an absent
    word, at the fold's small grounds 5-7 and at grounds 15 and 16."""
    rng = random.Random(2401)
    commands = ("classify", "labels", "homogenize")
    for m in (5, 6, 7, 15, 16):
        for label in ("1010", "0110"):
            words = permuted_avoidance(m, label, rng)
            less = list(words)
            less.pop(rng.randrange(len(less)))
            yield f"avoid-{label}-g{m}-less1", family_text(m, less), commands
            absent = sorted(set(map("".join, itertools.product("01", repeat=m))) - set(words))
            words[rng.randrange(len(words))] = rng.choice(absent)
            yield f"avoid-{label}-g{m}-swap1", family_text(m, words), commands


def stream_labels():
    """Labels of 5 to 8 bits whose avoidance families at grounds 16 to 20
    fill several of the kernel's blocks: for each length both alternations,
    both constants and two more from a fixed seed."""
    rng = random.Random(2301)
    for length in range(5, 9):
        fixed = [("10" * length)[:length], ("01" * length)[:length], "1" * length, "0" * length]
        others = [label for label in map("".join, itertools.product("01", repeat=length))
                  if label not in fixed]
        yield from fixed
        yield from rng.sample(others, 2)


def formula_error_cases():
    """(name, formula text) at and over the parser's nesting cap of 200
    levels, over the arity cap, and malformed."""
    for count in (199, 200, 201):
        yield f"and{count}", " & ".join(["x<y1"] * (count + 1))
        yield f"or{count}", " | ".join(["x<y1"] * (count + 1))
        yield f"not{count}", "!" * count + "x<y1"
        yield f"paren{count}", "(" * count + "x<y1" + ")" * count
    yield "arity129", "x<y129"
    yield "double-relation", "x<<y1"
    yield "trailing-and", "x<y1 &"
    yield "unclosed", "(x<y1"
    yield "unopened", "x<y1)"


# Help, usage errors, and command lines in forms that argparse also reads:
# an abbreviated flag, --flag=value, a repeated flag, verify's claim last.
USAGE_CASES = {
    "help": ["--help"],
    "classify-help": ["classify", "--help"],
    "verify-help": ["verify", "--help"],
    "no-such-command": ["nosuch"],
    "no-arguments": [],
    "missing-option": ["avoid", "--ground", "4"],
    "abbreviated": ["avoid", "--lab", "10", "--ground", "4"],
    "equals": ["avoid", "--label", "10", "--ground=4"],
    "repeated": ["avoid", "--label", "10", "--ground", "4", "--ground", "5"],
    "both-of-one-of": ["translate", "--label", "1", "--expr", "{}"],
    "claim-last": ["verify", "--label", "10", "--ground", "4", "sauer"],
    "bad-int": ["label", "--formula", "x<y1", "--arity", "x"],
}


def cases():
    """(case id, argv, input file text or None), in sweep order."""
    for label in [*labels(6), LONG_LABEL]:
        yield f"compile:{label}", ["compile", "--label", label], None
        yield f"label:{label}", ["label", "--formula", FORMULA], None
        arity = len(label) - 1  # the arity of the compiled formula
        for n in (arity - 1, arity, arity + 1):
            yield f"label:{label}:n{n}", ["label", "--formula", FORMULA, "--arity", str(n)], None
        yield f"translate:{label}", ["translate", "--label", label], None
        yield f"translate-expr:{label}", ["translate", "--expr", EXPRESSION], None
    for claim in ("sauer", "l2"):
        yield f"{claim}:no-label", ["verify", claim, "--report", "report"], None
    for label in labels(4):
        for ground in (-1, 0, 8, 20, 21):
            yield f"avoid:{label}:g{ground}", ["avoid", "--label", label, "--ground", str(ground)], None
            argv = ["verify", "sauer", "--label", label, "--ground", str(ground), "--report", "report"]
            yield f"sauer:{label}:g{ground}", argv, None
        for pairs in (*range(7), 20, 21):
            argv = ["verify", "l2", "--label", label, "--pairs", str(pairs), "--report", "report"]
            yield f"l2:{label}:p{pairs}", argv, None
    for depth in range(5):
        for cols in range(6):
            argv = ["verify", "t2", "--depth", str(depth), "--cols", str(cols), "--report", "report"]
            yield f"t2:d{depth}:c{cols}", argv, None
    for name, text in family_cases():
        commands = ("classify",) if name == "one-g17" else ("classify", "labels", "homogenize")
        for command in commands:
            yield f"{command}:{name}", [command, "--in", "family.txt"], text
    for label in [*map("".join, itertools.product("01", repeat=4)), LONG_LABEL]:
        for pairs in (22, 64, 1000):
            argv = ["verify", "l2", "--label", label, "--pairs", str(pairs), "--report", "report"]
            yield f"l2:{label}:p{pairs}", argv, None
    # verify sauer above the enumeration cap, and one ground over the count's budget
    sauer_grounds = [(label, ground) for label in labels(4) for ground in (22, 64, 1000)]
    sauer_grounds += [(LONG_LABEL, ground) for ground in (20, 21, 1000)]
    for label, ground in [*sauer_grounds, ("10", 1 << 20)]:
        argv = ["verify", "sauer", "--label", label, "--ground", str(ground), "--report", "report"]
        yield f"sauer:{label}:g{ground}", argv, None
    # avoid over many blocks, up to the 2^20 lines of a 21-bit label
    for label in stream_labels():
        for ground in (16, 18, 20):
            yield f"avoid:{label}:g{ground}", ["avoid", "--label", label, "--ground", str(ground)], None
    yield "avoid:1x21:g20", ["avoid", "--label", "1" * 21, "--ground", "20"], None
    for name, text, commands in itertools.chain(
        large_family_cases(), swapped_cases(), sized_cases(), fold_end_cases()
    ):
        for command in commands:
            yield f"{command}:{name}", [command, "--in", "family.txt"], text
    # error paths: one bit over the label cap, the formula caps and syntax, no file
    yield "compile:129-bits", ["compile", "--label", LONG_LABEL + "1"], None
    for name, text in formula_error_cases():
        yield f"label:{name}", ["label", "--formula", text], None
    yield "classify:missing-file", ["classify", "--in", "missing.txt"], None
    for name, argv in USAGE_CASES.items():
        yield f"usage:{name}", argv, None


def digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def run(src: Path, argv: list[str], text: str | None):
    """Exit status, stdout, stderr and report bytes of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    with tempfile.TemporaryDirectory() as work:
        if text is not None:
            Path(work, "family.txt").write_text(text, encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "vclabels", *argv],
            cwd=work, env=env, capture_output=True, check=False,
        )
        report = Path(work, "report")
        data = report.read_bytes() if report.exists() else None
    return done.returncode, done.stdout, done.stderr, data


@contextlib.contextmanager
def _working_directory(path: str):
    """Run the block in ``path`` (contextlib.chdir, which Python 3.10 lacks)."""
    home = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(home)


def run_in_process(argv: list[str], text: str | None):
    """What ``run`` gives, from ``vclabels.cli.main`` called in this process."""
    from vclabels import cli

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work, _working_directory(work):
        if text is not None:
            Path("family.txt").write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = int(exc.code or 0)
        report = Path("report")
        data = report.read_bytes() if report.exists() else None
    return status, out.getvalue().encode(), err.getvalue().encode(), data


def sweep(run_case):
    """The fingerprint line of each case, in sweep order.

    ``run_case(argv, text)`` runs one case, as ``run_in_process`` does.
    """
    printed = {FORMULA: "", EXPRESSION: ""}
    for case_id, command, text in cases():
        status, out, err, report = run_case([printed.get(a, a) for a in command], text)
        if tuple(command[:2]) in PRINTED:
            prefix, key = PRINTED[tuple(command[:2])]
            printed[key] = out.decode().partition("\n")[0].removeprefix(prefix)
        yield f"{case_id} {status} {digest(out)} {digest(err)} {digest(report)}"


def main(argv: list[str]) -> int:
    in_process = argv[1:2] == ["--in-process"]
    if len(argv) != 2 + in_process:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[-1]).resolve()
    if in_process:
        sys.path.insert(0, str(src))
        os.environ["COLUMNS"] = "80"
        run_case = run_in_process
    else:
        run_case = functools.partial(run, src)
    for line in sweep(run_case):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
