"""Seeded inputs and expected outputs for the three benchmark workloads.

Nothing here imports ``vclabels``: avoidance families come from this
module's own subsequence automaton, formulas and expressions from the
closed forms below, and the answer for a random family from a
definition-level oracle.  A change to the library therefore cannot change
the inputs or what counts as a correct output.

Labels and members are strings over ``0``/``1``; character j is ground
element j, the same as the set-system file format.
"""

from __future__ import annotations

import itertools
import math
import random

# One round of each CLI workload, in run order: (class, count).  Every round
# has the same mix, so whole-round rates do not depend on how many rounds fit
# in a run.
CLASSIFY_ROUND = (
    ("classify-cap", 2),
    ("classify-avoid", 1),
    ("classify-avoid5", 1),
    ("classify-perturbed", 1),  # ground 14, 4-bit label, one member removed
    ("classify-random", 1),  # ground 12, 150 random members
    ("labels", 1),
    ("labels-d1", 1),
    ("homogenize", 1),  # exhaustive search up to ground 12
    ("homogenize-greedy", 1),  # greedy search above ground 12
)
# Jobs on an avoidance family: class -> (subcommand, ground, label bits).
_AVOID_FILE_JOBS = {
    "classify-cap": ("classify", 16, 4),
    "classify-avoid": ("classify", 14, 3),
    "classify-avoid5": ("classify", 12, 5),
    "labels": ("labels", 14, 3),
    "labels-d1": ("labels", 13, 2),
    "homogenize": ("homogenize", 12, 4),
    "homogenize-greedy": ("homogenize", 14, 3),
}
# An arity-6 label takes as long as everything else together, so the rest of
# the mix comes twice per round.
_ENUMERATE_REST = (
    ("avoid-cap", 3),  # avoid --ground 20, 4-bit label
    ("label-a2", 1),
    ("label-a2-neg", 1),
    ("label-a3", 1),
    ("label-a3-neg", 1),
    ("label-a4", 1),
    ("label-a5-neg", 1),
    ("avoid-16", 1),  # 6-bit label
    ("avoid-18", 1),  # 3-bit label
    ("sauer-18", 1),  # 4-bit label
    ("sauer-14", 1),  # 3-bit label
    ("l2-6", 1),  # 5-bit label
    ("l2-4", 1),  # 3-bit label
    ("t2", 1),
    ("compile", 1),  # 8- to 12-bit labels, as for translate
    ("translate-label", 1),
    ("translate-expr", 1),
)
ENUMERATE_ROUND = _ENUMERATE_REST + (("label-a6", 1),) + _ENUMERATE_REST
ROUNDS = {"cli-classify": CLASSIFY_ROUND, "cli-enumerate": ENUMERATE_ROUND}

# One block of lib-batch tasks; a pass is BATCH_BLOCKS shuffled blocks.
BATCH_BLOCK = (
    ("classify-cap", 1),  # classify, ground 10, permuted 4-bit avoidance family
    ("classify", 2),  # grounds 5-9, permuted 2- to 5-bit avoidance families
    ("classify-random", 2),
    ("avoid", 3),
    ("characterized", 2),
    ("extend", 3),
    ("expr", 3),
    ("compile", 2),
    ("formula", 1),
    ("l2", 1),
)
BATCH_BLOCKS = 150
# Share of lib-batch tasks that reuse the arguments of an earlier task of
# the same kind in the same process, as scripted callers and property
# suites do.  Other tasks get arguments not used before in the pass.
BATCH_REUSE = 0.2


def phi(d: int, n: int) -> int:
    """Sauer bound: most traces a dimension-d family leaves on n points."""
    return 2**n if n < d else sum(math.comb(n, i) for i in range(d + 1))


def induces(bits: str, eta: str) -> bool:
    """True iff ``eta`` is a subsequence of the membership string."""
    j = 0
    for b in bits:
        if b == eta[j]:
            j += 1
            if j == len(eta):
                return True
    return False


def avoid_lines(m: int, eta: str) -> list[str]:
    """Members of the eta-avoidance family on m points, in sorted order.

    Walks the subsequence automaton (state = length of the matched prefix of
    eta), trying 0 before 1, and never enters the accepting state.
    """
    out: list[str] = []

    def walk(prefix: str, state: int) -> None:
        if len(prefix) == m:
            out.append(prefix)
            return
        for b in "01":
            nxt = state + (b == eta[state])
            if nxt < len(eta):
                walk(prefix + b, nxt)

    walk("", 0)
    return out


def complement(eta: str) -> str:
    return eta.translate(str.maketrans("01", "10"))


def formula_text(eta: str) -> str:
    """Text of the compiled formula of ``eta``, whose label is ``eta``.

    The compiled formula starts from x=x (bit 0) or x!=x (bit 1) and adds
    parameter k with a conjunction when bit k-1 is 0 and a disjunction when
    it is 1, since the formula so far holds above all its parameters
    exactly when the last bit read is 0.  Printed left-deep, a disjunction
    is bracketed when it becomes the left operand of a conjunction.
    """
    text = "x=x" if eta[0] == "0" else "x!=x"
    last_or = False
    for k in range(1, len(eta)):
        if eta[k - 1] == "0":
            if last_or:
                text = f"({text})"
            text += f" & x<y{k}" if eta[k] == "1" else f" & x!=y{k}"
            last_or = False
        else:
            text += f" | x=y{k}" if eta[k] == "1" else f" | x>y{k}"
            last_or = True
    return text


def symbol_name(index: int) -> str:
    name = ""
    index += 1
    while index:
        index, digit = divmod(index - 1, 26)
        name = chr(ord("a") + digit) + name
    return name


def expr_text(eta: str) -> str:
    """Point-interval expression of ``eta``.

    Read left to right: a leading 0 opens a ray from -inf; each adjacent
    digit pair takes the next symbol (11 a point, 10 an interval start, 01
    an interval end, 00 a removed point); a trailing 0 closes a ray at inf.
    """
    pieces = []
    lower = "-inf" if eta[0] == "0" else None
    removed = ""
    for sym, pair in enumerate(zip(eta, eta[1:])):
        name = symbol_name(sym)
        if pair == ("1", "1"):
            pieces.append("{%s}" % name)
        elif pair == ("1", "0"):
            lower, removed = name, ""
        elif pair == ("0", "1"):
            pieces.append(f"({lower},{name})" + removed)
        else:
            removed += "\\{%s}" % name
    if eta[-1] == "0":
        pieces.append(f"({lower},inf)" + removed)
    return " u ".join(pieces) if pieces else "{}"


def bool_text(value: bool) -> str:
    return "true" if value else "false"


def classify_text(m: int, n: int, d: int, maximum: bool, maximal: bool, profile) -> str:
    """``vclabels classify`` output for the given verdicts."""
    return (
        f"ground {m}\nmembers {n}\nvc_dimension {d}\n"
        f"is_maximum {bool_text(maximum)}\nis_maximal {bool_text(maximal)}\n"
        "sauer_profile " + " ".join(f"{k}:{c}" for k, c in enumerate(profile)) + "\n"
    )


def avoid_classification(m: int, eta: str):
    """(d, maximum, maximal, profile) of an avoidance family, by theorem.

    The eta-avoidance family is maximum of dimension len(eta) - 1, hence
    maximal, and leaves phi(d, k) traces on every k-subset.
    """
    d = len(eta) - 1
    return d, True, True, [phi(d, k) for k in range(m + 1)]


def oracle_classification(m: int, lines):
    """(d, maximum, maximal, profile) straight from the definitions."""
    ints = [int(line[::-1], 2) for line in lines]
    sizes = [bin(a).count("1") for a in range(1 << m)]
    counts = [len({v & a for v in ints}) for a in range(1 << m)]
    d = max(sizes[a] for a in range(1 << m) if counts[a] == 1 << sizes[a])
    profile = [0] * (m + 1)
    for a in range(1 << m):
        profile[sizes[a]] = max(profile[sizes[a]], counts[a])
    maximum = all(counts[a] == phi(d, sizes[a]) for a in range(1 << m))
    # Adding a set c raises the dimension iff some (d+1)-subset misses
    # exactly one trace and that trace is c's.
    blocking = []
    for a in range(1 << m):
        if sizes[a] == d + 1 and counts[a] == (1 << (d + 1)) - 1:
            present = {v & a for v in ints}
            sub = a
            while sub in present:
                sub = (sub - 1) & a
            blocking.append((a, sub))
    members = set(ints)
    maximal = d >= m or all(
        any(c & a == miss for a, miss in blocking)
        for c in range(1 << m)
        if c not in members
    )
    return d, maximum, maximal, profile


def random_label(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def random_lines(rng: random.Random, m: int, n: int) -> list[str]:
    picks = rng.sample(range(1 << m), n)
    return sorted(format(v, f"0{m}b") for v in picks)


def family_text(m: int, lines) -> str:
    return f"ground {m}\n" + "".join(line + "\n" for line in lines)


def _labels_text(m: int, eta: str) -> str:
    d = len(eta) - 1
    rows = [f"dimension {d}\n"]
    rows.extend(
        "subset " + ",".join(map(str, combo)) + f" label {eta}\n"
        for combo in itertools.combinations(range(m), d + 1)
    )
    rows.append(f"constant yes {eta}\n")
    return "".join(rows)


class _Files:
    """Writes input files into the run's work directory, named in order."""

    def __init__(self, workdir, rel):
        self.workdir, self.rel, self.count = workdir, rel, 0

    def write(self, text: str) -> str:
        self.count += 1
        name = f"in{self.count:04d}.txt"
        (self.workdir / name).write_text(text, encoding="utf-8")
        return f"{self.rel}/{name}"


def _avoid_file_job(files, rng, cmd, m, bits):
    eta = random_label(rng, bits)
    path = files.write(family_text(m, avoid_lines(m, eta)))
    if cmd == "classify":
        expect = {"kind": "exact", "text": classify_text(m, phi(bits - 1, m), *avoid_classification(m, eta))}
    elif cmd == "labels":
        expect = {"kind": "exact", "text": _labels_text(m, eta)}
    else:
        whole = ",".join(str(j) for j in range(m))
        expect = {"kind": "exact", "text": f"subset {whole}\nlabel {eta}\nsize {m}\n"}
    return [cmd, "--in", path], expect


def _classify_job(files, rng, cls):
    if cls in _AVOID_FILE_JOBS:
        return _avoid_file_job(files, rng, *_AVOID_FILE_JOBS[cls])
    if cls == "classify-perturbed":
        m, eta = 14, random_label(rng, 4)
        lines = avoid_lines(m, eta)
        del lines[rng.randrange(len(lines))]
        path = files.write(family_text(m, lines))
        return ["classify", "--in", path], {
            "kind": "classify-perturbed", "m": m, "d": len(eta) - 1, "members": len(lines)
        }
    if cls == "classify-random":
        m = 12
        lines = random_lines(rng, m, 150)
        path = files.write(family_text(m, lines))
        text = classify_text(m, len(lines), *oracle_classification(m, lines))
        return ["classify", "--in", path], {"kind": "exact", "text": text}
    raise ValueError(f"unknown job class {cls}")


def _label_job(rng, arity, negate):
    eta = random_label(rng, arity + 1)
    text = formula_text(eta)
    if negate:
        text, eta = f"!({text})", complement(eta)
    return ["label", "--formula", text], {"kind": "exact", "text": f"label {eta}\n"}


def _enumerate_job(rng, cls):
    if cls.startswith("label-a"):
        return _label_job(rng, int(cls[7]), cls.endswith("-neg"))
    if cls.startswith("avoid-"):
        m, bits = {"avoid-cap": (20, 4), "avoid-16": (16, 6), "avoid-18": (18, 3)}[cls]
        eta = random_label(rng, bits)
        return ["avoid", "--label", eta, "--ground", str(m)], {"kind": "avoid", "m": m, "eta": eta}
    if cls.startswith("sauer-"):
        ground = int(cls[6:])
        eta = random_label(rng, 4 if ground == 18 else 3)
        return (
            ["verify", "sauer", "--label", eta, "--ground", str(ground)],
            {"kind": "exact", "text": f"PASS cases={ground + 1}\n"},
        )
    if cls.startswith("l2-"):
        pairs = int(cls[3:])
        eta = random_label(rng, 5 if pairs == 6 else 3)
        size = phi(len(eta) - 1, pairs)
        return (
            ["verify", "l2", "--label", eta, "--pairs", str(pairs)],
            {"kind": "exact", "text": f"PASS family={size} expected={size}\n"},
        )
    if cls == "t2":
        depth, cols = rng.choice([(2, 3), (2, 4), (3, 4)])
        size = math.comb(cols, depth)
        return (
            ["verify", "t2", "--depth", str(depth), "--cols", str(cols)],
            {"kind": "exact", "text": f"PASS witnesses={cols**depth} family={size} expected={size}\n"},
        )
    eta = random_label(rng, rng.randint(8, 12))
    if cls == "compile":
        text = f"formula {formula_text(eta)}\nexpression {expr_text(eta)}\n"
        return ["compile", "--label", eta], {"kind": "exact", "text": text}
    if cls == "translate-label":
        return ["translate", "--label", eta], {"kind": "exact", "text": f"expression {expr_text(eta)}\n"}
    if cls == "translate-expr":
        return ["translate", "--expr", expr_text(eta)], {"kind": "exact", "text": f"label {eta}\n"}
    raise ValueError(f"unknown job class {cls}")


def cli_round(workload: str, seed: int, index: int, workdir, rel) -> list[dict]:
    """Jobs of round ``index``: dicts with ``cls``, ``argv`` and ``expect``.

    Input files go into ``workdir``; ``argv`` names them by ``rel``, their
    path relative to the directory the jobs run in.
    """
    rng = random.Random(f"{workload}:{seed}:{index}")
    files = _Files(workdir, rel)
    files.count = 100 * index
    jobs = []
    for cls, count in ROUNDS[workload]:
        for _ in range(count):
            if workload == "cli-classify":
                argv, expect = _classify_job(files, rng, cls)
            else:
                argv, expect = _enumerate_job(rng, cls)
            jobs.append({"cls": cls, "argv": argv, "expect": expect})
    return jobs


def _batch_args(rng: random.Random, kind: str):
    if kind in ("classify-cap", "classify"):
        m, bits = (10, 4) if kind == "classify-cap" else (rng.randint(5, 9), rng.randint(2, 5))
        perm = list(range(m))
        rng.shuffle(perm)
        return [random_label(rng, bits), perm]
    if kind == "classify-random":
        while True:
            m = rng.randint(5, 8)
            lines = random_lines(rng, m, rng.randint(m, 3 * m))
            if not oracle_classification(m, lines)[1]:
                return [m, lines]
    if kind == "avoid":
        return [rng.randint(4, 10), random_label(rng, rng.randint(2, 6))]
    if kind == "characterized":
        m, eta = rng.randint(4, 10), random_label(rng, rng.randint(2, 5))
        drop = rng.randrange(-1, len(avoid_lines(m, eta)))
        return [m, eta, drop]
    if kind == "extend":
        m, eta = rng.randint(5, 10), random_label(rng, rng.randint(2, 5))
        region = "".join(rng.choice("01") for _ in range(m))
        while True:
            partial = "".join(r if rng.random() < 0.5 else "0" for r in region)
            inside = "".join(p for p, r in zip(partial, region) if r == "1")
            if not induces(inside, eta):
                return [m, region, partial, eta]
    if kind == "expr":
        return [random_label(rng, rng.randint(1, 12))]
    if kind == "compile":
        return [random_label(rng, rng.randint(5, 12))]
    if kind == "formula":
        # Conjoining truth or disjoining falsehood keeps the label.
        pad = "".join(rng.choice((" & x=x", " | x!=x")) for _ in range(rng.randint(0, 3)))
        return [random_label(rng, rng.randint(2, 4)), rng.random() < 0.5, pad]
    if kind == "l2":
        return [random_label(rng, rng.randint(2, 5)), rng.randint(2, 4)]
    raise ValueError(f"unknown task kind {kind}")


def batch_formula(eta: str, negate: bool, pad: str) -> str:
    text = formula_text(eta) + pad
    return f"!({text})" if negate else text


def batch_pass(seed: int, index: int) -> list[list]:
    """Tasks of lib-batch pass ``index``: ``[kind, *args]`` lists."""
    rng = random.Random(f"lib-batch:{seed}:{index}")
    block = [kind for kind, count in BATCH_BLOCK for _ in range(count)]
    earlier: dict[str, list] = {kind: [] for kind in block}
    used: set = set()
    tasks = []
    for _ in range(BATCH_BLOCKS):
        rng.shuffle(block)
        for kind in block:
            if earlier[kind] and rng.random() < BATCH_REUSE:
                task = rng.choice(earlier[kind])
            else:
                for _ in range(20):  # small argument spaces may run out
                    task = [kind, *_batch_args(rng, kind)]
                    if repr(task) not in used:
                        break
                used.add(repr(task))
                earlier[kind].append(task)
            tasks.append(task)
    return tasks


def permuted_lines(eta: str, perm) -> list[str]:
    """The eta-avoidance family on len(perm) points with the ground permuted.

    Classification is invariant under relabelling the ground, so the result
    is maximum of dimension len(eta) - 1 but no longer an avoidance family.
    """
    return sorted(
        "".join(line[perm[j]] for j in range(len(perm)))
        for line in avoid_lines(len(perm), eta)
    )
