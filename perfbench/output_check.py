"""Checks of program outputs against answers derived without ``vclabels``.

``check_cli`` judges one CLI job by its exit status and stdout;
``check_task`` judges one lib-batch task by its result, converted to plain
data.  Each returns None when the output is right and a short reason when
it is not.  ``negative_controls`` feeds both deliberately wrong outputs and
returns the ones that were wrongly accepted.
"""

from __future__ import annotations

import workload_gen as gen


def _check_avoid(stdout: str, m: int, eta: str):
    """``avoid`` prints phi(d, m) distinct sorted members, each avoiding eta.

    The avoidance family has exactly phi(d, m) members, so these conditions
    pin the output down completely.
    """
    lines = stdout.split("\n")
    if lines[0] != f"ground {m}" or lines[-1] != "":
        return "bad header or missing final newline"
    body = lines[1:-1]
    expected = gen.phi(len(eta) - 1, m)
    if len(body) != expected:
        return f"{len(body)} members, expected {expected}"
    for prev, line in zip([""] + body, body):
        if len(line) != m or line.strip("01") or line <= prev:
            return f"member {line!r} malformed or out of order"
        if gen.induces(line, eta):
            return f"member {line} induces {eta}"
    return None


def _check_perturbed(stdout: str, m: int, d: int, members: int):
    """A d-maximum family with one member removed keeps dimension d and is
    neither maximum nor maximal.

    Removing c can unshatter a d-set A only if, for every z outside A, the
    label of A + {z} agrees with c on A and differs from c at z.  The label
    of an avoidance family is eta on every (d+1)-subset; taking A = {0..d-1}
    and then A = {1..d} with z = 0 forces c(0) to be both eta[0] and its
    complement, so some d-set stays shattered.  With dimension d and fewer
    than phi(d, m) members the family is not maximum, and adding c back
    keeps dimension d, so it is not maximal.  Traces on a k-subset, k > d,
    drop by at most one.
    """
    lines = stdout.split("\n")
    head = [f"ground {m}", f"members {members}", f"vc_dimension {d}",
            "is_maximum false", "is_maximal false"]
    if lines[:5] != head or len(lines) != 7 or lines[6] != "":
        return "wrong verdict lines"
    words = lines[5].split(" ")
    try:
        profile = [int(w.split(":")[1]) for w in words[1:]]
    except (IndexError, ValueError):
        return "malformed sauer_profile"
    if words[0] != "sauer_profile" or len(profile) != m + 1:
        return "malformed sauer_profile"
    for k, count in enumerate(profile):
        full = gen.phi(d, k)
        allowed = {full} if k <= d else {full - 1} if k == m else {full - 1, full}
        if count not in allowed:
            return f"profile {k}:{count} not in {sorted(allowed)}"
    return None


def check_cli(expect: dict, returncode: int, stdout: str):
    if returncode != 0:
        return f"exit status {returncode}"
    kind = expect["kind"]
    if kind == "exact":
        return None if stdout == expect["text"] else "stdout differs from the expected text"
    if kind == "avoid":
        return _check_avoid(stdout, expect["m"], expect["eta"])
    if kind == "classify-perturbed":
        return _check_perturbed(stdout, expect["m"], expect["d"], expect["members"])
    raise ValueError(f"unknown check {kind}")


def expected_task(task: list):
    """Answer of a lib-batch task, in the plain form ``batch.plain`` gives."""
    kind, args = task[0], task[1:]
    if kind == "avoid":
        return gen.avoid_lines(*args)
    if kind in ("classify-cap", "classify"):
        # Relabelling the ground changes no classification.
        return list(gen.avoid_classification(len(args[1]), args[0]))
    if kind == "classify-random":
        return list(gen.oracle_classification(*args))
    if kind == "characterized":
        return args[2] < 0
    if kind == "expr":
        return [gen.expr_text(args[0]), args[0]]
    if kind == "compile":
        return gen.formula_text(args[0])
    if kind == "formula":
        return gen.complement(args[0]) if args[1] else args[0]
    if kind == "l2":
        size = gen.phi(len(args[0]) - 1, args[1])
        return [True, size, size]
    raise ValueError(f"unknown task kind {kind}")


def check_task(task: list, result):
    if task[0] == "extend":
        m, region, partial, eta = task[1:]
        if not isinstance(result, str) or len(result) != m or result.strip("01"):
            return f"malformed extension {result!r}"
        if any(r == "1" and x != p for x, p, r in zip(result, partial, region)):
            return "extension disagrees with the partial assignment on the region"
        return f"extension {result} induces {eta}" if gen.induces(result, eta) else None
    expected = expected_task(task)
    return None if result == expected else f"got {result!r}, expected {expected!r}"


def negative_controls() -> list[str]:
    """Names of corrupted outputs the checkers accepted; empty when all fail."""
    eta, m = "1001", 8
    avoid_out = gen.family_text(m, gen.avoid_lines(m, eta))
    perturbed = gen.avoid_lines(m, eta)
    del perturbed[3]
    perturbed_out = gen.classify_text(
        m, len(perturbed), *gen.oracle_classification(m, perturbed)
    )
    verify_out = "PASS cases=11\n"
    label_out = f"label {eta}\n"
    cli_cases = [
        ("avoid line dropped", {"kind": "avoid", "m": m, "eta": eta}, avoid_out,
         avoid_out.replace(gen.avoid_lines(m, eta)[5] + "\n", "", 1)),
        ("label bit flipped", {"kind": "exact", "text": label_out}, label_out,
         f"label {eta[:-1]}{gen.complement(eta[-1])}\n"),
        ("FAIL for PASS", {"kind": "exact", "text": verify_out}, verify_out,
         verify_out.replace("PASS", "FAIL")),
        ("is_maximal true on a perturbed family",
         {"kind": "classify-perturbed", "m": m, "d": 3, "members": len(perturbed)},
         perturbed_out, perturbed_out.replace("is_maximal false", "is_maximal true")),
    ]
    accepted = []
    for name, expect, good, bad in cli_cases:
        if check_cli(expect, 0, good) is not None:
            accepted.append(f"{name}: the correct output was rejected")
        if check_cli(expect, 0, bad) is None:
            accepted.append(name)
    extend = ["extend", 6, "111111", "010000", "11"]
    task_cases = [
        ("extension that induces the label", extend, "010000", "010001"),
        ("extension off the partial assignment", extend, "010000", "000000"),
        ("classify verdict flipped", ["classify", "101", [2, 0, 1, 3, 5, 4]],
         [2, True, True, [1, 2, 4, 7, 11, 16, 22]], [2, True, False, [1, 2, 4, 7, 11, 16, 22]]),
        ("avoid member dropped", ["avoid", 5, "11"], expected_task(["avoid", 5, "11"]),
         expected_task(["avoid", 5, "11"])[1:]),
    ]
    for name, task, good, bad in task_cases:
        if check_task(task, good) is not None:
            accepted.append(f"{name}: the correct output was rejected")
        if check_task(task, bad) is None:
            accepted.append(name)
    return accepted
