"""Acceptance suite.

Each test checks one exit criterion exactly as stated and prints a single
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
Timed criteria measure wall-clock time and assert the stated budget.
"""

import itertools
import random
import time

import bruteforce as bf
from bruteforce import PositionGrid
from vclabels.harness import (
    build_ict_tensor,
    ict_witness_family,
    ramsey_homogenize,
    verify_ict,
    verify_pair_xor,
)
from vclabels.labelcalc import (
    avoid_family,
    complement_label,
    extend_avoiding,
    induces,
)
from vclabels.labelcompiler import (
    compile_label,
    format_expr,
    from_interval_expr,
    parse_expr,
    realize_expr,
    to_interval_expr,
)
from vclabels.orderformula import (
    Not,
    label_of_formula,
    ordered_trace_family,
)
from vclabels.setsystem import (
    SetSystem,
    alternation_number,
    classify,
    phi_bound,
)

# the twelve catalog labels whose expression forms are pinned in the
# compiler tests
CATALOG = [
    "0",
    "1",
    "00",
    "01",
    "10",
    "11",
    "000",
    "001",
    "010",
    "101",
    "1010",
    "111001",
]


def bits(text):
    return tuple(int(ch) for ch in text)


def all_labels(max_len):
    for length in range(1, max_len + 1):
        yield from itertools.product((0, 1), repeat=length)


def report(name, ok, detail=""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_avoidance_counting():
    start = time.perf_counter()
    failures = []
    cases = 0
    for eta in all_labels(4):
        d = len(eta) - 1
        for m in range(11):
            cases += 1
            if len(avoid_family(m, eta).members) != phi_bound(d, m):
                failures.append((eta, m))
    elapsed = time.perf_counter() - start
    report(
        "criterion-01 avoidance counting",
        not failures and elapsed < 5.0,
        f"cases={cases} failures={len(failures)} elapsed={elapsed:.2f}s",
    )


def test_criterion_02_expression_catalog_at_m6():
    m = 6
    failures = []
    for label_text in CATALOG:
        eta = bits(label_text)
        expr = to_interval_expr(eta)
        realized = {
            realize_expr(expr, assignment, m)
            for assignment in PositionGrid(m).parameter_tuples(expr.symbol_count)
        }
        if realized != set(avoid_family(m, eta).members):
            failures.append(label_text)
    report(
        "criterion-02 expression catalog at m=6",
        not failures,
        f"rows={len(CATALOG)} failures={failures}",
    )


def test_criterion_03_worked_translations():
    forward = format_expr(to_interval_expr(bits("11001010")))
    ok_forward = forward == "{a} u (b,d)\\{c} u (e,f) u (g,inf)"
    backward = from_interval_expr(parse_expr("(-inf,b)\\{a} u {c,d} u (e,f)"))
    ok_backward = backward == bits("0011101")
    report(
        "criterion-03 worked translations",
        ok_forward and ok_backward,
        f"forward={forward!r} backward={''.join(map(str, backward))}",
    )


def test_criterion_04_compiler_soundness_and_round_trip():
    start = time.perf_counter()
    failures = []
    count = 0
    for eta in all_labels(4):
        n = len(eta) - 1
        ast = compile_label(eta)
        for m in range(len(eta) + 1, 9):
            count += 1
            if ordered_trace_family(ast, n, m) != avoid_family(m, eta):
                failures.append(("family", eta, m))
        if label_of_formula(ast, n) != eta:
            failures.append(("label", eta))
    elapsed = time.perf_counter() - start
    report(
        "criterion-04 compiler soundness + round trip",
        not failures and elapsed < 60.0,
        f"labels=30 family_checks={count} failures={len(failures)} "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_05_negation_law_catalog():
    failures = []
    for label_text in CATALOG:
        eta = bits(label_text)
        ast = compile_label(eta)
        n = len(eta) - 1
        if label_of_formula(Not(ast), n) != complement_label(
            label_of_formula(ast, n)
        ):
            failures.append(label_text)
    report(
        "criterion-05 negation law on the catalog",
        not failures,
        f"rows={len(CATALOG)} failures={failures}",
    )


def test_criterion_06_pair_xor_collapse():
    start = time.perf_counter()
    failures = []
    for label_text in ["11", "010", "101", "1010"]:
        eta = bits(label_text)
        result = verify_pair_xor(eta, 5)
        expected = phi_bound(len(eta) - 1, 5)
        if not result.passed or result.family_size != expected:
            failures.append((label_text, result))
    elapsed = time.perf_counter() - start
    report(
        "criterion-06 pair-xor collapse at 5 pairs",
        not failures and elapsed < 120.0,
        f"labels=4 failures={failures} elapsed={elapsed:.1f}s",
    )


def test_criterion_07_ict_constructions():
    failures = []
    for depth in range(4):
        for columns in range(1, 5):
            tensor = build_ict_tensor(depth, columns)
            if not verify_ict(tensor):
                failures.append(("verify", depth, columns))
                continue
            if ict_witness_family(tensor) != SetSystem.size_exactly(columns, depth):
                failures.append(("family", depth, columns))
    report(
        "criterion-07 ict tensor constructions",
        not failures,
        f"cases=16 failures={failures}",
    )


def test_criterion_08_sauer_and_maximal_suite():
    start = time.perf_counter()
    rng = random.Random(8451)
    sauer_violations = 0
    maximum_seen = 0
    maximal_misses = 0
    for i in range(1000):
        m = rng.randint(1, 8)
        if i % 25 == 0:
            length = rng.randint(1, min(4, m + 1))
            eta = tuple(rng.randint(0, 1) for _ in range(length))
            system = avoid_family(m, eta)
        else:
            count = rng.randint(1, min(2**m, 24))
            values = rng.sample(range(2**m), count)
            system = SetSystem.from_masks(
                m, [tuple((v >> j) & 1 for j in range(m)) for v in values]
            )
        result = classify(system)
        for k, trace_count in result.sauer_profile:
            if trace_count > phi_bound(result.vc_dimension, k):
                sauer_violations += 1
        if result.is_maximum:
            maximum_seen += 1
            if not result.is_maximal:
                maximal_misses += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion-08 sauer + maximum-implies-maximal suite",
        sauer_violations == 0 and maximal_misses == 0 and elapsed < 30.0,
        f"systems=1000 maximum={maximum_seen} violations={sauer_violations} "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_09_extension_suite():
    rng = random.Random(7130)
    checked = 0
    failures = 0
    while checked < 500:
        m = rng.randint(1, 10)
        eta = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
        region = tuple(rng.randint(0, 1) for _ in range(m))
        partial = None
        for _ in range(40):
            candidate = tuple(b and rng.randint(0, 1) for b in region)
            if not bf.induces_within(candidate, region, eta):
                partial = candidate
                break
        if partial is None:
            continue
        out = extend_avoiding(m, region, partial, eta)
        agrees = all(o == p for o, r, p in zip(out, region, partial) if r)
        if not agrees or bf.induces(out, eta):
            failures += 1
        checked += 1
    report(
        "criterion-09 extension suite",
        failures == 0,
        f"instances={checked} failures={failures}",
    )


def test_criterion_10_homogenization():
    full_subset, full_label = ramsey_homogenize(SetSystem.size_at_most(6, 2))
    ok_full = full_subset == (1,) * 6 and full_label == (1, 1, 1)

    mixed = SetSystem.from_index_sets(3, [set(), {0}, {0, 1}, {2}])
    subset, eta = ramsey_homogenize(mixed)
    # ties at equal size break to the lexicographically least membership mask
    ok_mixed = sum(subset) == 2 and eta == (1, 1) and subset == (0, 1, 1)
    report(
        "criterion-10 homogenization",
        ok_full and ok_mixed,
        f"full=({full_label}) mixed_subset={subset} mixed_label={eta}",
    )


def test_criterion_11_alternation_bound():
    failures = []
    for length in range(1, 5):
        etas = list(itertools.product((0, 1), repeat=length))
        for m in range(11):
            for eta in etas:
                for mask in avoid_family(m, eta).members:
                    if alternation_number(mask) > 2 * length - 1:
                        failures.append(("bound", eta, mask))
            for mask in itertools.product((0, 1), repeat=m):
                if alternation_number(mask) >= 2 * length:
                    if not all(induces(mask, eta) for eta in etas):
                        failures.append(("induce", m, mask))
    report(
        "criterion-11 alternation bound",
        not failures,
        f"failures={len(failures)}",
    )
