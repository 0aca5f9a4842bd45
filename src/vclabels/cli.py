"""Command-line interface.

Exit status: 0 on success or PASS, 1 on a failed verification, 2 on usage,
file, or size-guard errors.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys


def _deferred(module: str, name: str, source: str = ""):
    """A stand-in for ``module.name`` that imports the module when first called.

    Each subcommand then compiles only the modules it runs, and ``--help``
    and usage errors compile none but this one.  The stand-in carries the
    function's names, so wrappers that read them see the real function.
    With ``source`` it imports that module instead, which defines the
    function ``module`` exports.
    """
    qualified = f"{__package__}.{module}"
    loaded = f"{__package__}.{source or module}"

    def stand_in(*args, **kwargs):
        __import__(loaded)  # shows in -X importtime, unlike import_module
        return getattr(sys.modules[loaded], name)(*args, **kwargs)

    stand_in.__module__ = qualified
    stand_in.__name__ = stand_in.__qualname__ = name
    return stand_in


# Named as setsystem exports them, so a tracer that groups calls by module,
# such as perfbench's, counts them in that layer; they load only _kernel.
_automaton_blocks = _deferred("setsystem", "_automaton_blocks", "_kernel")
_count_words = _deferred("setsystem", "_count_words", "_kernel")
_member_lines = _deferred("setsystem", "_member_lines", "_kernel")
phi_bound = _deferred("setsystem", "phi_bound", "_kernel")
classify = _deferred("setsystem", "classify")
forbidden_labels = _deferred("setsystem", "forbidden_labels")
mask_indices = _deferred("setsystem", "mask_indices")
_avoid_step = _deferred("labelcalc", "_avoid_step")
format_label = _deferred("labelcalc", "format_label")
parse_label = _deferred("labelcalc", "parse_label")
format_formula = _deferred("orderformula", "format_formula")
label_of_formula = _deferred("orderformula", "label_of_formula")
parse_formula = _deferred("orderformula", "parse_formula")
compile_label = _deferred("labelcompiler", "compile_label")
format_expr = _deferred("labelcompiler", "format_expr")
from_interval_expr = _deferred("labelcompiler", "from_interval_expr")
parse_expr = _deferred("labelcompiler", "parse_expr")
to_interval_expr = _deferred("labelcompiler", "to_interval_expr")
build_ict_tensor = _deferred("harness", "build_ict_tensor")
ict_witness_family = _deferred("harness", "ict_witness_family")
ramsey_homogenize = _deferred("harness", "ramsey_homogenize")
verify_ict = _deferred("harness", "verify_ict")
verify_pair_xor = _deferred("harness", "verify_pair_xor")


class UsageError(ValueError):
    pass


def _load_system(path: str):
    from .setsystem import SetSystem

    with open(path, "r", encoding="utf-8") as handle:
        return SetSystem.from_text(handle.read())


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _indices_text(mask) -> str:
    return ",".join(str(j) for j in mask_indices(mask))


def _cmd_classify(args) -> int:
    system = _load_system(args.path)
    result = classify(system)
    print(f"ground {system.ground_size}")
    print(f"members {len(system._ints)}")
    print(f"vc_dimension {result.vc_dimension}")
    print(f"is_maximum {_bool_text(result.is_maximum)}")
    print(f"is_maximal {_bool_text(result.is_maximal)}")
    profile = " ".join(f"{k}:{count}" for k, count in result.sauer_profile)
    print(f"sauer_profile {profile}")
    return 0


def _cmd_labels(args) -> int:
    system = _load_system(args.path)
    result = classify(system)
    d = result.vc_dimension
    m = system.ground_size
    print(f"dimension {d}")
    if d + 1 > m:
        print("constant vacuous")
        return 0
    seen = set()
    for combo, eta in forbidden_labels(system, d + 1).items():
        subset = ",".join(str(j) for j in combo)
        if eta is None:
            print(f"subset {subset} not-locally-maximum")
        else:
            print(f"subset {subset} label {format_label(eta)}")
        seen.add(eta)
    if len(seen) == 1 and None not in seen:
        print(f"constant yes {format_label(next(iter(seen)))}")
    else:
        print("constant no")
    return 0


def _cmd_label(args) -> int:
    eta = label_of_formula(parse_formula(args.formula), args.arity)
    print(f"label {format_label(eta)}")
    return 0


def _cmd_compile(args) -> int:
    eta = parse_label(args.label)
    print(f"formula {format_formula(compile_label(eta))}")
    print(f"expression {format_expr(to_interval_expr(eta))}")
    return 0


def _cmd_translate(args) -> int:
    if args.label is not None:
        eta = parse_label(args.label)
        print(f"expression {format_expr(to_interval_expr(eta))}")
    else:
        eta = from_interval_expr(parse_expr(args.expr))
        print(f"label {format_label(eta)}")
    return 0


def _cmd_homogenize(args) -> int:
    system = _load_system(args.path)
    subset, eta = ramsey_homogenize(system)
    print(f"subset {_indices_text(subset)}")
    print(f"label {format_label(eta)}")
    print(f"size {sum(subset)}")
    return 0


def _cmd_avoid(args) -> int:
    # Written a block at a time: no family, line list or whole text is held.
    blocks = _automaton_blocks(args.ground, 0, _avoid_step(parse_label(args.label)))
    sys.stdout.write(f"ground {args.ground}\n")
    for block in blocks:
        sys.stdout.write(_member_lines(block, args.ground))
    return 0


def _key_values(record: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in record.items())


def _cmd_verify(args) -> int:
    shown = {}  # printed after the counts, not reported
    if args.claim != "t2" and args.label is None:
        raise UsageError(f"verify {args.claim} requires --label")
    if args.claim == "l2":
        report = verify_pair_xor(parse_label(args.label), args.pairs)
        passed = report.passed
        inputs = {"label": args.label, "pairs": args.pairs}
        counts = {"family": report.family_size, "expected": report.expected_size}
    elif args.claim == "t2":
        from .setsystem import SetSystem

        tensor = build_ict_tensor(args.depth, args.cols)
        verified = verify_ict(tensor)
        expected = SetSystem.size_exactly(args.cols, args.depth)
        family = ict_witness_family(tensor) if verified else None
        passed = verified and family == expected
        inputs = {"depth": args.depth, "cols": args.cols}
        counts = {
            "witnesses": len(tensor.witnesses),
            "family": len(family._ints) if family is not None else 0,
            "expected": len(expected._ints),
        }
    else:
        # sauer: avoidance family sizes meet the counting bound on every ground
        eta = parse_label(args.label)
        d = len(eta) - 1
        sizes = _count_words(args.ground, 0, _avoid_step(eta))
        failures = [m for m, size in enumerate(sizes) if size != phi_bound(d, m)]
        passed = not failures
        inputs = {"label": args.label, "ground": args.ground}
        counts = {"cases": args.ground + 1}
        if failures:
            shown = {"first_failure": failures[0]}
    print("PASS" if passed else "FAIL", _key_values(counts | shown))
    if args.report is not None:
        record = {"claim": args.claim, **inputs, **counts, "pass": _bool_text(passed)}
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(_key_values(record) + "\n")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vclabels",
        description=(
            "Forbidden-label calculus for maximum families on ordered grounds: "
            "classification, label extraction, compilation, translation, and "
            "finite-scale verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a set system from a file")
    p.add_argument("--in", dest="path", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("labels", help="per-subset forbidden labels and constancy")
    p.add_argument("--in", dest="path", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_labels)

    p = sub.add_parser("label", help="extract the label of a formula")
    p.add_argument("--formula", required=True, metavar="TEXT")
    p.add_argument("--arity", type=int, default=None, metavar="N")
    p.set_defaults(handler=_cmd_label)

    p = sub.add_parser("compile", help="compile a label to formula and expression")
    p.add_argument("--label", required=True, metavar="BITS")
    p.set_defaults(handler=_cmd_compile)

    p = sub.add_parser("translate", help="label to expression or expression to label")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--label", metavar="BITS")
    group.add_argument("--expr", metavar="TEXT")
    p.set_defaults(handler=_cmd_translate)

    p = sub.add_parser("homogenize", help="largest label-homogeneous subset")
    p.add_argument("--in", dest="path", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_homogenize)

    p = sub.add_parser("verify", help="run a verification claim")
    p.add_argument("claim", choices=["sauer", "l2", "t2"])
    p.add_argument("--label", metavar="BITS")
    p.add_argument("--pairs", type=int, default=5, metavar="M")
    p.add_argument("--depth", type=int, default=2, metavar="D")
    p.add_argument("--cols", type=int, default=3, metavar="M")
    p.add_argument("--ground", type=int, default=10, metavar="M")
    p.add_argument("--report", metavar="PATH")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("avoid", help="emit an avoidance family in file format")
    p.add_argument("--label", required=True, metavar="BITS")
    p.add_argument("--ground", type=int, required=True, metavar="M")
    p.set_defaults(handler=_cmd_avoid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout; let the flush at shutdown go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        # Only a loaded _kernel can have raised its SizeGuardError.
        guard = getattr(sys.modules.get(f"{__package__}._kernel"), "SizeGuardError", ())
        kinds = (UsageError, "usage: "), (guard, "size guard: "), (OSError, "file: ")
        prefix = next((text for kind, text in kinds if isinstance(exc, kind)), "")
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
