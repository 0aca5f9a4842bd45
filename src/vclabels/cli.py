"""Command-line interface.

Exit status: 0 on success or PASS, 1 on a failed verification, 2 on usage,
file, or size-guard errors.  All output is deterministic.

The grammar is one table, _COMMANDS.  A command line of plain ``--flag
value`` pairs is read from it by _parse, so a call that runs never imports
argparse; every other one, such as ``--help`` or a usage error, goes to the
argparse parser that build_parser makes from the same table, which prints
the help and errors.
"""

from __future__ import annotations

import os
import sys
import types


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
_classify_labelled = _deferred("setsystem", "_classify_labelled")
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
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:  # printed as a file error, with the path
            raise OSError(f"{path}: {exc}") from exc
    return SetSystem.from_text(text)


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
    result, labels = _classify_labelled(_load_system(args.path))
    print(f"dimension {result.vc_dimension}")
    if not labels:
        print("constant vacuous")
        return 0
    seen = set()
    for combo, eta in labels.items():
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
    # Written before the verdict is printed, so stdout stays empty when the
    # report cannot be.
    if args.report is not None:
        record = {"claim": args.claim, **inputs, **counts, "pass": _bool_text(passed)}
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(_key_values(record) + "\n")
    print("PASS" if passed else "FAIL", _key_values(counts | shown))
    return 0 if passed else 1


# The grammar of the command line, which both _parse and build_parser read:
# per subcommand its help, its handler, its options and its positional as
# (dest, choices), if it takes one.  An option is (flag, dest, type,
# default, required, metavar); exactly one of the options whose required is
# _ONE_OF must be given.
_ONE_OF = "one of"
_IN = ("--in", "path", str, None, True, "FILE")
_LABEL = ("--label", "label", str, None, True, "BITS")
_COMMANDS = {
    "classify": ("classify a set system from a file", _cmd_classify, [_IN], None),
    "labels": ("per-subset forbidden labels and constancy", _cmd_labels, [_IN], None),
    "label": ("extract the label of a formula", _cmd_label, [
        ("--formula", "formula", str, None, True, "TEXT"),
        ("--arity", "arity", int, None, False, "N"),
    ], None),
    "compile": ("compile a label to formula and expression", _cmd_compile, [_LABEL], None),
    "translate": ("label to expression or expression to label", _cmd_translate, [
        ("--label", "label", str, None, _ONE_OF, "BITS"),
        ("--expr", "expr", str, None, _ONE_OF, "TEXT"),
    ], None),
    "homogenize": ("largest label-homogeneous subset", _cmd_homogenize, [_IN], None),
    "verify": ("run a verification claim", _cmd_verify, [
        ("--label", "label", str, None, False, "BITS"),
        ("--pairs", "pairs", int, 5, False, "M"),
        ("--depth", "depth", int, 2, False, "D"),
        ("--cols", "cols", int, 3, False, "M"),
        ("--ground", "ground", int, 10, False, "M"),
        ("--report", "report", str, None, False, "PATH"),
    ], ("claim", ("sauer", "l2", "t2"))),
    "avoid": ("emit an avoidance family in file format", _cmd_avoid, [
        _LABEL,
        ("--ground", "ground", int, None, True, "M"),
    ], None),
}


def _parse(argv: list[str]) -> dict | None:
    """The arguments argparse gives for ``argv``, as a dict, or None.

    Reads only a command of _COMMANDS followed by exact ``--flag value``
    pairs, each flag at most once and no value starting with "-", with the
    command's positional once anywhere among them; every required option
    must be given, exactly one of a one-of group, and every value must
    convert to its type.  Any other command line gives None, and argparse
    reads it: help, abbreviations, ``--flag=value``, repeated flags,
    negative numbers and every usage error.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, options, positional = _COMMANDS[argv[0]]
    args = {"command": argv[0], "handler": handler}
    args.update((dest, default) for _, dest, _, default, _, _ in options)
    readers = {flag: (dest, kind) for flag, dest, kind, _, _, _ in options}
    given = set()
    words = iter(argv[1:])
    for word in words:
        if word in readers and word not in given:
            value = next(words, None)
            if value is None or value.startswith("-"):
                return None
            dest, kind = readers[word]
            try:
                args[dest] = kind(value)
            except ValueError:
                return None
            given.add(word)
        elif positional and word in positional[1] and positional[0] not in args:
            args[positional[0]] = word
        else:
            return None
    if any(need is True and flag not in given for flag, _, _, _, need, _ in options):
        return None
    one_of = {flag for flag, _, _, _, need, _ in options if need is _ONE_OF}
    if one_of and len(one_of & given) != 1:
        return None
    if positional and positional[0] not in args:
        return None
    return args


def build_parser():
    """The argparse parser of _COMMANDS, which prints help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="vclabels",
        description=(
            "Forbidden-label calculus for maximum families on ordered grounds: "
            "classification, label extraction, compilation, translation, and "
            "finite-scale verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, options, positional) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if positional:
            p.add_argument(positional[0], choices=positional[1])
        group = None
        for flag, dest, kind, default, need, metavar in options:
            if need is _ONE_OF:
                group = group or p.add_mutually_exclusive_group(required=True)
            (group if need is _ONE_OF else p).add_argument(
                flag, dest=dest, type=kind, default=default, required=need is True, metavar=metavar
            )
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parsed = _parse(argv)
    if parsed is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    else:
        args = types.SimpleNamespace(**parsed)
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
