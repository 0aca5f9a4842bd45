"""What a process loads: the package's names load their modules on first use."""

import builtins
import subprocess
import sys
from importlib import import_module
from unittest import mock

import pytest

import vclabels
import vclabels.cli
from vclabels.harness import ramsey_homogenize, verify_pair_xor
from vclabels.labelcalc import avoid_family, is_characterized_by, similar
from vclabels.labelcompiler import compile_label
from vclabels.orderformula import ordered_trace_family, parse_formula

# The public names, by the module that defines them.
EXPORTS = {
    "_kernel": [
        "EmptyFamilyError", "GroundMismatchError", "Label", "Mask",
        "NotLocallyMaximumError", "SizeGuardError", "phi_bound",
    ],
    "setsystem": [
        "Classification", "SetSystem", "alternation_number", "classify",
        "forbidden_label", "forbidden_labels", "mask_from_indices",
        "mask_indices", "shatters", "trace", "vc_dim",
    ],
    "labelcalc": [
        "PreconditionViolatedError", "avoid_family", "complement_label",
        "extend_avoiding", "format_label", "induces", "induces_within",
        "is_characterized_by", "parse_label", "similar",
    ],
    "orderformula": [
        "And", "Bottom", "Compare", "ExtractionFailedError", "FormulaAst",
        "FormulaSyntaxError", "Not", "Or", "Top", "cof", "eval_formula",
        "format_formula", "formula_arity", "label_of_formula",
        "ordered_trace_family", "parse_formula",
    ],
    "labelcompiler": [
        "Interval", "IntervalExpr", "MalformedExpressionError", "Point",
        "compile_label", "format_expr", "from_interval_expr", "parse_expr",
        "realize_expr", "to_interval_expr",
    ],
    "harness": [
        "IctTensor", "IctWitness", "NotMaximumError", "PairXorReport",
        "UnverifiedTensorError", "build_ict_tensor", "ict_witness_family",
        "ramsey_homogenize", "verify_ict", "verify_pair_xor", "xor_pair_family",
    ],
}
NAMES = [*EXPORTS, *(name for names in EXPORTS.values() for name in names)]
PUBLIC = sorted(name for name in NAMES if name != "_kernel")


def _run(argv, cwd, status=0):
    """The modules a fresh interpreter imports to run ``argv``, standard
    library ones included, and the lines of its stderr that are not
    ``-X importtime``'s."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, cwd=cwd,
    )
    assert done.returncode == status, done.stderr
    lines = done.stderr.splitlines()
    imported = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    errors = [line for line in lines if not line.startswith("import time:")]
    return imported, errors


def _package(imported):
    return {name for name in imported if name.split(".")[0] == "vclabels"}


def _loaded(argv, cwd, status=0):
    return _package(_run(argv, cwd, status)[0])


CLI_ONLY = {"vclabels", "vclabels.cli"}  # --help and usage errors
KERNEL = CLI_ONLY | {"vclabels._kernel"}
FAMILIES = KERNEL | {"vclabels.setsystem"}  # classify prints no label
MATCHER = KERNEL | {"vclabels.labelcalc"}  # avoid and sauer build no family
FORMULA = MATCHER | {"vclabels.orderformula"}
COMPILER = FORMULA | {"vclabels.labelcompiler"}
TRANSLATOR = MATCHER | {"vclabels.labelcompiler"}  # translate compiles no formula
PAIRS = COMPILER | {"vclabels.harness"}  # l2 builds no family
HARNESS = FAMILIES | MATCHER | {"vclabels.harness"}  # homogenize and t2 compile no formula
SETSYSTEM = "vclabels.setsystem"
ENGINE = "vclabels._classifier"  # the fold and the shatter search
MASKS = "vclabels._masks"  # a family's members as tuple masks


def _cli(*argv):
    return ["-m", "vclabels", *argv]


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(["-c", "import vclabels"], {"vclabels"}, id="import"),
        pytest.param(_cli("--help"), CLI_ONLY, id="help"),
        pytest.param(_cli("classify", "--in", "family.txt"), FAMILIES | {ENGINE}, id="classify"),
        pytest.param(
            _cli("labels", "--in", "family.txt"), FAMILIES | MATCHER | {ENGINE}, id="labels"
        ),
        pytest.param(_cli("avoid", "--label", "101", "--ground", "4"), MATCHER, id="avoid"),
        pytest.param(
            _cli("verify", "sauer", "--label", "101", "--ground", "4"), MATCHER, id="sauer"
        ),
        pytest.param(_cli("label", "--formula", "x>y1 & x<y2"), FORMULA, id="label"),
        pytest.param(_cli("compile", "--label", "101"), COMPILER, id="compile"),
        pytest.param(_cli("translate", "--label", "101"), TRANSLATOR, id="translate-label"),
        pytest.param(_cli("translate", "--expr", "(a,b)"), TRANSLATOR, id="translate-expr"),
        pytest.param(
            _cli("homogenize", "--in", "family.txt"), HARNESS | {ENGINE}, id="homogenize"
        ),
        pytest.param(_cli("verify", "l2", "--label", "101", "--pairs", "3"), PAIRS, id="l2"),
        # The witness family is built from its member ints.
        pytest.param(_cli("verify", "t2"), HARNESS, id="t2"),
    ],
)
def test_a_process_loads_only_the_modules_it_runs(tmp_path, argv, expected):
    # Each module is compiled from source when no bytecode cache is written,
    # so an eager import adds its compile time to every process.
    (tmp_path / "family.txt").write_text(avoid_family(4, (1, 0, 1)).to_text())
    imported = _run(argv, tmp_path)[0]
    assert _package(imported) == expected
    # argparse, and the gettext and locale it imports, only print help.
    assert ("argparse" in imported) == ("--help" in argv)


@pytest.mark.parametrize(
    "code, loads",
    [
        ("import vclabels.setsystem", {SETSYSTEM}),
        ("from vclabels import avoid_family as f; f(6, (1, 0, 1))", {SETSYSTEM}),
        (
            "from vclabels import label_of_formula as f, parse_formula as p; "
            "f(p('x>y1 & x<y2'))",
            set(),
        ),
        ("from vclabels import verify_pair_xor as f; assert f((1, 0, 1), 4).passed", set()),
        ("from vclabels import SetSystem as S, vc_dim as f; f(S.power_set(2))", {SETSYSTEM, ENGINE}),
        ("from vclabels import SetSystem as S, classify as f; f(S.power_set(2))", {SETSYSTEM, ENGINE}),
        (
            "from vclabels import SetSystem as S, forbidden_labels as f; f(S.power_set(2), 1)",
            {SETSYSTEM, ENGINE},
        ),
    ],
    ids=[
        "import", "avoid_family", "label_of_formula", "verify_pair_xor",
        "vc_dim", "classify", "forbidden_labels",
    ],
)
def test_only_classification_loads_the_engine(tmp_path, code, loads):
    # Only what builds a family loads setsystem, and only classification the engine.
    assert _loaded(["-c", code], tmp_path) & {SETSYSTEM, ENGINE} == loads


_FAMILY = avoid_family(8, (1, 0, 1))
_FORMULA = parse_formula("x>y1 & x<y2")
HOT_PATHS = {
    "avoid_family": lambda: avoid_family(8, (1, 0, 1)),
    "is_characterized_by": lambda: is_characterized_by(_FAMILY, (1, 0, 1)),
    "similar": lambda: similar(_FAMILY, _FAMILY),
    "ordered_trace_family": lambda: ordered_trace_family(_FORMULA, 2, 6),
    "compile_label": lambda: compile_label((1, 0, 1)),
    "verify_pair_xor": lambda: verify_pair_xor((1, 0, 1), 4),
    "ramsey_homogenize": lambda: ramsey_homogenize(_FAMILY),
}


@pytest.mark.parametrize("call", HOT_PATHS.values(), ids=HOT_PATHS)
def test_a_warm_call_runs_no_import_statement(monkeypatch, call):
    # An import statement calls __import__ on every call, even once its
    # module is loaded; a module reached through _kernel._module is looked
    # up in a cache.
    call()
    imports = mock.Mock(wraps=builtins.__import__)
    monkeypatch.setattr(builtins, "__import__", imports)
    call()
    assert imports.call_count == 0


@pytest.mark.parametrize(
    "code, loads_masks",
    [
        ("from vclabels import avoid_family as f; f(6, (1, 0, 1)).to_text()", False),
        (
            "from vclabels import SetSystem as S, classify as f; "
            "f(S.from_text('ground 2\\n01\\n10\\n'))",
            False,
        ),
        ("from vclabels import SetSystem as S; S(2, ((0, 1),))", True),
        ("from vclabels import avoid_family as f; f(6, (1, 0, 1)).members", True),
        ("from vclabels import avoid_family as f; f(6, (1, 0, 1)).member_ints", True),
        ("from vclabels import SetSystem as S, trace as f; f(S.power_set(3), (1, 0, 1))", False),
        (
            "from vclabels import build_ict_tensor as b, ict_witness_family as f; f(b(2, 3))",
            False,
        ),
    ],
    ids=[
        "avoid_family", "from_text-classify", "constructor", "members", "member_ints",
        "trace", "ict_witness_family",
    ],
)
def test_only_tuple_masks_load_their_module(tmp_path, code, loads_masks):
    assert (MASKS in _loaded(["-c", code], tmp_path)) == loads_masks


@pytest.mark.parametrize(
    "argv, message",
    [
        (_cli("avoid", "--label", "1", "--ground", "21"), "family on ground 21 exceeds cap 20"),
        (_cli("compile", "--label", "10" * 70), "label of 140 bits exceeds cap 128"),
        (_cli("label", "--formula", "x<y129"), "formula arity 129 exceeds cap 128"),
    ],
    ids=["avoid", "compile", "label"],
)
def test_a_size_guard_is_named_where_setsystem_never_loads(tmp_path, argv, message):
    # In-process CLI tests run with setsystem already imported, so only a
    # fresh process shows where cli.main finds SizeGuardError.
    loaded, errors = _run(argv, tmp_path, status=2)
    assert SETSYSTEM not in loaded
    assert errors == [f"error: size guard: {message}"]


@pytest.mark.parametrize(
    "argv, by_argparse",
    [
        # verify reads its command line, and then finds --label missing.
        (_cli("verify", "sauer"), False),
        (_cli("avoid", "--ground", "4"), True),
        (_cli("nosuch"), True),
    ],
    ids=["missing-label", "missing-option", "no-such-command"],
)
def test_a_usage_error_loads_only_the_cli(tmp_path, argv, by_argparse):
    imported = _run(argv, tmp_path, status=2)[0]
    assert _package(imported) == CLI_ONLY
    assert ("argparse" in imported) == by_argparse


def test_public_names_are_unchanged():
    assert sorted(vclabels.__all__) == PUBLIC
    assert len(PUBLIC) == 70


@pytest.mark.parametrize("module", EXPORTS)
def test_each_public_name_is_its_module_s_object(module):
    assert getattr(vclabels, module) is import_module(f"vclabels.{module}")
    for name in EXPORTS[module]:
        assert getattr(vclabels, name) is getattr(import_module(f"vclabels.{module}"), name)


def test_dir_lists_the_public_names_and_unknown_names_raise():
    assert set(vclabels.__all__) <= set(dir(vclabels))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        vclabels.no_such_name


def test_star_import_binds_every_public_name():
    code = "from vclabels import *; print(*sorted(n for n in dir() if n[0] != '_'))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == PUBLIC


def test_cli_stand_ins_name_real_functions():
    # A wrapper that traces the CLI's calls names each span after the
    # function's module and qualified name.
    stand_ins = set()
    for name, value in vars(vclabels.cli).items():
        module = getattr(value, "__module__", None) or ""
        if (
            callable(value)
            and not isinstance(value, type)
            and module.startswith("vclabels.")
            and module != "vclabels.cli"
        ):
            real = getattr(import_module(module), value.__qualname__)
            assert real.__name__ == value.__name__ == name
            if real is not value:
                stand_ins.add((module, name))
    assert len(stand_ins) == 23
    assert {module for module, _ in stand_ins} == {
        "vclabels.setsystem", "vclabels.labelcalc", "vclabels.orderformula",
        "vclabels.labelcompiler", "vclabels.harness",
    }
    assert vclabels.cli.format_expr(vclabels.cli.to_interval_expr((1, 0, 1))) == "(a,b)"
