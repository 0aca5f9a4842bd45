"""What a process loads: the package's names load their modules on first use."""

import subprocess
import sys
from importlib import import_module

import pytest

import vclabels
import vclabels.cli
from vclabels.labelcalc import avoid_family

# The public names, by the module that defines them.
EXPORTS = {
    "setsystem": [
        "Classification", "EmptyFamilyError", "GroundMismatchError", "Label",
        "Mask", "NotLocallyMaximumError", "SetSystem", "SizeGuardError",
        "alternation_number", "classify", "forbidden_label", "forbidden_labels",
        "mask_from_indices", "mask_indices", "phi_bound", "shatters", "trace",
        "vc_dim",
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
PUBLIC = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


def _loaded(argv, cwd, status=0):
    """The ``vclabels`` modules a fresh interpreter imports to run ``argv``."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, cwd=cwd,
    )
    assert done.returncode == status, done.stderr
    imported = (
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    )
    return {name for name in imported if name.split(".")[0] == "vclabels"}


CLI_ONLY = {"vclabels", "vclabels.cli"}  # --help and usage errors
FAMILIES = CLI_ONLY | {"vclabels.setsystem"}  # classify prints no label
CLI = FAMILIES | {"vclabels.labelcalc"}
FORMULA = CLI | {"vclabels.orderformula"}
COMPILER = FORMULA | {"vclabels.labelcompiler"}
EVERYTHING = COMPILER | {"vclabels.harness"}
HARNESS = CLI | {"vclabels.harness"}  # homogenize and t2 compile no formula
ENGINE = "vclabels._classifier"  # the fold and the shatter search


def _cli(*argv):
    return ["-m", "vclabels", *argv]


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(["-c", "import vclabels"], {"vclabels"}, id="import"),
        pytest.param(_cli("--help"), CLI_ONLY, id="help"),
        pytest.param(_cli("classify", "--in", "family.txt"), FAMILIES | {ENGINE}, id="classify"),
        pytest.param(_cli("labels", "--in", "family.txt"), CLI | {ENGINE}, id="labels"),
        pytest.param(_cli("avoid", "--label", "101", "--ground", "4"), CLI, id="avoid"),
        pytest.param(
            _cli("verify", "sauer", "--label", "101", "--ground", "4"), CLI, id="sauer"
        ),
        pytest.param(_cli("label", "--formula", "x>y1 & x<y2"), FORMULA, id="label"),
        pytest.param(_cli("compile", "--label", "101"), COMPILER, id="compile"),
        pytest.param(_cli("translate", "--label", "101"), COMPILER, id="translate-label"),
        pytest.param(_cli("translate", "--expr", "(a,b)"), COMPILER, id="translate-expr"),
        pytest.param(
            _cli("homogenize", "--in", "family.txt"), HARNESS | {ENGINE}, id="homogenize"
        ),
        pytest.param(
            _cli("verify", "l2", "--label", "101", "--pairs", "3"), EVERYTHING, id="l2"
        ),
        pytest.param(_cli("verify", "t2"), HARNESS, id="t2"),
    ],
)
def test_a_process_loads_only_the_modules_it_runs(tmp_path, argv, expected):
    # Each module is compiled from source when no bytecode cache is written,
    # so an eager import adds its compile time to every process.
    (tmp_path / "family.txt").write_text(avoid_family(4, (1, 0, 1)).to_text())
    assert _loaded(argv, tmp_path) == expected


@pytest.mark.parametrize(
    "code, loads_engine",
    [
        ("import vclabels.setsystem", False),
        ("from vclabels import avoid_family as f; f(6, (1, 0, 1))", False),
        (
            "from vclabels import label_of_formula as f, parse_formula as p; "
            "f(p('x>y1 & x<y2'))",
            False,
        ),
        ("from vclabels import verify_pair_xor as f; assert f((1, 0, 1), 4).passed", False),
        ("from vclabels import SetSystem as S, vc_dim as f; f(S.power_set(2))", True),
        ("from vclabels import SetSystem as S, classify as f; f(S.power_set(2))", True),
        ("from vclabels import SetSystem as S, forbidden_labels as f; f(S.power_set(2), 1)", True),
    ],
    ids=[
        "import", "avoid_family", "label_of_formula", "verify_pair_xor",
        "vc_dim", "classify", "forbidden_labels",
    ],
)
def test_only_classification_loads_the_engine(tmp_path, code, loads_engine):
    assert (ENGINE in _loaded(["-c", code], tmp_path)) == loads_engine


@pytest.mark.parametrize(
    "argv",
    [_cli("verify", "sauer"), _cli("avoid", "--ground", "4"), _cli("nosuch")],
    ids=["missing-label", "missing-option", "no-such-command"],
)
def test_a_usage_error_loads_only_the_cli(tmp_path, argv):
    assert _loaded(argv, tmp_path, status=2) == CLI_ONLY


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
