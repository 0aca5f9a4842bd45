"""Forbidden-label calculus for maximum families on ordered grounds.

Importing the package imports none of its modules.  The first access to a
public name imports the module that defines it (PEP 562), so a process
compiles only the modules it uses.
"""

_EXPORTS = {
    "setsystem": (
        "Classification",
        "EmptyFamilyError",
        "GroundMismatchError",
        "Label",
        "Mask",
        "NotLocallyMaximumError",
        "SetSystem",
        "SizeGuardError",
        "alternation_number",
        "classify",
        "forbidden_label",
        "forbidden_labels",
        "mask_from_indices",
        "mask_indices",
        "phi_bound",
        "shatters",
        "trace",
        "vc_dim",
    ),
    "labelcalc": (
        "PreconditionViolatedError",
        "avoid_family",
        "complement_label",
        "extend_avoiding",
        "format_label",
        "induces",
        "induces_within",
        "is_characterized_by",
        "parse_label",
        "similar",
    ),
    "orderformula": (
        "And",
        "Bottom",
        "Compare",
        "ExtractionFailedError",
        "FormulaAst",
        "FormulaSyntaxError",
        "Not",
        "Or",
        "Top",
        "cof",
        "eval_formula",
        "format_formula",
        "formula_arity",
        "label_of_formula",
        "ordered_trace_family",
        "parse_formula",
    ),
    "labelcompiler": (
        "Interval",
        "IntervalExpr",
        "MalformedExpressionError",
        "Point",
        "compile_label",
        "format_expr",
        "from_interval_expr",
        "parse_expr",
        "realize_expr",
        "to_interval_expr",
    ),
    "harness": (
        "IctTensor",
        "IctWitness",
        "NotMaximumError",
        "PairXorReport",
        "UnverifiedTensorError",
        "build_ict_tensor",
        "ict_witness_family",
        "ramsey_homogenize",
        "verify_ict",
        "verify_pair_xor",
        "xor_pair_family",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Unlike importlib.import_module, __import__ shows in -X importtime.  It
    # binds the submodule in this namespace; an exported name is bound below.
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
