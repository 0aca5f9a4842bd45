import contextlib
import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
from bruteforce import PositionGrid
from vclabels import labelcalc, orderformula, setsystem
from vclabels.cli import main
from vclabels.harness import xor_pair_family
from vclabels.labelcalc import (
    avoid_family,
    complement_label,
    is_characterized_by,
    parse_label,
)
from vclabels.labelcompiler import MalformedExpressionError, compile_label, parse_expr
from vclabels.orderformula import (
    FORMULA_DEPTH_CAP,
    FORMULA_SIZE_CAP,
    LABEL_LENGTH_CAP,
    And,
    Bottom,
    Compare,
    ExtractionFailedError,
    FormulaSyntaxError,
    Not,
    Or,
    Top,
    cof,
    eval_formula,
    format_formula,
    formula_arity,
    label_of_formula,
    ordered_trace_family,
    parse_formula,
)
from vclabels.setsystem import (
    SetSystem,
    SizeGuardError,
    forbidden_label,
    mask_from_indices,
    phi_bound,
)


# --- parsing -------------------------------------------------------------


def test_parse_atoms():
    assert parse_formula("x<y1") == Compare("<", 1)
    assert parse_formula("x >= y12") == Compare(">=", 12)
    assert parse_formula("x=x") == Top()
    assert parse_formula("x!=x") == Bottom()
    assert parse_formula("x<=x") == Top()
    assert parse_formula("x>x") == Bottom()


def test_parse_structure():
    ast = parse_formula("(x>y1 & x<y2) | x=y3")
    assert ast == Or(And(Compare(">", 1), Compare("<", 2)), Compare("=", 3))
    assert parse_formula("!x<y1") == Not(Compare("<", 1))
    assert parse_formula("!(x<y1 | x=y2)") == Not(Or(Compare("<", 1), Compare("=", 2)))


def test_parse_precedence_and_associativity():
    assert parse_formula("x<y1 & x<y2 | x<y3") == Or(
        And(Compare("<", 1), Compare("<", 2)), Compare("<", 3)
    )
    assert parse_formula("x<y1 & x<y2 & x<y3") == And(
        And(Compare("<", 1), Compare("<", 2)), Compare("<", 3)
    )


@pytest.mark.parametrize(
    "text",
    [
        "x<<y1",
        "",
        "y1<x",
        "x<y0",
        "x<",
        "x<y",
        "(x<y1",
        "x<y1)",
        "x ? y1",
        "x<y1 x<y2",
        "x<y\u00b2",
        pytest.param("x<y" + "1" * 5000, id="x<y1...1"),
    ],
)
def test_parse_errors(text):
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula(text)
    assert "position" in str(info.value)


def test_parse_accepts_any_decimal_digits():
    assert parse_formula("x<y\u0663") == Compare("<", 3)
    assert parse_formula("x<y1\u00a0&\tx>y2") == And(Compare("<", 1), Compare(">", 2))


# Grammar pieces of every text parser, with runs of digits, numerals and
# spaces from all of Unicode where a parser reads numbers and gaps.
_DIGITS = st.text(st.characters(categories=("Nd", "No")), max_size=3)
_FUZZ_PIECES = (
    st.sampled_from(
        ["x", "y1", "<", "<=", "=", "!=", ">", "!", "&", "|", "(", ")", "{", "}"]
        + [",", "a", "b", " u ", "-inf", "inf", "\\{", "#", "0", "1", "01", "\n"]
    )
    | st.text(st.characters(categories=("Zs", "Cc")), max_size=2)
    | _DIGITS
    | _DIGITS.map("y".__add__)
    | _DIGITS.map("ground {}\n".format)
)


@settings(max_examples=300)
@given(st.text() | st.lists(_FUZZ_PIECES, max_size=8).map("".join))
def test_text_parsers_end_in_a_result_or_a_typed_error(text):
    with contextlib.suppress(FormulaSyntaxError):
        parse_formula(text)
    with contextlib.suppress(MalformedExpressionError):
        parse_expr(text)
    try:
        parse_label(text)
    except ValueError as exc:
        assert repr(text) in str(exc)
    try:
        SetSystem.from_text(text)
    except ValueError as exc:
        assert "line" in str(exc)


def test_syntax_error_carries_position():
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula("x<<y1")
    assert info.value.position == 2


@pytest.mark.parametrize(
    "text",
    [
        "!" * 1000 + "x<y1",
        "(" * 1000 + "x<y1" + ")" * 1000,
        " & ".join(["x<y1"] * 3000),
        "!(" * 400 + "x<y1" + ")" * 400,
    ],
)
def test_parse_rejects_deep_nesting(text):
    with pytest.raises(FormulaSyntaxError, match="nests deeper") as info:
        parse_formula(text)
    assert 0 < info.value.position < len(text)


def test_parse_nesting_cap_is_exact():
    # each '!', each group and each connective on a path is one level
    at_cap = "!" * (FORMULA_DEPTH_CAP - 1) + "x<y1"
    ast = parse_formula(at_cap)
    assert format_formula(ast) == at_cap
    same_parity = "!" * ((FORMULA_DEPTH_CAP - 1) % 2) + "x<y1"
    assert label_of_formula(ast) == label_of_formula(parse_formula(same_parity))
    chain = " | ".join(["x=y1"] * FORMULA_DEPTH_CAP)
    conjunction = " & ".join(["x=y1"] * FORMULA_DEPTH_CAP)
    shorter = " & ".join(["x=y1"] * (FORMULA_DEPTH_CAP - 1))
    for text in (chain, conjunction, "x=y1 | " + shorter):
        assert formula_arity(parse_formula(text)) == 1
    # The error is at the '!', '(' or connective that opens level 201.
    over = conjunction + " & x=y1"
    for deeper, position in [
        ("!" + at_cap, 0),
        (f"({chain})", 0),
        (chain + " | x=y1", len(chain) + 1),
        (over, len(conjunction) + 1),
        # an '|' of '&' chains: over the cap inside the '&' level, or at the '|'
        ("x=y1 | " + over, len(conjunction) + 8),
        ("x=y1 | " + conjunction, 5),
        (conjunction + " | x=y1", len(conjunction) + 1),
    ]:
        with pytest.raises(FormulaSyntaxError, match="nests deeper") as info:
            parse_formula(deeper)
        assert info.value.position == position


# --- formatting -----------------------------------------------------------


def test_format_examples():
    assert format_formula(Top()) == "x=x"
    assert format_formula(Bottom()) == "x!=x"
    ast = And(Or(Bottom(), Compare(">", 1)), Compare("<", 2))
    assert format_formula(ast) == "(x!=x | x>y1) & x<y2"
    assert format_formula(Not(And(Compare("<", 1), Compare(">", 2)))) == "!(x<y1 & x>y2)"


@st.composite
def formulas(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return Top()
        if kind == 1:
            return Bottom()
        rel = draw(st.sampled_from(["<", "<=", "=", "!=", ">=", ">"]))
        return Compare(rel, draw(st.integers(1, 4)))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Not(draw(formulas(depth=depth - 1)))
    left = draw(formulas(depth=depth - 1))
    right = draw(formulas(depth=depth - 1))
    return And(left, right) if kind == 1 else Or(left, right)


@given(formulas())
def test_format_parse_round_trip(ast):
    assert parse_formula(format_formula(ast)) == ast


# --- evaluation -------------------------------------------------------------


def test_eval_examples():
    assert eval_formula(parse_formula("x<y1"), 0, (1,))
    assert eval_formula(parse_formula("x=y1"), 2, (2,))
    assert eval_formula(parse_formula("!(x<y1)|x=y2"), 4, (1, 3))
    assert not eval_formula(parse_formula("x<y1"), 3, (1,))


def test_eval_arity_mismatch():
    with pytest.raises(ValueError, match="y2"):
        eval_formula(parse_formula("x<y2"), 0, (1,))


def test_formula_arity():
    assert formula_arity(Top()) == 0
    assert formula_arity(parse_formula("(x>y1 & x<y2) | x=y3")) == 3


@pytest.mark.parametrize(
    "ast, message",
    [
        (None, "not a formula node: None"),
        ("x<y1", "not a formula node: 'x<y1'"),
        (
            And(Top(), Not(orderformula._Connective(Top(), Bottom()))),
            r"not a formula node: _Connective\(left=Top\(\), right=Bottom\(\)\)",
        ),
        (
            Compare("<", 0),
            r"not a formula atom \(rel, int index >= 1\): Compare\(rel='<', index=0\)",
        ),
        (Compare("<", False), r"not a formula atom .*index=False\)$"),
        (Compare("<<", 1), r"not a formula atom .*rel='<<'"),
        (Compare("<", "1"), r"not a formula atom .*index='1'\)$"),
        (Compare("<", 1.0), r"not a formula atom .*index=1\.0\)$"),
        (Or(parse_formula("x<y1"), Not(Compare("=>", 2))), r"not a formula atom .*rel='=>'"),
    ],
    ids=["none", "text", "connective", "index0", "false", "rel", "str", "float", "nested"],
)
@pytest.mark.parametrize(
    "entry",
    [
        formula_arity,
        format_formula,
        lambda ast: eval_formula(ast, 1, (5, 6)),
        lambda ast: cof(ast, 2),
        lambda ast: ordered_trace_family(ast, 2, 3),
        label_of_formula,
    ],
    ids=["arity", "format", "eval", "cof", "trace_family", "label"],
)
def test_formula_arity_refuses_what_is_not_a_formula(entry, ast, message):
    # None and text used to read as x!=x, Compare("<", 0) compared x with
    # the last parameter, and a bad rel or index raised a stray KeyError,
    # IndexError or TypeError.
    with pytest.raises(ValueError, match=f"^{message}"):
        entry(ast)


def test_a_bool_index_counts_as_an_int():
    assert label_of_formula(Compare("<", True)) == label_of_formula(parse_formula("x<y1"))
    assert eval_formula(Compare("<", True), 0, (1,))


def _and_chain(levels):
    ast = Compare("<", 1)
    for _ in range(levels - 1):
        ast = And(ast, Compare(">", 2))
    return ast


@pytest.mark.parametrize(
    "entry",
    [
        formula_arity,
        format_formula,
        lambda ast: eval_formula(ast, 0, (1, 2)),
        lambda ast: cof(ast, 2),
        lambda ast: ordered_trace_family(ast, 2, 3),
        label_of_formula,
        lambda ast: label_of_formula(ast, 2),
    ],
    ids=["arity", "format", "eval", "cof", "trace_family", "label", "label_n"],
)
def test_deep_python_ast_is_a_size_guard_error(entry):
    # Trees built in Python skip the parser's nesting cap; a 5,000-deep
    # chain used to end in RecursionError.
    with pytest.raises(SizeGuardError, match="nests deeper"):
        entry(_and_chain(5000))
    with pytest.raises(SizeGuardError, match="nests deeper"):
        entry(_and_chain(FORMULA_DEPTH_CAP + 1))
    entry(_and_chain(FORMULA_DEPTH_CAP))


def test_deep_python_ast_compares_and_hashes():
    # The dataclass-generated == and hash recursed once per level and ended
    # in RecursionError past about 1,000 levels.
    first, second = _and_chain(5000), _and_chain(5000)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != Or(first.left, first.right)
    assert first != _and_chain(4999)
    assert first != And(first.left, Compare("<", 2))
    assert len({first, second, _and_chain(4999)}) == 2


def test_deep_python_ast_copies_and_reprs():
    # copy.deepcopy and the field-by-field repr recursed once per level and
    # ended in RecursionError past about 1,000 levels.
    ast = _and_chain(5000)
    assert copy.copy(ast) is ast
    assert copy.deepcopy(ast) is ast and copy.deepcopy([ast])[0] is ast
    text = repr(ast)
    assert text == "And(left=" * 4999 + "Compare(rel='<', index=1)" + (
        ", right=Compare(rel='>', index=2))" * 4999
    )


def test_deep_python_ast_pickles():
    # Pickling field by field recursed once per level and ended in
    # RecursionError past about 1,000 levels.
    ast = _and_chain(5000)
    twin = pickle.loads(pickle.dumps(ast))
    assert twin is not ast and twin == ast and hash(twin) == hash(ast)


def test_pickle_keeps_shared_subtrees_shared():
    # Unfolded, this tree has 2^21 - 1 nodes; it holds 21 distinct ones.
    ast = Compare("<", 1)
    for _ in range(20):
        ast = And(ast, ast)
    data = pickle.dumps(ast)
    assert len(data) < 1000
    node = pickle.loads(data)
    assert node == ast
    for _ in range(20):
        assert isinstance(node, And) and node.left is node.right
        node = node.left
    assert node == Compare("<", 1)


@given(formulas(depth=5))
def test_formula_pickles_to_an_equal_tree(ast):
    twin = pickle.loads(pickle.dumps(ast))
    assert twin == ast and repr(twin) == repr(ast)


@given(formulas(depth=5))
def test_repr_matches_the_recursive_reference(ast):
    assert repr(ast) == bf.value_repr(ast)


@pytest.mark.parametrize(
    "entry",
    [
        formula_arity,
        format_formula,
        lambda ast: eval_formula(ast, 0, (1,)),
        lambda ast: cof(ast, 1),
        lambda ast: ordered_trace_family(ast, 1, 3),
        label_of_formula,
    ],
    ids=["arity", "format", "eval", "cof", "trace_family", "label"],
)
def test_shared_subtrees_are_a_size_guard_error(entry, fastest):
    # 41 distinct nodes, 2^41 - 1 once unfolded; every walk used to visit
    # each node once per path and never finished.
    ast = Compare("<", 1)
    for _ in range(40):
        ast = And(ast, ast)

    def refuse():
        with pytest.raises(SizeGuardError, match=f"more than {FORMULA_SIZE_CAP} nodes"):
            entry(ast)

    assert fastest(refuse) < 0.1


def test_formula_size_cap_fits_compiled_labels_and_bounds_parsed_text():
    unfolded = Compare("<", 1)
    for _ in range(16):  # 2^17 - 1 nodes: the largest complete tree that fits
        unfolded = Or(unfolded, unfolded)
    assert formula_arity(unfolded) == 1
    assert formula_arity(compile_label((1, 0) * (LABEL_LENGTH_CAP // 2))) == 127
    # A parsed tree has at most one node per symbol of its text.
    too_long = "(" + " | ".join(["x<y1"] * (FORMULA_SIZE_CAP // 4 + 1)) + ")"
    with pytest.raises(FormulaSyntaxError, match=f"more than {FORMULA_SIZE_CAP} symbols"):
        parse_formula(too_long)


def test_cof_examples():
    assert cof(parse_formula("x>y1"), 1) == 1
    assert cof(parse_formula("x<y1"), 1) == 0
    assert cof(Top(), 0) == 1
    assert cof(Bottom(), 0) == 0
    with pytest.raises(ValueError):
        cof(parse_formula("x<y2"), 1)


def test_cof_refuses_arities_above_the_label_length_cap_quickly(fastest):
    # The cells used to be built for the formula arity whatever its size.
    assert cof(Compare("<", LABEL_LENGTH_CAP), LABEL_LENGTH_CAP) == 0

    def refuse():
        with pytest.raises(SizeGuardError, match=f"arity {10**6} exceeds cap"):
            cof(Compare("<", 10**6), 10**6)

    assert fastest(refuse) < 0.1


# --- position grid -----------------------------------------------------------


def test_grid_base_candidates():
    grid = PositionGrid(3)
    assert grid.base_candidates() == tuple(range(-1, 6))
    assert grid.ground_positions() == (0, 2, 4)
    assert grid.ground_position(2) == 4


def test_parameter_tuples_strictly_increasing_and_unique():
    grid = PositionGrid(3)
    seen = set()
    for tup in grid.parameter_tuples(3):
        assert all(a < b for a, b in zip(tup, tup[1:]))
        assert tup not in seen
        seen.add(tup)
    # single parameters use exactly the base integer candidates
    assert set(grid.parameter_tuples(1)) == {(c,) for c in grid.base_candidates()}


def naive_family(ast, n, m, candidates):
    fn_masks = set()
    for tup in itertools.combinations(candidates, n):
        fn_masks.add(tuple(1 if eval_formula(ast, 2 * j, tup) else 0 for j in range(m)))
    return fn_masks


def test_grid_adequacy_against_dense_enumeration():
    # A dense candidate set realizing every order type must give the same
    # family as the order-type enumeration.
    for text, n in [("x<y1 | x>y2", 2), ("x>y1 & x<y2", 2), ("x=y1 | x=y2", 2)]:
        ast = parse_formula(text)
        for m in (2, 3):
            dense = [
                Fraction(k, n + 1) for k in range((-1 - n) * (n + 1), (2 * m + n) * (n + 1))
            ]
            expected = naive_family(ast, n, m, dense)
            got = set(ordered_trace_family(ast, n, m).members)
            assert got == expected


def test_grid_integer_ranges_are_monotone_and_bounded():
    # Widening an integer candidate range only adds traces, and never goes
    # beyond the order-type family.
    ast = parse_formula("x<y1 | x>y2")
    m = 3
    full = set(ordered_trace_family(ast, 2, m).members)
    previous = set()
    for margin in (1, 2, 3):
        fam = naive_family(ast, 2, m, range(-margin, 2 * m - 1 + margin))
        assert previous <= fam <= full
        previous = fam
    assert previous == full


# --- trace families -----------------------------------------------------------


def test_ordered_trace_family_examples():
    got = ordered_trace_family(parse_formula("x<y1"), 1, 3)
    assert got == SetSystem.from_masks(
        3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
    )
    assert ordered_trace_family(parse_formula("x!=x"), 0, 4).members == ((0, 0, 0, 0),)
    blocks = ordered_trace_family(parse_formula("x>y1 & x<y2"), 2, 4)
    assert blocks == avoid_family(4, (1, 0, 1))
    assert len(blocks.members) == 11


def test_ordered_trace_family_guards():
    with pytest.raises(SizeGuardError):
        ordered_trace_family(Top(), 0, 21)
    with pytest.raises(SizeGuardError, match="arity 129 exceeds cap 128"):
        ordered_trace_family(Compare("<", 129), 129, 4)
    assert ordered_trace_family(Top(), 129, 4) == ordered_trace_family(Top(), 0, 4)
    with pytest.raises(ValueError, match="arity"):
        ordered_trace_family(parse_formula("x<y2"), 1, 4)


def test_ordered_trace_family_label_010_regression():
    # Needs two parameters past the top of the ground: an integer-only
    # candidate range misses the full-ground trace.
    ast = parse_formula("x<y1 | x>y2")
    for m in (2, 4, 6):
        assert ordered_trace_family(ast, 2, m) == avoid_family(m, (0, 1, 0))


@given(formulas(), st.data())
def test_ordered_trace_family_matches_grid_enumeration(ast, data):
    n = data.draw(st.integers(formula_arity(ast), 4))
    m = data.draw(st.integers(0, 7))
    grid = PositionGrid(m)
    expected = SetSystem.from_masks(
        m,
        (
            tuple(int(eval_formula(ast, x, params)) for x in grid.ground_positions())
            for params in grid.parameter_tuples(n)
        ),
    )
    assert ordered_trace_family(ast, n, m) == expected


@given(formulas(), st.data())
def test_xor_pair_family_matches_projection(ast, data):
    n = data.draw(st.integers(formula_arity(ast), 4))
    m = data.draw(st.integers(0, 7))
    traces = ordered_trace_family(ast, n, 2 * m).members
    expected = tuple(sorted(bf.xor_pair_members(traces, m)))
    assert xor_pair_family(ast, n, m).members == expected


# --- label extraction -----------------------------------------------------------


def test_label_of_formula_examples():
    assert label_of_formula(parse_formula("x<y1"), 1) == (0, 1)
    assert label_of_formula(parse_formula("x>y1 & x<y2"), 2) == (1, 0, 1)
    assert label_of_formula(parse_formula("x=x"), 0) == (0,)
    assert label_of_formula(parse_formula("x!=x"), 0) == (1,)
    assert label_of_formula(parse_formula("!(x<y1)"), 1) == (1, 0)
    assert label_of_formula(parse_formula("!(x<y1)"), 1) == complement_label((0, 1))


def test_label_of_formula_infers_arity():
    assert label_of_formula(parse_formula("x=y1")) == (1, 1)


def test_label_of_formula_validates_declared_arity():
    with pytest.raises(ValueError, match="declared arity 1 is below the formula arity"):
        label_of_formula(parse_formula("x<y2"), 1)
    assert label_of_formula(parse_formula("x<y2"), 10**9) == (0, 1)


def test_declared_arity_must_be_an_int():
    # 1.5 used to be read as an arity, and a tuple raised a stray TypeError.
    f = parse_formula("x<y1")
    for n in (1.5, (1,)):
        with pytest.raises(ValueError, match="^declared arity must be an int, got "):
            cof(f, n)
        with pytest.raises(ValueError, match="^declared arity must be an int, got "):
            label_of_formula(f, n)
    with pytest.raises(ValueError, match="^declared arity -1 is below the formula arity 0$"):
        label_of_formula(Top(), -1)
    assert label_of_formula(f, True) == label_of_formula(f) == (0, 1)


def test_label_of_formula_arity_cap():
    # Every label compile_label accepts comes back, at any declared arity.
    rng = random.Random(5)
    for _ in range(3):
        eta = tuple(rng.randint(0, 1) for _ in range(LABEL_LENGTH_CAP))
        assert label_of_formula(compile_label(eta)) == eta
        assert label_of_formula(compile_label(eta), LABEL_LENGTH_CAP + 5) == eta
    assert label_of_formula(Compare("<", LABEL_LENGTH_CAP)) == (0, 1)
    with pytest.raises(SizeGuardError, match="arity"):
        label_of_formula(Compare("<", LABEL_LENGTH_CAP + 1))


def _enumerated_label(ast, n):
    """Enumerate-and-verify extraction, the reference for label_of_formula.

    Enumerates the family on a ground of n+3 points, identifies the
    dimension from its size, reads the label off the leftmost (d+1)-subset
    and verifies it on grounds n+3 and n+4.
    """
    m = n + 3
    family = ordered_trace_family(ast, n, m)
    count = len(family.members)
    d = next((k for k in range(m + 1) if phi_bound(k, m) == count), None)
    if d is None or d + 1 > m:
        raise ExtractionFailedError(f"family size {count} matches no dimension")
    try:
        eta = forbidden_label(family, mask_from_indices(m, range(d + 1)))
    except ValueError as exc:
        raise ExtractionFailedError(str(exc)) from exc
    for check in (family, ordered_trace_family(ast, n, m + 1)):
        if not is_characterized_by(check, eta):
            raise ExtractionFailedError(f"label {eta} fails on ground {check.ground_size}")
    return eta


@settings(max_examples=150)
@given(formulas(depth=5), st.data())
def test_label_of_formula_matches_enumeration(ast, data):
    n = data.draw(st.integers(formula_arity(ast), 6))
    try:
        expected = _enumerated_label(ast, n)
    except ExtractionFailedError:
        with pytest.raises(ExtractionFailedError):
            label_of_formula(ast, n)
    else:
        assert label_of_formula(ast, n) == expected


KNOWN_LABELS = {
    "x<y1": "01",
    "x>y1 & x<y2": "101",
    "x=x": "0",
    "x!=x": "1",
    "!(x<y1)": "10",
}


def test_label_of_formula_enumerates_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("label extraction enumerated a family")

    for module in (setsystem, labelcalc, orderformula):
        monkeypatch.setattr(module, "_automaton_family", refuse)
    for text, bits in KNOWN_LABELS.items():
        assert label_of_formula(parse_formula(text)) == parse_label(bits)
    for length in range(1, 7):
        for eta in itertools.product((0, 1), repeat=length):
            assert label_of_formula(compile_label(eta)) == eta


def _also_accepting(make_step, word):
    """Wrap a step factory so that its automaton also accepts ``word``."""

    def make(arg):
        inner = make_step(arg)

        def step(state, bit):
            state, k = state if isinstance(state, tuple) else (state, 0)
            state = None if state is None else inner(state, bit)
            k = k + 1 if 0 <= k < len(word) and word[k] == bit else -1
            return None if state is None and k < 0 else (state, k)

        return step

    return make


@pytest.mark.parametrize("name", ["_cell_step", "_avoid_step"])
@pytest.mark.parametrize("text", list(KNOWN_LABELS))
def test_label_of_formula_negative_control(monkeypatch, capsys, name, text):
    # One extra accepted word makes the two languages differ, which the
    # product walk must report whichever side accepts it.
    eta = parse_label(KNOWN_LABELS[text])
    monkeypatch.setattr(orderformula, name, _also_accepting(getattr(orderformula, name), eta))
    with pytest.raises(ExtractionFailedError):
        label_of_formula(parse_formula(text))
    assert main(["label", "--formula", text]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_label_extraction_stability():
    for text, n in [("x<y1", 1), ("x>y1 & x<y2", 2), ("x!=y1", 1)]:
        ast = parse_formula(text)
        eta = label_of_formula(ast, n)
        for m in range(n + 2, n + 7):
            fam = ordered_trace_family(ast, n, m)
            assert fam == avoid_family(m, eta)


def test_cof_label_link():
    for eta_len in range(1, 5):
        for eta in itertools.product((0, 1), repeat=eta_len):
            ast = compile_label(eta)
            assert cof(ast, eta_len - 1) == 1 - eta[-1]
            assert (cof(ast, eta_len - 1) == 0) == (eta[-1] == 1)


def test_negation_law_small():
    for text in ["x<y1", "x=y1", "x>y1 & x<y2", "x<y1 | x>y2"]:
        ast = parse_formula(text)
        n = formula_arity(ast)
        assert label_of_formula(Not(ast), n) == complement_label(
            label_of_formula(ast, n)
        )


def test_trace_families_match_bruteforce_avoidance():
    # cross-check a parsed formula family against the oracle avoidance family
    ast = parse_formula("x<y1 | x>y2")
    for m in (3, 5):
        assert set(ordered_trace_family(ast, 2, m).members) == bf.avoid_members(
            m, (0, 1, 0)
        )
