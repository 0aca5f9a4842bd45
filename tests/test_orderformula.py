import contextlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
from vclabels.labelcalc import avoid_family, complement_label, parse_label
from vclabels.labelcompiler import MalformedExpressionError, compile_label, parse_expr
from vclabels.orderformula import (
    FORMULA_DEPTH_CAP,
    And,
    Bottom,
    Compare,
    FormulaSyntaxError,
    Not,
    Or,
    PositionGrid,
    Top,
    cof,
    eval_formula,
    format_formula,
    formula_arity,
    label_of_formula,
    ordered_trace_family,
    parse_formula,
)
from vclabels.setsystem import SetSystem, SizeGuardError


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
    assert formula_arity(parse_formula(chain)) == 1
    for deeper in ("!" + at_cap, f"({chain})", chain + " | x=y1"):
        with pytest.raises(FormulaSyntaxError, match="nests deeper"):
            parse_formula(deeper)


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


def test_cof_examples():
    assert cof(parse_formula("x>y1"), 1) == 1
    assert cof(parse_formula("x<y1"), 1) == 0
    assert cof(Top(), 0) == 1
    assert cof(Bottom(), 0) == 0
    with pytest.raises(ValueError):
        cof(parse_formula("x<y2"), 1)


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
        ordered_trace_family(Top(), 0, 13)
    with pytest.raises(SizeGuardError):
        ordered_trace_family(Top(), 7, 4)
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
