import itertools

import pytest

import bruteforce as bf
from bruteforce import PositionGrid
from vclabels.labelcalc import avoid_family
from vclabels.labelcompiler import (
    Interval,
    IntervalExpr,
    MalformedExpressionError,
    Point,
    compile_label,
    format_expr,
    from_interval_expr,
    parse_expr,
    realize_expr,
    symbol_name,
    to_interval_expr,
)
from vclabels.orderformula import (
    LABEL_LENGTH_CAP,
    Top,
    format_formula,
    label_of_formula,
    ordered_trace_family,
    parse_formula,
)
from vclabels.setsystem import SizeGuardError

# label -> expected serialized expression, one row per catalog entry
CATALOG_EXPRESSIONS = {
    "0": "(-inf,inf)",
    "1": "{}",
    "00": "(-inf,inf)\\{a}",
    "01": "(-inf,a)",
    "10": "(a,inf)",
    "11": "{a}",
    "000": "(-inf,inf)\\{a}\\{b}",
    "001": "(-inf,b)\\{a}",
    "010": "(-inf,a) u (b,inf)",
    "101": "(a,b)",
    "1010": "(a,b) u (c,inf)",
    "111001": "{a} u {b} u (c,e)\\{d}",
}


def bits(text):
    return tuple(int(ch) for ch in text)


# --- compile_label ---------------------------------------------------------


def test_compile_label_base_cases():
    assert compile_label((0,)) == Top()
    assert format_formula(compile_label((0,))) == "x=x"
    assert format_formula(compile_label((1,))) == "x!=x"


def test_compile_label_examples():
    assert format_formula(compile_label((0, 1))) == "x=x & x<y1"
    assert format_formula(compile_label((1, 0, 1))) == "(x!=x | x>y1) & x<y2"


def test_compile_label_soundness_small():
    for eta_len in range(1, 4):
        for eta in itertools.product((0, 1), repeat=eta_len):
            ast = compile_label(eta)
            for m in range(eta_len + 1, 7):
                assert ordered_trace_family(ast, eta_len - 1, m) == avoid_family(
                    m, eta
                )


def test_compile_label_round_trip_small():
    for eta_len in range(1, 4):
        for eta in itertools.product((0, 1), repeat=eta_len):
            assert label_of_formula(compile_label(eta), eta_len - 1) == eta


def test_compile_label_length_cap():
    # alternating bits nest the formula text deepest
    half = LABEL_LENGTH_CAP // 2
    for eta in [(1, 0) * half, (1, 1) + (0, 1) * (half - 1)]:
        ast = compile_label(eta)
        assert parse_formula(format_formula(ast)) == ast
    for length in (LABEL_LENGTH_CAP + 1, 1000):
        with pytest.raises(SizeGuardError, match=f"label of {length} bits"):
            compile_label((1, 0) * (length // 2) + (1,) * (length % 2))


# --- symbols -----------------------------------------------------------------


def test_symbol_name_refuses_a_negative_index():
    with pytest.raises(ValueError, match="^symbol index must be nonnegative$"):
        symbol_name(-1)


def test_from_interval_expr_refuses_other_values():
    for value in ("(a,b)", None, (0, 1)):
        with pytest.raises(MalformedExpressionError, match="^expected an IntervalExpr$"):
            from_interval_expr(value)


def test_symbol_names():
    assert [symbol_name(i) for i in range(4)] == ["a", "b", "c", "d"]
    assert symbol_name(25) == "z"
    assert symbol_name(26) == "aa"
    for i in (0, 5, 25, 26, 700):
        assert bf.symbol_index(symbol_name(i)) == i
    with pytest.raises(ValueError):
        bf.symbol_index("A")


# --- label <-> expression ------------------------------------------------------


def test_catalog_serializations():
    for label_text, expected in CATALOG_EXPRESSIONS.items():
        assert format_expr(to_interval_expr(bits(label_text))) == expected


def test_translation_key_example():
    expr = to_interval_expr((1, 1, 0, 0, 1, 0, 1, 0))
    assert format_expr(expr) == "{a} u (b,d)\\{c} u (e,f) u (g,inf)"
    assert expr.segments == (
        Point(0),
        Interval(1, 3, (2,)),
        Interval(4, 5),
        Interval(6, None),
    )


def test_reverse_translation_example():
    expr = parse_expr("(-inf,b)\\{a} u {c,d} u (e,f)")
    assert from_interval_expr(expr) == (0, 0, 1, 1, 1, 0, 1)


def test_expression_round_trip_all_labels_up_to_8():
    for eta_len in range(1, 9):
        for eta in itertools.product((0, 1), repeat=eta_len):
            expr = to_interval_expr(eta)
            assert from_interval_expr(expr) == eta
            assert parse_expr(format_expr(expr)) == expr


def test_parse_expr_accepts_any_increasing_letters():
    assert parse_expr("(-inf,q) u {z}") == parse_expr("(-inf,a) u {b}")


def test_parse_expr_long_symbol_names_in_linear_time(fastest):
    # Names compare by (length, text), which is their rank order; converting
    # each name to its rank took 0.35 s at 40,000 letters.
    names = [symbol_name(i) for i in range(800)]
    assert sorted(names, key=lambda name: (len(name), name)) == names
    long_name = "z" * 40000

    def parse_long_names():
        assert parse_expr("{a} u {" + long_name + "}") == parse_expr("{a,b}")
        with pytest.raises(MalformedExpressionError, match="increasing"):
            parse_expr("{" + long_name + "} u {" + "a" * 40000 + "}")

    assert fastest(parse_long_names) < 0.1


@pytest.mark.parametrize(
    "text",
    [
        "(a",
        "{a}\\{b}",
        "(b,a)",
        "(a,inf) u {b}",
        "{a} u {a}",
        "(a,b)\\{c}",
        "() u {a}",
        "{A}",
    ],
)
def test_parse_expr_rejects_malformed(text):
    with pytest.raises(MalformedExpressionError):
        parse_expr(text)


@pytest.mark.parametrize("text", [None, b"(a,b)", 5])
def test_parse_expr_refuses_what_is_not_a_str(text):
    # Each used to raise a stray AttributeError or TypeError.
    with pytest.raises(MalformedExpressionError, match="^expression text must be a str, got "):
        parse_expr(text)


def test_interval_expr_validation():
    with pytest.raises(MalformedExpressionError):
        IntervalExpr((Point(1),), 1)  # symbols must start at a
    with pytest.raises(MalformedExpressionError):
        IntervalExpr((Interval(0, None), Point(1)), 2)  # right ray not last
    # A segment of another type used to raise a stray AttributeError.
    for segment in ("x", None, (0, 1)):
        with pytest.raises(MalformedExpressionError, match="a Point or an Interval"):
            IntervalExpr((Point(0), segment), 1)


def _constructor_accepted(symbols, segments):
    """Every IntervalExpr the constructor accepts within the given sizes."""
    kinds = [(None, 1)] + [
        ((lower, removed, upper), lower + removed + upper)
        for lower in (0, 1)
        for upper in (0, 1)
        for removed in range(symbols + 1)
    ]

    def shapes(left, count):
        yield ()
        if count:
            for kind, used in kinds:
                if used <= left:
                    for rest in shapes(left - used, count - 1):
                        yield (kind,) + rest

    for shape in shapes(symbols, segments):
        built, sym = [], 0
        for kind in shape:
            if kind is None:
                built.append(Point(sym))
                sym += 1
                continue
            lower, removed, upper = kind
            built.append(
                Interval(
                    sym if lower else None,
                    sym + lower + removed if upper else None,
                    tuple(range(sym + lower, sym + lower + removed)),
                )
            )
            sym += lower + removed + upper
        try:
            yield IntervalExpr(tuple(built), sym)
        except MalformedExpressionError:
            pass


def test_every_accepted_expression_is_the_image_of_a_label():
    accepted = list(_constructor_accepted(4, 6))
    assert len(accepted) == 2**6 - 2  # the labels of 1 to 5 bits
    for expr in accepted:
        assert to_interval_expr(from_interval_expr(expr)) == expr


# --- realize_expr ----------------------------------------------------------------


def test_realize_examples():
    left_ray = parse_expr("(-inf,a)")
    assert realize_expr(left_ray, (1,), 3) == (1, 0, 0)
    point = parse_expr("{a}")
    assert realize_expr(point, (2,), 3) == (0, 1, 0)
    interval = parse_expr("(a,b)")
    assert realize_expr(interval, (1, 5), 3) == (0, 1, 1)


def test_realize_validates_assignment():
    with pytest.raises(ValueError, match="positions"):
        realize_expr(parse_expr("(a,b)"), (1,), 3)
    with pytest.raises(ValueError, match="increasing"):
        realize_expr(parse_expr("(a,b)"), (5, 1), 3)


def test_realize_checks_its_ground_size():
    # A negative ground used to give the empty mask.
    with pytest.raises(ValueError, match="^ground size must be nonnegative$"):
        realize_expr(parse_expr("(-inf,a)"), (1,), -1)
    assert realize_expr(parse_expr("(-inf,a)"), (1,), True) == (1,)


def test_realized_families_match_avoidance():
    for eta_len in range(1, 4):
        for eta in itertools.product((0, 1), repeat=eta_len):
            expr = to_interval_expr(eta)
            for m in (3, 5):
                realized = {
                    realize_expr(expr, assignment, m)
                    for assignment in PositionGrid(m).parameter_tuples(
                        expr.symbol_count
                    )
                }
                assert realized == bf.avoid_members(m, eta)
