import copy
import functools
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

import bruteforce as bf
from bruteforce import PositionGrid, symbol_name
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
    _symbol_names,
    to_interval_expr,
)
from vclabels.orderformula import (
    LABEL_LENGTH_CAP,
    Top,
    _cells,
    format_formula,
    label_of_formula,
    ordered_trace_family,
    parse_formula,
)
from vclabels.setsystem import ENUMERATION_GROUND_CAP, SizeGuardError

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


def test_format_expr_names_its_symbols_as_symbol_name_does():
    assert list(itertools.islice(_symbol_names(), 2001)) == [symbol_name(i) for i in range(2001)]


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


def _oracle_labels():
    """Every label of 1 to 10 bits, then labels of 64 and 128 bits."""
    for length in range(1, 11):
        yield from itertools.product((0, 1), repeat=length)
    rng = random.Random(36)
    for length in (64, 128):
        yield (1, 0) * (length // 2)
        yield (0,) * length
        yield (1,) * length
        yield from (tuple(rng.randint(0, 1) for _ in range(length)) for _ in range(20))


def _segments(plain):
    """Point and Interval values of bruteforce.expr_segments segments."""
    return tuple(Point(s[1]) if s[0] == "point" else Interval(*s[1:]) for s in plain)


def test_label_held_expressions_match_the_segment_walk_oracle():
    for eta in _oracle_labels():
        plain = bf.expr_segments(eta)
        assert bf.segments_label(plain) == eta
        text = bf.format_segments(plain, symbol_name)
        given = IntervalExpr(_segments(plain), len(eta) - 1)
        assert format_expr(given) == text and from_interval_expr(given) == eta
        held = to_interval_expr(eta)
        for expr in (held, parse_expr(format_expr(held))):
            # Text and label are read off the label: no segment is built.
            assert format_expr(expr) == text and from_interval_expr(expr) == eta
            assert "segments" not in vars(expr)
            assert expr.segments == given.segments == _segments(plain)
            assert expr == given and hash(expr) == hash(given) and repr(expr) == repr(given)
            assert expr.symbol_count == len(eta) - 1
            for twin in (pickle.loads(pickle.dumps(expr)), copy.deepcopy(expr)):
                assert twin == given and hash(twin) == hash(given)
                assert format_expr(twin) == text and from_interval_expr(twin) == eta


def test_an_expression_compares_by_the_segments_it_was_given():
    # An interval holds its removed points as a tuple, so an expression
    # built with a list of them is the one its label 1001 gives.
    listed = IntervalExpr((Interval(0, 2, [1]),), 3)
    given = IntervalExpr((Interval(0, 2, (1,)),), 3)
    held = to_interval_expr((1, 0, 0, 1))
    assert listed == given == held == parse_expr("(a,c)\\{b}")
    assert hash(listed) == hash(given) == hash(held)
    assert repr(listed) == repr(given) == repr(held)
    assert listed.segments[0].removed == (1,)
    assert from_interval_expr(listed) == from_interval_expr(given) == (1, 0, 0, 1)
    assert format_expr(listed) == format_expr(given) == "(a,c)\\{b}"
    # Another label's expression is still another value.
    assert listed != IntervalExpr([Point(0), Point(1), Point(2)], 3)


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


MALFORMED_TEXTS = [
    ("", "cannot parse expression piece ''"),
    ("(a", "cannot parse expression piece '(a'"),
    ("{a}\\{b}", "cannot parse expression piece '{a}\\\\{b}'"),
    ("{a} u {}", "cannot parse expression piece '{}'"),
    ("(-inf,inf) u", "cannot parse expression piece '(-inf,inf) u'"),
    ("{a} u (b,-inf)", "cannot parse expression piece '(b,-inf)'"),
    ("(b,a)", "symbols must be strictly increasing left to right: ['b', 'a']"),
    ("{a} u {a}", "symbols must be strictly increasing left to right: ['a', 'a']"),
    # An interval's removed points come between its ends in symbol order.
    ("(a,b)\\{c}", "symbols must be strictly increasing left to right: ['a', 'c', 'b']"),
    ("{aa} u {z}", "symbols must be strictly increasing left to right: ['aa', 'z']"),
    ("{a} u (-inf,b)", "an interval unbounded below must come first"),
    ("(a,inf) u {b}", "an interval unbounded above must come last"),
    ("(-inf,inf) u {a}", "an interval unbounded above must come last"),
    ("{a} u (b,c) u (d,inf) u (e,inf)", "an interval unbounded above must come last"),
    # Two faults: a piece that cannot be parsed comes before the order of
    # the symbols, which comes before a misplaced unbounded end, and that
    # end is the first in reading order, its lower end before its upper.
    ("{b} u {a} u (c", "cannot parse expression piece '(c'"),
    ("(-inf,a) u (-inf,b) u )", "cannot parse expression piece ')'"),
    ("{b} u (-inf,a)", "symbols must be strictly increasing left to right: ['b', 'a']"),
    ("(a,inf) u {c} u {b}", "symbols must be strictly increasing left to right: ['a', 'c', 'b']"),
    ("(a,inf) u (-inf,b)", "an interval unbounded above must come last"),
    ("{a} u (-inf,inf) u {b}", "an interval unbounded below must come first"),
    ("{a} u (b,inf) u (-inf,c)", "an interval unbounded above must come last"),
]


@pytest.mark.parametrize("text, message", MALFORMED_TEXTS)
def test_parse_expr_names_the_first_fault(text, message):
    with pytest.raises(MalformedExpressionError) as caught:
        parse_expr(text)
    assert str(caught.value) == message


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


@pytest.mark.parametrize(
    "count, message",
    [
        (-1, "^symbol count must be nonnegative$"),
        (None, "^symbol count must be an int, got None$"),
        (1.5, "^symbol count must be an int, got 1.5$"),
        ("0", "^symbol count must be an int, got '0'$"),
    ],
)
def test_interval_expr_checks_its_symbol_count(count, message):
    # -1 used to build a value that no label maps to, and the others raised
    # a stray TypeError.
    with pytest.raises(ValueError, match=message) as caught:
        IntervalExpr((), count)
    assert type(caught.value) is ValueError


def test_interval_expr_compares_the_walk_length_before_building_a_range():
    # list(range(10**30)) used to raise OverflowError.
    with pytest.raises(MalformedExpressionError, match=r"left to right, got \[0\]$"):
        IntervalExpr((Point(0),), 10**30)


def _constructor_accepted(symbols, segments, make_removed=tuple):
    """Every IntervalExpr the constructor accepts within the given sizes.

    ``make_removed`` turns the range of an interval's removed points into
    the value the Interval is given.
    """
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
                    make_removed(range(sym + lower, sym + lower + removed)),
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


@pytest.mark.parametrize(
    "text, positions",
    [
        ("(a,b)", (math.nan, 1)),
        ("(a,b)", (1, math.nan)),
        ("(a,b) u {c}", (math.nan, 1, 3)),
        ("(a,b) u {c}", (1, math.nan, 3)),
        ("(a,b) u {c}", (1, 3, math.nan)),
        ("(a,inf)", (math.nan,)),
    ],
)
def test_realize_refuses_nan_positions(text, positions):
    # NaN is below nothing, so the pairs with it used to pass as increasing
    # and (a,b) realized (0, 0, 0).
    with pytest.raises(ValueError, match="^assignment positions must be strictly increasing$"):
        realize_expr(parse_expr(text), positions, 3)


def test_realize_checks_its_ground_size():
    # A negative ground used to give the empty mask.
    with pytest.raises(ValueError, match="^ground size must be nonnegative$"):
        realize_expr(parse_expr("(-inf,a)"), (1,), -1)
    assert realize_expr(parse_expr("(-inf,a)"), (1,), True) == (1,)
    # A mask takes a step per point, so an unbounded ground would not end.
    top = 1 << ENUMERATION_GROUND_CAP
    assert realize_expr(parse_expr("(-inf,a)"), (1,), top)[:2] == (1, 0)
    for ground in (top + 1, 2**70):
        with pytest.raises(SizeGuardError, match=f"^mask of {ground} points exceeds cap {top}$"):
            realize_expr(parse_expr("(-inf,a)"), (1,), ground)


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


def _labels_up_to(length):
    for eta_len in range(1, length + 1):
        yield from itertools.product((0, 1), repeat=eta_len)


@functools.cache
def _position_pool(ground_size):
    """The ground points 2j, the odd ints between and beside them, and
    Fractions and floats off the integers, in increasing order."""
    ints = range(-2, 2 * ground_size + 8)
    thirds = (Fraction(k, 3) for k in range(3 * ints.start, 3 * ints.stop) if k % 3)
    return sorted({*ints, *thirds, *(k + 0.5 for k in ints)})


def _random_positions(rng, count, ground_size):
    """``count`` strictly increasing positions around a ground of the given size."""
    return tuple(sorted(rng.sample(_position_pool(ground_size), count)))


def test_realize_reads_the_label_as_the_segment_scan_did():
    rng = random.Random(37)
    for eta in _labels_up_to(8):
        expr, plain = to_interval_expr(eta), bf.expr_segments(eta)
        for _ in range(8):
            m = rng.randint(0, len(eta) + 2)
            positions = _random_positions(rng, len(eta) - 1, m)
            assert realize_expr(expr, positions, m) == bf.realize_segments(plain, positions, m)
        # Realizing reads the label and builds no segment.
        assert "segments" not in vars(expr)


def test_label_cells_are_those_of_the_compiled_formula():
    for eta in _labels_up_to(8):
        n = len(eta) - 1
        # Gap g is in the set iff bit g is 0; symbol s iff bits s, s+1 are 1.
        cells = [1 - eta[0]]
        for s in range(n):
            cells += [eta[s] & eta[s + 1], 1 - eta[s + 1]]
        assert _cells(compile_label(eta), None) == tuple(cells)
        # With symbol s at 4s + 2, ground point c, at 2c, lies in cell c.
        positions = range(2, 4 * n + 2, 4)
        assert realize_expr(to_interval_expr(eta), positions, 2 * n + 1) == tuple(cells)


def test_every_constructor_built_expression_realizes_as_its_label():
    # The constructor uses up a one-shot iterator of removed points, so
    # (a,c)\{b} built with one used to realize (0, 1, 1, 0) here.
    expr = IntervalExpr((Interval(0, 2, iter([1])),), 3)
    assert format_expr(expr) == "(a,c)\\{b}"
    assert realize_expr(expr, (1, 2, 5), 4) == (0, 0, 1, 0)
    rng = random.Random(371)
    # Those given tuples equal their label's expression (the test above).
    for make_removed in (list, iter):
        for expr in _constructor_accepted(4, 6, make_removed):
            held = to_interval_expr(from_interval_expr(expr))
            for _ in range(4):
                m = rng.randint(0, 6)
                positions = _random_positions(rng, expr.symbol_count, m)
                assert realize_expr(expr, positions, m) == realize_expr(held, positions, m)
