"""Translation between forbidden labels, order formulas, and interval expressions.

A label compiles to a quantifier-free order formula whose ordered trace
family avoids exactly that label, and translates directly to a symbolic
point-interval expression: reading the label left to right, a leading 0
opens a ray from minus infinity, each adjacent digit pair consumes one
fresh symbol (11 an isolated point, 10 an interval start, 01 an interval
end, 00 a removed point), and a trailing 0 closes a ray at plus infinity.

Only compile_label builds formulas, and it alone reaches orderformula, so
CLI ``translate``, which maps labels and expressions both ways, never
compiles that module.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from ._kernel import Label, Mask, _Value, _check_cap, _check_size, _check_type, _module
from .labelcalc import as_label

if TYPE_CHECKING:
    from .orderformula import FormulaAst


class MalformedExpressionError(ValueError):
    """Expression text or structure that does not encode a label."""


def symbol_name(index: int) -> str:
    """Symbol names a, b, ..., z, aa, ab, ... in order."""
    if index < 0:
        raise ValueError("symbol index must be nonnegative")
    name = ""
    index += 1
    while index:
        index, digit = divmod(index - 1, 26)
        name = chr(ord("a") + digit) + name
    return name


class Point(_Value):
    """An isolated point of the expression."""

    __match_args__ = ("symbol",)

    def __init__(self, symbol: int):
        object.__setattr__(self, "symbol", symbol)


class Interval(_Value):
    """An open interval, possibly unbounded, minus finitely many points.

    ``lower`` None means unbounded below; ``upper`` None means unbounded
    above; ``removed`` lists the symbols of points deleted from the span.
    """

    __match_args__ = ("lower", "upper", "removed")

    def __init__(
        self, lower: int | None, upper: int | None, removed: tuple[int, ...] = ()
    ):
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "removed", removed)


Segment = Point | Interval


def _segment_symbols(segment: Segment):
    """The segment's (symbol, label bit) pairs in reading order.

    The bit is the second digit of the symbol's label pair: 1 for a point
    or an interval's upper end, 0 for a lower end or a removed point.
    """
    if isinstance(segment, Point):
        yield segment.symbol, 1
        return
    if not isinstance(segment, Interval):
        raise MalformedExpressionError(
            f"a segment is a Point or an Interval, got {segment!r}"
        )
    if segment.lower is not None:
        yield segment.lower, 0
    yield from ((symbol, 0) for symbol in segment.removed)
    if segment.upper is not None:
        yield segment.upper, 1


class IntervalExpr(_Value):
    """Ordered union of points and open intervals over symbols a < b < ..."""

    __match_args__ = ("segments", "symbol_count")

    def __init__(self, segments: tuple[Segment, ...], symbol_count: int):
        walk = [s for segment in segments for s, _ in _segment_symbols(segment)]
        if walk != list(range(symbol_count)):
            raise MalformedExpressionError(
                f"segment symbols must read a, b, c, ... left to right, got {walk}"
            )
        for i, segment in enumerate(segments):
            if isinstance(segment, Interval):
                if segment.lower is None and i != 0:
                    raise MalformedExpressionError(
                        "an interval unbounded below must come first"
                    )
                if segment.upper is None and i != len(segments) - 1:
                    raise MalformedExpressionError(
                        "an interval unbounded above must come last"
                    )
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "symbol_count", symbol_count)


def compile_label(eta: Label) -> FormulaAst:
    """Order formula whose ordered trace family avoids exactly ``eta``.

    Built bit by bit: the first bit chooses the constant (0 truth, 1
    falsehood); each further bit appends one parameter, joined by ``&``
    after a 0 and by ``|`` after a 1, since the formula so far holds above
    all its parameters (its ``cof``) exactly when its last bit is 0.
    The formula is one tree level per bit, so labels longer than
    LABEL_LENGTH_CAP raise SizeGuardError.
    """
    eta = as_label(eta)
    of = _module("orderformula")
    _check_cap(len(eta), of.LABEL_LENGTH_CAP, "label of {} bits")
    ast: FormulaAst = of.Top() if eta[0] == 0 else of.Bottom()
    for k, (before, bit) in enumerate(zip(eta, eta[1:]), start=1):
        if before == 0:
            ast = of.And(ast, of.Compare("<" if bit else "!=", k))
        else:
            ast = of.Or(ast, of.Compare("=" if bit else ">", k))
    return ast


def to_interval_expr(eta: Label) -> IntervalExpr:
    """Translate a label into its point-interval expression."""
    eta = as_label(eta)
    segments: list[Segment] = []
    lower: int | None = None
    removed: list[int] = []
    for sym, (a, b) in enumerate(zip(eta, eta[1:])):
        if (a, b) == (1, 1):
            segments.append(Point(sym))
        elif (a, b) == (1, 0):
            lower = sym
            removed = []
        elif (a, b) == (0, 1):
            segments.append(Interval(lower, sym, tuple(removed)))
        else:
            removed.append(sym)
    if eta[-1] == 0:
        segments.append(Interval(lower, None, tuple(removed)))
    return IntervalExpr(tuple(segments), len(eta) - 1)


def from_interval_expr(expr: IntervalExpr) -> Label:
    """Recover the label from a point-interval expression (inverse walk).

    The first digit is 0 for a leading ray and 1 otherwise; then each
    symbol adds the second digit of its pair (see _segment_symbols).  The
    constructor's checks make every IntervalExpr the image of a label.
    """
    if not isinstance(expr, IntervalExpr):
        raise MalformedExpressionError("expected an IntervalExpr")
    first = expr.segments[0] if expr.segments else None
    head = 0 if isinstance(first, Interval) and first.lower is None else 1
    bits = (bit for segment in expr.segments for _, bit in _segment_symbols(segment))
    return (head, *bits)


def format_expr(expr: IntervalExpr) -> str:
    """Deterministic text form: pieces joined by ' u '; '{}' for the empty set."""
    _check_type(expr, IntervalExpr, "expression must be an IntervalExpr")
    if not expr.segments:
        return "{}"
    parts = []
    for segment in expr.segments:
        if isinstance(segment, Point):
            parts.append("{%s}" % symbol_name(segment.symbol))
            continue
        lo = "-inf" if segment.lower is None else symbol_name(segment.lower)
        hi = "inf" if segment.upper is None else symbol_name(segment.upper)
        piece = f"({lo},{hi})"
        piece += "".join("\\{%s}" % symbol_name(r) for r in segment.removed)
        parts.append(piece)
    return " u ".join(parts)


_POINTS_RE = re.compile(r"^\{([a-z]+(?:,[a-z]+)*)\}$")
_INTERVAL_RE = re.compile(
    r"^\((-inf|[a-z]+),(inf|[a-z]+)\)((?:\\\{[a-z]+\})*)$"
)
_REMOVED_RE = re.compile(r"\\\{([a-z]+)\}")


def parse_expr(text: str) -> IntervalExpr:
    """Parse expression text emitted by :func:`format_expr`.

    Point pieces may list several symbols, e.g. ``{c,d}``.  Symbols must be
    strictly increasing left to right; any increasing letters are accepted
    and numbered in reading order, which is then their rank.  Text that is
    not a str raises MalformedExpressionError.
    """
    if not isinstance(text, str):
        raise MalformedExpressionError(
            f"expression text must be a str, got {type(text).__name__}"
        )
    stripped = text.strip()
    if stripped == "{}":
        return IntervalExpr((), 0)
    names: list[str] = []

    def number(name: str) -> int:
        names.append(name)
        return len(names) - 1

    segments: list[Segment] = []
    for piece in re.split(r"\s+u\s+", stripped):
        match = _POINTS_RE.match(piece)
        if match:
            segments.extend(Point(number(name)) for name in match.group(1).split(","))
            continue
        match = _INTERVAL_RE.match(piece)
        if not match:
            raise MalformedExpressionError(f"cannot parse expression piece {piece!r}")
        lo, hi, removed_text = match.groups()
        lower = None if lo == "-inf" else number(lo)
        removed = tuple(number(r) for r in _REMOVED_RE.findall(removed_text))
        upper = None if hi == "inf" else number(hi)
        segments.append(Interval(lower, upper, removed))
    # symbol_name counts in bijective base 26, so (length, text) is rank order.
    ranks = [(len(name), name) for name in names]
    if any(a >= b for a, b in zip(ranks, ranks[1:])):
        raise MalformedExpressionError(
            f"symbols must be strictly increasing left to right: {names}"
        )
    return IntervalExpr(tuple(segments), len(names))


def realize_expr(expr: IntervalExpr, assignment, ground_size: int) -> Mask:
    """Membership mask of the ground under a concrete symbol assignment.

    ``assignment`` gives one strictly increasing grid position per symbol;
    ground element j sits at position 2*j.  The ground size must be a
    nonnegative int (a bool counts); anything else raises ValueError, and
    so does an expression that is not an IntervalExpr.
    """
    _check_type(expr, IntervalExpr, "expression must be an IntervalExpr")
    _check_size(ground_size, "ground size")
    positions = tuple(assignment)
    if len(positions) != expr.symbol_count:
        raise ValueError(
            f"assignment has {len(positions)} positions for "
            f"{expr.symbol_count} symbols"
        )
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise ValueError("assignment positions must be strictly increasing")

    def covered(x) -> bool:
        for segment in expr.segments:
            if isinstance(segment, Point):
                if x == positions[segment.symbol]:
                    return True
                continue
            if segment.lower is not None and not x > positions[segment.lower]:
                continue
            if segment.upper is not None and not x < positions[segment.upper]:
                continue
            if any(x == positions[r] for r in segment.removed):
                continue
            return True
        return False

    return tuple(1 if covered(2 * j) else 0 for j in range(ground_size))
