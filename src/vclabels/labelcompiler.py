"""Translation between forbidden labels, order formulas, and interval expressions.

A label compiles to a quantifier-free order formula whose ordered trace
family avoids exactly that label, and translates directly to a symbolic
point-interval expression: reading the label left to right, a leading 0
opens a ray from minus infinity, each adjacent digit pair consumes one
fresh symbol (11 an isolated point, 10 an interval start, 01 an interval
end, 00 a removed point), and a trailing 0 closes a ray at plus infinity.
Read cell by cell, a label of n + 1 bits fixes the set that n increasing
symbols cut out of the line: gap g (below symbol g, above symbol g - 1)
is in the set iff bit g is 0, and symbol s iff bits s and s + 1 are both
1.  realize_expr reads the label so; the segments are only a view.

Only compile_label builds formulas, and it alone reaches orderformula, so
CLI ``translate``, which maps labels and expressions both ways, never
compiles that module.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from functools import cached_property
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
        self.__dict__["symbol"] = symbol


class Interval(_Value):
    """An open interval, possibly unbounded, minus finitely many points.

    ``lower`` None means unbounded below; ``upper`` None means unbounded
    above; ``removed`` lists the symbols of points deleted from the span.
    """

    __match_args__ = ("lower", "upper", "removed")

    def __init__(self, lower: int | None, upper: int | None, removed: tuple[int, ...] = ()):
        self.__dict__.update(lower=lower, upper=upper, removed=removed)


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
    _check_type(segment.removed, Iterable, "removed points must be an iterable")
    yield from ((symbol, 0) for symbol in segment.removed)
    if segment.upper is not None:
        yield segment.upper, 1


def _head_digit(ends: list[tuple[bool, bool]]) -> int:
    """The first digit of the label: 0 after a leading ray, 1 otherwise.

    ``ends`` tells of each piece in order whether it is unbounded below
    and above; such an end anywhere but at its end of the line raises.
    """
    for i, (below, above) in enumerate(ends):
        if below and i:
            raise MalformedExpressionError("an interval unbounded below must come first")
        if above and i != len(ends) - 1:
            raise MalformedExpressionError("an interval unbounded above must come last")
    return 0 if ends and ends[0][0] else 1


class IntervalExpr(_Value):
    """Ordered union of points and open intervals over symbols a < b < ...

    Every expression is the image of exactly one label, and holds it;
    the library's functions read only the label.  ``segments``, the Point
    and Interval pieces, is read off the label when first asked for, as
    the module docstring says.  The constructor checks the segments it is
    given and keeps them, so the value compares, hashes and prints with
    them as given; to_interval_expr and parse_expr go to ``_of_label``
    with a label and build no segment.
    """

    __match_args__ = ("segments", "symbol_count")

    def __init__(self, segments: tuple[Segment, ...], symbol_count: int):
        _check_type(segments, Iterable, "segments must be an iterable")
        _check_size(symbol_count, "symbol count")
        segments = tuple(segments)  # walked twice below
        walk = [pair for segment in segments for pair in _segment_symbols(segment)]
        symbols = [s for s, _ in walk]
        if len(walk) != symbol_count or symbols != list(range(symbol_count)):
            raise MalformedExpressionError(
                f"segment symbols must read a, b, c, ... left to right, got {symbols}"
            )
        ends = [(getattr(s, "lower", 0) is None, getattr(s, "upper", 0) is None) for s in segments]
        label = (_head_digit(ends), *(bit for _, bit in walk))
        self.__dict__.update(segments=segments, symbol_count=symbol_count, _label=label)

    @classmethod
    def _of_label(cls, label: Label) -> IntervalExpr:
        """The expression of ``label``, trusted and not checked.

        Only the library calls it, with a tuple of the ints 0 and 1 that
        as_label has checked or parse_expr has read off checked text.
        """
        expr = object.__new__(cls)
        expr.__dict__.update(_label=label, symbol_count=len(label) - 1)
        return expr

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        eta, segments = self._label, []
        lower, removed = None, []
        for sym, (a, b) in enumerate(zip(eta, eta[1:])):
            if a and b:
                segments.append(Point(sym))
            elif a:
                lower, removed = sym, []
            elif b:
                segments.append(Interval(lower, sym, tuple(removed)))
            else:
                removed.append(sym)
        if eta[-1] == 0:
            segments.append(Interval(lower, None, tuple(removed)))
        return tuple(segments)


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
    return IntervalExpr._of_label(as_label(eta))


def from_interval_expr(expr: IntervalExpr) -> Label:
    """The label of a point-interval expression.

    Every IntervalExpr holds the one label it is the image of: the
    constructor admits only the segments of a label and records it.
    """
    if not isinstance(expr, IntervalExpr):
        raise MalformedExpressionError("expected an IntervalExpr")
    return expr._label


def format_expr(expr: IntervalExpr) -> str:
    """Deterministic text form: pieces joined by ' u '; '{}' for the empty set."""
    _check_type(expr, IntervalExpr, "expression must be an IntervalExpr")
    eta = expr._label
    parts, lower, removed = [], "-inf", ""
    for sym, (a, b) in enumerate(zip(eta, eta[1:])):
        name = symbol_name(sym)
        if a and b:
            parts.append("{%s}" % name)
        elif a:
            lower, removed = name, ""
        elif b:
            parts.append(f"({lower},{name}){removed}")
        else:
            removed += "\\{%s}" % name
    if eta[-1] == 0:
        parts.append(f"({lower},inf){removed}")
    return " u ".join(parts) or "{}"


_POINTS_RE = re.compile(r"^\{([a-z]+(?:,[a-z]+)*)\}$")
# An unbounded end matches no group, so its group is None.
_INTERVAL_RE = re.compile(r"^\((?:-inf|([a-z]+)),(?:inf|([a-z]+))\)((?:\\\{[a-z]+\})*)$")
_REMOVED_RE = re.compile(r"\\\{([a-z]+)\}")
_PIECES_RE = re.compile(r"\s+u\s+")


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
        return IntervalExpr._of_label((1,))
    names: list[str] = []  # in reading order, each with its label bit in bits
    bits: list[int] = []
    ends: list[tuple[bool, bool]] = []  # each piece unbounded below, above
    for piece in _PIECES_RE.split(stripped):
        if match := _POINTS_RE.match(piece):
            zeros, ones = [], match.group(1).split(",")
            ends.append((False, False))
        elif match := _INTERVAL_RE.match(piece):
            lo, hi, removed = match.groups()
            zeros = [lo, *_REMOVED_RE.findall(removed)] if lo else _REMOVED_RE.findall(removed)
            ones = [hi] if hi else []
            ends.append((lo is None, hi is None))
        else:
            raise MalformedExpressionError(f"cannot parse expression piece {piece!r}")
        names += zeros + ones
        bits += [0] * len(zeros) + [1] * len(ones)
    # symbol_name counts in bijective base 26, so (length, text) is rank order.
    ranks = [(len(name), name) for name in names]
    if any(a >= b for a, b in zip(ranks, ranks[1:])):
        raise MalformedExpressionError(
            f"symbols must be strictly increasing left to right: {names}"
        )
    return IntervalExpr._of_label((_head_digit(ends), *bits))


def realize_expr(expr: IntervalExpr, assignment, ground_size: int) -> Mask:
    """Membership mask of the ground under a concrete symbol assignment.

    ``assignment`` gives one strictly increasing grid position per symbol;
    ground element j sits at position 2*j.  The mask is read off the label
    cell by cell, as the module docstring says: a point in gap g, the g-th
    of the open gaps below, between and above the symbols, is covered iff
    bit g is 0, and a point on symbol s iff bits s and s+1 are both 1.
    The ground size must be a nonnegative int (a bool counts); anything
    else raises ValueError, and so does an expression that is not an
    IntervalExpr, or positions that are not real numbers or not strictly
    increasing, such as NaN.
    """
    _check_type(expr, IntervalExpr, "expression must be an IntervalExpr")
    _check_size(ground_size, "ground size")
    _check_type(assignment, Iterable, "assignment must be an iterable")
    positions = tuple(assignment)
    # imported here: no CLI call realizes an expression
    from bisect import bisect_left
    from numbers import Real

    for position in positions:
        _check_type(position, Real, "assignment positions must be real numbers")
    if len(positions) != expr.symbol_count:
        raise ValueError(
            f"assignment has {len(positions)} positions for "
            f"{expr.symbol_count} symbols"
        )
    # NaN is neither below nor equal to anything, itself included.
    if not all(a < b for a, b in zip(positions, positions[1:])) or any(p != p for p in positions):
        raise ValueError("assignment positions must be strictly increasing")
    eta, mask = expr._label, []
    for x in range(0, 2 * ground_size, 2):
        g = bisect_left(positions, x)  # x is on symbol g or in gap g
        on_symbol = g < len(positions) and positions[g] == x
        mask.append(eta[g] & eta[g + 1] if on_symbol else 1 - eta[g])
    return tuple(mask)
