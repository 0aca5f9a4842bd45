"""Quantifier-free order formulas in one object variable x with parameters y1..yn.

n strictly increasing parameters cut a dense line into 2n+1 cells: the
open gaps below, between and above them, and each parameter itself.  A
quantifier-free order formula is constant on each cell, so its ground
traces are the words of a small automaton over those cells.  A position
grid (ground element j at position 2*j, parameter tuples realizing every
order type relative to the ground) is kept as the reference enumeration.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .labelcalc import is_characterized_by
from .setsystem import (
    Label,
    SetSystem,
    SizeGuardError,
    _automaton_family,
    forbidden_label,
    mask_from_indices,
    phi_bound,
)

TRACE_GROUND_CAP = 12
TRACE_ARITY_CAP = 6
# Evaluating, formatting and measuring a formula recurse once per level of
# its tree, and parsing up to three times per level.  Under Python's
# default limit of 1,000 frames, compiling a label failed between 900 and
# 1,000 bits, and parsing failed at 1,000 leading '!' or 600 parentheses.
FORMULA_DEPTH_CAP = 200
# The text of a compiled L-bit label nests up to 3L/2 levels, so compiled
# formulas up to this length parse back under FORMULA_DEPTH_CAP.
LABEL_LENGTH_CAP = 128


class FormulaSyntaxError(ValueError):
    """Formula text that does not match the grammar, with the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class ExtractionFailedError(RuntimeError):
    """No forbidden label is consistent with the enumerated trace families."""


@dataclass(frozen=True)
class Top:
    """Constant truth; written x=x."""


@dataclass(frozen=True)
class Bottom:
    """Constant falsehood; written x!=x."""


@dataclass(frozen=True)
class Compare:
    """Atom relating x to the parameter y{index}."""

    rel: str
    index: int


@dataclass(frozen=True)
class Not:
    child: "FormulaAst"


@dataclass(frozen=True)
class And:
    left: "FormulaAst"
    right: "FormulaAst"


@dataclass(frozen=True)
class Or:
    left: "FormulaAst"
    right: "FormulaAst"


FormulaAst = Top | Bottom | Compare | Not | And | Or

_REL_FUNCS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}
# x rel x collapses to a truth constant at parse time.
_REFLEXIVE_TRUE = {"=", "<=", ">="}


_TOKEN_RE = re.compile(r"y(\d*)|<=|>=|!=|\S")
_TOKEN_KINDS = dict.fromkeys(_REL_FUNCS, "rel") | {
    "x": "x", "!": "not", "&": "and", "|": "or", "(": "lparen", ")": "rparen"
}


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        symbol, digits, i = match.group(), match.group(1), match.start()
        if digits is not None:
            if not digits:
                raise FormulaSyntaxError("parameter needs digits after 'y'", i)
            try:
                index = int(digits)
            except ValueError:
                raise FormulaSyntaxError("parameter index is too large", i) from None
            if index < 1:
                raise FormulaSyntaxError("parameter index must be >= 1", i)
            tokens.append(("param", index, i))
        elif symbol in _TOKEN_KINDS:
            tokens.append((_TOKEN_KINDS[symbol], symbol, i))
        else:
            raise FormulaSyntaxError(f"unexpected character {symbol!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent that also measures nesting depth.

    Each ``!``, each parenthesized group and each binary connective on a
    path adds one level.  The parse methods return (node, depth), and
    ``open`` counts the ``!`` and ``(`` enclosing the current token, so
    that too deep an input fails before the recursion does.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.open = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self) -> FormulaAst:
        node, _ = self._disjunction()
        kind, _, position = self.peek()
        if kind != "end":
            raise FormulaSyntaxError("unexpected trailing input", position)
        return node

    @staticmethod
    def _level(depth: int, position: int) -> int:
        if depth > FORMULA_DEPTH_CAP:
            raise FormulaSyntaxError(
                f"formula nests deeper than {FORMULA_DEPTH_CAP} levels", position
            )
        return depth

    def _disjunction(self):
        node, depth = self._conjunction()
        while self.peek()[0] == "or":
            position = self.take()[2]
            right, right_depth = self._conjunction()
            node = Or(node, right)
            depth = self._level(max(depth, right_depth) + 1, position)
        return node, depth

    def _conjunction(self):
        node, depth = self._literal()
        while self.peek()[0] == "and":
            position = self.take()[2]
            right, right_depth = self._literal()
            node = And(node, right)
            depth = self._level(max(depth, right_depth) + 1, position)
        return node, depth

    def _literal(self):
        kind, _, position = self.peek()
        if kind not in ("not", "lparen"):
            return self._atom(), 1
        self.take()
        self.open = self._level(self.open + 1, position)
        if kind == "not":
            child, depth = self._literal()
            node = Not(child)
        else:
            node, depth = self._disjunction()
            kind, _, closing = self.take()
            if kind != "rparen":
                raise FormulaSyntaxError("expected ')'", closing)
        self.open -= 1
        return node, self._level(depth + 1, position)

    def _atom(self) -> FormulaAst:
        kind, _, position = self.take()
        if kind != "x":
            raise FormulaSyntaxError("expected 'x'", position)
        kind, rel, position = self.take()
        if kind != "rel":
            raise FormulaSyntaxError("expected a relation after 'x'", position)
        kind, value, position = self.take()
        if kind == "x":
            return Top() if rel in _REFLEXIVE_TRUE else Bottom()
        if kind == "param":
            return Compare(rel, value)
        raise FormulaSyntaxError("expected 'x' or a parameter after the relation", position)


def parse_formula(text: str) -> FormulaAst:
    """Parse formula text.

    Grammar: disjunctions of conjunctions of literals; a literal is ``!``
    applied to a literal, a parenthesized formula, or an atom ``x REL y<k>``
    with REL one of < <= = != >= >; ``x=x`` is truth and ``x!=x`` falsehood.
    Text nesting deeper than FORMULA_DEPTH_CAP levels (each ``!``, group
    and binary connective on a path is one) raises FormulaSyntaxError.
    """
    return _Parser(_tokenize(text)).parse()


_PRECEDENCE = {Or: 1, And: 2}


def _format(node: FormulaAst, parent_precedence: int) -> str:
    if isinstance(node, Top):
        return "x=x"
    if isinstance(node, Bottom):
        return "x!=x"
    if isinstance(node, Compare):
        return f"x{node.rel}y{node.index}"
    if isinstance(node, Not):
        return "!" + _format(node.child, 3)
    symbol = "&" if isinstance(node, And) else "|"
    own = _PRECEDENCE[type(node)]
    left = _format(node.left, own)
    right = _format(node.right, own + 1)
    text = f"{left} {symbol} {right}"
    if own < parent_precedence:
        return f"({text})"
    return text


def format_formula(ast: FormulaAst) -> str:
    """Deterministic text form; parse_formula(format_formula(ast)) == ast."""
    return _format(ast, 0)


def formula_arity(ast: FormulaAst) -> int:
    """Largest parameter index used; 0 for constant formulas."""
    if isinstance(ast, Compare):
        return ast.index
    if isinstance(ast, Not):
        return formula_arity(ast.child)
    if isinstance(ast, (And, Or)):
        return max(formula_arity(ast.left), formula_arity(ast.right))
    return 0


def _eval(ast: FormulaAst, x, params: Sequence) -> bool:
    if isinstance(ast, Compare):
        return _REL_FUNCS[ast.rel](x, params[ast.index - 1])
    if isinstance(ast, Not):
        return not _eval(ast.child, x, params)
    if isinstance(ast, And):
        return _eval(ast.left, x, params) and _eval(ast.right, x, params)
    if isinstance(ast, Or):
        return _eval(ast.left, x, params) or _eval(ast.right, x, params)
    return isinstance(ast, Top)


def eval_formula(ast: FormulaAst, x_position, params: Sequence) -> bool:
    """Truth of the formula at x_position under the given parameter positions."""
    params = tuple(params)
    needed = formula_arity(ast)
    if len(params) < needed:
        raise ValueError(f"formula uses y{needed} but only {len(params)} parameters given")
    return _eval(ast, x_position, params)


def _cell_truths(ast: FormulaAst, n: int) -> tuple[int, ...]:
    """Truth of the formula in each of the 2n+1 cells of n increasing parameters.

    With y_i at position 2i-1, cell c is position c: even cells are the open
    gaps below, between and above the parameters, odd cell 2i-1 is y_i.
    """
    params = range(1, 2 * n, 2)
    return tuple(1 if _eval(ast, c, params) else 0 for c in range(2 * n + 1))


def cof(ast: FormulaAst, n: int) -> int:
    """Truth value of the formula at a point above n increasing parameters."""
    if n < formula_arity(ast):
        raise ValueError(f"declared arity {n} is below the formula arity")
    return _cell_truths(ast, formula_arity(ast))[-1]  # unused parameters change nothing


@dataclass(frozen=True)
class PositionGrid:
    """Finite stand-in for a dense order: ground element j at position 2*j.

    Single parameters range over the integers in [-1, 2m-1], one per order
    type.  Larger tuples are refined with extra integers past both ends and
    fractional points inside interior gaps, so that any number of
    parameters can share a region while staying strictly increasing.
    """

    ground_size: int

    def ground_position(self, j: int) -> int:
        if not 0 <= j < self.ground_size:
            raise ValueError(f"ground index {j} out of range")
        return 2 * j

    def ground_positions(self) -> tuple[int, ...]:
        return tuple(2 * j for j in range(self.ground_size))

    def base_candidates(self) -> tuple[int, ...]:
        """One integer candidate per single-parameter order type."""
        return tuple(range(-1, 2 * self.ground_size))

    def parameter_tuples(self, n: int) -> Iterator[tuple]:
        """All strictly increasing n-tuples, one per parameter order type.

        Regions are indexed by slots: even slots are the open regions
        (below, the gaps, above) and may hold several parameters; odd slots
        are the ground points themselves and hold at most one.
        """
        if n < 0:
            raise ValueError("tuple length must be nonnegative")
        m = self.ground_size
        if n == 0:
            yield ()
            return
        if m == 0:
            yield tuple(range(1, n + 1))
            return
        nslots = 2 * m + 1
        for combo in itertools.combinations_with_replacement(range(nslots), n):
            if any(
                slot % 2 == 1 and count > 1
                for slot, count in _slot_counts(combo)
            ):
                continue
            positions: list = []
            for slot, count in _slot_counts(combo):
                if slot % 2 == 1:
                    positions.append(2 * (slot // 2))
                elif slot == 0:
                    positions.extend(range(-count, 0))
                elif slot == nslots - 1:
                    positions.extend(2 * m - 2 + i for i in range(1, count + 1))
                elif count == 1:
                    positions.append(slot - 1)
                else:
                    left = slot - 2
                    positions.extend(
                        left + Fraction(2 * i, count + 1) for i in range(1, count + 1)
                    )
            yield tuple(positions)


def _slot_counts(combo):
    for slot, group in itertools.groupby(combo):
        yield slot, sum(1 for _ in group)


def _check_trace_guards(ast: FormulaAst, n: int, m: int) -> None:
    if m < 0 or n < 0:
        raise ValueError("ground size and arity must be nonnegative")
    if m > TRACE_GROUND_CAP:
        raise SizeGuardError(f"ground size {m} exceeds cap {TRACE_GROUND_CAP}")
    if n > TRACE_ARITY_CAP:
        raise SizeGuardError(f"arity {n} exceeds cap {TRACE_ARITY_CAP}")
    if formula_arity(ast) > n:
        raise ValueError(
            f"formula uses y{formula_arity(ast)} but declared arity is {n}"
        )


def ordered_trace_family(ast: FormulaAst, n: int, m: int) -> SetSystem:
    """Family of ground traces of the formula with n strictly increasing parameters.

    Along the ground the cells of ``_cell_truths`` never decrease, and a
    parameter's own odd cell holds at most one point.  The automaton's state
    is the least cell the next ground point may take; each point takes the
    least allowed cell with the wanted truth value, since a lower cell never
    leaves fewer choices for the points after it.
    """
    _check_trace_guards(ast, n, m)
    truths = _cell_truths(ast, n)

    def step(least: int, bit: int):
        for cell in range(least, len(truths)):
            if truths[cell] == bit:
                return cell + cell % 2
        return None

    return _automaton_family(m, 0, step)


def label_of_formula(ast: FormulaAst, n: int | None = None) -> Label:
    """Extract the forbidden label characterizing the ordered trace family.

    Enumerates the family on a ground of n+3 points, identifies the
    dimension from the family size, reads the label off the leftmost
    (d+1)-subset, and verifies the candidate against that family and the
    family on a ground of n+4 points.
    """
    if n is None:
        n = formula_arity(ast)
    if n < formula_arity(ast):
        raise ValueError(f"declared arity {n} is below the formula arity")
    m = n + 3
    family = ordered_trace_family(ast, n, m)
    count = len(family.members)
    d = next((k for k in range(m + 1) if phi_bound(k, m) == count), None)
    if d is None or d + 1 > m:
        raise ExtractionFailedError(
            f"family size {count} matches no dimension on ground {m}"
        )
    try:
        eta = forbidden_label(family, mask_from_indices(m, range(d + 1)))
    except ValueError as exc:
        raise ExtractionFailedError(str(exc)) from exc
    for check in (family, ordered_trace_family(ast, n, m + 1)):
        if not is_characterized_by(check, eta):
            raise ExtractionFailedError(
                f"candidate label {eta} fails verification on ground {check.ground_size}"
            )
    return eta
