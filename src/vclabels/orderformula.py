"""Quantifier-free order formulas in one object variable x with parameters y1..yn.

n strictly increasing parameters cut a dense line into 2n+1 cells: the
open gaps below, between and above them, and each parameter itself.  A
quantifier-free order formula is constant on each cell, so its ground
traces are the words of a small automaton over those cells, and its
forbidden label is read off that automaton without enumerating traces.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable
from typing import TYPE_CHECKING, Sequence

from ._kernel import (
    Label, SizeGuardError, _check_cap, _check_type, _first_disagreement, _module, _Value,
)
from .labelcalc import _avoid_step, format_label

if TYPE_CHECKING:
    from .setsystem import SetSystem

# Evaluating and formatting a formula recurse once per level of its tree,
# and parsing up to three times per level.  Under Python's default limit of
# 1,000 frames, compiling a label failed between 900 and 1,000 bits, and
# parsing failed at 1,000 leading '!' or 600 parentheses.
FORMULA_DEPTH_CAP = 200
# A tree built in Python may share subtrees, and every walk of it visits a
# shared node once per path to it: `a = And(a, a)` repeated k times is
# 2^(k+1) - 1 nodes unfolded.  A parsed tree has at most one node per
# symbol of its text, and one command-line argument (at most 128 KiB on
# Linux) holds no more symbols than this bound.
FORMULA_SIZE_CAP = 1 << 17
# The text of a compiled L-bit label nests up to 3L/2 levels, so compiled
# formulas up to this length parse back under FORMULA_DEPTH_CAP.  It also
# caps the formula arity, and with it the cells, of every cell automaton.
LABEL_LENGTH_CAP = 128


class FormulaSyntaxError(ValueError):
    """Formula text that does not match the grammar, with the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class ExtractionFailedError(RuntimeError):
    """The formula's trace families are not the avoidance families of any label."""


class _Formula(_Value):
    """Base of the formula nodes.

    Each node stores its hash at construction, from its children's stored
    hashes, and ``==`` walks both trees with an explicit stack, so neither
    recurses however deep a tree built in Python is.  A tree pickles as a
    flat list in postorder that holds each distinct node once, with its
    children given by their places in the list, so pickling does not
    recurse either and a shared subtree stays shared.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        places, nodes, stack = {}, [], [self]
        while stack:
            node = stack[-1]
            values = node._values()
            waiting = [
                v for v in values if isinstance(v, _Formula) and id(v) not in places
            ]
            if waiting:
                stack.extend(waiting)
                continue
            stack.pop()
            if id(node) not in places:
                places[id(node)] = len(nodes)
                refs = (places[id(v)] if isinstance(v, _Formula) else v for v in values)
                nodes.append((type(node), tuple(refs)))
        return _unflatten, (nodes,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a._hash != b._hash:
                return False
            for name in a.__match_args__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, _Formula):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True


class Top(_Formula):
    """Constant truth; written x=x."""

    __slots__ = ()
    _hash = hash(())


class Bottom(_Formula):
    """Constant falsehood; written x!=x."""

    __slots__ = ()
    _hash = hash(())


class Compare(_Formula):
    """Atom relating x to the parameter y{index}.

    A rel or index that cannot be hashed raises ValueError; any other pair
    is built, and refused by the functions that read a formula.
    """

    __slots__ = __match_args__ = ("rel", "index")

    def __init__(self, rel: str, index: int):
        _set_rel(self, rel)
        _set_index(self, index)
        try:
            _set_hash(self, hash((rel, index)))
        except TypeError:
            raise ValueError(_NOT_AN_ATOM.format(self))


class Not(_Formula):
    __slots__ = __match_args__ = ("child",)

    def __init__(self, child: FormulaAst):
        _set_child(self, child)
        try:
            _set_hash(self, hash((child._hash,)))
        except AttributeError:
            _check_type(child, _Formula, "an operand must be a formula node")
            raise


class _Connective(_Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: FormulaAst, right: FormulaAst):
        _set_left(self, left)
        _set_right(self, right)
        try:
            _set_hash(self, hash((left._hash, right._hash)))
        except AttributeError:
            for child in (left, right):
                _check_type(child, _Formula, "an operand must be a formula node")
            raise


class And(_Connective):
    __slots__ = ()


class Or(_Connective):
    __slots__ = ()


# Nodes refuse attribute assignment, so each __init__ fills its slots
# through the slot descriptors' own setters, faster than object.__setattr__.
_set_hash = _Formula._hash.__set__
_set_rel, _set_index = Compare.rel.__set__, Compare.index.__set__
_set_child = Not.child.__set__
_set_left, _set_right = _Connective.left.__set__, _Connective.right.__set__

FormulaAst = Top | Bottom | Compare | Not | And | Or


def _unflatten(nodes) -> FormulaAst:
    """The tree that _Formula.__reduce__ flattened: the last node of the list."""
    built = []
    for cls, values in nodes:
        if cls is not Compare:  # the one node whose fields are not children
            values = [built[place] for place in values]
        built.append(cls(*values))
    return built[-1]


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
_NOT_AN_ATOM = "not a formula atom (rel, int index >= 1): {!r}"


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
        node, _ = self._chain("or")
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

    def _chain(self, kind: str):
        # "or" joins "and" chains and binds looser; "and" joins literals.
        # The operand call is inline, so a nesting level costs 3 frames.
        node, depth = self._chain("and") if kind == "or" else self._literal()
        while self.peek()[0] == kind:
            position = self.take()[2]
            right, right_depth = self._chain("and") if kind == "or" else self._literal()
            node = Or(node, right) if kind == "or" else And(node, right)
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
            node, depth = self._chain("or")
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
    and binary connective on a path is one) raises FormulaSyntaxError, and
    so does text of more than FORMULA_SIZE_CAP symbols, which bounds the
    nodes of the tree, and text that is not a str.
    """
    if not isinstance(text, str):
        raise FormulaSyntaxError(f"formula text must be a str, got {type(text).__name__}", 0)
    tokens = _tokenize(text)
    if len(tokens) > FORMULA_SIZE_CAP + 1:  # the last token marks the end
        raise FormulaSyntaxError(
            f"formula has more than {FORMULA_SIZE_CAP} symbols",
            tokens[FORMULA_SIZE_CAP][2],
        )
    return _Parser(tokens).parse()


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
    formula_arity(ast)  # rejects trees too deep to format
    return _format(ast, 0)


def formula_arity(ast: FormulaAst) -> int:
    """Largest parameter index used; 0 for constant formulas.

    Trees nesting deeper than FORMULA_DEPTH_CAP levels (each node on a path
    is one, as in parse_formula) raise SizeGuardError, since evaluating and
    formatting recurse once per level.  So do trees of more than
    FORMULA_SIZE_CAP nodes, counting a shared subtree once per path to it,
    since every walk visits it that often.  Every function that takes a
    formula walks it here first, so this walk is the one node check: a
    value that is not a formula node, and a Compare whose rel is not one of
    the six relations or whose index is not an int >= 1 (a bool counts),
    raise ValueError naming the node.  Parsed trees never do.
    """
    arity = size = depth = 0
    level = [ast]  # the nodes at this depth, one entry per path to each
    while level:
        depth += 1
        size += len(level)
        if size > FORMULA_SIZE_CAP:
            raise SizeGuardError(f"formula has more than {FORMULA_SIZE_CAP} nodes")
        if depth > FORMULA_DEPTH_CAP:
            raise SizeGuardError(f"formula nests deeper than {FORMULA_DEPTH_CAP} levels")
        below = []
        for node in level:
            if isinstance(node, Compare):
                index = node.index
                if node.rel not in _REL_FUNCS or not isinstance(index, int) or index < 1:
                    raise ValueError(_NOT_AN_ATOM.format(node))
                arity = max(arity, index)
            elif isinstance(node, Not):
                below.append(node.child)
            elif isinstance(node, (And, Or)):
                below.append(node.left)
                below.append(node.right)
            elif not isinstance(node, (Top, Bottom)):
                raise ValueError(f"not a formula node: {node!r}")
        level = below
    return arity


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
    """Truth of the formula at x_position under the given parameter positions.

    Every position must be a real number; anything else raises ValueError.
    """
    from numbers import Real  # imported here: no CLI call evaluates a formula

    _check_type(params, Iterable, "parameters must be an iterable")
    params = tuple(params)
    _check_type(x_position, Real, "the x position must be a real number")
    for position in params:
        _check_type(position, Real, "parameter positions must be real numbers")
    needed = formula_arity(ast)
    if len(params) < needed:
        raise ValueError(f"formula uses y{needed} but only {len(params)} parameters given")
    return _eval(ast, x_position, params)


def _cells(ast: FormulaAst, n: int | None) -> tuple[int, ...]:
    """Truth of the formula in each cell of its own arity's parameters.

    k increasing parameters cut the line into 2k+1 cells: with y_i at
    position 2i-1, cell c is position c, so even cells are the open gaps
    below, between and above the parameters, and odd cell 2i-1 is y_i.
    Parameters past the formula arity only repeat the top cell, which
    already holds any number of points, so every family and label built
    from the cells is the same for any declared arity ``n`` at or above
    the formula arity; a lower ``n``, or one that is not an int (a bool
    counts), raises ValueError.  Formula arities above LABEL_LENGTH_CAP
    raise SizeGuardError.
    """
    arity = formula_arity(ast)
    if n is not None and not isinstance(n, int):
        raise ValueError(f"declared arity must be an int, got {n!r}")
    if n is not None and n < arity:
        raise ValueError(f"declared arity {n} is below the formula arity {arity}")
    _check_cap(arity, LABEL_LENGTH_CAP, "formula arity {}")
    params = range(1, 2 * arity, 2)
    return tuple(1 if _eval(ast, c, params) else 0 for c in range(2 * arity + 1))


def cof(ast: FormulaAst, n: int) -> int:
    """Truth value of the formula at a point above n increasing parameters."""
    return _cells(ast, n)[-1]


def _cell_step(truths: Sequence[int]):
    """Step of the automaton whose words are the traces over cells with these truths.

    Along the ground the cells never decrease, and a parameter's own odd
    cell holds at most one point.  The state is the least cell the next
    ground point may take; each point takes the least allowed cell with the
    wanted truth value, since a lower cell never leaves fewer choices for
    the points after it.
    """

    def step(least: int, bit: int):
        for cell in range(least, len(truths)):
            if truths[cell] == bit:
                return cell + cell % 2
        return None

    return step


def ordered_trace_family(ast: FormulaAst, n: int, m: int) -> SetSystem:
    """Family of ground traces of the formula with n strictly increasing parameters."""
    return _module("setsystem")._automaton_family(m, 0, _cell_step(_cells(ast, n)))


def label_of_formula(ast: FormulaAst, n: int | None = None) -> Label:
    """The forbidden label whose avoidance family is the formula's trace family.

    The label is the shortest word the cell automaton rejects: the first
    disagreement with an automaton that accepts everything.  There always
    is one, since each alternation of an accepted word needs a strictly
    higher cell, so with the 2n+1 cells of n parameters the alternating
    word of 2n+2 bits is rejected.  The label's greedy matcher then must
    not disagree with the cell automaton on any word, which makes the
    formula characterized by the label on every ground.  A declared arity
    ``n`` is only checked against the formula arity (see _cells).
    """
    cells = _cell_step(_cells(ast, n))
    eta = _first_disagreement(0, cells, 0, lambda state, bit: state)
    if _first_disagreement(0, cells, 0, _avoid_step(eta)) is not None:
        raise ExtractionFailedError(
            "the trace family is not the avoidance family of its "
            f"shortest missing trace {format_label(eta)}"
        )
    return eta
