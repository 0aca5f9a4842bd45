"""Finite-scale verification constructions.

Pair-xor families over a ground of point pairs, exact largest
homogeneous-label subsets of maximum families (ties to the least mask,
the search bounded by a step budget), and ICT witness tensors
(independent contradictory types: an array of row formulas such that for
every row-to-column path exactly the on-path instances can be made true).
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from ._kernel import (
    ENUMERATION_GROUND_CAP,
    Label,
    Mask,
    _check_cap,
    _check_size,
    _check_type,
    _count_words,
    _first_disagreement,
    _module,
    _Value,
    phi_bound,
)
from .labelcalc import as_label

if TYPE_CHECKING:
    from .orderformula import FormulaAst
    from .setsystem import SetSystem

ICT_DEPTH_CAP = 3
ICT_COLUMN_CAP = 4


class NotMaximumError(ValueError):
    """Homogenization needs a maximum family."""


class UnverifiedTensorError(ValueError):
    """The tensor fails verification or misses injective paths."""


def xor_pair_family(ast: FormulaAst, n: int, m_pairs: int) -> SetSystem:
    """Family over a ground of point pairs separated by the formula.

    Pair k occupies grid positions 4k and 4k+2 (two adjacent ground points
    of a doubled ground, with a cut point available between them); it
    belongs to the set defined by a parameter tuple exactly when the
    formula's truth differs at its two points.  The family is the words of
    the automaton of _pair_step; the pairs are its ground.
    """
    return _module("setsystem")._automaton_family(m_pairs, 0, _pair_step(ast, n))


def _pair_step(ast: FormulaAst, n: int):
    """Step of the cell automaton read a pair at a time.

    A pair with bit b has truths t and t ^ b for either t.  Of the cell
    states the two points can reach the state keeps the least, since from
    a lower cell the cell automaton accepts every word it accepts from a
    higher one (see _cell_step), and a pair is rejected when neither t
    reaches a state.
    """
    # Looked up here: homogenize and the ICT checks never compile a formula.
    of = _module("orderformula")
    cell = of._cell_step(of._cells(ast, n))

    def step(least: int, bit: int):
        ends = []
        for t in (0, 1):
            first = cell(least, t)
            if first is not None and (second := cell(first, t ^ bit)) is not None:
                ends.append(second)
        return min(ends, default=None)

    return step


class PairXorReport(_Value):
    __match_args__ = ("passed", "family_size", "expected_size")

    def __init__(self, passed: bool, family_size: int, expected_size: int):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "family_size", family_size)
        object.__setattr__(self, "expected_size", expected_size)


def verify_pair_xor(eta: Label, m_pairs: int) -> PairXorReport:
    """Check that the compiled label's pair-xor family is all pair sets of
    size at most len(eta) - 1.

    The pair automaton and a counter of members so far are walked side by
    side for ``m_pairs`` levels (see _first_disagreement).  A 0 bit keeps
    the state of either (both points of a 0 pair can share the least
    cell's gap), and a rejection is a dead end, so a disagreement within
    ``m_pairs`` bits extends to one on exactly ``m_pairs`` pairs.  A
    failing family's size is a count of the pair automaton's words (see
    _count_words); no family is built.
    """
    eta = as_label(eta)
    _check_size(m_pairs, "pair count")
    d = len(eta) - 1
    step = _pair_step(_module("labelcompiler").compile_label(eta), d)
    expected = phi_bound(d, m_pairs)

    def count(size: int, bit: int):
        return size + bit if size + bit <= d else None

    passed = _first_disagreement(0, step, 0, count, m_pairs) is None
    size = expected if passed else _count_words(m_pairs, 0, step)[-1]
    return PairXorReport(passed, size, expected)


def ramsey_homogenize(system: SetSystem) -> tuple[Mask, Label]:
    """Largest subset on which every forbidden label agrees, with that label.

    For a d-maximum family, every (d+1)-subset of the ground carries one
    forbidden label; this returns a largest subset all of whose
    (d+1)-subsets carry the same label (always at least d+1 elements).
    The answer is exact, and ties at equal size break to the
    lexicographically least membership mask.

    A depth-first search over the labels of forbidden_labels visits the
    points in order and leaves a point out before it takes it in.  A
    point joins only if every (d+1)-subset of it and d chosen points
    carries one label, the chosen points' label once they number more
    than d, and a branch whose chosen points and points left cannot beat
    the best size found is cut.  The leaves come in the lexicographic
    order of their masks, so the first largest set found is the least
    one.  Each branching node costs one step and one per label lookup it
    may make; past 2^ENUMERATION_GROUND_CAP steps the search raises
    SizeGuardError.
    """
    families = _module("setsystem")
    result = families.classify(system)
    if not result.is_maximum:
        raise NotMaximumError("the family is not maximum")
    d = result.vc_dimension
    m = system.ground_size
    if d + 1 > m:
        raise ValueError(
            "the family shatters its whole ground; no forbidden labels exist"
        )
    label_of = families.forbidden_labels(system, d + 1)
    best, size, steps = None, d, 0
    # Each entry: the next point, the chosen points, and their label once
    # they number more than d.
    stack = [(0, (), None)]
    while stack:
        x, chosen, label = stack.pop()
        if len(chosen) + m - x <= size:
            continue
        if x == m:
            best, size = (families.mask_from_indices(m, chosen), label), len(chosen)
            continue
        steps += 1 + math.comb(len(chosen), d)
        _check_cap(steps, 1 << ENUMERATION_GROUND_CAP, "homogenize search of {} steps")
        labels = (label_of[(*sub, x)] for sub in itertools.combinations(chosen, d))
        joined = label or next(labels, None)
        if all(other == joined for other in labels):
            stack.append((x + 1, chosen + (x,), joined))
        stack.append((x + 1, chosen, label))
    return best


class IctWitness(_Value):
    """One realized path: sat[i][j] says whether the row-i, column-j
    instance holds at the witness."""

    __match_args__ = ("path", "sat")

    def __init__(self, path: tuple[int, ...], sat: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "sat", sat)


class IctTensor(_Value):
    """Finite ICT-pattern witness tensor: depth rows, a column count, and
    one witness record per covered path."""

    __match_args__ = ("depth", "columns", "witnesses")

    def __init__(self, depth: int, columns: int, witnesses: tuple[IctWitness, ...]):
        for witness in witnesses:
            if len(witness.path) != depth or len(witness.sat) != depth:
                raise ValueError("witness shape does not match tensor depth")
            if any(len(row) != columns for row in witness.sat):
                raise ValueError("witness row width does not match column count")
            if any(not 0 <= j < columns for j in witness.path):
                raise ValueError("path column out of range")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "witnesses", witnesses)


def build_ict_tensor(depth: int, columns: int) -> IctTensor:
    """Tensor with one witness per path, realized on a d-row block ground.

    The ground splits into ``depth`` blocks of ``columns`` elements; the
    witness of a path picks one element per block, so the row-i instance
    holds at column j exactly when j is the path's column in row i.
    """
    _check_size(depth, "depth")
    _check_size(columns, "column count")
    _check_cap(depth, ICT_DEPTH_CAP, "depth {}")
    _check_cap(columns, ICT_COLUMN_CAP, "column count {}")
    witnesses = tuple(
        IctWitness(path, _on_path(path, columns))
        for path in itertools.product(range(columns), repeat=depth)
    )
    return IctTensor(depth, columns, witnesses)


def _on_path(path: tuple[int, ...], columns: int) -> tuple[tuple[int, ...], ...]:
    """The instance truths a path's witness must show: row i holds only at path[i]."""
    return tuple(
        tuple(1 if j == column else 0 for j in range(columns)) for column in path
    )


def ict_failure(tensor: IctTensor):
    """First covered path with no exactly-matching witness, or None.

    An object that is not an IctTensor raises ValueError.
    """
    _check_type(tensor, IctTensor, "tensor must be an IctTensor")
    matched = {
        witness.path
        for witness in tensor.witnesses
        if tuple(map(tuple, witness.sat)) == _on_path(witness.path, tensor.columns)
    }
    for witness in tensor.witnesses:
        if witness.path not in matched:
            return witness.path
    return None


def verify_ict(tensor: IctTensor) -> bool:
    """True iff every covered path has a witness satisfying exactly the
    on-path instances."""
    return ict_failure(tensor) is None


def ict_witness_family(tensor: IctTensor) -> SetSystem:
    """Recover all size-``depth`` column sets from the injective-path witnesses.

    A verified witness holds row i only at column path[i], so the member
    of an injective path is the set of its columns.  Only injective paths
    are used: repeated-column paths give smaller sets.
    """
    if not verify_ict(tensor):
        raise UnverifiedTensorError(f"tensor fails at path {ict_failure(tensor)}")
    covered = {witness.path for witness in tensor.witnesses}
    missing = [
        path
        for path in itertools.permutations(range(tensor.columns), tensor.depth)
        if path not in covered
    ]
    if missing:
        raise UnverifiedTensorError(
            f"tensor does not cover all injective paths; first missing {missing[0]}"
        )
    families = _module("setsystem")
    members = [
        families.mask_from_indices(tensor.columns, witness.path)
        for witness in tensor.witnesses
        if len(set(witness.path)) == tensor.depth
    ]
    return families.SetSystem.from_masks(tensor.columns, members)
