"""The classification engine: the fold and the shatter search.

``setsystem.classify``, ``forbidden_labels`` and ``vc_dim`` import this
module on their first call and hand their arguments to the functions of
the same names here.  A process that never classifies, such as CLI
``avoid``, ``label`` or ``verify``, therefore never compiles it.
"""

from __future__ import annotations

import itertools
import math
import struct
from functools import cache

from ._kernel import EmptyFamilyError, Label, _check_cap, _check_size, phi_bound
from .setsystem import Classification, SetSystem

# Classification of a family that the maximum test does not settle folds a
# 2^m-bit indicator once per subset of the ground, shrinking it as points
# drop: 2^m folds moving 2^12 * 3^(m-6) bits (about 5.6 * 3^m), whatever
# the family's size.  forbidden_labels takes the same path for a family its
# search does not settle.  The cap bounds that fold path only.
CLASSIFY_GROUND_CAP = 16
# The fold path folds the points below this in place, by masks, and cuts
# bytes out of its ints only for the points above: at grounds up to 16 a
# cut costs more interpreter steps than the bits a mask moves in vain.
FOLD_IN_PLACE = 6
# The maximum test runs while its shatter search would build at most this
# many member cells per fold that the fold path makes (see classify).  Above
# CLASSIFY_GROUND_CAP there is no fold, and the budget of that ground holds.
SEARCH_CELLS_PER_FOLD = 8
# vc_dim searches a subset size k while C(m, k) * |F| is at most this many
# (subset, member) pairs: a bound on the worst case of its pruned shatter
# search, which usually stops far below it.  Above it the family is
# classified.
VC_DIM_WORK_CAP = 1 << 23


@cache
def _sauer_profile(d: int, m: int) -> tuple[tuple[int, int], ...]:
    """The pairs (k, phi(d, k)) for k = 0..m, from one running value.

    By Pascal's rule phi(d, k + 1) = 2 phi(d, k) - C(k, d), and C(k, d) is
    0 for k < d, where phi(d, k) = 2^k.  Computed once per (d, m), d <= m
    and m within the kernel's ground cap, and shared, so it is a tuple.
    """
    phis = itertools.accumulate(range(m), lambda phi, k: 2 * phi - math.comb(k, d), initial=1)
    return tuple(enumerate(phis))


def vc_dim(system: SetSystem) -> int:
    """Largest shattered subset size; -1 for the empty family.

    By Sauer's bound the family shatters a set of every size up to its
    floor d (see _sauer_floor).  Shattering is hereditary, so sizes above
    d are tried in increasing order and the search stops at the first size
    with no shattered subset (see _shatters_some), or once 2^k exceeds the
    number of members.  A size whose C(m, k) * |F| pairs exceed
    VC_DIM_WORK_CAP is left to classify.
    """
    count, m = len(system._ints), system.ground_size
    if not count:
        return -1
    d, _ = _sauer_floor(count, m)
    columns = None
    for k in range(d + 1, m + 1):
        if 1 << k > count:
            break
        if math.comb(m, k) * count > VC_DIM_WORK_CAP:
            return classify(system).vc_dimension
        if columns is None:
            columns = _columns(system._ints, m)
        if not _shatters_some(columns, count, k):
            break
        d = k
    return d


def _indicator(ints, m: int) -> int:
    """The 2^m-bit int whose bit v is set exactly when v is in ``ints``.

    On a family's own ints, point j of the ground is bit m - 1 - j of v.
    The fold's trace counts do not depend on how points are named, so
    classify reads them in that order; only a label read off the fold maps
    its bits back to points (see forbidden_labels).
    """
    buf = bytearray(((1 << m) + 7) >> 3)
    for v in ints:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


@cache
def _low_halves(m: int) -> tuple[int, ...]:
    """For each j < m, the indicator of the v < 2^m whose bit j is clear.

    Computed once per ground up to CLASSIFY_GROUND_CAP, the grounds that
    fold, and shared, so it is a tuple.
    """
    size = 1 << m
    out = []
    for j in range(m):
        period = 2 << j
        pattern = (1 << (1 << j)) - 1
        while period < size:
            pattern |= pattern << period
            period <<= 1
        out.append(pattern)
    return tuple(out)


def _trace_counts(indicator: int, m: int, low) -> tuple[list[int], list[dict[int, int]]]:
    """The largest trace count of each subset size, and the one-short folds by size.

    A walk visits every subset b of the ground once and counts the
    distinct traces on b as the bits of a folded int.  Dropping point i
    folds the indicator onto the positions whose bit i is clear: position
    v keeps a bit when v or v + 2^i did.  The walk goes depth-first from
    the full ground and drops the points i >= FOLD_IN_PLACE in decreasing
    order, so every point below the last one dropped is still at its own
    bit position, and the fold then cuts out the positions whose bit i is
    set: the odd 2^(i-3)-byte chunks of the int's bytes (a memoryview cast
    to 8-byte items sliced [::2] at i = 6, a join of slices above).  Each
    node of that walk then folds out every subset of the points below
    FOLD_IN_PLACE, masking with low[j] and leaving those positions in
    place as holes; at m <= FOLD_IN_PLACE the walk is that one cube, with
    no cut.  So the int of node b spells traces on b and the points 0..5
    (at most 2^(|b| + 6) bits), and the folds move
    sum_b 2^|b u {0..5}| = 2^12 * 3^(m-6) bits in all, not 4^m.

    Returns (best, shorts), each with one entry per size k = 0..m, and
    nothing per subset: best[k] is the largest count of any k-subset, and
    shorts[k] maps each k-subset b whose count is 2^k - 1, one trace short,
    to its folded int, for _missing_trace to decode.
    """
    best = [0] * (m + 1)
    shorts = [{} for _ in range(m + 1)]
    holes = [(1 << j, low[j]) for j in range(min(m, FOLD_IN_PLACE))]
    stack = [(indicator, (1 << m) - 1, m)]
    while stack:
        ind, a, top = stack.pop()
        cube = [(ind, a)]
        for bit, half in holes:
            cube += [((x | x >> bit) & half, b ^ bit) for x, b in cube]
        for x, b in cube:
            count, k = x.bit_count(), b.bit_count()
            if count > best[k]:
                best[k] = count
            if count == (1 << k) - 1:
                shorts[k][b] = x
        for i in range(FOLD_IN_PLACE, top):
            nxt = ind | ind >> (1 << i)
            data = memoryview(nxt.to_bytes(1 << (a.bit_count() - 3), "little"))
            n = 1 << (i - 3)  # bytes per chunk
            if n == 8:
                data = data.cast("Q")[::2]
            else:
                data = b"".join(data[k : k + n] for k in range(0, len(data), 2 * n))
            stack.append((int.from_bytes(data, "little"), a ^ (1 << i), i))
    return best, shorts


def _missing_trace(b: int, folded: int, m: int, low) -> list[tuple[int, int]]:
    """The trace a one-short node b of _trace_counts misses, as (point, bit) pairs.

    The pairs cover the points of b in increasing order.  The node's
    positions spell traces on b and on its holes, the points below
    FOLD_IN_PLACE not in b, in increasing point order; the one clear
    position whose hole bits are clear is the missing trace.
    """
    frame = [j for j in range(m) if j < FOLD_IN_PLACE or b >> j & 1]
    valid = (1 << (1 << len(frame))) - 1
    for j in frame[:FOLD_IN_PLACE]:
        if not b >> j & 1:
            valid &= low[j]
    at = (valid ^ folded).bit_length() - 1
    return [(j, at >> r & 1) for r, j in enumerate(frame) if b >> j & 1]


def _fold(system: SetSystem) -> tuple[int, tuple[int, ...], list[int], list[dict[int, int]]]:
    """The fold path, for classify and forbidden_labels alike.

    Returns the family's 2^m-bit indicator, the low halves of its ground
    and the two results of _trace_counts: the largest trace count of each
    subset size and the one-short folds by size.  A ground above
    CLASSIFY_GROUND_CAP raises SizeGuardError before any fold.
    """
    m = system.ground_size
    _check_cap(m, CLASSIFY_GROUND_CAP, "classification on ground {}")
    indicator = _indicator(system._ints, m)
    low = _low_halves(m)
    return indicator, low, *_trace_counts(indicator, m, low)


# For each bit k of a byte, the table that turns a byte into the digit of its bit k.
_DIGIT_OF_BIT = [bytes(b"01"[x >> k & 1] for x in range(256)) for k in range(8)]


def _columns(ints, m: int) -> list[int]:
    """Point bit columns: bit i of column j is point j of member int i.

    The members are numbered in one order, the same for every column.  The
    ints are laid out as bytes of one width, little end first, so bit b of
    every member lies in one strided slice of bytes, which one translate
    turns into the digits of one int.  Point j is bit m - 1 - j.
    """
    if m <= 64:
        width, data = 8, struct.pack(f"<{len(ints)}Q", *ints)
    else:
        width = (m + 7) >> 3
        data = b"".join(v.to_bytes(width, "little") for v in ints)
    return [
        int(data[b >> 3 :: width].translate(_DIGIT_OF_BIT[b & 7]), 2)
        for b in reversed(range(m))
    ]


def _shatters_some(columns, count: int, size: int, labels=None) -> bool:
    """True iff the ``count`` members shatter some ``size``-subset of the ground.

    ``size`` is between 1 and m, the number of ``columns``.

    A depth-first walk over subsets in increasing index order carries the
    member cells of the current subset, one nonempty cell per trace.
    Adding point j splits every cell by column j; the branch is dropped as
    soon as one cell does not split, since no superset of an unshattered
    set is shattered, and once too few points remain to reach ``size``.
    So only shattered sets are visited: in classify's call, where ``size``
    is d + 1, at most phi(d, m) = |F| of them below that size.  (In
    general a family shatters at least |F| sets, by Pajor's lemma.)

    The last point is tested from the node above, and no node of size
    ``size`` - 1 is pushed: a node of size ``size`` - 2 splits its cells by
    each point j it may add, and tests every later point k against those
    fresh cells at once.  Each test first tries the cell that stopped the
    test of the k before, and scans all the cells only when that one
    splits.  At size 1 the root is the node tested, and the walk starts
    above it, at an entry with no cells whose one child, under point -1,
    is the root.

    With a ``labels`` dict, each ``size``-subset the walk reaches that does
    not split records, under its index tuple, the trace of an unsplit cell
    that no member shows.  That trace is the forbidden label when the
    subset misses exactly one trace, as every (d+1)-subset of a d-maximum
    family does, since then one cell alone does not split.  So the dict is
    the answer only when the walk returns False at size d + 1 on a family
    of phi(d, m) members (see _maximum), which drops it otherwise; its
    callers then read every label off the fold into a fresh dict.
    """
    m = len(columns)
    root = [(1 << count) - 1]
    # Each entry: a node's cells, its first free point and its subset.
    stack = [(root, 0, ())] if size > 1 else [([], -1, ())]
    while stack:
        cells, start, subset = stack.pop()
        depth = len(cells).bit_length() - 1
        for j in range(start, m - size + depth + 1) if cells else (-1,):
            column = columns[j]
            split = [] if cells else root
            for cell in cells:
                inside = cell & column
                if not inside or inside == cell:
                    break
                split.append(inside)
                split.append(cell ^ inside)
            else:
                if depth + 2 < size:
                    # Only a recording walk pays for the index tuples.
                    stack.append((split, j + 1, labels is not None and subset + (j,)))
                    continue
                stop = split[0]
                for k in range(j + 1, m):
                    column = columns[k]
                    inside = stop & column
                    if not inside or inside == stop:
                        cell = stop
                    else:
                        for cell in split:
                            inside = cell & column
                            if not inside or inside == cell:
                                break
                        else:
                            return True
                        stop = cell
                    if labels is not None:
                        # Cells are kept inside-first: a cell's position,
                        # read from its top bit, is its trace inverted.
                        at = split.index(cell)
                        bits = (~at >> i & 1 for i in reversed(range(size - 1)))
                        # The slice drops the -1 of the entry above the root.
                        labels[(*subset, j, k)[-size:]] = (*bits, int(not inside))
    return False


def _sauer_floor(count: int, m: int) -> tuple[int, int]:
    """The least d with phi(d, m) >= ``count``, and phi(d, m).

    By Sauer's bound a family of ``count`` sets on m points has dimension
    at least d.
    """
    d, bound = 0, 1  # bound = phi(d, m)
    while bound < count:
        d += 1
        bound += math.comb(m, d)
    return d, bound


def _maximum(system: SetSystem, labelled=False) -> tuple[Classification, dict | None] | None:
    """The family's Classification when the maximum test settles it, else None.

    d is the family's Sauer floor (see _sauer_floor), so a family of
    exactly phi(d, m) members that shatters no (d+1)-subset has dimension
    d and is maximum (Welzl 1987; Floyd & Warmuth 1995); a maximum family
    passes the test.  Every k-subset of a maximum family carries
    phi(d, k) traces, which gives the Sauer profile, and a maximum family
    is maximal.  The power set (d = m) passes with no search.
    A maximum family shatters every set of at most d points, so the search
    builds sum_t C(m, t) 2^t cells; it runs only while that is at most
    SEARCH_CELLS_PER_FOLD per fold of the fold path, or of the fold on
    CLASSIFY_GROUND_CAP points above that ground.

    Returns the Classification and, when ``labelled``, the forbidden label
    of every (d+1)-subset, recorded by the search (see _shatters_some) in a
    dict built only once the budget allows it; else None in its place, and
    the search records nothing.
    """
    count, m = len(system._ints), system.ground_size
    d, bound = _sauer_floor(count, m)
    if bound != count:
        return None
    cells = sum(math.comb(m, t) << t for t in range(1, d + 1))
    if d < m and cells > SEARCH_CELLS_PER_FOLD << min(m, CLASSIFY_GROUND_CAP):
        return None
    labels = dict.fromkeys(itertools.combinations(range(m), d + 1)) if labelled else None
    if d < m and _shatters_some(_columns(system._ints, m), count, d + 1, labels):
        return None
    return Classification(d, True, True, _sauer_profile(d, m)), labels


def classify(system: SetSystem) -> Classification:
    """VC dimension plus the maximum and maximal verdicts.

    A maximum family is first recognized without looking at every subset
    (see _maximum): |F| = phi(d, m) and no (d+1)-subset is shattered.
    Any other family takes the fold path (see _folded).
    """
    return (_maximum(system) or _folded(system))[0]


def _folded(system: SetSystem) -> tuple[Classification, tuple]:
    """classify's fold path: the Classification, and the fold it is read off.

    The family is held as one 2^m-bit indicator, folded once onto every
    subset of the ground, the indicator shrinking as points drop (see
    _trace_counts).  The fold answers by size: the largest trace count of
    each size k is the profile's entry, and d is the largest k at which it
    is 2^k.  An absent set can join without raising the dimension unless,
    on some (d+1)-subset one trace short of shattered, it shows the missing
    trace; those absent sets form one cylinder per such subset, which the
    fold keeps for size d + 1, and the family is maximal when the cylinders
    cover every absent set.  Each missing trace is read off that subset's
    own fold (see _missing_trace), not off the members.  This path moves
    2^12 * 3^(m-6) bits in 2^m folds, independent of the family's size;
    CLASSIFY_GROUND_CAP bounds it, and nothing else.  An empty family
    raises EmptyFamilyError before any fold.
    """
    if not system._ints:
        raise EmptyFamilyError("cannot classify an empty family")
    m = system.ground_size
    fold = indicator, low, best, shorts = _fold(system)
    d = max(k for k in range(m + 1) if best[k] == 1 << k)

    # Maximum exactly when |F| = phi(d, m): such a family shatters every set
    # of at most d points (Pajor's lemma) and each restriction is maximum
    # (Welzl 1987), so every k-subset carries phi(d, k) traces.
    is_maximum = len(system._ints) == phi_bound(d, m)
    if is_maximum:
        is_maximal = True
    else:
        everything = (1 << (1 << m)) - 1
        high = [everything ^ half for half in low]
        blocked = 0
        for b, folded in shorts[d + 1].items():
            cylinder = everything
            for j, bit in _missing_trace(b, folded, m, low):
                cylinder &= high[j] if bit else low[j]
            blocked |= cylinder
        is_maximal = everything & ~indicator & ~blocked == 0
    return Classification(d, is_maximum, is_maximal, tuple(enumerate(best))), fold


def _fold_labels(fold: tuple, m: int, size: int) -> dict[tuple[int, ...], Label | None]:
    """The labels of every ``size``-subset, decoded from a fold (see _fold).

    Each ``size``-subset the fold keeps as one trace short gets the label
    decoded from its folded int (see _missing_trace); every other is None.
    """
    _, low, _, shorts = fold
    labels = dict.fromkeys(itertools.combinations(range(m), size))
    for b, folded in shorts[size].items():
        pairs = _missing_trace(b, folded, m, low)[::-1]  # bit m - 1 - j is point j
        labels[tuple(m - 1 - j for j, _ in pairs)] = tuple(bit for _, bit in pairs)
    return labels


def _classify_labelled(system: SetSystem) -> tuple[Classification, dict]:
    """classify(system), and forbidden_labels(system, d + 1) for its d.

    The two come from one engine pass, for CLI ``labels`` and
    ``homogenize``: one recording search of the maximum test, when it
    settles the family (see _maximum), or else one fold, which gives d and
    the labels alike.  The errors are those of classify; a family that
    shatters its whole ground has no (d+1)-subsets and gets the empty dict.
    """
    if settled := _maximum(system, labelled=True):
        return settled
    result, fold = _folded(system)
    return result, _fold_labels(fold, system.ground_size, result.vc_dimension + 1)


def forbidden_labels(system: SetSystem, size: int) -> dict[tuple[int, ...], Label | None]:
    """The forbidden label of every ``size``-subset of the ground.

    The keys, values and errors are those of setsystem.forbidden_labels.
    A size above m has no subsets and returns the empty dict at once.
    Otherwise a family whose Sauer floor is size - 1 is put to the maximum
    test (see _maximum) once, recording: when the test settles it, the
    family shatters every smaller set and misses one trace on each
    ``size``-subset, so its search reaches every such subset and reads
    the label off the one cell that does not split (see _shatters_some).
    Every other family and size, and a family that fails the test or is
    over its budget, takes classify's fold path once, and its labels are
    decoded from the fold (see _fold_labels).  So above
    CLASSIFY_GROUND_CAP only the search answers, and a family it does not
    settle raises SizeGuardError.
    """
    _check_size(size, "subset size")
    m = system.ground_size
    if size > m:
        return {}
    if _sauer_floor(len(system._ints), m)[0] == size - 1:
        if settled := _maximum(system, labelled=True):
            return settled[1]
    return _fold_labels(_fold(system), m, size)
