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


def _sauer_profile(d: int, m: int) -> tuple[tuple[int, int], ...]:
    """The pairs (k, phi(d, k)) for k = 0..m, from one running value.

    By Pascal's rule phi(d, k + 1) = 2 phi(d, k) - C(k, d), and C(k, d) is
    0 for k < d, where phi(d, k) = 2^k.
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


def _low_halves(m: int) -> list[int]:
    """For each j < m, the indicator of the v < 2^m whose bit j is clear."""
    size = 1 << m
    out = []
    for j in range(m):
        period = 2 << j
        pattern = (1 << (1 << j)) - 1
        while period < size:
            pattern |= pattern << period
            period <<= 1
        out.append(pattern)
    return out


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


def _fold(system: SetSystem) -> tuple[int, list[int], list[int], list[dict[int, int]]]:
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

    A depth-first walk over subsets in increasing index order carries the
    member cells of the current subset, one nonempty cell per trace.
    Adding point j splits every cell by column j; the branch is dropped as
    soon as one cell does not split, since no superset of an unshattered
    set is shattered, and once too few points remain to reach ``size``.
    So only shattered sets are visited: in classify's call, where ``size``
    is d + 1, at most phi(d, m) = |F| of them below that size.  (In
    general a family shatters at least |F| sets, by Pajor's lemma.)

    With a ``labels`` dict, each ``size``-subset the walk reaches that does
    not split records, under its index tuple, the trace of its first
    unsplit cell that no member shows.  That trace is the forbidden label
    when the subset misses exactly one trace, as every (d+1)-subset of a
    d-maximum family does.  So the dict is the answer only when the walk
    returns False at size d + 1 on a family of phi(d, m) members (see
    _maximum_dimension); forbidden_labels discards it otherwise, and reads
    every label off the fold into a fresh dict.
    """
    m = len(columns)
    stack = [(((1 << count) - 1,), 0, ())]
    while stack:
        cells, start, subset = stack.pop()
        depth = len(cells).bit_length() - 1
        if depth + 1 == size:
            # The last point need only split every cell; no cell is kept.
            for j, column in enumerate(columns[start:], start):
                for cell in cells:
                    inside = cell & column
                    if not inside or inside == cell:
                        if labels is not None:
                            # Cells are kept inside-first: a cell's position,
                            # read from its top bit, is its trace inverted.
                            at = cells.index(cell)
                            bits = (~at >> i & 1 for i in reversed(range(depth)))
                            labels[subset + (j,)] = (*bits, int(not inside))
                        break
                else:
                    return True
            continue
        for j in range(start, m - size + depth + 1):
            column = columns[j]
            split = []
            for cell in cells:
                inside = cell & column
                if not inside or inside == cell:
                    break
                split.append(inside)
                split.append(cell ^ inside)
            else:
                # Only a recording walk pays for the index tuples.
                stack.append((split, j + 1, labels is not None and subset + (j,)))
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


def _maximum_dimension(system: SetSystem, labels=None) -> int | None:
    """The dimension d when the family is maximum by the Sauer-size test.

    d is the family's Sauer floor (see _sauer_floor), so a family of
    exactly phi(d, m) members that shatters no (d+1)-subset has dimension
    d and is maximum (Welzl 1987; Floyd & Warmuth 1995); a maximum family
    passes the test.  A ``labels`` dict goes to the search, which records
    the label of every (d+1)-subset when the test passes (see
    _shatters_some); classify and vc_dim pass none.
    A maximum family shatters every set of at most d points, so the search
    builds sum_t C(m, t) 2^t cells; it runs only while that is at most
    SEARCH_CELLS_PER_FOLD per fold of the fold path, or of the fold on
    CLASSIFY_GROUND_CAP points above that ground.  None when the test does
    not apply or fails.
    """
    count, m = len(system._ints), system.ground_size
    d, bound = _sauer_floor(count, m)
    if bound != count:
        return None
    if d == m:
        return d  # the power set
    cells = sum(math.comb(m, t) << t for t in range(1, d + 1))
    if cells > SEARCH_CELLS_PER_FOLD << min(m, CLASSIFY_GROUND_CAP):
        return None
    if _shatters_some(_columns(system._ints, m), count, d + 1, labels):
        return None
    return d


def classify(system: SetSystem) -> Classification:
    """VC dimension plus the maximum and maximal verdicts.

    A maximum family is first recognized without looking at every subset
    (see _maximum_dimension): |F| = phi(d, m) and no (d+1)-subset is
    shattered.  Every k-subset of a maximum family carries phi(d, k)
    traces, which gives the Sauer profile, and a maximum family is
    maximal.

    A family the test does not settle is held as one 2^m-bit indicator,
    folded once onto every subset of the ground, the indicator shrinking as
    points drop (see _trace_counts).  The fold answers by size: the largest
    trace count of each size k is the profile's entry, and d is the largest
    k at which it is 2^k.  An absent set can join without raising the
    dimension unless, on some (d+1)-subset one trace short of shattered, it
    shows the missing trace; those absent sets form one cylinder per such
    subset, which the fold keeps for size d + 1, and the family is maximal
    when the cylinders cover every absent set.  Each missing trace is read
    off that subset's own fold (see _missing_trace), not off the members.
    This fold path moves 2^12 * 3^(m-6) bits in 2^m folds, independent of
    the family's size; CLASSIFY_GROUND_CAP bounds it, and nothing else.
    """
    if not system._ints:
        raise EmptyFamilyError("cannot classify an empty family")
    m = system.ground_size
    d = _maximum_dimension(system)
    if d is not None:
        return Classification(d, True, True, _sauer_profile(d, m))
    indicator, low, best, shorts = _fold(system)
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
    return Classification(d, is_maximum, is_maximal, tuple(enumerate(best)))


def forbidden_labels(system: SetSystem, size: int) -> dict[tuple[int, ...], Label | None]:
    """The forbidden label of every ``size``-subset of the ground.

    The keys, values and errors are those of setsystem.forbidden_labels.
    A size above m has no subsets and returns the empty dict at once.
    Otherwise a family whose Sauer floor is size - 1 and that has
    phi(size - 1, m) members is put to the maximum test (see
    _maximum_dimension) once, with the dict: when it passes, the family
    shatters every smaller set and misses one trace on each
    ``size``-subset, so its search reaches every such subset and reads
    the label off the one cell that does not split (see _shatters_some).
    Every other family and size, and a family that fails the test or is
    over its budget, takes classify's fold path once (see _fold): the
    fold keeps the ``size``-subsets one trace short with their folded
    ints, each such subset's label is decoded from its int (see
    _missing_trace), and every other label is None.  So
    above CLASSIFY_GROUND_CAP only the search answers, and a family it
    does not settle raises SizeGuardError.
    """
    _check_size(size, "subset size")
    m, count = system.ground_size, len(system._ints)
    labels = dict.fromkeys(itertools.combinations(range(m), size))
    if not labels:
        return labels
    if _sauer_floor(count, m) == (size - 1, count):
        if _maximum_dimension(system, labels) is not None:
            return labels
    _, low, _, shorts = _fold(system)
    labels = dict.fromkeys(labels)  # afresh: a failed search writes some labels
    for b, folded in shorts[size].items():
        pairs = _missing_trace(b, folded, m, low)[::-1]  # bit m - 1 - j is point j
        labels[tuple(m - 1 - j for j, _ in pairs)] = tuple(bit for _, bit in pairs)
    return labels
