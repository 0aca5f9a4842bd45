"""Finite set systems over a linearly ordered ground set.

The ground set of size m is {0, ..., m-1} carrying the natural order.
Member sets are stored as 0/1 membership masks, deduplicated and kept in
lexicographic order so that every derived output is deterministic.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from functools import cached_property
from typing import Iterable

Mask = tuple[int, ...]
Label = tuple[int, ...]

# Whole-family enumerations (power sets, avoidance scans) are 2^m.
ENUMERATION_GROUND_CAP = 20
# The automaton kernel hands out its words in blocks of about this many, so
# a caller that writes them out holds one block at a time; the
# constructor's fast check reads members in chunks of the same size.
BLOCK_WORDS = 1024
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


class GroundMismatchError(ValueError):
    """Operands live over different ground sets."""


class EmptyFamilyError(ValueError):
    """The operation needs at least one member set."""


class NotLocallyMaximumError(ValueError):
    """The trace on the chosen subset does not miss exactly one pattern."""


class SizeGuardError(ValueError):
    """The input exceeds an enumeration size cap."""


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")
_CHAR_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _all_bits(entries) -> bool:
    """True iff every entry is the int 0 or 1 (a bool counts as an int)."""
    try:
        return not bytes(entries).translate(None, b"\x00\x01")
    except (TypeError, ValueError):
        return False


def _sorted_bit_tuples(members, ground_size: int) -> bool:
    """True iff ``members`` are strictly increasing tuples of ``ground_size`` bits.

    A bit is an int 0 or 1, a bool included.  Each check is a C-level pass
    over a chunk of BLOCK_WORDS + 1 members, so the check holds one
    chunk's bytes at a time; neighbouring chunks share a member, so every
    two neighbours are compared.  ``bytes`` of a tuple fails on an entry
    that is not an int in range(256), one join of a chunk's rows shows any
    entry above 1, and on rows of one length the bytes order is the
    tuples' lexicographic order.
    """
    if not (set(map(type, members)) <= {tuple} and set(map(len, members)) <= {ground_size}):
        return False
    for start in range(0, len(members) or 1, BLOCK_WORDS):
        try:
            rows = list(map(bytes, members[start : start + BLOCK_WORDS + 1]))
        except (TypeError, ValueError):
            return False
        if b"".join(rows).translate(None, b"\x00\x01") or not all(
            map(operator.lt, rows, itertools.islice(rows, 1, None))
        ):
            return False
    return True


def _check_size(value, name: str) -> None:
    """Raise ValueError unless ``value`` is a nonnegative int (a bool counts)."""
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")


def _check_cap(value: int, cap: int, what: str) -> None:
    """Raise SizeGuardError when ``value`` exceeds ``cap``.

    ``what`` is a template with one field for the value, such as
    ``"depth {}"``; it is formatted only for the message.
    """
    if value > cap:
        raise SizeGuardError(f"{what.format(value)} exceeds cap {cap}")


def _check_mask(mask: Mask, ground_size: int) -> None:
    _check_size(ground_size, "ground size")
    if len(mask) != ground_size:
        raise GroundMismatchError(
            f"mask length {len(mask)} does not match ground size {ground_size}"
        )
    if not _all_bits(mask):
        raise ValueError(f"mask entries must be 0 or 1: {mask!r}")


def mask_from_indices(ground_size: int, indices: Iterable[int]) -> Mask:
    """Membership mask of the given element indices (ints; a bool counts)."""
    _check_size(ground_size, "ground size")
    indices = list(indices)
    odd = [i for i in indices if not isinstance(i, int)]
    if odd:
        raise ValueError(f"indices must be ints, got {odd!r}")
    chosen = set(indices)
    bad = sorted(i for i in chosen if not 0 <= i < ground_size)
    if bad:
        raise ValueError(f"indices out of range for ground {ground_size}: {bad}")
    return tuple(1 if j in chosen else 0 for j in range(ground_size))


def mask_indices(mask: Mask) -> tuple[int, ...]:
    """Element indices present in the mask, in increasing order."""
    return tuple(j for j, b in enumerate(mask) if b)


def _member_lines(masks) -> str:
    """The member lines of the set-system file format, one per mask.

    Each line is the mask's bits as 0/1 characters and ends in a newline;
    the empty mask is an empty line.
    """
    return b"\n".join([*map(bytes, masks), b""]).translate(_BIT_CHARS).decode()


def _mask_int(mask: Mask) -> int:
    return int(bytes(mask[::-1]).translate(_BIT_CHARS) or b"0", 2)


class _Value:
    """Base of the frozen value classes, from the field names in ``__match_args__``.

    Instances are equal when their classes and all their fields are; the
    hash is that of the field values and the repr lists them by name.
    Fields cannot be assigned or deleted, so each subclass's ``__init__``
    stores them through ``object.__setattr__`` or its slots' own setters.
    A value is its own copy, and its own deep copy when it hashes; one that
    a caller built with a mutable field, such as a list, deep-copies field
    by field.  Unpickled values are built by ``__init__``, so what it
    derives from the fields, such as a stored hash, is computed afresh in
    each process.  ``repr`` walks nested values with an explicit stack, so
    it does not recurse however deep a tree of values is.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __reduce__(self):
        return type(self), self._values()

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        try:
            hash(self)
        except TypeError:
            import copy

            return type(self)(*copy.deepcopy(self._values(), memo))
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        # The stack holds text, and values still to be written out.
        parts, stack = [], [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, _Value):
                parts.append(item)
                continue
            pieces = [f"{type(item).__qualname__}("]
            for i, name in enumerate(item.__match_args__):
                value = getattr(item, name)
                pieces.append(f"{', ' if i else ''}{name}=")
                pieces.append(value if isinstance(value, _Value) else repr(value))
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(parts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SetSystem(_Value):
    """A deduplicated family of subsets of an ordered ground set."""

    __match_args__ = ("ground_size", "members")

    def __init__(self, ground_size: int, members: Iterable[Mask]):
        _check_size(ground_size, "ground size")
        members = tuple(members)
        # Only a family that fails the fast check is checked again mask by
        # mask, for the first error in member order.
        if not _sorted_bit_tuples(members, ground_size):
            for mask in members:
                _check_mask(mask, ground_size)
            if list(members) != sorted(set(members)):
                raise ValueError(
                    "members must be deduplicated and lexicographically sorted; "
                    "use SetSystem.from_masks"
                )
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "members", members)

    @classmethod
    def from_masks(cls, ground_size: int, masks: Iterable[Mask]) -> SetSystem:
        masks = [tuple(mask) for mask in masks]
        try:
            return cls(ground_size, sorted(set(masks)))
        except (TypeError, ValueError):
            # Sorting fails on an unhashable or unorderable entry, and the
            # constructor names the first bad mask in sorted order; name the
            # first in input order instead, after a bad ground.
            for mask in masks:
                _check_mask(mask, ground_size)
            raise

    @classmethod
    def from_index_sets(cls, ground_size: int, index_sets) -> SetSystem:
        return cls.from_masks(
            ground_size, (mask_from_indices(ground_size, s) for s in index_sets)
        )

    @classmethod
    def power_set(cls, ground_size: int) -> SetSystem:
        """All subsets of the ground: the words of a one-state automaton."""
        return _automaton_family(ground_size, 0, lambda state, bit: state)

    @classmethod
    def size_at_most(cls, ground_size: int, d: int) -> SetSystem:
        """All subsets of the ground of size at most d."""
        _check_size(d, "size bound")
        return _sized_family(ground_size, 0, d)

    @classmethod
    def size_exactly(cls, ground_size: int, d: int) -> SetSystem:
        """All subsets of the ground of size exactly d."""
        _check_size(d, "size")
        return _sized_family(ground_size, d, d)

    @cached_property
    def member_ints(self) -> tuple[int, ...]:
        return tuple(_mask_int(mask) for mask in self.members)

    def to_text(self) -> str:
        """Serialize in the set-system file format, a block of lines at a time."""
        members = self.members
        blocks = (members[i : i + BLOCK_WORDS] for i in range(0, len(members), BLOCK_WORDS))
        return f"ground {self.ground_size}\n" + "".join(map(_member_lines, blocks))

    @classmethod
    def from_text(cls, text: str) -> SetSystem:
        """Parse the set-system file format.

        First significant line is ``ground <m>``; every further line is a
        string over {0,1} of length m.  Lines starting with ``#`` are
        ignored, and so are blank lines, except after ``ground 0``: there a
        blank line is the empty member.  Duplicate members are dropped.
        """
        ground_size = None
        masks = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line.startswith("#") or not line and ground_size != 0:
                continue
            if ground_size is None:
                parts = line.split()
                if len(parts) == 2 and parts[0] == "ground" and parts[1].isdecimal():
                    with contextlib.suppress(ValueError):  # too many digits for int()
                        ground_size = int(parts[1])
                if ground_size is None:
                    raise ValueError(f"line {lineno}: expected 'ground <m>', got {line!r}")
                continue
            if len(line) != ground_size or line.strip("01"):
                raise ValueError(
                    f"line {lineno}: expected a 0/1 string of length {ground_size}, "
                    f"got {line!r}"
                )
            masks.append(tuple(line.encode().translate(_CHAR_BITS)))
        if ground_size is None:
            raise ValueError("missing 'ground <m>' header line")
        return cls.from_masks(ground_size, masks)


def _automaton_blocks(ground_size: int, start, step):
    """The length-``ground_size`` words a deterministic automaton accepts, in blocks.

    ``step(state, bit)`` gives the next state, or None to reject.  It must
    be a pure function of a hashable state and a bit: the walk calls it
    once per reachable state and bit and keeps the answers in a move
    table.  The depth-first walk pops bit 0 before bit 1, so every
    accepted word comes out once and in lexicographic order; its stack
    holds at most one entry per level, and words end at the last level
    without being pushed.  The words come in lists, each but the last of
    BLOCK_WORDS or BLOCK_WORDS + 1 words, and the walk goes on only when
    the next list is asked for.  A ground that is not an int or is below 0
    raises ValueError, and one above ENUMERATION_GROUND_CAP raises
    SizeGuardError, on the call and before any step.
    """
    _check_size(ground_size, "ground size")
    _check_cap(ground_size, ENUMERATION_GROUND_CAP, "family on ground {}")
    return _walk(ground_size, start, step)


def _walk(ground_size: int, start, step):
    """The generator of _automaton_blocks, which checks its arguments."""
    if not ground_size:
        yield [()]
        return
    words: list[Mask] = []
    moves = {}
    stack = [((), start)]
    last = ground_size - 1
    while stack:
        word, state = stack.pop()
        try:
            zero, one = moves[state]
        except KeyError:
            zero, one = moves[state] = step(state, 0), step(state, 1)
        if len(word) == last:
            if zero is not None:
                words.append(word + (0,))
            if one is not None:
                words.append(word + (1,))
            if len(words) >= BLOCK_WORDS:
                yield words
                words = []
        else:
            if one is not None:
                stack.append((word + (1,), one))
            if zero is not None:
                stack.append((word + (0,), zero))
    if words:
        yield words


def _automaton_family(ground_size: int, start, step) -> SetSystem:
    """The family of the words an automaton accepts (see _automaton_blocks)."""
    words: list[Mask] = []
    for block in _automaton_blocks(ground_size, start, step):
        words += block
    return SetSystem(ground_size, words)


def _count_words(levels: int, start, step) -> list[int]:
    """Number of words of each length 0..``levels`` an automaton accepts.

    The step follows the contract of _automaton_blocks.  Each level keeps
    a map from state to the number of words that reach it, and builds no
    word.  Levels that are not an int or are below 0 raise ValueError; a
    walk that visits more than 2^ENUMERATION_GROUND_CAP (level, state)
    pairs, the most words the kernel returns, raises SizeGuardError.  A
    level with no state counts as one pair, so the walk ends whatever the
    automaton, and it refuses as soon as the budget left cannot pay one
    pair for each level left, before it walks them.
    """
    _check_size(levels, "ground size")
    cap = budget = 1 << ENUMERATION_GROUND_CAP
    reach = {start: 1}
    counts = [1]
    for left in reversed(range(levels)):
        budget -= len(reach) or 1
        if budget < left:
            raise SizeGuardError(f"word count on ground {levels} exceeds {cap} states")
        after = {}
        for state, count in reach.items():
            for bit in (0, 1):
                if (nxt := step(state, bit)) is not None:
                    after[nxt] = after.get(nxt, 0) + count
        reach = after
        counts.append(sum(reach.values()))
    return counts


def _first_disagreement(start_a, step_a, start_b, step_b, levels=None) -> Mask | None:
    """Least shortest word one automaton accepts and the other rejects, or None.

    The steps follow the contract of _automaton_blocks.  A breadth-first
    walk over the reachable state pairs reads bit 0 before bit 1, so it
    meets the words of each length in lexicographic order; a pair already
    reached by an earlier word is not walked again, since every word on
    which the two disagree after it extends that earlier word as well.
    With ``levels`` the walk reads words of at most that many bits.
    """
    queue = [((), start_a, start_b)]
    seen = {(start_a, start_b)}
    for word, state_a, state_b in queue:
        if len(word) == levels:
            break
        for bit in (0, 1):
            after_a, after_b = step_a(state_a, bit), step_b(state_b, bit)
            if (after_a is None) != (after_b is None):
                return word + (bit,)
            if after_a is not None and (after_a, after_b) not in seen:
                seen.add((after_a, after_b))
                queue.append((word + (bit,), after_a, after_b))
    return None


def _sized_family(ground_size: int, low: int, high: int) -> SetSystem:
    """All subsets of the ground with between ``low`` and ``high`` members.

    The automaton's state is (points read, members so far); a point joins
    while the size stays at most ``high``, and stays out while the points
    left can still reach ``low``.  The walk's cost follows the ground as
    much as the family (the m one-point sets of m points copy about m^3/6
    word entries); the kernel's ground cap also bounds the family at 2^20
    members.
    """

    def step(state, bit):
        read, size = state[0] + 1, state[1] + bit
        if size <= high and size + ground_size - read >= low:
            return read, size
        return None

    family = _automaton_family(ground_size, (0, 0), step)
    # No such subset, though the walk accepts the empty word on the empty ground.
    return family if low <= ground_size else SetSystem(ground_size, ())


class Classification(_Value):
    """VC dimension together with the maximum/maximal verdicts."""

    __match_args__ = ("vc_dimension", "is_maximum", "is_maximal", "sauer_profile")

    def __init__(
        self,
        vc_dimension: int,
        is_maximum: bool,
        is_maximal: bool,
        sauer_profile: tuple[tuple[int, int], ...],
    ):
        object.__setattr__(self, "vc_dimension", vc_dimension)
        object.__setattr__(self, "is_maximum", is_maximum)
        object.__setattr__(self, "is_maximal", is_maximal)
        object.__setattr__(self, "sauer_profile", sauer_profile)


def phi_bound(d: int, n: int) -> int:
    """Largest trace count a dimension-d family can leave on n points."""
    _check_size(d, "dimension")
    _check_size(n, "point count")
    if n < d:
        return 2**n
    return sum(math.comb(n, i) for i in range(d + 1))


def _sauer_profile(d: int, m: int) -> tuple[tuple[int, int], ...]:
    """The pairs (k, phi(d, k)) for k = 0..m, from one running value.

    By Pascal's rule phi(d, k + 1) = 2 phi(d, k) - C(k, d), and C(k, d) is
    0 for k < d, where phi(d, k) = 2^k.
    """
    phis = itertools.accumulate(range(m), lambda phi, k: 2 * phi - math.comb(k, d), initial=1)
    return tuple(enumerate(phis))


def trace(system: SetSystem, region: Mask) -> SetSystem:
    """Restrict the family to the elements of ``region``, reindexed in order."""
    _check_mask(region, system.ground_size)
    keep = mask_indices(region)
    return SetSystem.from_masks(
        len(keep), (tuple(mask[j] for j in keep) for mask in system.members)
    )


def shatters(system: SetSystem, region: Mask) -> bool:
    """True iff every subset of ``region`` occurs as a trace."""
    _check_mask(region, system.ground_size)
    a = _mask_int(region)
    return len({v & a for v in system.member_ints}) == 1 << a.bit_count()


def vc_dim(system: SetSystem) -> int:
    """Largest shattered subset size; -1 for the empty family.

    By Sauer's bound the family shatters a set of every size up to its
    floor d (see _sauer_floor).  Shattering is hereditary, so sizes above
    d are tried in increasing order and the search stops at the first size
    with no shattered subset (see _shatters_some), or once 2^k exceeds the
    number of members.  A size whose C(m, k) * |F| pairs exceed
    VC_DIM_WORK_CAP is left to classify.
    """
    count, m = len(system.members), system.ground_size
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
            columns = _columns(system.members)
        if not _shatters_some(columns, count, k):
            break
        d = k
    return d


def _indicator(ints, m: int) -> int:
    """The 2^m-bit int whose bit v is set exactly when v is in ``ints``."""
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
    indicator = _indicator(system.member_ints, m)
    low = _low_halves(m)
    return indicator, low, *_trace_counts(indicator, m, low)


def _columns(members) -> list[int]:
    """Member bit columns: bit i of column j is bit j of member i.

    The members are numbered in one order, the same for every column.
    """
    return [int(bytes(column).translate(_BIT_CHARS), 2) for column in zip(*members)]


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
    count, m = len(system.members), system.ground_size
    d, bound = _sauer_floor(count, m)
    if bound != count:
        return None
    if d == m:
        return d  # the power set
    cells = sum(math.comb(m, t) << t for t in range(1, d + 1))
    if cells > SEARCH_CELLS_PER_FOLD << min(m, CLASSIFY_GROUND_CAP):
        return None
    if _shatters_some(_columns(system.members), count, d + 1, labels):
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
    if not system.members:
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
    is_maximum = len(system.members) == phi_bound(d, m)
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


def forbidden_label(system: SetSystem, region: Mask) -> Label:
    """The unique missing trace pattern on ``region``, as a bit string.

    Bit i corresponds to the i-th smallest element of the region.  Defined
    exactly when the trace on the region misses a single pattern.
    """
    _check_mask(region, system.ground_size)
    a = _mask_int(region)
    present = {v & a for v in system.member_ints}
    expected = (1 << a.bit_count()) - 1
    if len(present) != expected:
        raise NotLocallyMaximumError(
            f"trace on the region has {len(present)} patterns, expected {expected}"
        )
    missing = a  # the submasks of a, from the largest down, until one is absent
    while missing in present:
        missing = (missing - 1) & a
    return tuple(missing >> j & 1 for j in mask_indices(region))


def forbidden_labels(
    system: SetSystem, size: int
) -> dict[tuple[int, ...], Label | None]:
    """The forbidden label of every ``size``-subset of the ground.

    Keys are index tuples in ``itertools.combinations`` order; the value is
    None where the trace misses other than exactly one pattern.  A size
    that is not an int or is below 0 raises ValueError.

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
    m, count = system.ground_size, len(system.members)
    labels = dict.fromkeys(itertools.combinations(range(m), size))
    if not labels:
        return labels
    if _sauer_floor(count, m) == (size - 1, count):
        if _maximum_dimension(system, labels) is not None:
            return labels
    _, low, _, shorts = _fold(system)
    labels = dict.fromkeys(labels)  # afresh: a failed search writes some labels
    for b, folded in shorts[size].items():
        pairs = _missing_trace(b, folded, m, low)
        labels[tuple(j for j, _ in pairs)] = tuple(bit for _, bit in pairs)
    return labels


def alternation_number(mask: Mask) -> int:
    """Length of the longest membership-alternating increasing sequence.

    Equals the number of maximal constant runs of the membership string;
    0 only on the empty ground.
    """
    if not mask:
        return 0
    return 1 + sum(mask[i] != mask[i - 1] for i in range(1, len(mask)))
