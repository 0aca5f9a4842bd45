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
from functools import cache, cached_property
from collections.abc import Iterable

Mask = tuple[int, ...]
Label = tuple[int, ...]

# Whole-family enumerations (power sets, avoidance scans) are 2^m.
ENUMERATION_GROUND_CAP = 20
# The automaton kernel hands out its words in blocks of about this many, so
# a caller that writes them out holds one block at a time; the
# constructor's fast check reads members in chunks of the same size.
BLOCK_WORDS = 1024


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


def _check_type(value, kind, what: str) -> None:
    """Raise ValueError naming the type of ``value`` unless it is a ``kind``.

    ``what`` says what was expected, such as ``"members must be an iterable"``.
    """
    if not isinstance(value, kind):
        raise ValueError(f"{what}, got {type(value).__name__}")


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
        _check_type(members, Iterable, "members must be an iterable")
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
        _check_type(masks, Iterable, "masks must be an iterable")
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
        Text that is not a str raises ValueError.
        """
        _check_type(text, str, "set-system text must be a str")
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


@cache
def _engine():
    """The module of the fold and the shatter search, imported on the first call.

    Only classify, forbidden_labels and vc_dim use it, so a process that
    calls none of them does not compile it.
    """
    from . import _classifier

    return _classifier


def vc_dim(system: SetSystem) -> int:
    """Largest shattered subset size; -1 for the empty family.

    A shatter search from Sauer's bound answers while its work stays under
    a cap; above the cap the family is classified, under classify's own
    ground cap (see _classifier.vc_dim).  An object that is not a
    SetSystem raises ValueError.
    """
    _check_type(system, SetSystem, "family must be a SetSystem")
    return _engine().vc_dim(system)


def classify(system: SetSystem) -> Classification:
    """VC dimension plus the maximum and maximal verdicts.

    The profile holds (k, t) for k = 0..m, where t is the largest number
    of traces the family leaves on any k-subset.  A maximum family that
    the shatter search settles is classified at any ground; every other
    family is folded, which above ground 16 raises SizeGuardError (see
    _classifier.classify).  An empty family raises EmptyFamilyError, and
    an object that is not a SetSystem ValueError.
    """
    _check_type(system, SetSystem, "family must be a SetSystem")
    return _engine().classify(system)


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


def forbidden_labels(system: SetSystem, size: int) -> dict[tuple[int, ...], Label | None]:
    """The forbidden label of every ``size``-subset of the ground.

    Keys are index tuples in ``itertools.combinations`` order; the value is
    None where the trace misses other than exactly one pattern.  A size
    that is not an int or is below 0 raises ValueError, and a size above m
    gives the empty dict.  Above ground 16 a family that the shatter search
    does not settle raises SizeGuardError (see _classifier.forbidden_labels).
    An object that is not a SetSystem raises ValueError.
    """
    _check_type(system, SetSystem, "family must be a SetSystem")
    return _engine().forbidden_labels(system, size)


def alternation_number(mask: Mask) -> int:
    """Length of the longest membership-alternating increasing sequence.

    Equals the number of maximal constant runs of the membership string;
    0 only on the empty ground.
    """
    if not mask:
        return 0
    return 1 + sum(mask[i] != mask[i - 1] for i in range(1, len(mask)))
