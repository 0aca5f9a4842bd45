"""Finite set systems over a linearly ordered ground set.

The ground set of size m is {0, ..., m-1} carrying the natural order.
Member sets are 0/1 membership masks at the API and in files, and one int
per mask inside: the mask read as a base-2 numeral.  Members are
deduplicated and kept in lexicographic order, which is the ints' order, so
that every derived output is deterministic.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from functools import cache, cached_property
from collections.abc import Iterable, Sized

Mask = tuple[int, ...]
Label = tuple[int, ...]

# Whole-family enumerations (power sets, avoidance scans) are 2^m.
ENUMERATION_GROUND_CAP = 20
# The automaton kernel hands out its words in blocks of about this many, so
# a caller that writes them out holds one block at a time; to_text writes
# blocks of the same size.
BLOCK_WORDS = 1024


class GroundMismatchError(ValueError):
    """Operands live over different ground sets."""


class EmptyFamilyError(ValueError):
    """The operation needs at least one member set."""


class NotLocallyMaximumError(ValueError):
    """The trace on the chosen subset does not miss exactly one pattern."""


class SizeGuardError(ValueError):
    """The input exceeds an enumeration size cap."""


# Bytes 0 and 1 to the digits 0 and 1, and every other byte to a character
# that int(..., 2) refuses.
_BIT_DIGITS = b"01" + b"x" * 254


def _all_bits(entries) -> bool:
    """True iff every entry is the int 0 or 1 (a bool counts as an int)."""
    try:
        return not bytes(entries).translate(None, b"\x00\x01")
    except (TypeError, ValueError):
        return False


def _sorted_ints(ints: tuple, ground_size: int) -> bool:
    """True iff ``ints`` are ints strictly increasing within range(2**ground_size).

    One C-level pass reads the types and one the order, from -1 up.
    """
    if not set(map(type, ints)) <= {int}:
        return False
    increasing = all(map(operator.lt, itertools.chain((-1,), ints), ints))
    return increasing and (not ints or ints[-1].bit_length() <= ground_size)


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


def _check_mask(mask: Mask, ground_size: int | None = None) -> None:
    """Raise ValueError unless ``mask`` is a sequence of ``ground_size`` bits.

    The ground defaults to the mask's own length.  An object without a
    length raises ValueError naming its type, and a mask of another length
    than the ground GroundMismatchError.
    """
    _check_type(mask, Sized, "a mask must be a sequence of bits")
    ground_size = len(mask) if ground_size is None else ground_size
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
    _check_type(indices, Iterable, "indices must be an iterable")
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
    _check_mask(mask)
    return tuple(j for j, b in enumerate(mask) if b)


def _member_lines(words, ground_size: int) -> str:
    """The member lines of the set-system file format, one per member int.

    Each line is the mask's bits as 0/1 characters and ends in a newline;
    the empty mask is an empty line.  Each int is written by bin() after a
    bit above the ground, so every "0b1" in the join starts a line.
    """
    text = "".join(map(bin, map((1 << ground_size).__or__, words))).replace("0b1", "\n")
    return text[1:] + "\n" if words else ""


class _Value:
    """Base of the frozen value classes, from the field names in ``__match_args__``.

    Instances are equal when their classes and all their fields are; the
    hash is that of the field values and the repr lists them by name.
    Fields cannot be assigned or deleted, so each subclass's ``__init__``
    stores them through ``object.__setattr__``, its ``__dict__`` or its
    slots' own setters.
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
    """A deduplicated family of subsets of an ordered ground set.

    The family holds one int per member, in increasing order: the mask read
    as a base-2 numeral, point 0 the highest of its ``ground_size`` bits.
    ``members``, the tuple masks, is built from the ints when first read,
    unless the constructor was given them.
    """

    __match_args__ = ("ground_size", "members")

    def __init__(self, ground_size: int, members: Iterable[Mask]):
        _check_size(ground_size, "ground size")
        _check_type(members, Iterable, "members must be an iterable")
        members = tuple(members)
        ints = _module("_masks").mask_ints(members, ground_size)
        # Only a family that fails the fast check is checked again mask by
        # mask, for the first error in member order.
        if ints is None or not _sorted_ints(ints, ground_size):
            for mask in members:
                _check_mask(mask, ground_size)
            if list(members) != sorted(set(members)):
                raise ValueError(
                    "members must be deduplicated and lexicographically sorted; "
                    "use SetSystem.from_masks"
                )
        self.__dict__.update(ground_size=ground_size, _ints=ints, members=members)

    @classmethod
    def _of_ints(cls, ground_size: int, ints: Iterable[int]) -> SetSystem:
        """The family of the given member ints, checked by _sorted_ints."""
        family = object.__new__(cls)
        family.__dict__.update(ground_size=ground_size, _ints=tuple(ints))
        if not _sorted_ints(family._ints, ground_size):
            raise ValueError(f"member ints must increase within range(2**{ground_size})")
        return family

    @cached_property
    def members(self) -> tuple[Mask, ...]:
        return _module("_masks").member_tuples(self._ints, self.ground_size)

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
        _check_type(index_sets, Iterable, "index sets must be an iterable")
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
        """Each member as the int whose bit j is point j: its own int's bits reversed."""
        return _module("_masks").reversed_ints(self._ints, self.ground_size)

    def to_text(self) -> str:
        """Serialize in the set-system file format, a block of lines at a time."""
        ints, m = self._ints, self.ground_size
        blocks = (ints[i : i + BLOCK_WORDS] for i in range(0, len(ints), BLOCK_WORDS))
        return f"ground {m}\n" + "".join(_member_lines(block, m) for block in blocks)

    @classmethod
    def from_text(cls, text: str) -> SetSystem:
        """Parse the set-system file format.

        First significant line is ``ground <m>``; every further line is a
        string over {0,1} of length m.  Lines starting with ``#`` are
        ignored, and so are blank lines, except after ``ground 0``: there a
        blank line is the empty member.  Duplicate members are dropped.
        Text that is not a str raises ValueError.  Each member line is read
        straight to its int.
        """
        _check_type(text, str, "set-system text must be a str")
        ground_size = None
        ints = []
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
            ints.append(int(line or "0", 2))
        if ground_size is None:
            raise ValueError("missing 'ground <m>' header line")
        return cls._of_ints(ground_size, sorted(set(ints)))


def _automaton_blocks(ground_size: int, start, step):
    """The length-``ground_size`` words a deterministic automaton accepts, in blocks.

    ``step(state, bit)`` gives the next state, or None to reject.  It must
    be a pure function of a hashable state and a bit: the walk calls it
    once per reachable state and bit and keeps the answers in a move
    table.  The depth-first walk pops bit 0 before bit 1, so every
    accepted word comes out once and in lexicographic order, as the int
    of SetSystem (its bits read as a base-2 numeral); its stack
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
    """The generator of _automaton_blocks, which checks its arguments.

    A prefix of L bits is held as the int 2^L plus its bits, so doubling
    it appends a 0, and a doubled prefix at or above 2^m is a word, less
    that leading bit.
    """
    if not ground_size:
        yield [0]
        return
    words: list[int] = []
    moves = {}
    stack = [(1, start)]
    top = 1 << ground_size
    while stack:
        word, state = stack.pop()
        try:
            zero, one = moves[state]
        except KeyError:
            zero, one = moves[state] = step(state, 0), step(state, 1)
        word += word
        if word >= top:
            word -= top
            if zero is not None:
                words.append(word)
            if one is not None:
                words.append(word + 1)
            if len(words) >= BLOCK_WORDS:
                yield words
                words = []
        else:
            if one is not None:
                stack.append((word + 1, one))
            if zero is not None:
                stack.append((word, zero))
    if words:
        yield words


def _automaton_family(ground_size: int, start, step) -> SetSystem:
    """The family of the words an automaton accepts (see _automaton_blocks)."""
    blocks = _automaton_blocks(ground_size, start, step)
    return SetSystem._of_ints(ground_size, itertools.chain.from_iterable(blocks))


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
    much as the family (the m one-point sets of m points take about m^2/2
    steps); the kernel's ground cap also bounds the family at 2^20
    members.
    """

    def step(state, bit):
        read, size = state[0] + 1, state[1] + bit
        if size <= high and size + ground_size - read >= low:
            return read, size
        return None

    family = _automaton_family(ground_size, (0, 0), step)
    # No such subset, though the walk accepts the empty word on the empty ground.
    return family if low <= ground_size else SetSystem._of_ints(ground_size, ())


class Classification(_Value):
    """VC dimension together with the maximum/maximal verdicts."""

    __match_args__ = ("vc_dimension", "is_maximum", "is_maximal", "sauer_profile")

    def __init__(self, vc_dimension: int, is_maximum: bool, is_maximal: bool, sauer_profile):
        values = vc_dimension, is_maximum, is_maximal, sauer_profile
        self.__dict__.update(zip(self.__match_args__, values))


def phi_bound(d: int, n: int) -> int:
    """Largest trace count a dimension-d family can leave on n points."""
    _check_size(d, "dimension")
    _check_size(n, "point count")
    if n < d:
        return 2**n
    return sum(math.comb(n, i) for i in range(d + 1))


def trace(system: SetSystem, region: Mask) -> SetSystem:
    """Restrict the family to the elements of ``region``, reindexed in order."""
    _check_type(system, SetSystem, "family must be a SetSystem")
    _check_mask(region, system.ground_size)
    keep = mask_indices(region)
    return SetSystem.from_masks(
        len(keep), (tuple(mask[j] for j in keep) for mask in system.members)
    )


def _traces(system: SetSystem, region: Mask) -> tuple[int, set[int]]:
    """The int of ``region`` and the members' traces on it, as ints.

    An object that is not a SetSystem, or a region that is not a mask on
    its ground, raises ValueError.
    """
    _check_type(system, SetSystem, "family must be a SetSystem")
    _check_mask(region, system.ground_size)
    a = int(bytes(region).translate(_BIT_DIGITS) or b"0", 2)
    return a, {v & a for v in system._ints}


def shatters(system: SetSystem, region: Mask) -> bool:
    """True iff every subset of ``region`` occurs as a trace."""
    a, present = _traces(system, region)
    return len(present) == 1 << a.bit_count()


@cache
def _module(name: str):
    """The package's private module ``name``, imported on the first call for it.

    _classifier, the fold and the shatter search, serves classify,
    forbidden_labels and vc_dim; _masks, the tuple masks, serves the
    constructor, ``members`` and ``member_ints``.  A process that calls
    none of a module's users does not compile it.
    """
    # Unlike import_module this shows in -X importtime; with a fromlist,
    # __import__ returns the module itself rather than the package.
    return __import__(f"{__package__}.{name}", fromlist=["*"])


def vc_dim(system: SetSystem) -> int:
    """Largest shattered subset size; -1 for the empty family.

    A shatter search from Sauer's bound answers while its work stays under
    a cap; above the cap the family is classified, under classify's own
    ground cap (see _classifier.vc_dim).  An object that is not a
    SetSystem raises ValueError.
    """
    _check_type(system, SetSystem, "family must be a SetSystem")
    return _module("_classifier").vc_dim(system)


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
    return _module("_classifier").classify(system)


def forbidden_label(system: SetSystem, region: Mask) -> Label:
    """The unique missing trace pattern on ``region``, as a bit string.

    Bit i corresponds to the i-th smallest element of the region.  Defined
    exactly when the trace on the region misses a single pattern.
    """
    a, present = _traces(system, region)
    expected = (1 << a.bit_count()) - 1
    if len(present) != expected:
        raise NotLocallyMaximumError(
            f"trace on the region has {len(present)} patterns, expected {expected}"
        )
    missing = a  # the submasks of a, from the largest down, until one is absent
    while missing in present:
        missing = (missing - 1) & a
    # Point j is bit m - 1 - j.
    return tuple(missing >> (system.ground_size - 1 - j) & 1 for j in mask_indices(region))


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
    return _module("_classifier").forbidden_labels(system, size)


def alternation_number(mask: Mask) -> int:
    """Length of the longest membership-alternating increasing sequence.

    Equals the number of maximal constant runs of the membership string;
    0 only on the empty ground.
    """
    _check_mask(mask)
    return bool(mask) + sum(mask[i] != mask[i - 1] for i in range(1, len(mask)))
