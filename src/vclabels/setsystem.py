"""Finite set systems over a linearly ordered ground set.

The ground set of size m is {0, ..., m-1} carrying the natural order.
Member sets are 0/1 membership masks at the API and in files, and one int
per mask inside: the mask read as a base-2 numeral.  Members are
deduplicated and kept in lexicographic order, which is the ints' order, so
that every derived output is deterministic.

The mask and label types, the errors, the checks, the value base and the
automaton kernel live in _kernel and are importable from here too.  The
other modules reach this one only from the functions that build or
type-check a SetSystem, so a process that builds no family, such as CLI
``avoid``, ``label`` or ``verify l2``, never compiles it.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
from functools import cached_property
from collections.abc import Iterable

# Every name below is also setsystem's own, as vclabels.setsystem.X.
from ._kernel import (
    BLOCK_WORDS, ENUMERATION_GROUND_CAP, EmptyFamilyError, GroundMismatchError, Label, Mask,
    NotLocallyMaximumError, SizeGuardError, _BIT_DIGITS, _Value, _all_bits, _automaton_blocks,
    _check_cap, _check_mask, _check_size, _check_type, _count_words, _first_disagreement,
    _member_lines, _module, _walk, phi_bound,
)


def _sorted_ints(ints: tuple, ground_size: int) -> bool:
    """True iff ``ints`` are ints strictly increasing within range(2**ground_size).

    One C-level pass reads the types and one the order, from -1 up.
    """
    if not set(map(type, ints)) <= {int}:
        return False
    increasing = all(map(operator.lt, itertools.chain((-1,), ints), ints))
    return increasing and (not ints or ints[-1].bit_length() <= ground_size)


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
        family.__dict__.update(ground_size=ground_size, _ints=tuple(ints), _plain=True)
        if not _sorted_ints(family._ints, ground_size):
            raise ValueError(f"member ints must increase within range(2**{ground_size})")
        return family

    @cached_property
    def members(self) -> tuple[Mask, ...]:
        return _module("_masks").member_tuples(self._ints, self.ground_size)

    @cached_property
    def _plain(self) -> bool:
        """True iff the members are tuples of the ints 0 and 1, bools included.

        Their ints then decide ``==``.  A family built from ints is plain
        without a look at its members.
        """
        entries = itertools.chain.from_iterable(self.members)
        return self._ints is not None and set(map(type, entries)) <= {int, bool}

    def __eq__(self, other):
        # Only entries that are not plain, such as objects with an index,
        # can make masks of equal ints differ.
        if other.__class__ is self.__class__ and self._plain and other._plain:
            return self.ground_size == other.ground_size and self._ints == other._ints
        return super().__eq__(other)

    __hash__ = _Value.__hash__

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


def _automaton_family(ground_size: int, start, step) -> SetSystem:
    """The family of the words an automaton accepts (see _automaton_blocks)."""
    blocks = _automaton_blocks(ground_size, start, step)
    return SetSystem._of_ints(ground_size, itertools.chain.from_iterable(blocks))


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
