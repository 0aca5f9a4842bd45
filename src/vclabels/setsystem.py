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
from functools import cached_property, lru_cache
from collections.abc import Iterable

# Every name below is also setsystem's own, as vclabels.setsystem.X.
from ._kernel import (
    BLOCK_WORDS, ENUMERATION_GROUND_CAP, EmptyFamilyError, GroundMismatchError, Label, Mask,
    NotLocallyMaximumError, SizeGuardError, _BIT_DIGITS, _Value, _all_bits, _automaton_blocks,
    _check_cap, _check_mask, _check_size, _check_type, _count_words, _first_disagreement,
    _member_lines, _module, _walk, phi_bound,
)

# On a ground of at most MEMO_GROUND points, classify and avoid_family
# answer repeats from an lru_cache of their last MEMO_CALLS calls each.
MEMO_GROUND = 10
MEMO_CALLS = 256


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

    The family holds only one int per member, in increasing order: the
    mask read as a base-2 numeral, point 0 the highest of its
    ``ground_size`` bits.  ``members``, the tuple masks, is built from the
    ints when first read, so its entries are the ints 0 and 1 whatever
    bits the masks were given as.  Masks and file lines are checked where
    they enter (the constructor, ``from_masks``, ``from_text``); the ints
    the library builds itself go to ``_of_ints`` unchecked.
    """

    __match_args__ = ("ground_size", "members")

    def __init__(self, ground_size: int, members: Iterable[Mask]):
        _check_size(ground_size, "ground size")
        _check_type(members, Iterable, "members must be an iterable")
        members = tuple(members)
        ints = _module("_masks").mask_ints(members, ground_size)
        # mask_ints gives ints in range(2**ground_size) or None.  Only a
        # family that fails it, or whose ints do not increase, is checked
        # again mask by mask, for the first error in member order.  Masks
        # that all pass have ints, so it is their order that is wrong.
        if ints is None or not all(map(operator.lt, ints, ints[1:])):
            for mask in members:
                _check_mask(mask, ground_size)
                _check_type(mask, tuple, "a mask must be a tuple")  # such as bytes
            raise ValueError(
                "members must be deduplicated and lexicographically sorted; "
                "use SetSystem.from_masks"
            )
        self.__dict__.update(ground_size=ground_size, _ints=ints)

    @classmethod
    def _of_ints(cls, ground_size: int, ints: Iterable[int]) -> SetSystem:
        """The family of the given member ints, trusted and not checked.

        Only the library calls it, with ints it has built strictly
        increasing within range(2**ground_size): sorted distinct ints of
        checked masks or file lines, the kernel's words, which come in
        order, or another family's ints.  Masks and file lines from
        outside are checked where they enter (see SetSystem).
        """
        family = object.__new__(cls)
        family.__dict__.update(ground_size=ground_size, _ints=tuple(ints))
        return family

    @cached_property
    def members(self) -> tuple[Mask, ...]:
        return _module("_masks").member_tuples(self._ints, self.ground_size)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ground_size == other.ground_size and self._ints == other._ints

    __hash__ = _Value.__hash__

    def __deepcopy__(self, memo):
        # A family always hashes, so it is its own deep copy; asking
        # _Value for it would hash, and so build, ``members``.
        return self

    @classmethod
    def from_masks(cls, ground_size: int, masks: Iterable[Mask]) -> SetSystem:
        """The family of ``masks``, deduplicated and sorted; each may be any
        iterable of bits.  The first bad mask in input order raises."""
        _check_type(masks, Iterable, "masks must be an iterable")
        _check_size(ground_size, "ground size")
        masks, mask_ints = tuple(masks), _module("_masks").mask_ints
        ints = mask_ints(masks, ground_size)
        if ints is None:  # a mask that is not a tuple of bits
            tuples = []
            for mask in masks:
                _check_type(mask, Iterable, "a mask must be a sequence of bits")
                tuples.append(tuple(mask))
                _check_mask(tuples[-1], ground_size)
            ints = mask_ints(tuples, ground_size)
        return cls._of_ints(ground_size, sorted(set(ints)))

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


def _memo_ground(ground_size) -> bool:
    """True iff calls on this ground use the memos: an int of at most
    MEMO_GROUND, not a bool such as True, which a family's repr shows."""
    return ground_size.__class__ is int and ground_size <= MEMO_GROUND


def _avoid_family(ground_size: int, eta: Label) -> SetSystem:
    """labelcalc.avoid_family of a normalized label.  The memo holds
    member ints, so a hit is a new SetSystem, never a caller's view."""
    if _memo_ground(ground_size):
        return SetSystem._of_ints(ground_size, _avoid_ints(ground_size, eta))
    return _automaton_family(ground_size, 0, _module("labelcalc")._avoid_step(eta))


@lru_cache(maxsize=MEMO_CALLS)
def _avoid_ints(ground_size: int, eta: Label) -> tuple[int, ...]:
    """The member ints of the eta-avoidance family on the ground."""
    return _automaton_family(ground_size, 0, _module("labelcalc")._avoid_step(eta))._ints


class Classification(_Value):
    """VC dimension together with the maximum/maximal verdicts."""

    __match_args__ = ("vc_dimension", "is_maximum", "is_maximal", "sauer_profile")

    def __init__(self, vc_dimension: int, is_maximum: bool, is_maximal: bool, sauer_profile):
        values = vc_dimension, is_maximum, is_maximal, sauer_profile
        self.__dict__.update(zip(self.__match_args__, values))


def trace(system: SetSystem, region: Mask) -> SetSystem:
    """Restrict the family to the elements of ``region``, reindexed in order."""
    _, present = _traces(system, region)
    keep = [j for j, b in enumerate(region) if b]
    # Kept point j moves from bit m - 1 - j to bit k - 1 - i, i its place.
    shifts = [(system.ground_size - 1 - j, len(keep) - 1 - i) for i, j in enumerate(keep)]
    ints = (sum((v >> old & 1) << new for old, new in shifts) for v in present)
    return SetSystem._of_ints(len(keep), sorted(ints))


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
    an object that is not a SetSystem ValueError.  On a memo ground (see
    _memo_ground) a repeated family, keyed by its ground and member ints,
    not its hash, which reads ``.members``, returns the same answer.
    """
    _check_type(system, SetSystem, "family must be a SetSystem")
    if _memo_ground(system.ground_size):
        return _classify_ints(system.ground_size, system._ints)
    return _module("_classifier").classify(system)


@lru_cache(maxsize=MEMO_CALLS)
def _classify_ints(ground_size: int, ints: tuple[int, ...]) -> Classification:
    """classify of the family of these ints, a checked family's."""
    return _module("_classifier").classify(SetSystem._of_ints(ground_size, ints))


def _classify_labelled(system: SetSystem) -> tuple[Classification, dict]:
    """classify(system), and forbidden_labels(system, d + 1) for its d.

    Both come from one engine pass, one search or one fold (see
    _classifier._classify_labelled), with classify's errors.
    """
    _check_type(system, SetSystem, "family must be a SetSystem")
    return _module("_classifier")._classify_labelled(system)


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
    return tuple(missing >> (system.ground_size - 1 - j) & 1 for j, b in enumerate(region) if b)


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
