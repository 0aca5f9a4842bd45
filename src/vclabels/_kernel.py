"""What every vclabels call shares: the checks, the value base and the automaton kernel.

Masks and labels are tuples of the bits 0 and 1 at the API.  Every
generated family is the words of a small automaton, walked by
_automaton_blocks, which is also the one ground guard.  Every module of
the package imports this one at the top.  ``setsystem``, the family and
its operations, is reached only by the functions that build or type-check
a SetSystem, through _module, so a CLI call that builds no family, such as
``avoid``, ``label`` or ``verify l2``, never compiles it.
"""

from __future__ import annotations

import math
from collections.abc import Sized
from functools import cache

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


def phi_bound(d: int, n: int) -> int:
    """Largest trace count a dimension-d family can leave on n points."""
    _check_size(d, "dimension")
    _check_size(n, "point count")
    if n < d:
        return 2**n
    return sum(math.comb(n, i) for i in range(d + 1))


@cache
def _module(name: str):
    """The package's module ``name``, imported on the first call for it.

    Functions call it for a module that only they need: setsystem where a
    SetSystem is built or type-checked, orderformula in compile_label and
    the pair automaton, and setsystem's helpers _classifier (the fold and
    the shatter search) and _masks (the tuple masks).  A process that calls
    none of them does not compile the module.  Later calls are cache hits,
    where an import statement would call ``__import__`` every time.
    """
    # Unlike import_module this shows in -X importtime; with a fromlist,
    # __import__ returns the module itself rather than the package.
    return __import__(f"{__package__}.{name}", fromlist=["*"])


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
