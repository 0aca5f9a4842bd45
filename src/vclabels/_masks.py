"""Tuple masks at the API boundary: a family's member ints to and from tuples.

A SetSystem holds only one int per member: the mask read as a base-2
numeral, point 0 the highest of its ground_size bits (see setsystem).
Its public constructor and ``from_masks`` read masks into those ints,
and its ``members`` and ``member_ints`` are views built from them when
first read.  Only those calls import this module, so a process that
never builds a family from masks or reads them back, such as every CLI
call, never compiles it.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
from functools import cache

from ._kernel import Mask, _BIT_DIGITS


def mask_ints(members, ground_size: int) -> tuple[int, ...] | None:
    """The ints of ``members``, or None unless each is a tuple of ``ground_size`` bits.

    The ints' order is the masks' lexicographic order.  A bit is an int 0
    or 1, a bool included: ``bytes`` of a tuple fails on an entry that is
    not an int in range(256), and int() refuses the digit _BIT_DIGITS
    gives any byte above 1.  Each step is one C-level map; a leading 0
    digit reads the empty mask as 0.
    """
    if not all(map(isinstance, members, itertools.repeat(tuple))):
        return None
    if set(map(len, members)) <= {ground_size}:
        with contextlib.suppress(TypeError, ValueError):
            digits = map(bytes.translate, map(bytes, members), itertools.repeat(_BIT_DIGITS))
            return tuple(map(int, map(b"0".__add__, digits), itertools.repeat(2)))
    return None


@cache
def _all_masks(width: int) -> list[Mask]:
    """Every mask of ``width`` bits, each at the index of its int."""
    return list(itertools.product((0, 1), repeat=width))


def member_tuples(ints, ground_size: int) -> tuple[Mask, ...]:
    """The tuple masks of member ints.

    Up to ground 40, each int is cut into chunks of at most 10 bits, from
    the top down; one C-level map per chunk looks its masks up in
    _all_masks and joins them to the masks of the chunks above.  A wider
    ground writes each int's digits instead, so the maps nest at most four
    deep whatever the ground.
    """
    if ground_size > 40:
        spec = f"0{ground_size:d}b"
        return tuple(tuple(map(int, format(v, spec))) for v in ints)
    masks = None
    for low in reversed(range(0, ground_size, 10)):
        chunk = map(operator.rshift, ints, itertools.repeat(low)) if low else ints
        if low + 10 < ground_size:
            chunk = map(operator.and_, chunk, itertools.repeat(1023))
        looked = map(_all_masks(min(10, ground_size - low)).__getitem__, chunk)
        masks = looked if masks is None else map(operator.add, masks, looked)
    return ((),) * len(ints) if masks is None else tuple(masks)


def reversed_ints(ints, ground_size: int) -> tuple[int, ...]:
    """Each member int with its ``ground_size`` bits in reverse order, so
    that bit j is point j."""
    spec = f"0{ground_size:d}b"
    return tuple(int(format(v, spec)[::-1], 2) for v in ints)
