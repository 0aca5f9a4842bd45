"""Forbidden-label calculus: pattern induction, avoidance families, extension.

A label is a nonempty bit string eta.  A set ``c`` induces eta when the
membership string of ``c`` contains eta as a (not necessarily contiguous)
subsequence; the family avoiding eta on a ground of size m is maximum of
dimension len(eta) - 1.

Everything here reads eta's greedy matcher, whose state is the length of
the prefix of eta matched so far: the avoidance family is the set of words
on which it never completes, induction is one pass of it along a mask, and
extension is the same pass with each point off the region taking the bit
the matcher does not want next.

The matcher runs on the automaton kernel of _kernel.  Only the functions
that build or type-check a SetSystem reach setsystem, so CLI ``avoid`` and
``verify sauer``, which walk the matcher and build no family, never
compile it.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING

from ._kernel import (
    GroundMismatchError,
    Label,
    Mask,
    _all_bits,
    _automaton_blocks,
    _check_mask,
    _check_type,
    _module,
    phi_bound,
)

if TYPE_CHECKING:
    from .setsystem import SetSystem


class PreconditionViolatedError(ValueError):
    """The partial assignment already induces the pattern it must avoid."""


def as_label(value) -> Label:
    """Validate a label and normalize it to a tuple of the ints 0 and 1.

    The entries must be the ints 0 and 1 (a bool counts), as for masks;
    anything else, a non-iterable value included, raises ValueError.
    """
    try:
        eta = tuple(value)
    except TypeError:
        eta = ()
    if not eta or not _all_bits(eta):
        raise ValueError(f"a label is a nonempty tuple of 0/1 bits, got {value!r}")
    return tuple(bytes(eta))  # plain ints, bools included


def parse_label(text: str) -> Label:
    """Parse a label literal: a string over {0,1}, leftmost character = bit 0."""
    if not isinstance(text, str) or not text or any(ch not in "01" for ch in text):
        raise ValueError(f"a label literal is a nonempty string over 0/1, got {text!r}")
    return tuple(int(ch) for ch in text)


def format_label(eta: Label) -> str:
    return "".join(str(b) for b in as_label(eta))


def induces(mask: Mask, eta: Label) -> bool:
    """True iff the membership pattern eta appears along increasing positions.

    Greedy left-to-right matching; equivalent to subsequence containment of
    eta in the membership string.
    """
    _check_mask(mask)
    return induces_within(mask, (1,) * len(mask), eta)


def induces_within(mask: Mask, region: Mask, eta: Label) -> bool:
    """Pattern induction using only positions inside ``region``.

    A mask of another length than the region raises GroundMismatchError,
    and entries other than 0 or 1 raise ValueError.
    """
    _check_mask(region, len(region))
    _check_mask(mask, len(region))
    return _fill(mask, region, as_label(eta)) is None


def _fill(mask: Mask, region: Mask, eta: Label):
    """The word that agrees with ``mask`` on ``region`` and avoids eta, or None.

    One left-to-right pass of eta's greedy matcher, comparing bits by
    _avoid_step's rule inline.  Inside the region a position keeps its
    mask bit, and the matcher advances when that bit is the next bit of
    eta; outside it a position takes the other bit, so the matcher never
    advances there.  The matcher therefore completes, and the result is
    None, exactly when the region's own bits induce eta; otherwise it
    never completes on the word, so the word avoids eta.
    """
    word, matched, last = [], 0, len(eta) - 1
    for b, inside in zip(mask, region):
        want = eta[matched]
        if inside and b == want:
            if matched == last:
                return None
            matched += 1
            word.append(want)
        else:
            word.append(1 - want)
    return tuple(word)


def avoid_family(ground_size: int, eta: Label) -> SetSystem:
    """All subsets of the ground whose membership string avoids eta.

    The members are the words on which the greedy matcher never completes
    eta.
    """
    return _module("setsystem")._automaton_family(ground_size, 0, _avoid_step(as_label(eta)))


def _avoid_step(eta: Label):
    """Step of the greedy matcher whose words are those avoiding eta.

    The state is the length of the prefix of eta matched so far.
    """

    def step(matched: int, bit: int):
        if bit == eta[matched]:
            matched += 1
        return matched if matched < len(eta) else None

    return step


def is_characterized_by(system: SetSystem, eta: Label) -> bool:
    """True iff the family is exactly the eta-avoidance family on its ground.

    On a finite ground, "characterized" and "finitely characterized"
    coincide: the restriction of an avoidance family to any subset is the
    avoidance family of the smaller ground, so checking the full ground
    settles every finite restriction.

    The avoidance family of a k-bit label on m points has phi(k - 1, m)
    members (it is maximum of dimension k - 1), so a family of another
    size is not it, and nothing is built.  A family of that size is
    compared word by word with the kernel's blocks as they come, and the
    comparison stops at the first difference.  The ground is guarded as in
    avoid_family, before the count.  An object that is not a SetSystem
    raises ValueError, and a subclass's instance is compared with the
    built family by its own ``==``.
    """
    SetSystem = _module("setsystem").SetSystem
    _check_type(system, SetSystem, "family must be a SetSystem")
    m = system.ground_size
    eta = as_label(eta)
    if system.__class__ is not SetSystem:
        return system == avoid_family(m, eta)
    blocks = _automaton_blocks(m, 0, _avoid_step(eta))
    if len(system._ints) != phi_bound(len(eta) - 1, m):
        return False
    words = itertools.chain.from_iterable(blocks)
    return all(itertools.starmap(operator.eq, itertools.zip_longest(system._ints, words)))


def complement_label(eta: Label) -> Label:
    """Bitwise complement, same length."""
    return tuple(1 - b for b in as_label(eta))


def similar(first: SetSystem, second: SetSystem) -> bool:
    """Trace equality on every finite subset of a common ground.

    On a finite ground the full ground is itself one of the subsets and
    determines all the others, so this reduces to equality of the
    deduplicated families.  An object that is not a SetSystem raises
    ValueError.
    """
    SetSystem = _module("setsystem").SetSystem
    _check_type(first, SetSystem, "family must be a SetSystem")
    _check_type(second, SetSystem, "family must be a SetSystem")
    if first.ground_size != second.ground_size:
        raise GroundMismatchError(
            f"grounds differ: {first.ground_size} vs {second.ground_size}"
        )
    return first._ints == second._ints


def extend_avoiding(ground_size: int, region: Mask, partial: Mask, eta: Label) -> Mask:
    """Extend an eta-avoiding partial assignment to the whole ground.

    ``partial`` must be a subset of ``region`` that does not induce eta
    inside ``region``; otherwise PreconditionViolatedError is raised.  The
    result agrees with ``partial`` on ``region`` and does not induce eta
    anywhere on the ground: each point off the region takes the bit that
    eta's greedy matcher does not want next (see _fill).
    """
    eta = as_label(eta)
    _check_mask(region, ground_size)
    _check_mask(partial, ground_size)
    if any(p and not r for p, r in zip(partial, region)):
        raise ValueError("partial assignment must be contained in the region")
    word = _fill(partial, region, eta)
    if word is None:
        raise PreconditionViolatedError(
            "partial assignment already induces the pattern inside the region"
        )
    return word
