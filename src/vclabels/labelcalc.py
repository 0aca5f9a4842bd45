"""Forbidden-label calculus: pattern induction, avoidance families, extension.

A label is a nonempty bit string eta.  A set ``c`` induces eta when the
membership string of ``c`` contains eta as a (not necessarily contiguous)
subsequence; the family avoiding eta on a ground of size m is maximum of
dimension len(eta) - 1.
"""

from __future__ import annotations

from .setsystem import (
    GroundMismatchError,
    Label,
    Mask,
    SetSystem,
    _automaton_family,
    _check_mask,
)


class PreconditionViolatedError(ValueError):
    """The partial assignment already induces the pattern it must avoid."""


def as_label(value) -> Label:
    """Validate and normalize a label to a tuple of bits."""
    eta = tuple(value)
    if not eta or any(b not in (0, 1) for b in eta):
        raise ValueError(f"a label is a nonempty tuple of 0/1 bits, got {value!r}")
    return eta


def parse_label(text: str) -> Label:
    """Parse a label literal: a string over {0,1}, leftmost character = bit 0."""
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"a label literal is a nonempty string over 0/1, got {text!r}")
    return tuple(int(ch) for ch in text)


def format_label(eta: Label) -> str:
    return "".join(str(b) for b in as_label(eta))


def induces(mask: Mask, eta: Label) -> bool:
    """True iff the membership pattern eta appears along increasing positions.

    Greedy left-to-right matching; equivalent to subsequence containment of
    eta in the membership string.
    """
    return induces_within(mask, (1,) * len(mask), eta)


def induces_within(mask: Mask, region: Mask, eta: Label) -> bool:
    """Pattern induction using only positions inside ``region``.

    A mask of another length than the region raises GroundMismatchError,
    and entries other than 0 or 1 raise ValueError.
    """
    _check_mask(region, len(region))
    _check_mask(mask, len(region))
    return _witness_end(mask, region, as_label(eta)) is not None


def _witness_end(mask: Mask, region: Mask, eta: Label):
    """Least position at which a witness of eta inside ``region`` can end.

    Greedy matching finds the positionwise-earliest witness, so the returned
    end is minimal.  None when eta is not induced within the region.
    """
    j = 0
    for i, (b, inside) in enumerate(zip(mask, region)):
        if inside and b == eta[j]:
            j += 1
            if j == len(eta):
                return i
    return None


def avoid_family(ground_size: int, eta: Label) -> SetSystem:
    """All subsets of the ground whose membership string avoids eta.

    The members are the words on which the greedy matcher never completes
    eta.
    """
    return _automaton_family(ground_size, 0, _avoid_step(as_label(eta)))


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
    """
    return system == avoid_family(system.ground_size, as_label(eta))


def complement_label(eta: Label) -> Label:
    """Bitwise complement, same length."""
    return tuple(1 - b for b in as_label(eta))


def similar(first: SetSystem, second: SetSystem) -> bool:
    """Trace equality on every finite subset of a common ground.

    On a finite ground the full ground is itself one of the subsets and
    determines all the others, so this reduces to equality of the
    deduplicated families.
    """
    if first.ground_size != second.ground_size:
        raise GroundMismatchError(
            f"grounds differ: {first.ground_size} vs {second.ground_size}"
        )
    return first.members == second.members


def extend_avoiding(ground_size: int, region: Mask, partial: Mask, eta: Label) -> Mask:
    """Extend an eta-avoiding partial assignment to the whole ground.

    ``partial`` must be a subset of ``region`` that does not induce eta
    inside ``region``.  The result agrees with ``partial`` on ``region``
    and does not induce eta anywhere on the ground.

    The construction strips the pattern bit by bit: with eta = mu + (t,),
    if mu is not induced, go on with mu; otherwise locate the least witness
    end b of mu inside the region, build everything below b against mu,
    pin the last bit of mu at b, and fill the constant 1 - t above b.
    """
    eta = as_label(eta)
    _check_mask(region, ground_size)
    _check_mask(partial, ground_size)
    if any(p and not r for p, r in zip(partial, region)):
        raise ValueError("partial assignment must be contained in the region")
    if _witness_end(partial, region, eta) is not None:
        raise PreconditionViolatedError(
            "partial assignment already induces the pattern inside the region"
        )
    return _extend(ground_size, region, partial, eta)


def _extend(m: int, region: Mask, partial: Mask, eta: Label) -> Mask:
    levels = []
    while len(eta) > 1:
        eta, t = eta[:-1], eta[-1]
        end = _witness_end(partial, region, eta)
        if end is not None:
            levels.append((end, eta[-1], t))
            region = tuple(b if j < end else 0 for j, b in enumerate(region))
            partial = tuple(b if j < end else 0 for j, b in enumerate(partial))
    # Not inducing (0,) forces partial == region, so the full ground works;
    # not inducing (1,) forces partial empty, so the empty set works.
    result = [1 - eta[0]] * m
    for end, s, t in reversed(levels):
        result[end:] = [s] + [1 - t] * (m - end - 1)
    return tuple(result)
