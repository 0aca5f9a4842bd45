"""Brute-force reference implementations used as independent test oracles.

Everything here works on explicit index tuples and full enumerations, on
purpose: no greedy matching, no bit tricks, no run counting.  Slow but
obviously correct on small inputs.  There are two exceptions, each a
construction the library used before a faster one replaced it, kept as a
second, independently derived answer to compare the new one with:
``extend_by_stripping``, the bit-stripping extension construction before
the one-pass fill, and ``fold_trace_counts``, the trace counts by folding
the whole 2^m-bit indicator before the compacting fold.  The helpers of
the tuple-mask family come last: ``mask_int``, ``zip_columns`` and
``tuple_blocks`` are the library's conversions and kernel from before a
family held its members as ints, kept to check the int paths against.
Last come ``expr_segments``, ``segments_label``, ``format_segments`` and
``realize_segments``, the walks over an expression's segments from before
an IntervalExpr held its label, and the scan realize_expr made of them
before it read the label cell by cell, kept to check the label paths
against.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator


def phi(d, n):
    return 2**n if n < d else sum(comb(n, i) for i in range(d + 1))


def induces(mask, eta):
    k = len(eta)
    return any(
        all(mask[pos[i]] == eta[i] for i in range(k))
        for pos in itertools.combinations(range(len(mask)), k)
    )


def induces_within(mask, region, eta):
    positions = [j for j, inside in enumerate(region) if inside]
    k = len(eta)
    return any(
        all(mask[pos[i]] == eta[i] for i in range(k))
        for pos in itertools.combinations(positions, k)
    )


def _witness_end(mask, region, eta):
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


def extend_by_stripping(m, region, partial, eta):
    """Extend an eta-avoiding ``partial`` inside ``region`` to the whole ground.

    The construction strips the pattern bit by bit: with eta = mu + (t,),
    if mu is not induced, go on with mu; otherwise locate the least witness
    end b of mu inside the region, build everything below b against mu,
    pin the last bit of mu at b, and fill the constant 1 - t above b.
    """
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


def avoid_members(m, eta):
    return {
        bits for bits in itertools.product((0, 1), repeat=m) if not induces(bits, eta)
    }


def trace_family(members, region_indices):
    return {tuple(mask[j] for j in region_indices) for mask in members}


def shatters(members, region_indices):
    return len(trace_family(members, region_indices)) == 2 ** len(region_indices)


def vc_dim(members, m):
    if not members:
        return -1
    best = 0
    for k in range(1, m + 1):
        for combo in itertools.combinations(range(m), k):
            if shatters(members, combo):
                best = max(best, k)
    return best


def is_maximum(members, m):
    d = vc_dim(members, m)
    for k in range(m + 1):
        for combo in itertools.combinations(range(m), k):
            if len(trace_family(members, combo)) != phi(d, k):
                return False
    return True


def is_maximal(members, m):
    d = vc_dim(members, m)
    members = {tuple(mask) for mask in members}
    for candidate in itertools.product((0, 1), repeat=m):
        if candidate in members:
            continue
        if vc_dim(members | {candidate}, m) == d:
            return False
    return True


def forbidden(members, region_indices):
    """The missing trace pattern, or None unless exactly one is missing."""
    traces = trace_family(members, region_indices)
    missing = [
        pattern
        for pattern in itertools.product((0, 1), repeat=len(region_indices))
        if pattern not in traces
    ]
    return missing[0] if len(missing) == 1 else None


def fold_trace_counts(indicator: int, m: int, low) -> list[int]:
    """Number of distinct traces on every subset a of the ground, indexed by a.

    Dropping coordinate j folds the indicator onto the positions whose bit
    j is clear: position v keeps a bit when v or v + 2^j did.  A
    depth-first walk from the full ground drops coordinates in increasing
    order, reaching every subset once with one fold each.
    """
    full = (1 << m) - 1
    counts = [0] * (1 << m)
    counts[full] = indicator.bit_count()
    stack = [(indicator, full, j) for j in range(m)]
    while stack:
        ind, a, j = stack.pop()
        nxt = (ind | ind >> (1 << j)) & low[j]
        b = a & ~(1 << j)
        counts[b] = nxt.bit_count()
        for i in range(j + 1, m):
            stack.append((nxt, b, i))
    return counts


def symbol_name(index):
    """Symbol names a, b, ..., z, aa, ab, ... in order (bijective base 26)."""
    if index < 0:
        raise ValueError("symbol index must be nonnegative")
    name = ""
    index += 1
    while index:
        index, digit = divmod(index - 1, 26)
        name = chr(ord("a") + digit) + name
    return name


def symbol_index(name):
    """Rank of a symbol name a, b, ..., z, aa, ab, ... (bijective base 26)."""
    if not name or any(not "a" <= ch <= "z" for ch in name):
        raise ValueError(f"bad symbol name {name!r}")
    value = 0
    for ch in name:
        value = value * 26 + (ord(ch) - ord("a") + 1)
    return value - 1


def alternation(mask):
    """Longest alternating subsequence by dynamic programming."""
    if not mask:
        return 0
    best = [1] * len(mask)
    for i in range(len(mask)):
        for j in range(i):
            if mask[j] != mask[i]:
                best[i] = max(best[i], best[j] + 1)
    return max(best)


def automaton_words(ground_size, start, step):
    """Words of length ``ground_size`` a deterministic automaton accepts.

    A recursive walk over the trie of accepted prefixes, calling ``step``
    at every node and trying bit 0 before bit 1.
    """
    words = []

    def walk(prefix, state):
        if len(prefix) == ground_size:
            words.append(prefix)
            return
        for bit in (0, 1):
            after = step(state, bit)
            if after is not None:
                walk(prefix + (bit,), after)

    walk((), start)
    return words


@dataclass(frozen=True)
class PositionGrid:
    """Finite stand-in for a dense order: ground element j at position 2*j.

    Single parameters range over the integers in [-1, 2m-1], one per order
    type.  Larger tuples are refined with extra integers past both ends and
    fractional points inside interior gaps, so that any number of
    parameters can share a region while staying strictly increasing.
    """

    ground_size: int

    def ground_position(self, j: int) -> int:
        if not 0 <= j < self.ground_size:
            raise ValueError(f"ground index {j} out of range")
        return 2 * j

    def ground_positions(self) -> tuple[int, ...]:
        return tuple(2 * j for j in range(self.ground_size))

    def base_candidates(self) -> tuple[int, ...]:
        """One integer candidate per single-parameter order type."""
        return tuple(range(-1, 2 * self.ground_size))

    def parameter_tuples(self, n: int) -> Iterator[tuple]:
        """All strictly increasing n-tuples, one per parameter order type.

        Regions are indexed by slots: even slots are the open regions
        (below, the gaps, above) and may hold several parameters; odd slots
        are the ground points themselves and hold at most one.
        """
        if n < 0:
            raise ValueError("tuple length must be nonnegative")
        m = self.ground_size
        if n == 0:
            yield ()
            return
        if m == 0:
            yield tuple(range(1, n + 1))
            return
        nslots = 2 * m + 1
        for combo in itertools.combinations_with_replacement(range(nslots), n):
            if any(
                slot % 2 == 1 and count > 1
                for slot, count in _slot_counts(combo)
            ):
                continue
            positions: list = []
            for slot, count in _slot_counts(combo):
                if slot % 2 == 1:
                    positions.append(2 * (slot // 2))
                elif slot == 0:
                    positions.extend(range(-count, 0))
                elif slot == nslots - 1:
                    positions.extend(2 * m - 2 + i for i in range(1, count + 1))
                elif count == 1:
                    positions.append(slot - 1)
                else:
                    left = slot - 2
                    positions.extend(
                        left + Fraction(2 * i, count + 1) for i in range(1, count + 1)
                    )
            yield tuple(positions)


def _slot_counts(combo):
    for slot, group in itertools.groupby(combo):
        yield slot, sum(1 for _ in group)


def xor_pair_members(traces, m_pairs):
    """Pair bits of traces on 2 * m_pairs points: bit k is 1 when the trace
    differs at points 2k and 2k + 1."""
    return {
        tuple(1 if trace[2 * k] != trace[2 * k + 1] else 0 for k in range(m_pairs))
        for trace in traces
    }


def sized_members(m, sizes):
    """Masks of the subsets of an m-point ground whose size is in ``sizes``."""
    return {
        tuple(1 if j in combo else 0 for j in range(m))
        for k in sizes
        for combo in itertools.combinations(range(m), k)
    }


def verify_pair_xor(pair_family, d, m_pairs):
    """The build-and-compare l2 check on an explicit pair-xor family: whether
    it is every set of at most d of the m_pairs pairs, its size, and the
    size of that expected family."""
    family = set(pair_family)
    expected = sized_members(m_pairs, range(d + 1))
    return family == expected, len(family), len(expected)


def value_repr(value):
    """The repr a frozen dataclass gives a value, built recursively:
    ``Name(field=repr, ...)`` over the fields in ``__match_args__``."""
    names = getattr(type(value), "__match_args__", None)
    if names is None:
        return repr(value)
    fields = ", ".join(f"{name}={value_repr(getattr(value, name))}" for name in names)
    return f"{type(value).__qualname__}({fields})"


def first_disagreement(accepts_a, accepts_b, longest):
    """Least word of the least length, up to ``longest`` bits, on which the
    two acceptance predicates differ; None if no such word is that short."""
    for length in range(longest + 1):
        for word in itertools.product((0, 1), repeat=length):
            if accepts_a(word) != accepts_b(word):
                return word
    return None


def _homogeneous_label(labels, indices, size):
    found = {labels[sub] for sub in itertools.combinations(indices, size)}
    return found.pop() if len(found) == 1 else None


def homogenize(members, m, d):
    """Largest subset of more than d points whose (d+1)-subsets all carry one
    forbidden label, as (mask, label): every mask of the ground in
    lexicographic order, keeping the first of the largest size.
    """
    labels = {
        combo: forbidden(members, combo)
        for combo in itertools.combinations(range(m), d + 1)
    }
    best = None
    for mask in itertools.product((0, 1), repeat=m):
        indices = tuple(j for j in range(m) if mask[j])
        if len(indices) <= d or (best and len(indices) <= sum(best[0])):
            continue
        label = _homogeneous_label(labels, indices, d + 1)
        if label is not None:
            best = (mask, label)
    return best


# --- the tuple-mask family, before members were held as ints --------------


def numeral(mask):
    """The mask's bits read as a base-2 numeral, point 0 the highest bit."""
    return int("".join(map(str, mask)) or "0", 2)


def mask_int(mask):
    """The int whose bit j is point j of the mask."""
    return sum(bit << j for j, bit in enumerate(mask))


def zip_columns(members):
    """Bit columns by transposing the tuples: bit i of column j is point j of
    member i, member 0 the highest bit."""
    return [int("".join(map(str, column)), 2) for column in zip(*members)]


def member_lines(members):
    """The member lines of the set-system file format, written from tuples."""
    return "".join("".join(map(str, mask)) + "\n" for mask in members)


def tuple_blocks(ground_size, start, step, block_words):
    """The kernel's walk over tuple words, as it stood before int words: the
    accepted words in lexicographic order, in lists each but the last of
    block_words or block_words + 1 words."""
    if not ground_size:
        yield [()]
        return
    words = []
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
            if len(words) >= block_words:
                yield words
                words = []
        else:
            if one is not None:
                stack.append((word + (1,), one))
            if zero is not None:
                stack.append((word + (0,), zero))
    if words:
        yield words


# --- interval expressions as segments, before an expression held its label --


def expr_segments(eta):
    """The segments of eta's point-interval expression, walked left to right.

    A segment is ("point", symbol) or ("interval", lower, upper, removed),
    with None for an unbounded end: a leading 0 opens a ray, each adjacent
    digit pair is one symbol (11 a point, 10 an interval start, 01 an
    interval end, 00 a removed point), and a trailing 0 closes a ray.
    """
    segments, lower, removed = [], None, []
    for sym, pair in enumerate(zip(eta, eta[1:])):
        if pair == (1, 1):
            segments.append(("point", sym))
        elif pair == (1, 0):
            lower, removed = sym, []
        elif pair == (0, 1):
            segments.append(("interval", lower, sym, tuple(removed)))
        else:
            removed.append(sym)
    if eta[-1] == 0:
        segments.append(("interval", lower, None, tuple(removed)))
    return segments


def segments_label(segments):
    """The label of expr_segments-style segments, by the inverse walk.

    The first digit is 0 for a leading ray and 1 otherwise; then each
    symbol adds the second digit of its pair: 1 for a point or an upper
    end, 0 for a lower end or a removed point.
    """
    first = segments[0] if segments else ("point", None)
    bits = [0 if first[0] == "interval" and first[1] is None else 1]
    for segment in segments:
        if segment[0] == "point":
            bits.append(1)
            continue
        _, lower, upper, removed = segment
        bits += [0] * ((lower is not None) + len(removed)) + [1] * (upper is not None)
    return tuple(bits)


def format_segments(segments, name):
    """The text of expr_segments-style segments, ``name`` naming each symbol."""
    parts = []
    for segment in segments:
        if segment[0] == "point":
            parts.append("{%s}" % name(segment[1]))
            continue
        _, lower, upper, removed = segment
        lo = "-inf" if lower is None else name(lower)
        hi = "inf" if upper is None else name(upper)
        parts.append(f"({lo},{hi})" + "".join("\\{%s}" % name(r) for r in removed))
    return " u ".join(parts) or "{}"


def realize_segments(segments, positions, ground_size):
    """Mask of expr_segments-style segments with symbol s at ``positions[s]``.

    Ground point j sits at 2*j, and is covered when some segment holds it:
    a point segment at its symbol's position, or an interval strictly
    between its ends (an unbounded end holds everything on its side) and
    on none of its removed points.
    """

    def covered(x):
        for segment in segments:
            if segment[0] == "point":
                if x == positions[segment[1]]:
                    return True
                continue
            _, lower, upper, removed = segment
            if lower is not None and not x > positions[lower]:
                continue
            if upper is not None and not x < positions[upper]:
                continue
            if any(x == positions[r] for r in removed):
                continue
            return True
        return False

    return tuple(1 if covered(2 * j) else 0 for j in range(ground_size))
