import itertools
import math
import operator
import random
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

import bruteforce as bf
from vclabels import _classifier, _kernel, cli, harness, labelcalc, setsystem
from vclabels.labelcalc import avoid_family
from vclabels.orderformula import Top, ordered_trace_family
from vclabels.setsystem import (
    Classification,
    EmptyFamilyError,
    GroundMismatchError,
    NotLocallyMaximumError,
    SetSystem,
    SizeGuardError,
    alternation_number,
    classify,
    forbidden_label,
    forbidden_labels,
    mask_from_indices,
    mask_indices,
    phi_bound,
    shatters,
    trace,
    vc_dim,
)


def system(m, *index_sets):
    return SetSystem.from_index_sets(m, index_sets)


@st.composite
def small_systems(draw):
    m = draw(st.integers(1, 6))
    count = draw(st.integers(1, min(2**m, 12)))
    values = draw(
        st.sets(st.integers(0, 2**m - 1), min_size=1, max_size=count)
    )
    masks = [tuple((v >> j) & 1 for j in range(m)) for v in values]
    return SetSystem.from_masks(m, masks)


def _moved(sys_, order, flip):
    """The family with point j read from point order[j], flipped when flip[j]."""
    return SetSystem.from_masks(
        sys_.ground_size,
        (tuple(mask[i] ^ f for i, f in zip(order, flip)) for mask in sys_.members),
    )


@st.composite
def maximum_systems(draw):
    """Maximum families, from avoidance or size bounds, moved around the ground."""
    m = draw(st.integers(1, 8))
    if draw(st.booleans()):
        eta = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=4)))
        family = avoid_family(m, eta)
    else:
        family = SetSystem.size_at_most(m, draw(st.integers(0, m)))
    order = draw(st.permutations(range(m)))
    flip = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    return _moved(family, order, flip)


@st.composite
def swapped_systems(draw):
    """Sauer-sized families that fail the maximum test: a maximum family with
    one member swapped for an absent set, kept when the swap breaks it."""
    family = draw(maximum_systems().filter(lambda f: len(f.members) < 1 << f.ground_size))
    members = list(family.members)
    absent = sorted(set(itertools.product((0, 1), repeat=family.ground_size)) - set(members))
    members[draw(st.integers(0, len(members) - 1))] = draw(st.sampled_from(absent))
    swapped = SetSystem.from_masks(family.ground_size, members)
    assume(_classifier._maximum(swapped) is None)
    return swapped


# --- phi_bound ---------------------------------------------------------


def test_phi_bound_examples():
    assert phi_bound(2, 4) == 11
    assert phi_bound(3, 2) == 4
    assert phi_bound(0, 5) == 1


def test_phi_bound_matches_oracle():
    for d in range(6):
        for n in range(9):
            assert phi_bound(d, n) == bf.phi(d, n)


def test_phi_bound_matches_the_comb_sum_up_to_200_points():
    # The running product gives the same ints as the sum of math.comb terms.
    for n in range(201):
        sums = list(itertools.accumulate(math.comb(n, i) for i in range(n + 1)))
        assert [phi_bound(d, n) for d in range(n + 3)] == sums + [2**n] * 2


def test_phi_bound_refuses_a_point_count_above_its_cap(fastest):
    # phi_bound(n, n) summed n + 1 math.comb terms: 10.6 s at n = 10**4.
    cap = _kernel.PHI_POINT_CAP
    assert phi_bound(2, cap) == 1 + cap + cap * (cap - 1) // 2
    assert fastest(lambda: phi_bound(cap, cap) == 2**cap) < 1.0
    for d in (0, 2, cap + 1, cap + 2):
        with pytest.raises(SizeGuardError, match=f"^point count {cap + 1} exceeds cap {cap}$"):
            phi_bound(d, cap + 1)
    with pytest.raises(SizeGuardError, match=f"^point count {10**30} exceeds cap {cap}$"):
        phi_bound(10**30, 10**30)


def test_sauer_profile_is_phi_bound_at_every_size():
    for m in range(21):
        for d in range(m + 1):
            expected = tuple((k, phi_bound(d, k)) for k in range(m + 1))
            assert _classifier._sauer_profile(d, m) == expected


def test_phi_bound_rejects_negative():
    with pytest.raises(ValueError):
        phi_bound(-1, 3)
    with pytest.raises(ValueError):
        phi_bound(2, -1)


# --- trace / shatters --------------------------------------------------


def test_power_set_is_every_mask_under_the_kernel_s_guard():
    for m in range(13):
        expected = SetSystem(m, tuple(itertools.product((0, 1), repeat=m)))
        assert SetSystem.power_set(m) == expected
    with pytest.raises(ValueError, match="ground size must be nonnegative"):
        SetSystem.power_set(-1)
    with pytest.raises(SizeGuardError, match="family on ground 21 exceeds cap 20"):
        SetSystem.power_set(21)


def test_trace_of_power_set_is_power_set():
    got = trace(SetSystem.power_set(2), mask_from_indices(2, [0]))
    assert got == SetSystem.power_set(1)


def test_trace_deduplicates():
    got = trace(system(3, {0, 1}, {1, 2}), mask_from_indices(3, [1]))
    assert got.members == ((1,),)


def test_trace_of_bounded_family():
    got = trace(SetSystem.size_at_most(4, 2), mask_from_indices(4, [0, 1]))
    expected = bf.trace_family(SetSystem.size_at_most(4, 2).members, (0, 1))
    assert set(got.members) == expected
    assert got == SetSystem.power_set(2)


def test_trace_ground_mismatch():
    with pytest.raises(GroundMismatchError):
        trace(SetSystem.power_set(2), (1, 0, 0))


def test_shatters_examples():
    assert shatters(SetSystem.power_set(3), mask_from_indices(3, [0, 1, 2]))
    singles = system(4, set(), {0}, {1}, {2}, {3})
    assert not shatters(singles, mask_from_indices(4, [0, 1]))
    assert shatters(system(5, {1}), mask_from_indices(5, []))


@given(small_systems(), st.data())
def test_trace_chain_collapses(sys_, data):
    m = sys_.ground_size
    outer = tuple(data.draw(st.integers(0, 1)) for _ in range(m))
    inner = tuple(b and data.draw(st.integers(0, 1)) for b in outer)
    keep = mask_indices(outer)
    inner_relative = tuple(inner[j] for j in keep)
    assert trace(trace(sys_, outer), inner_relative) == trace(sys_, inner)


# --- vc_dim ------------------------------------------------------------


def test_vc_dim_examples():
    assert vc_dim(SetSystem.power_set(3)) == 3
    assert vc_dim(system(3, set())) == 0
    assert vc_dim(SetSystem.size_at_most(5, 2)) == 2
    assert vc_dim(SetSystem(4, ())) == -1


@given(small_systems())
def test_vc_dim_matches_oracle(sys_):
    assert vc_dim(sys_) == bf.vc_dim(set(sys_.members), sys_.ground_size)


def test_vc_dim_on_a_large_ground_stops_early():
    # 3 members cannot shatter 2 points, so no 2^24 scan is needed
    assert vc_dim(SetSystem.from_index_sets(24, [{0}, {1, 2}, set()])) == 1


def test_vc_dim_work_cap_raises_quickly_above_the_classify_cap():
    rng = random.Random(20)
    sys_ = SetSystem.from_masks(
        20, (tuple(rng.getrandbits(1) for _ in range(20)) for _ in range(3000))
    )
    start = time.perf_counter()
    # Over its work cap vc_dim hands the family to classify, whose maximum
    # test does not settle it, and no fold runs above ground 16.
    with pytest.raises(SizeGuardError, match="^classification on ground 20 exceeds cap 16$"):
        vc_dim(sys_)
    assert time.perf_counter() - start < 1.0


def test_vc_dim_work_cap_hands_small_grounds_to_classify():
    with mock.patch.object(_classifier, "classify", wraps=_classifier.classify) as spy:
        # 2^14 members are phi(14, 14): the Sauer floor settles the power set
        assert vc_dim(SetSystem.power_set(14)) == 14
        assert spy.call_count == 0
        # floor 5; C(16, 6) * phi(5, 16) pairs at size 6 is over the cap
        assert math.comb(16, 6) * phi_bound(5, 16) > _classifier.VC_DIM_WORK_CAP
        assert vc_dim(avoid_family(16, (1, 0, 1, 0, 1, 0))) == 5
        assert spy.call_count == 1


def test_vc_dim_hands_off_above_the_sauer_floor_without_columns():
    rng = random.Random(16)
    sys_ = SetSystem.from_masks(
        16, (tuple(rng.getrandbits(1) for _ in range(16)) for _ in range(20000))
    )
    with (
        mock.patch.object(_classifier, "classify", wraps=_classifier.classify) as handed,
        mock.patch.object(_classifier, "_columns", wraps=_classifier._columns) as built,
    ):
        d = vc_dim(sys_)
    assert handed.call_count == 1 and built.call_count == 0
    assert phi_bound(d, 16) >= len(sys_.members)  # at least the Sauer floor


@given(small_systems(), st.integers(0, 40))
def test_vc_dim_under_a_tiny_work_cap(sys_, cap):
    with mock.patch.object(_classifier, "VC_DIM_WORK_CAP", cap):
        assert vc_dim(sys_) == bf.vc_dim(set(sys_.members), sys_.ground_size)
        wide = SetSystem.from_index_sets(17, [{0}, {1, 2}, set(), {3}])
        if 17 * 4 > cap:
            with pytest.raises(SizeGuardError):
                vc_dim(wide)
        else:
            assert vc_dim(wide) == 1


def _permuted(sys_, rng):
    """The family under a random permutation of its ground."""
    order = list(range(sys_.ground_size))
    rng.shuffle(order)
    return SetSystem.from_masks(
        sys_.ground_size, (tuple(mask[j] for j in order) for mask in sys_.members)
    )


def _vc_dim_by_definition(sys_):
    """Largest size of a subset of the ground whose traces are all present,
    by a scan of every subset (bf.vc_dim does the same on index tuples)."""
    ints = sys_.member_ints
    if not ints:
        return -1
    return max(
        a.bit_count()
        for a in range(1 << sys_.ground_size)
        if len({v & a for v in ints}) == 1 << a.bit_count()
    )


def test_vc_dim_matches_a_full_scan_on_maximum_families_and_one_less():
    rng = random.Random(4409)
    cases = []
    for length in range(1, 6):
        for eta in itertools.product((0, 1), repeat=length):
            cases.extend(_permuted(avoid_family(m, eta), rng) for m in range(11))
    cases.extend(
        SetSystem.size_at_most(m, d) for m in range(11) for d in range(m + 1)
    )
    for sys_ in cases:
        drop = rng.randrange(len(sys_.members))
        less = SetSystem(sys_.ground_size, sys_.members[:drop] + sys_.members[drop + 1:])
        for family in (sys_, less):
            expected = _vc_dim_by_definition(family)
            assert vc_dim(family) == expected
            if family.ground_size <= 6:
                assert expected == bf.vc_dim(set(family.members), family.ground_size)


# --- classify -----------------------------------------------------------


def test_classify_bounded_family():
    result = classify(SetSystem.size_at_most(5, 2))
    assert result == Classification(
        2, True, True, ((0, 1), (1, 2), (2, 4), (3, 7), (4, 11), (5, 16))
    )


def test_classify_prefix_family():
    prefixes = system(4, set(), {0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3})
    result = classify(prefixes)
    assert (result.vc_dimension, result.is_maximum, result.is_maximal) == (1, True, True)


def test_classify_non_maximum():
    sys_ = system(3, set(), {0}, {1}, {0, 1})
    result = classify(sys_)
    assert (result.vc_dimension, result.is_maximum, result.is_maximal) == (2, False, False)
    # adding {2} keeps the dimension at 2
    grown = system(3, set(), {0}, {1}, {0, 1}, {2})
    assert classify(grown).vc_dimension == 2


def test_sized_families_refuse_a_negative_size():
    with pytest.raises(ValueError, match="^size bound must be nonnegative$"):
        SetSystem.size_at_most(3, -1)
    with pytest.raises(ValueError, match="^size must be nonnegative$"):
        SetSystem.size_exactly(3, -1)


def test_classify_rejects_empty_family():
    with pytest.raises(EmptyFamilyError):
        classify(SetSystem(3, ()))


def test_classify_ground_cap():
    # The maximum test settles one member at any ground; the cap bounds
    # only the fold that a family the test does not settle needs.
    assert classify(system(17, {0})) == Classification(
        0, True, True, tuple((k, 1) for k in range(18))
    )
    with pytest.raises(SizeGuardError, match="^classification on ground 17 exceeds cap 16$"):
        classify(system(17, {0}, {1}))


@given(small_systems())
def test_classify_matches_oracle(sys_):
    result = classify(sys_)
    members = set(sys_.members)
    m = sys_.ground_size
    assert result.vc_dimension == bf.vc_dim(members, m)
    assert result.is_maximum == bf.is_maximum(members, m)
    assert result.is_maximal == bf.is_maximal(members, m)
    if result.is_maximum:
        assert result.is_maximal


@given(small_systems())
def test_sauer_profile_matches_oracle(sys_):
    m = sys_.ground_size
    expected = tuple(
        (k, max(
            len(bf.trace_family(sys_.members, combo))
            for combo in itertools.combinations(range(m), k)
        ))
        for k in range(m + 1)
    )
    assert classify(sys_).sauer_profile == expected


def _values_family(m, values):
    return SetSystem.from_masks(
        m, [tuple((v >> j) & 1 for j in range(m)) for v in values]
    )


def _near_maximum_families():
    """Families one step from maximum, plus families grown until maximal."""
    # maximal but not maximum: 10 members of dimension 2, phi(2, 4) = 11
    yield system(
        4, set(), {0}, {1}, {0, 1}, {2}, {0, 2}, {0, 1, 2}, {1, 3}, {2, 3}, {0, 1, 2, 3}
    )
    rng = random.Random(6407)
    for m in range(2, 8):
        for eta in [(1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0, 0)]:
            members = avoid_family(m, eta).members
            drop = rng.randrange(len(members))
            yield SetSystem(m, members[:drop] + members[drop + 1:])
            absent = sorted(set(SetSystem.power_set(m).members) - set(members))
            if absent:
                yield SetSystem.from_masks(m, members + (rng.choice(absent),))
        for d in (1, 2, 3):
            yield _values_family(m, rng.sample(range(2**m), phi_bound(d, m)))
        for start in (3, 5, 6) if m <= 6 else ():
            values = set(rng.sample(range(2**m), min(start, 2**m)))
            d = vc_dim(_values_family(m, values))
            order = list(range(2**m))
            rng.shuffle(order)
            for c in order:
                if c not in values and vc_dim(_values_family(m, values | {c})) == d:
                    values.add(c)
            yield _values_family(m, values)


def test_classify_near_maximum_matches_oracle():
    verdicts = set()
    for sys_ in _near_maximum_families():
        result = classify(sys_)
        members, m = set(sys_.members), sys_.ground_size
        assert result.vc_dimension == bf.vc_dim(members, m)
        assert result.is_maximum == bf.is_maximum(members, m)
        assert result.is_maximal == bf.is_maximal(members, m)
        verdicts.add((result.is_maximum, result.is_maximal))
    # every case the maximality cover decides occurs
    assert verdicts == {(True, True), (False, True), (False, False)}


def reference_classify(sys_):
    """Classification by its definition: a trace set per subset of the
    ground, and a scan of every absent set for maximality."""
    m = sys_.ground_size
    ints = sys_.member_ints
    counts = [len({v & a for v in ints}) for a in range(1 << m)]
    d = max(a.bit_count() for a in range(1 << m) if counts[a] == 1 << a.bit_count())
    best_by_size = [0] * (m + 1)
    for a in range(1 << m):
        k = a.bit_count()
        best_by_size[k] = max(best_by_size[k], counts[a])
    is_maximum = all(
        counts[a] == phi_bound(d, a.bit_count()) for a in range(1 << m)
    )
    if d >= m:
        is_maximal = True
    else:
        slots = []
        for combo in itertools.combinations(range(m), d + 1):
            a = sum(1 << j for j in combo)
            present = {v & a for v in ints}
            if len(present) == (1 << (d + 1)) - 1:
                patterns = (
                    sum(1 << j for j, bit in zip(combo, bits) if bit)
                    for bits in itertools.product((0, 1), repeat=d + 1)
                )
                slots.append((a, next(p for p in patterns if p not in present)))
        member_set = set(ints)
        is_maximal = all(
            any(c & a == miss for a, miss in slots)
            for c in range(1 << m)
            if c not in member_set
        )
    profile = tuple((k, best_by_size[k]) for k in range(m + 1))
    return Classification(d, is_maximum, is_maximal, profile)


def test_classify_matches_reference_on_larger_grounds():
    rng = random.Random(9021)
    verdicts = set()
    for m in range(8, 12):
        full = avoid_family(m, (1, 0, 1))
        ints = set(full.member_ints)
        extra = rng.choice([v for v in range(2**m) if v not in ints])
        cases = [
            full,
            SetSystem(m, full.members[1:]),
            _values_family(m, ints | {extra}),
        ]
        for _ in range(3):
            size = rng.choice([3, 12, 40, phi_bound(2, m)])
            cases.append(_values_family(m, rng.sample(range(2**m), size)))
        for sys_ in cases:
            result = classify(sys_)
            assert result == reference_classify(sys_)
            verdicts.add((result.is_maximum, result.is_maximal))
    assert (True, True) in verdicts and (False, False) in verdicts


def _closed_form(d, m):
    """Classification of a maximum family of dimension d on m points."""
    profile = tuple((k, bf.phi(d, k)) for k in range(m + 1))
    return Classification(d, True, True, profile)


def test_maximum_families_skip_the_fold(monkeypatch):
    def no_fold(*args):
        raise AssertionError("a maximum family reached the fold path")

    monkeypatch.setattr(_classifier, "_trace_counts", no_fold)
    cases = []
    for length in range(1, 5):
        for eta in itertools.product((0, 1), repeat=length):
            for m in (0, 1, length, 7, 12, 16):
                cases.append((avoid_family(m, eta), min(length - 1, m)))
    order = list(range(16))
    random.Random(3187).shuffle(order)
    full = avoid_family(16, (1, 0, 1, 0))
    permuted = (tuple(mask[j] for j in order) for mask in full.members)
    cases.append((SetSystem.from_masks(16, permuted), 3))
    for m in (0, 1, 6, 16):
        cases.append((SetSystem.power_set(m), m))
    for m, d in [(5, 2), (9, 3), (14, 1), (16, 4)]:
        cases.append((SetSystem.size_at_most(m, d), d))
    for m in (1, 9, 16):
        cases.append((system(m, {0}), 0))
    cases.append((SetSystem(0, ((),)), 0))
    for sys_, d in cases:
        assert classify(sys_) == _closed_form(d, sys_.ground_size)


def test_maximum_families_the_search_declines_take_the_fold(monkeypatch):
    calls = []
    fold = _classifier._trace_counts

    def counted_fold(*args):
        calls.append(args)
        return fold(*args)

    monkeypatch.setattr(_classifier, "_trace_counts", counted_fold)
    rng = random.Random(7121)
    cases = [(SetSystem.size_at_most(m, 5), 5) for m in (10, 12)]
    for eta in itertools.product((0, 1), repeat=6):
        cases.append((_permuted(avoid_family(12, eta), rng), 5))
    for sys_, d in cases:
        calls.clear()
        result = classify(sys_)
        assert calls, "the shatter search settled a family it should decline"
        assert result == _closed_form(d, sys_.ground_size)
        if sys_.ground_size <= 10:
            assert result == reference_classify(sys_)


def _swapped(sys_, rng):
    """The family with one member swapped for an absent set."""
    m, members = sys_.ground_size, list(sys_.member_ints)
    absent = sorted(set(range(2**m)) - set(members))
    members[rng.randrange(len(members))] = rng.choice(absent)
    return _values_family(m, members)


def test_non_maximum_families_near_the_sauer_size_take_the_fold(monkeypatch):
    calls = []
    fold = _classifier._trace_counts

    def counted_fold(*args):
        calls.append(args)
        return fold(*args)

    monkeypatch.setattr(_classifier, "_trace_counts", counted_fold)
    rng = random.Random(5303)
    cases = []
    for m in range(8, 15):
        for eta in [(0, 1), (1, 0, 1), (1, 1, 0)]:
            full = avoid_family(m, eta)
            # the same size as a maximum family, and one member short of it
            cases.append(_swapped(full, rng))
            cases.append(SetSystem(m, full.members[1:]))
    cases.append(next(_near_maximum_families()))  # maximal, phi(2, 4) - 1 members
    for m in range(1, 9):
        for d in range(m + 1):
            for _ in range(2):
                sample = rng.sample(range(2**m), phi_bound(d, m))
                cases.append(_values_family(m, sample))
    verdicts = set()
    for sys_ in cases:
        calls.clear()
        setsystem._classify_ints.cache_clear()  # a random case may repeat
        result = classify(sys_)
        assert result == reference_classify(sys_)
        members, m = set(sys_.members), sys_.ground_size
        if m <= 7:
            assert result.vc_dimension == bf.vc_dim(members, m)
            assert result.is_maximum == bf.is_maximum(members, m)
        if m <= 6:
            assert result.is_maximal == bf.is_maximal(members, m)
        if not result.is_maximum:
            assert calls
        verdicts.add((result.is_maximum, result.is_maximal))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_classify_at_the_ground_cap_within_budget(fastest):
    full = avoid_family(16, (1, 0, 1, 0))
    for sys_, maximum in [(full, True), (SetSystem(16, full.members[1:]), False)]:
        start = time.perf_counter()
        result = classify(sys_)
        elapsed = time.perf_counter() - start
        verdict = (result.vc_dimension, result.is_maximum, result.is_maximal)
        assert verdict == (3, maximum, maximum)
        assert elapsed < 3.0, (
            f"classify of {len(sys_.members)} members at ground 16 took {elapsed:.2f}s"
        )
    # Less one member, a maximum family of dimension 3 keeps its dimension
    # and phi(3, k) traces on some k-subset for every k < m, has one trace
    # fewer on the whole ground, and the removed member can join again.
    for m in (8, 10, 12, 16):
        sys_ = SetSystem(m, avoid_family(m, (1, 0, 1, 0)).members[1:])
        profile = tuple((k, bf.phi(3, k) - (k == m)) for k in range(m + 1))
        expected = Classification(3, False, False, profile)
        assert classify(sys_) == expected
        if m <= 10:
            assert reference_classify(sys_) == expected
    assert fastest(lambda: classify(sys_)) < 0.4


def _fold_cases():
    """Random families with m <= 10, and avoidance families at grounds 12-16
    with one member removed or swapped for an absent set; then, where the
    fold cuts no byte (m <= 6) or makes its first cuts (m 7-8: the 8-byte
    cast, then one join), sparse random families and avoidance families
    with one member removed or swapped."""
    rng = random.Random(2003)
    for m in range(11):
        for _ in range(4 if m < 10 else 2):
            size = rng.randint(1, 2**m)
            yield _values_family(m, rng.sample(range(2**m), size))
    labels = [(1, 0, 1, 0), (1, 1, 0), (0, 1), (1, 0, 1, 1)]
    for m, eta in zip(range(12, 17), itertools.cycle(labels)):
        full = avoid_family(m, eta)
        yield SetSystem(m, full.members[:-1])
        yield _swapped(full, rng)
    for m in range(9):
        yield _values_family(m, rng.sample(range(2**m), rng.randint(1, min(2**m, 3 * m + 1))))
        for eta in labels:
            full = avoid_family(m, eta)
            yield SetSystem(m, full.members[:-1])
            if len(full.members) < 2**m:
                yield _swapped(full, rng)


def test_compacting_fold_matches_the_full_fold():
    checked = 0
    for sys_ in _fold_cases():
        m = sys_.ground_size
        indicator = _classifier._indicator(sys_.member_ints, m)
        low = _classifier._low_halves(m)
        best, shorts = _classifier._trace_counts(indicator, m, low)
        counts = bf.fold_trace_counts(indicator, m, low)
        maxima = [0] * (m + 1)
        one_short = [set() for _ in range(m + 1)]
        for b, count in enumerate(counts):
            k = b.bit_count()
            maxima[k] = max(maxima[k], count)
            if count == (1 << k) - 1:
                one_short[k].add(b)
        assert best == maxima
        assert [set(folds) for folds in shorts] == one_short
        if sys_.members and _classifier._maximum(sys_) is None:
            assert classify(sys_).sauer_profile == tuple(enumerate(maxima))
        # Every one-short node at m <= 12, a sample of them above.
        folded = {b: x for folds in shorts for b, x in folds.items()}
        rng = random.Random(m)
        picked = sorted(folded) if m <= 12 else rng.sample(sorted(folded), 40)
        for b in picked:
            indices = [j for j in range(m) if b >> j & 1]
            pairs = _classifier._missing_trace(b, folded[b], m, low)
            assert [j for j, _ in pairs] == indices
            assert tuple(bit for _, bit in pairs) == bf.forbidden(sys_.members, indices)
            checked += 1
    assert checked > 1000


def test_sauer_randomized_profiles():
    rng = random.Random(424)
    for _ in range(150):
        m = rng.randint(1, 7)
        values = rng.sample(range(2**m), rng.randint(1, min(2**m, 20)))
        sys_ = SetSystem.from_masks(
            m, [tuple((v >> j) & 1 for j in range(m)) for v in values]
        )
        result = classify(sys_)
        for k, count in result.sauer_profile:
            assert count <= phi_bound(result.vc_dimension, k)


# --- forbidden_label ----------------------------------------------------


def test_forbidden_label_of_bounded_family_is_all_ones():
    sys_ = SetSystem.size_at_most(6, 2)
    for combo in itertools.combinations(range(6), 3):
        assert forbidden_label(sys_, mask_from_indices(6, combo)) == (1, 1, 1)


def test_forbidden_label_prefixes():
    prefixes = system(4, set(), {0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3})
    assert forbidden_label(prefixes, mask_from_indices(4, [1, 3])) == (0, 1)


def test_forbidden_label_not_locally_maximum():
    with pytest.raises(NotLocallyMaximumError):
        forbidden_label(system(2, set()), mask_from_indices(2, [0, 1]))
    # a shattered subset misses nothing
    with pytest.raises(NotLocallyMaximumError):
        forbidden_label(SetSystem.power_set(3), mask_from_indices(3, [0, 1]))


@given(small_systems(), st.data())
def test_forbidden_label_matches_oracle(sys_, data):
    m = sys_.ground_size
    k = data.draw(st.integers(1, m))
    combo = tuple(sorted(data.draw(
        st.sets(st.integers(0, m - 1), min_size=k, max_size=k)
    )))
    expected = bf.forbidden(sys_.members, combo)
    region = mask_from_indices(m, combo)
    if expected is None:
        with pytest.raises(NotLocallyMaximumError):
            forbidden_label(sys_, region)
    else:
        assert forbidden_label(sys_, region) == expected


def test_forbidden_labels_rejects_a_negative_size():
    with pytest.raises(ValueError, match="^subset size must be nonnegative$"):
        forbidden_labels(SetSystem.power_set(3), -1)


_empty_systems = st.integers(0, 6).map(lambda m: SetSystem(m, ()))


@given(
    st.one_of(small_systems(), maximum_systems(), swapped_systems(), _empty_systems),
    st.data(),
)
def test_forbidden_labels_match_oracle(sys_, data):
    m = sys_.ground_size
    # Half the draws take the one size the maximum test is asked about.
    d, _ = _classifier._sauer_floor(len(sys_.members), m)
    k = data.draw(st.one_of(st.just(d + 1), st.integers(0, m + 1)))
    got = forbidden_labels(sys_, k)
    assert list(got) == list(itertools.combinations(range(m), k))
    for combo, label in got.items():
        assert label == bf.forbidden(sys_.members, combo)


def _moved_label(eta, combo, order, flip):
    """The forbidden label on ``combo`` after _moved, of a family that misses
    ``eta`` on every set of len(eta) points: the bits of ``eta`` go to the
    combo's points in the order of the points they are read from, each
    flipped where its point is."""
    sources = [order[j] for j in combo]
    ranks = sorted(sources)
    return tuple(eta[ranks.index(i)] ^ flip[j] for i, j in zip(sources, combo))


def _maximum_cases():
    """(family, label it misses on every set of that many points, order, flip)."""
    rng = random.Random(8123)
    for length in range(1, 6):
        for eta in itertools.product((0, 1), repeat=length):
            for m in range(13):
                family = avoid_family(m, eta)
                yield family, eta, list(range(m)), [0] * m
                order = list(range(m))
                rng.shuffle(order)
                flip = [rng.randrange(2) for _ in range(m)]
                yield _moved(family, order, flip), eta, order, flip
    for m in range(11):
        for d in range(m + 1):
            yield SetSystem.size_at_most(m, d), (1,) * (d + 1), list(range(m)), [0] * m


@pytest.fixture
def folds(monkeypatch):
    """The arguments of every _trace_counts call, as the test runs."""
    calls = []
    fold = _classifier._trace_counts

    def counted_fold(*args):
        calls.append(args)
        return fold(*args)

    monkeypatch.setattr(_classifier, "_trace_counts", counted_fold)
    return calls


@pytest.fixture
def recorded(monkeypatch):
    """The ``labels`` argument of every _shatters_some call, as the test runs."""
    calls = []
    search = _classifier._shatters_some

    def spy(columns, count, size, labels=None):
        calls.append(labels)
        return search(columns, count, size, labels)

    monkeypatch.setattr(_classifier, "_shatters_some", spy)
    return calls


def test_forbidden_labels_read_off_the_search_match_oracle(folds):
    walked = varied = 0
    for sys_, eta, order, flip in _maximum_cases():
        m, size = sys_.ground_size, len(eta)
        if size > m:
            continue
        folds.clear()
        got = forbidden_labels(sys_, size)
        combos = list(itertools.combinations(range(m), size))
        expected = {combo: _moved_label(eta, combo, order, flip) for combo in combos}
        assert list(got.items()) == list(expected.items())
        checked = combos if m <= 8 else [combos[0], combos[-1]]
        for combo in checked:
            assert got[combo] == bf.forbidden(sys_.members, combo)
        if (hit := _classifier._maximum(sys_)) and hit[0].vc_dimension == size - 1:
            assert not folds, "a search-settled family was folded"
            walked += 1
            varied += len(set(got.values())) > 1
    # Every avoidance case (1,096) walks, and the 40 bounded-size families
    # under the search budget; 483 of the 548 moved ones vary in label.
    assert walked == 1136
    assert varied > 400


def test_forbidden_labels_scans_what_the_search_does_not_settle(recorded, folds, fastest):
    cases = [
        (SetSystem(3, ()), range(5)),
        (SetSystem(0, ()), [0, 1]),
        (SetSystem(0, ((),)), [0, 1]),
        (avoid_family(5, (1, 0, 1)), [0, 1, 2, 4, 5, 6]),
        (SetSystem.power_set(4), range(6)),
        (SetSystem.size_at_most(5, 2), [0, 6]),
        # above the classify cap, a size with no subsets is answered unfolded
        (SetSystem.from_index_sets(17, [[0], [1]]), [18]),
    ]
    for sys_, sizes in cases:
        m = sys_.ground_size
        for size in sizes:
            recorded.clear()
            folds.clear()
            got = forbidden_labels(sys_, size)
            assert all(labels is None for labels in recorded)
            # A size above m has no subsets, so neither searches nor folds.
            settled = (hit := _classifier._maximum(sys_)) and hit[0].vc_dimension == size - 1
            assert len(folds) == (not settled and size <= m)
            combos = list(itertools.combinations(range(m), size))
            assert list(got) == combos
            for combo in combos:
                assert got[combo] == bf.forbidden(sys_.members, combo)
    # phi(1, 3) members that shatter {0, 2} but not {0, 1}: the search with
    # the dict fails after writing a label, and the fold answers every
    # subset afresh.
    sys_ = system(3, set(), {0}, {2}, {0, 2})
    recorded.clear()
    folds.clear()
    got = forbidden_labels(sys_, 2)
    assert len(folds) == 1
    assert got is not recorded[0] and recorded[0][(0, 1)] is not None
    combos = list(itertools.combinations(range(3), 2))
    assert got == {combo: bf.forbidden(sys_.members, combo) for combo in combos}
    assert got == {(0, 1): None, (0, 2): None, (1, 2): None}
    # Above the classify cap a family the search does not settle is refused
    # before any fold, and at the cap the fold answers a maximum family over
    # the search budget at once.
    full = avoid_family(17, (1, 0, 1, 0))
    folds.clear()
    with pytest.raises(SizeGuardError, match="^classification on ground 17 exceeds cap 16$"):
        forbidden_labels(SetSystem(17, full.members[1:]), 4)
    assert folds == []
    bounded = SetSystem.size_at_most(14, 7)
    assert set(forbidden_labels(bounded, 8).values()) == {(1,) * 8}
    assert fastest(lambda: forbidden_labels(bounded, 8)) < 0.5


def test_forbidden_labels_ask_the_maximum_test_once(recorded, tmp_path, capsys):
    forbidden_labels(avoid_family(20, (1, 0, 1, 0, 1)), 5)
    assert len(recorded) == 1
    family = avoid_family(14, (1, 0, 1, 0))
    for size in (3, 5):
        recorded.clear()
        forbidden_labels(family, size)
        assert recorded == []
    # CLI labels and homogenize ask once too, with the dict.
    path = tmp_path / "avoid.txt"
    path.write_text(family.to_text(), encoding="utf-8")
    for command in ("labels", "homogenize"):
        recorded.clear()
        assert cli.main([command, "--in", str(path)]) == 0
        assert len(recorded) == 1
        assert recorded[0] is not None
    capsys.readouterr()


def test_forbidden_labels_of_a_settled_family_scan_nothing(folds):
    eta = (1, 0, 1, 0, 1)
    got = forbidden_labels(avoid_family(20, eta), 5)
    assert folds == []
    assert len(got) == math.comb(20, 5)
    assert set(got.values()) == {eta}

    full = avoid_family(14, (1, 0, 1, 0))
    less = SetSystem(14, full.members[:5] + full.members[6:])
    got = forbidden_labels(less, 4)
    assert len(folds) == 1
    combos = list(got)
    for combo in [combos[0], combos[-1], *random.Random(61).sample(combos, 10)]:
        assert got[combo] == bf.forbidden(less.members, combo)


def test_classify_and_vc_dim_record_no_labels(recorded):
    full = avoid_family(12, (1, 0, 1))
    families = [full, SetSystem(12, full.members[1:]), SetSystem.size_at_most(9, 2)]
    for sys_ in families:
        classify(sys_)
        vc_dim(sys_)
    assert recorded
    assert all(labels is None for labels in recorded)


def _swapped_family():
    """phi(3, 10) members, not maximum: one member of a maximum family
    swapped for an absent set."""
    full = avoid_family(10, (1, 0, 1, 0))
    absent = next(v for v in range(1 << 10) if v not in set(full._ints))
    return SetSystem._of_ints(10, tuple(sorted(full._ints[1:] + (absent,))))


@pytest.mark.parametrize(
    "family, searches, folds_made",
    [
        (lambda: avoid_family(12, (1, 0, 1, 0)), 1, 0),  # settled by the search
        (lambda: SetSystem.size_at_most(12, 6), 0, 1),  # maximum, over the budget
        (_swapped_family, 1, 1),  # the search fails, and the fold answers
    ],
    ids=["settled", "over-budget", "swapped"],
)
def test_labels_and_homogenize_run_one_search_or_fold(
    family, searches, folds_made, recorded, folds, tmp_path, capsys
):
    sys_ = family()
    path = tmp_path / "family.txt"
    path.write_text(sys_.to_text(), encoding="utf-8")
    maximum = classify(sys_).is_maximum
    assert maximum == (family is not _swapped_family)
    calls = [
        lambda: cli.main(["labels", "--in", str(path)]),
        lambda: cli.main(["homogenize", "--in", str(path)]),
        lambda: harness.ramsey_homogenize(sys_),
    ]
    for call in calls:
        recorded.clear()
        folds.clear()
        if maximum or call is calls[0]:
            call()
        elif call is calls[1]:
            assert call() == 2
        else:
            with pytest.raises(harness.NotMaximumError):
                call()
        assert (len(recorded), len(folds)) == (searches, folds_made)
        assert all(labels is not None for labels in recorded)
    capsys.readouterr()
    # classify alone keeps its plain search, once the memo no longer
    # holds the answer of the first call.
    recorded.clear()
    setsystem._classify_ints.cache_clear()
    classify(sys_)
    assert recorded == [None] * searches


def _search_columns(sys_):
    return _classifier._columns(sys_._ints, sys_.ground_size)


@given(st.integers(0, 9).flatmap(
    lambda m: st.tuples(st.just(m), st.sets(st.integers(0, (1 << m) - 1), min_size=1, max_size=48))
))
def test_shatters_some_matches_oracle(case):
    m, ints = case
    sys_ = SetSystem._of_ints(m, tuple(sorted(ints)))
    columns, count = _search_columns(sys_), len(ints)
    for size in range(1, m + 1):
        combos = itertools.combinations(range(m), size)
        expected = any(bf.shatters(sys_.members, combo) for combo in combos)
        assert _classifier._shatters_some(columns, count, size) == expected


def test_shatters_some_records_the_labels_of_moved_avoidance_families():
    checked = 0
    for sys_, eta, order, flip in _maximum_cases():
        m, size = sys_.ground_size, len(eta)
        if size > m or m > 9 or order == sorted(order):
            continue
        labels = {}
        columns = _search_columns(sys_)
        assert not _classifier._shatters_some(columns, len(sys_._ints), size, labels)
        combos = list(itertools.combinations(range(m), size))
        assert sorted(labels) == combos
        for combo in combos:
            assert labels[combo] == bf.forbidden(sys_.members, combo)
        checked += 1
    assert checked > 300


# Each family is given by its members' (point 0, point 1, point 2) bits, and
# searched at size 2 with its labels.  Point 0 splits the root into the
# cells A (point 0 in) and B; point 1 is tested first, then point 2, which
# first tries the cell that stopped point 1.
@pytest.mark.parametrize(
    "members, shattered, labels",
    [
        # B stops point 1 and point 2 alike: the remembered cell is unsplit.
        ("100 111 000", False, {(0, 1): (0, 1), (0, 2): (0, 1), (1, 2): (1, 0)}),
        # A stops point 1, splits by point 2, and B, after it, does not.
        ("100 101 000 010", False, {(0, 1): (1, 1), (0, 2): (0, 1), (1, 2): (1, 1)}),
        # B stops point 1, splits by point 2, and A does not.
        ("100 110 000 001", False, {(0, 1): (0, 1), (0, 2): (1, 1), (1, 2): (1, 1)}),
        # A stops point 1, and every cell splits by point 2.
        ("100 101 000 001", True, None),
    ],
    ids=["remembered-unsplit", "later-cell-unsplit", "earlier-cell-unsplit", "all-split"],
)
def test_shatters_some_last_level_cases(members, shattered, labels):
    sys_ = SetSystem.from_masks(3, [tuple(map(int, bits)) for bits in members.split()])
    got = {}
    assert _classifier._shatters_some(_search_columns(sys_), len(sys_._ints), 2, got) == shattered
    if not shattered:
        assert got == labels
        for combo, label in labels.items():  # each a trace no member shows
            assert label not in bf.trace_family(sys_.members, combo)


def test_shatters_some_of_one_member_at_size_one():
    sys_ = SetSystem.from_masks(4, [(1, 0, 1, 1)])
    labels = {}
    assert not _classifier._shatters_some(_search_columns(sys_), 1, 1, labels)
    assert labels == {(0,): (0,), (1,): (1,), (2,): (0,), (3,): (0,)}
    assert _classifier._maximum(sys_)[0].vc_dimension == 0
    assert forbidden_labels(sys_, 1) == labels


# --- alternation_number -------------------------------------------------


def test_alternation_examples():
    assert alternation_number(mask_from_indices(5, [])) == 1
    assert alternation_number(mask_from_indices(3, [1])) == 3
    assert alternation_number(mask_from_indices(5, [1, 3])) == 5
    assert alternation_number(()) == 0


def test_alternation_matches_oracle_exhaustively():
    for m in range(7):
        for mask in itertools.product((0, 1), repeat=m):
            assert alternation_number(mask) == bf.alternation(mask)


# --- file format ---------------------------------------------------------


def test_text_round_trip():
    sys_ = SetSystem.size_at_most(4, 2)
    assert SetSystem.from_text(sys_.to_text()) == sys_


def test_text_round_trip_on_ground_zero():
    # The one member on ground 0 is written as a blank line after the header.
    assert SetSystem.power_set(0).to_text() == "ground 0\n\n"
    for family in (SetSystem(0, ()), SetSystem.power_set(0)):
        assert SetSystem.from_text(family.to_text()) == family
    # Blank lines before the header, comment lines and blank lines on other
    # grounds are still skipped.
    assert SetSystem.from_text("\n# c\nground 0\n# c\n").members == ()
    assert SetSystem.from_text("\nground 0\n# c\n\n\n").members == ((),)
    assert SetSystem.from_text("ground 1\n\n1\n\n").members == ((1,),)


def test_from_text_comments_blank_lines_duplicates():
    text = "# header\n\nground 3\n010\n# mid\n010\n111\n"
    sys_ = SetSystem.from_text(text)
    assert sys_.members == ((0, 1, 0), (1, 1, 1))


def test_from_text_errors():
    with pytest.raises(ValueError, match="ground"):
        SetSystem.from_text("010\n")
    with pytest.raises(ValueError, match="line 2"):
        SetSystem.from_text("ground 3\n01\n")
    with pytest.raises(ValueError, match="line 2"):
        SetSystem.from_text("ground 2\n02\n")
    with pytest.raises(ValueError, match="header"):
        SetSystem.from_text("# nothing\n")
    with pytest.raises(ValueError, match="line 1: expected 'ground <m>'"):
        SetSystem.from_text("ground \u00b2\n")
    with pytest.raises(ValueError, match="line 2: expected 'ground <m>'"):
        SetSystem.from_text("#\nground " + "1" * 5000 + "\n")


@pytest.mark.parametrize("text", [b"ground 1\n1\n", None, ["ground 1", "1"]])
def test_from_text_refuses_what_is_not_a_str(text):
    # bytes used to raise a stray TypeError from str.startswith, and the
    # others an AttributeError from splitlines.
    with pytest.raises(ValueError, match="^set-system text must be a str, got "):
        SetSystem.from_text(text)


NOT_A_FAMILY = "family must be a SetSystem, got NoneType"


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: setsystem.classify(None), NOT_A_FAMILY),
        (lambda: setsystem.vc_dim(None), NOT_A_FAMILY),
        (lambda: setsystem.forbidden_labels(None, 1), NOT_A_FAMILY),
        (lambda: harness.ramsey_homogenize(None), NOT_A_FAMILY),
        (lambda: labelcalc.is_characterized_by(None, (1, 0)), NOT_A_FAMILY),
        (lambda: setsystem.classify([(0,)]), "family must be a SetSystem, got list"),
        (lambda: SetSystem(2, None), "members must be an iterable, got NoneType"),
        (lambda: SetSystem(2, 5), "members must be an iterable, got int"),
        (lambda: SetSystem.from_masks(2, None), "masks must be an iterable, got NoneType"),
        (lambda: SetSystem.from_masks(2, [None]), "a mask must be a sequence of bits, got NoneType"),
        (lambda: SetSystem.from_masks(2, [(0, 1), 5]), "a mask must be a sequence of bits, got int"),
        (lambda: setsystem.forbidden_label(None, (1,)), NOT_A_FAMILY),
        (lambda: trace(None, (1,)), NOT_A_FAMILY),
        (lambda: setsystem.shatters(None, (1,)), NOT_A_FAMILY),
        (lambda: labelcalc.similar(None, None), NOT_A_FAMILY),
    ],
    ids=[
        "classify", "vc_dim", "forbidden_labels", "ramsey_homogenize",
        "is_characterized_by", "classify-list", "SetSystem", "SetSystem-int", "from_masks",
        "from_masks-None-mask", "from_masks-int-mask",
        "forbidden_label", "trace", "shatters", "similar",
    ],
)
def test_entry_points_name_what_is_not_a_family(call, text):
    # These used to raise a stray AttributeError or TypeError.
    with pytest.raises(ValueError, match=f"^{text}$"):
        call()


def test_from_masks_normalizes_and_validates():
    sys_ = SetSystem.from_masks(2, [(1, 0), (0, 1), (1, 0)])
    assert sys_.members == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        SetSystem(2, ((1, 0), (0, 1)))  # unsorted direct construction
    with pytest.raises(GroundMismatchError):
        SetSystem.from_masks(2, [(1, 0, 1)])


def test_from_masks_reports_the_first_bad_mask_in_input_order():
    # Masks that cannot be sorted or hashed used to raise a stray TypeError.
    cases = [
        ([(1, 1), (1, None)], (1, None)),
        ([(1, None), (1, "1")], (1, None)),
        ([(1, "1"), (1, None)], (1, "1")),
        ([(1, 1), (0, [1])], (0, [1])),
    ]
    for masks, bad in cases:
        with pytest.raises(ValueError) as info:
            SetSystem.from_masks(2, masks)
        assert str(info.value) == f"mask entries must be 0 or 1: {bad!r}"


def test_from_masks_names_the_first_bad_mask_in_input_order_when_masks_sort():
    cases = [
        ([(1, None), (0, "1")], ValueError, "mask entries must be 0 or 1: (1, None)"),
        ([(1, 2), (0, 3)], ValueError, "mask entries must be 0 or 1: (1, 2)"),
        ([(1, 0, 0), (0,)], GroundMismatchError, "mask length 3 does not match ground size 2"),
        ([(0, 2), None], ValueError, "mask entries must be 0 or 1: (0, 2)"),
    ]
    for masks, error, message in cases:
        with pytest.raises(error) as info:
            SetSystem.from_masks(2, masks)
        assert str(info.value) == message
    for masks in ([(0,)], [(1, None), (1, "1")], [], [None]):
        with pytest.raises(ValueError, match="^ground size must be nonnegative$"):
            SetSystem.from_masks(-1, masks)


def test_from_masks_checks_valid_masks_in_one_pass():
    with mock.patch.object(setsystem, "_check_mask", side_effect=AssertionError):
        system = SetSystem.from_masks(2, [(1, 0), (0, 1), (1, 0)])
    assert system.members == ((0, 1), (1, 0))


def test_constructor_takes_any_iterable_of_members():
    members = [(0, 1), (1, 0)]
    for given_members in (iter(members), members):
        system = SetSystem(2, given_members)
        assert system.members == tuple(members)
        assert hash(system) == hash(SetSystem(2, tuple(members)))


def test_text_round_trip_of_bool_masks():
    sys_ = SetSystem.from_masks(2, [(True, False), (0, 0)])
    assert sys_.to_text() == "ground 2\n00\n10\n"
    assert SetSystem.from_text(sys_.to_text()) == sys_


@pytest.mark.parametrize("mask", [(1.0, 0), (0, 0.0), (2, 0), (-1, 0)])
def test_mask_entries_must_be_int_bits(mask):
    message = "mask entries must be 0 or 1"
    with pytest.raises(ValueError, match=message):
        SetSystem.from_masks(2, [(1, 1), mask])
    with pytest.raises(ValueError, match=message):
        SetSystem(2, (mask,))
    with pytest.raises(ValueError, match=message):
        trace(SetSystem.power_set(2), mask)


@pytest.mark.parametrize(
    "indices, named",
    [([1.5], r"\[1\.5\]"), (["1"], r"\['1'\]"), ([None], r"\[None\]"), ([2, 1.0], r"\[1\.0\]")],
)
def test_mask_indices_must_be_ints(indices, named):
    with pytest.raises(ValueError, match=f"indices must be ints, got {named}"):
        mask_from_indices(3, indices)


def test_index_sets_name_an_index_that_is_not_an_int():
    with pytest.raises(ValueError, match=r"indices must be ints, got \[1\.5\]"):
        SetSystem.from_index_sets(3, [{1.5}, {2}])
    assert mask_from_indices(3, [True, 2]) == (0, 1, 1)
    with pytest.raises(ValueError, match=r"^indices out of range for ground 3: \[5, 10\]$"):
        mask_from_indices(3, [10, 1, 5])


# --- construction checks --------------------------------------------------


def _old_checks(ground_size, members):
    """The per-mask constructor checks as they stood before the one-pass checks."""
    for mask in members:
        if len(mask) != ground_size:
            raise GroundMismatchError(
                f"mask length {len(mask)} does not match ground size {ground_size}"
            )
        if any(b not in (0, 1) for b in mask):
            raise ValueError(f"mask entries must be 0 or 1: {mask!r}")
        if not isinstance(mask, tuple):
            raise ValueError(f"a mask must be a tuple, got {type(mask).__name__}")
    if list(members) != sorted(set(members)):
        raise ValueError(
            "members must be deduplicated and lexicographically sorted; "
            "use SetSystem.from_masks"
        )


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:  # noqa: BLE001 - the type and text are compared
        return type(exc), str(exc)
    return None


@st.composite
def member_tuples(draw):
    m = draw(st.integers(0, 4))
    entry = st.sampled_from([0, 1, 0, 1, 2, "1", True, False, None])
    mask = st.lists(entry, min_size=max(m - 1, 0), max_size=m + 1)
    members = draw(st.lists(mask, max_size=6))
    if draw(st.booleans()):  # well-formed masks, sorted or not
        members = [tuple(b if b in (0, 1) else 0 for b in mask[:m]) for mask in members]
        members = [mask + (0,) * (m - len(mask)) for mask in members]
        if draw(st.booleans()):
            members = sorted(set(members))
    as_list = draw(st.sampled_from([None, 0, -1]))
    members = [tuple(mask) for mask in members]
    if as_list is not None and members:
        members[as_list] = list(members[as_list])  # unhashable
    return m, tuple(members)


@given(member_tuples())
def test_constructor_checks_match_the_per_mask_checks(case):
    m, members = case
    expected = _outcome(_old_checks, m, members)
    assert _outcome(SetSystem, m, members) == expected


@pytest.mark.parametrize(
    "members",
    [
        ((0, 1), (1,)),
        ((0, 2),),
        ((0, "1"),),
        ((0, 1), (0, 1)),
        ((1, 0), (0, 1)),
        ((0, 0), [0, 1]),
        ([0, 1],),
        ((0, 1), (1, 0), (1, 0, 1)),
    ],
)
def test_constructor_rejects_malformed_members(members):
    expected = _outcome(_old_checks, 2, members)
    assert expected is not None
    assert _outcome(SetSystem, 2, members) == expected


@pytest.mark.parametrize("mask", [b"\x00\x01", range(2)], ids=["bytes", "range"])
def test_constructor_refuses_a_mask_that_is_not_a_tuple(mask):
    # Both pass the per-mask bit checks, but hold no member int.
    expected = (ValueError, f"a mask must be a tuple, got {type(mask).__name__}")
    assert _outcome(_old_checks, 2, [mask]) == expected
    with pytest.raises(ValueError, match=f"a mask must be a tuple, got {type(mask).__name__}"):
        SetSystem(2, [mask])


def _entry_checks(ground_size, members):
    """The constructor's checks with one pass over all entries and tuple order.

    The reference for the checks on each member's bytes.
    """
    members = tuple(members)
    if not (
        set(map(type, members)) <= {tuple}
        and set(map(len, members)) <= {ground_size}
        and setsystem._all_bits(itertools.chain.from_iterable(members))
        and all(map(operator.lt, members, itertools.islice(members, 1, None)))
    ):
        for mask in members:
            setsystem._check_mask(mask, ground_size)
            setsystem._check_type(mask, tuple, "a mask must be a tuple")
        if list(members) != sorted(set(members)):
            raise ValueError(
                "members must be deduplicated and lexicographically sorted; "
                "use SetSystem.from_masks"
            )


class _Bit:
    """An entry that is not an int but has an index."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class _SubInt(int):
    pass


_B = setsystem.BLOCK_WORDS
_P = list(SetSystem.power_set(11).members)  # 2,048 members: two chunks that share one


_ENTRY_CASES = {
    "bools": (2, [(False, True), (True, False)]),
    "bool-beside-int": (2, [(0, 1), (True, 0)]),
    "two": (2, [(0, 2)]),
    "minus-one": (2, [(0, -1)]),
    "256": (2, [(0, 256)]),
    "float-zero": (2, [(0, 0.0)]),
    "float-one": (2, [(1.0, 0)]),
    "float-in-second-member": (2, [(0, 0), (0, 1.0)]),
    "index-class": (2, [(_Bit(0), _Bit(1))]),
    "index-class-two": (2, [(_Bit(2), _Bit(1))]),
    "int-subclass": (2, [(_SubInt(0), _SubInt(1)), (_SubInt(1), _SubInt(0))]),
    "list-mask": (2, [[0, 1]]),
    "list-second-mask": (2, [(0, 0), [0, 1]]),
    "short-mask": (2, [(0, 1), (1,)]),
    "long-mask": (2, [(0, 1, 0)]),
    "duplicates": (2, [(0, 1), (0, 1)]),
    "unsorted": (2, [(1, 0), (0, 1)]),
    "ground-0-duplicates": (0, [(), ()]),
    "ground-0": (0, [()]),
    "empty": (3, []),
    # Families of more than one chunk of the check, and edits at its seams.
    "chunks": (11, _P),
    "one-chunk-and-one": (11, _P[: _B + 1]),
    "one-chunk-and-two": (11, _P[: _B + 2]),
    "last-duplicated": (11, _P[:-1] + [_P[-2]]),
    "swap-before-seam": (11, _P[: _B - 1] + [_P[_B], _P[_B - 1]] + _P[_B + 1 :]),
    "swap-after-seam": (11, _P[:_B] + [_P[_B + 1], _P[_B]] + _P[_B + 2 :]),
    "duplicate-at-seam": (11, _P[:_B] + [_P[_B - 1]] + _P[_B + 1 :]),
    "two-in-last": (11, _P[:-1] + [(1,) * 10 + (2,)]),
    "short-last": (11, _P[:-1] + [(1,) * 10]),
    "float-in-second-chunk": (11, _P[: _B + 1] + [(1,) * 10 + (0.0,)] + _P[_B + 2 :]),
}


@pytest.mark.parametrize("m, members", _ENTRY_CASES.values(), ids=_ENTRY_CASES)
def test_constructor_checks_match_the_entry_checks(m, members):
    expected = _outcome(_entry_checks, m, members)
    assert _outcome(SetSystem, m, members) == expected
    assert _outcome(SetSystem, m, iter(members)) == expected


@pytest.mark.parametrize("m, members", _ENTRY_CASES.values(), ids=_ENTRY_CASES)
def test_equality_keeps_the_answer_of_the_masks(m, members):
    # == reads the ints, and the masks are the view built from them, so
    # the two answers agree whatever entries the members were given with.
    if _outcome(SetSystem, m, members) is None:
        family = SetSystem(m, members)
        for other in (SetSystem._of_ints(m, family._ints), SetSystem(m, members)):
            assert (family == other) == (family.members == other.members)


def test_index_entries_are_ordered_by_their_bits():
    # Entries that have an index but no order compare as their bits, where
    # comparing the tuples raised TypeError.
    members = [(0, 0), (_Bit(1), _Bit(1))]
    with pytest.raises(TypeError, match="'<' not supported"):
        _entry_checks(2, members)
    assert SetSystem(2, members).members == ((0, 0), (1, 1))


# --- automaton kernel ----------------------------------------------------


@st.composite
def move_tables(draw, most_states=6):
    states = draw(st.integers(1, most_states))
    target = st.one_of(st.none(), st.integers(0, states - 1))
    return [(draw(target), draw(target)) for _ in range(states)]


def _reachable(table):
    seen, todo = {0}, [0]
    while todo:
        for after in table[todo.pop()]:
            if after is not None and after not in seen:
                seen.add(after)
                todo.append(after)
    return seen


def _word_counts(levels, start, step):
    return [len(bf.automaton_words(m, start, step)) for m in range(levels + 1)]


@given(move_tables(), st.integers(0, 10))
def test_automaton_family_matches_recursive_walk(table, m):
    def step(state, bit):
        return table[state][bit]

    family = setsystem._automaton_family(m, 0, step)
    assert family.members == tuple(bf.automaton_words(m, 0, step))
    assert setsystem._count_words(m, 0, step) == _word_counts(m, 0, step)


@pytest.mark.parametrize(
    "m, eta", [(0, (1,)), (1, (0,)), (9, (1, 0)), (12, (1,) * 13), (16, (1, 0, 1, 0, 1, 0))]
)
def test_kernel_blocks_hold_the_words_in_order(m, eta):
    # The words are the ints of the masks, block for block those of the
    # tuple walk the kernel replaced.
    step = labelcalc._avoid_step(eta)
    blocks = list(setsystem._automaton_blocks(m, 0, step))
    words = [word for block in blocks for word in block]
    assert words == list(map(bf.numeral, bf.automaton_words(m, 0, step)))
    old = bf.tuple_blocks(m, 0, step, setsystem.BLOCK_WORDS)
    assert blocks == [list(map(bf.numeral, block)) for block in old]
    full = setsystem.BLOCK_WORDS
    assert all(len(block) in (full, full + 1) for block in blocks[:-1])
    assert 0 < len(blocks[-1]) <= full + 1


def test_kernel_blocks_walk_only_as_far_as_asked():
    calls = []

    def prefix(state, bit):  # each node its own state
        calls.append(state)
        return 2 * state + bit

    blocks = setsystem._automaton_blocks(12, 1, prefix)
    assert not calls
    assert len(next(blocks)) == setsystem.BLOCK_WORDS
    assert len(calls) < 2**12 - 1  # about a quarter of the walk's steps
    assert sum(map(len, blocks)) == 3 * setsystem.BLOCK_WORDS
    assert len(calls) == 2 * (2**12 - 1)
    assert list(setsystem._automaton_blocks(3, 0, lambda state, bit: None)) == []


@given(move_tables(), st.integers(0, 10))
def test_automaton_family_steps_each_state_at_most_twice(table, m):
    calls = []

    def step(state, bit):
        calls.append(state)
        return table[state][bit]

    setsystem._automaton_family(m, 0, step)
    assert set(calls) <= _reachable(table)
    assert all(calls.count(state) <= 2 for state in set(calls))


def test_count_words_matches_the_avoidance_families():
    for length in range(1, 6):
        for eta in itertools.product((0, 1), repeat=length):
            step = labelcalc._avoid_step(eta)
            counts = setsystem._count_words(12, 0, step)
            assert counts == _word_counts(12, 0, step)
            # the oracle of verify sauer: every avoidance family, ground by ground
            assert counts[:9] == [len(bf.avoid_members(m, eta)) for m in range(9)]


def test_count_words_of_a_member_counter():
    for d in range(6):

        def count(size, bit, d=d):
            return size + bit if size + bit <= d else None

        counts = setsystem._count_words(12, 0, count)
        assert counts == _word_counts(12, 0, count)
        assert counts == [phi_bound(d, m) for m in range(13)]


def test_count_words_refuses_a_walk_over_its_budget(monkeypatch):
    monkeypatch.setattr(_kernel, "ENUMERATION_GROUND_CAP", 4)
    # The matcher of 10 holds one state at level 0 and two after it.
    step = labelcalc._avoid_step((1, 0))
    assert setsystem._count_words(8, 0, step) == list(range(1, 10))
    with pytest.raises(SizeGuardError, match="^word count on ground 9 exceeds 16 states$"):
        setsystem._count_words(9, 0, step)

    # A level with no state costs one, so a dead automaton's walk ends too.
    def dead(state, bit):
        return None

    assert setsystem._count_words(16, 0, dead) == [1] + [0] * 16
    with pytest.raises(SizeGuardError, match="^word count on ground 17 exceeds 16 states$"):
        setsystem._count_words(17, 0, dead)
    with pytest.raises(ValueError, match="^ground size must be nonnegative$"):
        setsystem._count_words(-1, 0, dead)


def test_count_words_refuses_before_it_walks(monkeypatch, fastest):
    steps = []

    def one_state(state, bit):
        steps.append(state)
        return state

    monkeypatch.setattr(_kernel, "ENUMERATION_GROUND_CAP", 4)
    # One state costs one pair per level: 16 levels fit the budget of 16.
    assert setsystem._count_words(16, 0, one_state) == [1 << k for k in range(17)]
    steps.clear()
    with pytest.raises(SizeGuardError, match="^word count on ground 17 exceeds 16 states$"):
        setsystem._count_words(17, 0, one_state)
    assert steps == []
    monkeypatch.undo()

    levels = 1 << 20

    def refuse():
        with pytest.raises(
            SizeGuardError, match=f"^word count on ground {levels} exceeds {levels} states$"
        ):
            setsystem._count_words(levels, 0, labelcalc._avoid_step((1, 0)))

    assert fastest(refuse) < 0.05


def _accepts(table, word):
    state = 0
    for bit in word:
        state = table[state][bit]
        if state is None:
            return False
    return True


@given(
    move_tables(most_states=3),
    move_tables(most_states=3),
    st.one_of(st.none(), st.integers(0, 9)),
)
def test_first_disagreement_matches_brute_force(table_a, table_b, levels):
    # A shortest disagreement passes through distinct state pairs, so it
    # has at most 3 * 3 bits and the brute force misses none.
    got = setsystem._first_disagreement(
        0,
        lambda state, bit: table_a[state][bit],
        0,
        lambda state, bit: table_b[state][bit],
        levels,
    )
    want = bf.first_disagreement(
        lambda word: _accepts(table_a, word),
        lambda word: _accepts(table_b, word),
        9 if levels is None else min(9, levels),
    )
    assert got == want


def test_first_disagreement_examples():
    def accept_all(state, bit):
        return state

    def avoid_10(state, bit):  # the greedy matcher of the label 10
        state += bit == (1, 0)[state]
        return state if state < 2 else None

    assert setsystem._first_disagreement(0, avoid_10, 0, accept_all) == (1, 0)
    assert setsystem._first_disagreement(0, accept_all, 0, avoid_10) == (1, 0)
    assert setsystem._first_disagreement(0, avoid_10, 0, avoid_10) is None
    assert setsystem._first_disagreement(0, accept_all, 5, accept_all) is None


def test_avoid_family_steps_each_matcher_state_at_most_twice(monkeypatch):
    calls = []
    make = labelcalc._avoid_step

    def counting(eta):
        step = make(eta)

        def wrapped(state, bit):
            calls.append(state)
            return step(state, bit)

        return wrapped

    monkeypatch.setattr(labelcalc, "_avoid_step", counting)
    assert len(avoid_family(16, (1, 0, 1, 0, 1, 0)).members) == 6885
    assert len(calls) == 2 * 6  # the six matcher states, two bits each


def test_avoid_family_peak_memory_stays_near_its_members():
    # A walk that holds whole levels of (word, state) pairs peaks near 3x.
    tracemalloc.start()
    try:
        family = avoid_family(16, (1, 0, 1, 0, 1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(family.members) == 6885
    member_bytes = sum(sys.getsizeof(mask) for mask in family.members)
    assert peak <= 1.5 * member_bytes


def test_sized_families_match_combinations():
    for m in range(14):
        for d in range(m + 3):
            at_most = tuple(sorted(bf.sized_members(m, range(d + 1))))
            exactly = tuple(sorted(bf.sized_members(m, [d])))
            assert SetSystem.size_at_most(m, d).members == at_most
            assert SetSystem.size_exactly(m, d).members == exactly
    # The kernel accepts the empty word on the empty ground.
    assert SetSystem.size_exactly(0, 1).members == ()


def test_the_kernel_guards_the_ground_before_any_step():
    def refuse(state, bit):
        raise AssertionError("the kernel stepped outside its ground bounds")

    with pytest.raises(ValueError, match="^ground size must be nonnegative$"):
        setsystem._automaton_family(-1, 0, refuse)
    with pytest.raises(SizeGuardError, match="^family on ground 21 exceeds cap 20$"):
        setsystem._automaton_family(21, 0, refuse)
    # The blocks' guard runs on the call, before any block is asked for.
    for ground, error in ((-1, ValueError), (21, SizeGuardError), (1.5, ValueError)):
        with pytest.raises(error):
            setsystem._automaton_blocks(ground, 0, refuse)
    # No 22-subset of 21 points exists, yet the ground guard answers first.
    with pytest.raises(SizeGuardError, match="^family on ground 21 exceeds cap 20$"):
        SetSystem.size_exactly(21, 22)


@pytest.mark.parametrize(
    "build",
    [
        lambda m: avoid_family(m, (1, 0)),
        lambda m: ordered_trace_family(Top(), 0, m),
        lambda m: SetSystem.size_at_most(m, 2),
        lambda m: SetSystem.size_exactly(m, 2),
    ],
    ids=["avoid_family", "ordered_trace_family", "size_at_most", "size_exactly"],
)
def test_generated_families_raise_the_kernel_ground_errors(build):
    with pytest.raises(ValueError, match="^ground size must be nonnegative$"):
        build(-1)
    with pytest.raises(SizeGuardError, match="^family on ground 21 exceeds cap 20$"):
        build(21)
    assert len(build(20).members) > 0


def test_sized_families_refuse_grounds_above_the_enumeration_cap(fastest):
    assert len(SetSystem.size_exactly(20, 1).members) == 20

    def refuse():
        for build in (SetSystem.size_at_most, SetSystem.size_exactly):
            with pytest.raises(SizeGuardError, match="ground 40 exceeds cap 20"):
                build(40, 20)
            with pytest.raises(ValueError, match="ground size must be nonnegative"):
                build(-1, 0)

    assert fastest(refuse) < 0.1


# A size that is not an int would make the kernel walk forever (its last
# level is never reached), so each call runs in a child process with an
# address-space limit and a timeout: a regression fails the test instead of
# exhausting the machine's memory.
SIZE_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from vclabels.harness import build_ict_tensor, verify_pair_xor, xor_pair_family
from vclabels.labelcalc import avoid_family, extend_avoiding
from vclabels.labelcompiler import compile_label, realize_expr, to_interval_expr
from vclabels.orderformula import cof, label_of_formula, ordered_trace_family, parse_formula
from vclabels.setsystem import (
    SetSystem, classify, forbidden_labels, mask_from_indices, phi_bound
)
start = time.perf_counter()
try:
    eval(sys.argv[1])
except ValueError as exc:
    print(f"{type(exc).__name__}: {exc}")
else:
    print("returned")
print(f"{time.perf_counter() - start:.3f}")
"""


@pytest.mark.parametrize(
    "call, name, value",
    [
        ("SetSystem.power_set(2.5)", "ground size", "2.5"),
        ("avoid_family(2.5, (1, 0))", "ground size", "2.5"),
        ("xor_pair_family(parse_formula('x<y1'), 1, 2.5)", "ground size", "2.5"),
        ("ordered_trace_family(parse_formula('x<y1'), 1, 2.5)", "ground size", "2.5"),
        ("verify_pair_xor((1, 0, 1), 2.5)", "pair count", "2.5"),
        ("SetSystem.size_at_most(3, 1.5)", "size bound", "1.5"),
        ("SetSystem.size_exactly(3, 1.5)", "size", "1.5"),
        ("classify(SetSystem(2.0, ((0, 1),)))", "ground size", "2.0"),
        ("SetSystem.from_masks(2.0, [(0, 1)])", "ground size", "2.0"),
        ("mask_from_indices(3.0, [1])", "ground size", "3.0"),
        ("extend_avoiding(3.0, (1, 1, 1), (0, 0, 0), (1, 0))", "ground size", "3.0"),
        ("forbidden_labels(SetSystem.power_set(2), 1.5)", "subset size", "1.5"),
        ("phi_bound(1.5, 3)", "dimension", "1.5"),
        ("build_ict_tensor(1.5, 2)", "depth", "1.5"),
        ("build_ict_tensor(2, 1.5)", "column count", "1.5"),
        ("realize_expr(to_interval_expr((1, 0)), (1,), 2.0)", "ground size", "2.0"),
        ("cof(parse_formula('x<y1'), 1.5)", "declared arity", "1.5"),
        ("label_of_formula(parse_formula('x<y1'), 2.5)", "declared arity", "2.5"),
        ("cof(parse_formula('x<y1'), 'a')", "declared arity", "'a'"),
        # One over each cap that _check_cap guards: the whole message, no value.
        pytest.param("avoid_family(21, (1, 0))", "family on ground 21 exceeds cap 20", None,
                     id="family-cap"),
        pytest.param("classify(SetSystem.from_index_sets(17, [[0], [1]]))",
                     "classification on ground 17 exceeds cap 16", None, id="classify-cap"),
        pytest.param("label_of_formula(parse_formula('x<y129'))",
                     "formula arity 129 exceeds cap 128", None, id="arity-cap"),
        pytest.param("compile_label((1,) * 129)", "label of 129 bits exceeds cap 128", None,
                     id="label-cap"),
        pytest.param("build_ict_tensor(4, 2)", "depth 4 exceeds cap 3", None, id="depth-cap"),
        pytest.param("build_ict_tensor(2, 5)", "column count 5 exceeds cap 4", None,
                     id="column-cap"),
    ],
)
def test_a_size_that_is_not_an_int_raises_quickly(call, name, value):
    done = subprocess.run(
        [sys.executable, "-c", SIZE_CHILD, call], capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr
    outcome, elapsed = done.stdout.splitlines()
    if value is None:
        assert outcome == f"SizeGuardError: {name}"
    else:
        assert outcome == f"ValueError: {name} must be an int, got {value}"
    assert float(elapsed) < 1.0
