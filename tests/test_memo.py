"""The memos that answer repeated classify and avoid_family calls."""

import _thread
import itertools
import random
import sys

import pytest

from vclabels import _classifier, labelcalc, setsystem
from vclabels.labelcalc import avoid_family, is_characterized_by
from vclabels.setsystem import (
    MEMO_CALLS,
    MEMO_GROUND,
    EmptyFamilyError,
    SetSystem,
    SizeGuardError,
    classify,
)

memos = (setsystem._classify_ints, setsystem._avoid_ints)
# The engine itself, which the spy below wraps.
engine_classify = _classifier.classify
# 126 labels, so MEMO_GROUND + 1 grounds give more calls than a memo holds.
labels = [eta for n in range(1, 7) for eta in itertools.product((0, 1), repeat=n)]


def _held():
    return [memo.cache_info().currsize for memo in memos]


@pytest.fixture
def engine_calls(monkeypatch):
    """The families _classifier.classify is handed, as the test runs."""
    calls = []

    def spy(system):
        calls.append(system)
        return engine_classify(system)

    monkeypatch.setattr(_classifier, "classify", spy)
    return calls


def _fresh_avoid(m, eta):
    return setsystem._automaton_family(m, 0, labelcalc._avoid_step(labelcalc.as_label(eta)))


def test_a_classify_hit_equals_a_fresh_call(engine_calls):
    full = avoid_family(9, (1, 0, 1))
    cases = [
        full,
        SetSystem(9, full.members[1:]),
        SetSystem.from_index_sets(4, [[0], [1, 2], [3]]),
    ]
    for sys_ in cases:
        first = classify(sys_)
        again = classify(SetSystem.from_masks(sys_.ground_size, sys_.members))
        assert again is first
        assert again == engine_classify(sys_)
        assert repr(again) == repr(engine_classify(sys_))
    assert engine_calls == cases

    class Family(SetSystem):
        pass

    # A subclass's instance shares the key of the plain family.  A True
    # ground is classified afresh each time, with the same answer.
    engine_calls.clear()
    assert classify(Family.from_masks(9, full.members)) is classify(full)
    assert engine_calls == []
    one = classify(SetSystem(1, [(0,), (1,)]))
    for _ in range(2):
        assert repr(classify(SetSystem(True, [(0,), (1,)]))) == repr(one)
    assert engine_calls == [SetSystem(1, [(0,), (1,)])] * 3


def test_the_classify_key_holds_the_ground():
    # The same member ints on two grounds are two families.
    for m in (2, 3, 2, 3):
        family = SetSystem._of_ints(m, (0, 1))
        assert classify(family) == engine_classify(family)
    assert classify(SetSystem._of_ints(2, (0, 1))) != classify(SetSystem._of_ints(3, (0, 1)))


def test_an_avoid_family_hit_equals_a_fresh_call():
    for m, eta in [(0, (1,)), (5, (1, 0, 1)), (8, (0, 0, 1, 1)), (MEMO_GROUND, (1, 0, 1, 0, 1))]:
        first = avoid_family(m, eta)
        misses = setsystem._avoid_ints.cache_info().misses
        for bits in (eta, tuple(map(bool, eta)), list(eta)):
            hit = avoid_family(m, bits)
            assert hit == first == _fresh_avoid(m, eta)
            assert repr(hit) == repr(_fresh_avoid(m, eta))
            assert hit is not first and hit._ints is first._ints
        assert setsystem._avoid_ints.cache_info().misses == misses
    # A True ground is built afresh, and its repr shows it.
    held = _held()
    for _ in range(2):
        assert repr(avoid_family(True, (1,))) == "SetSystem(ground_size=True, members=((0,),))"
    assert _held() == held
    assert repr(avoid_family(1, (1,))) == "SetSystem(ground_size=1, members=((0,),))"
    assert repr(avoid_family(True, (1,))) == "SetSystem(ground_size=True, members=((0,),))"

    class Family(SetSystem):
        pass

    # A subclass's instance is compared with the held family by its own ==.
    sub = Family.from_masks(5, avoid_family(5, (1, 0, 1)).members)
    assert not is_characterized_by(sub, (1, 0, 1))
    assert is_characterized_by(avoid_family(5, (1, 0, 1)), (1, 0, 1))


def test_an_avoid_family_hit_holds_no_members_view():
    first = avoid_family(10, (1, 0, 1, 0))
    first.members, first.member_ints  # built on the caller's family only
    hit = avoid_family(10, (1, 0, 1, 0))
    assert "members" not in hit.__dict__ and "member_ints" not in hit.__dict__
    held = setsystem._avoid_ints(10, (1, 0, 1, 0))
    assert held is hit._ints and type(held) is tuple and set(map(type, held)) == {int}


def test_each_memo_holds_its_last_calls_on_small_grounds():
    calls = [(m, eta) for m in range(MEMO_GROUND + 1) for eta in labels]
    for m, eta in calls[:MEMO_CALLS]:
        avoid_family(m, eta)
    assert _held() == [0, MEMO_CALLS]
    # The first call is used again, so the second is the least recent and goes.
    avoid_family(*calls[0])
    avoid_family(*calls[MEMO_CALLS])
    info = setsystem._avoid_ints.cache_info()
    avoid_family(*calls[0])
    assert setsystem._avoid_ints.cache_info().hits == info.hits + 1
    avoid_family(*calls[1])
    assert setsystem._avoid_ints.cache_info().misses == info.misses + 1
    for m, eta in calls:
        classify(avoid_family(m, eta))
        assert max(_held()) <= MEMO_CALLS
    assert _held() == [MEMO_CALLS, MEMO_CALLS]


def test_a_family_over_the_memo_ground_is_not_held(engine_calls):
    big = MEMO_GROUND + 1
    family = avoid_family(big, (1, 0, 1))
    power = SetSystem.power_set(big)
    for _ in range(2):
        assert avoid_family(big, (1, 0, 1)) == family
        assert classify(power).vc_dimension == big
    assert engine_calls == [power, power]
    assert _held() == [0, 0]


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: classify(SetSystem(3, ())), EmptyFamilyError),
        (lambda: classify(SetSystem.from_index_sets(17, [[0], [1]])), SizeGuardError),
        (lambda: classify(None), ValueError),
        (lambda: avoid_family(21, (1,)), SizeGuardError),
        (lambda: avoid_family(-1, (1,)), ValueError),
        (lambda: avoid_family(3, ()), ValueError),
        (lambda: avoid_family([3], (1,)), ValueError),
    ],
)
def test_errors_are_never_held(call, error):
    for _ in range(3):
        with pytest.raises(error):
            call()
        assert _held() == [0, 0]


def test_concurrent_callers_get_correct_results():
    rng = random.Random(9403)
    families = [
        SetSystem._of_ints(m, sorted(rng.sample(range(1 << m), rng.randint(1, 1 << m - 1))))
        for m in (5, 6, 7, 8) for _ in range(3)
    ]
    # More avoid calls than the memo holds, so that threads evict.
    tasks = [("avoid", m, eta) for m in range(4, 10) for eta in labels[:62]]
    tasks += [("classify", family) for family in families]
    expected = {
        task: _fresh_avoid(*task[1:]) if task[0] == "avoid" else engine_classify(task[1])
        for task in tasks
    }
    wrong, raised, done = [], [], []

    def worker(seed):
        order = random.Random(seed)
        try:
            for _ in range(300):
                task = order.choice(tasks)
                got = avoid_family(*task[1:]) if task[0] == "avoid" else classify(task[1])
                if got != expected[task] or repr(got) != repr(expected[task]):
                    wrong.append(task)
        except Exception as exc:  # reported below, with the others
            raised.append(exc)
        finally:
            done[seed].release()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(6):  # more threads than cores
            done.append(_thread.allocate_lock())
            done[seed].acquire()
            _thread.start_new_thread(worker, (seed,))
        finished = [lock.acquire(timeout=60) for lock in done]
    finally:
        sys.setswitchinterval(interval)
    assert all(finished)
    assert raised == [] and wrong == []
    assert max(_held()) <= MEMO_CALLS
