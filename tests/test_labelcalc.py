import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

import bruteforce as bf
from vclabels import labelcalc, setsystem
from vclabels.harness import verify_pair_xor
from vclabels.labelcalc import (
    PreconditionViolatedError,
    as_label,
    avoid_family,
    complement_label,
    extend_avoiding,
    format_label,
    induces,
    induces_within,
    is_characterized_by,
    parse_label,
    similar,
)
from vclabels.labelcompiler import compile_label
from vclabels.orderformula import ordered_trace_family, parse_formula
from vclabels.setsystem import (
    GroundMismatchError,
    SetSystem,
    SizeGuardError,
    alternation_number,
    classify,
    forbidden_label,
    mask_from_indices,
    mask_indices,
    phi_bound,
    trace,
)

labels = st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple)


def masks_of(m):
    return st.lists(st.integers(0, 1), min_size=m, max_size=m).map(tuple)


# --- literals -----------------------------------------------------------


def test_label_literals():
    assert parse_label("101") == (1, 0, 1)
    assert format_label((1, 0, 1)) == "101"
    with pytest.raises(ValueError):
        parse_label("")
    with pytest.raises(ValueError):
        parse_label("102")


# --- induces ------------------------------------------------------------


def test_induces_examples():
    assert induces(mask_from_indices(3, [0, 2]), (1, 0, 1))
    assert not induces(mask_from_indices(5, []), (1,))
    assert not induces(mask_from_indices(5, []), (0, 1))
    assert not induces(mask_from_indices(4, [1, 2]), (1, 0, 1))


def test_induces_matches_oracle_exhaustively():
    for m in range(6):
        for mask in itertools.product((0, 1), repeat=m):
            for k in range(1, 4):
                for eta in itertools.product((0, 1), repeat=k):
                    assert induces(mask, eta) == bf.induces(mask, eta)


def test_induces_checks_its_masks():
    with pytest.raises(GroundMismatchError, match="mask length 2 .* ground size 3"):
        induces_within((1, 0), (1, 1, 1), (1, 0))
    with pytest.raises(GroundMismatchError, match="mask length 3 .* ground size 2"):
        induces_within((1, 0, 1), (1, 1), (1, 1))
    with pytest.raises(ValueError, match=r"mask entries must be 0 or 1: \(2, 3\)"):
        induces((2, 3), (1,))
    with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
        induces_within((1, 0), (1, 2), (1,))
    assert induces_within((1, 0, 1), (1, 1, 1), (1, 0))


@given(masks_of(8), masks_of(8), labels)
def test_induces_within_matches_oracle(mask, region, eta):
    clipped = tuple(b and r for b, r in zip(mask, region))
    assert induces_within(clipped, region, eta) == bf.induces_within(
        clipped, region, eta
    )


# --- avoid_family -------------------------------------------------------


def test_avoid_family_examples():
    fam = avoid_family(6, (1, 1))
    assert len(fam.members) == 7
    assert fam == SetSystem.size_at_most(6, 1)

    assert avoid_family(5, (0,)).members == ((1, 1, 1, 1, 1),)

    blocks = avoid_family(4, (1, 0, 1))
    assert len(blocks.members) == 11
    assert set(blocks.members) == bf.avoid_members(4, (1, 0, 1))

    assert avoid_family(5, [0, 1]) == avoid_family(5, (0, 1))


def test_avoid_family_matches_oracle():
    for eta_len in range(1, 6):
        for eta in itertools.product((0, 1), repeat=eta_len):
            for m in range(11):
                assert avoid_family(m, eta).members == tuple(
                    sorted(bf.avoid_members(m, eta))
                )


def test_avoid_family_size_guard():
    with pytest.raises(SizeGuardError):
        avoid_family(21, (1, 0))


def test_counting_law_small():
    # is_characterized_by answers False from this count alone.
    for eta_len in range(1, 7):
        for eta in itertools.product((0, 1), repeat=eta_len):
            for m in range(13):
                assert len(avoid_family(m, eta).members) == phi_bound(eta_len - 1, m)


def test_avoid_family_is_maximum_with_constant_labels():
    for eta in [(1, 1), (0, 1), (1, 0, 1), (0, 0, 1)]:
        m = 5
        fam = avoid_family(m, eta)
        result = classify(fam)
        assert result.is_maximum and result.vc_dimension == len(eta) - 1
        for combo in itertools.combinations(range(m), len(eta)):
            assert forbidden_label(fam, mask_from_indices(m, combo)) == eta


@given(st.integers(0, 7), labels, st.data())
def test_restriction_coherence(m, eta, data):
    region = tuple(data.draw(st.integers(0, 1)) for _ in range(m))
    restricted = trace(avoid_family(m, eta), region)
    assert restricted == avoid_family(len(mask_indices(region)), eta)


def test_complement_family_law():
    for eta in [(1,), (0, 1), (1, 1), (1, 0, 1), (0, 1, 1, 0)]:
        m = 6
        complements = {
            tuple(1 - b for b in mask) for mask in avoid_family(m, eta).members
        }
        assert complements == set(avoid_family(m, complement_label(eta)).members)


def test_member_alternation_bound():
    for eta_len in range(1, 5):
        for eta in itertools.product((0, 1), repeat=eta_len):
            for mask in avoid_family(7, eta).members:
                assert alternation_number(mask) <= 2 * eta_len - 1


# --- is_characterized_by / similar ---------------------------------------


def test_is_characterized_by_examples():
    assert is_characterized_by(avoid_family(5, (0, 1)), (0, 1))
    assert is_characterized_by(SetSystem.size_at_most(5, 2), (1, 1, 1))
    mixed = SetSystem.from_index_sets(3, [set(), {0}, {0, 1}, {2}])
    assert not is_characterized_by(mixed, (1, 1))


def _built_and_compared(system, eta):
    """is_characterized_by by its definition: a SetSystem, equal to the
    family built."""
    if not isinstance(system, SetSystem):
        raise ValueError(f"family must be a SetSystem, got {type(system).__name__}")
    return system == avoid_family(system.ground_size, as_label(eta))


def _outcome(check, *args):
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - the type and text are compared
        return type(exc), str(exc)


def test_is_characterized_by_matches_building_the_family():
    short = list(itertools.chain.from_iterable(
        itertools.product((0, 1), repeat=n) for n in range(1, 5)
    ))
    rng = random.Random(23)
    for m in range(8):
        for family_label in short:
            members = list(avoid_family(m, family_label).members)
            absent = sorted(set(itertools.product((0, 1), repeat=m)) - set(members))
            variants = [members, members[1:]]
            if absent:  # same size, one member swapped for an absent set
                swapped = members[:]
                swapped[rng.randrange(len(swapped))] = rng.choice(absent)
                variants.append(swapped)
            for masks in variants:
                family = SetSystem.from_masks(m, masks)
                for eta in short:
                    expected = _built_and_compared(family, eta)
                    assert is_characterized_by(family, eta) is expected


class _Grounded:
    ground_size = 3


class _EqualToAll:
    ground_size = 3

    def __eq__(self, other):
        return True


@pytest.mark.parametrize(
    "system, eta",
    [
        ([], (1, 0)),
        ([], "x"),
        (_Grounded(), (1, 0)),
        (_EqualToAll(), (1, 0)),
        (_EqualToAll(), (2,)),
        (SetSystem(21, ()), (1, 0)),
        (SetSystem(21, ()), ()),
        (SetSystem(2, ()), (1, 2)),
        (SetSystem(2, ()), 5),
        (SetSystem(2, ((0, 0),)), [1, 1]),
        (SetSystem(0, ((),)), (True,)),
    ],
)
def test_is_characterized_by_keeps_its_answers_and_errors(system, eta):
    # Ground and label errors come in the same order; above the ground cap
    # the size guard answers before the count.
    assert _outcome(is_characterized_by, system, eta) == _outcome(
        _built_and_compared, system, eta
    )


def test_is_characterized_by_builds_no_family(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a family")

    family = avoid_family(12, (1, 0, 1, 0))
    one_less = SetSystem(12, family.members[1:])
    monkeypatch.setattr(labelcalc, "avoid_family", refuse)
    monkeypatch.setattr(setsystem, "_automaton_family", refuse)
    monkeypatch.setattr(SetSystem, "__init__", refuse)
    assert is_characterized_by(family, (1, 0, 1, 0))
    assert not is_characterized_by(family, (0, 1, 0, 1))
    # A family of another size is answered before any step.
    monkeypatch.setattr(labelcalc, "_avoid_step", lambda eta: refuse)
    assert not is_characterized_by(one_less, (1, 0, 1, 0))


def test_complement_label_examples():
    assert complement_label((0, 1)) == (1, 0)
    assert complement_label((1, 1)) == (0, 0)
    assert complement_label(complement_label((1, 0, 1))) == (1, 0, 1)


def test_similar():
    prefixes = SetSystem.from_index_sets(
        4, [set(), {0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}]
    )
    generated = ordered_trace_family(parse_formula("x<y1"), 1, 4)
    assert similar(prefixes, generated)
    assert similar(prefixes, prefixes)

    pre3 = SetSystem.from_index_sets(3, [set(), {0}, {0, 1}, {0, 1, 2}])
    suf3 = SetSystem.from_index_sets(3, [set(), {2}, {1, 2}, {0, 1, 2}])
    assert not similar(pre3, suf3)

    with pytest.raises(GroundMismatchError):
        similar(pre3, prefixes)


# --- extend_avoiding ------------------------------------------------------


def test_extend_example():
    got = extend_avoiding(4, mask_from_indices(4, [1, 3]), mask_from_indices(4, [1, 3]), (1, 0))
    assert got == mask_from_indices(4, [1, 2, 3])
    assert not induces(got, (1, 0))


def test_extend_full_region_is_identity():
    rng = random.Random(11)
    full = tuple([1] * 6)
    for _ in range(200):
        eta = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
        mask = tuple(rng.randint(0, 1) for _ in range(6))
        if induces(mask, eta):
            continue
        assert extend_avoiding(6, full, mask, eta) == mask


def test_extend_base_case():
    region = mask_from_indices(5, [1, 4])
    assert extend_avoiding(5, region, mask_from_indices(5, []), (1,)) == (0,) * 5


def test_extend_precondition_violated():
    region = mask_from_indices(3, [0, 2])
    partial = mask_from_indices(3, [0])
    with pytest.raises(PreconditionViolatedError):
        extend_avoiding(3, region, partial, (1, 0))
    with pytest.raises(ValueError, match="contained"):
        extend_avoiding(3, mask_from_indices(3, [0]), mask_from_indices(3, [1]), (1,))


def test_extend_randomized_postconditions():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        m = rng.randint(1, 9)
        eta = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
        region = tuple(rng.randint(0, 1) for _ in range(m))
        partial = None
        for _ in range(40):
            candidate = tuple(b and rng.randint(0, 1) for b in region)
            if not bf.induces_within(candidate, region, eta):
                partial = candidate
                break
        if partial is None:
            continue
        out = extend_avoiding(m, region, partial, eta)
        assert all(o == p for o, r, p in zip(out, region, partial) if r)
        assert not bf.induces(out, eta)
        checked += 1


def test_extend_long_label_without_recursion():
    # Labels far longer than the ground: the fill reads the ground once,
    # and the stripping oracle must loop, not recurse, once per label bit.
    rng = random.Random(3)
    for _ in range(5):
        eta = tuple(rng.randint(0, 1) for _ in range(3000))
        region = tuple(rng.randint(0, 1) for _ in range(20))
        partial = tuple(b and rng.randint(0, 1) for b in region)
        out = extend_avoiding(20, region, partial, eta)
        assert all(o == p for o, r, p in zip(out, region, partial) if r)
        assert not induces(out, eta)
        assert out == bf.extend_by_stripping(20, region, partial, eta)


def test_extend_matches_the_stripping_construction_exhaustively():
    # Every label of at most 4 bits, every region of a ground of at most 6
    # points and every partial assignment inside it: 32,790 cases.
    cases = 0
    for m in range(7):
        for k in range(1, 5):
            for eta in itertools.product((0, 1), repeat=k):
                for region in itertools.product((0, 1), repeat=m):
                    inside = [(0, 1) if r else (0,) for r in region]
                    for partial in itertools.product(*inside):
                        cases += 1
                        try:
                            out = extend_avoiding(m, region, partial, eta)
                        except PreconditionViolatedError:
                            assert bf.induces_within(partial, region, eta)
                            continue
                        assert not bf.induces_within(partial, region, eta)
                        assert out == bf.extend_by_stripping(m, region, partial, eta)
    assert cases == 32790


def test_labels_and_extensions_are_plain_ints():
    # A bool label used to come back as itself: format_label gave
    # 'TrueFalse' and extend_avoiding (True, 1, 1).
    assert format_label((True, False)) == "10"
    for got, want in [
        (as_label([True, False]), (1, 0)),
        (complement_label((True, False)), (0, 1)),
        (extend_avoiding(3, (1, 0, 0), (1, 0, 0), (True, False)), (1, 1, 1)),
        (extend_avoiding(3, (1, 1, 0), (True, False, 0), (0, 1)), (1, 0, 0)),
    ]:
        assert got == want
        assert all(type(b) is int for b in got)


@pytest.mark.parametrize(
    "value",
    [(), (0, 2), (1, None), "01", 5, None, (1.0, 0), (0.0,), (True, 2), [1, -1]],
)
def test_as_label_names_what_is_not_a_label(value):
    with pytest.raises(
        ValueError, match=f"^a label is a nonempty tuple of 0/1 bits, got {re.escape(repr(value))}$"
    ):
        as_label(value)


def test_entry_points_refuse_a_non_iterable_label():
    # Each used to raise a stray TypeError: 'int' object is not iterable.
    with pytest.raises(ValueError, match="^a label literal is a nonempty string over 0/1, got 5$"):
        parse_label(5)
    for call, value in [
        (lambda: avoid_family(4, 5), 5),
        (lambda: compile_label(3), 3),
        (lambda: verify_pair_xor(1, 3), 1),
        (lambda: format_label((1.0, 0)), (1.0, 0)),
        (lambda: complement_label((1.0, 0)), (1.0, 0)),
        (lambda: induces((1, 0), 7), 7),
    ]:
        with pytest.raises(ValueError, match=f"^a label is .*, got {re.escape(repr(value))}$"):
            call()
