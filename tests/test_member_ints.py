"""A family holds one int per member: the int paths against the tuple oracles.

The ints, their views (``members``, ``member_ints``), the kernel's words,
the file format and the classifier's bit columns are compared with the
tuple-mask helpers in ``bruteforce`` that they replaced; the value
semantics are pinned to what a family of tuple members gave.
"""

import itertools
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import bruteforce as bf
from vclabels import _classifier, _masks, cli, harness, labelcalc, labelcompiler, setsystem
from vclabels.labelcalc import avoid_family
from vclabels.setsystem import (
    NotLocallyMaximumError,
    SetSystem,
    forbidden_label,
    mask_from_indices,
    shatters,
    vc_dim,
)


@st.composite
def families(draw, grounds=st.integers(0, 12)):
    m = draw(grounds)
    values = draw(st.sets(st.integers(0, 2**m - 1), max_size=40))
    return SetSystem.from_masks(m, ([v >> j & 1 for j in range(m)] for v in values))


def _random_family(rng, m, count):
    masks = (tuple(rng.getrandbits(1) for _ in range(m)) for _ in range(count))
    return SetSystem.from_masks(m, masks)


def _kernel_families():
    yield SetSystem.power_set(0)
    yield SetSystem.power_set(1)
    yield SetSystem.power_set(9)
    yield SetSystem.size_exactly(0, 1)
    yield SetSystem.size_at_most(11, 3)
    yield avoid_family(13, (1, 0, 1, 0))
    yield avoid_family(12, (1,) * 13)


def _checked(family):
    """The ints and views of a family against the oracles, by its members."""
    ints, m = family._ints, family.ground_size
    masks = family.members
    assert ints == tuple(map(bf.numeral, masks))
    assert list(ints) == sorted(set(ints))
    assert family.member_ints == tuple(map(bf.mask_int, masks))
    assert family.to_text() == f"ground {m}\n" + bf.member_lines(masks)
    assert SetSystem.from_text(family.to_text())._ints == ints
    twin = SetSystem(m, masks)
    assert twin == family and hash(twin) == hash(family) and repr(twin) == repr(family)
    if ints:
        assert _classifier._columns(ints, m) == bf.zip_columns(masks)


@given(families())
def test_ints_and_views_match_the_tuple_oracles(family):
    _checked(family)


@pytest.mark.parametrize("family", list(_kernel_families()))
def test_kernel_families_match_the_tuple_oracles(family):
    # A kernel family builds its tuple view from the ints on first reading.
    assert "members" not in family.__dict__
    _checked(family)
    built = SetSystem.from_masks(family.ground_size, family.members)
    assert built._ints == family._ints


def test_member_tuples_cross_every_chunk_seam():
    rng = random.Random(1)
    for m in (0, 1, 9, 10, 11, 19, 20, 21, 30, 40, 41, 64, 65, 70, 5000):
        values = sorted({rng.getrandbits(m) for _ in range(30)} | {0, 2**m - 1})
        masks = _masks.member_tuples(values, m)
        assert list(map(bf.numeral, masks)) == values
        assert all(len(mask) == m for mask in masks)
    # The view's work follows the members, not the ground alone.
    assert SetSystem.from_text(f"ground {10**9}\n").members == ()


@pytest.mark.parametrize("m", [1, 7, 8, 9, 16, 24, 63, 64, 65, 70, 130])
def test_columns_at_every_width(m):
    rng = random.Random(m)
    family = _random_family(rng, m, 50)
    assert _classifier._columns(family._ints, m) == bf.zip_columns(family.members)
    # The members' order does not matter, only that it is one order.
    shuffled = list(family._ints)
    rng.shuffle(shuffled)
    masks = _masks.member_tuples(shuffled, m)
    assert _classifier._columns(shuffled, m) == bf.zip_columns(masks)


def test_from_text_reads_the_lines_of_the_tuple_writer():
    rng = random.Random(7)
    for m in (0, 1, 2, 5, 17):
        family = _random_family(rng, m, 25)
        lines = bf.member_lines(family.members).splitlines()
        rng.shuffle(lines)
        text = f"# shuffled\nground {m}\n" + "\n".join(lines + lines[:3]) + "\n"
        assert SetSystem.from_text(text) == family


def test_the_internal_builder_checks_its_ints():
    assert SetSystem._of_ints(3, [0, 5, 7])._ints == (0, 5, 7)
    assert SetSystem._of_ints(0, [0]).members == ((),)
    assert SetSystem._of_ints(30, []).members == ()
    for ints in ([1, 0], [3, 3], [-1], [8], [0, 8], [True], [0, 1.0], [None]):
        with pytest.raises(ValueError, match=r"^member ints must increase within range\(2\*\*3\)"):
            SetSystem._of_ints(3, ints)


# --- grounds 17 to 24 ----------------------------------------------------


def _shattered_dimension(members, m):
    """bf.vc_dim, with subset sizes bounded by the family's size."""
    top = min(m, len(members).bit_length())
    return max(
        k
        for k in range(top + 1)
        if any(bf.shatters(members, combo) for combo in itertools.combinations(range(m), k))
    )


def _one_short(rng, m, region):
    """A family whose traces on ``region`` miss exactly one pattern."""
    k = len(region)
    missing = tuple(rng.getrandbits(1) for _ in range(k))
    masks = []
    for pattern in itertools.product((0, 1), repeat=k):
        if pattern == missing:
            continue
        for _ in range(2):
            mask = [rng.getrandbits(1) for _ in range(m)]
            for j, bit in zip(region, pattern):
                mask[j] = bit
            masks.append(tuple(mask))
    return SetSystem.from_masks(m, masks), missing


@pytest.mark.parametrize("m", range(17, 25))
def test_wide_grounds_match_the_oracles(m):
    rng = random.Random(m)
    for count in (1, 3, 9, 20):
        family = _random_family(rng, m, count)
        members = family.members
        assert vc_dim(family) == _shattered_dimension(members, m)
        for _ in range(20):
            region = sorted(rng.sample(range(m), rng.randint(0, 4)))
            mask = mask_from_indices(m, region)
            assert shatters(family, mask) == bf.shatters(members, region)
    for k in (1, 2, 3):
        region = sorted(rng.sample(range(m), k))
        family, missing = _one_short(rng, m, region)
        assert bf.forbidden(family.members, region) == missing
        assert forbidden_label(family, mask_from_indices(m, region)) == missing
        wider = sorted(set(region) | {next(j for j in range(m) if j not in region)})
        if bf.forbidden(family.members, wider) is None:
            with pytest.raises(NotLocallyMaximumError):
                forbidden_label(family, mask_from_indices(m, wider))


def test_wide_power_sets():
    family = SetSystem.power_set(18)
    assert vc_dim(family) == 18
    assert shatters(family, (1,) * 18)
    assert family._ints == tuple(range(2**18))
    assert family.members[5] == (0,) * 15 + (1, 0, 1)


# --- value semantics -----------------------------------------------------

# pickle.dumps(avoid_family(3, (1, 0)), protocol=4) from a family that held
# its members as tuples.
TUPLE_PICKLE = (
    b"\x80\x04\x95M\x00\x00\x00\x00\x00\x00\x00\x8c\x12vclabels.setsystem\x94\x8c\t"
    b"SetSystem\x94\x93\x94K\x03(K\x00K\x00K\x00\x87\x94K\x00K\x00K\x01\x87\x94K\x00"
    b"K\x01K\x01\x87\x94K\x01K\x01K\x01\x87\x94t\x94\x86\x94R\x94."
)


def test_values_are_those_of_a_family_of_tuples():
    family = avoid_family(3, (1, 0))
    masks = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))
    assert family == SetSystem(3, masks) and family != SetSystem(3, masks[1:])
    assert hash(family) == hash((3, masks))
    assert repr(family) == f"SetSystem(ground_size=3, members={masks!r})"
    assert pickle.dumps(family, protocol=4) == TUPLE_PICKLE
    assert pickle.loads(TUPLE_PICKLE) == family
    assert pickle.loads(TUPLE_PICKLE)._ints == (0, 1, 3, 7)
    assert family.to_text() == "ground 3\n000\n001\n011\n111\n"
    # format(0, "00b") is "0", yet the empty mask is an empty line.
    assert SetSystem.power_set(0).to_text() == "ground 0\n\n"
    assert SetSystem(0, ()).to_text() == "ground 0\n"


def test_constructor_keeps_the_masks_it_was_given():
    masks = ((False, True), (True, False))
    family = SetSystem(2, masks)
    assert family.members is masks
    assert repr(family) == "SetSystem(ground_size=2, members=((False, True), (True, False)))"
    assert family._ints == (1, 2) and family == SetSystem.from_index_sets(2, [{1}, {0}])


def test_equality_of_plain_families_builds_no_tuple_view():
    # Families built by the kernel, from a file or from tuples of plain bits
    # compare by their ground and ints.
    family = avoid_family(12, (1, 0) * 3)
    read = SetSystem.from_text(family.to_text())
    given = SetSystem(3, ((0, 0, 0), (0, 0, 1), (0, 1, 1), (True, True, True)))
    with mock.patch.object(_masks, "member_tuples", wraps=_masks.member_tuples) as views:
        assert family == avoid_family(12, (1, 0) * 3) == read
        assert family != avoid_family(12, (0, 1) * 3) and family != SetSystem.power_set(12)
        assert given == avoid_family(3, (1, 0)) and given != SetSystem.power_set(3)
        assert SetSystem._of_ints(2, (0,)) != SetSystem._of_ints(3, (0,))
    assert views.call_count == 0


# --- no CLI path builds the tuple view -----------------------------------


@pytest.mark.parametrize(
    "family",
    [
        avoid_family(8, (1, 0, 1)),  # maximum: the shatter search
        SetSystem(8, avoid_family(8, (1, 0, 1)).members[1:]),  # the fold
        SetSystem.power_set(0),
    ],
    ids=["search", "fold", "ground-0"],
)
@pytest.mark.parametrize("command", ["classify", "labels", "homogenize"])
def test_cli_paths_build_no_tuple_view(tmp_path, capsys, family, command):
    path = tmp_path / "family.txt"
    path.write_text(family.to_text(), encoding="utf-8")
    with (
        mock.patch.object(_masks, "member_tuples", wraps=_masks.member_tuples) as views,
        mock.patch.object(
            SetSystem, "member_ints", property(mock.Mock(side_effect=AssertionError))
        ),
    ):
        code = cli.main([command, "--in", str(path)])
    capsys.readouterr()
    assert code in (0, 2)  # homogenize refuses the fold's family and ground 0
    assert views.call_count == 0


# --- entry points that take a mask, a tensor or an expression ------------

NOT_A_MASK = "a mask must be a sequence of bits, got NoneType"
NOT_AN_ITERABLE = "{} must be an iterable, got NoneType"
NOT_AN_EXPRESSION = "expression must be an IntervalExpr, got NoneType"


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: SetSystem.from_index_sets(2, None), NOT_AN_ITERABLE.format("index sets")),
        (lambda: SetSystem.from_index_sets(2, [None]), NOT_AN_ITERABLE.format("indices")),
        (lambda: setsystem.mask_indices(None), NOT_A_MASK),
        (lambda: labelcalc.induces(None, (1,)), NOT_A_MASK),
        (lambda: setsystem.trace(SetSystem.power_set(1), None), NOT_A_MASK),
        (lambda: shatters(SetSystem.power_set(1), None), NOT_A_MASK),
        (lambda: setsystem.alternation_number(None), NOT_A_MASK),
        (lambda: harness.verify_ict(None), "tensor must be an IctTensor, got NoneType"),
        (lambda: harness.ict_witness_family(None), "tensor must be an IctTensor, got NoneType"),
        (lambda: labelcompiler.format_expr(None), NOT_AN_EXPRESSION),
        (lambda: labelcompiler.realize_expr(None, (), 3), NOT_AN_EXPRESSION),
    ],
    ids=[
        "from_index_sets", "from_index_sets-set", "mask_indices", "induces", "trace",
        "shatters", "alternation_number", "verify_ict", "ict_witness_family",
        "format_expr", "realize_expr",
    ],
)
def test_entry_points_name_what_is_not_a_mask_tensor_or_expression(call, text):
    # Each used to raise a stray TypeError or AttributeError, or, for
    # alternation_number, to return 0.  Those given None for a family are
    # checked with the others in test_setsystem.py.
    with pytest.raises(ValueError, match=f"^{text}$"):
        call()
