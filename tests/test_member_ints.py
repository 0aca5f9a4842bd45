"""A family holds one int per member: the int paths against the tuple oracles.

The ints, their views (``members``, ``member_ints``), the kernel's words,
the file format and the classifier's bit columns are compared with the
tuple-mask helpers in ``bruteforce`` that they replaced; the value
semantics are pinned to what a family of tuple members gave.
"""

import copy
import itertools
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import bruteforce as bf
from vclabels import (
    _classifier, _masks, cli, harness, labelcalc, labelcompiler, orderformula, setsystem,
)
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
    # _of_ints trusts its callers, so each builder's ints are checked here:
    # strictly increasing, the ints of their masks.
    lines = bf.member_lines(SetSystem.size_at_most(6, 2).members).splitlines()
    random.Random(5).shuffle(lines)
    yield SetSystem.from_text("ground 6\n" + "\n".join(lines + lines[::3]) + "\n")
    yield SetSystem.from_index_sets(5, [{4}, {0, 2}, set(), {0, 2}, {1, 3, 4}, {1}])
    region = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1)
    yield setsystem.trace(_random_family(random.Random(3), 12, 60), region)
    yield SetSystem.size_exactly(9, 4)
    setsystem._avoid_ints.cache_clear()
    yield avoid_family(9, (0, 1, 1))  # walked
    yield avoid_family(9, (0, 1, 1))  # a memo hit
    yield orderformula.ordered_trace_family(orderformula.parse_formula("x>y1 & x<y2"), 2, 7)
    yield harness.xor_pair_family(labelcompiler.compile_label((1, 0, 1)), 2, 6)
    yield harness.ict_witness_family(harness.build_ict_tensor(2, 4))


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


def test_the_internal_builder_keeps_its_ints():
    # It checks nothing: the builders in _kernel_families are checked instead.
    assert SetSystem._of_ints(3, [0, 5, 7])._ints == (0, 5, 7)
    assert SetSystem._of_ints(0, [0]).members == ((),)
    assert SetSystem._of_ints(30, []).members == ()


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


class _Bit:
    """An entry that is not an int but has an index."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_constructor_keeps_only_the_ints_of_its_masks():
    # Bools and other entries with an index come back as the ints 0 and 1.
    masks = ((False, True), (True, _Bit(0)))
    family = SetSystem(2, masks)
    assert family.__dict__ == {"ground_size": 2, "_ints": (1, 2)}
    assert family.members == ((0, 1), (1, 0))
    assert {type(b) for mask in family.members for b in mask} == {int}
    assert repr(family) == "SetSystem(ground_size=2, members=((0, 1), (1, 0)))"
    assert family == SetSystem.from_index_sets(2, [{1}, {0}])
    assert SetSystem.from_masks(2, reversed(masks)).__dict__ == {"ground_size": 2, "_ints": (1, 2)}


def test_equality_of_plain_families_builds_no_tuple_view():
    # Families built by the kernel, from a file or from masks compare by
    # their ground and ints.
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


_SEARCH = avoid_family(8, (1, 0, 1))  # maximum: the shatter search
_FOLD = SetSystem(8, _SEARCH.members[1:])
CLI_CASES = {
    f"{command}-{name}": ([command, "--in", "family.txt"], family)
    for command in ("classify", "labels", "homogenize")
    for name, family in (("search", _SEARCH), ("fold", _FOLD), ("ground-0", SetSystem.power_set(0)))
}
CLI_CASES["verify-t2"] = (["verify", "t2", "--depth", "2", "--cols", "4"], None)


@pytest.mark.parametrize("argv, family", CLI_CASES.values(), ids=CLI_CASES)
def test_cli_paths_build_no_tuple_view(tmp_path, monkeypatch, capsys, argv, family):
    if family is not None:
        (tmp_path / "family.txt").write_text(family.to_text(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with (
        mock.patch.object(_masks, "member_tuples", wraps=_masks.member_tuples) as views,
        mock.patch.object(
            SetSystem, "member_ints", property(mock.Mock(side_effect=AssertionError))
        ),
    ):
        code = cli.main(argv)
    out = capsys.readouterr().out
    assert code in (0, 2)  # homogenize refuses the fold's family and ground 0
    assert views.call_count == 0
    assert argv[0] != "verify" or out.startswith("PASS ")


def _built(family):
    assert "members" not in family.__dict__
    return family


def test_library_calls_build_no_tuple_view():
    masks = [(1, 0, 1, 0), (0, 0, 1, 1), [1, 0, 1, 0], (0, 1, 0, 0)]
    with mock.patch.object(_masks, "member_tuples", side_effect=AssertionError):
        given = _built(SetSystem.from_masks(4, masks))
        assert _built(SetSystem(4, ((0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 1, 0)))) == given
        family = _built(avoid_family(6, (1, 0, 1)))
        assert setsystem.classify(family).is_maximum
        assert setsystem.forbidden_labels(family, 3)[(0, 1, 2)] == (1, 0, 1)
        assert _built(setsystem.trace(family, (1, 1, 0, 0, 1, 1))) == avoid_family(4, (1, 0, 1))
        assert labelcalc.similar(family, avoid_family(6, (1, 0, 1)))
        assert labelcalc.is_characterized_by(family, (1, 0, 1))
        tensor = harness.build_ict_tensor(2, 4)
        witnessed = _built(harness.ict_witness_family(tensor))
        assert witnessed == SetSystem.size_exactly(4, 2)
        assert family != given and family != SetSystem.power_set(6)


def test_a_family_is_its_own_deep_copy_without_its_tuple_view():
    # Deep copies used to hash the family, which built members: 126 ms and
    # 137,980 tuples kept for avoid_family(20, (1, 0) * 4).
    family = avoid_family(8, (1, 0) * 2)
    assert copy.deepcopy(family) is family and copy.deepcopy([family])[0] is family
    assert "members" not in family.__dict__
    with mock.patch.object(_masks, "member_tuples", side_effect=AssertionError):
        assert copy.deepcopy({"f": family})["f"] is family


# --- entry points that take a mask, a tensor or an expression ------------

NOT_A_MASK = "a mask must be a sequence of bits, got NoneType"
NOT_AN_ITERABLE = "{} must be an iterable, got NoneType"
NOT_AN_EXPRESSION = "expression must be an IntervalExpr, got NoneType"
NOT_A_FORMULA = "an operand must be a formula node, got {}"
_RAY = labelcompiler.to_interval_expr((1, 0))  # one symbol: the ray (a, +inf)


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
        (lambda: labelcompiler.realize_expr(_RAY, None, 3), NOT_AN_ITERABLE.format("assignment")),
        (
            lambda: labelcompiler.realize_expr(_RAY, (None,), 3),
            "assignment positions must be real numbers, got NoneType",
        ),
        (lambda: labelcompiler.IntervalExpr(None, 0), NOT_AN_ITERABLE.format("segments")),
        (
            lambda: labelcompiler.IntervalExpr((labelcompiler.Interval(0, 1, None),), 2),
            NOT_AN_ITERABLE.format("removed points"),
        ),
        (lambda: harness.IctTensor(1, 2, None), NOT_AN_ITERABLE.format("witnesses")),
        (
            lambda: harness.IctTensor(1, 2, (None,)),
            "a witness must be an IctWitness, got NoneType",
        ),
        (
            lambda: harness.IctTensor(1, 2, (harness.IctWitness((1.0,), ((0, 1),)),)),
            "path column out of range",
        ),
        (
            lambda: orderformula.eval_formula(orderformula.parse_formula("x<y1"), 0, None),
            NOT_AN_ITERABLE.format("parameters"),
        ),
        (lambda: orderformula.Not(None), NOT_A_FORMULA.format("NoneType")),
        (lambda: orderformula.And(None, orderformula.Top()), NOT_A_FORMULA.format("NoneType")),
        (lambda: orderformula.Or(orderformula.Top(), 5), NOT_A_FORMULA.format("int")),
        (
            lambda: orderformula.Compare(None, []),
            r"not a formula atom \(rel, int index >= 1\): Compare\(rel=None, index=\[\]\)",
        ),
        (
            lambda: harness.ict_witness_family(harness.IctTensor("2", 3, ())),
            "depth must be an int, got '2'",
        ),
    ],
    ids=[
        "from_index_sets", "from_index_sets-set", "mask_indices", "induces", "trace",
        "shatters", "alternation_number", "verify_ict", "ict_witness_family",
        "format_expr", "realize_expr", "realize_expr-assignment", "realize_expr-position",
        "IntervalExpr", "IntervalExpr-removed", "IctTensor", "IctTensor-witness",
        "IctTensor-float-column",
        "eval_formula", "Not", "And", "Or", "Compare", "IctTensor-depth",
    ],
)
def test_entry_points_name_what_is_not_a_mask_tensor_or_expression(call, text):
    # Each used to raise a stray TypeError or AttributeError, or, for
    # alternation_number, to return 0.  A Compare of hashable fields that
    # are not an atom, such as Compare("x", "y"), is built, and refused by
    # the functions that read it (test_orderformula.py).  Those given None for a family are
    # checked with the others in test_setsystem.py.
    with pytest.raises(ValueError, match=f"^{text}$"):
        call()


_X_BELOW_Y1 = orderformula.parse_formula("x<y1")


@pytest.mark.parametrize(
    "call, text",
    [
        (
            lambda: orderformula.eval_formula(_X_BELOW_Y1, None, (1,)),
            "the x position must be a real number, got NoneType",
        ),
        (
            lambda: orderformula.eval_formula(_X_BELOW_Y1, 0, (None,)),
            "parameter positions must be real numbers, got NoneType",
        ),
        (
            lambda: harness.IctTensor(1, 2, (harness.IctWitness(None, None),)),
            "a witness path must be a sequence, got NoneType",
        ),
        (
            lambda: harness.IctWitness((0,), None),
            "witness rows must be a sequence, got NoneType",
        ),
        (
            lambda: harness.IctWitness((0,), (None,)),
            "a witness row must be a sequence, got NoneType",
        ),
    ],
    ids=["eval_formula-x", "eval_formula-parameter", "IctTensor-witness-fields",
         "IctWitness-rows", "IctWitness-row"],
)
def test_formula_positions_and_witness_fields_name_what_they_got(call, text):
    # Each used to raise a stray TypeError, or, for IctWitness, to build a
    # witness that only IctTensor trips over.
    with pytest.raises(ValueError, match=f"^{text}$"):
        call()
