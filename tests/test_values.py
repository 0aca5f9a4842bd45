"""The frozen value classes: dataclass-style behaviour without the import cost."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from vclabels.harness import (
    IctTensor,
    IctWitness,
    PairXorReport,
    build_ict_tensor,
    ict_failure,
    ict_witness_family,
    verify_ict,
)
from vclabels.labelcompiler import (
    Interval,
    IntervalExpr,
    MalformedExpressionError,
    Point,
    format_expr,
    from_interval_expr,
)
from vclabels.orderformula import And, Bottom, Compare, Not, Or, Top
from vclabels.setsystem import Classification, GroundMismatchError, SetSystem

# Each value with the repr the dataclass-generated __repr__ gave it.
REPRS = [
    (SetSystem(2, ((0, 0), (1, 0))), "SetSystem(ground_size=2, members=((0, 0), (1, 0)))"),
    (
        Classification(1, False, False, ((0, 1), (1, 2), (2, 2))),
        "Classification(vc_dimension=1, is_maximum=False, is_maximal=False, "
        "sauer_profile=((0, 1), (1, 2), (2, 2)))",
    ),
    (Top(), "Top()"),
    (Bottom(), "Bottom()"),
    (Compare("<", 1), "Compare(rel='<', index=1)"),
    (Not(Compare("!=", 2)), "Not(child=Compare(rel='!=', index=2))"),
    (
        And(Top(), Or(Bottom(), Compare(">=", 3))),
        "And(left=Top(), right=Or(left=Bottom(), right=Compare(rel='>=', index=3)))",
    ),
    (Point(0), "Point(symbol=0)"),
    (Interval(0, None, (1, 2)), "Interval(lower=0, upper=None, removed=(1, 2))"),
    (
        IntervalExpr((Point(0), Interval(1, None)), 2),
        "IntervalExpr(segments=(Point(symbol=0), Interval(lower=1, upper=None, "
        "removed=())), symbol_count=2)",
    ),
    (PairXorReport(True, 11, 11), "PairXorReport(passed=True, family_size=11, expected_size=11)"),
    (IctWitness((0,), ((1, 0),)), "IctWitness(path=(0,), sat=((1, 0),))"),
    (
        IctTensor(1, 2, (IctWitness((0,), ((1, 0),)),)),
        "IctTensor(depth=1, columns=2, witnesses=(IctWitness(path=(0,), sat=((1, 0),)),))",
    ),
]


@pytest.mark.parametrize("value, text", REPRS, ids=[text[:12] for _, text in REPRS])
def test_value_repr_equality_hash_and_freezing(value, text):
    assert repr(value) == text
    twin = eval(text)  # the repr rebuilds an equal value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert value != object() and value != text
    name = (type(value).__match_args__ or ("anything",))[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("value", [value for value, _ in REPRS], ids=[t[:12] for _, t in REPRS])
def test_values_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value)
    assert copy.copy(value) is value and copy.deepcopy(value) is value


# Each class with fields the API documents as sequences, built with those
# fields given by ``make``: tuple, list or iter (a one-shot iterator).  A
# witness's path and rows must have a length, so ``iter`` gives them as lists.
def _witness(make, path, sat):
    make = list if make is iter else make
    return IctWitness(make(path), make(map(make, sat)))


SEQUENCE_BUILDS = {
    "Interval": lambda make: Interval(0, 3, make([1, 2])),
    "IntervalExpr": lambda make: IntervalExpr(make([Point(0), Interval(1, 3, make([2]))]), 4),
    "IctWitness": lambda make: _witness(make, [0, 1], [[1, 0], [0, 1]]),
    "IctTensor": lambda make: IctTensor(2, 2, make([_witness(make, [0, 1], [[1, 0], [0, 1]])])),
    "Classification": lambda make: Classification(
        1, True, True, make(map(make, [[0, 1], [1, 2]]))
    ),
}


@pytest.mark.parametrize("name", list(SEQUENCE_BUILDS))
def test_values_hold_their_sequences_as_tuples(name):
    given = SEQUENCE_BUILDS[name](tuple)
    for make in (list, iter):
        value = SEQUENCE_BUILDS[name](make)
        assert hash(value) == hash(given) and value == given and repr(value) == repr(given)
        assert copy.copy(value) is value and copy.deepcopy(value) is value
        assert copy.deepcopy([value])[0] is value
        twin = pickle.loads(pickle.dumps(value))
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


def test_a_witness_refuses_a_one_shot_path():
    with pytest.raises(ValueError, match="^a witness path must be a sequence, got list_iterator$"):
        IctWitness(iter([0]), [[1, 0]])


def test_ict_checks_read_witnesses_built_from_lists():
    assert verify_ict(IctTensor(1, 2, [IctWitness([0], [[1, 0]])]))
    for depth, columns in ((1, 2), (2, 3), (3, 3)):
        built = build_ict_tensor(depth, columns)
        witnesses = [_witness(list, w.path, w.sat) for w in built.witnesses]
        listed = IctTensor(depth, columns, witnesses)
        assert listed == built and verify_ict(listed)
        assert ict_witness_family(listed) == ict_witness_family(built)
    wrong = IctTensor(1, 2, [IctWitness([0], [[0, 1]])])
    assert ict_failure(wrong) == ict_failure(IctTensor(1, 2, (IctWitness((0,), ((0, 1),)),)))
    assert ict_failure(wrong) == (0,)


def test_deepcopy_does_not_share_mutable_fields_a_caller_gave():
    # Each constructor keeps a tuple of the list it was given, so a value is
    # its own deep copy, and changing the list afterwards changes no value.
    removed, path, row, profile = [2], [0], [1, 0], [[0, 1], [1, 2]]
    interval = Interval(0, 1, removed)
    tensor = IctTensor(1, 2, [IctWitness(path, [row])])
    result = Classification(1, True, True, profile)
    removed.append(3)
    path[0], row[0], profile[1][1] = 1, 0, 5
    assert interval == Interval(0, 1, (2,)) and copy.deepcopy(interval) is interval
    assert tensor == IctTensor(1, 2, (IctWitness((0,), ((1, 0),)),)) and verify_ict(tensor)
    assert copy.deepcopy(tensor) is tensor
    assert result.sauer_profile == ((0, 1), (1, 2)) and copy.deepcopy(result) is result


def test_values_built_from_a_generator_are_those_built_from_a_tuple():
    # Both values walk their iterable twice, so each keeps a tuple of it;
    # a spent generator used to print as '', and to pass every witness.
    segments = (Point(0), Interval(1, 3, (2,)), Point(4), Interval(5, None))
    expr, given = IntervalExpr((s for s in segments), 6), IntervalExpr(segments, 6)
    assert expr == given and repr(expr) == repr(given)
    assert format_expr(expr) == format_expr(given) != ""
    assert from_interval_expr(expr) == from_interval_expr(given)
    witnesses = build_ict_tensor(2, 3).witnesses
    tensor, given = IctTensor(2, 3, (w for w in witnesses)), IctTensor(2, 3, witnesses)
    assert tensor == given and repr(tensor) == repr(given)
    assert verify_ict(tensor) and ict_witness_family(tensor) == ict_witness_family(given)
    bad = [IctWitness((0, 0), ((1, 0, 0), (0, 1, 0)))] + list(witnesses[1:])
    assert not verify_ict(IctTensor(2, 3, iter(bad)))


def test_formula_pickled_under_another_hash_seed():
    # A formula node stores its hash, which for a str field depends on the
    # process's hash seed; unpickling must compute it afresh.
    code = (
        "import pickle, sys; from vclabels.orderformula import *; "
        "sys.stdout.buffer.write(pickle.dumps(And(Compare('<', 1), Not(Top()))))"
    )
    seeds = [seed for seed in ("1", "2") if seed != os.environ.get("PYTHONHASHSEED")]
    env = dict(os.environ, PYTHONHASHSEED=seeds[0])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
    assert done.returncode == 0
    value = pickle.loads(done.stdout)
    assert value == And(Compare("<", 1), Not(Top()))
    assert hash(value) == hash(And(Compare("<", 1), Not(Top())))


def test_values_differ_by_class_and_by_field():
    a, b = Compare("<", 1), Compare(">", 1)
    assert And(a, b) != Or(a, b)
    assert And(a, b) != And(b, a)
    assert Top() != Bottom()
    assert Not(a) != Not(b)
    assert SetSystem(1, ((0,),)) != SetSystem(1, ((1,),))
    assert len({And(a, b), And(a, b), Or(a, b)}) == 2


def test_keyword_construction_defaults_and_match_args():
    assert Compare(rel="<", index=1) == Compare("<", 1)
    assert And(left=Top(), right=Bottom()) == And(Top(), Bottom())
    assert Interval(lower=None, upper=3) == Interval(None, 3, ())
    assert Interval(None, 3).removed == ()
    assert SetSystem(ground_size=1, members=((1,),)).members == ((1,),)
    assert IctTensor(depth=0, columns=0, witnesses=()).witnesses == ()
    assert Compare.__match_args__ == ("rel", "index")
    assert Interval.__match_args__ == ("lower", "upper", "removed")
    assert Top.__match_args__ == ()
    match And(Compare("<", 2), Top()):
        case And(Compare(rel, index), Top()):
            assert (rel, index) == ("<", 2)
        case _:
            pytest.fail("positional match on the field names")
    with pytest.raises(TypeError):
        Top(1)
    with pytest.raises(TypeError):
        Compare("<")


def test_member_ints_is_cached_on_a_frozen_set_system():
    system = SetSystem(2, ((0, 1), (1, 0)))
    assert system.member_ints == (2, 1)
    assert system.member_ints is system.member_ints
    assert system == SetSystem(2, ((0, 1), (1, 0)))  # the cache is not a field


@pytest.mark.parametrize(
    "build, error, text",
    [
        (lambda: SetSystem(-1, ()), ValueError, "ground size must be nonnegative"),
        (
            lambda: SetSystem(2, ((0,),)),
            GroundMismatchError,
            "mask length 1 does not match ground size 2",
        ),
        (lambda: SetSystem(2, ((0, 2),)), ValueError, "mask entries must be 0 or 1: (0, 2)"),
        (
            lambda: SetSystem(2, ((1, 0), (0, 0))),
            ValueError,
            "members must be deduplicated and lexicographically sorted; "
            "use SetSystem.from_masks",
        ),
        (
            lambda: IntervalExpr((Point(1),), 2),
            MalformedExpressionError,
            "segment symbols must read a, b, c, ... left to right, got [1]",
        ),
        (
            lambda: IntervalExpr((Point(0), Interval(None, 1)), 2),
            MalformedExpressionError,
            "an interval unbounded below must come first",
        ),
        (
            lambda: IntervalExpr((Interval(0, None), Point(1)), 2),
            MalformedExpressionError,
            "an interval unbounded above must come last",
        ),
        (
            lambda: IctTensor(2, 2, (IctWitness((0,), ((1, 0),)),)),
            ValueError,
            "witness shape does not match tensor depth",
        ),
        (
            lambda: IctTensor(1, 3, (IctWitness((0,), ((1, 0),)),)),
            ValueError,
            "witness row width does not match column count",
        ),
        (
            lambda: IctTensor(1, 2, (IctWitness((5,), ((1, 0),)),)),
            ValueError,
            "path column out of range",
        ),
        (
            lambda: Classification(1, True, True, [(0, 1), 1]),
            ValueError,
            "sauer profile must be pairs, got [(0, 1), 1]",
        ),
        (
            lambda: Classification(1, True, True, None),
            ValueError,
            "sauer profile must be pairs, got None",
        ),
    ],
)
def test_constructor_checks_keep_their_errors(build, error, text):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == text


@pytest.mark.parametrize(
    "argv, module",
    [
        (["-m", "vclabels", "--help"], "vclabels.cli"),
        (["-c", "from vclabels import *"], "vclabels.setsystem"),
    ],
    ids=["cli-help", "import"],
)
def test_start_up_imports_neither_dataclasses_nor_inspect(argv, module):
    # Importing dataclasses pulls in inspect, ast, dis and tokenize, about
    # 10 ms of every process start.  The star import loads every module.
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True
    )
    assert done.returncode == 0
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert module in imported
    assert not imported & {"dataclasses", "inspect"}
