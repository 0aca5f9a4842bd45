"""The frozen value classes: dataclass-style behaviour without the import cost."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from vclabels.harness import IctTensor, IctWitness, PairXorReport
from vclabels.labelcompiler import (
    Interval,
    IntervalExpr,
    MalformedExpressionError,
    Point,
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
    # Values hold only hashable fields here, so they are their own copies.
    assert copy.copy(value) is value and copy.deepcopy(value) is value


def test_deepcopy_does_not_share_mutable_fields_a_caller_gave():
    interval = Interval(0, 1, [2])
    twin = copy.deepcopy(interval)
    assert twin == interval and twin.removed is not interval.removed
    witness = IctWitness([0], [[1, 0]])
    tensor = IctTensor(1, 2, [witness])
    twin = copy.deepcopy(tensor)
    assert twin == tensor
    assert twin.witnesses[0] is not witness
    assert twin.witnesses[0].sat[0] is not witness.sat[0]
    # A shallow copy shares its fields, as a copy of a frozen dataclass did.
    assert copy.copy(interval).removed is interval.removed


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
