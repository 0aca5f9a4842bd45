import itertools
import random
from unittest import mock

import pytest

import bruteforce as bf
from vclabels import harness, labelcompiler, setsystem
from vclabels.harness import (
    IctTensor,
    IctWitness,
    NotMaximumError,
    PairXorReport,
    UnverifiedTensorError,
    build_ict_tensor,
    ict_failure,
    ict_witness_family,
    ramsey_homogenize,
    verify_ict,
    verify_pair_xor,
    xor_pair_family,
)
from vclabels.labelcalc import avoid_family
from vclabels.labelcompiler import compile_label
from vclabels.orderformula import (
    Bottom,
    Compare,
    Top,
    ordered_trace_family,
    parse_formula,
)
from vclabels.setsystem import (
    SetSystem,
    SizeGuardError,
    forbidden_label,
    mask_from_indices,
    mask_indices,
    phi_bound,
)


# --- xor_pair_family ------------------------------------------------------


def test_xor_pair_family_examples():
    fam = xor_pair_family(compile_label((1, 0, 1)), 2, 4)
    assert fam == SetSystem.size_at_most(4, 2)
    assert len(fam.members) == 11

    assert xor_pair_family(Top(), 0, 3).members == ((0, 0, 0),)

    cuts = xor_pair_family(parse_formula("x<y1"), 1, 5)
    assert cuts == SetSystem.size_at_most(5, 1)
    assert len(cuts.members) == 6


def test_xor_pair_family_guards():
    # The pairs are the family's ground, so the kernel guards them.
    with pytest.raises(SizeGuardError, match="^family on ground 21 exceeds cap 20$"):
        xor_pair_family(Top(), 0, 21)
    with pytest.raises(ValueError, match="^ground size must be nonnegative$"):
        xor_pair_family(Top(), 0, -1)
    assert xor_pair_family(Top(), 0, 20).members == ((0,) * 20,)
    with pytest.raises(SizeGuardError, match="arity 129 exceeds cap 128"):
        xor_pair_family(Compare("<", 129), 129, 3)
    assert xor_pair_family(Compare("<", 128), 128, 3) == SetSystem.size_at_most(3, 1)
    with pytest.raises(ValueError, match="declared arity 1 is below"):
        xor_pair_family(Compare("<", 2), 1, 3)


def test_xor_pair_family_of_compiled_labels_matches_projection():
    # The reference projects the trace family on twice as many points.
    for length in range(1, 7):
        for eta in itertools.product((0, 1), repeat=length):
            ast = compile_label(eta)
            for m in range(7):
                traces = ordered_trace_family(ast, length - 1, 2 * m).members
                expected = tuple(sorted(bf.xor_pair_members(traces, m)))
                assert xor_pair_family(ast, length - 1, m).members == expected


def test_verify_pair_xor_reports():
    report = verify_pair_xor((1, 0, 1), 4)
    assert report.passed and report.family_size == 11 == report.expected_size

    trivial = verify_pair_xor((1,), 3)
    assert trivial.passed and trivial.family_size == 1

    # detector sanity: removing one member breaks family equality
    family = xor_pair_family(compile_label((1, 0, 1)), 2, 4)
    mutated = SetSystem.from_masks(4, family.members[1:])
    assert mutated != SetSystem.size_at_most(4, 2)


# The real compiler and five stand-ins whose pair-xor families pass only
# for some labels and pair counts, or raise on the label's arity.
COMPILERS = {
    "compile_label": compile_label,
    "top": lambda eta: Top(),
    "bottom": lambda eta: Bottom(),
    "cut": lambda eta: parse_formula("x<y1"),
    "two-rays": lambda eta: parse_formula("x>y1 | x<y2"),
    "point-pair": lambda eta: parse_formula("x=y1 & x!=y2"),
}


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("compiler", COMPILERS.values(), ids=COMPILERS)
def test_verify_pair_xor_matches_build_and_compare(monkeypatch, compiler):
    monkeypatch.setattr(labelcompiler, "compile_label", compiler)

    def oracle(eta, m):
        d = len(eta) - 1
        family = xor_pair_family(compiler(eta), d, m).members
        return PairXorReport(*bf.verify_pair_xor(family, d, m))

    for length in range(1, 7):
        for eta in itertools.product((0, 1), repeat=length):
            for m in range(11):
                assert _outcome(verify_pair_xor, eta, m) == _outcome(oracle, eta, m)


def test_verify_pair_xor_builds_no_family_on_pass_or_fail(monkeypatch):
    monkeypatch.setattr(
        setsystem, "_automaton_family", mock.Mock(side_effect=AssertionError("built a family"))
    )
    assert verify_pair_xor((1, 0, 1), 10) == PairXorReport(True, 56, 56)
    monkeypatch.setattr(labelcompiler, "compile_label", lambda eta: Top())
    assert verify_pair_xor((1, 0, 1), 4) == PairXorReport(False, 1, 11)
    assert verify_pair_xor((1, 0, 1), 1000) == PairXorReport(False, 1, phi_bound(2, 1000))


@pytest.mark.parametrize("compiler", COMPILERS.values(), ids=COMPILERS)
def test_pair_word_counts_match_the_pair_words(compiler):
    for length in range(1, 7):
        for eta in itertools.product((0, 1), repeat=length):
            try:
                step = harness._pair_step(compiler(eta), length - 1)
            except ValueError:
                continue  # a stand-in of higher arity than the label's
            counts = setsystem._count_words(10, 0, step)
            assert counts == [len(bf.automaton_words(m, 0, step)) for m in range(11)]


# --- ramsey_homogenize -----------------------------------------------------


def test_homogenize_constant_labels():
    subset, eta = ramsey_homogenize(SetSystem.size_at_most(6, 2))
    assert subset == (1,) * 6
    assert eta == (1, 1, 1)


def test_homogenize_mixed_labels():
    mixed = SetSystem.from_index_sets(3, [set(), {0}, {0, 1}, {2}])
    subset, eta = ramsey_homogenize(mixed)
    assert sum(subset) == 2
    assert eta == (1, 1)
    # ties break to the lexicographically least membership mask: {1,2}
    assert subset == (0, 1, 1)


def test_homogenize_rejects_non_maximum():
    with pytest.raises(NotMaximumError):
        ramsey_homogenize(SetSystem.from_index_sets(3, [set(), {0}, {1}, {0, 1}]))


def test_homogenize_output_is_label_constant():
    for eta in [(0, 1), (1, 0, 1)]:
        system = avoid_family(6, eta)
        subset, got = ramsey_homogenize(system)
        d = len(eta) - 1
        indices = mask_indices(subset)
        assert len(indices) >= d + 1
        for combo in itertools.combinations(indices, d + 1):
            assert forbidden_label(system, mask_from_indices(6, combo)) == got


def test_homogenize_takes_the_whole_ground_of_a_constant_family():
    system = avoid_family(13, (0, 1))
    subset, eta = ramsey_homogenize(system)
    assert subset == (1,) * 13
    assert eta == (0, 1)


def test_homogenize_refuses_past_its_step_budget(monkeypatch):
    # A budget of 2^8 steps: the constant family at ground 8 takes 119 of
    # them, the one at ground 13 more than 256.
    monkeypatch.setattr(harness, "ENUMERATION_GROUND_CAP", 8)
    assert ramsey_homogenize(avoid_family(8, (0, 1))) == ((1,) * 8, (0, 1))
    with pytest.raises(
        SizeGuardError, match=r"^homogenize search of \d+ steps exceeds cap 256$"
    ):
        ramsey_homogenize(avoid_family(13, (0, 1)))


@pytest.mark.parametrize("m", range(6, 15))
def test_homogenize_matches_brute_force_on_permuted_avoidance_families(m):
    # A permuted avoidance family is still maximum, but unless the label is
    # constant its (d+1)-subsets carry different labels.
    rng = random.Random(m)
    sizes = []
    for length in (2, 3, 4):
        eta = tuple(rng.randint(0, 1) for _ in range(length))
        order = rng.sample(range(m), m)
        system = SetSystem.from_masks(
            m, (tuple(mask[i] for i in order) for mask in avoid_family(m, eta).members)
        )
        want = bf.homogenize(system.members, m, length - 1)
        assert ramsey_homogenize(system) == want
        sizes.append(sum(want[0]))
    assert min(sizes) < m


# --- ICT tensors -------------------------------------------------------------


def test_build_ict_examples():
    t = build_ict_tensor(1, 3)
    assert len(t.witnesses) == 3 and verify_ict(t)

    t = build_ict_tensor(2, 2)
    assert len(t.witnesses) == 4 and verify_ict(t)
    by_path = {w.path: w.sat for w in t.witnesses}
    assert by_path[(0, 1)] == ((1, 0), (0, 1))

    t = build_ict_tensor(3, 4)
    assert len(t.witnesses) == 64 and verify_ict(t)


def test_build_ict_refuses_negative_sizes():
    for depth, columns in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="^(depth|column count) must be nonnegative$"):
            build_ict_tensor(depth, columns)


def test_build_ict_guards():
    with pytest.raises(SizeGuardError):
        build_ict_tensor(4, 2)
    with pytest.raises(SizeGuardError):
        build_ict_tensor(2, 5)


def test_verify_ict_detects_flipped_bit():
    t = build_ict_tensor(2, 2)
    witness = t.witnesses[0]
    flipped_row = tuple(1 - b for b in witness.sat[0])
    bad = IctTensor(
        2,
        2,
        (IctWitness(witness.path, (flipped_row, witness.sat[1])),) + t.witnesses[1:],
    )
    assert not verify_ict(bad)
    assert ict_failure(bad) == witness.path


def test_verify_ict_depth_zero_vacuous():
    t = build_ict_tensor(0, 2)
    assert verify_ict(t)
    assert ict_witness_family(t).members == ((0, 0),)


def test_ict_witness_family_examples():
    assert ict_witness_family(build_ict_tensor(2, 3)) == SetSystem.size_exactly(3, 2)
    assert ict_witness_family(build_ict_tensor(1, 4)) == SetSystem.size_exactly(4, 1)
    assert ict_witness_family(build_ict_tensor(3, 3)).members == ((1, 1, 1),)


def test_ict_witness_family_member_is_path_range():
    t = build_ict_tensor(3, 4)
    for witness in t.witnesses:
        if len(set(witness.path)) == 3:
            column_sums = [sum(witness.sat[i][j] for i in range(3)) for j in range(4)]
            member = tuple(1 if 0 < s < 3 else 0 for s in column_sums)
            assert mask_indices(member) == tuple(sorted(set(witness.path)))


def test_ict_witness_family_requires_verified_tensor():
    t = build_ict_tensor(2, 2)
    witness = t.witnesses[0]
    flipped_row = tuple(1 - b for b in witness.sat[0])
    bad = IctTensor(
        2,
        2,
        (IctWitness(witness.path, (flipped_row, witness.sat[1])),) + t.witnesses[1:],
    )
    with pytest.raises(UnverifiedTensorError):
        ict_witness_family(bad)

    injective_only_missing = IctTensor(
        2, 2, tuple(w for w in t.witnesses if w.path != (0, 1))
    )
    with pytest.raises(UnverifiedTensorError, match="injective"):
        ict_witness_family(injective_only_missing)


# --- end-to-end loop -----------------------------------------------------------


def test_equivalence_loop_finite_scale():
    cases = {1: (1,), 2: (1, 1), 3: (1, 0, 1), 4: (1, 0, 1, 0)}
    for eta_len, eta in cases.items():
        d = eta_len - 1
        m = 4
        # a maximum family avoiding eta exists at every ground size
        family = avoid_family(m, eta)
        assert len(family.members) == phi_bound(d, m)
        # the pair-xor construction collapses it to all small pair sets
        report = verify_pair_xor(eta, 4)
        assert report.passed
        bounded = SetSystem.size_at_most(4, d)
        exact = SetSystem.size_exactly(4, d)
        assert set(exact.members) <= set(bounded.members)
        # a tensor built from the exact-size family verifies and recovers it
        if d <= 3:
            tensor = build_ict_tensor(d, m)
            assert verify_ict(tensor)
            assert ict_witness_family(tensor) == exact
