from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agb import HStar, HStarMode, NumericalSemigroup
from agb.errors import (AgbError, ClosureViolation, IndexOutOfRange,
                        InvariantViolation, LengthTooSmall, LowRangeMismatch,
                        MalformedAbundance, MalformedChain, NotSubsetOfH,
                        ResultInvalid, WrongCardinality)
from agb.hstar import _validate

from conftest import semigroup_and_length, sieve_membership, validate_per_m

TWO_THREE_8 = (0, 2, 3, 4, 5, 6, 7, 9)


@pytest.fixture(scope="module")
def two_three():
    return NumericalSemigroup.from_generators([2, 3])


def test_equiv_divisor_two_three(two_three):
    hs = HStar.from_equiv_divisor(two_three, 8)
    assert hs.members == TWO_THREE_8
    assert hs.mode is HStarMode.EQUIV_DIVISOR


def test_equiv_divisor_no_gaps():
    S = NumericalSemigroup.from_generators([1])
    hs = HStar.from_equiv_divisor(S, 5)
    assert hs.members == (0, 1, 2, 3, 4)


def test_equiv_divisor_suzuki(suzuki):
    hs = HStar.from_equiv_divisor(suzuki, 64)
    assert len(hs.members) == 64
    assert hs.members[-1] == 64 + 27


def test_isometry_dual_klein(klein_hstar):
    expected = (0, 3) + tuple(range(5, 24)) + (25, 28)
    assert klein_hstar.members == expected
    assert klein_hstar.is_isometry_dual()


def test_isometry_dual_no_gaps():
    S = NumericalSemigroup.from_generators([1])
    hs = HStar.from_isometry_dual(S, 6)
    assert hs.members == tuple(range(6))
    assert hs.pi_value() == 6


def test_isometry_dual_matches_equiv_divisor_for_symmetric(two_three, suzuki):
    for S, n in ((two_three, 8), (suzuki, 64), (suzuki, 40)):
        assert S.is_symmetric()
        assert HStar.from_isometry_dual(S, n) == HStar.from_equiv_divisor(S, n)


def test_isometry_dual_reflection_identity(klein_hstar, suzuki):
    cases = [klein_hstar, HStar.from_isometry_dual(suzuki, 64),
             HStar.from_isometry_dual(
                 NumericalSemigroup.from_generators([4, 7, 9]), 30)]
    for hs in cases:
        top = hs.n + 2 * hs.semigroup.genus - 1
        for i in range(1, hs.n + 1):
            assert hs.m(i) + hs.m(hs.n - i + 1) == top


def test_explicit_klein_set_validates():
    S = NumericalSemigroup.from_generators([3, 5, 7])
    members = (0, 3) + tuple(range(5, 24)) + (25, 28)
    hs = HStar.from_explicit(S, 23, members)
    assert hs.members == members
    assert hs.is_isometry_dual()


def test_explicit_equiv_set_validates(two_three):
    hs = HStar.from_explicit(two_three, 8, TWO_THREE_8)
    assert hs == HStar.from_equiv_divisor(two_three, 8)


def test_explicit_accepts_chain_with_jump_at_n(two_three):
    # n itself may be a jump (as on the Klein chain); the tail {8} passes
    # every structural invariant just like the tail {9} does.
    hs = HStar.from_explicit(two_three, 8, (0, 2, 3, 4, 5, 6, 7, 8))
    assert hs.members == (0, 2, 3, 4, 5, 6, 7, 8)
    assert not hs.is_isometry_dual()


def test_explicit_rejects_wrong_cardinality(two_three):
    with pytest.raises(WrongCardinality):
        HStar.from_explicit(two_three, 8, (0, 2, 3))


def test_explicit_rejects_gap_member(two_three):
    with pytest.raises(NotSubsetOfH):
        HStar.from_explicit(two_three, 8, (0, 1, 2, 3, 4, 5, 6, 7))


def test_explicit_rejects_out_of_range(two_three):
    with pytest.raises(NotSubsetOfH):
        HStar.from_explicit(two_three, 8, (0, 2, 3, 4, 5, 6, 7, 10))


def test_explicit_rejects_low_range_mismatch(two_three):
    with pytest.raises(LowRangeMismatch):
        HStar.from_explicit(two_three, 8, (0, 2, 3, 4, 5, 6, 8, 9))


def test_explicit_rejects_closure_violation():
    S = NumericalSemigroup.from_generators([3, 4])
    # 9 and 10 absent but 13 = 9 + 4 = 10 + 3 present
    with pytest.raises(ClosureViolation):
        HStar.from_explicit(S, 9, (0, 3, 4, 6, 7, 8, 11, 13, 14))


def test_direct_construction_is_validated(two_three):
    with pytest.raises(WrongCardinality):
        HStar(two_three, 8, [0, 5, 99], HStarMode.EXPLICIT)
    with pytest.raises(NotSubsetOfH):
        HStar(two_three, 8, (0, 1, 2, 3, 4, 5, 6, 7), HStarMode.EXPLICIT)
    hs = HStar(two_three, 8, reversed(TWO_THREE_8), HStarMode.EXPLICIT)
    assert hs.members == TWO_THREE_8
    assert hs.members_array().tolist() == list(TWO_THREE_8)


@pytest.mark.parametrize("members", [[0, 2, 3, 4, 5, 6, 7, 8, 8],
                                     [0, 2, 3, 4, 5, 6, 7, 9, 9]],
                         ids=["below-n", "above-n"])
def test_direct_construction_rejects_repeated_members(members):
    S = NumericalSemigroup.from_generators([2, 3])
    with pytest.raises(WrongCardinality, match="members repeat"):
        HStar(S, 9, members, HStarMode.EXPLICIT)


def test_each_constructor_validates_once(two_three, monkeypatch):
    import agb.hstar as hstar_mod
    calls = []
    validate = hstar_mod._validate

    def counting(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(hstar_mod, "_validate", counting)
    builds = [
        lambda: HStar.from_explicit(two_three, 8, TWO_THREE_8),
        lambda: HStar.from_equiv_divisor(two_three, 8),
        lambda: HStar.from_isometry_dual(two_three, 8),
        lambda: HStar.from_abundance(two_three, 8, [0] * 8 + [1, 1]),
        lambda: HStar.from_dimension_chain([1, 1, 2, 3, 4, 5, 6, 7, 7, 8],
                                           two_three),
        lambda: HStar(two_three, 8, TWO_THREE_8, HStarMode.EXPLICIT),
    ]
    for build in builds:
        calls.clear()
        build()
        assert len(calls) == 1


@pytest.mark.parametrize("bad", [9.7, "0", float("nan"), None])
def test_explicit_members_must_be_integers(two_three, bad):
    # the last member once went through int(), so 9.7 was taken as 9 and
    # "0" as 0
    with pytest.raises(NotSubsetOfH):
        HStar.from_explicit(two_three, 8, [0, 2, 3, 4, 5, 6, 7, bad])
    with pytest.raises(NotSubsetOfH):
        HStar(two_three, 8, [0, 2, 3, 4, 5, 6, 7, bad], HStarMode.EXPLICIT)


@pytest.mark.parametrize("bad", [8.9, 8.0, "8", None])
def test_length_must_be_an_integer(two_three, bad):
    for build in (HStar.from_equiv_divisor, HStar.from_isometry_dual,
                  lambda S, n: HStar.from_explicit(S, n, TWO_THREE_8),
                  lambda S, n: HStar(S, n, TWO_THREE_8, HStarMode.EXPLICIT)):
        with pytest.raises(InvariantViolation):
            build(two_three, bad)


def test_numpy_integers_are_accepted(two_three):
    members = np.array(TWO_THREE_8, dtype=np.int64)
    hs = HStar.from_explicit(two_three, np.int64(8), members)
    assert hs == HStar.from_equiv_divisor(two_three, np.int32(8))
    assert type(hs.n) is int and all(type(m) is int for m in hs.members)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args).tolist()
    except AgbError as exc:
        return type(exc), str(exc)


@st.composite
def jump_set_candidates(draw):
    """A semigroup, a length n and n sorted candidate jump values.

    The semigroup below n and g values drawn from [n, n+2g-1], so most
    candidates reach the closure check; then, half the time, one value
    replaced by any in [-1, n+2g].
    """
    S, n = draw(semigroup_and_length())
    g = S.genus
    top = n + 2 * g - 1
    members = S.elements_up_to(n - 1) + draw(
        st.permutations(range(n, top + 1)))[:g]
    if draw(st.booleans()):
        members[draw(st.integers(0, n - 1))] = draw(st.integers(-1, top + 1))
    return S, n, sorted(members)


def _g_values_above_n(gens, skip):
    """The semigroup below n, then g consecutive values from n + skip."""
    S = NumericalSemigroup.from_generators(gens)
    n, g = 2 * S.genus + 5, S.genus
    return S, n, S.elements_up_to(n - 1) + list(range(n + skip, n + skip + g))


# <1> has no gaps, <2,11> five runs of one gap, <6,..,11> one run of five;
# the first g values above n are closed, the last g are not (for g > 0)
@settings(max_examples=200, deadline=None)
@given(jump_set_candidates())
@example(_g_values_above_n([1], 0))
@example(_g_values_above_n([2, 11], 0))
@example(_g_values_above_n([2, 11], 5))
@example(_g_values_above_n(range(6, 12), 0))
@example(_g_values_above_n(range(6, 12), 5))
def test_validate_matches_per_m_closure_reference(case):
    S, n, members = case
    assert _outcome(_validate, S, n, members) == \
        _outcome(validate_per_m, S, n, members)


def test_length_too_small(two_three):
    with pytest.raises(LengthTooSmall):
        HStar.from_equiv_divisor(two_three, 4)
    with pytest.raises(LengthTooSmall):
        HStar.from_isometry_dual(two_three, 4)
    with pytest.raises(LengthTooSmall):
        HStar.from_explicit(two_three, 4, (0, 2, 3, 4))


def test_abundance_two_three(two_three):
    ell = [0] * 8 + [1, 1]
    hs = HStar.from_abundance(two_three, 8, ell)
    assert hs.members == TWO_THREE_8
    assert hs.mode is HStarMode.ABUNDANCE


def test_abundance_all_zero_genus_zero():
    S = NumericalSemigroup.from_generators([1])
    hs = HStar.from_abundance(S, 5, [0] * 5)
    assert hs.members == (0, 1, 2, 3, 4)


def test_abundance_rejects_big_step(two_three):
    with pytest.raises(MalformedAbundance):
        HStar.from_abundance(two_three, 8, [0] * 8 + [0, 2])


def test_abundance_rejects_nonzero_below_n(two_three):
    with pytest.raises(MalformedAbundance):
        HStar.from_abundance(two_three, 8, [0] * 7 + [1, 1, 1])


def test_abundance_rejects_wrong_final_value(two_three):
    with pytest.raises(MalformedAbundance):
        HStar.from_abundance(two_three, 8, [0] * 10)


def test_abundance_rejects_wrong_length(two_three):
    with pytest.raises(MalformedAbundance):
        HStar.from_abundance(two_three, 8, [0] * 9)


def test_abundance_result_invalid_when_jumps_break_closure():
    # kernel jumps at 9, 10, 12 leave 13 = 9 + 4 present while 9 is absent
    S = NumericalSemigroup.from_generators([3, 4])
    with pytest.raises(ResultInvalid):
        HStar.from_abundance(S, 9, [0] * 9 + [1, 2, 2, 3, 3, 3])


def test_dimension_chain_two_three(two_three):
    dims = [1, 1, 2, 3, 4, 5, 6, 7, 7, 8]
    hs = HStar.from_dimension_chain(dims, two_three)
    assert hs.members == TWO_THREE_8
    assert hs.mode is HStarMode.CODE_CHAIN


def test_dimension_chain_rejects_constant(two_three):
    with pytest.raises(MalformedChain):
        HStar.from_dimension_chain([1] * 10, two_three)


def test_dimension_chain_rejects_big_step(two_three):
    with pytest.raises(MalformedChain):
        HStar.from_dimension_chain([1, 1, 3, 4, 5, 6, 7, 8, 8, 8], two_three)


def test_sequences_must_be_integers(two_three):
    # both once went through int(), so these truncated to the (2,3) n = 8
    # jump set, with 8.9 read as the length 8
    with pytest.raises(MalformedAbundance):
        HStar.from_abundance(two_three, 8, [0.7] * 8 + [1.2, 1.9])
    with pytest.raises(MalformedChain):
        HStar.from_dimension_chain([1.5, 1, 2, 3, 4, 5, 6, 7, 7, 8.9],
                                   two_three)
    ell = np.array([0] * 8 + [1, 1], dtype=np.int64)
    dims = np.array([1, 1, 2, 3, 4, 5, 6, 7, 7, 8], dtype=np.int32)
    assert HStar.from_abundance(two_three, 8, ell).members == TWO_THREE_8
    assert HStar.from_dimension_chain(dims, two_three).members == TWO_THREE_8


def test_is_isometry_dual_flags(klein_hstar, f16_hstar):
    assert klein_hstar.is_isometry_dual()
    assert not f16_hstar.is_isometry_dual()
    # 309 = n+2g-1 is not a member of the f16 set
    assert 309 not in f16_hstar.member_set


def test_pi_values(two_three, suzuki_hstar):
    assert HStar.from_equiv_divisor(two_three, 8).pi_value() == 8
    assert suzuki_hstar.pi_value() == 64
    assert suzuki_hstar.semigroup.contains(64)


def test_pi_value_f16(f16_hstar):
    assert f16_hstar.pi_value() == 224


def test_sentinel_and_indexing(suzuki_hstar):
    assert HStar.M0 == -1
    assert suzuki_hstar.m(0) == -1
    assert suzuki_hstar.m(1) == 0
    assert suzuki_hstar.m(64) == 91
    with pytest.raises(ValueError):
        suzuki_hstar.m(65)
    for i in (-1, 65):
        with pytest.raises(IndexOutOfRange):
            suzuki_hstar.m(i)
    assert issubclass(IndexOutOfRange, AgbError)


def test_every_constructor_output_revalidates(two_three, suzuki, klein_hstar,
                                              f16_hstar):
    built = [
        HStar.from_equiv_divisor(two_three, 8),
        HStar.from_isometry_dual(suzuki, 64),
        klein_hstar,
        f16_hstar,
        HStar.from_abundance(two_three, 8, [0] * 8 + [1, 1]),
        HStar.from_dimension_chain([1, 1, 2, 3, 4, 5, 6, 7, 7, 8], two_three),
    ]
    for hs in built:
        again = HStar.from_explicit(hs.semigroup, hs.n, hs.members)
        assert again == hs


def test_members_match_brute_force_reachability(two_three):
    # low part of the jump set must equal the reachability sieve below n
    hs = HStar.from_equiv_divisor(two_three, 8)
    mem = sieve_membership([2, 3], 7)
    assert [m for m in hs.members if m < 8] == \
        [m for m in range(8) if mem[m]]


def test_constructors_cross_validate_through_derived_sequences(suzuki):
    # rebuild an equiv-divisor jump set from the dimension and kernel
    # sequences it implies; all three routes must agree
    for S, n in ((suzuki, 40),
                 (NumericalSemigroup.from_generators([3, 4]), 12)):
        hs = HStar.from_equiv_divisor(S, n)
        top = n + 2 * S.genus - 1
        dims = [sum(1 for m in hs.members if m <= b) for b in range(top + 1)]
        ell = [sum(1 for m in S.elements_up_to(b)) - dims[b]
               for b in range(top + 1)]
        assert HStar.from_dimension_chain(dims, S) == hs
        assert HStar.from_abundance(S, n, ell) == hs


@settings(max_examples=80, deadline=None)
@given(semigroup_and_length())
def test_jump_set_constructors_agree(case):
    S, n = case
    top = n + 2 * S.genus - 1
    H = S.elements_up_to(top)
    equiv = HStar.from_equiv_divisor(S, n)
    dual = HStar.from_isometry_dual(S, n)
    for hs in (equiv, dual):
        assert HStar.from_explicit(S, n, hs.members) == hs
        dims = [bisect_right(hs.members, m) for m in range(top + 1)]
        assert HStar.from_dimension_chain(dims, S) == hs
        ell = [bisect_right(H, m) - dims[m] for m in range(top + 1)]
        assert HStar.from_abundance(S, n, ell) == hs
        assert hs.is_isometry_dual() == (top in hs.members)
        assert hs.pi_value() >= n
    assert dual.is_isometry_dual()
    # n+2g-1 = n + (2g-1) is in the equiv-divisor set iff 2g-1 is a gap
    assert equiv.is_isometry_dual() == S.is_symmetric()
