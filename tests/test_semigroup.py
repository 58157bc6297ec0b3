import random

import numpy as np
import pytest

from agb import NumericalSemigroup
from agb.errors import (AgbError, BeyondDeskScale, EmptyGenerators, GcdNotOne,
                        NonPositiveGenerator)

from conftest import sieve_membership


def test_whole_naturals():
    S = NumericalSemigroup.from_generators([1])
    assert S.genus == 0
    assert S.gaps == ()
    assert S.frobenius == -1
    assert S.is_symmetric()
    assert S.elements_up_to(6) == [0, 1, 2, 3, 4, 5, 6]


def test_suzuki_semigroup(suzuki):
    assert suzuki.genus == 14
    assert not suzuki.contains(27)
    assert suzuki.frobenius == 27
    assert suzuki.is_symmetric()
    assert suzuki.elements_up_to(12)[2] == 10


def test_f16_semigroup():
    S = NumericalSemigroup.from_generators([14, 15, 22])
    assert S.genus == 49
    assert S.contains(97)
    assert S.contains(44) and S.contains(45)
    assert not S.is_symmetric()


def test_two_three():
    S = NumericalSemigroup.from_generators([2, 3])
    assert S.gaps == (1,)
    assert S.is_symmetric()
    assert S.elements_up_to(3)[1] == 2
    assert not S.contains(-1)
    assert S.contains(0)


def test_generator_order_and_duplicates_do_not_matter():
    a = NumericalSemigroup.from_generators([13, 8, 10, 12, 8])
    b = NumericalSemigroup.from_generators([8, 10, 12, 13])
    assert a == b
    assert hash(a) == hash(b)


def test_empty_generators_rejected():
    with pytest.raises(EmptyGenerators):
        NumericalSemigroup.from_generators([])


def test_gcd_not_one_rejected():
    with pytest.raises(GcdNotOne):
        NumericalSemigroup.from_generators([4, 6])


def test_nonpositive_generator_rejected():
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators([0, 3])


def test_membership_matches_sieve_on_random_generator_sets():
    rng = random.Random(20240817)
    for _ in range(60):
        size = rng.randint(1, 5)
        gens = sorted(rng.sample(range(2, 31), size))
        gens.append(gens[-1] + 1)  # force gcd 1
        S = NumericalSemigroup.from_generators(gens)
        bound = 2 * max(gens) ** 2
        mem = sieve_membership(gens, bound)
        gaps = tuple(i for i, m in enumerate(mem) if not m)
        assert gaps == S.gaps
        assert len(gaps) == S.genus
        assert all(S.contains(m) for m in range(S.frobenius + 1, bound))
        assert [m for m in range(bound + 1) if S.contains(m)] == \
            [m for m in range(bound + 1) if mem[m]]


def test_closure_under_addition(suzuki):
    members = suzuki.elements_up_to(suzuki.conductor)
    for a in members:
        for b in members:
            assert suzuki.contains(a + b)


def test_gap_minus_member_is_never_a_member(suzuki):
    for S in (suzuki, NumericalSemigroup.from_generators([3, 5, 7])):
        members = S.elements_up_to(S.conductor)
        for h in members:
            for l in S.gaps:
                assert not S.contains(l - h)


def test_complement_of_shifted_copy_has_size_m(suzuki):
    for S in (suzuki, NumericalSemigroup.from_generators([3, 5, 7]),
              NumericalSemigroup.from_generators([2, 3])):
        for m in S.elements_up_to(S.conductor + 5):
            outside = [h for h in S.elements_up_to(S.conductor + m)
                       if not S.contains(h - m)]
            assert len(outside) == m


def test_nth_element_enumerates_members(suzuki):
    assert suzuki.elements_up_to(100) == [m for m in range(101)
                                         if suzuki.contains(m)]


def test_membership_mask_agrees_with_contains(suzuki):
    mask = suzuki.membership_mask(80)
    assert [bool(x) for x in mask] == [suzuki.contains(m) for m in range(81)]


def test_membership_mask_is_read_only(suzuki):
    mask = suzuki.membership_mask(40)
    with pytest.raises(ValueError):
        mask[3] = True


def test_desk_scale_guard():
    # frobenius of <10007, 10009> is about 10^8, past the table cap
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators([10007, 10009])


@pytest.mark.parametrize("gens, error", [
    ([0, 3], NonPositiveGenerator),
    ([-2, 5], NonPositiveGenerator),
    ([10007, 10009], BeyondDeskScale),
    # the least generator alone already forces 10^7 gaps
    ([10 ** 7 + 1, 10 ** 7 + 2], BeyondDeskScale),
    # once cast with int(): [2.5, 3] gave <2,3>
    ([2.5, 3], NonPositiveGenerator),
    (["2", 3], NonPositiveGenerator),
    ([float("nan"), 3], NonPositiveGenerator),
])
def test_guard_errors_are_agb_errors(gens, error):
    with pytest.raises(error) as exc:
        NumericalSemigroup.from_generators(gens)
    assert isinstance(exc.value, AgbError)


def test_listing_past_desk_scale_is_refused(suzuki):
    for listing in (suzuki.elements_up_to, suzuki.membership_mask):
        with pytest.raises(BeyondDeskScale):
            listing(10 ** 7 + 1)


def test_numpy_integer_generators_are_accepted():
    S = NumericalSemigroup.from_generators(np.array([5, 3], dtype=np.int64))
    assert S == NumericalSemigroup.from_generators([3, 5])
    assert all(type(g) is int for g in S.generators)


def test_gap_runs_are_the_maximal_runs_of_gaps():
    assert NumericalSemigroup.from_generators([1]).gap_runs == ()
    assert NumericalSemigroup.from_generators([4, 5]).gap_runs == \
        ((1, 4), (6, 8), (11, 12))
    # <2, 2g+1>: g runs of one gap; <g+1, .., 2g+1>: one run of g
    assert NumericalSemigroup.from_generators([2, 11]).gap_runs == \
        tuple((l, l + 1) for l in (1, 3, 5, 7, 9))
    assert NumericalSemigroup.from_generators(range(6, 12)).gap_runs == \
        ((1, 6),)
    assert len(NumericalSemigroup.from_generators([32, 33]).gap_runs) == 31
    rng = random.Random(20261019)
    for _ in range(40):
        gens = sorted(rng.sample(range(2, 25), rng.randint(1, 4)))
        gens.append(gens[-1] + 1)
        S = NumericalSemigroup.from_generators(gens)
        runs = S.gap_runs
        assert [l for a, b in runs for l in range(a, b)] == list(S.gaps)
        # maximal: a member separates each run from the next
        assert all(b < a2 for (_, b), (a2, _) in zip(runs, runs[1:]))
