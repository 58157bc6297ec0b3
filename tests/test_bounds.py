import tracemalloc
from functools import reduce
from math import gcd
from operator import or_

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from agb import (HStar, NumericalSemigroup, a_set, bound_table, d_ord, d_star,
                 feng_rao_improved_dim, ghw_bound, ghw_table, goppa_compare,
                 improved_profile, l_set_check, lambda_profile, lambda_star)
from agb.bounds import _check_pair, _lambda_rows, a_counts_by_index
from agb.errors import (DeltaOutOfRange, EnumerationCapExceeded,
                        IndexOutOfRange, NotAMember, NotIsometryDual,
                        UnsupportedParameter)

from conftest import (SUZUKI_TRUE_COUNTS, a_counts_convolved, dense_profile,
                      ghw_bound_naive, profile_counts_per_gap,
                      semigroup_and_length, sieve_membership)

TWO_THREE_COUNTS = (8, 6, 5, 4, 3, 2, 2, 1)


def d_ord_threshold(hs, i):
    """Dual-side order bound in its original min-over-threshold form.

    Minimizes the A-set size over jump values h >= n+2g-1 - m_i.  Agrees
    with :func:`agb.d_ord`; kept here so the reduction itself is testable.
    """
    S = hs.semigroup
    cutoff = hs.n + 2 * S.genus - 1 - hs.members[i - 1]
    return min(len(a_set(S, h)) for h in hs.members if h >= cutoff)


def ref_counts(hs):
    """Direct double-loop evaluation of the profile; the test-side oracle."""
    S = hs.semigroup
    out = []
    for mi in hs.members:
        out.append(sum(1 for m in hs.members
                       if m >= mi and S.contains(m - mi)))
    return tuple(out)


@pytest.fixture(scope="module")
def two_three_hstar():
    return HStar.from_equiv_divisor(NumericalSemigroup.from_generators([2, 3]), 8)


def test_lambda_star_sizes(suzuki_hstar):
    assert len(lambda_star(suzuki_hstar, 1)) == 64
    assert lambda_star(suzuki_hstar, 1) == suzuki_hstar.member_set
    assert len(lambda_star(suzuki_hstar, 2)) == 56
    assert lambda_star(suzuki_hstar, 64) == {91}


def test_lambda_star_index_range(suzuki_hstar):
    with pytest.raises(IndexOutOfRange):
        lambda_star(suzuki_hstar, 0)
    with pytest.raises(IndexOutOfRange):
        lambda_star(suzuki_hstar, 65)


def test_profile_counts_match_reference(suzuki_hstar, klein_hstar, f16_hstar,
                                        two_three_hstar):
    for hs in (suzuki_hstar, klein_hstar, two_three_hstar, f16_hstar):
        profile = lambda_profile(hs)
        assert tuple(int(c) for c in profile.counts) == ref_counts(hs)


def test_profile_counts_match_dense_route_over_small_family(small_family):
    # the library counts by the shifted-gap identity; the dense n x n route
    # and the double loop count the sets directly
    for S in small_family:
        g = S.genus
        for n in (2 * g + 3, 2 * g + 4, 2 * g + 9, 3 * g + 17):
            for build in (HStar.from_equiv_divisor, HStar.from_isometry_dual):
                hs = build(S, n)
                counts = tuple(int(c) for c in lambda_profile(hs).counts)
                assert counts == dense_profile(hs)[0] == ref_counts(hs), \
                    (S, n, hs.mode)


def test_sweep_rows_match_dense_route_and_lambda_star(suzuki_hstar,
                                                      klein_hstar):
    S579 = NumericalSemigroup.from_generators([5, 7, 9])
    assert not S579.is_symmetric()
    non_symmetric = HStar.from_equiv_divisor(S579, 40)
    for hs in (suzuki_hstar, klein_hstar, non_symmetric):
        counts, dense_masks = dense_profile(hs)
        for i in range(1, hs.n + 1):
            members = {m for k, m in enumerate(hs.members)
                       if (dense_masks[i - 1] >> k) & 1}
            assert members == lambda_star(hs, i)
            assert len(members) == counts[i - 1] == lambda_profile(hs).count(i)
        for imax in (1, hs.n // 3, hs.n):
            rows, outside = _lambda_rows(hs, imax)
            assert rows.shape == (imax, hs.n - outside)
            # every position past the window is in each of the sets
            window = (1 << rows.shape[1]) - 1
            for i in range(1, imax + 1):
                assert dense_masks[i - 1] | window == (1 << hs.n) - 1
                packed = np.packbits(rows[i - 1], bitorder="little")
                assert int.from_bytes(packed.tobytes(), "little") == \
                    dense_masks[i - 1] & window


def test_a_count_matches_window_count_across_the_switch(small_family):
    # #A(h) = h + 1 - 2g from h = 2c - 1 on; below that gap pairs add to it
    for S in small_family:
        top = 2 * S.conductor + 5
        mem = sieve_membership(S.generators, top)
        # every member below n is a jump value of the equiv-divisor set
        hs = HStar.from_equiv_divisor(S, top + 1)
        counts = dict(zip(hs.members, a_counts_by_index(hs).tolist()))
        for h in range(top + 1):
            if not mem[h]:
                continue
            direct = sum(1 for t in range(h + 1) if mem[t] and mem[h - t])
            assert len(a_set(S, h)) == direct, (S, h)
            assert counts[h] == direct, (S, h)


@pytest.mark.parametrize("build", [HStar.from_equiv_divisor,
                                   HStar.from_isometry_dual])
def test_a_counts_by_index_match_a_sets_over_small_family(small_family,
                                                          build):
    # jump values run up to n + 2g - 1 >= 4g + 2 > 2c - 1 at both lengths
    for S in small_family:
        for n in (2 * S.genus + 3, 2 * S.conductor + 4):
            hs = build(S, n)
            assert a_counts_by_index(hs).tolist() == \
                [len(a_set(S, h)) for h in hs.members], (S, n)


# <1> has no gaps, <2,11> five runs of one gap, <6,..,11> one run of five
@settings(max_examples=100, deadline=None)
@given(semigroup_and_length(), st.booleans())
@example((NumericalSemigroup.from_generators([1]), 7), True)
@example((NumericalSemigroup.from_generators([2, 11]), 13), False)
@example((NumericalSemigroup.from_generators(range(6, 12)), 20), True)
def test_run_counts_match_per_gap_references(case, dual):
    S, n = case
    hs = (HStar.from_isometry_dual if dual else HStar.from_equiv_divisor)(S, n)
    assert lambda_profile.__wrapped__(hs).counts.tolist() == \
        profile_counts_per_gap(hs).tolist()
    assert a_counts_by_index(hs).tolist() == a_counts_convolved(hs).tolist()


def _traced_peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_profile_memory_stays_linear_at_n_32768():
    # the n x n route needed about 20 GiB here; O(n*g) stays in megabytes
    S = NumericalSemigroup.from_generators([32, 33])
    hs = HStar.from_equiv_divisor(S, 32768)
    lambda_profile.cache_clear()
    assert _traced_peak_mib(lambda_profile, hs) < 16
    lambda_profile.cache_clear()
    assert _traced_peak_mib(bound_table, hs) < 64
    lambda_profile.cache_clear()


def test_profile_sets_match_lambda_star(klein_hstar):
    _, masks = dense_profile(klein_hstar)
    for i in range(1, klein_hstar.n + 1):
        members = frozenset(m for k, m in enumerate(klein_hstar.members)
                            if (masks[i - 1] >> k) & 1)
        assert members == lambda_star(klein_hstar, i)


def test_suzuki_counts_frozen(suzuki_hstar):
    profile = lambda_profile(suzuki_hstar)
    assert tuple(int(c) for c in profile.counts) == SUZUKI_TRUE_COUNTS


def test_two_three_counts_frozen(two_three_hstar):
    assert tuple(int(c) for c in lambda_profile(two_three_hstar).counts) == \
        TWO_THREE_COUNTS


def test_profile_endpoints(suzuki_hstar, klein_hstar, two_three_hstar):
    for hs in (suzuki_hstar, klein_hstar, two_three_hstar):
        profile = lambda_profile(hs)
        assert profile.count(1) == hs.n
        assert profile.count(hs.n) == 1
        assert all(int(c) >= 1 for c in profile.counts)


def test_mds_like_chain_profile():
    hs = HStar.from_equiv_divisor(NumericalSemigroup.from_generators([1]), 5)
    assert tuple(int(c) for c in lambda_profile(hs).counts) == (5, 4, 3, 2, 1)


def test_d_star_running_minimum(suzuki_hstar):
    profile = lambda_profile(suzuki_hstar)
    running = None
    for i in range(1, 65):
        running = profile.count(i) if running is None else \
            min(running, profile.count(i))
        assert d_star(suzuki_hstar, i) == running
        if i > 1:
            assert d_star(suzuki_hstar, i) <= d_star(suzuki_hstar, i - 1)
    assert d_star(suzuki_hstar, 1) == 64
    assert d_star(suzuki_hstar, 55) == 4
    assert d_star(suzuki_hstar, 64) == 1


def test_d_star_f16(f16_hstar):
    assert d_star(f16_hstar, 175) == 2
    assert d_star(f16_hstar, 1) == 212


def test_goppa_compare(suzuki_hstar, f16_hstar, klein_hstar, two_three_hstar):
    rows = goppa_compare(suzuki_hstar)
    assert rows[0].goppa == 64 and rows[0].d_star == 64 and rows[0].equality
    assert rows[1].m == 8 and rows[1].goppa == 56 and rows[1].equality
    # every row satisfies the inequality or goppa_compare would have raised
    for hs in (suzuki_hstar, f16_hstar, klein_hstar, two_three_hstar):
        for row in goppa_compare(hs):
            assert row.d_star >= row.goppa
            if row.m < hs.pi_value() - hs.semigroup.frobenius:
                assert row.equality


def test_goppa_compare_f16_tail(f16_hstar):
    rows = goppa_compare(f16_hstar)
    at210 = [r for r in rows if r.m == 210]
    assert len(at210) == 1
    assert at210[0].goppa == 2
    assert at210[0].d_star == 2


def test_a_set_examples():
    S23 = NumericalSemigroup.from_generators([2, 3])
    assert a_set(S23, 6) == {0, 2, 3, 4, 6}
    assert a_set(S23, 0) == {0}
    S357 = NumericalSemigroup.from_generators([3, 5, 7])
    assert a_set(S357, 10) == {0, 3, 5, 7, 10}
    with pytest.raises(NotAMember):
        a_set(S23, 1)


def test_d_ord_equals_d_star_on_isometry_dual(klein_hstar, suzuki_hstar):
    for hs in (klein_hstar, suzuki_hstar):
        for i in range(1, hs.n + 1):
            assert d_ord(hs, i) == d_star(hs, i)


def test_d_ord_reduction_matches_threshold_form(klein_hstar, two_three_hstar):
    iso = HStar.from_isometry_dual(
        NumericalSemigroup.from_generators([4, 7, 9]), 30)
    for hs in (klein_hstar, two_three_hstar, iso):
        for i in range(1, hs.n + 1):
            assert d_ord(hs, i) == d_ord_threshold(hs, i)


def test_d_ord_at_one_is_n(klein_hstar):
    assert d_ord(klein_hstar, 1) == klein_hstar.n


def test_d_ord_requires_isometry_dual(f16_hstar):
    with pytest.raises(NotIsometryDual):
        d_ord(f16_hstar, 1)


def test_a_count_reflection_identity(klein_hstar, suzuki_hstar):
    # profile count at r equals the A-set size at the mirrored jump value
    for hs in (klein_hstar, suzuki_hstar):
        profile = lambda_profile(hs)
        S = hs.semigroup
        n = hs.n
        for r in range(1, n + 1):
            assert profile.count(r) == len(a_set(S, hs.m(n - r + 1)))


def test_l_set_check(klein_hstar, suzuki_hstar):
    for i in range(1, klein_hstar.n + 1):
        assert l_set_check(klein_hstar, i).identity_holds
    res = l_set_check(suzuki_hstar, 2)
    assert res.identity_holds
    assert lambda_profile(suzuki_hstar).count(2) == 56


def test_l_set_check_genus_zero():
    hs = HStar.from_isometry_dual(NumericalSemigroup.from_generators([1]), 6)
    for i in range(1, 7):
        res = l_set_check(hs, i)
        assert res.l_set == frozenset()
        assert res.identity_holds
        assert lambda_profile(hs).count(i) == hs.n - i + 1


def test_l_set_check_requires_isometry_dual(f16_hstar):
    with pytest.raises(NotIsometryDual):
        l_set_check(f16_hstar, 1)


def test_improved_profile_suzuki(suzuki_hstar):
    prof = improved_profile(suzuki_hstar, 4)
    assert prof.dimension == 58
    assert prof.monotone
    assert prof.indices == tuple(range(1, 59))


def test_improved_profile_delta_one(suzuki_hstar, klein_hstar):
    for hs in (suzuki_hstar, klein_hstar):
        prof = improved_profile(hs, 1)
        assert prof.dimension == hs.n
        assert prof.monotone


def test_improved_profile_non_monotone_case(suzuki_hstar):
    # counts (..., 16, 17, 16, 13, 12, 14, ...) make delta = 14 non-monotone:
    # index 40 qualifies but 38 and 39 do not
    prof = improved_profile(suzuki_hstar, 14)
    assert not prof.monotone
    assert 40 in prof.indices and 38 not in prof.indices


def test_improved_profile_monotone_definition(suzuki_hstar):
    counts = lambda_profile(suzuki_hstar).counts
    for delta in range(1, 65):
        prof = improved_profile(suzuki_hstar, delta)
        expected = all(i < j
                       for i in prof.indices
                       for j in range(1, 65) if counts[j - 1] < delta)
        assert prof.monotone == expected


def test_improved_profile_delta_out_of_range(suzuki_hstar):
    with pytest.raises(DeltaOutOfRange):
        improved_profile(suzuki_hstar, 0)
    with pytest.raises(DeltaOutOfRange):
        improved_profile(suzuki_hstar, 65)


def test_feng_rao_dimension_matches_improved(klein_hstar, suzuki_hstar):
    for hs in (klein_hstar, suzuki_hstar):
        for delta in range(1, hs.n + 1):
            assert feng_rao_improved_dim(hs, delta) == \
                improved_profile(hs, delta).dimension


def test_feng_rao_requires_isometry_dual(f16_hstar):
    with pytest.raises(NotIsometryDual):
        feng_rao_improved_dim(f16_hstar, 2)


def test_ghw_bound_r1_is_d_star(klein_hstar, two_three_hstar):
    for hs in (klein_hstar, two_three_hstar):
        for i in range(1, hs.n + 1):
            assert ghw_bound(hs, i, 1) == d_star(hs, i)


def test_ghw_bound_full_union(klein_hstar, two_three_hstar):
    for hs in (klein_hstar, two_three_hstar):
        assert ghw_bound(hs, hs.n, hs.n) == hs.n


def test_ghw_bound_two_three_pair(two_three_hstar):
    # pairs within 1..4: the union of sets 3 and 4 is {3,4,5,6,7,9}
    assert ghw_bound(two_three_hstar, 4, 2) == 6


def test_ghw_pruned_equals_naive(klein_hstar, two_three_hstar):
    h34 = HStar.from_equiv_divisor(
        NumericalSemigroup.from_generators([3, 4]), 12)
    for hs in (two_three_hstar, h34, klein_hstar):
        for i in range(1, min(12, hs.n) + 1):
            for r in range(1, min(i, 4) + 1):
                assert ghw_bound(hs, i, r) == ghw_bound_naive(hs, i, r)


@st.composite
def small_jump_sets(draw):
    """Jump sets over random semigroups of multiplicity <= 6, with n <= 24."""
    mult = draw(st.integers(2, 6))
    others = draw(st.lists(st.integers(mult + 1, 3 * mult), max_size=3))
    gens = (mult, *others)
    assume(reduce(gcd, gens) == 1)
    S = NumericalSemigroup.from_generators(gens)
    assume(2 * S.genus + 3 <= 24)
    n = draw(st.integers(2 * S.genus + 3, 24))
    build = draw(st.sampled_from([HStar.from_equiv_divisor,
                                  HStar.from_isometry_dual]))
    return build(S, n)


@settings(max_examples=60, deadline=None)
@given(small_jump_sets(), st.data())
def test_ghw_table_matches_subset_brute_force(hs, data):
    pairs = [(r, i) for i in range(1, hs.n + 1) for r in range(1, i + 1)]
    table = {(e.r, e.i): e.bound for e in ghw_table(hs, pairs).entries}
    _, masks = dense_profile(hs)
    union = 0
    for i in range(1, hs.n + 1):
        union |= masks[i - 1]
        assert table[1, i] == d_star(hs, i)
        assert table[i, i] == bin(union).count("1")
        if i <= 12:
            for r in range(1, i + 1):
                assert table[r, i] == ghw_bound_naive(hs, i, r), (r, i)
    for r, i in data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                                   max_size=4)):
        assert ghw_bound(hs, i, r) == table[r, i]


def level_ideal_sweep(hs, pairs):
    """The sweep over ideals one level (one more generator) at a time.

    Ideals are bitmasks over member positions, unions of the masks of
    :func:`dense_profile`.  Level k holds the ideals with k generators, each
    listed once by its antichain: a child adds to its parent a generator
    m_j above the parent's last one and outside it.  The incumbent of a
    requested (r, i) is the least size of a built ideal E with last
    generator index <= i and #(E ∩ M_i) >= r, found by scanning every built
    ideal.  A child is built only while its size is below the incumbent,
    as it stood when its level began, of some requested (r, i) with i >= j
    and r <= i - slack, where slack counts the positions 1..j outside the
    child.  Returns the bounds and the number of ideals built, the count
    the node cap applies to.  Desk scale only.
    """
    _, masks = dense_profile(hs)
    imax = max(i for _, i in pairs)
    built = []

    def incumbent(r, i):
        return min((size for size, last, ideal in built
                    if last <= i and bin(ideal % (1 << i)).count("1") >= r),
                   default=hs.n + 1)

    level = [(0, 0)]
    while level:
        values = {(r, i): incumbent(r, i) for r, i in pairs}
        children = []
        for ideal, last in level:
            for j in range(last + 1, imax + 1):
                if (ideal >> (j - 1)) & 1:
                    continue
                child = ideal | masks[j - 1]
                size = bin(child).count("1")
                slack = j - bin(child % (1 << j)).count("1")
                if any(size < value for (r, i), value in values.items()
                       if i >= j and r <= i - slack):
                    children.append((child, j))
        built += [(bin(child).count("1"), j, child) for child, j in children]
        level = children
    return {(r, i): incumbent(r, i) for r, i in pairs}, len(built)


def test_ghw_node_cap_counts_every_visited_ideal(klein_hstar, suzuki_hstar):
    for hs, pairs in ((klein_hstar, [(2, 9), (3, 12), (4, 15), (6, 20)]),
                      (suzuki_hstar, [(2, 20), (3, 30), (5, 24), (8, 30)])):
        for r, i in pairs:
            values, ideals = level_ideal_sweep(hs, [(r, i)])
            assert ghw_bound(hs, i, r, node_cap=ideals) == values[r, i]
            with pytest.raises(EnumerationCapExceeded):
                ghw_bound(hs, i, r, node_cap=ideals - 1)
        values, ideals = level_ideal_sweep(hs, pairs)
        table = ghw_table(hs, pairs, node_cap=ideals)
        assert {(e.r, e.i): e.bound for e in table.entries} == values
        with pytest.raises(EnumerationCapExceeded):
            ghw_table(hs, pairs, node_cap=ideals - 1)


@settings(max_examples=60, deadline=None)
@given(small_jump_sets(), st.data())
def test_ghw_table_matches_naive_and_level_reference(hs, data):
    # sparse (r, i) sets: gaps between the requested columns and rows
    columns = data.draw(st.lists(st.integers(1, hs.n), min_size=1,
                                 max_size=5, unique=True))
    pairs = [(r, i) for i in columns
             for r in data.draw(st.lists(st.integers(1, i), min_size=1,
                                         max_size=4, unique=True))]
    table = ghw_table(hs, pairs)
    assert [(e.r, e.i) for e in table.entries] == pairs
    values, ideals = level_ideal_sweep(hs, pairs)
    for e in table.entries:
        assert e.bound == values[e.r, e.i], (e.r, e.i)
        if e.i <= 12:
            assert e.bound == ghw_bound_naive(hs, e.i, e.r), (e.r, e.i)
    ghw_table(hs, pairs, node_cap=ideals)
    if ideals > 1:
        with pytest.raises(EnumerationCapExceeded):
            ghw_table(hs, pairs, node_cap=ideals - 1)


def test_ghw_monotonicity(klein_hstar):
    n = klein_hstar.n
    table = {(r, i): ghw_bound(klein_hstar, i, r)
             for i in range(1, 13) for r in range(1, min(i, 4) + 1)}
    for (r, i), v in table.items():
        if (r + 1, i) in table:
            assert v <= table[(r + 1, i)]
        if (r, i + 1) in table:
            assert table[(r, i + 1)] <= v
    assert all(table[(1, i)] == d_star(klein_hstar, i) for i in range(1, 13))


def test_ghw_bound_index_errors(klein_hstar):
    with pytest.raises(IndexOutOfRange):
        ghw_bound(klein_hstar, 3, 4)
    with pytest.raises(IndexOutOfRange):
        ghw_bound(klein_hstar, 0, 0)
    with pytest.raises(IndexOutOfRange):
        ghw_bound(klein_hstar, 24, 1)


def test_ghw_bound_node_cap(suzuki_hstar):
    with pytest.raises(EnumerationCapExceeded) as exc:
        ghw_bound(suzuki_hstar, 40, 12, node_cap=50)
    assert exc.value.cap == 50


@pytest.mark.parametrize("cap", [0, -1])
def test_ghw_node_cap_below_one_is_unsupported(klein_hstar, cap):
    # not EnumerationCapExceeded: no search ran out, none was allowed to start
    with pytest.raises(UnsupportedParameter, match=f"got {cap}"):
        ghw_bound(klein_hstar, 4, 2, node_cap=cap)
    with pytest.raises(UnsupportedParameter, match=f"got {cap}"):
        ghw_table(klein_hstar, [(2, 4), (1, 3)], node_cap=cap)
    with pytest.raises(UnsupportedParameter):
        ghw_table(klein_hstar, [], node_cap=cap)


def test_ghw_r_near_i_answers_under_small_cap():
    # only ideals missing at most i - r of the positions up to their last
    # generator can count, so the sweep must not list the others first
    hs = HStar.from_equiv_divisor(NumericalSemigroup.from_generators([16, 17]),
                                  256)
    _, masks = dense_profile(hs)
    union = reduce(or_, masks)
    all_but_one = min(bin(reduce(or_, masks[:k] + masks[k + 1:])).count("1")
                      for k in range(256))
    assert ghw_bound(hs, 256, 256, node_cap=1000) == bin(union).count("1")
    assert ghw_bound(hs, 256, 255, node_cap=1000) == all_but_one


def test_bound_table_structure(suzuki_hstar, f16_hstar):
    table = bound_table(suzuki_hstar)
    assert all(len(col) == 64 for col in table[1:])
    assert table.m[54] == 69 and table.d_star[54] == 4
    assert table.d_ord[54] == 4  # isometry-dual, so the column is populated
    ftable = bound_table(f16_hstar)
    assert ftable.d_ord is None
    assert table.lambda_count == list(SUZUKI_TRUE_COUNTS)


def test_bound_table_d_ord_column_matches_running_min(klein_hstar):
    table = bound_table(klein_hstar)
    acounts = a_counts_by_index(klein_hstar)
    best = None
    for i, dord, ds in zip(range(1, klein_hstar.n + 1), table.d_ord,
                           table.d_star):
        val = int(acounts[klein_hstar.n - i])
        best = val if best is None else min(best, val)
        assert dord == best == ds


@pytest.mark.parametrize("pairs", [
    [(1, 5), (0, 3), (4, 2)],
    [(2, 5), (3, 2), (1, 24)],
    [(1, 24), (0, 3)],
    [(1, 5), (2, 2 ** 70)],
    [(-2 ** 70, 3), (1, 24)],
    [(np.int64(1), np.uint8(30))],
])
def test_ghw_table_raises_for_the_first_bad_pair(klein_hstar, pairs):
    # the pairs are checked as one array, but the error is the one the
    # per-pair check gives on the first bad pair, whatever its size
    with pytest.raises(IndexOutOfRange) as expected:
        for r, i in pairs:
            _check_pair(klein_hstar, int(r), int(i))
    with pytest.raises(IndexOutOfRange) as exc:
        ghw_table(klein_hstar, pairs)
    assert str(exc.value) == str(expected.value)


def test_ghw_table(klein_hstar):
    pairs = [(1, 5), (2, 5), (2, 8)]
    table = ghw_table(klein_hstar, pairs)
    assert [(e.r, e.i) for e in table.entries] == pairs
    assert table.entries[0].bound == d_star(klein_hstar, 5)
