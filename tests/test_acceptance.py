"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 1 and 2 check the paper's Suzuki example (n = 64 over
<8,10,12,13>, g = 14).  Their expected values were once a verbatim
transcription from the literature, kept below as ``TRANSCRIBED_SEQUENCE``;
it cannot be the profile of any valid jump set:

* 22 entries (indices 4, 5, 13-22, 24, 26-30, 32, 34, 40, 42) fall below the
  Goppa value n - m_i, which the paper proves #Λ*_i never does;
* entry 58 is 3, but Λ*_58 = {73, 81, 83, 91};
* entry 63 is 1, but 91 - 83 = 8 is in H, so Λ*_63 = {83, 91}.

The transcribed m_55 = 70 counted from m_0 (HStar.m is 1-based: m_55 = 69),
and its improved dimension 57 came from the bad entry 58 (the right value is
58).  Criteria 1 and 2 now pin the values that three independent routes agree
on (direct set intersection, the A-set identity, the shifted-gap identity);
``test_golden_sequence_transcription_is_internally_inconsistent`` keeps the
reasons for the correction executable.  The whole suite passes.
"""

import time
from contextlib import contextmanager

import numpy as np

from agb import (HStar, NumericalSemigroup, d_star, feng_rao_improved_dim,
                 hermitian_table, improved_profile, lambda_profile, lambda_star)
from agb.bounds import a_counts_by_index, d_ord, goppa_compare, l_set_check
from agb.verify import run_verification

from conftest import SUZUKI_TRUE_COUNTS, sieve_membership

# verbatim transcription of the 64-entry reference profile sequence; not a
# valid profile (see the module docstring), kept as the record of what
# criterion 1 used to assert
TRANSCRIBED_SEQUENCE = (
    64, 56, 54, 50, 49, 48, 46, 44, 43, 42, 41, 40, 38, 36, 35, 34, 33, 32,
    31, 30, 29, 28, 28, 26, 26, 24, 23, 22, 21, 20, 21, 18, 20, 16, 18, 16,
    14, 13, 14, 10, 14, 8, 13, 10, 10, 9, 9, 6, 9, 8, 4, 6, 5, 5, 4, 6, 5,
    3, 2, 3, 3, 2, 1, 1,
)


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except Exception:
        print(f"[criterion {num}] FAIL - {title}")
        raise
    print(f"[criterion {num}] PASS - {title}")


def test_criterion_01_suzuki_golden_sequence(suzuki_hstar):
    with criterion(1, "Suzuki profile equals the 64-entry reference sequence"):
        start = time.perf_counter()
        profile = lambda_profile(suzuki_hstar)
        counts = tuple(int(c) for c in profile.counts)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        iso = HStar.from_isometry_dual(suzuki_hstar.semigroup, 64)
        assert iso == suzuki_hstar  # symmetric semigroup: both routes agree
        assert counts == SUZUKI_TRUE_COUNTS


def test_criterion_02_suzuki_derived_values(suzuki_hstar):
    with criterion(2, "Suzuki derived values m_55, d*(55), improved dim"):
        assert d_star(suzuki_hstar, 55) == 4
        assert suzuki_hstar.m(55) == 69
        assert improved_profile(suzuki_hstar, 4).dimension == 58
        # independent routes: div(x^8 + x) = D - 64P forces
        # H* = {h in H : h - 64 not in H}, read off the sieve up to n+2g-1 = 91;
        # the improved dimension counts reference entries >= delta = 4
        mem = sieve_membership([8, 10, 12, 13], 91)
        jumps = [h for h in range(92) if mem[h] and not (h >= 64 and mem[h - 64])]
        assert len(jumps) == 64
        assert jumps[55 - 1] == 69
        assert sum(1 for c in SUZUKI_TRUE_COUNTS if c >= 4) == 58


def test_criterion_03_klein_quartic(klein_hstar):
    with criterion(3, "Klein quartic jump set and isometry-dual flag"):
        expected = (0, 3) + tuple(range(5, 24)) + (25, 28)
        assert klein_hstar.members == expected
        assert klein_hstar.is_isometry_dual()


def test_criterion_04_f16_curve(f16_hstar):
    with criterion(4, "length-212 code over GF(16): dimension 175 at m=224, "
                      "d*(175) = 2"):
        assert f16_hstar.semigroup.genus == 49
        dim_at_224 = sum(1 for m in f16_hstar.members if m <= 224)
        assert dim_at_224 == 175
        assert d_star(f16_hstar, 175) == 2


def _family_instances(small_family):
    for S in small_family:
        g = S.genus
        for n in range(2 * g + 3, 2 * g + 41):
            yield S, n


def test_criterion_05_identity_suite(small_family):
    with criterion(5, "A-set / shifted-gap / order-bound / improved-dimension "
                      "identities over the full small family"):
        start = time.perf_counter()
        instances = 0
        for S, n in _family_instances(small_family):
            hs = HStar.from_isometry_dual(S, n)
            profile = lambda_profile(hs)
            counts = np.asarray(profile.counts)
            acounts = a_counts_by_index(hs)

            # profile count at r equals the A-set size at the mirrored jump
            assert np.array_equal(counts, acounts[::-1])

            # shifted-gap identity: count(i) = n - i + 1 - #(L_i in H*)
            top = n + 2 * S.genus - 1
            hsmask = np.zeros(top + 1, dtype=bool)
            hsmask[list(hs.members)] = True
            if S.gaps:
                lsets = hs.members_array()[:, None] + np.array(S.gaps)[None, :]
                overlap = ((lsets <= top) & hsmask[np.minimum(lsets, top)]).sum(axis=1)
            else:
                overlap = np.zeros(n, dtype=np.int64)
            assert np.array_equal(counts, n - np.arange(1, n + 1) + 1 - overlap)

            # the two running minima agree at every index
            assert np.array_equal(np.minimum.accumulate(counts),
                                  np.minimum.accumulate(acounts[::-1]))

            # improved dimensions agree for every designed distance
            deltas = np.arange(1, n + 1)
            dim_primary = (counts[None, :] >= deltas[:, None]).sum(axis=1)
            dim_dual = n - (acounts[None, :] < deltas[:, None]).sum(axis=1)
            assert np.array_equal(dim_primary, dim_dual)
            instances += 1

        # pin the scalar public API to the vectorized checks on spot indices
        S = small_family[len(small_family) // 2]
        hs = HStar.from_isometry_dual(S, 2 * S.genus + 9)
        for i in (1, hs.n // 2, hs.n):
            assert d_ord(hs, i) == d_star(hs, i)
            assert l_set_check(hs, i).identity_holds
        for delta in (1, 2, hs.n):
            assert feng_rao_improved_dim(hs, delta) == \
                improved_profile(hs, delta).dimension

        elapsed = time.perf_counter() - start
        assert instances == len(small_family) * 38
        assert elapsed < 30.0, f"identity suite took {elapsed:.1f}s"


def test_criterion_06_goppa_suite(small_family):
    with criterion(6, "Goppa comparison over the full small family"):
        for S, n in _family_instances(small_family):
            hs = HStar.from_isometry_dual(S, n)
            pi = hs.pi_value()
            lg = S.frobenius
            # goppa_compare raises on any violation of the inequality or of
            # forced equality; also re-check the flags it reports
            for row in goppa_compare(hs):
                assert row.d_star >= row.goppa
                if row.m < pi - lg:
                    assert row.equality


def test_criterion_07_hermitian_q0_2_oracle_suite():
    with criterion(7, "brute-force oracle suite on the length-8 Hermitian "
                      "code chain over GF(4)"):
        start = time.perf_counter()
        checks = run_verification(hermitian_table(2), ghw_r=2)
        names = {c["name"] for c in checks}
        assert "hstar-matches-construction" in names
        assert {f"dstar-m{m}" for m in range(10)} <= names
        assert {f"generic-m{m}" for m in range(10)} <= names
        assert {f"goppa-m{m}" for m in range(8)} <= names
        assert any(n.startswith("ghw-") for n in names)
        assert {f"improved-delta{d}" for d in range(1, 9)} <= names
        assert "isometry-witness" in names
        assert "biorthogonal-adjust" in names
        failed = [c for c in checks if not c["ok"]]
        assert not failed, failed
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_08_hermitian_q0_3_oracle_suite():
    with criterion(8, "brute-force oracle suite on the length-27 Hermitian "
                      "code chain over GF(9), dimensions <= 7"):
        start = time.perf_counter()
        checks = run_verification(hermitian_table(3), max_dim=7)
        names = {c["name"] for c in checks}
        assert "hstar-matches-construction" in names
        hstar_check = next(c for c in checks
                           if c["name"] == "hstar-matches-construction")
        assert hstar_check["ok"]
        # dimensions 1..7 live at budgets m = 0, 3, 4, 6, 7, 8, 9
        assert {f"dstar-m{m}" for m in (0, 3, 4, 6, 7, 8, 9)} <= names
        failed = [c for c in checks if not c["ok"]]
        assert not failed, failed
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"suite took {elapsed:.1f}s"


def test_golden_sequence_transcription_is_internally_inconsistent(suzuki_hstar):
    """Why criterion 1 no longer pins the transcription (not a criterion).

    The computed profile agrees with both identity routes at every index;
    the transcription breaks the Goppa inequality and miscounts two sets,
    so it cannot be the profile of this jump set under any implementation.
    """
    S = suzuki_hstar.semigroup
    n = suzuki_hstar.n
    profile = lambda_profile(suzuki_hstar)
    counts = tuple(int(c) for c in profile.counts)
    a_route = tuple(int(c) for c in a_counts_by_index(suzuki_hstar)[::-1])
    l_route = tuple(
        n - i + 1 - len(frozenset(suzuki_hstar.m(i) + l for l in S.gaps)
                        & suzuki_hstar.member_set)
        for i in range(1, n + 1)
    )
    assert counts == a_route == l_route
    assert TRANSCRIBED_SEQUENCE != a_route
    # #Λ*_i >= d*(i) >= n - m_i at every index; e.g. entry 4 is 50 but
    # m_4 = 12 forces at least 52
    below_goppa = [i for i in range(1, n + 1)
                   if TRANSCRIBED_SEQUENCE[i - 1] < n - suzuki_hstar.m(i)]
    assert below_goppa == [4, 5, *range(13, 23), 24, *range(26, 31),
                           32, 34, 40, 42]
    # entry 58 counts three of the four members of Λ*_58
    assert TRANSCRIBED_SEQUENCE[57] == 3
    assert lambda_star(suzuki_hstar, 58) == {73, 81, 83, 91}
    # entry 63: 91 - 83 = 8 is in H, so Λ*_63 = {83, 91} and A[8] = {0, 8}
    assert TRANSCRIBED_SEQUENCE[62] == 1
    assert lambda_star(suzuki_hstar, 63) == {83, 91}
    assert a_route[62] == 2


def test_no_suzuki_jump_set_has_the_transcribed_profile():
    """The transcription fits no length-64 jump set over <8,10,12,13>.

    Below n = 64 a jump set is all of H; at and above it, the members left
    out of H ∩ [64, 91] form an up-closed set (m absent forces m + h absent),
    and exactly 14 of the 28 are left out.  Every such set is listed.
    """
    gens = [8, 10, 12, 13]
    S = NumericalSemigroup.from_generators(gens)
    mem = sieve_membership(gens, 91)
    low = [h for h in range(64) if mem[h]]
    tail = [h for h in range(64, 92) if mem[h]]
    assert len(tail) == 28
    removals = []

    def walk(pos, removed):
        # from the top down, x may leave once every x + h above it has left
        if len(removed) == 14:
            removals.append(removed)
        elif pos >= 0:
            x = tail[pos]
            walk(pos - 1, removed)
            if all(y in removed for y in tail[pos + 1:] if mem[y - x]):
                walk(pos - 1, removed | {x})

    walk(len(tail) - 1, frozenset())
    assert len(removals) == 344
    profiles = []
    for removed in removals:
        hs = HStar.from_explicit(
            S, 64, low + [h for h in tail if h not in removed])
        profiles.append(tuple(int(c) for c in lambda_profile(hs).counts))
    assert SUZUKI_TRUE_COUNTS in profiles
    assert TRANSCRIBED_SEQUENCE not in profiles
    assert min(counts[3] for counts in profiles) >= 52
