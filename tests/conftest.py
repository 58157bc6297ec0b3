from functools import reduce
from itertools import combinations, product
from math import gcd
from operator import or_

import numpy as np
import pytest

from agb import FieldMatrix, HStar, NumericalSemigroup, hermitian_table, rref

# #Λ*_i for i = 1..64 on the Suzuki jump set over <8,10,12,13>, n = 64.
# Independently derived (reachability sieve + direct set intersection, also
# confirmed through the A-set and shifted-gap identities); every entry is at
# least the Goppa value n - m_i.
SUZUKI_TRUE_COUNTS = (
    64, 56, 54, 52, 51, 48, 46, 44, 43, 42, 41, 40, 39, 38, 36, 35, 34, 33,
    32, 31, 30, 29, 28, 28, 26, 25, 24, 23, 22, 21, 20, 21, 18, 19, 16, 17,
    16, 13, 12, 14, 10, 13, 8, 12, 10, 9, 8, 8, 6, 8, 7, 4, 5, 4, 4, 4, 5,
    4, 3, 2, 2, 2, 2, 1,
)


def sieve_membership(gens, bound):
    """Independent reachability sieve; the reference oracle for semigroups."""
    mem = [False] * (bound + 1)
    mem[0] = True
    for i in range(1, bound + 1):
        mem[i] = any(i >= g and mem[i - g] for g in gens)
    return mem


def dense_profile(hs):
    """The profile from the full n x n difference matrix; reference oracle.

    Returns the counts #((m_i + H) ∩ H*) for i = 1..n and, for each i, the
    bitmask whose bit j-1 is set iff m_j - m_i is a semigroup member.  Needs
    O(n^2) memory, so it is for desk-scale jump sets only.
    """
    members = hs.members_array()
    in_h = np.array(sieve_membership(hs.semigroup.generators, int(members[-1])))
    diff = members[None, :] - members[:, None]
    ok = (diff >= 0) & in_h[np.maximum(diff, 0)]
    packed = np.packbits(ok, axis=1, bitorder="little")
    masks = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
    return tuple(int(c) for c in ok.sum(axis=1)), masks


def ghw_bound_naive(hs, i, r):
    """d*_r(i) by plain enumeration over all r-subsets of the sets 1..i.

    The brute-force subset reference for the library's sweep over ideals,
    built on the masks of :func:`dense_profile`.  Desk scale only.
    """
    masks = dense_profile(hs)[1][:i]
    return min(bin(reduce(or_, sub)).count("1")
               for sub in combinations(masks, r))


def nu_reference(fld, basis, v):
    """nu by ranks alone: the least i such that b_1..b_i plus v has rank i.

    The reference for ``CodeChain.nu``; it shares no code with the chain's
    coordinates.  Returns 0 for the zero vector.
    """
    basis = np.asarray(basis, dtype=np.int32)
    for i in range(basis.shape[0] + 1):
        stacked = np.vstack([basis[:i], np.asarray(v, dtype=np.int32)[None, :]])
        if rref(FieldMatrix(fld, stacked)).rank == i:
            return i
    raise ValueError("v lies outside the span of the basis")


def span_reference(fld, rows):
    """Row space of rows as a set of tuples, from every coefficient vector.

    The reference for ``rref``: plain enumeration of all q^k combinations,
    with no elimination, so only for q^k <= 4096.
    """
    rows = np.asarray(rows, dtype=np.int32)
    k = rows.shape[0]
    assert fld.q ** k <= 4096
    coefs = np.array(list(product(range(fld.q), repeat=k)),
                     dtype=np.int32).reshape(fld.q ** k, k)
    words = fld.sum_field(fld.mul_arrays(coefs[:, :, None], rows[None]), axis=1)
    return {tuple(int(v) for v in word) for word in words}


@pytest.fixture(scope="session")
def suzuki():
    return NumericalSemigroup.from_generators([8, 10, 12, 13])


@pytest.fixture(scope="session")
def suzuki_hstar(suzuki):
    return HStar.from_equiv_divisor(suzuki, 64)


@pytest.fixture(scope="session")
def klein_hstar():
    S = NumericalSemigroup.from_generators([3, 5, 7])
    return HStar.from_isometry_dual(S, 23)


@pytest.fixture(scope="session")
def f16_hstar():
    """Length-212 jump set over <14,15,22> with the shortened-divisor tail."""
    S = NumericalSemigroup.from_generators([14, 15, 22])
    members = [m for m in range(212) if S.contains(m)]
    members += [210 + l for l in S.gaps if l >= 2]
    members.append(225)
    return HStar.from_explicit(S, 212, members)


@pytest.fixture(scope="session")
def herm2_table():
    return hermitian_table(2)


@pytest.fixture(scope="session")
def herm3_table():
    return hermitian_table(3)


@pytest.fixture(scope="session")
def small_family():
    """Every distinct semigroup generated by a subset of {2..15} with genus <= 10."""
    seen = {}
    base = range(2, 16)
    for size in range(1, len(list(base)) + 1):
        for combo in combinations(range(2, 16), size):
            if reduce(gcd, combo) != 1:
                continue
            S = NumericalSemigroup.from_generators(combo)
            if S.genus <= 10 and S.gaps not in seen:
                seen[S.gaps] = S
    return sorted(seen.values(), key=lambda s: (s.genus, s.gaps))
