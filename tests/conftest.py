from functools import reduce
from itertools import combinations, product
from math import gcd
from operator import or_

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from agb import (FieldMatrix, HStar, NumericalSemigroup, field,
                 hermitian_table, rref)
from agb.errors import (ClosureViolation, DependentInput, LowRangeMismatch,
                        MatrixShapeMismatch, NotSubsetOfH, WrongCardinality)
from agb.evalcode import EvaluationTable
from agb.hstar import _require_length

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


def profile_counts_per_gap(hs):
    """The profile counts by the shifted-gap identity, one pass per gap.

    count(i) = (n - i + 1) - #((m_i + gaps) ∩ H*), with each gap adding its
    hits over a membership vector of H*; the reference for the library's
    one pass per run of gaps.
    """
    members = hs.members_array()
    in_hstar = np.zeros(int(members[-1]) + hs.semigroup.conductor + 1,
                        dtype=bool)
    in_hstar[members] = True
    shifted_hits = np.zeros(hs.n, dtype=np.int64)
    for gap in hs.semigroup.gaps:
        shifted_hits += in_hstar[members + gap]
    return np.arange(hs.n, 0, -1) - shifted_hits


def a_counts_convolved(hs):
    """#A(m_i) for every jump value, the gap pairs by one self-convolution.

    #A(h) = h + 1 - 2 #{gaps <= h} + #{(l, l') gaps : l + l' = h}, with the
    pairs read off the O(c^2) convolution of the gap indicator; the
    reference for the library's prefix sums over runs of gaps.
    """
    S = hs.semigroup
    c = S.conductor
    gap = (~S.membership_mask(c)[: c + 1]).astype(np.int64)
    below = np.cumsum(gap)
    pairs = np.convolve(gap, gap)
    h = hs.members_array()
    return h + 1 - 2 * below[np.minimum(h, c)] + pairs[np.minimum(h, 2 * c)]


def validate_per_m(semigroup, n, members):
    """Every invariant of a sorted jump set, closure one absent m at a time.

    The reference for ``agb.hstar._validate``: the same checks in the same
    order with the same messages, but each absent m in [n, n+2g-1] is
    checked by its own pass over the jump set.  It also re-counts the
    members in [n, n+2g-1], which the checks before the count force to g.
    """
    _require_length(semigroup, n)
    g = semigroup.genus
    top = n + 2 * g - 1
    members = np.asarray(members, dtype=np.int64)
    if len(members) != n:
        raise WrongCardinality(f"expected {n} members, got {len(members)}")
    repeats = [a for a, b in zip(members.tolist(), members[1:].tolist())
               if a == b]
    if repeats:
        raise WrongCardinality(f"members repeat: {repeats[0]}")
    if len(members) and (members[0] < 0 or members[-1] > top):
        raise NotSubsetOfH(f"members must lie in [0, {top}]")
    mask = semigroup.membership_mask(top)
    if not mask[members].all():
        raise NotSubsetOfH("members must belong to the semigroup")
    in_set = np.zeros(top + 1, dtype=bool)
    in_set[members] = True
    if not np.array_equal(in_set[:n], mask[:n]):
        raise LowRangeMismatch(
            "below n the jump set must match the semigroup exactly"
        )
    if int(in_set[n:].sum()) != g:
        raise WrongCardinality(f"expected {g} members in [{n}, {top}]")
    for m in range(n, top + 1):
        if in_set[m]:
            continue
        # all m' in [m, top] with m' - m a member must be absent
        reach = mask[: top - m + 1]
        if np.any(in_set[m: top + 1] & reach):
            bad = int(np.nonzero(in_set[m: top + 1] & reach)[0][0])
            raise ClosureViolation(
                f"{m} is absent but {m + bad} = {m} + {bad} is present"
            )
    return members


@st.composite
def semigroup_and_length(draw):
    """A semigroup of multiplicity <= 7 and a length 2g+3 <= n <= 2g+40."""
    mult = draw(st.integers(1, 7))
    others = draw(st.lists(st.integers(mult + 1, 5 * mult + 10),
                           max_size=3, unique=True))
    gens = [mult, *others]
    assume(reduce(gcd, gens) == 1)
    S = NumericalSemigroup.from_generators(gens)
    return S, draw(st.integers(2 * S.genus + 3, 2 * S.genus + 40))


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
    terms = fld.mul_arrays(coefs[:, :, None], rows[None])
    words = reduce(fld.add_arrays, np.moveaxis(terms, 1, 0),
                   np.zeros((fld.q ** k, rows.shape[1]), dtype=np.int32))
    return {tuple(int(v) for v in word) for word in words}


def matmul_reference(fld, a, b):
    """Field matrix product by plain Python, one scalar sum per entry; the
    reference for ``FiniteField.matmul``."""
    inner, cols = np.shape(b)
    a = np.asarray(a).tolist()
    b = np.asarray(b).tolist()
    out = [[0] * cols for _ in a]
    for i, row in enumerate(a):
        for j in range(cols):
            for t in range(inner):
                out[i][j] = fld.add(out[i][j], fld.mul(row[t], b[t][j]))
    return out


# q0 -> (p, k) of GF(q0^2), written out for the per-point reference
HERMITIAN_FIELDS = {2: (2, 2), 3: (3, 2), 4: (2, 4), 5: (5, 2)}


def hermitian_table_per_point(q0):
    """The Hermitian table by scalar field calls, one point and one value at
    a time; the reference for ``hermitian_table``'s array steps."""
    fld = field(*HERMITIAN_FIELDS[q0])
    pts = []
    for x in fld.elements():
        rhs = fld.pow(x, q0 + 1)
        for y in fld.elements():
            if fld.add(fld.pow(y, q0), y) == rhs:
                pts.append((x, y))
    S = NumericalSemigroup.from_generators((q0, q0 + 1))
    top = len(pts) + 2 * S.genus - 1
    functions = []
    for pole in S.elements_up_to(top):
        b = pole % q0
        a = (pole - b * (q0 + 1)) // q0
        row = [fld.mul(fld.pow(x, a), fld.pow(y, b)) for x, y in pts]
        functions.append((pole, row))
    labels = [f"({x},{y})" for x, y in pts]
    return EvaluationTable(fld, labels, functions, S)


def dot(fld, u, v) -> int:
    """Field inner product of two equal-length vectors."""
    return reduce(fld.add, (int(x) for x in fld.mul_arrays(u, v)), 0)


def star(fld, u, v):
    """Componentwise product of two vectors."""
    return fld.mul_arrays(u, v)


def triangular_basis(chain, vectors) -> list:
    """Rewrite independent vectors to share their span with distinct nu.

    nu is the last nonzero coordinate in the chain's basis, so with the
    coordinates reversed distinct nu are distinct pivots: one ``rref`` gives
    the new basis, which comes back sorted by nu.
    """
    fld = chain.field
    vectors = np.asarray(vectors, dtype=np.int32)
    if vectors.size and vectors.shape[-1] != chain.n:
        raise MatrixShapeMismatch(f"expected vectors of length {chain.n}")
    inverse = chain.dual_rows(()).T   # the dual of no rows is all of B^-1
    coords = fld.matmul(vectors.reshape(-1, chain.n), inverse)
    red = rref(FieldMatrix(fld, coords[:, ::-1]))
    if red.rank < coords.shape[0]:
        raise DependentInput("input vectors are linearly dependent")
    return list(fld.matmul(red.matrix.data[::-1, ::-1], chain.basis))


def isometry_witness_reference(fld, basis):
    """The isometry witness of a chain by plain Python, or None.

    x must satisfy sum_c x_c b_a[c] b_b[c] = 0 for every pair of rows with
    a + b <= n (1-based).  Each such constraint is reduced against the ones
    kept so far, in scalar field arithmetic on lists; every combination of
    the solutions is then tried for one with no zero entry, scaled so that
    its last entry is 1.  The reference for ``find_isometry_vector``: it
    takes no inverse and assumes nothing of the first row.
    """
    add = [[fld.add(u, v) for v in fld.elements()] for u in fld.elements()]
    mul = [[fld.mul(u, v) for v in fld.elements()] for u in fld.elements()]
    neg = [row.index(0) for row in add]
    rows = [[int(v) for v in row] for row in np.asarray(basis)]
    n = len(rows)
    kept = {}   # pivot column -> constraint, 1 there and 0 at other pivots
    for a in range(n):
        for b in range(a, n - a - 1):
            con = [mul[u][v] for u, v in zip(rows[a], rows[b])]
            for c, row in kept.items():
                if con[c]:
                    f = neg[con[c]]
                    con = [add[u][mul[f][v]] for u, v in zip(con, row)]
            pivot = next((c for c in range(n) if con[c]), None)
            if pivot is None:
                continue
            scale = fld.inv(con[pivot])
            con = [mul[scale][u] for u in con]
            for c, row in kept.items():
                if row[pivot]:
                    f = neg[row[pivot]]
                    kept[c] = [add[u][mul[f][v]] for u, v in zip(row, con)]
            kept[pivot] = con
    free = [c for c in range(n) if c not in kept]
    assert fld.q ** len(free) <= 4096
    for coefs in product(range(fld.q), repeat=len(free)):
        x = [0] * n
        for c, t in zip(free, coefs):
            x[c] = t
        for c, row in kept.items():
            total = 0
            for j in free:
                total = add[total][mul[row[j]][x[j]]]
            x[c] = neg[total]
        if all(x):
            scale = fld.inv(x[-1])
            return tuple(mul[scale][v] for v in x)
    return None


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
def herm4_table():
    return hermitian_table(4)


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
