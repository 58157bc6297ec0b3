import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agb import (CodeChain, FieldMatrix, SearchBudget, code, code_chain, dual,
                 empirical_hstar, field, find_isometry_vector, hermitian_table,
                 min_distance, oracle, rref, weight_hierarchy)
from agb.gf import field_array
from agb.errors import (AgbError, BudgetExceeded, IndexOutOfRange,
                        InvalidSearchBudget, ZeroInFirstRow)
from agb.evalcode import chain_matrix
from agb.oracle import gaussian_binomial
from conftest import dot, isometry_witness_reference, star
from test_gf import field_matrices


def all_codewords(fld, rows):
    """Plain nested-loop enumeration; the oracle for the oracle."""
    from itertools import product
    rows = np.asarray(rows, dtype=np.int32)
    out = []
    for msg in product(range(fld.q), repeat=rows.shape[0]):
        v = np.zeros(rows.shape[1], dtype=np.int32)
        for lam, row in zip(msg, rows):
            if lam:
                v = fld.add_arrays(v, fld.scale_array(lam, row))
        out.append(v)
    return out


def test_repetition_code():
    f4 = field(2, 2)
    M = FieldMatrix(f4, [[1] * 8])
    assert min_distance(M) == 8


def test_full_space():
    f4 = field(2, 2)
    M = FieldMatrix(f4, np.eye(8, dtype=np.int32))
    assert min_distance(M) == 1


def test_min_distance_matches_naive_enumeration():
    rng = random.Random(808)
    for p, k, n, dim in ((2, 2, 6, 3), (3, 2, 5, 2), (2, 1, 7, 4)):
        fld = field(p, k)
        rows = [[rng.randrange(fld.q) for _ in range(n)] for _ in range(dim)]
        M = FieldMatrix(fld, rows)
        if rref(M).rank == 0:
            continue
        fast = min_distance(M)
        slow = min(int((v != 0).sum()) for v in all_codewords(fld, rows)
                   if v.any())
        assert fast == slow


def test_min_distance_dependent_rows_are_fine():
    f4 = field(2, 2)
    M = FieldMatrix(f4, [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]])
    assert min_distance(M) == 2


def test_min_distance_budget():
    # a full-rank [16, 8] code over GF(9): its dual is no smaller, so the
    # search lists the code's own monic codewords
    f9 = field(3, 2)
    rng = random.Random(16)
    parity = [[rng.randrange(9) for _ in range(8)] for _ in range(8)]
    M = FieldMatrix(f9, np.hstack([np.eye(8, dtype=np.int32), parity]))
    with pytest.raises(BudgetExceeded) as exc:
        min_distance(M, SearchBudget(max_subspaces=100))
    assert exc.value.required == (9 ** 8 - 1) // 8


def test_budget_counts_the_monic_codewords_listed():
    # [I_5 | I_5] over GF(4), k = 5 = n - k: the search lists
    # (4^5 - 1)/3 = 341 monic codewords
    eye = np.eye(5, dtype=np.int32)
    M = FieldMatrix(field(2, 2), np.hstack([eye, eye]))
    assert min_distance(M, SearchBudget(341)) == 2
    with pytest.raises(BudgetExceeded) as exc:
        min_distance(M, SearchBudget(340))
    assert exc.value.required == 341
    assert "subspaces" in str(exc.value)


def test_whole_space_needs_no_search():
    # the dual of GF(9)^8 is zero, so d_1 = 1 lists nothing, under any cap
    M = FieldMatrix(field(3, 2), np.eye(8, dtype=np.int32))
    assert min_distance(M, SearchBudget(100)) == 1
    assert weight_hierarchy(M, 5, SearchBudget(1)) == 5


def test_budget_reports_the_cheaper_route():
    # [I_6 | P] over GF(4): directly (4^6 - 1)/3 = 1365 monic codewords,
    # through the 2-dimensional dual at most [2, 2]_4 + [2, 1]_4 = 6 planes
    rng = random.Random(6)
    parity = [[rng.randrange(1, 4) for _ in range(2)] for _ in range(6)]
    M = FieldMatrix(field(2, 2), np.hstack([np.eye(6, dtype=np.int32), parity]))
    assert min_distance(M, SearchBudget(6)) == min_distance(M)
    with pytest.raises(BudgetExceeded) as exc:
        min_distance(M, SearchBudget(5))
    assert exc.value.required == 6
    # [I_5 | 1] over GF(2) at r = 1: 31 words directly, while the
    # 4-dimensional dual could list 15 + 35 + 15 + 1 = 66 subspaces
    ones = np.ones((5, 4), dtype=np.int32)
    M = FieldMatrix(field(2, 1), np.hstack([np.eye(5, dtype=np.int32), ones]))
    with pytest.raises(BudgetExceeded) as exc:
        min_distance(M, SearchBudget(30))
    assert exc.value.required == 31


def test_min_distance_zero_code_rejected():
    f4 = field(2, 2)
    zero = FieldMatrix(f4, np.zeros((2, 5), dtype=np.int32))
    with pytest.raises(ValueError):
        min_distance(zero)
    with pytest.raises(IndexOutOfRange):
        min_distance(zero)


def test_weight_hierarchy_rejects_r_outside_dimension(herm2_table):
    c = code(herm2_table, 2)      # dimension 2
    for r in (0, 3):
        with pytest.raises(IndexOutOfRange):
            weight_hierarchy(c.matrix, r)


def test_hermitian_code_distance_against_bounds(herm2_table):
    from agb import d_star
    hs = empirical_hstar(herm2_table)
    for m in range(10):
        c = code(herm2_table, m)
        if c.dimension == 0:
            continue
        d_true = min_distance(c.matrix)
        assert d_true >= d_star(hs, c.dimension)
        if m < 8:
            assert d_true >= 8 - m


def test_gaussian_binomial():
    assert gaussian_binomial(5, 2, 4) == 5797
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 4, 3) == 1


def test_weight_hierarchy_r1_is_min_distance(herm2_table):
    for m in (3, 4, 5):
        c = code(herm2_table, m)
        assert weight_hierarchy(c.matrix, 1) == min_distance(c.matrix)


def test_weight_hierarchy_full_rank_is_support(herm2_table):
    c = code(herm2_table, 5)
    red = rref(c.matrix)
    support = int((red.matrix.data[: red.rank] != 0).any(axis=0).sum())
    assert weight_hierarchy(c.matrix, red.rank) == support


def test_weight_hierarchy_matches_naive_subspace_scan():
    # dimension-2 code over GF(4): enumerate all 1-dim subspaces by hand
    fld = field(2, 2)
    rows = [[1, 0, 1, 2, 3], [0, 1, 1, 1, 0]]
    M = FieldMatrix(fld, rows)
    words = [v for v in all_codewords(fld, rows) if v.any()]
    d1 = min(int((v != 0).sum()) for v in words)
    assert weight_hierarchy(M, 1) == d1
    d2 = int((np.stack(rows) != 0).any(axis=0).sum())
    assert weight_hierarchy(M, 2) == d2


def test_weight_hierarchy_is_strictly_increasing(herm2_table):
    c = code(herm2_table, 5)  # dimension 5
    values = [weight_hierarchy(c.matrix, r) for r in range(1, 6)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] <= 8


def test_weight_hierarchy_budget(herm2_table):
    c = code(herm2_table, 4)      # [8, 4]: the dual is no smaller
    with pytest.raises(BudgetExceeded) as exc:
        weight_hierarchy(c.matrix, 2, SearchBudget(max_subspaces=10))
    assert exc.value.required == gaussian_binomial(4, 2, 4) == 357


def test_dual_rank_nullity(herm2_table):
    for m in range(10):
        c = code(herm2_table, m)
        D = dual(c.matrix)
        assert D.nrows == 8 - c.dimension
        # orthogonality
        fld = herm2_table.field
        for i in range(c.matrix.nrows):
            for j in range(D.nrows):
                assert dot(fld, c.matrix.data[i], D.data[j]) == 0


def test_dual_of_full_space_is_zero():
    f4 = field(2, 2)
    M = FieldMatrix(f4, np.eye(5, dtype=np.int32))
    assert dual(M).nrows == 0


def test_bidual_identity():
    rng = random.Random(2717)
    f9 = field(3, 2)
    rows = [[rng.randrange(9) for _ in range(6)] for _ in range(3)]
    M = FieldMatrix(f9, rows)
    dd = dual(dual(M))
    a, b = rref(M), rref(dd)
    assert a.matrix.data[: a.rank].tolist() == b.matrix.data[: b.rank].tolist()


def test_isometry_vector_hermitian(herm2_table):
    chain = CodeChain(herm2_table.field, chain_matrix(herm2_table).data)
    x = find_isometry_vector(chain)
    assert x is not None
    assert len(x) == 8
    assert all(v != 0 for v in x)
    assert empirical_hstar(herm2_table).is_isometry_dual()


def test_isometry_scaling_preserves_weight(herm2_table):
    fld = herm2_table.field
    chain = CodeChain(fld, chain_matrix(herm2_table).data)
    x = np.array(find_isometry_vector(chain), dtype=np.int32)
    rng = random.Random(1)
    for _ in range(100):
        v = np.array([rng.randrange(4) for _ in range(8)], dtype=np.int32)
        assert int((star(fld, x, v) != 0).sum()) == int((v != 0).sum())


def test_isometry_maps_chain_to_mirror_duals(herm2_table):
    fld = herm2_table.field
    basis = chain_matrix(herm2_table).data
    chain = CodeChain(fld, basis)
    x = np.array(find_isometry_vector(chain), dtype=np.int32)
    n = 8
    for i in range(0, n + 1):
        scaled = np.stack([star(fld, x, basis[a]) for a in range(i)]) \
            if i else np.zeros((0, n), dtype=np.int32)
        mirror = dual(FieldMatrix(fld, basis[: n - i])) if n - i else \
            FieldMatrix(fld, np.eye(n, dtype=np.int32))
        left = rref(FieldMatrix(fld, scaled)) if i else None
        right = rref(mirror)
        if i:
            assert left.rank == right.rank == i
            assert left.matrix.data[: i].tolist() == \
                right.matrix.data[: i].tolist()


def test_isometry_dual_transport(herm2_table):
    # a witness carrying C onto D also carries the dual of D onto the dual of C
    fld = herm2_table.field
    basis = chain_matrix(herm2_table).data
    chain = CodeChain(fld, basis)
    x = np.array(find_isometry_vector(chain), dtype=np.int32)
    C = FieldMatrix(fld, basis[:3])
    D = FieldMatrix(fld, np.stack([star(fld, x, row) for row in basis[:3]]))
    lhs_rows = [star(fld, x, row) for row in dual(D).data]
    lhs = rref(FieldMatrix(fld, np.stack(lhs_rows)))
    rhs = rref(dual(C))
    assert lhs.matrix.data[: lhs.rank].tolist() == \
        rhs.matrix.data[: rhs.rank].tolist()


@pytest.mark.parametrize("n", [3, 16])
def test_isometry_witness_needs_a_first_row_without_zeros(n):
    # the identity chain's b_1 = e_1 leaves x_2..x_n unconstrained by the
    # pairings with b_1, so the witness is not read off it; the chain is
    # rejected before any product is formed
    f4 = field(2, 2)
    chain = CodeChain(f4, np.eye(n, dtype=np.int32))
    with mock.patch.object(type(f4), "matmul",
                           autospec=True, side_effect=type(f4).matmul) as mm:
        with pytest.raises(ZeroInFirstRow):
            find_isometry_vector(chain)
    assert mm.call_count == 0


@pytest.mark.parametrize("q0", [2, 3, 4])
def test_isometry_witness_matches_reference_on_hermitian(q0):
    chain = code_chain(hermitian_table(q0))
    x = find_isometry_vector(chain)
    assert x is not None
    assert x == isometry_witness_reference(chain.field, chain.basis)


@st.composite
def chains_with_full_first_row(draw):
    """A random invertible chain over a small field whose first row has no
    zero entry; half of them carry a planted witness.

    The planted ones start from the Reed-Solomon chain x^e at all q points,
    whose witness is the all-ones vector.  A unit lower-triangular mix of
    its rows keeps every C_i, so the witness too, and a scaling of the
    columns by d carries the witness to d^-2.
    """
    fld = field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1),
                                       (3, 2)])))
    q = fld.q
    if draw(st.booleans()):
        n = q
        basis = np.array([[fld.pow(x, e) for x in fld.elements()]
                          for e in range(n)])
        mix = np.eye(n, dtype=np.int64)
        for i in range(1, n):
            mix[i, :i] = draw(st.lists(st.integers(0, q - 1), min_size=i,
                                       max_size=i))
        scale = draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
        basis = fld.mul_arrays(fld.matmul(mix, basis), np.array(scale))
    else:
        n = draw(st.integers(1, 6))
        first = draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
        rest = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                      max_size=n),
                             min_size=n - 1, max_size=n - 1))
        basis = np.array([first, *rest]).reshape(n, n)
    assume(rref(FieldMatrix(fld, basis)).rank == n)
    return fld, basis


@settings(max_examples=150, deadline=None)
@given(chains_with_full_first_row())
def test_isometry_witness_matches_reference_on_random_chains(chain_data):
    fld, basis = chain_data
    expected = isometry_witness_reference(fld, basis)
    assert find_isometry_vector(CodeChain(fld, basis)) == expected


def test_isometry_trivial_length_one():
    fld = field(2, 2)
    chain = CodeChain(fld, np.array([[1]], dtype=np.int32))
    assert find_isometry_vector(chain) == (1,)


def test_budget_from_env(monkeypatch):
    monkeypatch.setenv("AGB_BUDGET_SUBSPACES", "77")
    b = SearchBudget.from_env()
    assert b.max_subspaces == 77
    monkeypatch.delenv("AGB_BUDGET_SUBSPACES")
    b2 = SearchBudget.from_env()
    assert b2.max_subspaces == 10 ** 7


@pytest.mark.parametrize("var, value", [("AGB_BUDGET_SUBSPACES", "abc"),
                                        ("AGB_BUDGET_SUBSPACES", "2.5"),
                                        ("AGB_BUDGET_SUBSPACES", "0")])
def test_budget_from_env_rejects_bad_values(monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    with pytest.raises(InvalidSearchBudget) as exc:
        SearchBudget.from_env()
    assert isinstance(exc.value, AgbError)


def naive_weight_hierarchy(fld, rows, r):
    """Literal per-candidate enumeration of canonical subspace bases."""
    from itertools import combinations, product
    rows = np.asarray(rows, dtype=np.int32)
    k, n = rows.shape
    best = n + 1
    for pivots in combinations(range(k), r):
        pivot_set = set(pivots)
        free = [(i, j) for i in range(r)
                for j in range(pivots[i] + 1, k) if j not in pivot_set]
        for vals in product(range(fld.q), repeat=len(free)):
            coeffs = np.zeros((r, k), dtype=np.int32)
            for i, c in enumerate(pivots):
                coeffs[i, c] = 1
            for (i, j), v in zip(free, vals):
                coeffs[i, j] = v
            basis = fld.matmul(coeffs, rows)
            support = int((basis != 0).any(axis=0).sum())
            if support < best:
                best = support
    return best


def test_weight_hierarchy_gf9_matches_naive():
    rng = random.Random(909)
    fld = field(3, 2)
    rows = [[rng.randrange(9) for _ in range(7)] for _ in range(3)]
    M = FieldMatrix(fld, rows)
    k = rref(M).rank
    for r in range(1, k + 1):
        assert weight_hierarchy(M, r) == \
            naive_weight_hierarchy(fld, rref(M).matrix.data[:k], r)


def test_weight_hierarchy_gf4_matches_naive(herm2_table):
    c = code(herm2_table, 4)
    red = rref(c.matrix)
    rows = red.matrix.data[: red.rank]
    for r in range(1, red.rank + 1):
        assert weight_hierarchy(c.matrix, r) == \
            naive_weight_hierarchy(herm2_table.field, rows, r)


def test_isometry_witness_past_length_32():
    # Reed-Solomon chain over GF(49): rows x^e at all 49 elements, e = 0..48.
    # sum_x x^e vanishes for e < 48, so the all-ones vector is a witness, and
    # the constraints leave it the only one up to a scalar.
    fld = field(7, 2)
    basis = [[fld.pow(x, e) for x in fld.elements()] for e in range(49)]
    x = find_isometry_vector(CodeChain(fld, basis))
    assert x is not None
    assert len(x) == 49
    assert x[0] != 0 and set(x) == {x[0]}


# Rows of weight >= 3, no two proportional over any field.
_WIDE = [[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 1, 1]]


def pair_code(fld, k, pairs):
    """[I_k | P] in which the two rows of each pair share their P row.

    The P rows, one per pair and one per unpaired row, are the rows of
    [I_t | A] with the rows of A taken from _WIDE.  A word whose coefficients
    lie outside the span of the differences rows[a] - rows[b] then has
    weight >= 5, while each difference has weight 2.
    """
    group = {i: g for g, pair in enumerate(pairs) for i in pair}
    t = len(pairs)
    for i in range(k):
        if i not in group:
            group[i], t = t, t + 1
    P = np.hstack([np.eye(t, dtype=np.int32), np.array(_WIDE[:t])])
    return np.hstack([np.eye(k, dtype=np.int32),
                      P[[group[i] for i in range(k)]]])


@pytest.mark.parametrize("target", [None, 1])
@pytest.mark.parametrize("p", [2, 3])
def test_min_distance_finds_the_one_weight_two_word(monkeypatch, p, target):
    # rows[a] - rows[b] is the only weight-2 word up to scalars, reached only
    # through the free coefficient at b; _BLOCK_TARGET = 1 puts every free
    # coefficient in the head walk
    if target:
        monkeypatch.setattr(oracle, "_BLOCK_TARGET", target)
    fld = field(p, 1)
    for a, b in combinations(range(6), 2):
        rows = pair_code(fld, 6, [(a, b)])
        slow = min(int((v != 0).sum()) for v in all_codewords(fld, rows)
                   if v.any())
        assert slow == 2
        assert min_distance(FieldMatrix(fld, rows)) == slow, (a, b)


@pytest.mark.parametrize("target", [None, 1])
@pytest.mark.parametrize("p", [2, 3])
def test_weight_hierarchy_finds_the_one_support_four_plane(monkeypatch, p,
                                                           target):
    # the plane spanned by rows[a] - rows[b] and rows[c] - rows[d] is the
    # only 2-dimensional subcode with support 4
    if target:
        monkeypatch.setattr(oracle, "_BLOCK_TARGET", target)
    fld = field(p, 1)
    for a, b in combinations(range(5), 2):
        for c, d in combinations(range(a + 1, 5), 2):
            if b in (c, d):
                continue
            rows = pair_code(fld, 5, [(a, b), (c, d)])
            slow = naive_weight_hierarchy(fld, rows, 2)
            assert slow == 4
            assert weight_hierarchy(FieldMatrix(fld, rows), 2) == slow, \
                (a, b, c, d)


@settings(max_examples=100, deadline=None)
@given(field_matrices(fields=[(2, 1), (3, 1), (2, 2)], max_rows=5)
       | field_matrices(fields=[(5, 1), (2, 3), (3, 2)], max_rows=4),
       st.sampled_from([1, 2, 6, 64]))
def test_one_search_matches_naive_enumeration(M, target):
    # a small _BLOCK_TARGET splits the free coefficients between the block
    # and the heads at every position; GF(5), GF(8) and GF(9) have -1 != 1
    # or a q that is not prime (four rows there keep the naive scan to a
    # few thousand subspaces)
    red = rref(M)
    rows = red.matrix.data[: red.rank]
    with mock.patch.object(oracle, "_BLOCK_TARGET", target):
        values = [weight_hierarchy(M, r) for r in range(1, red.rank + 1)]
        if red.rank:
            assert min_distance(M) == values[0]
    assert values == [naive_weight_hierarchy(M.field, rows, r)
                      for r in range(1, red.rank + 1)]


def test_true_hermitian_weights():
    # values from two independent exhaustive searches, one over all q^k
    # messages and one over canonical subspace bases
    def chain_code(table, k):
        return FieldMatrix(table.field, chain_matrix(table).data[:k])

    herm3, herm2 = hermitian_table(3), hermitian_table(2)
    assert [min_distance(chain_code(herm3, k)) for k in range(1, 8)] == \
        [27, 24, 23, 21, 20, 19, 18]
    assert [min_distance(chain_code(herm2, k)) for k in range(1, 9)] == \
        [8, 6, 5, 4, 3, 2, 2, 1]
    ghw = {(2, 2): 8, (3, 2): 7, (3, 3): 8, (4, 2): 6, (4, 3): 7, (4, 4): 8,
           (5, 2): 5, (5, 3): 6, (5, 4): 7, (6, 2): 4, (6, 3): 5, (6, 4): 6,
           (7, 2): 3}
    assert {kr: weight_hierarchy(chain_code(herm2, kr[0]), kr[1])
            for kr in ghw} == ghw


def test_search_counts_past_255_columns():
    # at n >= 256 the support counts need a uint16: a uint8 count wraps
    # 300 to 44 and 290 to 34
    fld = field(3, 1)
    assert min_distance(FieldMatrix(fld, [[1] * 300])) == 300
    rows = np.zeros((2, 300), dtype=np.int32)
    rows[0, :200] = 1
    rows[1, 100:290] = 1
    # words: rows[0] (200), rows[1] (190), sum (290) and difference (190)
    M = FieldMatrix(fld, rows)
    assert min_distance(M) == 190
    assert weight_hierarchy(M, 2) == 290


@pytest.mark.parametrize("target", [1, 9, 81])
def test_gf9_search_does_not_depend_on_the_block_size(monkeypatch, target):
    # 1 puts every free coefficient in the heads, 9 and 81 split them
    # between heads and tail; the default keeps whole tails in the block
    herm3 = FieldMatrix(field(3, 2), chain_matrix(hermitian_table(3)).data[:4])
    rng = np.random.default_rng(909)
    codes = [herm3, FieldMatrix(field(3, 2), rng.integers(0, 9, (4, 12)))]
    default = [[weight_hierarchy(M, r) for r in range(1, 5)] for M in codes]
    assert default[0][0] == 21
    monkeypatch.setattr(oracle, "_BLOCK_TARGET", target)
    assert [[weight_hierarchy(M, r) for r in range(1, 5)]
            for M in codes] == default


def hierarchy_by_supports(fld, rows):
    """Every generalized Hamming weight from the q^k codewords alone.

    d_r is the least |T| such that the words supported inside T number at
    least q^r, since those words form a subcode.  No basis is listed and no
    dual is taken, so this shares nothing with either search route.
    """
    k, n = np.asarray(rows).shape
    bits = 1 << np.arange(n)
    masks = np.array([int(bits[v != 0].sum()) for v in all_codewords(fld, rows)])
    sets = np.arange(1 << n)
    inside = ((masks[None, :] & ~sets[:, None]) == 0).sum(axis=1)
    sizes = np.array([bin(t).count("1") for t in sets])
    return [int(sizes[inside >= fld.q ** r].min()) for r in range(1, k + 1)]


@pytest.mark.parametrize("p, e, n, k, zeros", [
    (2, 1, 9, 8, 0), (2, 1, 9, 9, 0), (2, 1, 9, 7, 2), (2, 1, 8, 6, 0),
    (3, 1, 8, 7, 0), (3, 1, 8, 6, 1), (3, 1, 7, 7, 0),
    (2, 2, 8, 6, 0), (2, 2, 8, 7, 1), (2, 2, 7, 5, 0),
    (5, 1, 6, 5, 0), (5, 1, 6, 4, 1),
    (2, 3, 5, 4, 0), (2, 3, 5, 3, 1), (2, 3, 4, 4, 0),
])
def test_high_rate_hierarchy_matches_codeword_supports(monkeypatch, p, e, n,
                                                       k, zeros):
    # random [n, k] codes with k > n - k, the last `zeros` columns zero; a
    # dual of dimension <= 2 is far cheaper than the code at r = 1, so at
    # least the minimum distance goes through the Wei step.  The dual is
    # built only there, once per code whatever the r, and not at all when
    # k = n leaves it no rank to list
    fld = field(p, e)
    rng = random.Random(n * 100 + k * 10 + zeros + fld.q)
    duals = []
    real = oracle._nullspace
    monkeypatch.setattr(oracle, "_nullspace",
                        lambda red: duals.append(red.rank) or real(red))
    for _ in range(3):
        while True:
            rows = np.array([[rng.randrange(fld.q) for _ in range(n - zeros)]
                             + [0] * zeros for _ in range(k)], dtype=np.int32)
            if rref(FieldMatrix(fld, rows)).rank == k:
                break
        M = FieldMatrix(fld, rows)
        expected = hierarchy_by_supports(fld, rows)
        built = [k] if k < n else []
        duals.clear()
        assert min_distance(M) == expected[0]
        assert duals == built
        search = oracle.CodeSearch.of_matrix(M)
        duals.clear()
        assert [search.weight(r) for r in range(1, k + 1)] == expected
        assert duals == built
        assert [weight_hierarchy(M, r) for r in range(1, k + 1)] == expected


def test_low_rate_search_builds_no_dual(monkeypatch, herm2_table):
    # k <= n - k never weighs the dual route
    built = []
    monkeypatch.setattr(oracle, "_nullspace", built.append)
    M = code(herm2_table, 4).matrix
    assert [weight_hierarchy(M, r) for r in range(1, 5)] == [4, 6, 7, 8]
    assert built == []


@st.composite
def chain_row_sets(draw):
    """A Hermitian table and a sorted set of its chain rows; over GF(9) the
    sets have at most 4 rows or at most 3 left out, so every rank of them
    stays within the default budget by one route or the other."""
    q0 = draw(st.sampled_from([2, 3]))
    n = q0 ** 3
    if q0 == 2:
        size = draw(st.integers(1, n))
    else:
        size = draw(st.integers(1, 4) | st.integers(n - 3, n))
    idx = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size,
                        unique=True))
    return q0, tuple(sorted(idx))


@settings(max_examples=40, deadline=None)
@given(chain_row_sets())
def test_chain_inverse_search_matches_rref_search(tables, case):
    # the basis and dual verify uses, read off the chain with no
    # elimination, against both read off one rref of the rows
    q0, idx = case
    table = tables[q0]
    chain = code_chain(table)
    rows = chain.basis[list(idx)]
    search = oracle.CodeSearch(table.field, rows, lambda: chain.dual_rows(idx))
    M = FieldMatrix(table.field, rows)
    assert [search.weight(r) for r in range(1, len(idx) + 1)] == \
        [weight_hierarchy(M, r) for r in range(1, len(idx) + 1)]


@st.composite
def invertible_bases(draw):
    """A random invertible n x n basis over GF(2), GF(3), GF(4) or GF(9),
    the largest n per field keeping a one-code search of every prefix to a
    few thousand subspaces."""
    p, e, most = draw(st.sampled_from([(2, 1, 10), (3, 1, 8), (2, 2, 7),
                                       (3, 2, 6)]))
    fld = field(p, e)
    n = draw(st.integers(1, most))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    while True:
        rows = rng.integers(0, fld.q, (n, n))
        if rref(FieldMatrix(fld, rows)).rank == n:
            return fld, field_array(fld, rows)


def prefix_search(fld, rows, built=None):
    """The search over the prefixes of an invertible basis, as ``agb
    verify`` builds it: its dual rows are the columns of B^-1 in reverse
    order, whose first n - k span the dual of rows[:k].  Each build of the
    dual is appended to ``built``."""
    chain = CodeChain(fld, rows)

    def dual():
        if built is not None:
            built.append(len(rows))
        return chain.dual_rows(())[::-1]

    return oracle.CodeSearch(fld, rows, dual)


@settings(max_examples=100, deadline=None)
@given(invertible_bases(), st.randoms(use_true_random=False),
       st.sampled_from([1, 6, 64, 8192]))
def test_prefix_search_matches_one_code_searches(case, rng, target):
    # every (k, r) of one search, asked in a shuffled order, against a
    # one-code search of rows[:k] at the default block size; a small
    # _BLOCK_TARGET moves the free coefficients between block and heads.
    # From n = 3 on, some prefix k = n - 1 goes through the Wei route at
    # r = 1, so the dual chain is built, once
    fld, rows = case
    n = len(rows)
    expected = {(k, r): weight_hierarchy(FieldMatrix(fld, rows[:k]), r)
                for k in range(1, n + 1) for r in range(1, k + 1)}
    queries = list(expected)
    rng.shuffle(queries)
    built = []
    search = prefix_search(fld, rows, built)
    with mock.patch.object(oracle, "_BLOCK_TARGET", target):
        assert {(k, r): search.weight(r, k) for k, r in queries} == expected
    assert built == ([n] if n >= 3 else [])


@settings(max_examples=60, deadline=None)
@given(field_matrices(fields=[(2, 1), (3, 1), (2, 2)], max_rows=6)
       | field_matrices(fields=[(3, 2)], max_rows=4))
def test_matrix_search_answers_every_prefix(M):
    # of_matrix lists the prefixes of the reduced rows; its dual rows are
    # the nullspace and the unit vectors at the pivots, last first, so the
    # Wei route is right for a prefix too, not only for the whole basis
    search = oracle.CodeSearch.of_matrix(M)
    basis = search.basis
    fld, n = M.field, M.ncols
    dual_rows = search._dual()
    assert rref(FieldMatrix(fld, dual_rows)).rank == n
    for k in range(1, len(basis) + 1):
        assert not fld.matmul(basis[:k], dual_rows[:n - k].T).any()
    assert {(k, r): search.weight(r, k)
            for k in range(len(basis), 0, -1) for r in range(1, k + 1)} == \
        {(k, r): weight_hierarchy(FieldMatrix(M.field, basis[:k]), r)
         for k in range(1, len(basis) + 1) for r in range(1, k + 1)}


@settings(max_examples=40, deadline=None)
@given(invertible_bases())
def test_large_prefix_first_lists_no_subspace_twice(case):
    # the whole basis first, then every smaller prefix: the small ones read
    # the least supports kept per row, so no (rank, row) of the basis or of
    # the dual chain is listed twice, and asking everything again lists
    # nothing
    fld, rows = case
    n = len(rows)
    search = prefix_search(fld, rows)
    listed = []
    real = oracle._least_support

    def recording(fld_, rows_, scaled, r, row, blocks):
        listed.append((rows_ is rows, r, row))
        return real(fld_, rows_, scaled, r, row, blocks)

    queries = [(k, r) for k in range(n, 0, -1) for r in range(1, k + 1)]
    with mock.patch.object(oracle, "_least_support", recording):
        first = [search.weight(r, k) for k, r in queries]
        assert len(listed) == len(set(listed))
        before = len(listed)
        assert [search.weight(r, k) for k, r in queries] == first
        assert len(listed) == before
    assert first == [weight_hierarchy(FieldMatrix(fld, rows[:k]), r)
                     for k, r in queries]


def test_prefix_search_lists_the_largest_direct_prefix_once(herm2_table):
    # C_4 of the GF(4) Hermitian chain asked at every r before C_3..C_1:
    # the search lists the [4, r]_4 subspaces of C_4 once per rank, and the
    # smaller codes add none
    basis = code_chain(herm2_table).basis
    search = prefix_search(herm2_table.field, basis)
    listed = []
    real = oracle._least_support

    def counting(fld, rows, scaled, r, row, blocks):
        listed.append(gaussian_binomial(row + 1, r, fld.q)
                      - gaussian_binomial(row, r, fld.q))
        return real(fld, rows, scaled, r, row, blocks)

    with mock.patch.object(oracle, "_least_support", counting):
        assert [search.weight(r, 4) for r in range(1, 5)] == [4, 6, 7, 8]
        assert sum(listed) == sum(gaussian_binomial(4, r, 4)
                                  for r in range(1, 5))
        before = len(listed)
        assert [search.weight(1, k) for k in (3, 2, 1)] == [5, 6, 8]
        assert len(listed) == before


def test_prefix_search_rejects_a_prefix_past_the_basis(herm2_table):
    search = prefix_search(herm2_table.field, code_chain(herm2_table).basis)
    with pytest.raises(IndexOutOfRange):
        search.weight(1, 9)
    with pytest.raises(IndexOutOfRange):
        search.weight(3, 2)


@pytest.fixture(scope="module")
def tables(herm2_table, herm3_table):
    return {2: herm2_table, 3: herm3_table}


def test_hermitian_gf16_high_rate_distances(herm4_table):
    # the last five chain codes over GF(16), far past a direct search
    rows = chain_matrix(herm4_table)
    assert [min_distance(rows[:dim]) for dim in range(60, 65)] == \
        [3, 3, 2, 2, 1]
