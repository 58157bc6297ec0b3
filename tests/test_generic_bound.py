import random
from itertools import product

import numpy as np
import pytest

from agb import (CodeChain, FieldMatrix, code, d_star, empirical_hstar, field,
                 min_distance, rref)
from agb.bounds import lambda_profile
from agb.errors import (AgbError, DependentInput, IndexOutOfRange,
                        InvariantViolation, MatrixShapeMismatch)
from agb.evalcode import chain_matrix, code_chain

from conftest import nu_reference, star, triangular_basis


def random_invertible(fld, n, rng):
    while True:
        rows = [[rng.randrange(fld.q) for _ in range(n)] for _ in range(n)]
        M = FieldMatrix(fld, rows)
        from agb import rref
        if rref(M).rank == n:
            return np.array(rows, dtype=np.int32)


@pytest.fixture(scope="module")
def herm2_chain(herm2_table):
    return CodeChain(herm2_table.field, chain_matrix(herm2_table).data)


def test_nu_basics(herm2_chain):
    n = herm2_chain.n
    assert herm2_chain.nu(np.zeros(n, dtype=np.int32)) == 0
    assert herm2_chain.nu(herm2_chain.basis[0]) == 1
    for i in range(n):
        assert herm2_chain.nu(herm2_chain.basis[i]) == i + 1


def test_nu_of_scaled_and_shifted(herm2_chain):
    fld = herm2_chain.field
    v = fld.add_arrays(herm2_chain.basis[4],
                       fld.scale_array(3, herm2_chain.basis[1]))
    assert herm2_chain.nu(v) == 5


def test_nu_subadditivity_random():
    rng = random.Random(4242)
    fld = field(2, 2)
    basis = random_invertible(fld, 5, rng)
    chain = CodeChain(fld, basis)
    for _ in range(200):
        u = np.array([rng.randrange(4) for _ in range(5)], dtype=np.int32)
        v = np.array([rng.randrange(4) for _ in range(5)], dtype=np.int32)
        nu_sum = chain.nu(fld.add_arrays(u, v))
        nu_u, nu_v = chain.nu(u), chain.nu(v)
        assert nu_sum <= max(nu_u, nu_v)
        if nu_u != nu_v:
            assert nu_sum == max(nu_u, nu_v)


def test_well_behaving_matches_definition_on_random_chain():
    rng = random.Random(31337)
    for p, k in ((2, 1), (3, 1), (2, 2), (3, 2)):
        fld = field(p, k)
        for n in range(1, 7):
            chain = CodeChain(fld, random_invertible(fld, n, rng))
            nu_prod = {(i, j): nu_reference(fld, chain.basis,
                                            star(fld, chain.basis[i - 1],
                                                 chain.basis[j - 1]))
                       for i in range(1, n + 1) for j in range(1, n + 1)}
            wbp = chain._wbp_table()[1:, 1:]
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    expected = all(
                        nu_prod[(r, s)] < nu_prod[(i, j)]
                        for r in range(1, i + 1) for s in range(1, j + 1)
                        if (r, s) != (i, j)
                    )
                    assert wbp[i - 1, j - 1] == expected


def test_generic_bound_in_any_order_is_running_minimum():
    # each chain keeps the tallest table asked for, so a shuffled order
    # mixes reads of kept rows with taller rebuilds
    rng = random.Random(2718)
    for p, k in ((2, 1), (3, 1), (2, 2), (3, 2), (5, 1)):
        fld = field(p, k)
        for n in range(1, 9):
            basis = random_invertible(fld, n, rng)
            counts = CodeChain(fld, basis).lambda_counts()
            expected = np.minimum.accumulate(counts[1:]).tolist()
            chain = CodeChain(fld, basis)
            order = list(range(1, n + 1))
            rng.shuffle(order)
            got = {i: chain.generic_bound(i) for i in order}
            assert [got[i] for i in range(1, n + 1)] == expected
            assert chain.lambda_counts().tolist() == counts.tolist()


def test_wbp_rows_are_the_first_rows_of_the_full_table():
    rng = random.Random(1618)
    fld = field(3, 2)
    basis = random_invertible(fld, 7, rng)
    full = CodeChain(fld, basis)._wbp_table()
    for rows in range(8):
        assert np.array_equal(CodeChain(fld, basis)._wbp_table(rows),
                              full[:rows + 1])


def test_nu_matches_rank_reference_on_random_chains():
    rng = random.Random(8080)
    for p, k in ((2, 1), (3, 1), (2, 2), (3, 2)):
        fld = field(p, k)
        for n in range(1, 7):
            chain = CodeChain(fld, random_invertible(fld, n, rng))
            for _ in range(10):
                v = np.array([rng.randrange(fld.q) for _ in range(n)])
                assert chain.nu(v) == nu_reference(fld, chain.basis, v)


def test_hermitian_lambda_counts_pinned(herm2_table, herm3_table):
    # #Λ per level of the measured Hermitian chains, generated by the
    # row-by-row elimination that computed nu before coordinates did
    assert code_chain(herm2_table).lambda_counts().tolist() == \
        [0, 8, 6, 5, 4, 3, 2, 2, 1]
    assert code_chain(herm3_table).lambda_counts().tolist() == [
        0, 27, 24, 23, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8,
        7, 6, 6, 4, 3, 4, 3, 2, 2, 1]


def test_pair_one_one_always_well_behaving(herm2_chain):
    assert herm2_chain._wbp_table()[1, 1]


def test_hermitian_pairs_with_jump_sums_are_well_behaving(herm2_table,
                                                          herm2_chain):
    hs = empirical_hstar(herm2_table)
    wbp = herm2_chain._wbp_table()
    for i in range(1, 9):
        for j in range(1, 9):
            if hs.m(i) + hs.m(j) in hs.member_set:
                assert wbp[i, j]


def test_generic_lambda_dominates_profile(herm2_table, herm2_chain):
    hs = empirical_hstar(herm2_table)
    profile = lambda_profile(hs)
    counts = herm2_chain.lambda_counts()
    for i in range(1, 9):
        assert counts[i] >= profile.count(i)
        assert herm2_chain.generic_bound(i) >= d_star(hs, i)


def test_generic_lambda_standard_basis():
    fld = field(2, 2)
    chain = CodeChain(fld, np.eye(4, dtype=np.int32))
    assert chain._wbp_table()[1, 1]


def test_generic_bound_bounded_by_truth(herm2_table, herm2_chain):
    hs = empirical_hstar(herm2_table)
    for i in range(1, 9):
        c = code(herm2_table, hs.m(i))
        assert min_distance(c.matrix) >= herm2_chain.generic_bound(i)


def test_generic_bound_on_random_small_chain():
    rng = random.Random(777)
    fld = field(2, 2)
    chain = CodeChain(fld, random_invertible(fld, 5, rng))
    for i in range(1, 6):
        sub = FieldMatrix(fld, chain.basis[:i])
        assert min_distance(sub) >= chain.generic_bound(i)


def test_weight_bounded_by_lambda_count_exhaustively():
    rng = random.Random(2024)
    for fld, n in ((field(2, 1), 6), (field(2, 2), 6)):
        chain = CodeChain(fld, random_invertible(fld, n, rng))
        counts = chain.lambda_counts()
        for vec in product(range(fld.q), repeat=n):
            v = np.array(vec, dtype=np.int32)
            if not v.any():
                continue
            nu = chain.nu(v)
            assert int((v != 0).sum()) >= int(counts[nu])


def test_generic_bound_index_errors(herm2_chain):
    with pytest.raises(IndexOutOfRange):
        herm2_chain.generic_bound(0)
    with pytest.raises(IndexOutOfRange):
        herm2_chain.generic_bound(9)


def test_chain_requires_full_rank():
    fld = field(2, 2)
    rows = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=np.int32)
    with pytest.raises(DependentInput):
        CodeChain(fld, rows)


def test_chain_basis_entries_follow_the_matrix_contract():
    fld = field(2, 2)
    wrapped = np.eye(2, dtype=np.int64)
    wrapped[0, 0] = 2 ** 32 + 1  # 1 after an int32 cast
    with pytest.raises(InvariantViolation):
        CodeChain(fld, wrapped)
    with pytest.raises(InvariantViolation):
        CodeChain(fld, [[1.0, 0.0], [0.0, 1.0]])


def test_triangular_basis_already_distinct(herm2_chain):
    vecs = [herm2_chain.basis[1], herm2_chain.basis[4]]
    out = triangular_basis(herm2_chain, vecs)
    assert sorted(herm2_chain.nu(v) for v in out) == [2, 5]


def test_triangular_basis_resolves_collision(herm2_chain):
    fld = herm2_chain.field
    b = herm2_chain.basis
    v1 = b[4].copy()
    v2 = fld.add_arrays(b[4], b[2])  # same nu = 5, plus noise below
    out = triangular_basis(herm2_chain, [v1, v2])
    nus = sorted(herm2_chain.nu(v) for v in out)
    assert len(set(nus)) == 2
    assert 5 in nus
    # span is preserved
    before = rref(FieldMatrix(fld, np.stack([v1, v2])))
    after = rref(FieldMatrix(fld, np.stack(out)))
    assert before.matrix.data[: before.rank].tolist() == \
        after.matrix.data[: after.rank].tolist()


def test_triangular_basis_of_full_prefix(herm2_chain):
    fld = herm2_chain.field
    rng = random.Random(5)
    i = 5
    # random independent combinations spanning the first i chain levels
    coeffs = random_invertible(fld, i, rng)
    vecs = [fld.matmul(coeffs[j: j + 1], herm2_chain.basis[:i])[0]
            for j in range(i)]
    out = triangular_basis(herm2_chain, vecs)
    assert [herm2_chain.nu(v) for v in out] == list(range(1, i + 1))
    assert rref(FieldMatrix(fld, np.stack(out))).matrix == \
        rref(FieldMatrix(fld, np.stack(vecs))).matrix


def test_triangular_basis_rejects_dependent(herm2_chain):
    fld = herm2_chain.field
    b = herm2_chain.basis
    v1 = b[2].copy()
    v2 = fld.scale_array(2, b[2])
    with pytest.raises(DependentInput):
        triangular_basis(herm2_chain, [v1, v2])


def test_nu_rejects_wrong_length(herm2_chain):
    with pytest.raises(ValueError):
        herm2_chain.nu(np.zeros(5, dtype=np.int32))
    with pytest.raises(MatrixShapeMismatch):
        herm2_chain.nu(np.zeros(9, dtype=np.int32))
    assert issubclass(MatrixShapeMismatch, AgbError)


@pytest.mark.parametrize("first", [5, -1, 1.5, 257],
                         ids=["past-q", "negative", "float", "wraps-a-byte"])
def test_nu_rejects_entries_outside_the_field(herm2_chain, first):
    # an unchecked cast raises a bare IndexError, reads -1 as a field
    # element or truncates 1.5 to 1
    with pytest.raises(InvariantViolation):
        herm2_chain.nu([first] + [0] * (herm2_chain.n - 1))


@pytest.mark.parametrize("p, k, n", [(2, 2, 6), (3, 1, 5), (3, 2, 4)])
def test_dual_rows_span_the_dual_of_every_row_set(p, k, n):
    # for each set of rows, the dual rows are independent, orthogonal to
    # every chosen row, and n minus the set's size in number
    fld = field(p, k)
    rng = random.Random(p * 100 + k * 10 + n)
    basis = random_invertible(fld, n, rng)
    chain = CodeChain(fld, basis)
    for size in range(n + 1):
        for idx in {tuple(sorted(rng.sample(range(n), size)))
                    for _ in range(4)}:
            dual = chain.dual_rows(idx)
            assert dual.shape == (n - size, n)
            if size and n - size:
                assert not fld.matmul(basis[list(idx)], dual.T).any()
            if n - size:
                assert rref(FieldMatrix(fld, dual)).rank == n - size


def test_dual_rows_rejects_indices_outside_the_chain(herm2_chain):
    for bad in ([8], [-1], [0, 9]):
        with pytest.raises(IndexOutOfRange):
            herm2_chain.dual_rows(bad)


def test_code_chain_is_kept_on_the_table(herm2_table):
    # one inverse per table serves every search and witness of a run
    assert code_chain(herm2_table) is code_chain(herm2_table)
