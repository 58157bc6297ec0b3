import random
from itertools import product

import numpy as np
import pytest

from agb import CodeChain, FieldMatrix, code, d_star, empirical_hstar, field, min_distance
from agb.bounds import lambda_profile
from agb.errors import (AgbError, DependentInput, IndexOutOfRange,
                        MatrixShapeMismatch)
from agb.evalcode import chain_matrix


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
    fld = field(2, 2)
    for n in (3, 4):
        chain = CodeChain(fld, random_invertible(fld, n, rng))
        nu_prod = {(i, j): chain.nu(fld.star(chain.basis[i - 1],
                                             chain.basis[j - 1]))
                   for i in range(1, n + 1) for j in range(1, n + 1)}
        wbp = chain.well_behaving()
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected = all(
                    nu_prod[(r, s)] < nu_prod[(i, j)]
                    for r in range(1, i + 1) for s in range(1, j + 1)
                    if (r, s) != (i, j)
                )
                assert ((i, j) in wbp) == expected


def test_pair_one_one_always_well_behaving(herm2_chain):
    assert (1, 1) in herm2_chain.well_behaving()


def test_hermitian_pairs_with_jump_sums_are_well_behaving(herm2_table,
                                                          herm2_chain):
    hs = empirical_hstar(herm2_table)
    wbp = herm2_chain.well_behaving()
    for i in range(1, 9):
        for j in range(1, 9):
            if hs.m(i) + hs.m(j) in hs.member_set:
                assert (i, j) in wbp


def test_generic_lambda_dominates_profile(herm2_table, herm2_chain):
    hs = empirical_hstar(herm2_table)
    profile = lambda_profile(hs)
    for i in range(1, 9):
        assert len(herm2_chain.generic_lambda(i)) >= profile.count(i)
        assert herm2_chain.generic_bound(i) >= d_star(hs, i)


def test_generic_lambda_standard_basis():
    fld = field(2, 2)
    chain = CodeChain(fld, np.eye(4, dtype=np.int32))
    assert 1 in chain.generic_lambda(1)


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
        herm2_chain.generic_lambda(9)


def test_chain_requires_full_rank():
    fld = field(2, 2)
    rows = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=np.int32)
    with pytest.raises(DependentInput):
        CodeChain(fld, rows)


def test_triangular_basis_already_distinct(herm2_chain):
    vecs = [herm2_chain.basis[1], herm2_chain.basis[4]]
    out = herm2_chain.triangular_basis(vecs)
    assert sorted(herm2_chain.nu(v) for v in out) == [2, 5]


def test_triangular_basis_resolves_collision(herm2_chain):
    fld = herm2_chain.field
    b = herm2_chain.basis
    v1 = b[4].copy()
    v2 = fld.add_arrays(b[4], b[2])  # same nu = 5, plus noise below
    out = herm2_chain.triangular_basis([v1, v2])
    nus = sorted(herm2_chain.nu(v) for v in out)
    assert len(set(nus)) == 2
    assert 5 in nus
    # span is preserved
    from agb import rref
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
    out = herm2_chain.triangular_basis(vecs)
    assert sorted(herm2_chain.nu(v) for v in out) == list(range(1, i + 1))


def test_triangular_basis_rejects_dependent(herm2_chain):
    fld = herm2_chain.field
    b = herm2_chain.basis
    v1 = b[2].copy()
    v2 = fld.scale_array(2, b[2])
    with pytest.raises(DependentInput):
        herm2_chain.triangular_basis([v1, v2])


def test_nu_rejects_wrong_length(herm2_chain):
    with pytest.raises(ValueError):
        herm2_chain.nu(np.zeros(5, dtype=np.int32))
    with pytest.raises(MatrixShapeMismatch):
        herm2_chain.nu(np.zeros(9, dtype=np.int32))
    assert issubclass(MatrixShapeMismatch, AgbError)


def test_chain_from_matrix_file(tmp_path, herm2_table):
    from agb import load_matrix, save_matrix
    from agb.evalcode import chain_matrix
    path = tmp_path / "chain.json"
    save_matrix(chain_matrix(herm2_table), path)
    chain = CodeChain.from_matrix(load_matrix(path))
    assert chain.n == 8
    assert chain.generic_bound(1) == 8
