import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agb import FieldMatrix, code, dual, field, gf, rref
from agb.errors import (AgbError, DivisionByZero, InvariantViolation,
                        MatrixShapeMismatch, UnsupportedField)
from agb.evalcode import chain_matrix, code_chain
from agb.gf import ELEMENT

from conftest import dot, matmul_reference, span_reference

PINNED = {(2, 1): 2, (2, 2): 7, (2, 3): 11, (2, 4): 19,
          (3, 1): 3, (3, 2): 10, (3, 3): 34, (3, 4): 86,
          (5, 1): 5, (5, 2): 27, (5, 3): 131, (7, 1): 7, (7, 2): 50,
          (11, 1): 11, (11, 2): 122, (13, 1): 13, (13, 2): 171}
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4)]
SUPPORTED_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(1, 5)
                    if p ** k <= 256]


# Plain-Python references for the field tables.  They work on coefficient
# lists, lowest degree first, and share no code with the library's tables.

def coeffs(x, p, width):
    """The base-p digits of x, lowest first: its polynomial's coefficients."""
    return [x // p ** i % p for i in range(width)]


def poly_product(a, b, p):
    """Schoolbook product of two coefficient lists over GF(p)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def reference_mul(x, y, p, k, modulus):
    """x * y in GF(p)[t] / (modulus): the product, then long division."""
    rem = poly_product(coeffs(x, p, k), coeffs(y, p, k), p)
    mod = coeffs(modulus, p, k + 1)
    for top in range(len(rem) - 1, k - 1, -1):
        lead = rem[top]
        for j, mj in enumerate(mod):
            rem[top - k + j] = (rem[top - k + j] - lead * mj) % p
    return sum(c * p ** i for i, c in enumerate(rem[:k]))


def is_irreducible(modulus, p, k):
    """No monic factor of degree d <= k/2 times a monic cofactor gives it."""
    target = coeffs(modulus, p, k + 1)
    return not any(
        poly_product(coeffs(f, p, d + 1), coeffs(g, p, k - d + 1), p) == target
        for d in range(1, k // 2 + 1)
        for f in range(p ** d, 2 * p ** d)
        for g in range(p ** (k - d), 2 * p ** (k - d)))


def test_pinned_moduli():
    assert sorted(PINNED) == sorted(SUPPORTED_FIELDS)
    for (p, k), mod in PINNED.items():
        assert field(p, k).modulus == mod


def test_pinned_moduli_are_minimal_irreducible():
    # the pinned choice must coincide with the smallest monic irreducible
    for (p, k), mod in PINNED.items():
        q = p ** k
        assert is_irreducible(mod, p, k)
        for c in range(q, mod):
            assert not is_irreducible(c, p, k)


def test_gf4_multiplication():
    f4 = field(2, 2)
    assert f4.mul(2, 2) == 3  # t * t = t + 1 modulo t^2 + t + 1
    assert f4.mul(2, 3) == 1
    assert f4.mul(3, 3) == 2


def test_gf9_unit_group():
    f9 = field(3, 2)
    for x in range(1, 9):
        assert f9.pow(x, 8) == 1
        assert f9.mul(x, f9.inv(x)) == 1


def test_unsupported_fields():
    for p, k in ((4, 1), (2, 5), (17, 1), (5, 4), (7, 3), (13, 3)):
        with pytest.raises(UnsupportedField):
            field(p, k)


@pytest.mark.parametrize("p,k", SUPPORTED_FIELDS)
def test_tables_match_digit_sums_and_polynomial_products(p, k):
    f = field(p, k)
    q = f.q
    a = np.arange(q, dtype=np.int32)
    added = f.add_arrays(a[:, None], a[None, :])
    multiplied = f.mul_arrays(a[:, None], a[None, :])
    negated = f.neg_arrays(a)
    place = [p ** i for i in range(k)]
    digits = [coeffs(x, p, k) for x in range(q)]
    for x in range(q):
        assert negated[x] == sum((-d) % p * w for d, w in zip(digits[x], place))
        for y in range(q):
            assert added[x, y] == sum((dx + dy) % p * w for dx, dy, w
                                      in zip(digits[x], digits[y], place))
            assert multiplied[x, y] == reference_mul(x, y, p, k, PINNED[p, k])


def test_division_by_zero():
    f4 = field(2, 2)
    with pytest.raises(DivisionByZero):
        f4.inv(0)
    with pytest.raises(DivisionByZero):
        f4.pow(0, -1)


def test_zero_and_one_behave():
    for p, k in SMALL_FIELDS:
        f = field(p, k)
        for x in f.elements():
            assert f.add(x, 0) == x
            assert f.mul(x, 1) == x
            assert f.mul(x, 0) == 0
            assert f.add(x, int(f.neg_arrays(x))) == 0
            assert f.pow(x, 0) == 1


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    f = field(p, k)
    q = f.q
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_pow_and_inv_match_repeated_mul(p, k):
    f = field(p, k)
    q = f.q
    for a in range(1, q):
        power = [1]                      # power[e] = a^e by repeated mul
        for _ in range(2 * q):
            power.append(f.mul(power[-1], a))
        for e in range(-2 * q, 2 * q):
            if e >= 0:
                assert f.pow(a, e) == power[e]
            else:
                assert f.mul(f.pow(a, e), power[-e]) == 1
        for e in range(0, 2 * q, q - 1):  # e = 0 mod q - 1
            assert f.pow(a, e) == 1
        assert f.mul(a, f.inv(a)) == 1
        assert f.inv(a) == f.pow(a, -1)
    assert f.pow(0, 0) == 1
    for e in range(1, 2 * q):
        assert f.pow(0, e) == 0
    for e in range(-2 * q, 0):
        with pytest.raises(DivisionByZero):
            f.pow(0, e)
    with pytest.raises(DivisionByZero):
        f.inv(0)


def test_array_ops_match_scalar_ops():
    rng = random.Random(7)
    for p, k in ((2, 2), (3, 2), (2, 3), (5, 1), (5, 2), (3, 3), (13, 2)):
        f = field(p, k)
        xs = np.array([rng.randrange(f.q) for _ in range(40)], dtype=np.int32)
        ys = np.array([rng.randrange(f.q) for _ in range(40)], dtype=np.int32)
        assert list(f.add_arrays(xs, ys)) == [f.add(a, b) for a, b in zip(xs, ys)]
        assert list(f.mul_arrays(xs, ys)) == [f.mul(a, b) for a, b in zip(xs, ys)]
        assert all(f.add(a, b) == 0 for a, b in zip(xs, f.neg_arrays(xs)))
        lam = rng.randrange(1, f.q)
        assert list(f.scale_array(lam, xs)) == [f.mul(lam, a) for a in xs]
        total = 0
        for a, b in zip(xs, ys):
            total = f.add(total, f.mul(int(a), int(b)))
        assert dot(f, xs, ys) == total


def test_matmul_matches_naive():
    rng = random.Random(13)
    f = field(2, 2)
    a = np.array([[rng.randrange(4) for _ in range(3)] for _ in range(2)],
                 dtype=np.int32)
    b = np.array([[rng.randrange(4) for _ in range(5)] for _ in range(3)],
                 dtype=np.int32)
    prod = f.matmul(a, b)
    for i in range(2):
        for j in range(5):
            acc = 0
            for t in range(3):
                acc = f.add(acc, f.mul(int(a[i, t]), int(b[t, j])))
            assert prod[i, j] == acc


@st.composite
def matmul_case(draw):
    """A field, operands (r x K) @ (K x n) over it, and a block size small
    enough that the rows often span several blocks."""
    p, k = draw(st.sampled_from(SUPPORTED_FIELDS))
    rows, inner, cols = (draw(st.integers(0, 6)), draw(st.integers(0, 9)),
                         draw(st.integers(0, 5)))
    entries = st.integers(0, p ** k - 1)
    a = draw(st.lists(entries, min_size=rows * inner, max_size=rows * inner))
    b = draw(st.lists(entries, min_size=inner * cols, max_size=inner * cols))
    return (field(p, k), np.array(a, dtype=int).reshape(rows, inner),
            np.array(b, dtype=int).reshape(inner, cols),
            draw(st.integers(1, 64)))


@settings(max_examples=300, deadline=None)
@given(matmul_case())
def test_matmul_matches_plain_python(case):
    f, a, b, block = case
    with mock.patch.object(gf, "_MATMUL_BLOCK", block):
        prod = f.matmul(a, b)
    assert prod.dtype == ELEMENT
    assert prod.tolist() == matmul_reference(f, a, b)


@pytest.mark.parametrize("p, k", SUPPORTED_FIELDS)
def test_matmul_inner_dimensions_even_odd_and_empty(p, k):
    # K = 0 gives zeros; K = 1 sums nothing; odd K leaves a middle term
    # for the next halving
    f = field(p, k)
    rng = np.random.default_rng(p * 10 + k)
    for inner in (0, 1, 2, 3, 4, 5, 7, 8, 9, 16):
        a = rng.integers(0, f.q, (4, inner))
        b = rng.integers(0, f.q, (inner, 3))
        assert f.matmul(a, b).tolist() == matmul_reference(f, a, b)


def test_matmul_rows_beyond_one_default_block():
    # K * n = 129 * 256 entries leave room for one row per block
    f = field(3, 1)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 3, (3, 129))
    b = rng.integers(0, 3, (129, 256))
    assert gf._MATMUL_BLOCK // (129 * 256) == 1
    assert f.matmul(a, b).tolist() == matmul_reference(f, a, b)


def test_matmul_rejects_mismatched_shapes():
    # unchecked, the first drops the third row of b and the second raises
    # a bare IndexError
    f = field(2, 2)
    with pytest.raises(MatrixShapeMismatch):
        f.matmul([[1, 1]], [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(MatrixShapeMismatch):
        f.matmul([[1, 1, 1]], [[1, 0], [0, 1]])
    with pytest.raises(MatrixShapeMismatch):
        f.matmul([1, 1], [[1, 0], [0, 1]])


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (3, 2), (13, 2)])
def test_inv_arrays_matches_scalar_inverse(p, k):
    f = field(p, k)
    nonzero = np.arange(1, f.q)
    assert f.inv_arrays(nonzero).tolist() == [f.inv(int(a)) for a in nonzero]
    with pytest.raises(DivisionByZero):
        f.inv_arrays([1, 0])


@pytest.mark.parametrize("p, k", SUPPORTED_FIELDS)
def test_pow_arrays_matches_repeated_products(p, k):
    # exponents past q - 1 wrap for nonzero bases, never for zero; negative
    # ones are powers of the inverse and undefined at zero
    f = field(p, k)
    exps = np.arange(f.q + 2)
    expected = []
    for a in f.elements():
        row, acc = [], 1
        for _ in exps:
            row.append(acc)
            acc = f.mul(acc, a)
        expected.append(row)
    assert f.pow_arrays(np.arange(f.q)[:, None], exps).tolist() == expected
    nonzero = np.arange(1, f.q)
    assert f.pow_arrays(nonzero, -2).tolist() == \
        [f.mul(f.inv(int(a)), f.inv(int(a))) for a in nonzero]
    with pytest.raises(DivisionByZero):
        f.pow_arrays([1, 0], [2, -1])


def test_rref_identity_and_zero():
    f4 = field(2, 2)
    eye = FieldMatrix(f4, np.eye(4, dtype=np.int32))
    red = rref(eye)
    assert red.rank == 4
    assert red.matrix == eye
    zero = FieldMatrix(f4, np.zeros((3, 5), dtype=np.int32))
    assert rref(zero).rank == 0
    assert rref(zero).pivots == ()


def test_rref_idempotent_and_rank_transpose():
    rng = random.Random(99)
    for p, k in ((2, 2), (3, 2), (5, 2), (3, 3), (13, 2)):
        f = field(p, k)
        for _ in range(20):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            data = [[rng.randrange(f.q) for _ in range(cols)]
                    for _ in range(rows)]
            M = FieldMatrix(f, data)
            red = rref(M)
            again = rref(red.matrix)
            assert again.matrix == red.matrix
            assert again.rank == red.rank
            assert red.rank == rref(FieldMatrix(f, M.data.T)).rank


def test_rref_pivot_columns_are_unit():
    f9 = field(3, 2)
    M = FieldMatrix(f9, [[2, 4, 1], [5, 1, 0], [7, 5, 1]])
    red = rref(M)
    for i, pc in enumerate(red.pivots):
        col = red.matrix.data[:, pc]
        assert col[i] == 1
        assert all(col[j] == 0 for j in range(red.matrix.nrows) if j != i)


@st.composite
def field_matrices(draw, fields=SUPPORTED_FIELDS, max_rows=6):
    p, k = draw(st.sampled_from(fields))
    f = field(p, k)
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, 7))
    data = draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=ncols,
                                  max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return FieldMatrix(f, np.array(data, dtype=np.int32).reshape(nrows, ncols))


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_rref_rank_and_dual_properties(M):
    f = M.field
    red = rref(M)
    again = rref(red.matrix)
    assert again == red
    assert red.rank == rref(FieldMatrix(f, M.data.T)).rank
    R = red.matrix.data
    if f.q ** M.nrows <= 4096:
        span = span_reference(f, M.data)
        assert span_reference(f, R) == span
        assert f.q ** red.rank == len(span)
    assert list(red.pivots) == sorted(set(red.pivots))
    for i, pc in enumerate(red.pivots):
        assert list(R[:, pc]) == [int(j == i) for j in range(M.nrows)]
        assert not R[i, :pc].any()
    assert not R[red.rank:].any()
    D = dual(M)
    assert red.rank + rref(D).rank == M.ncols
    if M.nrows and D.nrows:
        assert not f.matmul(M.data, D.data.T).any()


def test_hermitian_full_matrix_rank(herm2_table):
    M = FieldMatrix(herm2_table.field, herm2_table.rows_up_to(9))
    assert M.nrows == 9
    assert rref(M).rank == 8


def test_matrix_entry_validation():
    f4 = field(2, 2)
    with pytest.raises(ValueError):
        FieldMatrix(f4, [[0, 4]])
    with pytest.raises(ValueError):
        FieldMatrix(f4, [[0, -1]])
    with pytest.raises(InvariantViolation):
        FieldMatrix(f4, [[0, 4]])
    with pytest.raises(MatrixShapeMismatch):
        FieldMatrix(f4, [0, 1, 2])
    assert issubclass(InvariantViolation, AgbError)


@pytest.mark.parametrize("data", [
    np.array([[2 ** 32 + 1]], dtype=np.int64),  # an int32 cast wraps it to 1
    [[1.7]],
    [["1"]],
    [[2 ** 31]],
    [[0, 1], [2]],
], ids=["int64-wraps", "float", "string", "python-int-2^31", "ragged"])
def test_matrix_entries_are_checked_before_the_cast(data):
    with pytest.raises(InvariantViolation):
        FieldMatrix(field(2, 2), data)


@pytest.mark.parametrize("p,k", [(2, 2), (13, 2)])
def test_every_field_array_has_the_element_type(herm2_table, p, k):
    f = field(p, k)
    a = [[0, 1], [f.q - 1, 2]]
    arrays = [f.add_arrays(a, a), f.mul_arrays(a, a), f.neg_arrays(a),
              f.scale_array(2, a), f.matmul(a, a), FieldMatrix(f, a).data,
              rref(FieldMatrix(f, a)).matrix.data,
              dual(FieldMatrix(f, [[1, 1]])).data,
              code(herm2_table, 5).matrix.data,
              chain_matrix(herm2_table).data, code_chain(herm2_table).basis]
    assert np.dtype(ELEMENT).itemsize == 1
    assert [x.dtype for x in arrays] == [np.dtype(ELEMENT)] * len(arrays)


def test_matrix_json_roundtrip(tmp_path):
    from agb import save_matrix
    f9 = field(3, 2)
    M = FieldMatrix(f9, [[0, 1, 8], [3, 4, 5]])
    path = tmp_path / "m.json"
    save_matrix(M, path)
    assert json.loads(path.read_text()) == {"p": 3, "k": 2, "rows": 2,
                                            "cols": 3,
                                            "data": [0, 1, 8, 3, 4, 5]}


def test_large_field_construction():
    f = field(13, 2)
    assert f.q == 169
    for x in range(1, f.q):
        assert f.mul(x, f.inv(x)) == 1
