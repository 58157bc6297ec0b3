import json

import numpy as np
import pytest

from agb import (FieldMatrix, HStar, NumericalSemigroup, biorthogonal_adjust,
                 code, code_chain, empirical_hstar, evalcode, field,
                 find_isometry_vector, generic_bound, hermitian_table,
                 improved_generators, load_table, min_distance, rref,
                 save_table)
from agb.errors import (BudgetOutOfRange, DeltaOutOfRange, InvariantViolation,
                        MalformedChain, NotIsometryDual, SchemaError,
                        UnreadableFile, UnsupportedParameter, UnwritableFile,
                        ZeroPivot)
from agb.evalcode import EvaluationTable, chain_matrix, measured_dimensions
from agb.verify import run_verification
from agb.bounds import improved_profile, lambda_profile

from conftest import HERMITIAN_FIELDS, dot, hermitian_table_per_point, star


def test_hermitian_q0_2_shape(herm2_table):
    t = herm2_table
    assert t.n == 8
    assert t.genus == 1
    assert t.field.q == 4
    assert t.semigroup.generators == (2, 3)
    assert [f.pole_order for f in t.functions] == [0, 2, 3, 4, 5, 6, 7, 8, 9]
    assert list(t.functions[0].values) == [1] * 8


def test_hermitian_q0_3_shape(herm3_table):
    t = herm3_table
    assert t.n == 27
    assert t.genus == 3
    assert t.field.q == 9
    assert t.semigroup.generators == (3, 4)
    # members of <3,4> up to n+2g-1 = 32: all of 0..32 except gaps 1, 2, 5
    assert len(t.functions) == 30


def test_hermitian_q0_4_shape(herm4_table):
    t = herm4_table
    assert t.n == 64
    assert t.genus == 6
    assert (t.field.p, t.field.k) == (2, 4)
    assert t.semigroup.generators == (4, 5)
    assert list(t.functions[0].values) == [1] * 64


def test_hermitian_points_satisfy_curve(herm2_table, herm3_table, herm4_table):
    for q0, t in ((2, herm2_table), (3, herm3_table), (4, herm4_table)):
        f = t.field
        # rows 1 and 2 have pole orders q0 and q0 + 1: the functions x and y
        xrow, yrow = t.functions[1].values, t.functions[2].values
        for x, y in zip(xrow, yrow):
            assert f.add(f.pow(int(y), q0), int(y)) == f.pow(int(x), q0 + 1)


def test_hermitian_unsupported_parameter():
    # 6 is no prime power; GF(64) and GF(256) are beyond agb.gf
    for q0 in (1, 6, 8, 16):
        with pytest.raises(UnsupportedParameter):
            hermitian_table(q0)


@pytest.mark.parametrize("q0", sorted(HERMITIAN_FIELDS))
def test_hermitian_table_matches_per_point_reference(q0):
    t, ref = hermitian_table(q0), hermitian_table_per_point(q0)
    assert t.field == ref.field
    assert t.points == ref.points
    assert t.semigroup.generators == ref.semigroup.generators
    assert [f.pole_order for f in t.functions] == \
        [f.pole_order for f in ref.functions]
    for row, ref_row in zip(t.functions, ref.functions):
        assert np.array_equal(row.values, ref_row.values)


@pytest.mark.parametrize("q0, p, k", [(5, 5, 2), (7, 7, 2), (9, 3, 4),
                                      (11, 11, 2), (13, 13, 2)])
def test_hermitian_builds_every_supported_field(q0, p, k):
    t = hermitian_table(q0)
    assert (t.field.p, t.field.k) == (p, k)
    assert t.n == q0 ** 3
    assert t.genus == q0 * (q0 - 1) // 2
    assert t.semigroup.generators == (q0, q0 + 1)


@pytest.mark.parametrize("q0", [5, 7])
def test_hermitian_measured_jump_set_pinned(q0):
    S = NumericalSemigroup.from_generators((q0, q0 + 1))
    assert empirical_hstar(hermitian_table(q0)) == \
        HStar.from_equiv_divisor(S, q0 ** 3)


def test_code_dimensions(herm2_table):
    assert code(herm2_table, 0).dimension == 1
    assert code(herm2_table, 9).dimension == 8
    assert code(herm2_table, 8).dimension == 7
    with pytest.raises(BudgetOutOfRange):
        code(herm2_table, 10)
    with pytest.raises(BudgetOutOfRange):
        code(herm2_table, -1)


def test_measured_dimensions_structure(herm2_table, herm3_table):
    for t in (herm2_table, herm3_table):
        dims = measured_dimensions(t)
        assert len(dims) == t.n + 2 * t.genus
        assert dims[-1] == t.n
        steps = [b - a for a, b in zip([0] + dims, dims)]
        assert set(steps) <= {0, 1}
        for m in range(t.n):
            assert (steps[m] == 1) == t.semigroup.contains(m)


def test_code_dimension_is_rank_of_its_matrix(herm2_table, herm3_table):
    # code() reads the measured chain; rref counts the rank independently
    for t in (herm2_table, herm3_table):
        for m in range(t.top_order + 1):
            c = code(t, m)
            assert c.dimension == rref(c.matrix).rank


def test_code_works_on_a_chain_that_is_not_a_jump_set():
    # the row at pole order 1 repeats the constant row, so the dimension
    # stalls at m = 1 and the measured sequence is no valid chain
    f4 = field(2, 2)
    S = NumericalSemigroup.from_generators([1])
    table = EvaluationTable(
        f4, ["P0", "P1", "P2"],
        [(0, [1, 1, 1]), (1, [1, 1, 1]), (2, [0, 1, 3])], S)
    assert measured_dimensions(table) == [1, 1, 2]
    assert [code(table, m).dimension for m in range(3)] == [1, 1, 2]
    # a failure is never kept: every call measures and raises again
    for fn in (empirical_hstar, empirical_hstar, chain_matrix):
        with pytest.raises(MalformedChain):
            fn(table)


def test_empirical_hstar(herm2_table, herm3_table, herm4_table):
    hs2 = empirical_hstar(herm2_table)
    assert hs2.members == (0, 2, 3, 4, 5, 6, 7, 9)
    hs3 = empirical_hstar(herm3_table)
    assert hs3 == HStar.from_equiv_divisor(herm3_table.semigroup, 27)
    hs4 = empirical_hstar(herm4_table)
    assert hs4 == HStar.from_equiv_divisor(
        NumericalSemigroup.from_generators([4, 5]), 64)
    assert hs4.is_isometry_dual()
    # re-validation through the explicit constructor must succeed
    for hs in (hs2, hs3, hs4):
        assert HStar.from_explicit(hs.semigroup, hs.n, hs.members) == hs


def test_table_roundtrip(tmp_path, herm2_table):
    path = tmp_path / "h2.json"
    save_table(herm2_table, path)
    back = load_table(path)
    assert back.n == herm2_table.n
    assert back.points == herm2_table.points
    assert back.semigroup == herm2_table.semigroup
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(back.functions, herm2_table.functions))


def test_handwritten_table_over_trivial_semigroup():
    f4 = field(2, 2)
    S = NumericalSemigroup.from_generators([1])
    table = EvaluationTable(
        f4, ["P0", "P1", "P2"],
        [(0, [1, 1, 1]), (1, [0, 1, 2]), (2, [0, 1, 3])], S)
    hs = empirical_hstar(table)
    assert hs.members == (0, 1, 2)
    assert code(table, 2).dimension == 3


def test_table_rejects_non_monotone_pole_orders():
    f4 = field(2, 2)
    S = NumericalSemigroup.from_generators([1])
    with pytest.raises(InvariantViolation):
        EvaluationTable(f4, ["P0", "P1", "P2"],
                        [(1, [0, 1, 2]), (0, [1, 1, 1]), (2, [0, 1, 3])], S)


def test_table_rejects_wrong_pole_set():
    f4 = field(2, 2)
    S = NumericalSemigroup.from_generators([1])
    with pytest.raises(InvariantViolation):
        EvaluationTable(f4, ["P0", "P1", "P2"],
                        [(0, [1, 1, 1]), (2, [0, 1, 3])], S)


def test_table_rejects_non_unit_first_row():
    f4 = field(2, 2)
    S = NumericalSemigroup.from_generators([1])
    with pytest.raises(InvariantViolation):
        EvaluationTable(f4, ["P0", "P1", "P2"],
                        [(0, [1, 2, 1]), (1, [0, 1, 2]), (2, [0, 1, 3])], S)


def _tiny_rows(value):
    """Rows over the trivial semigroup, with value as the last entry."""
    return [(0, [1, 1, 1]), (1, [0, 1, 2]), (2, [0, 1, value])]


# an int32 cast would truncate 1.7, parse "1", overflow 2^31 and wrap 2^32 + 1
UNCASTABLE = [1.7, "1", 2 ** 31, 2 ** 32 + 1]
UNCASTABLE_IDS = ["float", "str", "2^31", "2^32+1"]


@pytest.mark.parametrize("value", UNCASTABLE, ids=UNCASTABLE_IDS)
def test_table_rejects_values_a_cast_would_change(value):
    S = NumericalSemigroup.from_generators([1])
    with pytest.raises(InvariantViolation):
        EvaluationTable(field(2, 2), ["P0", "P1", "P2"], _tiny_rows(value), S)


def _tiny_table_file(path, rows):
    """A table file over the trivial semigroup holding rows."""
    path.write_text(json.dumps({
        "field": {"p": 2, "k": 2}, "n": 3, "genus": 0,
        "semigroup_generators": [1], "points": ["P0", "P1", "P2"],
        "functions": [{"pole_order": po, "values": vals}
                      for po, vals in rows]}))
    return path


@pytest.mark.parametrize("value", UNCASTABLE, ids=UNCASTABLE_IDS)
def test_load_table_rejects_values_a_cast_would_change(tmp_path, value):
    path = _tiny_table_file(tmp_path / "t.json", _tiny_rows(value))
    with pytest.raises(InvariantViolation):
        load_table(path)


def _tiny_rows_with_pole(index, pole):
    rows = _tiny_rows(3)
    rows[index] = (pole, rows[index][1])
    return rows


# int() would load 0.9, "1" and 2.7 as the valid pole orders 0, 1 and 2
BAD_POLES = [(0, 0.9), (1, "1"), (2, 2.7), (1, True)]
BAD_POLE_IDS = ["0.9", "str", "2.7", "bool"]


@pytest.mark.parametrize("index, pole", BAD_POLES, ids=BAD_POLE_IDS)
def test_table_rejects_pole_orders_a_cast_would_change(index, pole):
    S = NumericalSemigroup.from_generators([1])
    with pytest.raises(InvariantViolation, match="not an integer"):
        EvaluationTable(field(2, 2), ["P0", "P1", "P2"],
                        _tiny_rows_with_pole(index, pole), S)


@pytest.mark.parametrize("index, pole", BAD_POLES, ids=BAD_POLE_IDS)
def test_load_table_rejects_pole_orders_a_cast_would_change(tmp_path, index,
                                                           pole):
    path = _tiny_table_file(tmp_path / "t.json",
                            _tiny_rows_with_pole(index, pole))
    with pytest.raises(InvariantViolation, match="not an integer"):
        load_table(path)


def test_table_accepts_numpy_integer_pole_orders():
    S = NumericalSemigroup.from_generators([1])
    rows = [(np.int64(po), vals) for po, vals in _tiny_rows(3)]
    table = EvaluationTable(field(2, 2), ["P0", "P1", "P2"], rows, S)
    assert [type(f.pole_order) for f in table.functions] == [int] * 3


def test_table_rejects_a_row_of_wrong_length():
    S = NumericalSemigroup.from_generators([1])
    rows = [(0, [1, 1, 1]), (1, [0, 1]), (2, [0, 1, 3])]
    with pytest.raises(InvariantViolation, match="wrong length"):
        EvaluationTable(field(2, 2), ["P0", "P1", "P2"], rows, S)


# int() would read 8.5 as 8, "8" as 8 and true as 1, so each is refused
@pytest.mark.parametrize("bad", [lambda v: v + 0.5, str, lambda v: True],
                         ids=["float", "numeric-string", "bool"])
@pytest.mark.parametrize("path", [("field", "p"), ("field", "k"), ("n",),
                                  ("genus",), ("semigroup_generators", 1)],
                         ids=["p", "k", "n", "genus", "semigroup_generators"])
def test_load_table_integer_fields_are_checked_not_cast(tmp_path, herm2_table,
                                                        path, bad):
    target = tmp_path / "h2.json"
    save_table(herm2_table, target)
    obj = json.loads(target.read_text())
    *outer, last = path
    holder = obj
    for key in outer:
        holder = holder[key]
    holder[last] = bad(holder[last])
    target.write_text(json.dumps(obj))
    with pytest.raises(SchemaError):
        load_table(target)


@pytest.mark.parametrize("point", [1.5, None], ids=["float", "null"])
def test_load_table_points_must_be_strings(tmp_path, herm2_table, point):
    # str() would have loaded these as '1.5' and 'None'
    target = tmp_path / "h2.json"
    save_table(herm2_table, target)
    obj = json.loads(target.read_text())
    obj["points"][3] = point
    target.write_text(json.dumps(obj))
    with pytest.raises(SchemaError):
        load_table(target)


def test_load_table_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": {"p": 2, "k": 2}, "n": 3}))
    with pytest.raises(SchemaError):
        load_table(path)


def test_table_file_errors(tmp_path, herm2_table):
    with pytest.raises(UnreadableFile):
        load_table(tmp_path / "absent.json")
    with pytest.raises(UnwritableFile):
        save_table(herm2_table, tmp_path / "absent" / "h2.json")


def test_load_table_not_json(tmp_path):
    path = tmp_path / "t.json"
    path.write_text("not json")
    with pytest.raises(UnreadableFile):
        load_table(path)


def test_load_table_genus_mismatch(tmp_path, herm2_table):
    path = tmp_path / "h2.json"
    save_table(herm2_table, path)
    obj = json.loads(path.read_text())
    obj["genus"] = 2
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError):
        load_table(path)


def test_improved_generators_full_space(herm2_table):
    mat = improved_generators(herm2_table, 1)
    assert mat.nrows == 8
    assert rref(mat).rank == 8


def _row_space_basis(mat):
    red = rref(mat)
    return red.matrix.data[: red.rank].tolist()


def test_improved_generators_monotone_delta_is_chain_code(herm2_table):
    hs = empirical_hstar(herm2_table)
    profile = lambda_profile(hs)
    for delta in range(1, 9):
        indices = [i for i in range(1, 9) if profile.count(i) >= delta]
        if indices != list(range(1, len(indices) + 1)):
            continue  # only monotone deltas give ordinary chain codes
        mat = improved_generators(herm2_table, delta)
        if mat.nrows == 0:
            continue
        m_budget = hs.m(len(indices))
        chain_code = code(herm2_table, m_budget).matrix
        assert _row_space_basis(mat) == _row_space_basis(chain_code)


def test_improved_generators_distance(herm2_table):
    for delta in range(1, 9):
        mat = improved_generators(herm2_table, delta)
        if mat.nrows == 0:
            continue
        assert min_distance(mat) >= delta


def test_improved_generators_delta_out_of_range(herm2_table):
    with pytest.raises(DeltaOutOfRange):
        improved_generators(herm2_table, 0)
    with pytest.raises(DeltaOutOfRange):
        improved_generators(herm2_table, 9)


def test_biorthogonal_adjust(herm2_table):
    chain = code_chain(herm2_table)
    x = find_isometry_vector(chain)
    assert x is not None
    adjusted = biorthogonal_adjust(herm2_table, x)
    fld = herm2_table.field
    w = chain_matrix(herm2_table).data
    n = w.shape[0]
    for i in range(n):
        row = star(fld, np.array(x, dtype=np.int32), adjusted.data[i])
        for j in range(n):
            pairing = dot(fld, row, w[j])
            if j == n - 1 - i:
                assert pairing != 0
            else:
                assert pairing == 0
    # the first chain row is left untouched
    assert np.array_equal(adjusted.data[0], w[0])


def test_biorthogonal_adjust_with_unequal_mirror_pairings(herm2_table):
    # scaling row i by 1 + (i mod 3) keeps the witness but makes the mirror
    # pairings differ, so each coefficient must divide by its own pair[i, i]
    fld = herm2_table.field
    table = EvaluationTable(
        fld, herm2_table.points,
        [(f.pole_order, fld.scale_array(1 + i % 3, f.values))
         for i, f in enumerate(herm2_table.functions)],
        herm2_table.semigroup)
    x = find_isometry_vector(code_chain(table))
    assert x == (1,) * 8
    w = chain_matrix(table).data
    mirror = [dot(fld, w[i], w[7 - i]) for i in range(8)]
    assert mirror == [3, 2, 2, 2, 2, 2, 2, 3]
    adjusted = biorthogonal_adjust(table, x).data
    gram = fld.matmul(adjusted, w.T)
    assert (gram[:, ::-1] != 0).tolist() == np.eye(8, dtype=bool).tolist()
    for s in range(1, 9):
        assert rref(FieldMatrix(fld, np.vstack([w[:s], adjusted[:s]]))).rank == s


def test_biorthogonal_adjust_rejects_bad_witness(herm2_table):
    with pytest.raises(NotIsometryDual):
        biorthogonal_adjust(herm2_table, [0] * 8)
    with pytest.raises(NotIsometryDual):
        biorthogonal_adjust(herm2_table, [1, 2, 3, 1, 2, 3, 1, 0])


@pytest.mark.parametrize("x", [[4] * 8, [-1] * 8, [1.5] * 8, [257] * 8],
                         ids=["past-q", "negative", "float", "wraps-a-byte"])
def test_biorthogonal_adjust_rejects_entries_outside_the_field(herm2_table,
                                                               x):
    # unchecked, [1.5] * 8 passes as the all-ones witness
    with pytest.raises(InvariantViolation):
        biorthogonal_adjust(herm2_table, x)


def test_biorthogonal_adjust_pinned_rows(herm2_table):
    # rows generated by the pairing-by-pairing adjustment that computed
    # every (x * w_s) . w_j with its own dot product
    x = find_isometry_vector(code_chain(herm2_table))
    assert x == (1,) * 8
    assert biorthogonal_adjust(herm2_table, x).data.tolist() == [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [0, 0, 1, 1, 2, 2, 3, 3],
        [1, 0, 3, 2, 3, 2, 3, 2],
        [0, 0, 1, 1, 3, 3, 2, 2],
        [0, 0, 3, 2, 1, 3, 2, 1],
        [1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 3, 2, 2, 1, 1, 3],
        [1, 0, 0, 0, 0, 0, 0, 0],
    ]


@pytest.mark.parametrize("x", [
    [1, 2, 3, 1, 2, 3, 1, 2],  # a mirror pairing of the raw rows vanishes
    [1, 1, 1, 1, 1, 1, 1, 2],  # only the adjusted rows show the fault
])
def test_biorthogonal_adjust_rejects_nonzero_invalid_witness(herm2_table, x):
    with pytest.raises(ZeroPivot):
        biorthogonal_adjust(herm2_table, x)


def test_improved_generators_with_adjustment(herm2_table):
    chain = code_chain(herm2_table)
    x = find_isometry_vector(chain)
    adjusted = biorthogonal_adjust(herm2_table, x)
    hs = empirical_hstar(herm2_table)
    for delta in (2, 3, 4):
        indices = improved_profile(hs, delta).indices
        mat = adjusted[[i - 1 for i in indices]]
        assert mat.nrows == improved_generators(herm2_table, delta).nrows
        assert min_distance(mat) >= delta


def test_biorthogonal_adjust_gf9(herm3_table):
    chain = code_chain(herm3_table)
    x = find_isometry_vector(chain)
    assert x is not None
    adjusted = biorthogonal_adjust(herm3_table, x)
    fld = herm3_table.field
    w = chain_matrix(herm3_table).data
    n = w.shape[0]
    xv = np.array(x, dtype=np.int32)
    gram = fld.matmul(fld.mul_arrays(adjusted.data, xv[None, :]), w.T)
    anti = np.zeros((n, n), dtype=bool)
    anti[np.arange(n), np.arange(n)[::-1]] = True
    assert (gram[anti] != 0).all()
    assert (gram[~anti] == 0).all()


@pytest.mark.parametrize("q0", [2, 3, 4, 5])
def test_one_elimination_gives_the_pivots_and_the_inverse(monkeypatch, q0):
    # the chain pass reduces [rows^T | I] once: its pivots are those of the
    # transpose alone, and the chain built after it inverts B with no
    # elimination of its own
    table = hermitian_table(q0)
    fld, n = table.field, table.n
    rows = table.rows_up_to(table.top_order)
    pivots = list(rref(FieldMatrix(fld, rows.T)).pivots)
    calls = []
    for mod in (evalcode, generic_bound):
        monkeypatch.setattr(mod, "rref",
                            lambda M, real=rref: calls.append(1) or real(M))
    dims = measured_dimensions(table)
    chain = code_chain(table)
    assert len(calls) == 1
    assert dims == np.searchsorted(
        [table.functions[j].pole_order for j in pivots],
        range(table.top_order + 1), "right").tolist()
    assert (chain.basis == rows[pivots]).all()
    inverse = chain.dual_rows(()).T
    assert (fld.matmul(chain.basis, inverse) == np.eye(n)).all()


def test_rank_deficient_table_has_no_chain():
    # two equal points leave the table rank n - 1, so the one elimination
    # finds too few pivots and no chain, verification included, is built
    herm = hermitian_table(2)
    functions = []
    for f in herm.functions:
        values = f.values.copy()
        values[1] = values[0]
        functions.append((f.pole_order, values))
    table = EvaluationTable(herm.field, herm.points, functions, herm.semigroup)
    assert measured_dimensions(table)[-1] == herm.n - 1
    for fn in (empirical_hstar, chain_matrix, code_chain, run_verification):
        with pytest.raises(MalformedChain):
            fn(table)
