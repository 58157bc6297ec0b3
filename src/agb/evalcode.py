"""Concrete one-point evaluation codes from tabulated function values.

An :class:`EvaluationTable` holds, for every pole order up to n+2g-1, the
values of one function with that pole order at n fixed points.  Truncating the
table at a budget m yields the generator matrix of the code at m; one ``rref``
per table finds the chain rows, measures every dimension and so recovers the
jump set empirically, with no curve machinery at runtime; the same one
inverts the chain rows, for every dual, the isometry witness and the
biorthogonal rows.  Built-in constructor: Hermitian curves for every q0 = p^e
whose field GF(q0^2) ``agb.gf`` supports: 2, 3, 4, 5, 7, 9, 11 and 13.
"""

import json
from typing import NamedTuple

import numpy as np

from . import bounds
from .errors import (BudgetOutOfRange, InvariantViolation, NotIsometryDual,
                     SchemaError, UnreadableFile, UnsupportedField,
                     UnsupportedParameter, UnwritableFile, ZeroPivot,
                     _json_int)
from .generic_bound import CodeChain
from .gf import FieldMatrix, FiniteField, field, field_array, rref
from .hstar import HStar
from .semigroup import NumericalSemigroup


class FunctionRow(NamedTuple):
    pole_order: int
    values: np.ndarray


def _pole_order(po) -> int:
    # a cast would truncate 0.9 and parse "1", so only integers pass
    if isinstance(po, bool) or not isinstance(po, (int, np.integer)):
        raise InvariantViolation(f"pole order {po!r} is not an integer")
    return int(po)


class EvaluationTable:
    """Ordered function-value rows over a fixed point set.

    Invariants (checked on construction): pole orders are integers, not
    bools, strictly increasing and equal to the semigroup members up to
    n+2g-1; the pole-order-0 row is the all-ones vector; every value is an
    integer in [0, q), checked before the cast to the element type.
    """

    __slots__ = ("field", "points", "functions", "semigroup", "_pivots",
                 "_inverse", "_hstar", "_chain", "_code_chain")

    def __init__(self, fld: FiniteField, points, functions,
                 semigroup: NumericalSemigroup):
        self.field = fld
        self.points = tuple(str(p) for p in points)
        self.functions = tuple(
            FunctionRow(_pole_order(po), field_array(fld, vals))
            for po, vals in functions
        )
        self.semigroup = semigroup
        self._pivots = self._inverse = self._hstar = None
        self._chain = self._code_chain = None
        self._check()

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def genus(self) -> int:
        return self.semigroup.genus

    @property
    def top_order(self) -> int:
        return self.n + 2 * self.genus - 1

    def _check(self) -> None:
        n = self.n
        poles = [f.pole_order for f in self.functions]
        if poles != sorted(set(poles)):
            raise InvariantViolation("pole orders must be strictly increasing")
        expected = self.semigroup.elements_up_to(self.top_order)
        if poles != expected:
            raise InvariantViolation(
                "pole orders must be exactly the semigroup members up to n+2g-1"
            )
        for f in self.functions:
            if f.values.shape != (n,):
                raise InvariantViolation(
                    f"row of pole order {f.pole_order} has wrong length"
                )
        if not (self.functions[0].values == 1).all():
            raise InvariantViolation("the pole-order-0 row must be all ones")

    def rows_up_to(self, m: int) -> np.ndarray:
        """Stacked value rows for all pole orders <= m."""
        rows = [f.values for f in self.functions if f.pole_order <= m]
        if not rows:
            return field_array(self.field, np.zeros((0, self.n), dtype=int))
        return np.stack(rows)


class OnePointCode(NamedTuple):
    table: EvaluationTable
    m: int
    matrix: FieldMatrix
    dimension: int


def _hermitian_field(q0) -> FiniteField:
    """GF(q0^2) as GF(p^(2e)) for q0 = p^e, when ``agb.gf`` supports it;
    every other q0 raises UnsupportedParameter (past 16, q0^2 > 256)."""
    if isinstance(q0, (int, np.integer)) and 2 <= q0 <= 16:
        p = next(d for d in range(2, q0 + 1) if q0 % d == 0)
        e = 1
        while p ** e < q0:
            e += 1
        if p ** e == q0:
            try:
                return field(p, 2 * e)
            except UnsupportedField:
                pass
    raise UnsupportedParameter(
        f"q0 must be a prime power whose square field agb.gf supports "
        f"(2, 3, 4, 5, 7, 9, 11 or 13), got {q0!r}")


def hermitian_table(q0: int) -> EvaluationTable:
    """Evaluation table of the Hermitian curve y^q0 + y = x^(q0+1) over GF(q0^2).

    Points are the q0^3 affine solutions in lexicographic (x, y) order;
    functions are the monomials x^a y^b with 0 <= b < q0, one per pole order
    a*q0 + b*(q0+1) in the semigroup generated by q0 and q0+1.  Both come
    from array steps over the field's power table.
    """
    fld = _hermitian_field(q0)
    elems = np.arange(fld.q)
    lhs = fld.add_arrays(fld.pow_arrays(elems, q0), elems)
    px, py = np.nonzero(fld.pow_arrays(elems, q0 + 1)[:, None] == lhs)
    S = NumericalSemigroup.from_generators((q0, q0 + 1))
    poles = S.elements_up_to(len(px) + 2 * S.genus - 1)
    column = np.array(poles)[:, None]
    b = column % q0
    a = (column - b * (q0 + 1)) // q0
    values = fld.mul_arrays(fld.pow_arrays(px, a), fld.pow_arrays(py, b))
    labels = [f"({x},{y})" for x, y in zip(px.tolist(), py.tolist())]
    return EvaluationTable(fld, labels, zip(poles, values), S)


def code(table: EvaluationTable, m: int) -> OnePointCode:
    """Code at pole-order budget m: rows with pole order <= m, plus its rank."""
    if not 0 <= m <= table.top_order:
        raise BudgetOutOfRange(
            f"budget {m} outside [0, {table.top_order}]"
        )
    mat = FieldMatrix(table.field, table.rows_up_to(m))
    return OnePointCode(table, m, mat, measured_dimensions(table)[m])


def _chain_pivots(table: EvaluationTable) -> list[int]:
    """Indices of the chain rows, those that raise the rank, from one
    ``rref`` of [rows^T | I], kept on the table, which never changes.

    Its pivots among the first columns are those of the transpose alone.
    When they are n, the row operations E in its last n columns satisfy
    E B^T = I for the chain rows B, so B^-1 = E^T, kept too.
    """
    if table._pivots is None:
        rows = table.rows_up_to(table.top_order)
        total = len(rows)
        augmented = np.hstack([rows.T, np.eye(table.n, dtype=rows.dtype)])
        red = rref(FieldMatrix(table.field, augmented))
        table._pivots = [c for c in red.pivots if c < total]
        table._inverse = red.matrix.data[:, total:].T
    return table._pivots


def measured_dimensions(table: EvaluationTable) -> list[int]:
    """Measured code dimension at every budget m = 0 .. n+2g-1: the number
    of chain rows with pole order <= m."""
    jumps = [table.functions[j].pole_order for j in _chain_pivots(table)]
    return np.searchsorted(jumps, range(table.top_order + 1), "right").tolist()


def empirical_hstar(table: EvaluationTable) -> HStar:
    """Jump set read off the measured dimension chain; kept on the table once
    valid, so a malformed chain raises MalformedChain on every call."""
    if table._hstar is None:
        table._hstar = HStar.from_dimension_chain(measured_dimensions(table),
                                                  table.semigroup)
    return table._hstar


def chain_matrix(table: EvaluationTable) -> FieldMatrix:
    """The n chain rows, those at the empirical jump pole orders, in order;
    kept on the table once the chain is valid."""
    empirical_hstar(table)   # a malformed chain raises here, on every call
    if table._chain is None:
        rows = table.rows_up_to(table.top_order)
        table._chain = FieldMatrix(table.field, rows[_chain_pivots(table)])
    return table._chain


def improved_generators(table: EvaluationTable, delta: int) -> FieldMatrix:
    """Generator matrix of the improved code with designed distance delta:
    the chain rows at the indices of ``bounds.improved_profile``, those
    whose profile count reaches delta."""
    indices = bounds.improved_profile(empirical_hstar(table), delta).indices
    return chain_matrix(table)[[i - 1 for i in indices]]


def biorthogonal_adjust(table: EvaluationTable, x) -> FieldMatrix:
    """Replace each chain row so it pairs nonzero only with its mirror index.

    Given an isometry witness x, returns rows w'_1..w'_n with the same
    triangular span such that (x * w'_s) . w_j vanishes unless j = n-s+1,
    where it keeps the raw mirror pairing p_s = (x * w_s) . w_{n-s+1}.  Those
    pairings fix each row, and the chain's inverse B^-1 gives it:
    w'_s = p_s * x^-1 * B^-1[:, n-s+1].  A valid witness makes every w'_s
    equal w_s plus earlier rows, so their coordinates w' B^-1 must be unit
    lower-triangular, and their pairings with the w_j must be antidiagonal.
    """
    fld = table.field
    hs = empirical_hstar(table)
    if not hs.is_isometry_dual():
        raise NotIsometryDual("the measured chain is not isometry-dual")
    x = field_array(fld, x)
    n = hs.n
    if x.shape != (n,) or not (x != 0).all():
        raise NotIsometryDual("witness must have n nonzero coordinates")
    w = chain_matrix(table).data
    mirror = fld.matmul(fld.mul_arrays(w, w[::-1]), x[:, None])[:, 0]
    if not mirror.all():
        row = int(np.flatnonzero(mirror == 0)[0]) + 1
        raise ZeroPivot(f"mirror pairing vanished at row {row}; invalid witness")
    inverse = code_chain(table).dual_rows(())   # row j is B^-1[:, j]
    adj = fld.mul_arrays(fld.mul_arrays(inverse[::-1], fld.inv_arrays(x)),
                         mirror[:, None])
    coords = fld.matmul(adj, inverse.T)
    if np.triu(coords, 1).any() or (np.diagonal(coords) != 1).any():
        raise ZeroPivot("adjusted rows leave the chain's triangular span; "
                        "invalid witness")
    # post-condition: pairings vanish exactly off the antidiagonal
    gram = fld.matmul(fld.mul_arrays(adj, x[None, :]), w.T)
    off = np.ones((n, n), dtype=bool)
    off[np.arange(n), np.arange(n)[::-1]] = False
    if gram[off].any() or (gram[~off] == 0).any():
        raise ZeroPivot("adjusted rows violate the biorthogonality pattern")
    return FieldMatrix(fld, adj)


def save_table(table: EvaluationTable, path) -> None:
    obj = {
        "field": {"p": table.field.p, "k": table.field.k},
        "n": table.n,
        "genus": table.genus,
        "semigroup_generators": list(table.semigroup.generators),
        "points": list(table.points),
        "functions": [
            {"pole_order": f.pole_order, "values": [int(v) for v in f.values]}
            for f in table.functions
        ],
    }
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    except OSError as exc:
        raise UnwritableFile(f"cannot write {path}: {exc.strerror}") from exc


def load_table(path) -> EvaluationTable:
    """Read and fully validate a table file; see save_table for the schema."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UnreadableFile(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise UnreadableFile(f"cannot read {path}: not JSON ({exc})") from exc
    try:
        fld = field(_json_int(obj["field"]["p"], "p"),
                    _json_int(obj["field"]["k"], "k"))
        n = _json_int(obj["n"], "n")
        genus = _json_int(obj["genus"], "genus")
        gens = [_json_int(g, "semigroup_generators")
                for g in obj["semigroup_generators"]]
        points = obj["points"]  # a cast would load 1.5 and null as strings
        if not all(isinstance(p, str) for p in points):
            raise SchemaError("every point must be a string")
        functions = [(f["pole_order"], f["values"])
                     for f in obj["functions"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed table file: {exc}") from exc
    S = NumericalSemigroup.from_generators(gens)
    if len(points) != n:
        raise SchemaError(f"point count {len(points)} does not match n={n}")
    if S.genus != genus:
        raise SchemaError(
            f"declared genus {genus} does not match the semigroup ({S.genus})"
        )
    return EvaluationTable(fld, points, functions, S)


def code_chain(table: EvaluationTable) -> CodeChain:
    """Code chain over the empirical jump rows, kept on the table; its
    inverse is the one the chain pass found, so building it eliminates
    nothing; see :mod:`agb.generic_bound`."""
    if table._code_chain is None:
        table._code_chain = CodeChain._of_inverse(
            table.field, chain_matrix(table).data, table._inverse)
    return table._code_chain
