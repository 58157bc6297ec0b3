"""Order-type minimum-distance bound for arbitrary linear codes.

Fix an ordered basis b_1..b_n of the ambient space and the nested codes
C_i spanned by the first i basis vectors.  The position map nu sends a vector
to its last nonzero coordinate, read through one inverse of the basis, which
also gives the dual of any set of basis vectors with no elimination; pairs
of basis vectors whose componentwise product reaches a strictly higher nu than
all dominated pairs ("well-behaving" pairs) yield a per-level weight bound,
and the running minimum bounds the minimum distance of every C_i.
"""

import numpy as np

from .errors import DependentInput, IndexOutOfRange, MatrixShapeMismatch
from .gf import FieldMatrix, FiniteField, field_array, rref


class CodeChain:
    """Full-rank ordered basis of F_q^n with coordinates from one inverse."""

    def __init__(self, fld: FiniteField, basis):
        basis = FieldMatrix(fld, basis).data
        n = basis.shape[0]
        if basis.shape[1] != n:
            raise DependentInput("a chain needs n independent vectors of length n")
        # [B | I] reduces to [I | B^-1] exactly when B is invertible
        augmented = np.hstack([basis, np.eye(n, dtype=int)])
        red = rref(FieldMatrix(fld, augmented))
        if red.pivots != tuple(range(n)):
            raise DependentInput("basis vectors are linearly dependent")
        self._set(fld, basis, red.matrix.data[:, n:])

    @classmethod
    def _of_inverse(cls, fld: FiniteField, basis: np.ndarray,
                    inverse: np.ndarray) -> "CodeChain":
        """The chain of a basis whose inverse the caller has found already,
        from an elimination of its own; nothing is checked again."""
        chain = cls.__new__(cls)
        chain._set(fld, basis, inverse)
        return chain

    def _set(self, fld: FiniteField, basis: np.ndarray,
             inverse: np.ndarray) -> None:
        self.field = fld
        self.basis = basis
        self.n = basis.shape[0]
        self._inverse = inverse
        self._wbp = None

    def nu(self, v) -> int:
        """First chain level containing v; 0 for the zero vector."""
        v = field_array(self.field, v)
        if v.shape != (self.n,):
            raise MatrixShapeMismatch(f"expected a vector of length {self.n}")
        return int(self._levels(v))

    def dual_rows(self, indices) -> np.ndarray:
        """Rows spanning the dual of the code spanned by the basis rows at
        ``indices`` (0-based): the columns of the inverse outside them.

        b_i . B^-1[:, j] is 1 when i = j and 0 otherwise, so those columns
        are independent and orthogonal to every chosen row; with the empty
        set they are all of B^-1, transposed.
        """
        keep = np.ones(self.n, dtype=bool)
        for i in indices:
            if not 0 <= i < self.n:
                raise IndexOutOfRange(f"row index {i} outside 0..{self.n - 1}")
            keep[i] = False
        return self._inverse[:, keep].T

    def _levels(self, vectors) -> np.ndarray:
        """nu of each vector along the last axis: one plus the index of its
        last nonzero coordinate, or 0 for the zero vector."""
        coords = self.field.matmul(vectors.reshape(-1, self.n), self._inverse)
        nonzero = coords.reshape(vectors.shape) != 0
        last = self.n - np.argmax(nonzero[..., ::-1], axis=-1)
        return np.where(nonzero.any(axis=-1), last, 0)

    # -- well-behaving structure ----------------------------------------

    def _wbp_table(self, rows: int | None = None) -> np.ndarray:
        """Boolean table, levels 0..rows (all n by default): wbp[i, j] iff
        the pair (b_i, b_j) is well-behaving.

        A pair qualifies when nu of its componentwise product strictly exceeds
        nu of every product over dominated index pairs (r, s) with r <= i,
        s <= j, (r, s) != (i, j).  Row i reads only the products of b_1..b_i
        with every b_j, so rows 1..i take i * n of them, each given its nu at
        once; running maxima down rows, then along columns, give every
        rectangle.  The tallest table built is kept, and a shorter one is
        its first rows.
        """
        rows = self.n if rows is None else rows
        if self._wbp is None or self._wbp.shape[0] <= rows:
            n = self.n
            prods = self.field.mul_arrays(self.basis[:rows, None, :],
                                          self.basis[None, :, :])
            table = np.full((rows + 1, n + 1), -1, dtype=np.int64)
            table[1:, 1:] = self._levels(prods)
            rect = np.maximum.accumulate(np.maximum.accumulate(table, axis=0),
                                         axis=1)
            wbp = np.zeros((rows + 1, n + 1), dtype=bool)
            wbp[1:, 1:] = table[1:, 1:] > np.maximum(rect[:-1, 1:], rect[1:, :-1])
            self._wbp = wbp
        return self._wbp[:rows + 1]

    def lambda_counts(self) -> np.ndarray:
        """Well-behaving partner counts per level, index 1..n (entry 0 unused)."""
        return self._wbp_table().sum(axis=1)

    def generic_bound(self, i: int) -> int:
        """Minimum well-behaving count over levels r <= i; bounds d(C_i).
        Reads rows 1..i of the table only."""
        self._check_index(i)
        return int(self._wbp_table(i)[1:].sum(axis=1).min())

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"index {i} outside 1..{self.n}")
