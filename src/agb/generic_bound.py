"""Order-type minimum-distance bound for arbitrary linear codes.

Fix an ordered basis b_1..b_n of the ambient space and the nested codes
C_i spanned by the first i basis vectors.  The position map nu sends a vector
to the first level of the chain containing it; pairs of basis vectors whose
componentwise product reaches a strictly higher nu than all dominated pairs
("well-behaving" pairs) yield a per-level weight bound, and the running
minimum bounds the minimum distance of every C_i.
"""

import numpy as np

from .errors import DependentInput, IndexOutOfRange, MatrixShapeMismatch
from .gf import Echelon, FieldMatrix, FiniteField


class CodeChain:
    """Full-rank ordered basis of F_q^n with incremental elimination state."""

    def __init__(self, fld: FiniteField, basis):
        self.field = fld
        self.basis = np.array(basis, dtype=np.int32)
        if self.basis.ndim != 2 or self.basis.shape[0] != self.basis.shape[1]:
            raise DependentInput("a chain needs n independent vectors of length n")
        self.n = self.basis.shape[0]
        self._echelon = Echelon(fld)
        for level, row in enumerate(self.basis, start=1):
            if self._echelon.insert(row, level) is None:
                raise DependentInput(f"basis vector {level} depends on earlier ones")
        self._wbp = None

    @classmethod
    def from_matrix(cls, M: FieldMatrix) -> "CodeChain":
        return cls(M.field, M.data)

    def nu(self, v) -> int:
        """First chain level containing v; 0 for the zero vector."""
        v = np.asarray(v, dtype=np.int32)
        if v.shape != (self.n,):
            raise MatrixShapeMismatch(f"expected a vector of length {self.n}")
        residual, used = self._echelon.reduce(v)
        if residual.any():
            raise DependentInput("vector lies outside the span of the chain")
        return max(used, default=0)

    # -- well-behaving structure ----------------------------------------

    def _wbp_table(self) -> np.ndarray:
        """Boolean table: wbp[i, j] iff the pair (b_i, b_j) is well-behaving.

        A pair qualifies when nu of its componentwise product strictly exceeds
        nu of every product over dominated index pairs (r, s) with r <= i,
        s <= j, (r, s) != (i, j); running rectangle maxima make the check O(1)
        per pair.
        """
        if self._wbp is None:
            n = self.n
            fld = self.field
            table = np.zeros((n + 1, n + 1), dtype=np.int64)
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    prod = fld.star(self.basis[i - 1], self.basis[j - 1])
                    table[i, j] = table[j, i] = self.nu(prod)
            rect = np.full((n + 1, n + 1), -1, dtype=np.int64)
            wbp = np.zeros((n + 1, n + 1), dtype=bool)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    dominated = max(rect[i - 1, j], rect[i, j - 1])
                    wbp[i, j] = table[i, j] > dominated
                    rect[i, j] = max(table[i, j], dominated)
            self._wbp = wbp
        return self._wbp

    def well_behaving(self) -> frozenset:
        """All ordered pairs (i, j), 1-based, that are well-behaving."""
        wbp = self._wbp_table()
        return frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(wbp)))

    def generic_lambda(self, i: int) -> frozenset:
        """Indices j with (b_i, b_j) well-behaving."""
        self._check_index(i)
        wbp = self._wbp_table()
        return frozenset(int(j) for j in np.nonzero(wbp[i])[0])

    def lambda_counts(self) -> np.ndarray:
        """Well-behaving partner counts per level, index 1..n (entry 0 unused)."""
        return self._wbp_table().sum(axis=1)

    def generic_bound(self, i: int) -> int:
        """Minimum well-behaving count over levels r <= i; bounds d(C_i)."""
        self._check_index(i)
        counts = self.lambda_counts()
        return int(counts[1: i + 1].min())

    # -- triangular bases -------------------------------------------------

    def triangular_basis(self, vectors) -> list[np.ndarray]:
        """Rewrite independent vectors to share their span with distinct nu.

        Whenever two vectors first appear at the same level, subtract a
        multiple of the resident one to push the newcomer strictly lower;
        the result comes back sorted by nu.
        """
        fld = self.field
        taken = {}  # nu level -> (vector, multiplier at that level)
        for v in vectors:
            cur = np.array(v, dtype=np.int32)
            while True:
                residual, used = self._echelon.reduce(cur)
                if residual.any():
                    raise DependentInput("vector outside the chain span")
                level = max(used, default=0)
                if level == 0:
                    raise DependentInput("input vectors are linearly dependent")
                if level not in taken:
                    taken[level] = (cur, used[level])
                    break
                other, other_coef = taken[level]
                factor = fld.neg(fld.div(used[level], other_coef))
                cur = fld.add_arrays(cur, fld.scale_array(factor, other))
        return [taken[level][0] for level in sorted(taken)]

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"index {i} outside 1..{self.n}")
