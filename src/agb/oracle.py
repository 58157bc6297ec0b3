"""Brute-force ground truth for small codes.

One exhaustive search lists each r-dimensional subcode once, by its reduced
echelon basis, for the true generalized Hamming weights; the minimum distance
is its r = 1 case, which lists the monic codewords.  Also: dual codes by
nullspace, and a coordinatewise-scaling witness of isometry-duality.
"""

import os
from dataclasses import dataclass
from itertools import combinations, islice, product

import numpy as np

from .errors import (BudgetExceeded, IndexOutOfRange,
                     InternalInvariantViolation, InvalidSearchBudget)
from .gf import FieldMatrix, FiniteField, rref
from .generic_bound import CodeChain

_BLOCK_TARGET = 8192
_COMB_CAP = 10 ** 6  # witness candidates tried before giving up


@dataclass(frozen=True)
class SearchBudget:
    """Caps on exhaustive-search size; exceeding one raises BudgetExceeded.

    ``max_codewords`` caps q^k, not the (q^k - 1)/(q - 1) monic codewords
    :func:`min_distance` lists: `agb verify` derives its records from this
    default, so counting monic words would change which records a run emits.
    """

    max_codewords: int = 1 << 26
    max_subspaces: int = 10 ** 7

    def __post_init__(self):
        if self.max_codewords < 1 or self.max_subspaces < 1:
            raise InvalidSearchBudget("budgets must be positive")

    @classmethod
    def from_env(cls) -> "SearchBudget":
        """Defaults overridable via AGB_BUDGET_CODEWORDS / AGB_BUDGET_SUBSPACES."""
        kw = {}
        for key, var in (("max_codewords", "AGB_BUDGET_CODEWORDS"),
                         ("max_subspaces", "AGB_BUDGET_SUBSPACES")):
            text = os.environ.get(var)
            if not text:
                continue
            try:
                kw[key] = int(text)
            except ValueError:
                raise InvalidSearchBudget(
                    f"{var}={text!r} is not an integer") from None
        return cls(**kw)


def _independent_rows(M: FieldMatrix) -> np.ndarray:
    red = rref(M)
    return red.matrix.data[: red.rank]


def _least_support(fld: FiniteField, rows: np.ndarray, r: int) -> int:
    """Least support size over the r-dimensional subspaces of the span of rows.

    Each subspace is listed once, by its reduced echelon basis: for pivots
    p_1 < ... < p_r, basis row i is rows[p_i] plus any combination of the
    non-pivot rows after p_i.  The last s free coefficients form one block of
    q^s bases (r * q^s <= _BLOCK_TARGET); each combination of the others,
    the head, is added to the whole block at once.
    """
    k, n = rows.shape
    q = fld.q
    scaled = fld.mul_arrays(rows[:, :, None], np.arange(q))     # (k, n, q)
    best = n + 1
    for pivots in combinations(range(k), r):
        free = [(i, j) for i in range(r)
                for j in range(pivots[i] + 1, k) if j not in pivots]
        s = 0
        while s < len(free) and r * q ** (s + 1) <= _BLOCK_TARGET:
            s += 1
        head, tail = free[: len(free) - s], free[len(free) - s:]
        # bases run along the last axis, so the support reductions below
        # combine whole planes instead of short rows
        block = rows[list(pivots)][:, :, None]      # grows to (r, n, q^s)
        for i, j in tail:
            step = np.zeros((r, n, q, 1), dtype=np.int32)
            step[i, :, :, 0] = scaled[j]
            block = fld.add_arrays(step, block[:, :, None]).reshape(r, n, -1)
        for lams in product(range(q), repeat=len(head)):
            offset = np.zeros((r, n, 1), dtype=np.int32)
            for (i, j), lam in zip(head, lams):
                offset[i] = fld.add_arrays(offset[i], scaled[j, :, lam:lam + 1])
            support = fld.add_arrays(block, offset).any(axis=0).sum(axis=0)
            best = min(best, int(support.min()))
    return best


def min_distance(M: FieldMatrix, budget: SearchBudget | None = None) -> int:
    """Exact minimum weight over the nonzero codewords of the row space of M.

    The r = 1 case of the subspace search, over the (q^k - 1)/(q - 1) monic
    codewords; the budget still caps q^k (see :class:`SearchBudget`).
    """
    budget = budget or SearchBudget()
    rows = _independent_rows(M)
    k = rows.shape[0]
    if k == 0:
        # min_distance is the weight at r = 1, which needs dimension >= 1
        raise IndexOutOfRange("the zero code has no minimum distance")
    total = M.field.q ** k
    if total > budget.max_codewords:
        raise BudgetExceeded(total, budget.max_codewords, "codewords")
    return _least_support(M.field, rows, 1)


def gaussian_binomial(k: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of a k-dimensional space over GF(q)."""
    num = den = 1
    for i in range(r):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def weight_hierarchy(M: FieldMatrix, r: int,
                     budget: SearchBudget | None = None) -> int:
    """Exact r-th generalized Hamming weight of the row space of M.

    The least number of columns not identically zero on a basis of an
    r-dimensional subcode, over all gaussian_binomial(k, r, q) subcodes.
    """
    budget = budget or SearchBudget()
    rows = _independent_rows(M)
    k = rows.shape[0]
    if not 1 <= r <= k:
        raise IndexOutOfRange(f"need 1 <= r <= dim = {k}, got r={r}")
    count = gaussian_binomial(k, r, M.field.q)
    if count > budget.max_subspaces:
        raise BudgetExceeded(count, budget.max_subspaces, "subspaces")
    return _least_support(M.field, rows, r)


def dual(M: FieldMatrix) -> FieldMatrix:
    """Generator matrix of the dual code (nullspace of the rows of M)."""
    red = rref(M)
    pivots = list(red.pivots)
    free = [c for c in range(M.ncols) if c not in red.pivots]
    out = np.zeros((len(free), M.ncols), dtype=np.int32)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = M.field.neg_arrays(red.matrix.data[: red.rank][:, free].T)
    return FieldMatrix(M.field, out)


def find_isometry_vector(chain: CodeChain):
    """Coordinatewise-scaling witness making every C_i isometric to the dual
    of its mirror, or None when no such vector exists.

    The defining bilinear conditions are linear in the witness, so candidates
    form the nullspace of the componentwise basis products b_a * b_b, taken
    from one (n, n, n) product stack masked to a <= b and a + b <= n (with no
    such pair, the nullspace of no constraints is everything).  The nullspace
    is then scanned (up to ``_COMB_CAP`` combinations) for a vector with
    every coordinate nonzero.
    """
    fld = chain.field
    n = chain.n
    a = np.arange(1, n + 1)
    pairs = (a[:, None] <= a[None, :]) & (a[:, None] + a[None, :] <= n)
    prods = fld.mul_arrays(chain.basis[:, None, :], chain.basis[None, :, :])
    null = dual(FieldMatrix(fld, prods[pairs])).data
    combos = product(range(fld.q), repeat=null.shape[0])
    for mu in islice(combos, 1, _COMB_CAP):  # combination 0 is the zero vector
        x = fld.matmul(np.array([mu], dtype=np.int32), null)[0]
        if (x != 0).all():
            _assert_isometry(chain, x)
            return tuple(int(v) for v in x)
    return None


def _assert_isometry(chain: CodeChain, x: np.ndarray) -> None:
    fld = chain.field
    n = chain.n
    scaled = fld.mul_arrays(chain.basis, x[None, :])
    gram = fld.matmul(scaled, chain.basis.T)
    a = np.arange(1, n + 1)
    bad = (a[:, None] + a[None, :] <= n) & (gram != 0)
    if bad.any():
        raise InternalInvariantViolation(
            "candidate witness fails the duality pairings"
        )
