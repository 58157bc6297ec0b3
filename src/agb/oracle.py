"""Brute-force ground truth for small codes.

Exhaustive, deterministic searches: true minimum distance by enumerating all
codewords (in vectorized blocks), true generalized Hamming weights by
enumerating canonical subspace bases, dual codes by nullspace, and search for
a coordinatewise-scaling witness that makes a chain isometry-dual.
"""

import os
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import (BudgetExceeded, IndexOutOfRange,
                     InternalInvariantViolation, InvalidSearchBudget)
from .gf import FieldMatrix, rref
from .generic_bound import CodeChain

_BLOCK_TARGET = 8192


@dataclass(frozen=True)
class SearchBudget:
    """Caps on exhaustive-search size; exceeding one raises BudgetExceeded."""

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


def min_distance(M: FieldMatrix, budget: SearchBudget | None = None) -> int:
    """Exact minimum weight over all nonzero codewords of the row space of M.

    Enumerates q^k codewords as prefix-sum times suffix-block combinations so
    the inner loop is a single vectorized add and weight count.
    """
    budget = budget or SearchBudget()
    fld = M.field
    rows = _independent_rows(M)
    k, n = rows.shape[0], M.ncols
    if k == 0:
        # min_distance is the weight at r = 1, which needs dimension >= 1
        raise IndexOutOfRange("the zero code has no minimum distance")
    q = fld.q
    total = q ** k
    if total > budget.max_codewords:
        raise BudgetExceeded(total, budget.max_codewords, "codewords")

    k2 = 1
    while k2 < k and q ** (k2 + 1) <= _BLOCK_TARGET:
        k2 += 1
    block = np.zeros((1, n), dtype=np.int32)
    for row in rows[k - k2:]:
        scaled = np.stack([fld.scale_array(lam, row) for lam in range(q)])
        block = fld.add_arrays(block[None, :, :], scaled[:, None, :])
        block = block.reshape(-1, n)

    best = n + 1

    def scan(partial: np.ndarray) -> None:
        nonlocal best
        w = fld.add_arrays(block, partial)
        weights = np.count_nonzero(w, axis=1)
        nz = weights[weights > 0]
        if nz.size:
            m = int(nz.min())
            if m < best:
                best = m

    prefix_rows = rows[: k - k2]

    def rec(idx: int, partial: np.ndarray) -> None:
        if idx == len(prefix_rows):
            scan(partial)
            return
        row = prefix_rows[idx]
        for lam in range(q):
            nxt = partial if lam == 0 else fld.add_arrays(
                partial, fld.scale_array(lam, row))
            rec(idx + 1, nxt)

    rec(0, np.zeros(n, dtype=np.int32))
    return best


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

    Enumerates every r-dimensional subspace through its canonical
    reduced-echelon basis; the support size is the number of columns not
    identically zero across the basis rows.  Candidates are processed in
    vectorized chunks grouped by pivot-column choice.
    """
    budget = budget or SearchBudget()
    fld = M.field
    rows = _independent_rows(M)
    k, n = rows.shape
    if not 1 <= r <= k:
        raise IndexOutOfRange(f"need 1 <= r <= dim = {k}, got r={r}")
    count = gaussian_binomial(k, r, fld.q)
    if count > budget.max_subspaces:
        raise BudgetExceeded(count, budget.max_subspaces, "subspaces")
    q = fld.q
    chunk = 4096
    scale_table = [np.stack([fld.scale_array(lam, row) for lam in range(q)])
                   for row in rows]
    best = n + 1
    for pivots in combinations(range(k), r):
        pivot_set = set(pivots)
        free = [(i, j) for i in range(r)
                for j in range(pivots[i] + 1, k) if j not in pivot_set]
        base = np.stack([rows[c] for c in pivots])  # (r, n)
        total = q ** len(free)
        for start in range(0, total, chunk):
            vals = np.arange(start, min(total, start + chunk))
            prod = np.broadcast_to(base, (vals.size, r, n)).copy()
            for idx, (i, j) in enumerate(free):
                lam = (vals // q ** idx) % q
                if not lam.any():
                    continue
                prod[:, i, :] = fld.add_arrays(prod[:, i, :],
                                               scale_table[j][lam])
            support = (prod != 0).any(axis=1).sum(axis=1)
            m = int(support.min())
            if m < best:
                best = m
    return best


def dual(M: FieldMatrix) -> FieldMatrix:
    """Generator matrix of the dual code (nullspace of the rows of M)."""
    red = rref(M)
    pivots = list(red.pivots)
    free = [c for c in range(M.ncols) if c not in red.pivots]
    out = np.zeros((len(free), M.ncols), dtype=np.int32)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = M.field.neg_arrays(red.matrix.data[: red.rank][:, free].T)
    return FieldMatrix(M.field, out)


def find_isometry_vector(chain: CodeChain, comb_cap: int = 10 ** 6):
    """Coordinatewise-scaling witness making every C_i isometric to the dual
    of its mirror, or None when no such vector exists.

    The defining bilinear conditions are linear in the witness, so candidates
    form the nullspace of the matrix of componentwise basis products over all
    index pairs (a, b) with a + b <= n; the nullspace is then scanned (up to
    ``comb_cap`` combinations) for a vector with every coordinate nonzero.
    """
    fld = chain.field
    n = chain.n
    consts = [fld.star(chain.basis[a - 1], chain.basis[b - 1])
              for a in range(1, n + 1) for b in range(a, n + 1)
              if a + b <= n]
    if consts:
        null = dual(FieldMatrix(fld, np.stack(consts))).data
    else:
        null = np.eye(n, dtype=np.int32)
    d = null.shape[0]
    if d == 0:
        return None
    q = fld.q
    seen = 0
    for mu in product(range(q), repeat=d):
        if seen >= comb_cap:
            return None
        seen += 1
        if not any(mu):
            continue
        x = np.zeros(n, dtype=np.int32)
        for lam, row in zip(mu, null):
            if lam:
                x = fld.add_arrays(x, fld.scale_array(lam, row))
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
