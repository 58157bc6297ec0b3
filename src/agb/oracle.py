"""Brute-force ground truth for small codes.

One exhaustive search lists the r-dimensional subcodes of the prefixes of
an ordered basis, so of a chain of nested codes C_1 ⊂ C_2 ⊂ ..., a row at a
time: the subcodes new at a row are listed once, by their bases ordered by
last nonzero coefficient, for the true generalized Hamming weights; the
minimum distance is its r = 1 case, which lists the monic codewords.  Its
inner loop does no field arithmetic: each basis is a head plus an offset
from one block, the span of the first free coefficients, and its support is
where the block differs from the head, counted in the least dtype that
holds n.  The block, in the element type, is built once per run of pivot
sets with the same first free coefficients and kept from row to row, so at
r = 1 one block serves every row from its size on.

Each query runs that search on whichever of C and its dual C⊥ lists fewer
subspaces.  Through C⊥ it reads d_r(C) off Wei duality (Wei 1991): the
weights of C are the integers 1..n outside {n + 1 - d_s(C⊥)}, so d_r(C) is
the r-th of them, found from the largest s down, where the dual's subspaces
are fewest.  A high-rate code of any length is thus in reach when its dual
is small, and the duals of a chain are a chain too.  One
:class:`CodeSearch` per chain takes its basis and a source of the duals:
``min_distance`` and ``weight_hierarchy`` read a one-code search off one
``rref`` of their matrix, and ``agb verify`` the chain and its dual chain
off the chain's one inverse.  Also: dual codes by nullspace, and the
coordinatewise-scaling witness of isometry-duality, read off the same
inverse.
"""

import os
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (BudgetExceeded, IndexOutOfRange, InvalidSearchBudget,
                     ZeroInFirstRow)
from .gf import ELEMENT, FieldMatrix, FiniteField, RowReduction, rref
from .generic_bound import CodeChain

_BLOCK_TARGET = 8192


@dataclass(frozen=True)
class SearchBudget:
    """Cap on the subspaces one exhaustive search lists; over it, BudgetExceeded.

    Listed directly, an [n, k] code at rank r takes gaussian_binomial(k, r, q)
    subcodes, at r = 1 the (q^k - 1)/(q - 1) monic codewords; through its
    dual of dimension n - k, at most the sum of gaussian_binomial(n - k, s, q)
    over s = 1..n - k.  The cap bounds the count of the route the search
    takes, the smaller one.  :meth:`fits` tests the direct count alone: it is
    the rule by which ``agb verify`` chooses the codes it checks.
    """

    max_subspaces: int = 10 ** 7

    def __post_init__(self):
        if self.max_subspaces < 1:
            raise InvalidSearchBudget("the budget must be positive")

    def fits(self, k: int, r: int, q: int) -> bool:
        """Whether a k-dimensional code over GF(q) can be listed directly at
        rank r, whatever its length."""
        return gaussian_binomial(k, r, q) <= self.max_subspaces

    @classmethod
    def from_env(cls) -> "SearchBudget":
        """The default cap, overridable via AGB_BUDGET_SUBSPACES."""
        text = os.environ.get("AGB_BUDGET_SUBSPACES") or str(cls.max_subspaces)
        try:
            cap = int(text)
        except ValueError:
            raise InvalidSearchBudget(
                f"AGB_BUDGET_SUBSPACES={text!r} is not an integer") from None
        return cls(cap)


def _span(fld: FiniteField, scaled: np.ndarray, base: np.ndarray,
          entries) -> np.ndarray:
    """base (r, n, m) plus every combination of the free entries (i, j),
    c * rows[j] = scaled[j, :, c] added to basis row i for each c in GF(q):
    (r, n, m * q^len(entries)), one array step per entry."""
    r, n = base.shape[:2]
    for i, j in entries:
        step = np.zeros((r, n, fld.q, 1), dtype=ELEMENT)
        step[i, :, :, 0] = scaled[j]
        base = fld.add_arrays(step, base[:, :, None]).reshape(r, n, -1)
    return base


def _least_support(fld: FiniteField, rows: np.ndarray, scaled: np.ndarray,
                   r: int, row: int, blocks: dict) -> int:
    """Least support size over the r-dimensional subspaces of the span of
    rows[:row + 1] that are new at ``row``, outside the span of rows[:row];
    n + 1 when there are none.  ``scaled[j, :, c]`` is c * rows[j].

    Each is listed once, by its basis ordered by last nonzero coefficient,
    the mirror of the reduced echelon form: for pivots p_1 < ... < p_r =
    row, basis row i is rows[p_i] plus any combination of the non-pivot rows
    before p_i.  The first s free coefficients, the earliest rows of the
    first basis rows, span one block of q^s offsets b (r * q^s <=
    _BLOCK_TARGET); the pivot rows plus each combination of the others form
    the heads h.  The block is a span, so it holds -b with every b, and the
    bases h - b of one head are the bases h + b; a column of h - b vanishes
    exactly where b == h.  So the search compares the block with each head
    and adds no field elements.  The block holds no pivot row, so pivot sets
    with the same first free coefficients share it, and ``blocks`` keeps it
    under r from one row to the next: at r = 1 every row from s on reads the
    one block spanned by rows[:s].  The support of each basis is counted in
    the least dtype that holds n.
    """
    n = rows.shape[1]
    count = np.min_scalar_type(n)
    best = n + 1
    most = 0
    while r * fld.q ** (most + 1) <= _BLOCK_TARGET:
        most += 1
    for lower in combinations(range(row), r - 1):
        pivots = lower + (row,)
        free = [(i, j) for i in range(r) for j in range(pivots[i])
                if j not in pivots]
        early = free[:most]
        if r not in blocks or blocks[r][0] != early:
            # bases run along the last axis, so the support reductions below
            # combine whole planes instead of short rows
            blocks[r] = early, _span(fld, scaled,
                                     np.zeros((r, n, 1), dtype=ELEMENT), early)
        block = blocks[r][1]
        heads = _span(fld, scaled, rows[list(pivots)][:, :, None],
                      free[most:])
        for h in range(heads.shape[2]):
            differ = block != heads[:, :, h:h + 1]
            # at r = 1 the one plane is the support; any() would copy it
            support = differ[0] if r == 1 else differ.any(axis=0)
            # as bytes, the sum skips a cast of each bool to count
            plane = support.view(np.uint8)
            best = min(best, int(plane.sum(axis=0, dtype=count).min()))
    return best


def min_distance(M: FieldMatrix, budget: SearchBudget | None = None) -> int:
    """Exact minimum weight over the nonzero codewords of the row space of M:
    the r = 1 case of the subspace search, over the monic codewords."""
    return CodeSearch.of_matrix(M).weight(1, budget=budget)


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
    return CodeSearch.of_matrix(M).weight(r, budget=budget)


class CodeSearch:
    """The one entry of every search: an ordered basis whose prefixes span
    nested codes, and a callable that returns rows spanning their duals.

    ``weight(r, k)`` is d_r of the code spanned by the first k rows.  Any
    basis serves, since subspaces are listed by their coefficients in it, a
    row at a time: each r-subspace of the largest prefix asked is listed
    once, as new at the last row it needs, and the least support new at
    each row is kept, so a smaller prefix is a minimum over rows listed
    already.  The dual source returns rows whose first n - k span the dual
    of the first k basis rows, for every k asked: for a chain, the columns
    of its inverse in reverse order; for a search asked only at k = the
    whole basis, any basis of the dual.  It is called only when the Wei
    route first lists a dual rank, and a second search of the same kind
    lists its rows, so asking every (r, k) lists each dual subspace at most
    once too.
    """

    def __init__(self, fld: FiniteField, basis: np.ndarray, dual):
        self.field = fld
        self.basis = basis
        self._dual = dual
        self._dual_search = None
        self._scaled = None
        self._least = {}    # r -> least support new at each row from r - 1
        self._blocks = {}   # r -> the last block and the entries it spans

    @classmethod
    def of_matrix(cls, M: FieldMatrix) -> "CodeSearch":
        """The row space of M, its basis and the duals of its prefixes read
        off one ``rref``: the nullspace, then the unit vectors at the pivots
        from the last down, as reduced row i is 1 at pivot i and 0 at every
        other pivot."""
        red = rref(M)

        def dual():
            units = np.zeros((red.rank, M.ncols), dtype=ELEMENT)
            units[np.arange(red.rank), red.pivots[::-1]] = 1
            return np.vstack([_nullspace(red), units])

        return cls(M.field, red.matrix.data[:red.rank], dual)

    def weight(self, r: int, k: int | None = None,
               budget: SearchBudget | None = None) -> int:
        """d_r of the first k basis rows (all by default): take the route
        that lists fewer subspaces, check its count against the budget, then
        search.

        The dual route is weighed only when k⊥ = n - k < k, and taken when
        the most it lists, the sum over s of [k⊥, s]_q, falls below the
        direct [k, r]_q.  It steps the Wei exclusions n + 1 - d_s(C⊥) from
        the least, at s = k⊥, upward: j of them lie at or below r + j until
        the next one lies above, and then d_r(C) = r + j.  With k⊥ = 0
        nothing is excluded and d_r = r.  The counts are those of one search
        of this code alone, whatever earlier queries have listed.
        """
        budget = budget or SearchBudget()
        (rows, n), q = self.basis.shape, self.field.q
        k = rows if k is None else k
        if not 0 <= k <= rows:
            raise IndexOutOfRange(f"need 0 <= k <= {rows} rows, got k={k}")
        if not 1 <= r <= k:
            raise IndexOutOfRange(f"need 1 <= r <= dim = {k}, got r={r}")
        direct = gaussian_binomial(k, r, q)
        through_dual = _wei_count(n - k, q, direct) if n - k < k else direct
        listed = min(direct, through_dual)
        if listed > budget.max_subspaces:
            raise BudgetExceeded(listed, budget.max_subspaces)
        if through_dual >= direct:
            return self._listed(r, k)
        j = 0
        for s in range(n - k, 0, -1):
            if self._dual_search is None:
                self._dual_search = CodeSearch(self.field, self._dual(), None)
            if n + 1 - self._dual_search._listed(s, n - k) > r + j:
                break
            j += 1
        return r + j

    def _listed(self, r: int, k: int) -> int:
        """d_r of the first k rows by direct listing: each row not yet listed
        at r lists the subspaces new there, once, and keeps their least
        support."""
        least = self._least.setdefault(r, [])
        if self._scaled is None:
            self._scaled = self.field.mul_arrays(self.basis[:, :, None],
                                                 np.arange(self.field.q))
        for row in range(r - 1 + len(least), k):
            least.append(_least_support(self.field, self.basis, self._scaled,
                                        r, row, self._blocks))
        return min(least[:k - r + 1])


def _wei_count(kd: int, q: int, cap: int) -> int:
    """Subspaces the Wei step lists at most on a kd-dimensional dual, summed
    from s = kd down; once the sum passes cap, the partial sum."""
    total = 0
    for s in range(kd, 0, -1):
        total += gaussian_binomial(kd, s, q)
        if total > cap:
            break
    return total


def _nullspace(red: RowReduction) -> np.ndarray:
    """Rows spanning the nullspace of a reduced matrix: one per free column c,
    1 at c and, at each pivot column, minus that pivot row's entry at c."""
    M = red.matrix
    free = [c for c in range(M.ncols) if c not in red.pivots]
    out = np.zeros((len(free), M.ncols), dtype=ELEMENT)
    out[np.arange(len(free)), free] = 1
    out[:, list(red.pivots)] = M.field.neg_arrays(M.data[: red.rank][:, free].T)
    return out


def dual(M: FieldMatrix) -> FieldMatrix:
    """Generator matrix of the dual code (nullspace of the rows of M)."""
    return FieldMatrix(M.field, _nullspace(rref(M)))


def find_isometry_vector(chain: CodeChain):
    """Coordinatewise-scaling witness making every C_i isometric to the dual
    of its mirror, or None when no such vector exists.

    The pairings (b_1, b_j) for j <= n - 1 alone put x * b_1 in the dual of
    C_{n-1}, the one column B^-1[:, n-1].  So the only candidate is that
    column divided by b_1, scaled so that x[n-1] = 1; it is a witness when
    no entry is zero and one Gram product B diag(x) B^T vanishes at every
    pair a + b <= n.  A b_1 with a zero entry leaves that entry of x free
    and raises ZeroInFirstRow.
    """
    fld = chain.field
    n = chain.n
    first = chain.basis[0]
    if not first.all():
        raise ZeroInFirstRow("the first chain row has a zero entry, so no "
                             "witness is read off it")
    x = fld.mul_arrays(chain.dual_rows(range(n - 1))[0],
                       fld.inv_arrays(first))
    if not x.all():
        return None
    x = fld.scale_array(fld.inv(int(x[-1])), x)
    gram = fld.matmul(fld.mul_arrays(chain.basis, x[None, :]), chain.basis.T)
    a = np.arange(n)
    if ((a[:, None] + a[None, :] <= n - 2) & (gram != 0)).any():
        return None
    return tuple(int(v) for v in x)
