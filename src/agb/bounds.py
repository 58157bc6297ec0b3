"""Order-type minimum-distance bounds computed from a jump set.

Everything here is exact integer combinatorics over an :class:`~agb.hstar.HStar`:
the per-index sets ``(m_i + H) intersect H*``, the running-minimum distance
bound, the Goppa comparison, the dual-side order bound via A-sets, improved
code profiles, and the generalized-Hamming-weight extension.

The profile counts come from the shifted-gap identity in O(n*R) time and
O(n + g) memory, R the number of runs of consecutive gaps; only the
generalized-weight sweep builds the sets themselves, as rows of one array.

A union of the sets at indices j_1..j_r is E ∩ H*, for E the ideal of H
generated by m_j1..m_jr, so the generalized-weight bounds d*_r(i) come from
one sweep over those ideals, which answers every requested (r, i) at once.
It takes one level of generators at a time, kept as rows of bits and
handled as boolean rows in bounded blocks; a child ideal is cut from its
parent's size and prefix counts before it is built.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (DeltaOutOfRange, EnumerationCapExceeded, IndexOutOfRange,
                     InternalInvariantViolation, NotAMember, NotIsometryDual,
                     UnsupportedParameter)
from .hstar import HStar
from .semigroup import NumericalSemigroup

DEFAULT_NODE_CAP = 10_000_000


class LambdaProfile:
    """Counts of the sets (m_i + H) intersect H* for i = 1..n.

    ``counts[i-1]`` is the cardinality at index i.  The sets themselves are
    built only by the generalized-weight sweep, as rows of one array.
    """

    __slots__ = ("hstar", "counts", "_dstar")

    def __init__(self, hstar: HStar, counts: np.ndarray):
        self.hstar = hstar
        self.counts = counts
        self._dstar = np.minimum.accumulate(counts)

    def count(self, i: int) -> int:
        _check_index(self.hstar, i)
        return int(self.counts[i - 1])

    def d_star(self, i: int) -> int:
        _check_index(self.hstar, i)
        return int(self._dstar[i - 1])

    def d_star_vector(self) -> np.ndarray:
        return self._dstar.copy()


@lru_cache(maxsize=512)
def lambda_profile(hs: HStar) -> LambdaProfile:
    """Compute the profile counts of a jump set in O(n*R) time, R gap runs.

    Of the n - i + 1 members m >= m_i, m - m_i is either a semigroup member
    or a gap, so count(i) = (n - i + 1) - #((m_i + gaps) intersect H*).  A
    run [s, t) of consecutive gaps contributes P[m_i + t] - P[m_i + s], for
    P the prefix sums of the membership vector of H*: one vectorised pass
    per run gives the counts.
    """
    members = hs.members_array()
    in_hstar = np.zeros(int(members[-1]) + 1, dtype=bool)
    in_hstar[members] = True
    shifted_hits = hs.semigroup.count_shifted_gaps(in_hstar, members)
    return LambdaProfile(hs, np.arange(hs.n, 0, -1) - shifted_hits)


def lambda_star(hs: HStar, i: int) -> frozenset:
    """The set of jump values m with m - m_i a semigroup member."""
    _check_index(hs, i)
    mi = hs.members[i - 1]
    S = hs.semigroup
    return frozenset(m for m in hs.members if m >= mi and S.contains(m - mi))


def d_star(hs: HStar, i: int) -> int:
    """Running minimum of the profile counts over indices r <= i."""
    return lambda_profile(hs).d_star(i)


class GoppaRow(NamedTuple):
    i: int
    m: int
    goppa: int
    d_star: int
    equality: bool


def goppa_compare(hs: HStar) -> list[GoppaRow]:
    """Per-index comparison of the order-type bound against n - m_i.

    Verifies d*(i) >= n - m_i everywhere and exact equality whenever
    m_i < pi - l_g; a failure of either is a bug, not bad input.
    """
    profile = lambda_profile(hs)
    n = hs.n
    pi = hs.pi_value()
    lg = hs.semigroup.frobenius
    rows = []
    for i, m in enumerate(hs.members, start=1):
        goppa = n - m
        ds = profile.d_star(i)
        if ds < goppa:
            raise InternalInvariantViolation(
                f"d*({i}) = {ds} fell below the Goppa value {goppa}"
            )
        eq = ds == goppa
        if m < pi - lg and not eq:
            raise InternalInvariantViolation(
                f"equality guaranteed at i={i} (m={m} < {pi - lg}) but "
                f"d* = {ds} != {goppa}"
            )
        rows.append(GoppaRow(i, m, goppa, ds, eq))
    return rows


def a_set(S: NumericalSemigroup, h: int) -> frozenset:
    """Members t with h - t also a member; h itself must be a member."""
    if not S.contains(h):
        raise NotAMember(f"{h} is not a semigroup member")
    mask = S.membership_mask(h)
    both = mask & mask[::-1]
    return frozenset(int(t) for t in np.nonzero(both)[0])


def a_counts_by_index(hs: HStar) -> np.ndarray:
    """Vector of A-set cardinalities at each jump value m_1 .. m_n.

    Of the h + 1 splits t + (h - t), each gap removes one as t and one as
    h - t, and a split into two gaps was removed twice, so #A(h) = h + 1 -
    2 #{gaps <= h} + #{(l, l') gaps : l + l' = h}: the A-set twin of the
    shifted-gap identity.  Pairs exist only at h <= 2F, F the Frobenius
    number.  Each (l, h - l) with l < h/2 is counted once and doubled, and
    (h/2, h/2) added when h/2 is a gap.  With P the prefix sums of
    r[k] = gap(2F - k), v = 2F - h and c = ceil(h/2), the l of a run [s, t)
    of gaps number P[v + t] - P[v + s] where c >= t, one pass per run over
    those h, and P[v + c] - P[v + s] for the one run with s < c < t, if any.
    """
    S = hs.semigroup
    h = hs.members_array()
    gaps = np.array(S.gaps, dtype=np.int64)
    counts = h + 1 - 2 * np.searchsorted(gaps, h, side="right")
    top = 2 * S.frobenius
    low = np.searchsorted(h, top, side="right")
    if low:
        h = h[:low]
        at, half = top - h, (h + 1) // 2
        reversed_gaps = np.zeros(top + 1, dtype=bool)
        reversed_gaps[top - gaps] = True
        prefix = np.concatenate(([0], np.cumsum(reversed_gaps)))
        runs = np.array(S.gap_runs, dtype=np.int64)
        # the start of the run of gaps holding x, or x itself for a member
        run_start = np.arange(S.conductor + 1)
        run_start[gaps] = np.repeat(runs[:, 0], runs[:, 1] - runs[:, 0])
        pairs = prefix[at + half] - prefix[at + run_start[half]]
        for (start, stop), lo in zip(S.gap_runs, np.searchsorted(
                half, runs[:, 1]).tolist()):
            if lo == low:
                break
            v = at[lo:]
            if stop - start == 1:
                pairs[lo:] += reversed_gaps[start:][v]
            else:
                pairs[lo:] += prefix[stop:][v] - prefix[start:][v]
        counts[:low] += 2 * pairs + ((h % 2 == 0) & reversed_gaps[at + half])
    return counts


def d_ord(hs: HStar, i: int) -> int:
    """Dual-side order bound: the least A-set size at indices n-i+1 .. n."""
    _check_index(hs, i)
    _require_isometry_dual(hs)
    return int(a_counts_by_index(hs)[hs.n - i:].min())


class LSetCheck(NamedTuple):
    l_set: frozenset
    identity_holds: bool


def l_set_check(hs: HStar, i: int) -> LSetCheck:
    """Shifted-gap set m_i + gaps and the count identity it must satisfy.

    For isometry-dual jump sets the profile count at i equals
    n - i + 1 minus the number of shifted gaps landing back in the set.
    """
    _check_index(hs, i)
    _require_isometry_dual(hs)
    mi = hs.members[i - 1]
    lset = frozenset(mi + l for l in hs.semigroup.gaps)
    overlap = len(lset & hs.member_set)
    holds = lambda_profile(hs).count(i) == hs.n - i + 1 - overlap
    return LSetCheck(lset, holds)


class ImprovedProfile(NamedTuple):
    delta: int
    indices: tuple
    dimension: int
    monotone: bool


def improved_profile(hs: HStar, delta: int) -> ImprovedProfile:
    """Indices whose profile count reaches delta, and whether they form a prefix.

    The indices select generators for a code of designed distance delta; when
    they form a prefix of 1..n the improved code is an ordinary chain code.
    """
    _check_delta(hs, delta)
    counts = lambda_profile(hs).counts
    indices = tuple(int(i) for i in np.nonzero(counts >= delta)[0] + 1)
    monotone = not indices or indices[-1] == len(indices)
    return ImprovedProfile(delta, indices, len(indices), monotone)


def feng_rao_improved_dim(hs: HStar, delta: int) -> int:
    """Dimension of the dual-side improved code: n minus #{i : #A[m_i] < delta}."""
    _check_delta(hs, delta)
    _require_isometry_dual(hs)
    acounts = a_counts_by_index(hs)
    return hs.n - int((acounts < delta).sum())


def ghw_bound(hs: HStar, i: int, r: int,
              node_cap: int = DEFAULT_NODE_CAP) -> int:
    """d*_r(i): the least size of a union of r distinct sets among 1..i.

    The one-pair case of :func:`ghw_table`: the same sweep over ideals,
    pruned against this pair alone.  Building more than ``node_cap`` ideals
    raises :class:`EnumerationCapExceeded` instead of degrading; a cap below
    1 raises :class:`UnsupportedParameter`.
    """
    _check_node_cap(node_cap)
    _check_pair(hs, r, i)
    return _ideal_sweep(hs, np.array([(r, i)], dtype=np.int64), node_cap)[0]


# elements per array of one block: every array of the sweep but Λ*, the
# ideals it keeps and the per-pair tables holds one block of rows
_BLOCK = 1 << 14


def _ideal_sweep(hs: HStar, pairs: np.ndarray, node_cap: int) -> list:
    """d*_r(i) for each requested (r, i), the rows of an int64 array, in
    order, from one sweep over ideals.

    d*_r(i) is the least #(E ∩ H*) over the ideals E of H generated inside
    M_i = {m_1..m_i} with #(E ∩ M_i) >= r.  Each ideal is listed once, by
    its antichain of generators: a child adds to its parent a generator m_j
    above the parent's last one and outside it.  The sweep takes one level
    (one more generator) at a time, kept as rows over member positions
    packed to bits, in blocks: one product of a block of parents with the
    rows of :func:`_lambda_rows` gives every child's overlap |E ∩ Λ*_j|.
    An ideal whose last generator is m_j counts at every column i >= j for
    every r <= #(E ∩ M_i), and ``best[r, c]`` holds the least size that
    counts for (r, cols[c]) so far.

    A child is cut before it is built.  Its descendants only grow, count
    only at columns i >= j, and add no position below j: if it misses
    ``slack`` of the positions 1..j, none of them reaches #(E' ∩ M_i) >
    i - slack.  So it is built only while its size is below ``cut[slack,
    j]``, the largest requested value with r <= i - slack at a column
    i >= j, read off ``best`` when the level began.  The node cap counts
    the ideals built and is checked before each block of them is allocated.
    """
    rs, at = pairs.T
    cols, at = np.unique(at, return_inverse=True)
    width, imax, rmax = len(cols), int(cols[-1]), int(rs.max())
    lam, outside = _lambda_rows(hs, imax)
    window = lam.shape[1]
    lam_t = lam.T.astype(np.float32)
    lam_sizes = lambda_profile(hs).counts[:imax] - outside
    # 0-based positions 1..imax; ideals with last generator j + 1 count from
    # column first[j] on, and below[j, c] says whether j + 1 <= cols[c]
    positions = np.arange(imax)
    first = np.searchsorted(cols, positions + 1)
    below = (positions[:, None] < cols).astype(np.float32)
    columns = np.arange(width)
    wanted = np.zeros((rmax + 1, width), dtype=bool)
    wanted[rs, at] = True
    # reach[s, c]: the flat index into best of the largest requested r <=
    # cols[c] - s at column c, or of best[0, c] = 0 if none, as for every
    # slack past smax
    largest = np.maximum.accumulate(wanted * np.arange(rmax + 1)[:, None],
                                    axis=0)
    smax = int((cols - wanted.argmax(axis=0)).max())
    reach = largest[np.clip(cols - np.arange(smax + 2)[:, None], 0, rmax),
                    columns] * width + columns
    best = np.full((rmax + 1, width), hs.n + 1, dtype=np.int64)
    best[0] = 0
    rows_per = max(1, _BLOCK // window)
    nodes = 0
    # a level is a list of chunks (rows packed to bits, sizes inside the
    # window, last generators); the first holds the empty ideal alone
    level = [(np.zeros((1, (window + 7) // 8), dtype=np.uint8),
              np.zeros(1, np.int64), np.zeros(1, np.int64))]
    while level:
        reachable = best.ravel()[reach]
        cut = (np.maximum.accumulate(reachable[:, ::-1], axis=1)[:, ::-1]
               [:, first] - outside).ravel()
        children = []
        # each chunk holds at most one block of rows
        for rows, sizes, lasts in level:
            parents = np.unpackbits(rows, axis=1, count=window,
                                    bitorder="little").view(bool)
            overlap = parents.astype(np.float32) @ lam_t
            inside = np.cumsum(parents[:, :imax], axis=1)
            p, j = np.nonzero(~parents[:, :imax] & (positions >= lasts[:, None]))
            size = sizes[p] + lam_sizes[j] - overlap[p, j].astype(np.int64)
            slack = np.minimum(j - inside[p, j], smax + 1)
            keep = size < cut[slack * imax + j]
            p, j, size = p[keep], j[keep], size[keep]
            for start in range(0, len(p), rows_per):
                part = slice(start, start + rows_per)
                nodes += len(p[part])
                if nodes > node_cap:
                    raise EnumerationCapExceeded(node_cap)
                kids = parents[p[part]] | lam[j[part]]
                # #(E ∩ M_i) at each column, 0 before the last generator,
                # as a flat index into best
                count = (kids[:, :imax].astype(np.float32) @ below
                         ).astype(np.int64)
                count[cols <= j[part, None]] = 0
                np.minimum(count, rmax, out=count)
                low = np.full(best.size, hs.n + 1, dtype=np.int64)
                np.minimum.at(low, (count * width + columns).ravel(),
                              np.repeat(size[part] + outside, width))
                np.minimum(best, np.minimum.accumulate(
                    low.reshape(best.shape)[::-1], axis=0)[::-1], out=best)
                children.append((np.packbits(kids, axis=1, bitorder="little"),
                                 size[part], j[part] + 1))
        level = children
    return best[rs, at].tolist()


def _lambda_rows(hs: HStar, imax: int) -> tuple:
    """The sets Λ*_1..Λ*_imax as boolean rows over a window of positions.

    Every ideal generated inside M_imax holds each member m >= m_imax + c,
    c the conductor, so the window stops before the first of them.  Returns
    the rows and the number of positions past the window.
    """
    members = hs.members_array()
    window = max(imax, int(np.searchsorted(
        members, members[imax - 1] + hs.semigroup.conductor)))
    members = members[:window]
    in_h = hs.semigroup.membership_mask(int(members[-1]))
    lam = np.empty((imax, window), dtype=bool)
    step = max(1, _BLOCK // window)
    for lo in range(0, imax, step):
        shifts = members - members[lo:min(lo + step, imax), None]
        lam[lo:lo + step] = (shifts >= 0) & in_h[np.abs(shifts)]
    return lam, hs.n - window


class BoundTable(NamedTuple):
    """The per-index table of ``agb bounds``, one list per column.

    ``d_ord`` is None unless the jump set is isometry-dual.
    """
    hstar: HStar
    m: list
    lambda_count: list
    d_star: list
    goppa: list
    d_ord: "list | None"


def bound_table(hs: HStar) -> BoundTable:
    """Full per-index table: counts, running bound, Goppa value, order bound."""
    profile = lambda_profile(hs)
    dord = None
    if hs.is_isometry_dual():
        dord = np.minimum.accumulate(a_counts_by_index(hs)[::-1]).tolist()
    return BoundTable(hs, list(hs.members), profile.counts.tolist(),
                      profile.d_star_vector().tolist(),
                      (hs.n - hs.members_array()).tolist(), dord)


class GhwEntry(NamedTuple):
    r: int
    i: int
    bound: int


class GhwTable(NamedTuple):
    hstar: HStar
    entries: tuple


def ghw_table(hs: HStar, pairs, node_cap: int = DEFAULT_NODE_CAP) -> GhwTable:
    """Generalized-weight bounds d*_r(i) for the requested (r, i) pairs.

    One sweep over the ideals generated inside {m_1..m_imax}, imax the
    largest requested i, answers every pair.  The pairs are converted and
    checked as one int64 array, which the sweep reads as it is; the first
    bad pair raises IndexOutOfRange, an entry past int64 included.
    Building more than ``node_cap`` ideals raises, as does a cap below 1.
    """
    _check_node_cap(node_cap)
    pairs = list(pairs)
    try:
        pairs = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
    except OverflowError:
        # no index that large is in range: the first bad pair raises
        for r, i in pairs:
            _check_pair(hs, int(r), int(i))
        raise
    rs, at = pairs.T
    bad = (rs < 1) | (rs > at) | (at > hs.n)
    if bad.any():
        # the first bad pair raises the class and message of its own check
        _check_pair(hs, *pairs[bad.argmax()].tolist())
    values = _ideal_sweep(hs, pairs, node_cap) if len(pairs) else []
    return GhwTable(hs, tuple(map(GhwEntry, rs.tolist(), at.tolist(), values)))


def _check_node_cap(node_cap: int) -> None:
    # a cap below 1 would read as a search exhausted before its first ideal
    if node_cap < 1:
        raise UnsupportedParameter(f"node_cap must be at least 1, got {node_cap}")


def _check_index(hs: HStar, i: int) -> None:
    if not 1 <= i <= hs.n:
        raise IndexOutOfRange(f"index {i} outside 1..{hs.n}")


def _check_pair(hs: HStar, r: int, i: int) -> None:
    if not 1 <= r <= i:
        raise IndexOutOfRange(f"need 1 <= r <= i, got r={r}, i={i}")
    _check_index(hs, i)


def _check_delta(hs: HStar, delta: int) -> None:
    if not 1 <= delta <= hs.n:
        raise DeltaOutOfRange(f"delta {delta} outside 1..{hs.n}")


def _require_isometry_dual(hs: HStar) -> None:
    if not hs.is_isometry_dual():
        raise NotIsometryDual(
            "operation requires the isometry-dual condition "
            f"(n+2g-1 = {hs.n + 2 * hs.semigroup.genus - 1} is not a jump)"
        )
