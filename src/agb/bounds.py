"""Order-type minimum-distance bounds computed from a jump set.

Everything here is exact integer combinatorics over an :class:`~agb.hstar.HStar`:
the per-index sets ``(m_i + H) intersect H*``, the running-minimum distance
bound, the Goppa comparison, the dual-side order bound via A-sets, improved
code profiles, and the generalized-Hamming-weight extension.

The profile counts come from the shifted-gap identity in O(n*R) time and
O(n + g) memory, R the number of runs of consecutive gaps; the sets
themselves are built one index at a time, only where the
generalized-weight sweep or a caller asks for them.

A union of the sets at indices j_1..j_r is E ∩ H*, for E the ideal of H
generated by m_j1..m_jr, so the generalized-weight bounds d*_r(i) come from
one depth-first sweep over those ideals, which answers every requested
(r, i) at once.
"""

from bisect import bisect_left, bisect_right
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
    """Counts and contents of the sets (m_i + H) intersect H* for i = 1..n.

    ``counts[i-1]`` is the cardinality at index i.  The set at index i is
    built on the first ``mask(i)`` or ``lambda_set(i)`` call, as a bitmask
    over member positions so that union cardinalities (needed for the
    generalized-weight bound) are a popcount away, and cached from then on.
    """

    __slots__ = ("hstar", "counts", "_masks", "_dstar")

    def __init__(self, hstar: HStar, counts: np.ndarray):
        self.hstar = hstar
        self.counts = counts
        self._masks = {}
        self._dstar = np.minimum.accumulate(counts)

    def count(self, i: int) -> int:
        _check_index(self.hstar, i)
        return int(self.counts[i - 1])

    def lambda_set(self, i: int) -> frozenset:
        """The actual set at index i, as member values."""
        mask = self.mask(i)
        members = self.hstar.members
        return frozenset(members[j] for j in range(i - 1, len(members))
                         if (mask >> j) & 1)

    def mask(self, i: int) -> int:
        """Bit j-1 is set iff m_j - m_i is a semigroup member."""
        _check_index(self.hstar, i)
        mask = self._masks.get(i)
        if mask is None:
            members = self.hstar.members_array()
            shifts = members[i - 1:] - members[i - 1]
            ok = self.hstar.semigroup.membership_mask(int(shifts[-1]))[shifts]
            packed = np.packbits(ok, bitorder="little")
            mask = int.from_bytes(packed.tobytes(), "little") << (i - 1)
            self._masks[i] = mask
        return mask

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
    shifted-gap identity.  With r[k] = gap(2F - k), F the Frobenius number,
    the pairs at h are the gaps l with r[2F - h + l] set: a shifted-gap
    count, needed only at the jump values h <= 2F; no two gaps sum to more.
    """
    S = hs.semigroup
    h = hs.members_array()
    gaps = np.array(S.gaps, dtype=np.int64)
    counts = h + 1 - 2 * np.searchsorted(gaps, h, side="right")
    top = 2 * S.frobenius
    low = np.searchsorted(h, top, side="right")
    if low:
        reversed_gaps = np.zeros(top + 1, dtype=bool)
        reversed_gaps[top - gaps] = True
        counts[:low] += S.count_shifted_gaps(reversed_gaps, top - h[:low])
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
    pruned against this pair alone.  Visiting more than ``node_cap`` ideals
    raises :class:`EnumerationCapExceeded` instead of degrading; a cap below
    1 raises :class:`UnsupportedParameter`.
    """
    _check_node_cap(node_cap)
    _check_pair(hs, r, i)
    return _ideal_sweep(hs, [(r, i)], node_cap)[r, i]


def _ideal_sweep(hs: HStar, pairs, node_cap: int) -> dict:
    """d*_r(i) for every requested (r, i), from one pass over ideals of H.

    d*_r(i) is the least #(E ∩ H*) over the ideals E generated inside
    M_i = {m_1..m_i} with #(E ∩ M_i) >= r.  The pass adds generators in
    increasing index and skips every m_j already in E, which lists each
    ideal once, by its antichain of generators.  Siblings are tried from the
    highest index down, so small ideals come first.  Ideals are bitmasks
    over member positions, ORs of ``LambdaProfile.mask``.

    An ideal whose last generator is m_j counts at every column i >= j for
    every r <= #(E ∩ M_i).  It enters the table through a short staircase,
    one step per requested column where that count grows, until it reaches
    the largest requested r.  ``best[r][c]`` holds the least size that
    counts for (r, cols[c]) so far, closed under the table's order: it never
    grows along a row nor falls down a column.

    Two cuts bound a subtree.  Ideals only grow down a branch, and the
    ideals below E count only at columns past its last generator m_j.  They
    also add no position up to j, so if E misses ``slack`` of the positions
    1..j they reach #(E' ∩ M_i) <= i - slack at column i.  A subtree is cut
    once no requested (r, i) it could reach holds a value above its size.
    """
    profile = lambda_profile(hs)
    cols = sorted({i for _, i in pairs})
    width, imax = len(cols), cols[-1]
    wanted = [set() for _ in cols]
    for r, i in pairs:
        wanted[bisect_left(cols, i)].add(r)
    wanted = [sorted(rs) for rs in wanted]
    top = [rs[-1] for rs in wanted]
    rmax = max(top)
    first = [bisect_left(cols, p) for p in range(imax + 2)]
    low = [(1 << i) - 1 for i in cols]
    window = (1 << imax) - 1
    counts = [0] + profile.counts[:imax].tolist()
    best = [None] + [[hs.n + 1] * width for _ in range(rmax)]
    # size_cap[c]: the largest requested value in columns c.., 0 past the
    # last; best[top[c]][c] is the largest at column c, as best grows with r
    size_cap = [hs.n + 1] * width + [0]
    # spare[c]: the most slack that still reaches every requested r in
    # columns c.., unbounded past the last
    spare = [hs.n + 1] * (width + 1)
    for c in range(width - 1, -1, -1):
        spare[c] = min(spare[c + 1], cols[c] - top[c])

    def refresh(lo, hi):
        """Recompute size_cap after ``best`` changed in columns lo..hi-1."""
        for c in range(hi - 1, -1, -1):
            cap = max(best[top[c]][c], size_cap[c + 1])
            if c < lo and cap == size_cap[c]:
                return
            size_cap[c] = cap

    def improvable(c, slack, size):
        """Whether an ideal of this size and slack could still lower a
        requested value in columns c.. ."""
        while spare[c] < slack:
            rs = wanted[c]
            k = bisect_right(rs, cols[c] - slack)
            if k and best[rs[k - 1]][c] > size:
                return True
            c += 1
        return size < size_cap[c]

    nodes = 0
    # one frame per generator taken: the ideal and the untried positions
    # above its last generator that it does not contain
    ideals, untried = [0], [window]
    while untried:
        free = untried[-1]
        if not free:
            ideals.pop()
            untried.pop()
            continue
        j = free.bit_length()
        untried[-1] = free ^ (1 << (j - 1))
        nodes += 1
        if nodes > node_cap:
            raise EnumerationCapExceeded(node_cap)
        # the ideal holds Λ*_j, so a count that large already rules it out,
        # before its mask is built
        if counts[j] >= size_cap[first[j]]:
            continue
        ideal = ideals[-1] | profile.mask(j)
        size = ideal.bit_count()
        # positions 1..j outside the ideal
        slack = j - size + (ideal >> j).bit_count()
        if not improvable(first[j], slack, size):
            continue
        # the staircase, lowering each row from r = #(E ∩ M_i) down
        c = dirty = first[j]
        while True:
            e = (ideal & low[c]).bit_count()
            for r in range(e if e < rmax else rmax, 0, -1):
                row = best[r]
                if row[c] <= size:
                    break
                end = c
                while end < width and row[end] > size:
                    row[end] = size
                    end += 1
                if end > dirty:
                    dirty = end
            if e >= rmax:
                break
            rest = ideal >> cols[c]
            p = cols[c] + (rest & -rest).bit_length()
            if not rest or p > imax:
                break
            c = first[p]
        if dirty > first[j]:
            refresh(first[j], dirty)
        if improvable(first[j + 1], slack, size):
            ideals.append(ideal)
            untried.append(window >> j << j & ~ideal)
    return {(r, i): best[r][bisect_left(cols, i)] for r, i in pairs}


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

    One sweep over the ideals of H answers every pair: its generators stop
    at the largest requested i and its staircase at the largest requested r.
    Visiting more than ``node_cap`` ideals raises, as does a cap below 1.
    """
    _check_node_cap(node_cap)
    pairs = [(int(r), int(i)) for r, i in pairs]
    for r, i in pairs:
        _check_pair(hs, r, i)
    values = _ideal_sweep(hs, pairs, node_cap) if pairs else {}
    return GhwTable(hs, tuple(GhwEntry(r, i, values[r, i]) for r, i in pairs))


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
