"""Order-type minimum-distance bounds computed from a jump set.

Everything here is exact integer combinatorics over an :class:`~agb.hstar.HStar`:
the per-index sets ``(m_i + H) intersect H*``, the running-minimum distance
bound, the Goppa comparison, the dual-side order bound via A-sets, improved
code profiles, and the generalized-Hamming-weight extension.

The profile counts come from the shifted-gap identity in O(n*g) time and
O(n + g) memory; the sets themselves are built one index at a time, only
where the generalized-weight search or a caller asks for them.
"""

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (DeltaOutOfRange, EnumerationCapExceeded, IndexOutOfRange,
                     InternalInvariantViolation, NotAMember, NotIsometryDual)
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
    """Compute the profile counts of a jump set in O(n*g) time.

    Of the n - i + 1 members m >= m_i, m - m_i is either a semigroup member
    or a gap, so count(i) = (n - i + 1) - #((m_i + gaps) intersect H*).  One
    vectorised pass per gap over a membership vector of H* gives the counts.
    """
    members = hs.members_array()
    gaps = hs.semigroup.gaps
    in_hstar = np.zeros(int(members[-1]) + hs.semigroup.conductor + 1,
                        dtype=bool)
    in_hstar[members] = True
    shifted_hits = np.zeros(hs.n, dtype=np.int64)
    for gap in gaps:
        shifted_hits += in_hstar[members + gap]
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


@lru_cache(maxsize=1 << 17)
def _a_count(S: NumericalSemigroup, h: int) -> int:
    # From h >= 2c - 1 on, t and h - t are never both gaps, so each of the g
    # gaps removes exactly one t from [0, h] and one h - t.
    if h >= 2 * S.conductor - 1:
        return h + 1 - 2 * S.genus
    mask = S.membership_mask(h)
    return int((mask & mask[::-1]).sum())


def a_counts_by_index(hs: HStar) -> np.ndarray:
    """Vector of A-set cardinalities at each jump value m_1 .. m_n."""
    S = hs.semigroup
    members = hs.members_array()
    counts = members + 1 - 2 * S.genus
    low = members < 2 * S.conductor - 1
    counts[low] = [_a_count(S, int(h)) for h in members[low]]
    return counts


def d_ord(hs: HStar, i: int) -> int:
    """Dual-side order bound, reduced to A-set sizes at reflected indices."""
    _check_index(hs, i)
    _require_isometry_dual(hs)
    S = hs.semigroup
    n = hs.n
    return min(_a_count(S, hs.members[n - r]) for r in range(1, i + 1))


def d_ord_threshold(hs: HStar, i: int) -> int:
    """Dual-side order bound in its original min-over-threshold form.

    Minimizes the A-set size over jump values h >= n+2g-1 - m_i.  Agrees
    with :func:`d_ord`; kept separate so the reduction itself is testable.
    """
    _check_index(hs, i)
    _require_isometry_dual(hs)
    S = hs.semigroup
    cutoff = hs.n + 2 * S.genus - 1 - hs.members[i - 1]
    return min(_a_count(S, h) for h in hs.members if h >= cutoff)


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
    """Exact minimum union cardinality over r distinct profile sets within 1..i.

    Depth-first subset enumeration with branch-and-bound: a partial union at
    least as large as the incumbent cannot improve, since unions only grow.
    Visiting more than ``node_cap`` nodes raises instead of degrading.
    """
    if not (1 <= r <= i):
        raise IndexOutOfRange(f"need 1 <= r <= i, got r={r}, i={i}")
    _check_index(hs, i)
    profile = lambda_profile(hs)
    masks = [profile.mask(j) for j in range(1, i + 1)]
    order = sorted(range(i), key=lambda j: int(profile.counts[j]))
    masks = [masks[j] for j in order]

    if r == i:
        return _popcount_union(masks)
    # greedy incumbent: union of the r individually smallest sets
    best = _popcount_union(masks[:r])
    # Depth-first search with an explicit stack, one frame per chosen set:
    # the union so far and an iterator over the candidates left at that depth.
    # A frame is always run to its end, so charging all of its candidates to
    # the node count when it is pushed counts what visiting them would.
    nodes = i - r + 1
    if nodes > node_cap:
        raise EnumerationCapExceeded(node_cap)
    stack = [(0, iter(range(nodes)))]
    while stack:
        union, candidates = stack[-1]
        depth = len(stack)
        for j in candidates:
            nxt = union | masks[j]
            if nxt.bit_count() >= best:
                continue
            if depth == r:
                best = nxt.bit_count()
                continue
            stop = i - r + depth + 1
            nodes += stop - j - 1
            if nodes > node_cap:
                raise EnumerationCapExceeded(node_cap)
            stack.append((nxt, iter(range(j + 1, stop))))
            break
        else:
            stack.pop()
    return best


def _popcount_union(masks) -> int:
    u = 0
    for m in masks:
        u |= m
    return u.bit_count()


def ghw_bound_naive(hs: HStar, i: int, r: int) -> int:
    """Plain enumeration over all r-subsets; oracle for the pruned search."""
    if not (1 <= r <= i):
        raise IndexOutOfRange(f"need 1 <= r <= i, got r={r}, i={i}")
    _check_index(hs, i)
    profile = lambda_profile(hs)
    masks = [profile.mask(j) for j in range(1, i + 1)]
    return min(_popcount_union(sub) for sub in combinations(masks, r))


class BoundRow(NamedTuple):
    i: int
    m: int
    lambda_count: int
    d_star: int
    goppa: int
    d_ord: "int | None"


class BoundTable(NamedTuple):
    hstar: HStar
    rows: tuple


def bound_table(hs: HStar) -> BoundTable:
    """Full per-index table: counts, running bound, Goppa value, order bound."""
    profile = lambda_profile(hs)
    dstar = profile.d_star_vector()
    iso = hs.is_isometry_dual()
    dord = None
    if iso:
        acounts = a_counts_by_index(hs)
        dord = np.minimum.accumulate(acounts[::-1])
    rows = []
    for i, m in enumerate(hs.members, start=1):
        rows.append(BoundRow(
            i, m, int(profile.counts[i - 1]), int(dstar[i - 1]), hs.n - m,
            int(dord[i - 1]) if iso else None,
        ))
    return BoundTable(hs, tuple(rows))


class GhwEntry(NamedTuple):
    r: int
    i: int
    bound: int


class GhwTable(NamedTuple):
    hstar: HStar
    entries: tuple


def ghw_table(hs: HStar, pairs, node_cap: int = DEFAULT_NODE_CAP) -> GhwTable:
    """Generalized-weight bounds for the requested (r, i) pairs."""
    entries = tuple(GhwEntry(r, i, ghw_bound(hs, i, r, node_cap=node_cap))
                    for r, i in pairs)
    return GhwTable(hs, entries)


def _check_index(hs: HStar, i: int) -> None:
    if not 1 <= i <= hs.n:
        raise IndexOutOfRange(f"index {i} outside 1..{hs.n}")


def _check_delta(hs: HStar, delta: int) -> None:
    if not 1 <= delta <= hs.n:
        raise DeltaOutOfRange(f"delta {delta} outside 1..{hs.n}")


def _require_isometry_dual(hs: HStar) -> None:
    if not hs.is_isometry_dual():
        raise NotIsometryDual(
            "operation requires the isometry-dual condition "
            f"(n+2g-1 = {hs.n + 2 * hs.semigroup.genus - 1} is not a jump)"
        )
