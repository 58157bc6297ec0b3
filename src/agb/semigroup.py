"""Exact arithmetic for numerical semigroups.

A numerical semigroup is an additive submonoid of the nonnegative integers
whose complement (the set of gaps) is finite.  Membership below the conductor
is stored as a bitmap, so queries are O(1); everything at or above the
conductor is a member.
"""

import heapq
import operator
from functools import reduce
from math import gcd

import numpy as np

from .errors import (BeyondDeskScale, EmptyGenerators, GcdNotOne,
                     NonPositiveGenerator)

MAX_FROBENIUS = 10 ** 7


def _apery_distances(gens: tuple[int, ...]) -> list[int]:
    """Smallest member in each residue class modulo the least generator.

    Dijkstra over the residue graph (round-robin sieve): from a member v,
    v + g is a member for every generator g.  Distances settle in increasing
    order, so the desk-scale guard fires on the first one past it.
    """
    a = gens[0]
    # the Frobenius number is at least a - 1, since 1 .. a-1 are gaps
    if a - 1 >= MAX_FROBENIUS:
        raise _beyond_desk_scale()
    dist = [None] * a
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] is not None and d > dist[r]:
            continue
        if d - a >= MAX_FROBENIUS:
            raise _beyond_desk_scale()
        for g in gens:
            nd = d + g
            nr = nd % a
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return dist


def _beyond_desk_scale() -> BeyondDeskScale:
    return BeyondDeskScale(
        f"Frobenius number of at least {MAX_FROBENIUS} is beyond desk scale; "
        "membership tables would need hundreds of megabytes"
    )


def _check_limit(limit: int) -> None:
    """Refuse a listing or table past desk scale before allocating it."""
    if limit > MAX_FROBENIUS:
        raise BeyondDeskScale(
            f"limit {limit} is beyond desk scale: members are listed only up "
            f"to {MAX_FROBENIUS}"
        )


class NumericalSemigroup:
    """Numerical semigroup with precomputed gaps, genus and Frobenius number.

    ``gap_runs`` lists the maximal runs of consecutive gaps as [start, stop)
    pairs: <4,5> has gaps 1,2,3,6,7,11 and runs (1,4), (6,8), (11,12).

    Instances are immutable after construction and safe to share across
    threads.  Use :meth:`from_generators` to build one.
    """

    __slots__ = ("generators", "gaps", "gap_runs", "genus", "frobenius",
                 "conductor", "_bitmap", "_small_members", "_mask", "_hash")

    def __init__(self, generators, gaps):
        self.generators = tuple(generators)
        self.gaps = tuple(gaps)
        self.genus = len(self.gaps)
        self.frobenius = self.gaps[-1] if self.gaps else -1
        self.conductor = self.frobenius + 1
        gapset = set(self.gaps)
        self.gap_runs = tuple(zip(
            (l for l in self.gaps if l - 1 not in gapset),
            (l + 1 for l in self.gaps if l + 1 not in gapset)))
        self._bitmap = [i not in gapset for i in range(self.conductor)]
        self._small_members = tuple(
            i for i in range(self.conductor) if self._bitmap[i]
        )
        self._mask = None
        self._hash = hash(self.gaps)

    @classmethod
    def from_generators(cls, gens) -> "NumericalSemigroup":
        """Semigroup generated by ``gens``; requires gcd 1 and all gens >= 1."""
        try:
            gens = sorted(set(map(operator.index, gens)))
        except TypeError:
            raise NonPositiveGenerator(
                "generators must be positive integers") from None
        if not gens:
            raise EmptyGenerators("at least one generator is required")
        if gens[0] < 1:
            raise NonPositiveGenerator("generators must be positive integers")
        if reduce(gcd, gens) != 1:
            raise GcdNotOne(f"gcd of {gens} is {reduce(gcd, gens)}, not 1")
        dist = _apery_distances(tuple(gens))
        a = gens[0]
        gaps = sorted(
            v for r in range(a) for v in range(dist[r] - a, 0, -a)
        )
        return cls(gens, gaps)

    # -- queries --------------------------------------------------------

    def contains(self, m: int) -> bool:
        """True iff m is a member; False for negative m."""
        if m < 0:
            return False
        if m >= self.conductor:
            return True
        return self._bitmap[m]

    __contains__ = contains

    def is_symmetric(self) -> bool:
        """True iff the largest gap equals 2g-1 (genus 0 counts as symmetric)."""
        return self.genus == 0 or self.frobenius == 2 * self.genus - 1

    def elements_up_to(self, limit: int) -> list[int]:
        """All members m with 0 <= m <= limit."""
        _check_limit(limit)
        out = [m for m in self._small_members if m <= limit]
        out.extend(range(max(self.conductor, 0), limit + 1))
        return out

    def membership_mask(self, limit: int) -> np.ndarray:
        """Boolean membership array over [0, limit]; cached and grown on demand.

        The returned array is a read-only view into the cache.
        """
        _check_limit(limit)
        if self._mask is None or len(self._mask) <= limit:
            size = max(limit + 1, self.conductor, 1)
            mask = np.ones(size, dtype=bool)
            if self.gaps:
                mask[list(self.gaps)] = False
            mask.setflags(write=False)
            self._mask = mask
        return self._mask[: limit + 1]

    def count_shifted_gaps(self, indicator: np.ndarray,
                           at: np.ndarray) -> np.ndarray:
        """#{gaps l : indicator[v + l]} for each v in ``at``.

        Every v must be below len(indicator); positions past the end of the
        boolean ``indicator`` count as false.
        A lone gap l adds indicator[v + l], one gather; a longer run [s, t)
        of gaps adds P[v + t] - P[v + s], two gathers of the prefix sums P of
        the indicator.  So no run costs more than its gaps one at a time.
        """
        padded = np.concatenate(
            (indicator, np.zeros(self.conductor, dtype=bool)))
        prefix = np.cumsum(np.concatenate(([False], padded)))
        hits = np.zeros(len(at), dtype=np.int64)
        for start, stop in self.gap_runs:
            if stop - start == 1:
                hits += padded[start:][at]
            else:
                hits += prefix[stop:][at]
                hits -= prefix[start:][at]
        return hits

    # -- plumbing -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.gaps == other.gaps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        gens = ",".join(str(g) for g in self.generators)
        return f"NumericalSemigroup(<{gens}>, genus={self.genus})"
