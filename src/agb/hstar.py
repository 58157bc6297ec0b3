"""Jump sets of one-point evaluation-code chains, from semigroup data alone.

For a chain of evaluation codes indexed by pole-order budget m, the jump set
collects the n values of m at which the code strictly grows.  Several
constructions are provided; all of them validate the same structural
invariants, so a successfully built ``HStar`` can be trusted downstream.
"""

import enum
import operator

import numpy as np

from .errors import (ClosureViolation, IndexOutOfRange,
                     InternalInvariantViolation, InvariantViolation,
                     LengthTooSmall, LowRangeMismatch, MalformedAbundance,
                     MalformedChain, NotSubsetOfH, ResultInvalid,
                     WrongCardinality)
from .semigroup import NumericalSemigroup


class HStarMode(enum.Enum):
    """How an HStar instance was obtained."""

    EXPLICIT = "explicit"
    EQUIV_DIVISOR = "equiv-divisor"
    ISOMETRY_DUAL = "isometry-dual"
    ABUNDANCE = "abundance"
    CODE_CHAIN = "code-chain"


class HStar:
    """Ordered n-element jump set m_1 < ... < m_n over a numerical semigroup.

    The sentinel ``M0 = -1`` stands for the zero code preceding the chain.
    Every construction, direct or through a ``from_*`` classmethod, checks
    the structural invariants once, in ``__init__``.  Instances are
    immutable; equality ignores the construction mode.
    """

    M0 = -1

    __slots__ = ("semigroup", "n", "members", "mode",
                 "_member_set", "_members_arr", "_hash")

    def __init__(self, semigroup: NumericalSemigroup, n: int, members, mode: HStarMode):
        self.semigroup = semigroup
        self.n = _require_length(semigroup, n)
        self.members = tuple(sorted(
            _integers(members, NotSubsetOfH, "members")))
        self._members_arr = _validate(semigroup, self.n, self.members)
        self.mode = mode
        self._member_set = frozenset(self.members)
        self._hash = hash((semigroup, self.n, self.members))

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_explicit(cls, semigroup: NumericalSemigroup, n: int,
                      members) -> "HStar":
        """Wrap a caller-supplied jump set, ignoring order and repeats."""
        members = set(_integers(members, NotSubsetOfH, "members"))
        return cls(semigroup, n, members, HStarMode.EXPLICIT)

    @classmethod
    def from_equiv_divisor(cls, semigroup: NumericalSemigroup, n: int) -> "HStar":
        """Jump set when the evaluation divisor is equivalent to n times the pole.

        Members are the semigroup elements below n together with n plus each gap.
        """
        n = _require_length(semigroup, n)
        members = semigroup.elements_up_to(n - 1)
        members.extend(n + l for l in semigroup.gaps)
        return cls(semigroup, n, members, HStarMode.EQUIV_DIVISOR)

    @classmethod
    def from_isometry_dual(cls, semigroup: NumericalSemigroup, n: int) -> "HStar":
        """Jump set of a chain satisfying the isometry-dual condition.

        Computed two ways and cross-checked: as the members m with
        n+2g-1-m also a member, and as [0, n+2g-1] minus the gaps and their
        reflections n+2g-1-l.
        """
        n = _require_length(semigroup, n)
        top = n + 2 * semigroup.genus - 1
        mask = semigroup.membership_mask(top)
        sym = mask & mask[::-1]
        members = np.nonzero(sym)[0]

        complement = np.ones(top + 1, dtype=bool)
        if semigroup.gaps:
            gaps = np.array(semigroup.gaps)
            complement[gaps] = False
            complement[top - gaps] = False
        if not np.array_equal(sym, complement):
            raise InternalInvariantViolation(
                "the two isometry-dual constructions disagree"
            )
        return cls(semigroup, n, members.tolist(), HStarMode.ISOMETRY_DUAL)

    @classmethod
    def from_abundance(cls, semigroup: NumericalSemigroup, n: int, ell) -> "HStar":
        """Jump set from the kernel dimensions ell(m) for m = 0 .. n+2g-1.

        A budget m is a jump exactly when m is a semigroup member and the
        kernel dimension does not grow at m (ell(-1) counts as 0).
        """
        n = _require_length(semigroup, n)
        g = semigroup.genus
        ell = _integers(ell, MalformedAbundance, "kernel dimensions")
        top = n + 2 * g - 1
        if len(ell) != top + 1:
            raise MalformedAbundance(
                f"expected {top + 1} kernel dimensions for m = 0..{top}, "
                f"got {len(ell)}"
            )
        steps = np.diff(np.concatenate(([0], ell)))
        if np.any((steps != 0) & (steps != 1)):
            raise MalformedAbundance("kernel dimension steps must be 0 or 1")
        if any(ell[m] != 0 for m in range(min(n, top + 1))):
            raise MalformedAbundance("kernel dimension must be 0 below n")
        if ell[top] != g:
            raise MalformedAbundance(
                f"kernel dimension at m = n+2g-1 must equal the genus {g}"
            )
        members = [m for m in range(top + 1)
                   if semigroup.contains(m) and steps[m] == 0]
        try:
            return cls(semigroup, n, members, HStarMode.ABUNDANCE)
        except (WrongCardinality, NotSubsetOfH, LowRangeMismatch,
                ClosureViolation) as exc:
            raise ResultInvalid(str(exc)) from exc

    @classmethod
    def from_dimension_chain(cls, dims, semigroup: NumericalSemigroup) -> "HStar":
        """Jump set read off a measured dimension sequence for m = 0 .. n+2g-1.

        ``dims[m]`` is the measured code dimension at budget m; the length n
        is the final (saturated) value.  Jumps are the positions where the
        dimension grows, with dim(-1) = 0.
        """
        dims = _integers(dims, MalformedChain, "dimensions")
        if not dims:
            raise MalformedChain("empty dimension sequence")
        steps = np.diff(np.concatenate(([0], dims)))
        if np.any((steps != 0) & (steps != 1)):
            raise MalformedChain("dimension steps must be 0 or 1")
        n = dims[-1]
        g = semigroup.genus
        if len(dims) != n + 2 * g:
            raise MalformedChain(
                f"sequence saturates at n={n}, so it must cover "
                f"m = 0..{n + 2 * g - 1} ({n + 2 * g} values, got {len(dims)})"
            )
        members = np.nonzero(steps == 1)[0]
        _require_length(semigroup, n)
        return cls(semigroup, n, members, HStarMode.CODE_CHAIN)

    # -- queries --------------------------------------------------------

    def m(self, i: int) -> int:
        """The i-th jump value m_i, 1-based; i = 0 yields the sentinel -1."""
        if i == 0:
            return self.M0
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"index {i} outside 0..{self.n}")
        return self.members[i - 1]

    def is_isometry_dual(self) -> bool:
        """True iff n+2g-1 belongs to the jump set."""
        return (self.n + 2 * self.semigroup.genus - 1) in self._member_set

    def pi_value(self) -> int:
        """Smallest semigroup member missing from the jump set (always >= n)."""
        top = self.n + 2 * self.semigroup.genus - 1
        for m in range(self.n, top + 1):
            if self.semigroup.contains(m) and m not in self._member_set:
                return m
        return top + 1

    def members_array(self) -> np.ndarray:
        """Members as a numpy vector, the one validation built."""
        return self._members_arr

    @property
    def member_set(self) -> frozenset:
        return self._member_set

    # -- plumbing -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, HStar):
            return NotImplemented
        return (self.semigroup == other.semigroup and self.n == other.n
                and self.members == other.members)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"HStar(n={self.n}, mode={self.mode.value}, "
                f"semigroup={self.semigroup!r})")


def _integers(values, error: type, what: str) -> list:
    """``values`` as ints; anything but Python or numpy integers raises
    ``error``."""
    try:
        return list(map(operator.index, values))
    except TypeError:
        raise error(f"{what} must be integers") from None


def _require_length(semigroup: NumericalSemigroup, n) -> int:
    """The length n as an int, once it is an integer above 2g+2."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvariantViolation(
            f"length must be an integer, got {n!r}") from None
    if n <= 2 * semigroup.genus + 2:
        raise LengthTooSmall(
            f"length {n} must exceed 2g+2 = {2 * semigroup.genus + 2}"
        )
    return n


def _validate(semigroup: NumericalSemigroup, n: int, members) -> np.ndarray:
    """Check every invariant of a sorted jump set; raise on the first failure.

    Returns the members as an int64 vector.
    """
    _require_length(semigroup, n)
    g = semigroup.genus
    top = n + 2 * g - 1
    members = np.asarray(members, dtype=np.int64)
    if len(members) != n:
        raise WrongCardinality(f"expected {n} members, got {len(members)}")
    repeats = members[1:][np.diff(members) == 0]
    if len(repeats):
        raise WrongCardinality(f"members repeat: {int(repeats[0])}")
    if len(members) and (members[0] < 0 or members[-1] > top):
        raise NotSubsetOfH(f"members must lie in [0, {top}]")
    mask = semigroup.membership_mask(top)
    if not mask[members].all():
        raise NotSubsetOfH("members must belong to the semigroup")

    in_set = np.zeros(top + 1, dtype=bool)
    in_set[members] = True
    if not np.array_equal(in_set[:n], mask[:n]):
        raise LowRangeMismatch(
            "below n the jump set must match the semigroup exactly"
        )
    # Absent m >= n propagates: m + h must be absent for every member h.  Of
    # the members in [m, top], each lies at m plus a semigroup member or at
    # m plus a gap, so all of them must lie at gaps; one pass per run of
    # gaps counts those for every absent m at once.
    absent = np.nonzero(~in_set[n:])[0] + n
    at_gaps = semigroup.count_shifted_gaps(in_set, absent)
    bad = np.nonzero(at_gaps != n - np.searchsorted(members, absent))[0]
    if len(bad):
        m = int(absent[bad[0]])
        h = int(np.nonzero(in_set[m:] & mask[: top - m + 1])[0][0])
        raise ClosureViolation(
            f"{m} is absent but {m + h} = {m} + {h} is present"
        )
    return members
