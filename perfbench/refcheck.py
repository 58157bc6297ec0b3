"""Reference computations made apart from agb, and the output checks on them.

Nothing here imports agb.  Semigroups come from a reachability sieve over the
generators, jump sets from their defining membership rules, profile counts
from the shifted-gap identity, A-set sizes by direct counting, and GHW values
by enumerating every subset of the Lambda* sets.  Each ``check_*`` function
raises :class:`CheckFailed` at the first mismatch.
"""

import re

import numpy as np

# Defaults of agb's oracle.SearchBudget, as documented for `agb verify`; the
# benchmark removes the environment variables that would override them.
MAX_CODEWORDS = 1 << 26
MAX_SUBSPACES = 10 ** 7


class CheckFailed(Exception):
    """An output of agb disagrees with the reference or breaks a property."""


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- semigroups and jump sets -------------------------------------------


def sieve(gens, limit: int) -> np.ndarray:
    """mem[x] is True iff x is a sum of generators, for 0 <= x <= limit."""
    mem = np.zeros(limit + 1, dtype=bool)
    mem[0] = True
    for g in sorted(set(gens)):
        # block b+1 may reuse g once more on top of the finished block b
        for lo in range(g, limit + 1, g):
            hi = min(lo + g, limit + 1)
            mem[lo:hi] |= mem[lo - g:hi - g]
    return mem


def gaps_of(gens) -> np.ndarray:
    """Gaps of <gens>; Schur's bound (a-1)(b-1) caps the conductor."""
    a, b = min(gens), max(gens)
    return np.flatnonzero(~sieve(gens, (a - 1) * (b - 1) + a))


class JumpSet:
    """H* of length n over <gens> in one of the two closed-form modes."""

    def __init__(self, gens, n: int, mode: str):
        self.gens = tuple(gens)
        self.n = n
        self.mode = mode
        self.gaps = gaps_of(gens)
        self.genus = len(self.gaps)
        self.conductor = int(self.gaps[-1]) + 1 if self.genus else 0
        self.top = n + 2 * self.genus - 1
        self.mem = sieve(gens, self.top)
        h = np.arange(self.top + 1)
        if mode == "equiv-divisor":
            # {h in H : h - n not in H}
            shifted = np.zeros(self.top + 1, dtype=bool)
            shifted[n:] = self.mem[: self.top + 1 - n]
            keep = self.mem & ~shifted
        elif mode == "isometry-dual":
            # {m <= n+2g-1 : m in H and n+2g-1-m in H}
            keep = self.mem & self.mem[::-1]
        else:
            raise ValueError(f"no closed form for mode {mode!r}")
        self.members = h[keep]

    def is_isometry_dual(self) -> bool:
        return bool(self.members[-1] == self.top)

    def counts(self) -> np.ndarray:
        """#Lambda*_i = (n - i + 1) - #((m_i + gaps) & H*), for i = 1..n."""
        inset = np.zeros(self.top + 1 + (int(self.gaps[-1]) if self.genus else 0),
                         dtype=bool)
        inset[self.members] = True
        hits = (inset[self.members[:, None] + self.gaps[None, :]].sum(axis=1)
                if self.genus else 0)
        return self.n - np.arange(self.n) - hits

    def a_count(self, h: int) -> int:
        """#{t : t and h - t in H}; equal to h + 1 - 2g once h >= 2c - 1."""
        if h >= 2 * self.conductor - 1:
            return h + 1 - 2 * self.genus
        window = self.mem[: h + 1]
        return int((window & window[::-1]).sum())

    def lambda_masks(self, imax: int) -> list:
        """Lambda*_i = {h in H* : h - m_i in H} as bitmasks, for i <= imax."""
        masks = []
        for mi in self.members[:imax]:
            diff = self.members - mi
            inside = (diff >= 0) & self.mem[np.maximum(diff, 0)]
            masks.append(sum(1 << j for j in np.flatnonzero(inside).tolist()))
        return masks


def ghw_brute_force(masks, rmax: int) -> dict:
    """Min union size over every r-subset of the first i masks.

    Builds the union of each of the 2^k subsets from the one without its
    lowest set, then keeps the least popcount per (r, i), i being the
    smallest prefix that holds the subset.
    """
    k = len(masks)
    inf = 1 << 30
    best = [[inf] * (k + 1) for _ in range(rmax + 1)]
    unions = [0] * (1 << k)
    for sub in range(1, 1 << k):
        low = sub & -sub
        unions[sub] = unions[sub ^ low] | masks[low.bit_length() - 1]
        r = sub.bit_count()
        if r <= rmax:
            size = unions[sub].bit_count()
            i = sub.bit_length()
            if size < best[r][i]:
                best[r][i] = size
    out = {}
    for r in range(1, rmax + 1):
        running = inf
        for i in range(1, k + 1):
            running = min(running, best[r][i])
            if i >= r:
                out[(r, i)] = running
    return out


def gaussian_binomial(k: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of GF(q)^k."""
    num = den = 1
    for i in range(r):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# -- agb bounds --json ----------------------------------------------------


def _first_diff(a, b) -> int:
    """1-based index of the first entry where a and b differ."""
    k = min(len(a), len(b))
    bad = np.flatnonzero(np.asarray(a[:k]) != np.asarray(b[:k]))
    return int(bad[0]) + 1 if bad.size else k + 1


def check_bounds(payload: dict, ref: JumpSet) -> None:
    """Check one `agb bounds --json` payload against the reference."""
    n = ref.n
    _require(payload.get("n") == n, f"n is {payload.get('n')}, expected {n}")
    _require(payload.get("mode") == ref.mode,
             f"mode is {payload.get('mode')}, expected {ref.mode}")
    rows = payload["rows"]
    _require(len(rows) == n, f"{len(rows)} rows, expected {n}")
    idx = np.array([r["i"] for r in rows])
    m = np.array([r["m_i"] for r in rows])
    counts = np.array([r["lambda_count"] for r in rows])
    dstar = np.array([r["d_star"] for r in rows])
    goppa = np.array([r["goppa"] for r in rows])
    _require(np.array_equal(idx, np.arange(1, n + 1)), "rows are not i = 1..n")
    _require(np.array_equal(m, ref.members),
             f"H* differs from the sieve at i = {_first_diff(m, ref.members)}")
    _require(np.array_equal(counts, ref.counts()),
             "lambda_count breaks the shifted-gap identity at i = "
             f"{_first_diff(counts, ref.counts())}")
    _require(np.array_equal(dstar, np.minimum.accumulate(counts)),
             "d_star is not the running minimum of the counts")
    _require(np.array_equal(goppa, n - m), "goppa is not n - m_i")
    _require((dstar >= goppa).all(), "d_star < goppa at i = "
             f"{int(np.argmin(dstar >= goppa)) + 1}")
    iso = ref.is_isometry_dual()
    has_dord = ["d_ord" in r for r in rows]
    _require(all(has_dord) if iso else not any(has_dord),
             f"d_ord present={any(has_dord)}, isometry-dual={iso}")
    if iso:
        acounts = np.array([ref.a_count(int(h)) for h in ref.members[::-1]])
        _require(np.array_equal(np.array([r["d_ord"] for r in rows]),
                                np.minimum.accumulate(acounts)),
                 "d_ord is not the running minimum of #A(m_{n-r+1})")


# -- ghw_table ------------------------------------------------------------


def check_ghw(values: dict, ref: JumpSet, rmax: int, brute: dict) -> None:
    """Check {(r, i): bound} over every pair r <= rmax, r <= i <= n."""
    n = ref.n
    expected = {(r, i) for r in range(1, rmax + 1) for i in range(r, n + 1)}
    _require(set(values) == expected, f"the (r, i) pairs are not all r <= {rmax}")
    dstar = np.minimum.accumulate(ref.counts())
    for (r, i), v in values.items():
        if r == 1:
            _require(v == dstar[i - 1], f"r=1, i={i}: {v} != d*(i) = {dstar[i - 1]}")
        if r == i:
            _require(v == n, f"r=i={i}: {v} != n = {n}")
        if r > 1:
            _require(v >= values[(r - 1, i)],
                     f"decreases in r at (r={r}, i={i})")
        if i > r:
            _require(v <= values[(r, i - 1)],
                     f"increases in i at (r={r}, i={i})")
        if (r, i) in brute:
            _require(v == brute[(r, i)],
                     f"(r={r}, i={i}): {v} != brute force {brute[(r, i)]}")


# -- agb verify hermitian --json ---------------------------------------------


def verify_names(q0: int, max_dim, ghw_r) -> list:
    """Record names `agb verify hermitian` must emit, in order.

    Derived from the sieve's equiv-divisor jump set for n = q0^3 over
    <q0, q0+1> and the default search budgets.
    """
    ref = JumpSet((q0, q0 + 1), q0 ** 3, "equiv-divisor")
    n, q = ref.n, q0 * q0
    cap = max_dim if max_dim is not None else n
    members = ref.members
    names = ["hstar-matches-construction"]
    for m in range(ref.top + 1):
        dim = int((members <= m).sum())
        if dim == 0 or dim > cap or q ** dim > MAX_CODEWORDS:
            continue
        names += [f"dstar-m{m}", f"generic-m{m}"]
        if m < n:
            names.append(f"goppa-m{m}")
    if ghw_r:
        for dim, m in enumerate(members.tolist(), start=1):
            if dim > cap:
                continue
            names += [f"ghw-m{m}-r{r}" for r in range(1, min(ghw_r, dim) + 1)
                      if gaussian_binomial(dim, r, q) <= MAX_SUBSPACES]
    counts = ref.counts()
    for delta in range(1, n + 1):
        k = int((counts >= delta).sum())
        if 0 < k <= cap and q ** k <= MAX_CODEWORDS:
            names.append(f"improved-delta{delta}")
    names.append("isometry-witness")
    if ref.is_isometry_dual():
        names.append("biorthogonal-adjust")
    return names


_DIST = re.compile(r"dim (\d+): true (\d+) >= (?:bound|designed) (-?\d+)")


def check_verify(rc: int, payload: dict, q0: int, max_dim, ghw_r,
                 names: list) -> None:
    """Check one `agb verify hermitian --json` run; ``names`` from verify_names."""
    n = q0 ** 3
    _require(rc == 0, f"exit code {rc}")
    _require(payload.get("all_ok") is True, "all_ok is not true")
    checks = payload["checks"]
    failed = [c["name"] for c in checks if c["ok"] is not True]
    _require(not failed, f"records not ok: {failed}")
    got = [c["name"] for c in checks]
    _require(got == names, "record names differ from the derived list: "
             f"{sorted(set(got) ^ set(names))[:4]}")
    chain = []
    for c in checks:
        kind = c["name"].split("-")[0]
        if kind not in ("dstar", "improved", "ghw"):
            continue
        match = _DIST.fullmatch(c["detail"])
        _require(match, f"{c['name']}: unparsed detail {c['detail']!r}")
        k, d = int(match[1]), int(match[2])
        r = int(c["name"].rsplit("-r", 1)[1]) if kind == "ghw" else 1
        _require(d <= n - k + r, f"{c['name']}: d = {d} breaks Singleton "
                 f"d <= n - k + {r} = {n - k + r}")
        if kind == "dstar":
            chain.append((c["name"], d))
    for (_, before), (name, after) in zip(chain, chain[1:]):
        _require(after <= before, f"{name}: distance rose along the chain")
