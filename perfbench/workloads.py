"""The benchmark's four workloads: inputs from a seed, timed operations, checks.

A workload builds its inputs once (set-up), then hands out batches of
operations.  An operation is one call into agb; its check runs untimed and
compares the output with ``refcheck``.  Batch b of worker slot w among P
workers has the run-wide index g = b * P + w, so inputs that must not repeat
within a run are keyed on g.
"""

import contextlib
import io
import json
import random

import agb.bounds
import agb.cli
from agb import HStar, NumericalSemigroup

import refcheck


class OpFailed(Exception):
    """The operation exited non-zero."""


class Op:
    """One timed call into agb and the untimed check of what it returned."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label: str, run, check):
        self.label = label
        self.run = run
        self.check = check


def run_cli(argv: list) -> tuple:
    """``agb <argv>`` in this process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        # looked up per call, so a traced run sees the wrapped entry point
        rc = agb.cli.main(argv)
    return rc, buf.getvalue()


def _cli_json(out: tuple) -> dict:
    rc, text = out
    if rc != 0:
        raise OpFailed(f"exit code {rc}")
    return json.loads(text)


class BoundsTable:
    """`agb bounds --json` at lengths from a few hundred up to 8192.

    Sorted by cost the batch is S, S, M, M, M, M, L, L, so the median
    operation is an M one, and the L ones set the batch time.  Lengths step
    down by two per batch (and by one more in isometry-dual mode), so no
    jump set repeats within a run and every operation builds its profile
    anew.
    """

    name = "bounds-table"
    CLASSES = (
        (512, (((8, 10, 12, 13), "isometry-dual"), ((5, 7, 9), "equiv-divisor"))),
        (2048, (((16, 17), "equiv-divisor"), ((16, 17), "isometry-dual"),
                ((8, 10, 12, 13), "equiv-divisor"),
                ((8, 10, 12, 13), "isometry-dual"))),
        (8192, (((32, 33), "equiv-divisor"), ((5, 7, 9), "isometry-dual"))),
    )
    OFFSETS = 16  # the seed picks each class's first length in N - 2*[0, 16)

    def __init__(self, seed: int, slot: int, slots: int):
        rng = random.Random(seed)
        self.offsets = [rng.randrange(self.OFFSETS) for _ in self.CLASSES]
        self.slot, self.slots = slot, slots

    def prepare(self) -> None:
        pass

    def batch(self, b: int) -> list:
        g = b * self.slots + self.slot
        ops = []
        for (size, entries), offset in zip(self.CLASSES, self.offsets):
            for gens, mode in entries:
                n = size - 2 * (offset + g) - (mode == "isometry-dual")
                argv = ["bounds", "--gens", ",".join(map(str, gens)),
                        "--n", str(n), "--mode", mode, "--json"]
                ops.append(Op(f"{mode} <{argv[2]}> n={n}",
                              lambda argv=argv: run_cli(argv),
                              lambda out, gens=gens, n=n, mode=mode:
                              refcheck.check_bounds(
                                  _cli_json(out),
                                  refcheck.JumpSet(gens, n, mode))))
        return ops


class GhwHierarchy:
    """One `ghw_table` call over every (r, i), r <= 8, per small jump set.

    The seed adds 0 or 1 to each base length; the five sets are searched in
    every batch, each with its profile built anew.
    """

    name = "ghw-hierarchy"
    RMAX = 8
    BRUTE_MAX_I = 16
    # lengths chosen so that each search costs about the same, which keeps
    # the median operation steady whichever set lands in the middle
    SETS = (
        ((8, 10, 12, 13), "equiv-divisor", 58),
        ((4, 5), "equiv-divisor", 80),
        ((5, 6), "isometry-dual", 72),
        ((5, 7, 9), "isometry-dual", 72),
        ((3, 5, 7), "equiv-divisor", 96),
    )

    def __init__(self, seed: int, slot: int, slots: int):
        rng = random.Random(seed)
        self.inputs = []
        for gens, mode, base in self.SETS:
            n = base + rng.randrange(2)
            S = NumericalSemigroup.from_generators(gens)
            hs = (HStar.from_equiv_divisor(S, n) if mode == "equiv-divisor"
                  else HStar.from_isometry_dual(S, n))
            pairs = [(r, i) for r in range(1, self.RMAX + 1)
                     for i in range(r, n + 1)]
            self.inputs.append((gens, mode, hs, pairs))
        self.refs = []

    def prepare(self) -> None:
        for gens, mode, hs, _ in self.inputs:
            ref = refcheck.JumpSet(gens, hs.n, mode)
            brute = refcheck.ghw_brute_force(
                ref.lambda_masks(self.BRUTE_MAX_I), self.RMAX)
            self.refs.append((ref, brute))

    def batch(self, b: int) -> list:
        ops = []
        for (gens, mode, hs, pairs), (ref, brute) in zip(self.inputs, self.refs):
            ops.append(Op(f"{mode} <{','.join(map(str, gens))}> n={hs.n}",
                          lambda hs=hs, pairs=pairs:
                          agb.bounds.ghw_table(hs, pairs),
                          lambda out, ref=ref, brute=brute:
                          refcheck.check_ghw(
                              {(e.r, e.i): e.bound for e in out.entries},
                              ref, self.RMAX, brute)))
        return ops


class Verify:
    """`agb verify hermitian --json`, repeated; the built-in curve fixes inputs."""

    def __init__(self, name: str, q0: int, max_dim, ghw_r, per_batch: int):
        self.name = name
        self.q0, self.max_dim, self.ghw_r = q0, max_dim, ghw_r
        self.per_batch = per_batch
        self.argv = ["verify", "hermitian", "--q0", str(q0), "--json"]
        if max_dim is not None:
            self.argv += ["--max-dim", str(max_dim)]
        if ghw_r is not None:
            self.argv += ["--ghw", str(ghw_r)]
        self.names = None

    def prepare(self) -> None:
        self.names = refcheck.verify_names(self.q0, self.max_dim, self.ghw_r)

    def _check(self, out: tuple) -> None:
        refcheck.check_verify(out[0], _cli_json(out), self.q0, self.max_dim,
                              self.ghw_r, self.names)

    def batch(self, b: int) -> list:
        return [Op(" ".join(self.argv[:4]), lambda: run_cli(self.argv),
                   self._check) for _ in range(self.per_batch)]


def make(name: str, seed: int, slot: int = 0, slots: int = 1):
    """Build a workload's inputs; this is the timed part of set-up."""
    if name == BoundsTable.name:
        return BoundsTable(seed, slot, slots)
    if name == GhwHierarchy.name:
        return GhwHierarchy(seed, slot, slots)
    if name == "verify-gf9":
        return Verify(name, 3, 7, None, per_batch=1)
    if name == "verify-gf4":
        return Verify(name, 2, None, 4, per_batch=3)
    raise ValueError(f"unknown workload {name!r}")

