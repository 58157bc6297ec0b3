"""Tests of the benchmark itself: every output check must reject a planted fault.

Run with the repository's tests (`PYTHONPATH=src python -m pytest`) or alone
(`python -m pytest perfbench`).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import agb  # noqa: E402
import refcheck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from refcheck import CheckFailed  # noqa: E402


def bounds_payload(gens, n, mode):
    rc, text = workloads.run_cli(["bounds", "--gens", ",".join(map(str, gens)),
                                  "--n", str(n), "--mode", mode, "--json"])
    assert rc == 0
    return json.loads(text)


@pytest.mark.parametrize("gens, n, mode", [
    ((8, 10, 12, 13), 64, "equiv-divisor"),
    ((5, 7, 9), 41, "equiv-divisor"),
    ((5, 7, 9), 40, "isometry-dual"),
    ((16, 17), 260, "isometry-dual"),
])
def test_bounds_check_accepts_agb_output(gens, n, mode):
    refcheck.check_bounds(bounds_payload(gens, n, mode),
                          refcheck.JumpSet(gens, n, mode))


@pytest.mark.parametrize("mode", ["equiv-divisor", "isometry-dual"])
def test_bounds_check_rejects_count_off_by_one(mode):
    payload = bounds_payload((5, 7, 9), 41, mode)
    payload["rows"][20]["lambda_count"] += 1
    with pytest.raises(CheckFailed, match="shifted-gap identity at i = 21"):
        refcheck.check_bounds(payload, refcheck.JumpSet((5, 7, 9), 41, mode))


def test_bounds_check_rejects_swapped_member():
    ref = refcheck.JumpSet((8, 10, 12, 13), 64, "equiv-divisor")
    outside = next(h for h in range(64, ref.top + 1)
                   if ref.mem[h] and h not in set(ref.members.tolist()))
    payload = bounds_payload((8, 10, 12, 13), 64, "equiv-divisor")
    payload["rows"][-1]["m_i"] = outside
    with pytest.raises(CheckFailed, match="H\\* differs from the sieve at i = 64"):
        refcheck.check_bounds(payload, ref)


def test_bounds_check_rejects_wrong_d_ord():
    payload = bounds_payload((16, 17), 260, "isometry-dual")
    payload["rows"][-1]["d_ord"] += 1
    with pytest.raises(CheckFailed, match="d_ord"):
        refcheck.check_bounds(payload,
                              refcheck.JumpSet((16, 17), 260, "isometry-dual"))


def ghw_values(gens, n, mode, rmax):
    S = agb.NumericalSemigroup.from_generators(gens)
    hs = (agb.HStar.from_equiv_divisor(S, n) if mode == "equiv-divisor"
          else agb.HStar.from_isometry_dual(S, n))
    pairs = [(r, i) for r in range(1, rmax + 1) for i in range(r, n + 1)]
    return {(e.r, e.i): e.bound for e in agb.ghw_table(hs, pairs).entries}


def test_ghw_check_accepts_and_rejects_value_below_dstar():
    ref = refcheck.JumpSet((3, 5, 7), 24, "equiv-divisor")
    brute = refcheck.ghw_brute_force(ref.lambda_masks(16), 8)
    values = ghw_values((3, 5, 7), 24, "equiv-divisor", 8)
    refcheck.check_ghw(values, ref, 8, brute)
    dstar = int(min(ref.counts()[:10]))
    values[(2, 10)] = dstar - 1
    with pytest.raises(CheckFailed, match="r=2, i=10"):
        refcheck.check_ghw(values, ref, 8, brute)


def test_ghw_brute_force_matches_naive_enumeration():
    from itertools import combinations
    masks = refcheck.JumpSet((4, 5), 30, "equiv-divisor").lambda_masks(9)
    brute = refcheck.ghw_brute_force(masks, 4)
    for (r, i), v in brute.items():
        assert v == min(bin(_union(c)).count("1")
                        for c in combinations(masks[:i], r))


def _union(masks):
    u = 0
    for m in masks:
        u |= m
    return u


@pytest.fixture(scope="module")
def verify_q0_2():
    rc, text = workloads.run_cli(["verify", "hermitian", "--q0", "2", "--json"])
    return rc, json.loads(text)


def test_verify_check_accepts_agb_output(verify_q0_2):
    rc, payload = verify_q0_2
    refcheck.check_verify(rc, payload, 2, None, None,
                          refcheck.verify_names(2, None, None))


def test_verify_check_rejects_failed_record(verify_q0_2):
    rc, payload = verify_q0_2
    planted = json.loads(json.dumps(payload))
    planted["checks"][3]["ok"] = False
    with pytest.raises(CheckFailed, match="records not ok"):
        refcheck.check_verify(rc, planted, 2, None, None,
                              refcheck.verify_names(2, None, None))


def test_verify_check_rejects_distance_above_singleton(verify_q0_2):
    rc, payload = verify_q0_2
    planted = json.loads(json.dumps(payload))
    rec = next(c for c in planted["checks"] if c["name"] == "dstar-m5")
    rec["detail"] = rec["detail"].replace("true ", "true 9", 1)
    with pytest.raises(CheckFailed, match="Singleton"):
        refcheck.check_verify(rc, planted, 2, None, None,
                              refcheck.verify_names(2, None, None))


def test_bounds_table_never_repeats_a_jump_set_in_a_run():
    seen = set()
    for slot in range(3):
        wl = workloads.make("bounds-table", seed=7, slot=slot, slots=3)
        for b in range(20):
            for op in wl.batch(b):
                assert op.label not in seen
                seen.add(op.label)


def test_inputs_follow_the_seed():
    def lengths(seed):
        return [hs.n for _, _, hs, _ in
                workloads.make("ghw-hierarchy", seed).inputs]
    assert lengths(3) == lengths(3)
    assert len({tuple(lengths(s)) for s in range(8)}) > 1


def test_tracer_attributes_time_and_restores_agb():
    original = agb.bounds.lambda_profile
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert agb.bounds.lambda_profile is not original
        workloads.run_cli(["bounds", "--gens", "8,10,12,13", "--n", "64",
                           "--mode", "isometry-dual", "--json"])
    finally:
        tracer.uninstall()
    assert agb.bounds.lambda_profile is original
    m = tracer.metrics(batches=1)
    assert m["bounds.lambda_profile.calls"] == 1
    assert m["bounds.lambda_profile.entries"] == 64
    assert m["cli.calls"] == 1 and m["bounds.calls"] >= 1
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert 0 < total <= tracer.end[0] - tracer.start[0] + 1e-9
    assert set(m) | {"trace.overhead_s"} == {n for n, _, _ in tracing.PER_LAYER}


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [
        n for n, _, _ in tracing.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == {
        "bounds-table", "ghw-hierarchy", "verify-gf9", "verify-gf4"}


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds-table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
