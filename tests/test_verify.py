"""run_verification: one measured chain per table, one search per distinct code."""

import sys

import pytest

from agb import gf
from agb import (FieldMatrix, evalcode, hermitian_table, load_table, oracle,
                 save_table)
from agb.errors import UnsupportedParameter
from agb.verify import run_verification


def counted_run(monkeypatch, table, **kwargs):
    """Run the verification, counting exhaustive searches and eliminations.

    ``rref`` counts every call, from every module that imports it; a chain
    pass is one of those made inside ``agb.evalcode``.
    """
    calls = {"min_distance": 0, "weight_hierarchy": 0, "chain_passes": 0,
             "rref": 0}

    def counting(keys, fn):
        def wrapper(*args, **kw):
            for key in keys:
                calls[key] += 1
            return fn(*args, **kw)
        return wrapper

    for key in ("min_distance", "weight_hierarchy"):
        monkeypatch.setattr(oracle, key, counting([key], getattr(oracle, key)))
    rref = gf.rref
    for mod in [m for name, m in sys.modules.items()
                if name.split(".")[0] == "agb"
                and getattr(m, "rref", None) is rref]:
        keys = ["rref", "chain_passes"] if mod is evalcode else ["rref"]
        monkeypatch.setattr(mod, "rref", counting(keys, rref))
    return run_verification(table, **kwargs), calls


def test_gf9_run_searches_each_distinct_code_once(monkeypatch):
    # 20 records read true distances, but only 7 distinct row spaces exist
    checks, calls = counted_run(monkeypatch, hermitian_table(3), max_dim=7)
    assert calls == {"min_distance": 7, "weight_hierarchy": 0,
                     "chain_passes": 1, "rref": 10}
    assert all(c["ok"] for c in checks)


def test_gf4_ghw_run_searches_each_distinct_code_once(monkeypatch):
    # the GHW queries at r = 1 are the 8 chain codes the distance records
    # have searched already; each of the 13 at r >= 2 gets its own search
    checks, calls = counted_run(monkeypatch, hermitian_table(2), ghw_r=4)
    assert calls == {"min_distance": 8, "weight_hierarchy": 13,
                     "chain_passes": 1, "rref": 24}
    assert all(c["ok"] for c in checks)


def test_planted_improved_matrix_gets_its_own_search(monkeypatch):
    table = hermitian_table(2)
    honest = run_verification(table)
    real = evalcode.improved_generators

    def planted(t, delta):
        mat = real(t, delta)
        if delta != 6:
            return mat
        data = mat.data.copy()
        data[-1] = 0
        data[-1, 0] = 1   # a weight-1 row the honest C_2 does not contain
        return FieldMatrix(t.field, data)

    monkeypatch.setattr(evalcode, "improved_generators", planted)
    checks, calls = counted_run(monkeypatch, table)
    assert calls["min_distance"] == 9   # the 8 chain codes and the plant
    by_name = {c["name"]: c for c in checks}
    bad = by_name.pop("improved-delta6")
    d_plant = oracle.min_distance(planted(table, 6))
    assert d_plant == 1
    assert bad == {"name": "improved-delta6", "ok": False,
                   "detail": f"dim 2: true {d_plant} >= designed 6"}
    assert by_name == {c["name"]: c for c in honest
                       if c["name"] != "improved-delta6"}


def test_loaded_table_gives_the_same_records(tmp_path):
    path = tmp_path / "hermitian2.json"
    save_table(hermitian_table(2), path)
    assert (run_verification(load_table(path), ghw_r=4)
            == run_verification(hermitian_table(2), ghw_r=4))


@pytest.mark.parametrize("caps", [{"max_dim": 0}, {"max_dim": -3},
                                  {"ghw_r": 0}, {"ghw_r": -2}])
def test_nonpositive_caps_are_rejected(caps):
    # a cap below 1 would search nothing and report every check passed
    with pytest.raises(UnsupportedParameter):
        run_verification(hermitian_table(2), **caps)
