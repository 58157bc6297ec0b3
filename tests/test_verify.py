"""run_verification: one elimination per table, one listing of each subspace
of a chain."""

import sys

import pytest

from agb import bounds, gf
from agb import (CodeChain, evalcode, hermitian_table, load_table, oracle,
                 save_table)
from agb.errors import UnsupportedParameter
from agb.verify import run_verification


def counted_run(monkeypatch, table, **kwargs):
    """Run the verification, counting searches, listed subspaces and
    eliminations.

    A search is one call of ``oracle.CodeSearch.weight``, a distance at
    r = 1 and a hierarchy above.  Each call of the kernel
    ``oracle._least_support`` at rank r and row j lists the r-subspaces of
    a (j + 1)-dimensional space outside a j-dimensional one, [j + 1, r]_q -
    [j, r]_q of them, and "listings" sums those.  ``rref`` counts every
    call, from every module that imports it; a chain pass is one of those
    made inside ``agb.evalcode``.
    """
    calls = {"distance": 0, "hierarchy": 0, "chain_passes": 0, "rref": 0,
             "listings": 0}

    def counting(keys, fn):
        def wrapper(*args, **kw):
            for key in keys:
                calls[key] += 1
            return fn(*args, **kw)
        return wrapper

    weight = oracle.CodeSearch.weight

    def counted_weight(self, r, *args, **kw):
        calls["distance" if r == 1 else "hierarchy"] += 1
        return weight(self, r, *args, **kw)

    least_support = oracle._least_support

    def counted_least_support(fld, rows, scaled, r, row, blocks):
        calls["listings"] += (oracle.gaussian_binomial(row + 1, r, fld.q)
                              - oracle.gaussian_binomial(row, r, fld.q))
        return least_support(fld, rows, scaled, r, row, blocks)

    monkeypatch.setattr(oracle.CodeSearch, "weight", counted_weight)
    monkeypatch.setattr(oracle, "_least_support", counted_least_support)
    rref = gf.rref
    for mod in [m for name, m in sys.modules.items()
                if name.split(".")[0] == "agb"
                and getattr(m, "rref", None) is rref]:
        keys = ["rref", "chain_passes"] if mod is evalcode else ["rref"]
        monkeypatch.setattr(mod, "rref", counting(keys, rref))
    return run_verification(table, **kwargs), calls


def test_gf9_run_searches_each_distinct_code_once(monkeypatch):
    # 20 records read true distances, but only 7 distinct row spaces exist,
    # all prefixes of the chain: the words of C_1..C_6 lie in C_7, so the
    # run lists the [7, 1]_9 = (9^7 - 1) / 8 monic words of C_7 alone.  The
    # one elimination is the chain pass, which also inverts the chain
    checks, calls = counted_run(monkeypatch, hermitian_table(3), max_dim=7)
    assert calls == {"distance": 7, "hierarchy": 0, "chain_passes": 1,
                     "rref": 1, "listings": (9 ** 7 - 1) // 8}
    assert calls["listings"] == 597_871
    assert all(c["ok"] for c in checks)


def test_gf4_ghw_run_searches_each_distinct_code_once(monkeypatch):
    # the GHW queries at r = 1 are the 8 chain codes the distance records
    # have queried already; each of the 13 at r >= 2 is a query of its own.
    # C_1..C_4 are listed directly, at r = 1..4 the [4, r]_4 = 85, 357, 85
    # and 1 subspaces of C_4; C_5..C_7 go through the Wei route, whose dual
    # chain lists the [3, s]_4 = 21, 21 and 1 subspaces of C_5⊥ once; C_8
    # has no dual to list
    checks, calls = counted_run(monkeypatch, hermitian_table(2), ghw_r=4)
    assert calls == {"distance": 8, "hierarchy": 13, "chain_passes": 1,
                     "rref": 1, "listings": 85 + 357 + 85 + 1 + 21 + 21 + 1}
    assert calls["listings"] == 571
    assert all(c["ok"] for c in checks)


def test_generic_bound_measures_only_the_checked_rows(monkeypatch):
    # d(C_1..C_7) are checked, so nu is read for the products of rows 1..7
    # with all 27 rows, not for all 27^2 of them
    measured = []
    levels = CodeChain._levels

    def counting(self, vectors):
        measured.append(vectors.size // self.n)
        return levels(self, vectors)

    monkeypatch.setattr(CodeChain, "_levels", counting)
    checks = run_verification(hermitian_table(3), max_dim=7)
    assert sum(measured) == 7 * 27
    assert [c for c in checks if c["name"].startswith("generic-")]


def test_q0_5_passes_every_record():
    checks = run_verification(hermitian_table(5), max_dim=3)
    assert checks and all(c["ok"] for c in checks)


def test_planted_improved_matrix_gets_its_own_search(monkeypatch):
    # the plant is an index set: chain rows 1 and 6, which span no chain code
    table = hermitian_table(2)
    honest = run_verification(table)
    real = bounds.improved_profile

    def planted(hs, delta):
        profile = real(hs, delta)
        return profile._replace(indices=(1, 6)) if delta == 6 else profile

    monkeypatch.setattr(bounds, "improved_profile", planted)
    checks, calls = counted_run(monkeypatch, table)
    assert calls["distance"] == 9   # the 8 chain codes and the plant
    by_name = {c["name"]: c for c in checks}
    bad = by_name.pop("improved-delta6")
    d_plant = oracle.min_distance(evalcode.chain_matrix(table)[[0, 5]])
    assert d_plant == 2
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
