"""``agb verify hermitian`` and ``agb bounds`` output, byte for byte.

The files under ``tests/golden/`` pin the concrete layer end to end: measured
jump sets, chain bounds, isometry witnesses, the biorthogonal adjustment and
the exhaustive searches, and the bound tables in both output formats.
Regenerate one with, for example,
``agb verify hermitian --q0 2 --ghw 4 --json > tests/golden/q0_2_ghw_4.json``,
and only after checking why the output changed.
"""

import json
from pathlib import Path

import pytest

from agb import HStar, NumericalSemigroup
from agb.bounds import bound_table
from agb.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("q0_2_ghw_4.json", ["--q0", "2", "--ghw", "4", "--json"]),
    ("q0_3_max_dim_7.json", ["--q0", "3", "--max-dim", "7", "--json"]),
    ("q0_2.json", ["--q0", "2", "--json"]),
    ("q0_3_max_dim_3.txt", ["--q0", "3", "--max-dim", "3"]),
    # the default budget's record sets at GF(9) and GF(16)
    ("q0_3.json", ["--q0", "3", "--json"]),
    ("q0_4.json", ["--q0", "4", "--json"]),
])
def test_verify_output_matches_golden_file(capsys, monkeypatch, name, argv):
    # the files hold the records of the default search budget
    monkeypatch.delenv("AGB_BUDGET_SUBSPACES", raising=False)
    assert main(["verify", "hermitian", *argv]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name, argv", [
    ("bounds_suzuki_64_isometry_dual.json",
     ["--gens", "8,10,12,13", "--n", "64", "--mode", "isometry-dual",
      "--json"]),
    ("bounds_suzuki_64_isometry_dual.txt",
     ["--gens", "8,10,12,13", "--n", "64", "--mode", "isometry-dual"]),
    # not isometry-dual, so no row has d_ord
    ("bounds_5_7_9_2047_equiv_divisor.json",
     ["--gens", "5,7,9", "--n", "2047", "--mode", "equiv-divisor", "--json"]),
])
def test_bounds_output_matches_golden_file(capsys, name, argv):
    assert main(["bounds", *argv]) == 0
    assert_same_text(capsys.readouterr().out,
                     (GOLDEN / name).read_bytes().decode())


def assert_same_text(got, want):
    """got == want, failing on the first line that differs: a plain assert
    on two texts of a megabyte would have pytest diff them whole."""
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    for k, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        assert g == w, f"line {k} differs"
    assert len(got_lines) == len(want_lines)


def _bounds_outputs(hs):
    """What ``agb bounds`` prints for hs, from the library's columns: the JSON
    through ``json.dumps(indent=2)``, the text through per-field f-strings."""
    iso = hs.is_isometry_dual()
    rows, lines = [], [f"{'i':>4} {'m_i':>5} {'lambda':>7} {'d_star':>7} "
                       f"{'goppa':>6}" + (f" {'d_ord':>6}" if iso else "")]
    table = bound_table(hs)
    for k in range(hs.n):
        item = {"i": k + 1, "m_i": table.m[k],
                "lambda_count": table.lambda_count[k],
                "d_star": table.d_star[k], "goppa": table.goppa[k]}
        if iso:
            item["d_ord"] = table.d_ord[k]
        rows.append(item)
        lines.append(" ".join(f"{v:>{w}}" for v, w in
                              zip(item.values(), (4, 5, 7, 7, 6, 6))))
    payload = {"n": hs.n, "mode": hs.mode.value, "rows": rows}
    return json.dumps(payload, indent=2) + "\n", "\n".join(lines) + "\n"


def _assert_bounds_bytes(capsys, gens, n, mode):
    build = {"equiv-divisor": HStar.from_equiv_divisor,
             "isometry-dual": HStar.from_isometry_dual}[mode]
    want_json, want_text = _bounds_outputs(
        build(NumericalSemigroup.from_generators(gens), n))
    argv = ["bounds", "--gens", ",".join(map(str, gens)), "--n", str(n),
            "--mode", mode]
    assert main([*argv, "--json"]) == 0
    assert_same_text(capsys.readouterr().out, want_json)
    assert main(argv) == 0
    assert_same_text(capsys.readouterr().out, want_text)


@pytest.mark.parametrize("mode", ["equiv-divisor", "isometry-dual"])
def test_bounds_output_equals_json_dumps_on_small_family(capsys, small_family,
                                                        mode):
    for S in small_family:
        # in equiv-divisor mode H* is isometry-dual at some of these lengths
        # and not at others, so rows with and without d_ord both occur
        for n in (2 * S.genus + 3, 2 * S.genus + 8):
            _assert_bounds_bytes(capsys, S.generators, n, mode)


@pytest.mark.parametrize("mode", ["equiv-divisor", "isometry-dual"])
def test_bounds_output_equals_json_dumps_on_hermitian_8192(capsys, mode):
    _assert_bounds_bytes(capsys, (32, 33), 8192, mode)
