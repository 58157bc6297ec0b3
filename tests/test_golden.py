"""``agb verify hermitian`` output, byte for byte, against committed files.

The files under ``tests/golden/`` pin the concrete layer end to end: measured
jump sets, chain bounds, isometry witnesses, the biorthogonal adjustment and
the exhaustive searches.  Regenerate one with, for example,
``agb verify hermitian --q0 2 --ghw 4 --json > tests/golden/q0_2_ghw_4.json``,
and only after checking why the output changed.
"""

from pathlib import Path

import pytest

from agb.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("q0_2_ghw_4.json", ["--q0", "2", "--ghw", "4", "--json"]),
    ("q0_3_max_dim_7.json", ["--q0", "3", "--max-dim", "7", "--json"]),
    ("q0_2.json", ["--q0", "2", "--json"]),
    ("q0_3_max_dim_3.txt", ["--q0", "3", "--max-dim", "3"]),
])
def test_verify_output_matches_golden_file(capsys, monkeypatch, name, argv):
    # the files hold the records of the default search budgets
    monkeypatch.delenv("AGB_BUDGET_CODEWORDS", raising=False)
    monkeypatch.delenv("AGB_BUDGET_SUBSPACES", raising=False)
    assert main(["verify", "hermitian", *argv]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
