import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agb.cli import _verify_json, main

SUZUKI_ARGS = ["--gens", "8,10,12,13", "--n", "64", "--mode", "equiv-divisor"]
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_clean_error_exit(argv, error_name, **env):
    """``agb <argv>`` in a child process exits 1 with the class name, no traceback."""
    child_env = {k: v for k, v in os.environ.items()
                 if not k.startswith("AGB_BUDGET_")}
    child_env.update(env)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "agb.cli", *argv],
                          env=child_env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"{error_name}: "), proc.stderr
    assert "Traceback" not in proc.stderr


def test_semigroup_trivial(capsys):
    code, out, _ = run(capsys, ["semigroup", "--gens", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 0
    assert payload["gaps"] == []
    assert payload["frobenius"] == -1
    assert payload["symmetric"] is True


def test_semigroup_suzuki_with_elements(capsys):
    code, out, _ = run(capsys, ["semigroup", "--gens", "8,10,12,13",
                                "--up-to", "30", "--json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["genus"] == 14
    assert payload["frobenius"] == 27
    assert payload["elements"][:6] == [0, 8, 10, 12, 13, 16]


def test_semigroup_text_and_json_agree(capsys):
    _, out_json, _ = run(capsys, ["semigroup", "--gens", "8,10,12,13", "--json"])
    payload = json.loads(out_json)
    _, out_text, _ = run(capsys, ["semigroup", "--gens", "8,10,12,13"])
    assert f"genus: {payload['genus']}" in out_text
    assert f"frobenius: {payload['frobenius']}" in out_text
    gaps_line = " ".join(str(g) for g in payload["gaps"])
    assert gaps_line in out_text


def test_hstar_length_too_small(capsys):
    code, _, err = run(capsys, ["hstar", "--gens", "2,3", "--n", "4",
                                "--mode", "isometry-dual"])
    assert code == 1
    assert "LengthTooSmall" in err


def test_hstar_domain_error_name_on_stderr(capsys):
    code, _, err = run(capsys, ["semigroup", "--gens", "4,6"])
    assert code == 1
    assert err.startswith("GcdNotOne")


def test_hstar_equiv_divisor(capsys):
    code, out, _ = run(capsys, ["hstar", "--gens", "2,3", "--n", "8",
                                "--mode", "equiv-divisor", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == [0, 2, 3, 4, 5, 6, 7, 9]
    assert payload["isometry_dual"] is True
    assert payload["pi"] == 8
    assert payload["mode"] == "equiv-divisor"


def test_hstar_explicit_file(capsys, tmp_path):
    f = tmp_path / "klein.json"
    members = [0, 3] + list(range(5, 24)) + [25, 28]
    f.write_text(json.dumps({"n": 23, "members": members}))
    code, out, _ = run(capsys, ["hstar", "--gens", "3,5,7",
                                "--mode", "explicit", "--file", str(f),
                                "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == members
    assert payload["isometry_dual"] is True


def test_hstar_abundance_file(capsys, tmp_path):
    f = tmp_path / "ab.json"
    f.write_text(json.dumps({"n": 8, "ell": [0] * 8 + [1, 1]}))
    code, out, _ = run(capsys, ["hstar", "--gens", "2,3",
                                "--mode", "abundance", "--file", str(f),
                                "--json"])
    assert code == 0
    assert json.loads(out)["members"] == [0, 2, 3, 4, 5, 6, 7, 9]


def test_bounds_suzuki_json(capsys):
    code, out, _ = run(capsys, ["bounds", *SUZUKI_ARGS, "--json"])
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert len(rows) == 64
    assert rows[0] == {"i": 1, "m_i": 0, "lambda_count": 64, "d_star": 64,
                       "goppa": 64, "d_ord": 64}
    assert [r["lambda_count"] for r in rows][:6] == [64, 56, 54, 52, 51, 48]
    assert rows[54]["d_star"] == 4
    # goppa column may go nonpositive past m = n; reported raw
    assert rows[-1]["goppa"] == 64 - 91


def test_bounds_text_agrees_with_json(capsys):
    _, out_json, _ = run(capsys, ["bounds", "--gens", "2,3", "--n", "8",
                                  "--mode", "equiv-divisor", "--json"])
    rows = json.loads(out_json)["rows"]
    _, out_text, _ = run(capsys, ["bounds", "--gens", "2,3", "--n", "8",
                                  "--mode", "equiv-divisor"])
    lines = [l for l in out_text.splitlines() if re.match(r"\s*\d", l)]
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        nums = [int(x) for x in re.findall(r"-?\d+", line)]
        assert nums == [row["i"], row["m_i"], row["lambda_count"],
                        row["d_star"], row["goppa"], row["d_ord"]]


def test_bounds_omits_d_ord_when_not_isometry_dual(capsys, tmp_path):
    f = tmp_path / "f16.json"
    from agb import NumericalSemigroup
    S = NumericalSemigroup.from_generators([14, 15, 22])
    members = [m for m in range(212) if S.contains(m)]
    members += [210 + l for l in S.gaps if l >= 2] + [225]
    f.write_text(json.dumps({"n": 212, "members": sorted(members)}))
    code, out, _ = run(capsys, ["bounds", "--gens", "14,15,22",
                                "--mode", "explicit", "--file", str(f),
                                "--json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 212
    assert all("d_ord" not in r for r in rows)
    assert rows[174]["d_star"] == 2


def test_ghw_command(capsys):
    code, out, _ = run(capsys, ["ghw", "--gens", "2,3", "--n", "8",
                                "--mode", "equiv-divisor",
                                "--r", "2", "--i", "4", "--json"])
    assert code == 0
    assert json.loads(out) == {"r": 2, "i": 4, "bound": 6}


def test_ghw_all_r_answers_every_r(capsys):
    # the r-subset search ran out its cap on most of these 64 values
    argv = ["ghw", *SUZUKI_ARGS, "--r", "all", "--i", "64"]
    code, out, _ = run(capsys, [*argv, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["i"] == 64
    # the r largest jump values form the smallest union of r sets at i = n
    assert payload["bounds"] == list(range(1, 65))
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.splitlines() == [f"{r}: {r}" for r in range(1, 65)]
    code, out, _ = run(capsys, ["ghw", *SUZUKI_ARGS, "--r", "all", "--i", "40",
                                "--json"])
    bounds = json.loads(out)["bounds"]
    assert len(bounds) == 40
    for r in (1, 2, 12):
        code, out, _ = run(capsys, ["ghw", *SUZUKI_ARGS, "--r", str(r),
                                    "--i", "40", "--json"])
        assert json.loads(out)["bound"] == bounds[r - 1]


def test_improved_command(capsys):
    code, out, _ = run(capsys, ["improved", *SUZUKI_ARGS,
                                "--delta", "4", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == 4
    assert payload["dimension"] == 58
    assert payload["monotone"] is True
    assert payload["indices"] == list(range(1, 59))


def test_curve_emits_table_and_matrix(capsys, tmp_path):
    table_file = tmp_path / "h2.json"
    matrix_file = tmp_path / "m5.json"
    code_, out, _ = run(capsys, ["curve", "hermitian", "--q0", "2",
                                 "--emit-table", str(table_file),
                                 "--m", "5", "--emit-matrix", str(matrix_file),
                                 "--json"])
    assert code_ == 0
    payload = json.loads(out)
    assert payload["n"] == 8 and payload["genus"] == 1
    assert payload["dimension"] == 5
    from agb import code, load_table
    table = load_table(table_file)
    assert table.n == 8
    matrix = json.loads(matrix_file.read_text())
    assert (matrix["rows"], matrix["cols"]) == (5, 8)
    assert matrix["data"] == code(table, 5).matrix.data.reshape(-1).tolist()


def test_curve_matrix_requires_m(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["curve", "hermitian", "--q0", "2",
              "--emit-matrix", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "8", "--mode", "equiv-divisor"])
    assert exc.value.code == 2


COMMANDS = ["semigroup", "hstar", "bounds", "ghw", "improved", "curve",
            "verify"]


@pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"]
                                                  for c in COMMANDS])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    if argv == ["--help"]:
        assert all(c in out for c in COMMANDS)
    else:
        assert out.startswith(f"usage: agb {argv[0]} ")


@pytest.mark.parametrize("argv", [[], ["bogus"], ["-x", "bounds"]])
def test_missing_or_unknown_command_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: agb [-h] ")


@pytest.mark.parametrize("argv", [
    ["semigroup", "--gens", "3,5"],
    ["hstar", "--gens", "3,4", "--n", "10", "--mode", "equiv-divisor"],
    ["bounds", "--gens", "3,4", "--n", "10", "--mode", "equiv-divisor"],
    ["ghw", "--gens", "3,4", "--n", "10", "--mode", "equiv-divisor",
     "--r", "2", "--i", "4"],
    ["improved", "--gens", "3,4", "--n", "10", "--mode", "isometry-dual",
     "--delta", "3"],
    ["curve", "hermitian", "--q0", "2"],
    ["verify", "hermitian", "--q0", "2", "--max-dim", "2"],
], ids=COMMANDS)
def test_a_command_builds_one_parser(capsys, monkeypatch, argv):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 0
    assert built == [f"agb {argv[0]}"]


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv",
                        ["agb", "semigroup", "--gens", "3,5", "--json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["genus"] == 4


# quotes, backslashes, control and non-ASCII characters, surrogates too
_TEXT = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f/é€\U0001d11e\ud800 az'))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_TEXT, st.booleans(), _TEXT)), st.booleans())
def test_verify_json_writer_matches_json_dumps(records, all_ok):
    # keys in the order run_verification writes them
    checks = [{"name": name, "ok": ok, "detail": detail}
              for name, ok, detail in records]
    payload = {"checks": checks, "all_ok": all_ok}
    assert _verify_json(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("command, extra", [("hstar", []),
                                            ("bounds", ["--json"])])
@pytest.mark.parametrize("mode", ["equiv-divisor", "isometry-dual"])
def test_file_in_a_computed_mode_is_usage_error(capsys, command, extra, mode):
    with pytest.raises(SystemExit) as exc:
        main([command, "--gens", "3,4", "--n", "10", "--mode", mode,
              "--file", "/nonexistent/x.json", *extra])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--file does not apply to mode {mode}" in err


def test_hstar_file_n_conflict_is_usage_error(capsys, tmp_path):
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"n": 8, "members": [0, 2, 3, 4, 5, 6, 7, 9]}))
    with pytest.raises(SystemExit) as exc:
        main(["hstar", "--gens", "2,3", "--n", "9",
              "--mode", "explicit", "--file", str(f)])
    assert exc.value.code == 2


def test_hstar_explicit_invalid_members_exit_1(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"n": 8, "members": [0, 1, 2, 3, 4, 5, 6, 7]}))
    code, _, err = run(capsys, ["hstar", "--gens", "2,3",
                                "--mode", "explicit", "--file", str(f)])
    assert code == 1
    assert err.startswith("NotSubsetOfH")


# int() would read 8.9 as 8, "8" as 8 and true as 1, so each is refused
@pytest.mark.parametrize("bad", [8.9, "8", True],
                         ids=["float", "numeric-string", "bool"])
@pytest.mark.parametrize("mode, key", [("explicit", "n"),
                                       ("explicit", "members"),
                                       ("abundance", "ell")])
def test_hstar_file_integer_fields_are_checked_not_cast(capsys, tmp_path,
                                                        mode, key, bad):
    obj = ({"n": 8, "members": [0, 2, 3, 4, 5, 6, 7, 9]} if mode == "explicit"
           else {"n": 8, "ell": [0] * 8 + [1, 1]})
    if key == "n":
        obj["n"] = bad
    else:
        obj[key][-1] = bad
    f = tmp_path / "in.json"
    f.write_text(json.dumps(obj))
    code, _, err = run(capsys, ["hstar", "--gens", "2,3",
                                "--mode", mode, "--file", str(f)])
    assert code == 1
    assert err.startswith("SchemaError: ")


def test_ghw_node_cap_exit_1(capsys):
    code, _, err = run(capsys, ["ghw", "--gens", "8,10,12,13", "--n", "64",
                                "--mode", "equiv-divisor",
                                "--r", "12", "--i", "40", "--node-cap", "50"])
    assert code == 1
    assert err.startswith("EnumerationCapExceeded")


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("r", ["2", "all"])
def test_ghw_node_cap_below_one_exit_1(capsys, cap, r):
    code, out, err = run(capsys, ["ghw", "--gens", "2,3", "--n", "8",
                                  "--mode", "equiv-divisor", "--r", r,
                                  "--i", "4", "--node-cap", cap])
    assert (code, out) == (1, "")
    assert err == f"UnsupportedParameter: node_cap must be at least 1, got {cap}\n"


def test_verify_hermitian_2(capsys):
    code, out, _ = run(capsys, ["verify", "hermitian", "--q0", "2",
                                "--ghw", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "hstar-matches-construction" in names
    assert "isometry-witness" in names
    assert any(n.startswith("ghw-") for n in names)
    assert any(n.startswith("improved-") for n in names)


def test_verify_hermitian_4_passes_every_record(capsys):
    code, out, _ = run(capsys, ["verify", "hermitian", "--q0", "4",
                                "--max-dim", "6", "--json"])
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 51
    assert all(c["ok"] for c in checks)
    names = [c["name"] for c in checks]
    assert "isometry-witness" in names
    assert "biorthogonal-adjust" in names


@pytest.mark.parametrize("flags", [["--max-dim", "-3"], ["--max-dim", "0"],
                                   ["--ghw", "0"], ["--ghw", "-2"]])
def test_verify_nonpositive_cap_exit_1(capsys, flags):
    code, out, err = run(capsys, ["verify", "hermitian", "--q0", "2", *flags])
    assert (code, out) == (1, "")
    assert err.startswith("UnsupportedParameter: ")


def test_verify_text_mode(capsys):
    code, out, _ = run(capsys, ["verify", "hermitian", "--q0", "2"])
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_hstar_malformed_file_exit_1(capsys, tmp_path):
    f = tmp_path / "broken.json"
    f.write_text(json.dumps({"n": 8}))
    code, _, err = run(capsys, ["hstar", "--gens", "2,3",
                                "--mode", "explicit", "--file", str(f)])
    assert code == 1
    assert err.startswith("SchemaError")


def test_hstar_json_output_feeds_back_as_explicit_input(capsys, tmp_path):
    _, out, _ = run(capsys, ["hstar", "--gens", "3,5,7", "--n", "23",
                             "--mode", "isometry-dual", "--json"])
    f = tmp_path / "roundtrip.json"
    f.write_text(out)
    code, out2, _ = run(capsys, ["hstar", "--gens", "3,5,7",
                                 "--mode", "explicit", "--file", str(f),
                                 "--json"])
    assert code == 0
    assert json.loads(out2)["members"] == json.loads(out)["members"]


def test_missing_input_file_exit_1(tmp_path):
    assert_clean_error_exit(["hstar", "--gens", "3,5,7", "--mode", "explicit",
                             "--file", str(tmp_path / "absent.json")],
                            "UnreadableFile")


@pytest.mark.parametrize("var, value", [("AGB_BUDGET_SUBSPACES", "abc"),
                                        ("AGB_BUDGET_SUBSPACES", "1e6")])
def test_non_integer_budget_setting_exit_1(var, value):
    assert_clean_error_exit(["verify", "hermitian", "--q0", "2"],
                            "InvalidSearchBudget", **{var: value})


def test_nonpositive_generator_exit_1():
    assert_clean_error_exit(["semigroup", "--gens", "0,3"],
                            "NonPositiveGenerator")


@pytest.mark.parametrize("gens", ["10007,10009", "1000003,1000033"])
def test_desk_scale_guard_exit_1(gens):
    assert_clean_error_exit(["semigroup", "--gens", gens], "BeyondDeskScale")


@pytest.mark.parametrize("argv", [
    ["semigroup", "--gens", "3,5", "--up-to", "100000000000"],
    ["hstar", "--gens", "2,3", "--n", "100000000000", "--mode", "equiv-divisor"],
    ["hstar", "--gens", "2,3", "--n", "100000000000", "--mode", "isometry-dual"],
])
def test_listing_past_desk_scale_exit_1(argv):
    assert_clean_error_exit(argv, "BeyondDeskScale")


@pytest.mark.parametrize("flags", [["--emit-table"], ["--m", "3", "--emit-matrix"]])
def test_emit_into_missing_directory_exit_1(flags, tmp_path):
    target = str(tmp_path / "no" / "such" / "dir" / "out.json")
    assert_clean_error_exit(["curve", "hermitian", "--q0", "2", *flags, target],
                            "UnwritableFile")


def test_deep_ghw_search_hits_node_cap_not_recursion_limit():
    # a query this deep ends at the node cap, not in a RecursionError
    assert_clean_error_exit(["ghw", "--gens", "16,17", "--n", "4096",
                             "--mode", "equiv-divisor", "--r", "1500",
                             "--i", "1600", "--node-cap", "10000"],
                            "EnumerationCapExceeded")


def test_ghw_node_cap_bounds_the_sweep_memory(capsys):
    # the cap is checked before each block of ideals is allocated, so the
    # rows kept stay within it: tracemalloc sees numpy's buffers too
    tracemalloc.start()
    try:
        code, _, err = run(capsys, ["ghw", "--gens", "16,17", "--n", "4096",
                                    "--mode", "equiv-divisor", "--r", "1500",
                                    "--i", "1600", "--node-cap", "10000"])
        peak_mib = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err.startswith("EnumerationCapExceeded: ")
    assert peak_mib < 64


def test_reader_closing_stdout_early_exits_cleanly():
    # 32768 rows of JSON overflow any pipe buffer, so the writer meets the
    # closed pipe while it is still printing
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen(
            [sys.executable, "-m", "agb.cli", "bounds", "--gens", "32,33",
             "--n", "32768", "--mode", "equiv-divisor", "--json"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        rc = proc.wait(timeout=120)
    assert first == "{\n"
    assert rc != 0
    assert "Traceback" not in err, err
    assert "Exception ignored" not in err, err


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a /dev/full device")
@pytest.mark.parametrize("argv", [
    ["semigroup", "--gens", "3,5", "--json"],
    # about 280 kB, so the chunked writer itself meets the full device
    ["bounds", "--gens", "3,5", "--n", "2048", "--mode", "equiv-divisor",
     "--json"],
], ids=["emit", "bounds-chunks"])
def test_failed_stdout_write_exits_1_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "agb.cli", *argv],
                              env=env, stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("OSError: "), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert "Exception ignored" not in proc.stderr, proc.stderr
