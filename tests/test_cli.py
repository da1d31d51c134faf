import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from qmodular import cli


def _run_main(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- expand -------------------------------------------------------------------


def test_expand_delta_json():
    code, out = _run_main(["expand", "delta", "--order", "5"])
    assert code == 0
    obj = json.loads(out)
    assert obj["offset_num"] == 1 and obj["offset_den"] == 1
    assert obj["coeffs"] == [[1, 1], [-24, 1], [252, 1], [-1472, 1], [4830, 1]]


def test_expand_eta_single_term():
    code, out = _run_main(["expand", "eta", "--order", "1", "--format", "tsv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "1/24\t1"


def test_expand_e12_and_parametrized_objects():
    code, out = _run_main(["expand", "e12", "--order", "3"])
    assert json.loads(out)["coeffs"][0] == [691, 65520]
    code, out = _run_main(["expand", "theta-2", "--order", "4"])
    assert json.loads(out)["coeffs"][1] == [4, 1]
    code, out = _run_main(["expand", "euler--1", "--order", "6"])
    assert json.loads(out)["coeffs"][4] == [5, 1]
    code, out = _run_main(["expand", "mock-f", "--order", "3"])
    assert json.loads(out)["coeffs"][2] == [-2, 1]


def test_expand_unknown_object_exits_2():
    code, _ = _run_main(["expand", "bogus"])
    assert code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


# -- tables --------------------------------------------------------------------


def test_tables_rank_matches_table_module():
    code, out = _run_main(["tables", "rank", "--n-max", "4", "--format", "tsv"])
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
    assert ["2", "-1", "1"] in rows and ["2", "1", "1"] in rows
    assert ["4", "0", "1"] in rows


def test_tables_zeros_row_count():
    code, out = _run_main(["tables", "zeros", "--count", "10"])
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 11  # header + 10 rows
    assert lines[-1].split("\t")[2] == ""  # last row has no spacing yet
    first = lines[1].split("\t")
    assert abs(float(first[1]) - 14.134725) < 1e-4


def test_tables_spacings_count():
    code, out = _run_main(["tables", "spacings", "--count", "5", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)) == 4


def test_tables_shadow_circular_is_zero_column():
    code, out = _run_main(
        ["tables", "shadow", "--e", "1", "--f", "1", "--grid", "8"]
    )
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        theta, re, im = line.split("\t")
        assert float(re) == 0.0 and float(im) == 0.0


def test_tables_lvalues_json():
    code, out = _run_main(["tables", "lvalues", "--s-values", "6", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["s"] == 6.0
    assert abs(rows[0]["value"] - 0.0015448794) < 1e-9
    assert rows[0]["err"] < 1e-10


@pytest.mark.parametrize("s_values", ["13", "abc", "nan", "6,inf", ""])
def test_tables_lvalues_bad_s_values_exit_2(s_values, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tables", "lvalues", "--s-values", s_values])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--s-values" in captured.err


def test_tables_csv_format():
    code, out = _run_main(
        ["tables", "shadow", "--e", "1", "--f", "2", "--grid", "4", "--format", "csv"]
    )
    assert code == 0
    assert out.split("\n")[0] == "theta,re,im"


# -- determinism -----------------------------------------------------------------


def test_byte_identical_reruns():
    for argv in (
        ["expand", "delta", "--order", "8"],
        ["tables", "zeros", "--count", "5"],
        ["tables", "rank", "--n-max", "6", "--format", "json"],
    ):
        _, out1 = _run_main(argv)
        _, out2 = _run_main(argv)
        assert out1.encode() == out2.encode()


def test_out_file_written_with_lf(tmp_path):
    target = tmp_path / "series.json"
    code, _ = _run_main(["expand", "delta", "--order", "3", "--out", str(target)])
    assert code == 0
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert json.loads(raw)["order"] == 3


# -- verify (subprocess keeps the fault injection isolated) -------------------------


def test_verify_suite_exit_codes_subprocess():
    ok = subprocess.run(
        [sys.executable, "-m", "qmodular.cli", "verify", "theta"],
        capture_output=True,
        text=True,
    )
    assert ok.returncode == 0
    payload = json.loads(ok.stdout)
    assert payload["ok"] is True

    bad = subprocess.run(
        [
            sys.executable,
            "-m",
            "qmodular.cli",
            "verify",
            "tau",
            "--n-max",
            "60",
            "--inject-tau-fault",
        ],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 1
    payload = json.loads(bad.stdout)
    assert payload["ok"] is False


def test_verify_unknown_suite_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "qmodular.cli", "verify", "nonsense"],
        capture_output=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "hecke", "--order", "10"],
        ["verify", "rank", "--n-max", "10"],
        ["verify", "all", "--n-max", "20"],
    ],
)
def test_verify_small_bounds_pass(argv):
    # checks with their own default bounds must clamp them to the user's
    # --n-max / --order rather than read rows that were never built
    code, out = _run_main(argv)
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "hecke", "--order", "3"],
        ["verify", "rank", "--n-max", "3"],
    ],
)
def test_verify_bounds_that_compare_nothing_exit_2(argv, capsys):
    # T_2 needs two coefficients (order >= 4); the mod-5 check starts at n = 4
    code, out = _run_main(argv)
    assert code == 2
    assert out == ""
    assert "invalid arguments" in capsys.readouterr().err


def test_verify_hecke_clamps_eigenform_bound_to_half_the_order():
    code, out = _run_main(["verify", "hecke", "--order", "10"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    eigen = next(c for c in payload["checks"] if c["check"] == "hecke-eigenform")
    assert eigen["n_max"] == 5 and eigen["order"] == 10


def test_verify_lfunc_sees_injected_tau_fault():
    proc = subprocess.run(
        [sys.executable, "-m", "qmodular.cli", "verify", "lfunc", "--inject-tau-fault"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    checks = {c["check"]: c for c in json.loads(proc.stdout)["checks"]}
    assert checks["euler-product-vs-expansion"]["ok"] is False


# sha256 of `qmodular verify all` stdout at default bounds; any change to a
# check, its parameters or the JSON layout must update it deliberately.
VERIFY_ALL_SHA256 = "a678c908913cd995339e3197d7ee4d90ca6aeabdcaeea77cc1b8baca3239cc48"


def test_verify_all_stdout_digest_is_stable():
    proc = subprocess.run(
        [sys.executable, "-m", "qmodular.cli", "verify", "all"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_ALL_SHA256


def test_verify_threads_option_is_gone():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "all", "--threads", "2"])
    assert exc.value.code == 2
