import functools
import hashlib
import io
import json
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

from qmodular import cli, lseries, verify
from qmodular import qseries as qs


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


def test_expand_euler_large_exponents_are_fast_and_mutually_inverse():
    series = {}
    for e in (-5000, 5000):
        start = time.perf_counter()
        code, out = _run_main(["expand", f"euler-{e}", "--order", "300"])
        assert code == 0
        assert time.perf_counter() - start < 10.0
        series[e] = qs.from_json_obj(json.loads(out))
    assert qs.mul(series[-5000], series[5000]) == qs.one(300)


# sha256 of `qmodular expand NAME --order N` stdout, recorded from the
# factor-by-factor euler_product and the repeated-squaring pow before the
# power kernel replaced both, (mock-f) from the sparse-factor expansion of
# f(q) before the in-place fold replaced it, and (the other order-2000 rows)
# from the per-term power kernel before its sums ran over C-level windows;
# every byte must stay the same.
EXPAND_SHA256 = {
    ("delta", 1): "fb29302673bb0a354d2d1bef59d097127b53e1e5b192bc7cca3df5ce1046e163",
    ("delta", 2): "fcb9b866351cf1e21803172463e2bba226b2173d0359340be40fcf544d385e25",
    ("delta", 50): "8450b31d64547023ffb89b8abb813753e21cad625e18f812b4dd7eee6e72fc7b",
    ("delta", 2000): "d0915dcbb8cf1640b7210b8c4d57c54556af7d4a2a975b85743c7dc90b94b930",
    ("eta", 1): "51023f9b690b70c4147282598f5d1b363a26623837c34b2ec9217871e56441ed",
    ("eta", 2): "92c20836805ab69d0aa67dc26615b3ae95d0bba98f77f44c6e9082506d6d0816",
    ("eta", 50): "4b1ce20fe3ac7c0dc1a1f1e04bb2e60b2801a119a8e0104059f2f0eb71c7c39b",
    ("euler--24", 1): "6bbb5f55e5762fc76a163813e3177b7d87a6b935e32da1788d38170262bf0f54",
    ("euler--24", 2): "d2a09e99457050bcf4b6fab70c1406450a223606117138417de558e35063a9ea",
    ("euler--24", 50): "d7d0c8b9d972e6c1502f8745cda42fdb51ec4f15e4fab27bb2a688cccf64d8b1",
    ("euler--1", 1): "6bbb5f55e5762fc76a163813e3177b7d87a6b935e32da1788d38170262bf0f54",
    ("euler--1", 2): "6542a5a8e5eebab4a11e5970041b969ea878bdf1b5e03a79461a9d26abd3a7a3",
    ("euler--1", 50): "b265c741dc8c88f773cea41a0fdaa339fbb9535afad7ea6e8db03b836b3d1b65",
    ("euler--1", 2000): "27d28f6c90fa7d94f6198c72472467f482216f66cc12fe04c9292e4442c1e42a",
    ("euler-1", 1): "6bbb5f55e5762fc76a163813e3177b7d87a6b935e32da1788d38170262bf0f54",
    ("euler-1", 2): "1f95e31ec3b51087ced364c37a8d9136c1a338fc91fced60bf7d877e0b1c13a0",
    ("euler-1", 50): "bd58e2225d230ff21f0c0c739b8c3592958655f8942d730bb9c1ec49ca13637d",
    ("euler-3", 1): "6bbb5f55e5762fc76a163813e3177b7d87a6b935e32da1788d38170262bf0f54",
    ("euler-3", 2): "2dca3d14cbdbce06290626704afbaec6c49552ac24391880bba43b2a41718911",
    ("euler-3", 50): "dc01143f31b531bf3c8ccded9736cf27e4621245bbd36b8d87e826fbc881a76a",
    ("euler-24", 1): "6bbb5f55e5762fc76a163813e3177b7d87a6b935e32da1788d38170262bf0f54",
    ("euler-24", 2): "8153ff4669a421847c1d93ba7e3e6de647753d8965e51335edfcdbbd9c902b57",
    ("euler-24", 50): "1b691b42966c8310bdce2d731b26416db1becfd33d45982f676d4b819cd54739",
    ("euler-24", 2000): "4ca4aaca1add40e95ce7534def481b97694a07d9985bdba6287cf1d1abba3bed",
    ("theta-1", 1): "6bbb5f55e5762fc76a163813e3177b7d87a6b935e32da1788d38170262bf0f54",
    ("theta-1", 2): "618a623fee89f81b005c54bc0627f2f3039870951b33a8a7ff805f61d9555154",
    ("theta-1", 50): "3482fc5de1b380edac432c783b15e4bea72c287537861c09a258254878eb2589",
    ("theta-2", 1): "6bbb5f55e5762fc76a163813e3177b7d87a6b935e32da1788d38170262bf0f54",
    ("theta-2", 2): "018a757753f486fe5632d8d539c5cf619097230ea570b52e9dd55a947d59ec79",
    ("theta-2", 50): "9b20e19ae7c10368e813c9a12c9a1330ff71ae5ccff8f29c8a05030352d36f6a",
    ("theta-3", 1): "6bbb5f55e5762fc76a163813e3177b7d87a6b935e32da1788d38170262bf0f54",
    ("theta-3", 2): "fbaa96687c77ebff1a690e1caa08a0fae66b0ca7a0b61cb619465c6b51b533f6",
    ("theta-3", 50): "aae3088874edc3538fe100ae20cbe72ef23fb71d4ed98063412e2f541ad63d51",
    ("theta-4", 1): "6bbb5f55e5762fc76a163813e3177b7d87a6b935e32da1788d38170262bf0f54",
    ("theta-4", 2): "19a2ec8d4d6495edf707568966755bcd650c43a2d49e4e2f023c119909d94f2d",
    ("theta-4", 50): "2542e178b814b400c4ce651c9f1de5f93ec9e3a896d65807abf735a4ef47a16b",
    ("mock-f", 1): "6bbb5f55e5762fc76a163813e3177b7d87a6b935e32da1788d38170262bf0f54",
    ("mock-f", 2): "6542a5a8e5eebab4a11e5970041b969ea878bdf1b5e03a79461a9d26abd3a7a3",
    ("mock-f", 50): "a8be07de090f5057a395d4dd32cacb492316cfbd5e484b33af888580cd6aead0",
    ("mock-f", 2000): "f5f1174673da251bc4cdc2730349321cf50c156dd329d59109101002386aa152",
}


@pytest.mark.parametrize("name,order", list(EXPAND_SHA256))
def test_expand_output_digest_is_stable(name, order):
    code, out = _run_main(["expand", name, "--order", str(order)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPAND_SHA256[name, order]


# sha256 of `qmodular expand NAME --order 50 --format tsv` stdout, recorded
# while expand had a tsv writer of its own, before it shared the tables
# writer; every byte must stay the same.
EXPAND_TSV_SHA256 = {
    "delta": "0ba32b19b46e3393f3425f2be328a7ee41db80b7b44db943fe575a8cb6366d57",
    "eta": "4f1043eea991f0029faba9a8d5bc5da68e4ba14aeeea35ea7f58436734ff45af",
    "euler--24": "abe2603b4bbdbe6bd3821bfd428e4feaaad1dec624432249125a22d46bdb185b",
    "euler--1": "85343e6b90e5cdc735af463954ee3a8bc1f3a25c718f93f87af42d4fa1f1966b",
    "euler-1": "7a9bf77170c6677f2fb9ee1e872a42ef6571b4a54c311cf02298380d45ebb659",
    "euler-3": "40fd3b48350c7ee718ad57b6efc57797fcee79835620bcc04d02252782ffa254",
    "euler-24": "5a24981f401c84581586cf19e57415b530d9b544549aa7c14ef9a0edf92456ff",
    "theta-1": "bd58dbe5febd524854d4ca3d5b806e7285f8d83a768d4f963f6b7fa0c578293d",
    "theta-2": "fb262ff13ca5d3e3e0bf2e25f823ba06de19a61ad16e442bb855b5d2121c0716",
    "theta-3": "b4c74e249897b70c97575e797aca15138f94a2094c284e78f6ad14b9cc41eeb1",
    "theta-4": "92d9067c3933ab2e2dbfa118c9b79c7e52846918ff0e27433bb772ee4c940030",
    "mock-f": "d859ce0c6113c88543aa1c41c22984ea615d19fd4f54bccf4036e15f414c0f44",
}


@pytest.mark.parametrize("name", list(EXPAND_TSV_SHA256))
def test_expand_tsv_output_digest_is_stable(name):
    code, out = _run_main(["expand", name, "--order", "50", "--format", "tsv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPAND_TSV_SHA256[name]


def test_expand_unknown_object_exits_2(capsys):
    # int() would take each of the last four: an underscore, a sign, a space
    # and an Arabic-Indic digit
    for name in ("bogus", "theta-x", "euler-", "theta-1_0", "euler-+3", "theta- 2", "theta-\u0663"):
        code, out = _run_main(["expand", name])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("invalid arguments:")
        assert repr(name) in err


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


def test_tables_lvalues_error_bar_is_informative():
    # the cut-off tail bound once dominated err at about 4.4e-16; the true
    # error at s = 6 is far below 1e-16
    code, out = _run_main(["tables", "lvalues", "--s-values", "6", "--format", "json"])
    assert code == 0
    assert json.loads(out)[0]["err"] < 1e-16


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


# sha256 of `qmodular tables TABLE [ARGS] --format FMT` stdout, recorded
# before coefficients were stored as ints where integral; every byte must
# stay the same.  The `--n-max 120` rank table was recorded before
# rank_table moved to dense rows, and the `lvalues` tables when Lambda
# became one tanh-sinh pass over the folded integral on [1, 12].
_RANK_ARGS = ("--n-max", "40")
_SHADOW_ARGS = ("--e", "0.5", "--grid", "8")
TABLES_SHA256 = {
    ("rank", (), "tsv"): "2fcdcce82e8ed4f2b41163f1ddcd76be7101b1d19edad46d83d1c982dd07c0b9",
    ("rank", (), "json"): "0f939f7ee216b743a93721fb7a609341e411c0f89e9bdd683a00461f64140b71",
    ("rank", (), "csv"): "26eda493e4040258c9e9fecf5f1954f19ecc86ad82a12c36f9a06a73e55a8cfa",
    ("rank", _RANK_ARGS, "tsv"): "bc93e96fbe302bca9b8fb225871e1a64aea21da84fdf7ed414c3c224e75cc87a",
    ("rank", _RANK_ARGS, "json"): "b18e5b23863db21017228b805b7fb205115601c055154d5f32406ba48edf9982",
    ("rank", _RANK_ARGS, "csv"): "db3bebb9d6e34cb8733ed0c054150cc59d727e42ac99b4bbae59d9bd6a91f373",
    ("zeros", (), "tsv"): "8466cf5f2174f5a822863137fc645474cdeabd2943e3540fcef0ea6562b2c704",
    ("zeros", (), "json"): "b44b050946f555ccd48df4c82a78b1d1878852760360d87524b70f9b5c4e9ddc",
    ("zeros", (), "csv"): "bdc785b05c438729cdbb4391deef271d0c2d3019dbbd969fc6c70f31d8fe3ee6",
    ("spacings", (), "tsv"): "5e59f519746fde0a11e64c515d0b280f5b39a28cbadb9dd56265681e143ed514",
    ("spacings", (), "json"): "e94fb3eb375e813cad093caa89a1c468fee2da9fec193a5f6c278df3f28cd0a4",
    ("spacings", (), "csv"): "f34e65cbf2306ecfde960131d695cb355f3142ee9057d1a2d3f3d03a2cc51037",
    ("shadow", (), "tsv"): "52f814fa8c443c7140ed511bae089ffe36254238de5df472db288edc1c74d246",
    ("shadow", (), "json"): "b1f4ca5ec469fabbe37f649b28796308f665133c330a6d52d52786d93a8163e5",
    ("shadow", (), "csv"): "2526ad678c048bf8822749184f80b8f71e845e2eb6f742199dfa082e77f16193",
    ("shadow", _SHADOW_ARGS, "tsv"): "4c9b24c8fe482e9bd30868363ed25bdb8acfecf79648e25acade06703958e556",
    ("shadow", _SHADOW_ARGS, "json"): "01be4906d313ea832daefe13afb576e99513d4de53ee78d600cdc71213c5deea",
    ("shadow", _SHADOW_ARGS, "csv"): "80e5767db26a258663a510fb9fb6118e2c42f5f6146f98019d3d930fc5f3daae",
    ("rank", ("--n-max", "120"), "json"): "5969f20c143da80f0826ae0e32fe34ad4f8e22001b9ad8623532b1f25686b3c7",
    ("lvalues", (), "tsv"): "40123dbabd572281148974693b96215b4c58a05bfca338fc18b786cb04dc8771",
    ("lvalues", (), "json"): "05ae86a54c7e02aab1707e0dccff0801ea1cbea6a83bbe998b82f99c74ebae27",
    ("lvalues", (), "csv"): "2a7ec7c18cf29382813eae2bc71a506779e9facfe35e89706d53f067ffd31229",
    # count 50 reads zeta up to t ~ 143, past every ordinate count 10 reaches
    ("zeros", ("--count", "50"), "tsv"): "07d05444cbb58554ec565d41b3eecd7412c63efc63cb53fbe28e40b9d8abba66",
    ("spacings", ("--count", "50"), "tsv"): "2de81e6fadc5cec058e51a3045dbeec202745dbca66467c2473aae3fba2ba99a",
    # n-max 400 needs 10-byte slots: the two-word path of _unpack_slots
    ("rank", ("--n-max", "400"), "json"): "39193387cf31589689ecfe44f1985498f7f194bdc02c95931b25e0c2ae00ed03",
}


@pytest.mark.parametrize("table,args,fmt", list(TABLES_SHA256))
def test_tables_output_digest_is_stable(table, args, fmt):
    code, out = _run_main(["tables", table, *args, "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES_SHA256[table, args, fmt]


def test_tables_json_formats_no_text_cells(monkeypatch):
    def no_text(v):
        raise AssertionError("a JSON table built a text cell")

    monkeypatch.setattr(cli, "_cell", no_text)
    code, out = _run_main(["tables", "rank", "--n-max", "6", "--format", "json"])
    assert code == 0
    assert json.loads(out)[0] == {"n": 1, "m": 0, "count": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ["tables", "zeros", "--count", "60"],
        ["tables", "spacings", "--count", "60"],
        ["tables", "shadow", "--grid", "2"],
        ["tables", "shadow", "--e", "-1"],
        ["tables", "shadow", "--r-d", "0"],
        ["tables", "shadow", "--r-d", "inf"],
        ["tables", "shadow", "--e", "inf"],
        ["tables", "shadow", "--f", "inf"],
        # 1e-10 of a subnormal radius rounds to 0.0, which no residual is below
        ["tables", "shadow", "--r-d", "1e-320"],
        ["tables", "shadow", "--r-d", "5e-324", "--e", "2"],
        ["tables", "shadow", "--r-d", "1e-300", "--e", "1e15"],  # subnormal r_ref
    ],
)
def test_tables_out_of_range_arguments_exit_2(argv, capsys):
    code, out = _run_main(argv)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert "invalid arguments" in err
    assert "nan" not in err  # the message names the bad input, not a derived r_ref


def test_tables_shadow_with_an_underflowing_axis_ratio():
    # b / a = 1e-400 underflows to 0.0; the perimeter is then its b -> 0 limit 4a
    code, out = _run_main(["tables", "shadow", "--e", "1e-200", "--f", "1e200"])
    assert code == 0
    assert out == _run_main(["tables", "shadow", "--e", "1e-300", "--f", "1e300"])[1]


def test_tables_lost_bracketing_exits_1(monkeypatch, capsys):
    def lost(count):
        raise lseries.BracketingError("missed sign changes")

    monkeypatch.setattr(lseries, "zeta_zero_spacings", lost)
    code, out = _run_main(["tables", "zeros"])
    assert code == 1
    assert out == ""
    assert "table generation failed" in capsys.readouterr().err


def test_verify_lost_bracketing_exits_1(monkeypatch, capsys):
    def lost(count):
        raise lseries.BracketingError("missed sign changes")

    monkeypatch.setattr(lseries, "zeta_zero_spacings", lost)
    code, out = _run_main(["verify", "lfunc"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == "verification failed: missed sign changes\n"


def test_tables_other_runtime_errors_propagate(monkeypatch):
    # only a lost bracketing is a table failure; any other RuntimeError is a bug
    def broken(count):
        raise RuntimeError("not a bracketing failure")

    monkeypatch.setattr(lseries, "zeta_zero_spacings", broken)
    with pytest.raises(RuntimeError, match="not a bracketing failure"):
        _run_main(["tables", "zeros"])


@pytest.mark.parametrize(
    "argv",
    [
        # a flag that another kind owns
        ["tables", "shadow", "--n", "7"],
        ["tables", "rank", "--e", "2"],
        ["tables", "zeros", "--s-values", "3"],
        ["tables", "lvalues", "--grid", "9"],
        ["tables", "spacings", "--n-max", "4"],
        # a flag that another suite takes
        ["verify", "theta", "--n-max", "1"],
        ["verify", "geometry", "--order", "3"],
        ["verify", "lfunc", "--n-max", "5"],
        # an abbreviated flag
        ["verify", "tau", "--n-m", "5"],
        ["expand", "delta", "--ord", "3"],
        ["tables", "rank", "--n", "4"],
        ["tables", "shadow", "--gr", "8"],
    ],
    ids=" ".join,
)
def test_foreign_or_abbreviated_flag_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    # the parser of the command that got the flag reports it with its own usage
    command = " ".join(argv[:1] if argv[0] == "expand" else argv[:2])
    assert err.startswith(f"usage: qmodular {command} [-h]")
    assert f"qmodular {command}: error: unrecognized arguments: {' '.join(argv[-2:])}" in err


@pytest.mark.parametrize(
    "kind,flags",
    [
        ("rank", ["--n-max"]),
        ("zeros", ["--count"]),
        ("spacings", ["--count"]),
        ("lvalues", ["--s-values"]),
        ("shadow", ["--r-d", "--e", "--f", "--grid"]),
    ],
)
def test_tables_help_lists_only_the_kinds_flags(kind, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tables", kind, "--help"])
    assert exc.value.code == 0
    listed = re.findall(r"(?m)^  (-[\w-]+)", capsys.readouterr().out)
    assert listed == ["-h", "--format", "--out", *flags]


@pytest.mark.parametrize(
    "suite,flags",
    [
        ("tau", ["--n-max"]),
        ("hecke", ["--order"]),
        ("rank", ["--n-max"]),
        ("theta", ["--order"]),
        ("lfunc", ["--count"]),
        ("geometry", []),
        ("all", ["--n-max", "--order", "--count"]),
    ],
)
def test_verify_help_lists_only_the_suites_flags(suite, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", suite, "--help"])
    assert exc.value.code == 0
    listed = re.findall(r"(?m)^  (-[\w-]+)", capsys.readouterr().out)
    assert listed == ["-h", "--out", *flags]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "delta", "--order", "3"],
        ["verify", "theta"],
        ["tables", "rank", "--n-max", "4"],
    ],
)
@pytest.mark.parametrize("where", ["missing/out.txt", "."])
def test_unwritable_out_path_exits_2(argv, where, tmp_path, capsys):
    # a missing directory or a directory raised a traceback and exited 1,
    # which for `verify` read as a failed verification
    target = str(tmp_path / where)
    code, out = _run_main([*argv, "--out", target])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert "invalid arguments" in err and target in err


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "delta", "--order", "0"],
        ["verify", "tau", "--n-max", "0"],
        ["verify", "lfunc", "--count", "0"],
        ["tables", "rank", "--n-max", "0"],
        ["tables", "zeros", "--count", "-1"],
    ],
)
def test_nonpositive_bounds_exit_2(argv, capsys):
    code, out = _run_main(argv)
    assert code == 2
    assert out == ""
    assert "must be positive" in capsys.readouterr().err


def test_bound_too_large_to_allocate_exits_2(capsys):
    # no list holds 10^20 coefficients; exit 1 stays for a failed verification
    code, out = _run_main(["expand", "eta", "--order", str(10**20)])
    assert code == 2
    assert out == ""
    assert "invalid arguments: a bound is too large" in capsys.readouterr().err


def test_shadow_grid_too_large_to_allocate_exits_2(capsys):
    # the sample list is allocated before the first sample is computed
    code, out = _run_main(["tables", "shadow", "--grid", str(10**20)])
    assert code == 2
    assert out == ""
    assert "invalid arguments: a bound is too large" in capsys.readouterr().err


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


def test_verify_says_how_many_violations_it_cut():
    proc = subprocess.run(
        [sys.executable, "-m", "qmodular.cli", "verify", "tau", "--inject-tau-fault"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    checks = {c["check"]: c for c in json.loads(proc.stdout)["checks"]}
    assert len(checks["tau-properties"]["violations"]) == 20
    # the fault (tau(2) + 1) shows at n = 2 in the E12 check, the one mod-691 check left
    assert checks["e12-delta-mod-691"]["violations"] == ["tau vs sigma11 mod 691 differ at n=2"]
    assert proc.stderr == "verify tau: tau-properties: 20 of 506 violations shown\n"


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
        ["verify", "theta", "--order", "1"],
    ],
)
def test_verify_bounds_that_compare_nothing_exit_2(argv, capsys):
    # T_2 needs two coefficients (order >= 4); the mod-5 check starts at n = 4;
    # theta order 1 holds only the constant term 1 = 1 * 1
    code, out = _run_main(argv)
    assert code == 2
    assert out == ""
    assert "invalid arguments" in capsys.readouterr().err


def test_verify_all_gives_each_flag_to_the_suites_that_take_it():
    code, out = _run_main(["verify", "all", "--count", "5", "--order", "30"])
    assert code == 0
    params = {c["check"]: c for c in json.loads(out)["checks"]}
    assert params["zeta-zero-spacings"]["count"] == 5
    assert params["hecke-eigenform"]["order"] == 30
    assert params["theta-multiplicativity"]["order"] == 30


def test_verify_all_passes_each_suite_only_its_own_flags(monkeypatch):
    # functools.wraps recorders, as perfbench's tracer wraps the suites
    calls = []
    for name, fn in list(verify.SUITES.items()):

        @functools.wraps(fn)
        def record(_name=name, **flags):
            calls.append((_name, flags))
            return []

        monkeypatch.setitem(verify.SUITES, name, record)
    code, out = _run_main(["verify", "all", "--order", "30", "--count", "5"])
    assert code == 0
    assert json.loads(out) == {"suite": "all", "checks": [], "ok": True}
    assert calls == [
        ("tau", {}),
        ("hecke", {"order": 30}),
        ("rank", {}),
        ("theta", {"order": 30}),
        ("lfunc", {"count": 5}),
        ("geometry", {}),
    ]


def test_verify_hecke_clamps_eigenform_bound_to_half_the_order():
    code, out = _run_main(["verify", "hecke", "--order", "10"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    eigen = next(c for c in payload["checks"] if c["check"] == "hecke-eigenform")
    assert eigen["n_max"] == 5 and eigen["order"] == 10


# sha256 of `qmodular verify hecke --order K` stdout, recorded before the
# composition check read its windows from the series; at small K the
# composition pairs and their windows are few and short.
VERIFY_HECKE_SHA256 = {
    4: "2ebb7b21c2e782f72103243305a2e15d4012edf62d5f3c795713c0fbb324ef13",
    5: "833ee3481ccc3031649503e27c5a014f6ee086fff88848de49da1073d1f76654",
    60: "d9f3055d5fd1c3cde27af324cae36a9f86b8bf8a35cc8bb739d2b07e60876198",
    500: "bdcbcc28cd3bb225d0db612e118f0b6c5e6d5e9193eef68844a13871f1c66e58",
}


@pytest.mark.parametrize("order", list(VERIFY_HECKE_SHA256))
def test_verify_hecke_output_digest_is_stable(order):
    code, out = _run_main(["verify", "hecke", "--order", str(order)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_HECKE_SHA256[order]


def test_verify_lfunc_sees_injected_tau_fault():
    proc = subprocess.run(
        [sys.executable, "-m", "qmodular.cli", "verify", "lfunc", "--inject-tau-fault"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    checks = {c["check"]: c for c in json.loads(proc.stdout)["checks"]}
    assert checks["euler-product-vs-expansion"]["ok"] is False
    assert checks["lambda-two-pipelines"]["ok"] is False
    # the fold of (0, 1] onto [1, inf) makes Lambda(s) = Lambda(12 - s) for
    # any tau row, so the functional-equation check cannot see the fault
    assert checks["lambda-functional-equation"]["ok"] is True
    assert proc.stderr == "verify lfunc: euler-product-vs-expansion: 20 of 62 violations shown\n"


def test_verify_all_runs_each_check_once_in_suite_order():
    code, out = _run_main(["verify", "all"])
    assert code == 0
    assert [c["check"] for c in json.loads(out)["checks"]] == [
        "e12-constant-term",
        "e12-delta-mod-691",
        "tau-properties",
        "hecke-coset-count",
        "hecke-eigenform",
        "hecke-composition",
        "rank-table-invariants",
        "rank-generating-vs-table",
        "rank-equidistribution-mod5",
        "partition-congruences",
        "mock-theta-specialization",
        "theta-lattice-counts",
        "theta-multiplicativity",
        "euler-product-vs-expansion",
        "lambda-functional-equation",
        "lambda-two-pipelines",
        "zeta-zero-spacings",
        "perimeter-preservation",
        "shadow-vanishing",
        "decomposition-identity",
        "agm-vs-quadrature",
    ]


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


# the same for `qmodular verify all --inject-tau-fault`: its violation lines
# run through the tau battery, the Hecke eigenvalues and the Euler product.
VERIFY_ALL_FAULT_SHA256 = "31c8dc5ad6572ba9cfb1670758c228ef8e7993ed9a984c19730f0c5bae3601e6"


def test_verify_all_fault_injected_stdout_digest_is_stable():
    proc = subprocess.run(
        [sys.executable, "-m", "qmodular.cli", "verify", "all", "--inject-tau-fault"],
        capture_output=True,
    )
    assert proc.returncode == 1
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_ALL_FAULT_SHA256
    assert proc.stderr == (
        b"verify tau: tau-properties: 20 of 506 violations shown\n"
        b"verify lfunc: euler-product-vs-expansion: 20 of 62 violations shown\n"
    )


def test_verify_threads_option_is_gone():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "all", "--threads", "2"])
    assert exc.value.code == 2
