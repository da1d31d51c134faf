"""Smoke tests: the README scripts and CLI examples run as written."""

import io
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qmodular import cli

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, arg: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), arg],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize(
    ("name", "arg", "headers", "line_count"),
    [
        (
            "tau_congruence_scan.py",
            "200",
            [
                "n <= 200",
                "  mod 691 mismatches: 0 []",
                "  mod 2^11 on n=1(8): 0 of 25 checked",
                "  largest Deligne ratios |tau(p)| / 2p^(11/2):",
            ],
            4 + 8,
        ),
        (
            "zero_spacing_table.py",
            "5",
            [f"{'n':>3}  {'gamma':>14}  {'spacing':>12}  {'unfolded':>10}"],
            1 + 5 + 1,
        ),
        (
            "shadow_profile.py",
            "3",
            [f"{'f/e':>6}  {'r_ref':>10}  {'c_hol':>10}  {'max|shadow|':>12}"],
            1 + 4,
        ),
    ],
)
def test_readme_script_runs(name, arg, headers, line_count):
    lines = _run_script(name, arg)
    for header in headers:
        assert header in lines
    assert len(lines) == line_count


def test_readme_cli_examples_exit_0():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True) for line in block.splitlines() if line]
    assert argvs and all(argv[0] == "qmodular" for argv in argvs)
    for argv in argvs:
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv[1:]) == 0, argv
