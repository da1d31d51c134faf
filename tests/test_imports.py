"""Each public name lives in its module, and each command loads only what it runs."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmodular
from qmodular import cli, qseries, verify

ROOT = Path(__file__).resolve().parent.parent

SUBMODULES = ["qseries", "forms", "theta_partitions", "lseries", "geometry", "verify", "cli"]
_LOADED = {m: importlib.import_module(f"qmodular.{m}") for m in SUBMODULES}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, mod in _LOADED.items() for n in mod.__all__]
)
def test_public_name_is_the_submodule_object(module, name):
    # each public name is defined in its module and reached only through it
    mod = _LOADED[module]
    ns = {}
    exec(f"from qmodular.{module} import {name}", ns)
    assert ns[name] is getattr(mod, name)
    assert getattr(ns[name], "__module__", mod.__name__) == mod.__name__
    assert not hasattr(qmodular, name)
    with pytest.raises(ImportError):
        exec(f"from qmodular import {name}", {})


@pytest.mark.parametrize("module", SUBMODULES)
def test_public_value_classes_are_records_not_tuples(module):
    # one record kind: every value type compares, copies and prints one way
    public = [getattr(_LOADED[module], name) for name in _LOADED[module].__all__]
    classes = [c for c in public if isinstance(c, type)]
    assert not [c for c in classes if issubclass(c, tuple)]
    assert all(issubclass(c, qseries.Record) for c in classes if hasattr(c, "_fields"))


def test_submodule_attributes_are_the_loaded_modules():
    for module in SUBMODULES:
        ns = {}
        exec(f"from qmodular import {module}", ns)
        assert ns[module] is getattr(qmodular, module) is sys.modules[f"qmodular.{module}"]


def test_star_import_gives_the_same_names():
    # the package root has no __all__: a star import gives the loaded submodules only
    ns = {}
    exec("from qmodular import *", ns)
    del ns["__builtins__"]
    assert set(ns) == set(SUBMODULES)
    assert set(ns) == {n for n in dir(qmodular) if not n.startswith("_")}


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_all_names_resolve(module):
    # a deleted name left in __all__ would break `from qmodular.m import *`
    mod = _LOADED[module]
    assert all(hasattr(mod, name) for name in mod.__all__)
    ns = {}
    exec(f"from qmodular.{module} import *", ns)
    del ns["__builtins__"]
    assert set(ns) == set(mod.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qmodular.no_such_name
    with pytest.raises(ImportError):
        exec("from qmodular import no_such_name", {})


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    if not path.exists():
        pytest.skip("perfbench/tracer.py is absent")
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve_to_callables():
    # a rename that passes every other test would otherwise fail only in a traced run
    tracer = _load_tracer()
    for name, module, attribute, _kind in tracer.TARGETS:
        mod = importlib.import_module(f"qmodular.{module}")
        assert callable(getattr(mod, attribute, None)), name


# each benchmark workload's commands, at sizes small enough for tier-1
TRACED_COMMANDS = {
    "verify_all": [["cli", "verify", "all"]],
    "exact_series": [
        ["cli", "expand", "delta", "--order", "60"],
        ["cli", "expand", "euler--1", "--order", "60"],
        ["cli", "expand", "mock-f", "--order", "60"],
        ["cli", "verify", "tau", "--n-max", "60"],
        ["cli", "tables", "rank", "--n-max", "12", "--format", "json"],
    ],
    "rank_series": [["rank", "20"]],
}


@pytest.mark.parametrize("workload", list(TRACED_COMMANDS))
def test_traced_workload_reaches_every_predicted_wrapper(workload):
    # a refactor that stops calling a predicted wrapper would otherwise show
    # only as a failed traced benchmark run
    tracer = _load_tracer()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    dumps = []
    for args in TRACED_COMMANDS[workload]:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--trace", "--pass-id", "0", *args],
            capture_output=True,
            env=env,
            cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        assert obj["exit"] == 0, args
        dumps.append(obj["trace"])
    assert tracer.coverage_gaps(workload, [dumps]) == []


def test_cli_suite_choices_match_verify(capsys):
    # one verify leaf per suite, in verify.SUITES order, then "all"
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["verify", "bogus"])
    choices = ", ".join(repr(name) for name in [*verify.SUITES, "all"])
    assert f"(choose from {choices})" in capsys.readouterr().err
    # cli sets each parameter from the verify flag named after it
    assert list(cli._VERIFY_FLAGS) == list(verify.SUITES)
    for name, fn in verify.SUITES.items():
        assert cli._VERIFY_FLAGS[name] == list(inspect.signature(fn).parameters)
    assert set().union(*cli._VERIFY_FLAGS.values()) == set(cli._VERIFY_FLAG_TYPES)


# -- what a fresh process loads ------------------------------------------------------

_PROBE = """
import contextlib, io, json, sys
argv = sys.argv[1:]
if argv == ["--import-cli"]:
    from qmodular import cli
elif argv == ["--rank-pass"]:
    from qmodular import theta_partitions as tp
    polys = tp.rank_generating(100)
    tp.specialize_omega(polys, (1, 2))
    tp.specialize_omega(polys, (0, 1))
    tp.mock_theta_f(100)
    [tp.partition_count(k) for k in range(100)]
    tp.rank_table(99)
elif argv == ["--unary-theta"]:
    from qmodular import theta_partitions as tp
    tp.unary_theta((0, 1, -1), 1, 20)
elif argv[:1] == ["--parse"]:
    from qmodular import cli
    cli.build_parser().parse_args(argv[1:])
elif argv:
    from qmodular import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
else:
    import qmodular
print(json.dumps(sorted(sys.modules)))
"""


def _modules(*argv: str) -> set[str]:
    """Every module a fresh process has loaded after running the probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return set(json.loads(proc.stdout))


def _loaded(*argv: str) -> set[str]:
    return {
        m.removeprefix("qmodular.") for m in _modules(*argv) if m.startswith("qmodular")
    }


def test_import_qmodular_loads_no_submodule():
    assert _loaded() == {"qmodular"}


def test_expand_euler_loads_only_qseries():
    assert _loaded("expand", "euler--1", "--order", "20") == {"qmodular", "cli", "qseries"}


def test_tables_rank_skips_forms_lseries_geometry_verify():
    loaded = _loaded("tables", "rank", "--n-max", "8")
    assert "theta_partitions" in loaded
    assert not loaded & {"forms", "lseries", "geometry", "verify"}


@pytest.mark.parametrize(
    "argv",
    [
        ("tables", "rank"),
        ("tables", "zeros"),
        ("tables", "spacings"),
        ("tables", "lvalues", "--s-values", "4,6"),
        ("tables", "shadow", "--e", "2"),
        ("verify", "all"),
        ("expand", "delta"),
    ],
    ids=" ".join,
)
def test_building_and_parsing_loads_only_qseries(argv):
    # each command imports what it runs only after parsing
    assert _loaded("--parse", *argv) == {"qmodular", "cli", "qseries"}


def test_verify_tau_skips_lseries_geometry_theta():
    loaded = _loaded("verify", "tau", "--n-max", "60")
    assert {"verify", "forms"} <= loaded
    assert not loaded & {"lseries", "geometry", "theta_partitions"}


def _loaded_beyond_bare(names: set[str], *argv: str) -> set[str]:
    """Which of ``names`` the probe loads that a bare interpreter does not."""
    bare = subprocess.run(
        [sys.executable, "-c", "import json, sys; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        check=True,
    )
    return _modules(*argv) & (names - set(json.loads(bare.stdout)))


# dataclasses imports inspect (and with it ast, dis and tokenize), several
# milliseconds of every short CLI process; records are plain classes instead
_START_UP_HEAVY = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv",
    [
        ("--import-cli",),
        ("expand", "delta", "--order", "40"),
        ("expand", "euler--1", "--order", "40"),
        ("expand", "mock-f", "--order", "40"),
        ("verify", "tau", "--n-max", "40"),
        ("tables", "rank", "--n-max", "12", "--format", "json"),
        ("verify", "all"),
    ],
    ids=" ".join,
)
def test_cli_process_loads_neither_dataclasses_nor_inspect(argv):
    assert _loaded_beyond_bare(_START_UP_HEAVY, *argv) == set()


# fractions imports decimal (with _decimal) and numbers, about 3 ms of a
# short process; only a process that builds a non-integral rational loads it
_FRACTIONS = {"fractions", "decimal", "numbers"}


@pytest.mark.parametrize(
    "argv",
    [
        ("--import-cli",),
        ("expand", "delta", "--order", "40"),
        ("expand", "euler--1", "--order", "40"),
        ("expand", "mock-f", "--order", "40"),
        ("expand", "theta-3", "--order", "40"),
        ("tables", "rank", "--n-max", "12", "--format", "json"),
        ("tables", "zeros"),
        ("tables", "lvalues"),
        ("tables", "shadow"),
        ("verify", "hecke"),
        ("verify", "rank"),
        ("verify", "theta"),
        ("verify", "lfunc"),
        ("verify", "geometry"),
        ("--rank-pass",),
        ("--unary-theta",),
    ],
    ids=" ".join,
)
def test_integral_process_loads_no_fractions(argv):
    assert _loaded_beyond_bare(_FRACTIONS, *argv) == set()


@pytest.mark.parametrize(
    "argv", [("verify", "tau", "--n-max", "40"), ("verify", "all")], ids=" ".join
)
def test_suite_that_checks_the_e12_constant_loads_fractions(argv):
    # verify tau compares E12's constant term with Fraction(691, 65520)
    assert "fractions" in _loaded_beyond_bare(_FRACTIONS, *argv)


# each path that imports Fraction where it builds one, as an expression over
# the names of _LAZY_PRELUDE; run(...) is cli.main's stdout
_LAZY_FRACTION_PATHS = {
    "expand-eta": "run('expand', 'eta', '--order', '3')",
    "expand-e12": "run('expand', 'e12', '--order', '2')",
    "pow": "qs.pow(qs.QSeries(0, (2, 1)), -1)",
    "json-round-trip": "qs.from_json_obj(qs.to_json_obj(qs.QSeries('1/24', ('1/2', 3))))",
    "rational": "qs.rational('3/6')",
    "unary-theta": "tp.unary_theta((0, 1, -1), qs.rational('1/3'), 5)",
}

_LAZY_PRELUDE = """
import contextlib, io, sys
from qmodular import cli, qseries as qs, theta_partitions as tp
def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()
def show(v):
    # a series by its stored values, so an int stored as a Fraction shows
    return repr((v.offset, v.coeffs) if isinstance(v, qs.QSeries) else v)
"""


@pytest.mark.parametrize("expr", list(_LAZY_FRACTION_PATHS.values()), ids=list(_LAZY_FRACTION_PATHS))
def test_lazy_fraction_path_gives_the_in_process_value(expr):
    # the fresh process first imports fractions on this path; this one has long had it
    probe = _LAZY_PRELUDE + (
        "assert 'fractions' not in sys.modules\n"
        "v = eval(sys.argv[1])\n"
        "assert 'fractions' in sys.modules\n"
        "print(show(v))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe, expr], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    ns = {}
    exec(_LAZY_PRELUDE, ns)
    assert proc.stdout == ns["show"](eval(expr, ns)) + "\n"
