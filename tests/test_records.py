"""Contracts of the package's value records: validation, immutability, equality."""

import copy
import functools
import inspect
import json
import pickle
import re

import pytest

from qmodular import cli, verify
from qmodular.forms import CheckReport, EigenformReport, FormMeta, HeckeComposeReport
from qmodular.geometry import EllipseSpec, TorusTerm, WeakMaassValue
from qmodular.lseries import CompletedLValue, DirichletValue, ZeroList
from qmodular.qseries import QSeries
from qmodular.theta_partitions import OmegaPoly, rank_table


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FormMeta(0), "weight must be a positive even integer, got 0"),
        (lambda: FormMeta(11), "weight must be a positive even integer, got 11"),
        (lambda: FormMeta(12, level=0), "level must be >= 1, got 0"),
        (
            lambda: FormMeta(12, 5, {0: 0, 1: 1, 2: -1}),
            "character table misses residues [3, 4] mod 5",
        ),
        (lambda: FormMeta(12, 3, (0, 1)), "character table misses residues [2] mod 3"),
        (lambda: QSeries("1/5", (1,)), "offset denominator must divide 24, got 5"),
        (lambda: ZeroList((1.0, 1.0), (0.0, 0.0)), "ordinates must be strictly increasing"),
        (lambda: ZeroList((-1.0,), (0.0,)), "ordinates must be positive"),
        (lambda: EllipseSpec(1.0, 0.0, 1.0), "r_ref, e, f must all be positive, got (1.0, 0.0, 1.0)"),
    ],
)
def test_validation_error_messages(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FormMeta(12.0), "weight and level must be ints, got 12.0 and 1"),
        (lambda: FormMeta(2, 1.5), "weight and level must be ints, got 2 and 1.5"),
        (lambda: FormMeta(2, 3, (0, 1.0, -1)), "character values must be ints, got (0, 1.0, -1)"),
    ],
    ids=["float-weight", "float-level", "float-character-value"],
)
def test_form_meta_refuses_inexact_hecke_data(build, message):
    # a float here would leak into every Hecke and Euler coefficient
    with pytest.raises(TypeError, match=re.escape(message)):
        build()


VALIDATED = [
    (QSeries(0, (1, 2)), "offset"),
    (FormMeta(12), "weight"),
    (ZeroList((14.1, 21.0), (1e-9, 2e-9)), "residuals"),
    (QSeries(1, (1, -24)), "coeffs"),
    (ZeroList((14.1, 21.0), (0.0, 0.0)), "gammas"),
    (EllipseSpec(1.0, 2.0, 3.0), "e"),
    (rank_table(4), "n_max"),
    (FormMeta(12, 4, {0: 0, 1: 1, 2: 0, 3: -1}), "character"),
    (CheckReport("tau-properties", (("n_max", 40),), ("recursion failed at p=2, e=1",)), "params"),
    (HeckeComposeReport(2, 2, 25, (3, -1, 0)), "first_mismatch"),
    (EigenformReport(((1, 1), (2, -24)), (3,), None), "eigenvalues"),
    (DirichletValue(0.5, 1e-9), "tail_bound"),
    (CompletedLValue(6.0, 0.0011, 1e-13), "quadrature_error"),
    (TorusTerm(EllipseSpec(1.0, 2.0, 3.0), 2.0, (0j, 1 + 0.5j)), "shadow_samples"),
    (WeakMaassValue(1 + 2j, 1 + 1j, 1j), "shadow"),
    (OmegaPoly(-1, (1, 0, 1)), "coeffs"),
]


@pytest.mark.parametrize("record, field", VALIDATED)
def test_records_are_read_only(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown_field = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("record, field", VALIDATED)
def test_records_copy_and_pickle_to_equal_values(record, field):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record
        assert getattr(clone, field) == getattr(record, field)


def test_qseries_equality_and_hash_are_on_offset_and_coeffs():
    plain = QSeries(0, (0, 1, -24))
    assert plain == QSeries("0", ("0", 1, -24))
    assert hash(plain) == hash(QSeries(0, (0, 1, -24)))
    assert plain != QSeries(1, (0, 1, -24))
    assert plain != QSeries(0, (0, 1, -23))


def test_equality_is_same_class_on_the_fields():
    assert FormMeta(12) == FormMeta(12, 1, None)
    assert EllipseSpec(1.0, 2.0, 3.0) != (1.0, 2.0, 3.0)
    assert rank_table(6) == rank_table(6)
    assert OmegaPoly(0, (1,)) != (0, (1,))
    assert CompletedLValue(1.0, 2.0, 3.0) != TorusTerm(1.0, 2.0, 3.0)


def test_form_meta_stores_a_character_table_as_a_hashable_tuple():
    meta = FormMeta(12, 4, {0: 0, 1: 1, 2: 0, 3: -1})
    assert meta.character == (0, 1, 0, -1)
    assert meta == FormMeta(12, 4, (0, 1, 0, -1))
    assert hash(meta) == hash(FormMeta(12, 4, (0, 1, 0, -1)))
    assert [meta.eps(d) for d in range(-1, 6)] == [-1, 0, 1, 0, -1, 0, 1]
    assert FormMeta(12).character is None
    assert hash(FormMeta(12)) == hash(FormMeta(12, 1, None))


def test_ellipse_spec_repr_names_each_field():
    # it appears in the agm-vs-quadrature violation message
    assert repr(EllipseSpec(1.0, 2.0, 3.0)) == "EllipseSpec(r_ref=1.0, e=2.0, f=3.0)"


@pytest.mark.parametrize(
    "values, given",
    [((0.5,), 1), ((0.5, 1e-9, 3), 3)],
    ids=["too-few", "too-many"],
)
def test_record_rejects_a_wrong_number_of_fields(values, given):
    with pytest.raises(TypeError) as excinfo:
        DirichletValue(*values)
    assert str(excinfo.value) == f"DirichletValue takes 2 values (value, tail_bound), got {given}"


def test_suite_parameters_see_through_functools_wraps(monkeypatch, capsys):
    # perfbench's tracer puts functools.wraps layers over the suites; the
    # parameters cli._VERIFY_FLAGS spells out must still be the wrapped suite's
    for name, fn in list(verify.SUITES.items()):

        @functools.wraps(fn)
        def traced(*args, _fn=fn, **kwargs):
            return _fn(*args, **kwargs)

        monkeypatch.setitem(verify.SUITES, name, traced)
        assert list(inspect.signature(verify.SUITES[name]).parameters) == cli._VERIFY_FLAGS[name]
    assert cli._VERIFY_FLAGS["theta"] == ["order"]
    assert cli.main(["verify", "theta", "--order", "30"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
