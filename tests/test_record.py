"""The records of `crimecast` on `record.Record`: construction, frozen
fields, repr, equality and hash (checked against a frozen dataclass of the
same fields), `_replace`, `_asdict` and pickling. No module of the package
imports `dataclasses`, which compiles each class's methods at import."""

import ast
import dataclasses
import datetime as dt
import pickle
from pathlib import Path

import numpy as np
import pytest

import crimecast
from crimecast.arima import ArimaSpec
from crimecast.cli import PipelineConfig
from crimecast.exceptions import InvalidArgumentError
from crimecast.panel import PanelFit
from crimecast.record import Record
from crimecast.regression import Dataset, RegressionSpec
from crimecast.series import PanelDataset, Quarter
from crimecast.signals import ArticleRecord, Corpus, Tally
from crimecast.stattests import TestResult

SRC = Path(crimecast.__file__).parent


def test_no_module_imports_dataclasses():
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.append(path.name)
    assert importers == []


def twin(record):
    """A frozen dataclass of the record's fields and values, named as its class."""
    cls = dataclasses.make_dataclass(type(record).__name__, type(record)._fields, frozen=True)
    return cls(**record._asdict())


RECORDS = [
    Quarter(2007, 1),
    ArimaSpec(1, 1, 0),
    RegressionSpec("y", (("x", 1),), 1),
    RegressionSpec("y", [("x", 0), ("z", "1")]),  # normalized in __post_init__
    TestResult(1.5, 0.2, 3),
    ArticleRecord("a1", dt.date(2019, 1, 2), "t", "b", gold_label="hate_crime"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_repr_and_hash_match_a_frozen_dataclass(record):
    assert repr(record) == repr(twin(record))
    assert hash(record) == hash(twin(record))
    assert record._replace() == record and record._replace() is not record
    lookalike = type("Lookalike", (Record,), {"__annotations__": dict.fromkeys(type(record)._fields, object)})
    assert lookalike(**record._asdict())._key() == record._key()
    assert record != twin(record) and record != lookalike(**record._asdict())  # equal only within its class


def test_construction_takes_positions_keywords_and_defaults():
    assert ArimaSpec(1, d=1, q=2) == ArimaSpec(p=1, d=1, q=2)
    assert TestResult(1.5, 0.2, 3).detail == ""
    assert RegressionSpec("y", [("x", 1)]) == RegressionSpec("y", (("x", 1),), 0)
    for args, kwargs in [((1, 1), {}), ((1, 1, 0, 0), {}), ((1, 1, 0), {"p": 1}), ((1, 1, 0), {"r": 1})]:
        with pytest.raises(TypeError):
            ArimaSpec(*args, **kwargs)
    with pytest.raises(InvalidArgumentError):
        ArimaSpec(-1, 0, 0)  # __post_init__ runs


def test_quarter_orders_compares_and_hashes_by_year_then_quarter():
    a, b = Quarter(2007, 4), Quarter(2008, 1)
    assert a < b and a <= b and b > a and b >= a and a <= Quarter(2007, 4) >= a
    assert not (b < a or b <= a or a > b or a >= b)
    assert a == Quarter(2007, 4) and a != b and hash(a) == hash((2007, 4))
    assert sorted([b, a]) == [a, b] and len({a, Quarter(2007, 4), b}) == 2
    assert a != (2007, 4)
    with pytest.raises(TypeError):
        a < (2008, 1)
    with pytest.raises(InvalidArgumentError, match="quarter must be in 1..4"):
        Quarter(2007, 5)
    with pytest.raises(InvalidArgumentError, match="must be integers"):
        Quarter(2007.0, 1)


def test_a_panel_frame_equals_only_itself_and_hides_its_arrays_in_the_repr():
    values, present = np.ones((1, 2, 1)), np.ones((1, 2), dtype=bool)
    a = PanelDataset(("CA",), Quarter(2007, 1), ("y",), values, present)
    b = PanelDataset(("CA",), Quarter(2007, 1), ("y",), values, present)
    assert a == a and a != b and hash(a) == object.__hash__(a)
    assert repr(a) == "PanelDataset(unit_names=('CA',), start=Quarter(year=2007, quarter=1), names=('y',))"
    national = Dataset(("national",), Quarter(2007, 1), ("y",), values, present)
    assert national != national.window(Quarter(2007, 1), Quarter(2007, 2))
    assert repr(national).startswith("Dataset(unit_names=('national',), start=")
    assert not values.flags.writeable  # __post_init__ ran


def test_a_panel_fit_compares_without_its_slope_covariance():
    fit = PanelFit(
        "fixed", RegressionSpec("y", (("x", 0),)), ("x",), (0.5,), np.eye(1), {"CA": 1.0}, None, 1.0, None, None, 0.9, -3.0
    )
    assert fit == fit._replace(slope_cov=2 * np.eye(1))
    assert fit != fit._replace(slopes=(0.6,))
    assert fit.sigma2_u_truncated is False


def test_fields_cannot_be_assigned_or_deleted():
    spec = RegressionSpec("y", (("x", 1),))
    for record, name in [(spec, "terms"), (spec, "other"), (Quarter(2007, 1), "year")]:
        with pytest.raises(AttributeError, match="frozen"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match="frozen"):
            delattr(record, name)
    assert spec.terms == (("x", 1),)


def test_replace_runs_the_checks_again():
    corpus = Corpus(["a"], [dt.date(2019, 1, 1)], ["t"], ["b"], [None], [None], [None])
    assert corpus._replace(states=["CA"]).states == ["CA"]
    with pytest.raises(InvalidArgumentError, match="equal lengths"):
        corpus._replace(ids=["a", "b"])
    with pytest.raises(InvalidArgumentError):
        Quarter(2007, 1)._replace(quarter=5)
    assert RegressionSpec("y", ())._replace(terms=[("x", "1")]).terms == (("x", 1),)  # normalized again
    with pytest.raises(TypeError):
        corpus._replace(labels=[None])


def test_asdict_gives_the_fields_in_order():
    result = TestResult(1.5, 0.2, 3, "d")
    assert result._asdict() == {"statistic": 1.5, "p_value": 0.2, "dof_or_lags": 3, "detail": "d"}
    assert list(PipelineConfig()._asdict()) == list(PipelineConfig._fields)
    assert PipelineConfig._defaults["fit_start"] == Quarter(2007, 1) and PipelineConfig._defaults["models"] == (1, 2, 3, 4, 5)


def test_a_tally_pickles():
    tally = Tally(np.array([1, 2], np.int32), np.array([3, 4], np.int32), np.array([True, False]))
    back = pickle.loads(pickle.dumps(tally))
    assert type(back) is Tally and back._fields == tally._fields
    for name in Tally._fields:
        np.testing.assert_array_equal(getattr(back, name), getattr(tally, name))
        assert getattr(back, name).dtype == getattr(tally, name).dtype
    with pytest.raises(AttributeError):
        back.codes = None
