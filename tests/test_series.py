import csv
import importlib
import io
import math
import re
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from crimecast import series as series_module
from crimecast.exceptions import DegenerateInputError, InvalidArgumentError
from crimecast.regression import Dataset
from crimecast.series import (
    PanelDataset,
    Quarter,
    acf,
    decompose_additive,
    deseasonalize,
    difference,
    load_series_csv,
    pacf,
    read_quarterly_csv,
    write_series_csv,
)

from conftest import FIXTURES, GAZETTEER, Q0, ar1, cell, read_quarterly_csv_plainly, series

BENCH = Path(__file__).parents[1] / "bench"


class TestQuarter:
    def test_ordering_and_successor(self):
        assert Quarter(2007, 1) < Quarter(2007, 2) < Quarter(2008, 1)
        assert Quarter(2007, 4) + 1 == Quarter(2008, 1)
        assert Quarter(2008, 1) - 1 == Quarter(2007, 4)
        assert Quarter(2019, 1) - Quarter(2007, 1) == 48

    def test_parse_roundtrip(self):
        assert Quarter.parse("2007Q3") == Quarter(2007, 3)
        assert str(Quarter(2007, 3)) == "2007Q3"

    def test_invalid_quarter(self):
        with pytest.raises(InvalidArgumentError):
            Quarter(2007, 5)

    @given(st.integers(1990, 2030), st.integers(1, 4), st.integers(-40, 40))
    def test_add_sub_roundtrip(self, year, quarter, n):
        q = Quarter(year, quarter)
        assert (q + n) - q == n
        assert (q + n) - n == q


class TestDifferenceLag:
    def test_difference_order_1(self):
        out = difference(series([1, 3, 6, 10]))
        assert out.tolist() == [2.0, 3.0, 4.0]

    def test_difference_constant(self):
        assert difference(series([5, 5, 5])).tolist() == [0.0, 0.0]

    def test_difference_too_short(self):
        with pytest.raises(InvalidArgumentError):
            difference(series([1]))


class TestMissingDiscipline:
    """A series file may leave the first and last cells of a column blank,
    but not a cell between two numbers."""

    def test_interior_gap_rejected(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("year,quarter,a,b\n2007,1,1.0,1.0\n2007,2,2.0,\n2007,3,3.0,3.0\n")
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}: series 'b' has interior missing values")):
            Dataset.from_csv(path)

    def test_edge_missing_allowed(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("year,quarter,value\n2007,1,\n2007,2,1.0\n2007,3,2.0\n2007,4,\n")
        start, values = load_series_csv(path)
        defined = np.flatnonzero(~np.isnan(values))
        assert start + int(defined[0]) == Q0 + 1
        assert start + int(defined[-1]) == Q0 + 2


class TestAcfPacf:
    def test_lag0_is_one(self, rng):
        r = acf(series(rng.normal(size=50)), 5)
        assert r[0] == 1.0

    def test_iid_acf1_small(self):
        ts = series(np.random.default_rng(7).normal(size=1000))
        assert abs(acf(ts, 1)[1]) < 0.1

    def test_ar1_acf1_near_alpha(self):
        ts = series(ar1(0.8, 5000, seed=21))
        assert 0.75 <= acf(ts, 1)[1] <= 0.85

    def test_acf_bounded(self, rng):
        r = acf(series(rng.normal(size=200)), 20)
        assert np.all(np.abs(r) <= 1.0 + 1e-12)

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateInputError):
            acf(series([3, 3, 3, 3]), 1)

    def test_pacf1_equals_acf1(self, rng):
        ts = series(rng.normal(size=100))
        assert pacf(ts, 3)[1] == acf(ts, 3)[1]

    def test_ar1_pacf2_cutoff(self):
        ts = series(ar1(0.8, 5000, seed=21))
        assert abs(pacf(ts, 2)[2]) < 0.05

    def test_white_noise_pacf_band(self):
        n = 1000
        ts = series(np.random.default_rng(3).normal(size=n))
        phi = pacf(ts, 10)
        assert np.all(np.abs(phi[1:]) < 1.5 * 2 / np.sqrt(n))


class TestDecomposition:
    def test_pure_seasonal(self):
        pattern = [1.0, -1.0, 2.0, -2.0]
        ts = series(np.tile(pattern, 5))
        t, s, irr = decompose_additive(ts)
        np.testing.assert_allclose(s[:4], pattern, atol=1e-9)
        defined = ~np.isnan(t)
        np.testing.assert_allclose(t[defined], 0.0, atol=1e-9)
        np.testing.assert_allclose(irr[defined], 0.0, atol=1e-9)

    def test_linear_ramp_no_seasonality(self):
        ts = series(np.arange(1.0, 21.0))
        t, seasonal, _ = decompose_additive(ts)
        np.testing.assert_allclose(seasonal, 0.0, atol=1e-9)
        defined = ~np.isnan(t)
        np.testing.assert_allclose(t[defined], np.arange(1.0, 21.0)[defined], atol=1e-9)
        # edges: first and last period//2 positions missing
        assert np.isnan(t[:2]).all() and np.isnan(t[-2:]).all()

    def test_synthesized_recovery(self):
        ramp = np.arange(1.0, 41.0)
        pattern = np.tile([2.0, 0.0, -1.0, -1.0], 10)
        ts = series(ramp + pattern)
        trend, seasonal, irregular = decompose_additive(ts)
        defined = ~np.isnan(trend)
        np.testing.assert_allclose(trend[defined], ramp[defined], atol=1e-9)
        np.testing.assert_allclose(seasonal[:4], [2, 0, -1, -1], atol=1e-9)
        np.testing.assert_allclose(irregular[defined], 0.0, atol=1e-9)

    def test_reconstruction_identity(self, rng):
        ts = series(rng.normal(10, 3, size=37))
        recon = sum(decompose_additive(ts))
        defined = ~np.isnan(recon)
        np.testing.assert_allclose(recon[defined], ts[defined], atol=1e-9)

    def test_seasonal_zero_sum(self, rng):
        ts = series(rng.normal(0, 5, size=31))
        _, seasonal, _ = decompose_additive(ts)
        assert abs(sum(seasonal[:4])) < 1e-9

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            decompose_additive(series(np.arange(7.0)))


class TestDeseasonalize:
    def test_zero_seasonal_identity(self, rng):
        ts = series(np.arange(1.0, 21.0))
        out = deseasonalize(ts, decompose_additive(ts)[1])
        np.testing.assert_allclose(out, ts, atol=1e-9)

    def test_ramp_plus_seasonal(self):
        ramp = np.arange(1.0, 41.0)
        ts = series(ramp + np.tile([2.0, 0.0, -1.0, -1.0], 10))
        out = deseasonalize(ts, decompose_additive(ts)[1])
        np.testing.assert_allclose(out, ramp, atol=1e-9)

    def test_idempotence_at_tolerance(self, rng):
        values = np.arange(40.0) + np.tile([3.0, -1.0, 0.5, -2.5], 10) + rng.normal(0, 0.2, 40)
        ts = series(values)
        out = deseasonalize(ts, decompose_additive(ts)[1])
        _, seasonal, _ = decompose_additive(out)
        assert np.nanmax(np.abs(seasonal)) < 1e-6

    def test_noiseless_idempotence(self):
        values = np.arange(40.0) + np.tile([3.0, -1.0, 0.5, -2.5], 10)
        ts = series(values)
        out = deseasonalize(ts, decompose_additive(ts)[1])
        _, seasonal, _ = decompose_additive(out)
        assert np.nanmax(np.abs(seasonal)) < 1e-6


class TestCsv:
    def test_roundtrip_with_missing_edges(self, tmp_path):
        values = series([float("nan"), 2.0, 3.5, float("nan")])
        path = tmp_path / "s.csv"
        write_series_csv(Q0, values, path)
        start, back = load_series_csv(path, name="fbi_num")
        assert start == Q0
        assert back[1:3].tolist() == [2.0, 3.5]
        assert math.isnan(back[0]) and math.isnan(back[3])

    def test_interior_gap_rejected_at_load(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("year,quarter,value\n2007,1,1.0\n2007,2,\n2007,3,3.0\n")
        with pytest.raises(InvalidArgumentError):
            load_series_csv(path)

    def test_nonconsecutive_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("year,quarter,value\n2007,1,1.0\n2007,3,3.0\n")
        with pytest.raises(InvalidArgumentError):
            load_series_csv(path)

    def test_repeated_quarter_names_path_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("year,quarter,value\n2007,1,1.0\n2007,2,2.0\n2007,2,2.0\n")
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}:4: duplicate observation for 2007Q2")):
            load_series_csv(path)


SERIES_HEAD = "year,quarter,value\n"
WIDE_HEAD = "year,quarter,a,b\n"
LONG_HEAD = "state,year,quarter,a,b\n"
CONSECUTIVE = "{path}: rows must be sorted consecutive quarters (2007Q1 -> 2007Q3)"


class TestReaderMessages:
    """Each file has one fault; the message is pinned byte for byte."""

    @pytest.mark.parametrize(
        "loader, text, message",
        [
            (load_series_csv, "year,qtr,value\n2007,1,1.0\n", "{path}: expected header 'year,quarter,<variables>'"),
            (load_series_csv, "year,quarter,v\n2007,1,1.0\n", "{path}: expected header 'year,quarter,value'"),
            (load_series_csv, SERIES_HEAD + "2007,1,1.0\n20x7,2,2.0\n", "{path}:3: malformed row"),
            (load_series_csv, SERIES_HEAD + "2007,1,1.0\n2007,5,2.0\n", "{path}:3: malformed row"),
            (load_series_csv, SERIES_HEAD + "2007,1,1.0\n2007\n", "{path}:3: malformed row"),
            (load_series_csv, SERIES_HEAD + "2007,1,1.0\n2007,2,inf\n", "{path}:3: not a finite number: 'inf'"),
            (load_series_csv, SERIES_HEAD + "2007,1,abc\n2007,2,2.0\n", "{path}:2: not a finite number: 'abc'"),
            (load_series_csv, SERIES_HEAD.encode() + b"2007,1,1.0\n2007,2,\xff\n", "{path}:3: not UTF-8 text (invalid start byte)"),
            (load_series_csv, SERIES_HEAD + "2007,1,1.0\n2007,2,2.0,3.0\n", "{path}:3: malformed row"),
            (load_series_csv, SERIES_HEAD + "2007,1," + "9" * 140_000 + "\n", "{path}:2: field larger than field limit (131072)"),
            (load_series_csv, SERIES_HEAD + "\n\n", "{path}: no data rows"),
            (load_series_csv, SERIES_HEAD + "2007,1,1.0\n2007,3,3.0\n", CONSECUTIVE),
            (load_series_csv, SERIES_HEAD + "2007,1,1.0\n2007,2,2.0\n2007,1,1.0\n", "{path}:4: duplicate observation for 2007Q1"),
            # A copy of the last row moved up: the rows stop being consecutive before the repeat.
            (load_series_csv, SERIES_HEAD + "2007,1,1\n2007,3,3\n2007,2,2\n2007,3,3\n", "{path}:5: duplicate observation for 2007Q3"),
            (load_series_csv, "year,quarter,value,value\n2007,1,1.0,2.0\n", "{path}:1: duplicate column 'value'"),
            (load_series_csv, SERIES_HEAD + "2007,1,\n2007,2,\n", "{path}: series 'in' has no defined values"),
            (load_series_csv, SERIES_HEAD + "2007,1,1.0\n2007,2,\n2007,3,3.0\n", "{path}: series 'in' has interior missing values"),
            (Dataset.from_csv, "year,quarter\n2007,1\n", "{path}: expected header 'year,quarter,<variables>'"),
            (Dataset.from_csv, WIDE_HEAD + "2007,1,1.0,2.0\n2007,2,2.0\n2007,x,1,1\n", "{path}:4: malformed row"),
            (Dataset.from_csv, WIDE_HEAD + "2007,1,1.0,2.0\n2007,2,2.0,nan\n", "{path}:3: not a finite number: 'nan'"),
            (Dataset.from_csv, WIDE_HEAD + "2007,1,1.0, 1e400 \n", "{path}:2: not a finite number: '1e400'"),
            (Dataset.from_csv, WIDE_HEAD.encode() + b"2007,1,\xc3,2.0\n", "{path}:2: not UTF-8 text (invalid continuation byte)"),
            (Dataset.from_csv, WIDE_HEAD, "{path}: no data rows"),
            (Dataset.from_csv, WIDE_HEAD + "2007,1,1,2\n2007,3,1,2\n", CONSECUTIVE),
            (Dataset.from_csv, WIDE_HEAD + "2007,1,1,2\n2007,1,1,2\n2007,2,1,2\n", "{path}:3: duplicate observation for 2007Q1"),
            (Dataset.from_csv, "year,quarter,a,b,a\n2007,1,1,2,3\n", "{path}:1: duplicate column 'a'"),
            (PanelDataset.from_csv, "state,year,a\nCA,2007,1\n", "{path}: expected header 'state,year,quarter,<variables>'"),
            (PanelDataset.from_csv, LONG_HEAD + "CA,2007,1,1,2\nCA,2007,0,1,2\n", "{path}:3: malformed row"),
            (PanelDataset.from_csv, LONG_HEAD + "CA,2007,1,1,2\nNY,,1,1,2\n", "{path}:3: malformed row"),
            (PanelDataset.from_csv, LONG_HEAD + "CA,2007,1,1,2\nCA,2007,2,-inf,2\n", "{path}:3: not a finite number: '-inf'"),
            (PanelDataset.from_csv, LONG_HEAD.encode() + b"CA,2007,1,1,2\nN\xffY,2007,1,1,2\n", "{path}:3: not UTF-8 text (invalid start byte)"),
            (PanelDataset.from_csv, LONG_HEAD + "\n", "{path}: no data rows"),
            (PanelDataset.from_csv, LONG_HEAD + "CA,2007,1,1,2\nNY,2007,1,1,2\nCA,2007,1,1,2\n", "{path}:4: duplicate observation for CA 2007Q1"),
            (PanelDataset.from_csv, "state,year,quarter,a,b,a\nCA,2007,1,1,2,0\n", "{path}:1: duplicate column 'a'"),
        ],
    )
    def test_one_fault_message(self, tmp_path, loader, text, message):
        path = tmp_path / "in.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(InvalidArgumentError) as info:
            loader(path)
        assert str(info.value) == message.format(path=path)

    @pytest.mark.parametrize("loader", [load_series_csv, PanelDataset.from_csv])
    @pytest.mark.parametrize("year", ["99999999999999999999", "10000", "0", "-2007"])
    def test_year_outside_1_to_9999_is_malformed(self, tmp_path, loader, year):
        path = tmp_path / "in.csv"
        if loader is load_series_csv:
            path.write_text(SERIES_HEAD + f"2007,1,1.0\n{year},2,2.0\n")
        else:
            path.write_text(LONG_HEAD + f"CA,2007,1,1,2\nCA,{year},2,1,2\n")
        with pytest.raises(InvalidArgumentError) as info:
            loader(path)
        assert str(info.value) == f"{path}:3: malformed row"

    def test_rows_are_numbered_by_the_line_they_start_on(self, tmp_path):
        # The quoted state of line 2 ends on line 3; line 4 is blank.
        path = tmp_path / "in.csv"
        path.write_text(LONG_HEAD + '"CA\n",2007,1,1,2\n\nNY,2007,1,1,2\nNY,2007,2,abc,2\n')
        with pytest.raises(InvalidArgumentError) as info:
            PanelDataset.from_csv(path)
        assert str(info.value) == f"{path}:6: not a finite number: 'abc'"

    def test_panel_csv_matches_a_dictreader_oracle(self):
        """Every cell of the fixture panel against a row-by-row read of the file."""
        path = FIXTURES / "panel.csv"
        panel = PanelDataset.from_csv(path)
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        units = sorted({row["state"] for row in rows})
        names = sorted(set(rows[0]) - {"state", "year", "quarter"})
        quarters = [Quarter(int(row["year"]), int(row["quarter"])) for row in rows]
        assert (panel.unit_names, panel.names) == (tuple(units), tuple(names))
        assert (panel.start, panel.end) == (min(quarters), max(quarters))
        values = np.full((len(units), max(quarters) - min(quarters) + 1, len(names)), np.nan)
        present = np.zeros(values.shape[:2], dtype=bool)
        for row, q in zip(rows, quarters):
            i, t = units.index(row["state"]), q - min(quarters)
            present[i, t] = True
            values[i, t] = [float(row[name]) if row[name].strip() else np.nan for name in names]
        np.testing.assert_array_equal(panel.present, present)
        np.testing.assert_array_equal(panel.values, values)


# Cells for the differential test: odd spellings, quoted commas and newlines,
# blank cells, and the faults (years and quarters that are not ints or out of
# range, value cells that are not finite numbers).
YEARS = [" 2009 ", "+2008", "2_007", "0", "10000", "-1", "x", "", "9" * 5000] + ["99999999999999999999"] * 3
QUARTERS = [" 2", "0", "5", "x", ""]
STATES = ["CA", "NY", " TX ", "a,b", "new\nline", 'say "hi"', ""]
GOOD_CELLS = ["1.5", "-2", " 3 ", "7e2", "0", "4\n", "1_0", "１２", "", " "]
BAD_CELLS = ["nan", "inf", "-Infinity", "1e400", "abc", "0x10"]
# A plain file (no quote, carriage return or NUL) takes these, and finite
# floats written out by `repr`.
PLAIN_STATES = ["CA", "NY", " TX ", "", "new york", "a;b"]
PLAIN_CELLS = ["1.5", "-2", " 3 ", "\t4", "7e2", "1E-5", "+0", ".5", "5.", "0"]


@st.composite
def quarterly_csv(draw, plain: bool = False) -> tuple[str, tuple[str, ...]]:
    """The text of a quarterly CSV and its key columns. In half the files a
    row may be malformed (a bad year or quarter, or cells dropped or added)
    and a value cell may be bad; in a quarter, one cell is too large for the
    CSV tokenizer. A `plain` file has none of these: it is unquoted, its
    lines end in LF, and every row has each cell, a year in 1..9999, a
    quarter in 1..4 and finite values, so numpy's C reader answers it."""
    keys = draw(st.sampled_from([("state", "year", "quarter"), ("year", "quarter")]))
    widths = st.integers(1, 6) if plain else st.sampled_from([1, 2, 3] * 3 + [0])  # 0: a bad header
    header = [*keys, *(f"v{j}" for j in range(draw(widths)))]
    faulty = not plain and draw(st.booleans())
    if plain:
        cells = st.one_of(st.sampled_from(PLAIN_CELLS), st.floats(allow_nan=False, allow_infinity=False).map(repr))
    else:
        cells = st.sampled_from(GOOD_CELLS * 4 + BAD_CELLS if faulty else GOOD_CELLS)
    records, k, first_year = [header], 0, draw(st.sampled_from([2007, 9990 if plain else 9998]))
    for _ in range(draw(st.integers(1 if plain else 0, 8))):
        if draw(st.integers(0, 9)) == 0 and (not plain or len(records) > 1):  # a plain file starts with a row
            records.append([] if plain else draw(st.sampled_from([[], [""] * len(header)])))  # a blank line, or a row of blank cells
            continue
        k = draw(st.sampled_from([k + 1] * 6 + [k, k + 2]))  # a repeat or a gap now and then
        row = [draw(st.sampled_from(PLAIN_STATES if plain else STATES))] if len(keys) == 3 else []
        year = str(first_year + k // 4)
        if plain:
            year = draw(st.sampled_from([year, f" {year}", f"+{year}", f"0{year}"]))
        row += [year, str(k % 4 + 1), *(draw(cells) for _ in header[len(keys) :])]
        fault = draw(st.sampled_from(["year", "quarter", "width", None])) if faulty else None
        if fault == "width":
            extra = draw(st.sampled_from([-3, -1, 1, 2]))
            row = row[:extra] if extra < 0 else row + ["9"] * extra
        elif fault:
            row[len(keys) - (2 if fault == "year" else 1)] = draw(st.sampled_from(YEARS if fault == "year" else QUARTERS))
        records.append(row)
    if plain:
        return "\n".join(map(",".join, records)) + draw(st.sampled_from(["\n", ""])), keys
    if draw(st.integers(0, 3)) == 0:
        huge = draw(st.integers(0, len(records) - 1))
        records[huge].append("9" * 140_000)
    text = io.StringIO()
    csv.writer(text, lineterminator="\n", quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))).writerows(records)
    return text.getvalue(), keys


def read_outcome(reader, path, keys, consecutive):
    """A reader's columns, NaN as None, or its message."""
    try:
        names, key_columns, index, values, lines = reader(path, keys, consecutive)
    except InvalidArgumentError as exc:
        return str(exc)
    cells = [[None if math.isnan(v) else v for v in row] for row in values.tolist()]
    return names, key_columns, index.tolist(), values.shape, cells, lines


@seed(20261025)
@settings(max_examples=300, deadline=None)
@given(quarterly_csv(), st.booleans())
def test_reader_agrees_with_a_plain_reader(tmp_path_factory, text_keys, consecutive):
    """`read_quarterly_csv` gives the columns of `read_quarterly_csv_plainly`,
    or its `path:line` message."""
    text, keys = text_keys
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_text(text)
    expected = read_outcome(read_quarterly_csv_plainly, path, keys, consecutive)
    assert read_outcome(read_quarterly_csv, path, keys, consecutive) == expected


@seed(20261029)
@settings(max_examples=200, deadline=None)
@given(quarterly_csv(plain=True), st.booleans())
def test_the_c_path_answers_a_plain_file(tmp_path_factory, text_keys, consecutive):
    """A plain file never reaches the `csv.reader` loop, and its columns or
    message are still those of `read_quarterly_csv_plainly`."""
    text, keys = text_keys
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_text(text)
    expected = read_outcome(read_quarterly_csv_plainly, path, keys, consecutive)
    with mock.patch.object(series_module, "_csv_columns", side_effect=AssertionError("the C path declined")):
        assert read_outcome(read_quarterly_csv, path, keys, consecutive) == expected


@pytest.mark.parametrize(
    "text",
    [
        LONG_HEAD + "CA,2007,1,1#2,2\n",  # loadtxt's default comments="#" would read 1.0
        LONG_HEAD + "CA,2007,1,1,2\n  \nCA,2007,2,1,2\n",  # a whitespace-only line
        LONG_HEAD.replace("\n", "\r\n") + "CA,2007,1,1,2\r\nCA,2007,2,1,2\r\n",
        LONG_HEAD + "C\x00A,2007,1,1,2\n",  # a NUL, which csv.reader rejects before Python 3.11
        LONG_HEAD + '"CA",2007,1,1,2\n',
        LONG_HEAD + "CA,2007,1,,2\n",
        LONG_HEAD + "CA,2007,1,nan,2\n",
        LONG_HEAD + "CA,2007,1,2,inf\n",
        LONG_HEAD + "CA,2007,1,1e400,2\n",
        LONG_HEAD + "CA,1_0,1,1,2\n",
        LONG_HEAD + "CA,１２,1,1,2\n",
        LONG_HEAD + "CA,2019.0,1,1,2\n",
        LONG_HEAD + "CA,2019.5,1,1,2\n",  # numpy before 2.0 truncates a float in an int64 cell, and only warns
        LONG_HEAD + "CA,1.9e3,1,1,2\n",
        SERIES_HEAD + "2007,2.7,1\n",
        LONG_HEAD + "CA,2007,1,1,2,3\n",  # a row one cell wider
        LONG_HEAD + "CA,2007,1,1\n",  # a row one cell narrower
        LONG_HEAD + "CA,2007,1,1,2,3\nCA,2007,2,1\n",  # both: the comma count is that of a plain file
        LONG_HEAD + "C" * 140_000 + ",2007,1,1,2\n",  # a state cell past the CSV tokenizer's field limit
        SERIES_HEAD + "2007,1,1#2\n",
        SERIES_HEAD + "1_0,1,1\n",
        SERIES_HEAD + "2007,0,1\n",
        SERIES_HEAD + "10000,1,1\n",
    ],
)
def test_the_c_path_declines_what_it_cannot_answer_exactly(tmp_path, text):
    """These files are not plain, or numpy's C reader would not read them as
    `csv.reader` and `int` or `float` do: the `csv.reader` loop answers,
    with the plain reader's columns or message."""
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    keys = ("state", "year", "quarter") if text.startswith("state") else ("year", "quarter")
    with mock.patch.object(series_module, "_csv_columns", wraps=series_module._csv_columns) as csv_path:
        outcome = read_outcome(read_quarterly_csv, path, keys, False)
    assert csv_path.called
    assert outcome == read_outcome(read_quarterly_csv_plainly, path, keys, False)


def test_a_float_read_into_an_int64_cell_declines(tmp_path):
    """numpy 1.23 to 1.26 parse an int64 cell such as "2019.5" as a float,
    truncate it and only issue a DeprecationWarning; the C path treats that
    warning as a cell it cannot read, whatever the caller's warning filters."""
    path = tmp_path / "in.csv"
    path.write_text(LONG_HEAD + "CA,2019.5,1,1,2\n")
    keys = ("state", "year", "quarter")
    loadtxt = np.loadtxt

    def loadtxt_that_warns(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning, stacklevel=2)
        return loadtxt(["CA,2019,1,1,2"], *args[1:], **kwargs)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with mock.patch.object(np, "loadtxt", loadtxt_that_warns), \
                mock.patch.object(series_module, "_csv_columns", wraps=series_module._csv_columns) as csv_path:
            outcome = read_outcome(read_quarterly_csv, path, keys, False)
    assert csv_path.called
    assert outcome == read_outcome(read_quarterly_csv_plainly, path, keys, False)
    assert "malformed row" in str(outcome)


def test_the_c_path_answers_the_fixtures_and_a_50_state_panel(tmp_path):
    """The speed of reading the three CSV inputs rests on the C path: the
    fixture world's files and the benchmark's 50-state, 120-quarter panel
    never reach the `csv.reader` loop."""
    sys.path.insert(0, str(BENCH))
    try:
        worldgen = importlib.import_module("worldgen")
    finally:
        sys.path.remove(str(BENCH))
    spec = worldgen.gazetteer_world(GAZETTEER, 50, start_year=1990, n_quarters=120, news_rate=0.8,
                                    unknown_rate=2.0, article_states=True)
    worldgen.write_world(spec, tmp_path)
    with mock.patch.object(series_module, "_csv_columns", side_effect=AssertionError("the C path declined")):
        for world in (FIXTURES, tmp_path):
            panel = PanelDataset.from_csv(world / "panel.csv")
            Dataset.from_csv(world / "covariates.csv")
            load_series_csv(world / "fbi.csv")
    assert panel.present.shape == (50, 120)


class TestPanelJoin:
    def test_join_fills_zeros_ignores_extra_units_and_keeps_absent_rows(self):
        # NY has no row at Q0 + 1; the signals cover CA at Q0 + 2..Q0 + 3 only
        # and carry a unit, TX, that the panel lacks.
        panel = PanelDataset.from_rows(
            [("CA", Q0 + t, {"y": 1.0 + t}) for t in range(3)] + [("NY", Q0 + t, {"y": 4.0 + t}) for t in (0, 2)]
        )
        signals = PanelDataset.from_rows(
            [("CA", Q0 + 2, {"s": 8.0}), ("CA", Q0 + 3, {"s": 9.0}), ("TX", Q0 + 1, {"s": 5.0})]
        )
        joined = panel.joined(signals)
        assert (joined.unit_names, joined.start, joined.names) == (("CA", "NY"), Q0, ("s", "y"))
        np.testing.assert_array_equal(joined.present, panel.present)
        value = lambda unit, t, name: cell(joined, unit, Q0 + t, name)  # noqa: E731
        assert [value("CA", t, "s") for t in range(3)] == [0.0, 0.0, 8.0]
        assert [value("CA", t, "y") for t in range(3)] == [1.0, 2.0, 3.0]
        assert value("NY", 0, "s") == value("NY", 2, "s") == 0.0
        assert math.isnan(value("NY", 1, "s")) and math.isnan(value("NY", 1, "y"))

    def test_join_replaces_a_variable_of_the_same_name(self):
        panel = PanelDataset.from_rows([("CA", Q0, {"s": 1.0, "y": 2.0})])
        joined = panel.joined(PanelDataset.from_rows([("CA", Q0, {"s": 3.0})]))
        assert (cell(joined, "CA", Q0, "s"), cell(joined, "CA", Q0, "y")) == (3.0, 2.0)


def test_frame_arrays_are_read_only():
    # A window is a view of its frame's arrays, so no frame may write into them.
    frame = Dataset.align(Q0, {"y": [1.0, 2.0, 3.0]})
    panel = PanelDataset.from_rows([("CA", Q0, {"y": 1.0})])
    for data in (frame, frame.window(Q0 + 1, Q0 + 2), panel, panel.joined(panel)):
        with pytest.raises(ValueError, match="read-only"):
            data.values[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            data.present[0, 0] = False
