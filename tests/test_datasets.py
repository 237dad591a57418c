"""CSV ingestion and the bundled datasets."""

import numpy as np
import pytest

from greycast.datasets import Series, _extended_labels, load_bundled, parse_dataset
from greycast.errors import DatasetError, TooFewSamples


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestBundled:
    def test_nuclear(self):
        data = load_bundled("nuclear")
        assert len(data) == 12
        assert data.labels[0] == 2006 and data.values[0] == 12.4
        assert data.labels[-1] == 2017 and data.values[-1] == 56.2

    def test_oilfield(self):
        data = load_bundled("oilfield")
        assert len(data) == 14
        assert data.labels == tuple(range(1999, 2013))
        assert data.values[0] == 73.8217

    def test_settlement(self):
        data = load_bundled("settlement")
        assert len(data) == 11
        assert data.labels == tuple(range(10, 111, 10))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            load_bundled("mystery")


class TestParse:
    def test_round_trip_basic(self, tmp_path):
        path = write(tmp_path, "period,value\n1,1.5\n2,2.5\n3,3.5\n4,4.5\n")
        data = parse_dataset(path)
        assert data.labels == (1, 2, 3, 4)
        np.testing.assert_array_equal(data.values, [1.5, 2.5, 3.5, 4.5])

    def test_comments_blanks_crlf_and_whitespace(self, tmp_path):
        text = "# leading comment\r\nperiod,value\r\n1, 1.5 \r\n\r\n# middle\r\n2,2.5\r\n3,3.5\r\n4,4.5\r\n"
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        data = parse_dataset(path)
        assert data.labels == (1, 2, 3, 4)

    def test_header_is_case_insensitive(self, tmp_path):
        path = write(tmp_path, "Period,Value\n1,1\n2,2\n3,3\n4,4\n")
        assert len(parse_dataset(path)) == 4

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "1,1.5\n2,2.5\n3,3.5\n4,4.5\n")
        with pytest.raises(DatasetError, match="header"):
            parse_dataset(path)

    def test_zero_value_names_the_line(self, tmp_path):
        path = write(tmp_path, "period,value\n1,1.5\n2,0\n3,3.5\n4,4.5\n")
        with pytest.raises(DatasetError, match=":3:"):
            parse_dataset(path)

    def test_negative_value_rejected(self, tmp_path):
        path = write(tmp_path, "period,value\n1,1.5\n2,-2.5\n3,3.5\n4,4.5\n")
        with pytest.raises(DatasetError, match="positive"):
            parse_dataset(path)

    def test_non_numeric_value_names_the_line(self, tmp_path):
        path = write(tmp_path, "period,value\n1,1.5\n2,two\n3,3.5\n4,4.5\n")
        with pytest.raises(DatasetError, match=":3:.*not a number"):
            parse_dataset(path)

    def test_non_integer_period_rejected(self, tmp_path):
        path = write(tmp_path, "period,value\n1.5,1.5\n2,2.5\n3,3.5\n4,4.5\n")
        with pytest.raises(DatasetError, match="integer"):
            parse_dataset(path)

    def test_decreasing_periods_rejected(self, tmp_path):
        path = write(tmp_path, "period,value\n1,1.5\n3,2.5\n2,3.5\n4,4.5\n")
        with pytest.raises(DatasetError, match="increasing"):
            parse_dataset(path)

    def test_short_file(self, tmp_path):
        path = write(tmp_path, "period,value\n1,1.5\n2,2.5\n3,3.5\n")
        with pytest.raises(TooFewSamples):
            parse_dataset(path)

    def test_wrong_field_count(self, tmp_path):
        path = write(tmp_path, "period,value\n1,1.5,9\n2,2.5\n3,3.5\n4,4.5\n")
        with pytest.raises(DatasetError, match="2 fields"):
            parse_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            parse_dataset(tmp_path / "nope.csv")


class TestSeries:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Series(labels=(1, 2), values=np.array([1.0]))

    @pytest.mark.parametrize(
        "labels",
        [(1, 2), (2006.7, 2007.7, 2008.7), (3, 2, 1), (1, 1, 2), (True, 2, 3)],
    )
    def test_bad_labels_rejected(self, labels):
        with pytest.raises(ValueError):
            Series(labels=labels, values=np.array([1.0, 2.0, 3.0]))

    def test_whole_number_float_labels_become_ints(self):
        series = Series(labels=np.array([2001.0, 2003.0]), values=np.array([1.0, 2.0]))
        assert series.labels == (2001, 2003)
        assert all(type(label) is int for label in series.labels)

    def test_values_are_read_only(self):
        series = Series(labels=(1, 2), values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            series.values[0] = 9.0


class TestExtendedLabels:
    @pytest.mark.parametrize(
        "labels, horizon, want",
        [
            ((2006, 2007, 2008), 2, [2006, 2007, 2008, 2009, 2010]),
            ((10, 20, 30), 0, [10, 20, 30]),
            ((1, 3, 4, 5, 6), 2, [1, 3, 4, 5, 6, 7, 8]),  # the most common stride
            ((1, 3, 4, 6, 7), 1, [1, 3, 4, 6, 7, 8]),  # a tie goes to the smaller one
            ((5,), 2, [5, 6, 7]),
        ],
    )
    def test_extends_by_the_modal_stride(self, labels, horizon, want):
        assert _extended_labels(labels, horizon) == want
