"""Tests for the plain-text table renderer."""

import pytest

from repro.util.tables import ascii_chart, format_series, format_table


class TestFormatTable:
    def test_aligns_columns(self):
        out = format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = out.split("\n")
        assert len(lines) == 4
        # header and data rows share the same column offsets
        assert lines[0].index("bb") == lines[2].index("2")

    def test_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.startswith("T\n")

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        out = format_table(["v"], [[0.000012345], [123456.0], [1.5], [0.0]])
        assert "1.234e-05" in out or "1.235e-05" in out
        assert "1.235e+05" in out or "1.234e+05" in out
        assert "1.5" in out


class TestFormatSeries:
    def test_basic(self):
        out = format_series("x", [1, 2], {"y": [10, 20], "z": [30, 40]})
        assert "x" in out and "y" in out and "z" in out
        assert "40" in out

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", [1, 2], {"y": [1]})


class TestAsciiChart:
    def test_basic_shape(self):
        out = ascii_chart({"a": [0, 1, 2, 3]}, height=4, width=16)
        lines = out.split("\n")
        assert len(lines) == 4 + 3  # grid + two borders + legend
        assert "*=a" in lines[-1]

    def test_rising_series_ends_top_right(self):
        out = ascii_chart({"a": [0, 10]}, height=5, width=10)
        lines = out.split("\n")
        top_grid_row = lines[1]
        assert "*" in top_grid_row[-3:]

    def test_multiple_series_glyphs(self):
        out = ascii_chart({"a": [1, 2], "b": [2, 1]}, height=4, width=8)
        assert "*" in out and "o" in out

    def test_title(self):
        out = ascii_chart({"a": [1]}, title="T")
        assert out.startswith("T\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart({})
        with pytest.raises(ValueError):
            ascii_chart({"a": []})

    def test_too_many_series(self):
        with pytest.raises(ValueError, match="at most"):
            ascii_chart({str(i): [1] for i in range(9)})

    def test_constant_series(self):
        out = ascii_chart({"a": [5, 5, 5]}, height=3, width=6)
        assert "*" in out
