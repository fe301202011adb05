"""Unit tests for statistics and table rendering."""

import pytest

from repro.analysis.stats import Summary, percentile, summarize
from repro.analysis.tables import format_number, render_table


class TestStats:
    def test_percentile_interpolation(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_percentile_bounds(self):
        data = [5, 1, 9]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([1], 120)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0, 100.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(26.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 100.0
        assert summary.p50 == pytest.approx(2.5)

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestFormatting:
    def test_integers_verbatim(self):
        assert format_number(42) == "42"

    def test_floats_rounded(self):
        assert format_number(3.14159) == "3.142"

    def test_extreme_magnitudes_scientific(self):
        assert "e" in format_number(1.5e7)
        assert "e" in format_number(1.5e-5)

    def test_strings_pass_through(self):
        assert format_number("abc") == "abc"

    def test_none_becomes_dash(self):
        assert format_number(None) == "-"


class TestTables:
    def test_render_alignment(self):
        table = render_table(["a", "bbbb"], [[1, 2], [333, 4]])
        lines = table.split("\n")
        assert len(lines) == 4  # header, separator, two rows
        assert len(set(len(line) for line in lines)) == 1  # aligned

    def test_title_prepended(self):
        table = render_table(["x"], [[1]], title="My Table")
        assert table.startswith("My Table")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])
