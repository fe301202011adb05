"""Unit tests for the Fig. 1 consumption-rate tables."""

import pytest

from repro.client.rates import (
    AGE_GROUPS,
    LANGUAGES,
    LISTENING_RATES,
    READING_RATES,
    rate_table_rows,
    reading_rate,
)


class TestTables:
    def test_all_cells_populated(self):
        for table in (READING_RATES, LISTENING_RATES):
            for language in LANGUAGES:
                for age in AGE_GROUPS:
                    assert table[language][age] > 0

    def test_reading_peaks_in_young_adults(self):
        """The NIH age curve: 18-25 reads fastest, then decline."""
        for language in LANGUAGES:
            ages = READING_RATES[language]
            assert ages["18-25"] == max(ages.values())
            assert ages["18-25"] > ages["60+"]
            assert ages["<12"] < ages["16-17"]

    def test_reading_generally_faster_than_listening_for_adults(self):
        for language in LANGUAGES:
            assert READING_RATES[language]["18-25"] > LISTENING_RATES[language]["18-25"]

    def test_all_rates_below_llm_generation_speed(self):
        """The paper's premise: consumption << generation (~30 tok/s)."""
        for table in (READING_RATES, LISTENING_RATES):
            for language in LANGUAGES:
                for value in table[language].values():
                    assert value < 12.0


class TestLookup:
    def test_reading_rate(self):
        assert reading_rate("english", "18-25") == READING_RATES["english"]["18-25"]

    def test_case_insensitive_language(self):
        assert reading_rate("English", "18-25") == reading_rate("english", "18-25")

    def test_unknown_language_raises(self):
        with pytest.raises(KeyError):
            reading_rate("klingon", "18-25")

    def test_unknown_age_raises(self):
        with pytest.raises(KeyError):
            reading_rate("english", "150+")


class TestRows:
    def test_row_count(self):
        assert len(rate_table_rows("reading")) == len(LANGUAGES) * len(AGE_GROUPS)

    def test_listening_rows(self):
        rows = rate_table_rows("listening")
        assert all(len(row) == 3 for row in rows)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            rate_table_rows("skimming")
