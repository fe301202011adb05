"""Token consumption rates by age group and language (paper Figure 1).

The paper derives these from NIH reading-speed measurements (Liu et
al., Scientific Reports 2017: reading speed rises through early
adulthood, declines with age) combined with OpenAI's tokens-per-word
guidance (English ~1.33 tokens/word; Chinese/Japanese more tokens per
written unit of meaning).  Values are tokens/second.

These tables drive (a) the Figure 1 reproduction bench and (b) rate
sampling for user-population workloads.
"""

from __future__ import annotations

AGE_GROUPS: tuple = ("<12", "12-13", "14-15", "16-17", "18-25", "26-45", "46-60", "60+")
LANGUAGES: tuple = ("english", "chinese", "japanese")

# Reading: words/min from the NIH age curve, converted at
# ~1.33 tok/word (en), ~1.7 (zh), ~2.1 (ja effective, incl. kana).
READING_RATES: dict = {
    "english": {
        "<12": 2.9, "12-13": 3.9, "14-15": 4.6, "16-17": 5.1,
        "18-25": 5.8, "26-45": 5.5, "46-60": 4.8, "60+": 3.9,
    },
    "chinese": {
        "<12": 3.4, "12-13": 4.6, "14-15": 5.5, "16-17": 6.1,
        "18-25": 7.0, "26-45": 6.6, "46-60": 5.7, "60+": 4.6,
    },
    "japanese": {
        "<12": 3.8, "12-13": 5.1, "14-15": 6.1, "16-17": 6.8,
        "18-25": 7.8, "26-45": 7.4, "46-60": 6.4, "60+": 5.2,
    },
}

# Listening: speech runs ~150 wpm for English and the TTS-paced
# equivalents for zh/ja; flatter across ages than reading.
LISTENING_RATES: dict = {
    "english": {
        "<12": 2.8, "12-13": 3.1, "14-15": 3.3, "16-17": 3.3,
        "18-25": 3.4, "26-45": 3.4, "46-60": 3.3, "60+": 3.1,
    },
    "chinese": {
        "<12": 3.3, "12-13": 3.7, "14-15": 3.9, "16-17": 4.0,
        "18-25": 4.1, "26-45": 4.1, "46-60": 3.9, "60+": 3.7,
    },
    "japanese": {
        "<12": 3.7, "12-13": 4.1, "14-15": 4.4, "16-17": 4.5,
        "18-25": 4.6, "26-45": 4.6, "46-60": 4.4, "60+": 4.1,
    },
}


def _lookup(table: dict, language: str, age_group: str) -> float:
    language = language.lower()
    if language not in table:
        known = ", ".join(sorted(table))
        raise KeyError(f"unknown language {language!r}; known: {known}")
    ages = table[language]
    if age_group not in ages:
        known = ", ".join(AGE_GROUPS)
        raise KeyError(f"unknown age group {age_group!r}; known: {known}")
    return ages[age_group]


def reading_rate(language: str, age_group: str) -> float:
    """Reading consumption rate in tokens/second."""
    return _lookup(READING_RATES, language, age_group)


def rate_table_rows(mode: str = "reading") -> list:
    """Rows of (language, age_group, tokens/s) for the Fig. 1 bench."""
    if mode == "reading":
        table = READING_RATES
    elif mode == "listening":
        table = LISTENING_RATES
    else:
        raise ValueError(f"mode must be 'reading' or 'listening', got {mode!r}")
    rows = []
    for language in LANGUAGES:
        for age in AGE_GROUPS:
            rows.append((language, age, table[language][age]))
    return rows
