"""Consumption-side substrate.

Models the client of a streaming request: a token buffer filled by the
server and drained by a user reading (or listening) at a fixed rate.
This is the paper's §3.2 consumption model, including stall/rebuffer
accounting and the per-token buffer occupancy used by both the QoS
metric and the buffer-aware scheduler.
"""

from repro.client.adaptive import AdaptiveRateController, AdaptiveRateParams
from repro.client.buffer import ClientBuffer
from repro.client.rates import (
    READING_RATES,
    LISTENING_RATES,
    reading_rate,
    rate_table_rows,
)

__all__ = [
    "AdaptiveRateController",
    "AdaptiveRateParams",
    "ClientBuffer",
    "READING_RATES",
    "LISTENING_RATES",
    "reading_rate",
    "rate_table_rows",
]
