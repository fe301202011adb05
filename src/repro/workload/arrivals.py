"""Arrival processes used by the evaluation.

Each process exists in two spellings that produce the *same* timestamp
sequence from the same RNG:

* ``*_arrivals`` — the list factories: sorted arrival timestamps as an
  array (thin wrappers that drain the streams below).
* ``*_arrival_stream`` — lazy generators yielding one timestamp at a
  time, the workload plane's O(active)-memory entry point.  Gap draws
  happen in bounded chunks (``_GAP_CHUNK``), so a rate×duration product
  in the millions never materialises a proportional gap array; numpy
  ``Generator`` draws are sequence-stable across chunk splits, so the
  chunking never changes the produced timestamps.

Everything is pure given an RNG, so workloads are reproducible from
the root seed.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

# Upper bound on gaps drawn per batch.  Small workloads draw exactly
# the batches the pre-stream implementation drew (same RNG consumption,
# so downstream draws from a shared generator — e.g. BurstGPT's burst
# windows — are unchanged); huge rate×duration workloads are capped so
# allocation stays bounded.
_GAP_CHUNK = 65536


def burst_arrivals(
    burst_size: int,
    start: float = 0.0,
    spread: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """A flash crowd: ``burst_size`` requests at (or jittered around) ``start``.

    Args:
        burst_size: number of requests in the burst.
        start: burst epoch.
        spread: if positive, arrivals are uniformly jittered over
            ``[start, start + spread]`` — real "simultaneous" bursts
            still arrive over some milliseconds.
        rng: required when ``spread > 0``.
    """
    if burst_size <= 0:
        raise ValueError(f"burst_size must be positive, got {burst_size}")
    if spread < 0:
        raise ValueError(f"spread must be non-negative, got {spread}")
    if spread == 0:
        return np.full(burst_size, float(start))
    if rng is None:
        raise ValueError("rng is required when spread > 0")
    times = start + rng.uniform(0.0, spread, size=burst_size)
    return np.sort(times)


def burst_arrival_stream(
    burst_size: int,
    start: float = 0.0,
    spread: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[float]:
    """Streaming spelling of :func:`burst_arrivals`.

    A flash crowd is a bounded, simultaneous batch — jittered arrivals
    must be sorted before the first one can be yielded — so this
    materialises the burst and yields from it (burst sizes are the
    request count itself, never the unbounded rate×duration product
    the rate-driven streams exist to avoid).
    """
    yield from burst_arrivals(burst_size, start=start, spread=spread, rng=rng)


def poisson_arrivals(
    rate: float,
    duration: float,
    rng: np.random.Generator,
    start: float = 0.0,
) -> np.ndarray:
    """Poisson process with ``rate`` requests/s over ``duration`` seconds."""
    return np.asarray(list(poisson_arrival_stream(rate, duration, rng, start)))


def poisson_arrival_stream(
    rate: float,
    duration: float,
    rng: np.random.Generator,
    start: float = 0.0,
) -> Iterator[float]:
    """Poisson arrivals yielded one at a time.

    Inter-arrival gaps are drawn in batches of at most ``_GAP_CHUNK``
    — the historical batch size (``rate·duration·1.5 + 16``) when that
    is smaller, so existing workloads consume the RNG identically,
    while huge rate×duration products no longer allocate a
    proportional gap array up front.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    chunk = min(int(rate * duration * 1.5) + 16, _GAP_CHUNK)
    end = start + duration
    t = start
    while True:
        gaps = rng.exponential(1.0 / rate, size=chunk)
        for gap in gaps:
            t += gap
            if t >= end:
                return
            yield t


def gamma_arrivals(
    rate: float,
    cv: float,
    duration: float,
    rng: np.random.Generator,
    start: float = 0.0,
) -> np.ndarray:
    """Gamma-renewal arrivals with coefficient of variation ``cv``.

    ``cv > 1`` yields burstier-than-Poisson traffic — the regime
    BurstGPT documents for production LLM services.
    """
    return np.asarray(list(gamma_arrival_stream(rate, cv, duration, rng, start)))


def gamma_arrival_stream(
    rate: float,
    cv: float,
    duration: float,
    rng: np.random.Generator,
    start: float = 0.0,
) -> Iterator[float]:
    """Gamma-renewal arrivals yielded one at a time (one draw per gap,
    exactly the draw sequence of the historical list factory)."""
    if rate <= 0 or cv <= 0 or duration <= 0:
        raise ValueError("rate, cv and duration must all be positive")
    shape = 1.0 / (cv * cv)
    scale = 1.0 / (rate * shape)
    end = start + duration
    t = start
    while t < end:
        t += rng.gamma(shape, scale)
        if t < end:
            yield t
