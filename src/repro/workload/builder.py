"""Workload assembly: arrivals + lengths + rates -> Request list/stream.

A :class:`WorkloadSpec` pins down everything random about a workload;
:class:`WorkloadBuilder` turns it into concrete ``Request`` objects
using named RNG streams, so the same spec + seed always yields the
same workload regardless of which experiment consumes it.

Two spellings share one sampling path: :meth:`WorkloadBuilder.stream`
yields requests lazily in arrival order (the streaming workload
plane's entry point — O(1) memory however many requests the spec
describes), and :meth:`WorkloadBuilder.build` drains it into the
classic list.  Both produce identical requests: every sampler owns an
independent named RNG stream, so per-request interleaving of the
draws equals the historical batch order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.sim.rng import RngStreams
from repro.workload.arrivals import (
    burst_arrival_stream,
    poisson_arrival_stream,
)
from repro.workload.burstgpt import BurstGPTTraceGenerator
from repro.workload.lengths import LengthSampler, NormalLengthSampler
from repro.workload.production import ProductionTraceGenerator
from repro.workload.request import Request


@dataclass(frozen=True)
class RateMixture:
    """A categorical mixture of consumption rates.

    ``rates`` and ``weights`` must have equal length; weights are
    normalised once, at construction.  A single-entry mixture is a
    fixed rate.
    """

    rates: Sequence[float]
    weights: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.rates) != len(self.weights):
            raise ValueError("rates and weights must have equal length")
        if not self.rates:
            raise ValueError("mixture must have at least one component")
        if any(r <= 0 for r in self.rates):
            raise ValueError("all rates must be positive")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative and sum > 0")
        # The normalised weights every draw hands to ``rng.choice``.
        # A plain attribute, not a field: equality, hashing and repr
        # read ``weights`` only.
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "_p", weights / weights.sum())

    def sample(self, rng: np.random.Generator) -> float:
        idx = rng.choice(len(self.rates), p=self._p)
        return float(self.rates[idx])

    @classmethod
    def fixed(cls, rate: float) -> "RateMixture":
        return cls(rates=(rate,), weights=(1.0,))


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of a workload.

    Attributes:
        arrival: one of "burst", "poisson", "burstgpt", "production".
        n_requests: request count for "burst"; for rate-driven
            processes it caps the generated count (None = no cap).
        duration: horizon for rate-driven arrival processes.
        poisson_rate: λ for "poisson".
        burst_spread: jitter window for "burst".
        lengths: length sampler.
        rates: consumption-rate mixture.
        burstgpt: generator parameters for "burstgpt".
        production: generator parameters for "production".
    """

    arrival: str = "burst"
    n_requests: Optional[int] = 64
    duration: float = 60.0
    poisson_rate: float = 2.0
    burst_spread: float = 0.25
    lengths: LengthSampler = field(default_factory=NormalLengthSampler)
    rates: RateMixture = field(default_factory=lambda: RateMixture.fixed(10.0))
    burstgpt: BurstGPTTraceGenerator = field(default_factory=BurstGPTTraceGenerator)
    production: ProductionTraceGenerator = field(default_factory=ProductionTraceGenerator)

    def __post_init__(self) -> None:
        if self.arrival not in ("burst", "poisson", "burstgpt", "production"):
            raise ValueError(f"unknown arrival kind {self.arrival!r}")
        if self.arrival == "burst" and (self.n_requests is None or self.n_requests <= 0):
            raise ValueError("burst workloads need a positive n_requests")


class WorkloadBuilder:
    """Turns a :class:`WorkloadSpec` into ``Request`` objects — lazily
    (:meth:`stream`) or as the classic materialised list (:meth:`build`)."""

    def __init__(self, spec: WorkloadSpec, rng_streams: RngStreams) -> None:
        self.spec = spec
        self._rng = rng_streams

    def _arrival_stream(self) -> Iterator[float]:
        """Arrival timestamps, lazily, in non-decreasing order.

        Rate-driven processes (poisson, production) stream natively —
        bounded gap-chunk draws, O(1) live timestamps.  Flash crowds
        are bounded by construction, and the BurstGPT synthesizer must
        sort baseline + burst overlays before the first arrival is
        known, so both yield from their materialised arrays.
        """
        spec = self.spec
        rng = self._rng.stream("arrivals")
        if spec.arrival == "burst":
            assert spec.n_requests is not None
            return burst_arrival_stream(
                spec.n_requests, spread=spec.burst_spread,
                rng=rng if spec.burst_spread > 0 else None,
            )
        if spec.arrival == "poisson":
            return poisson_arrival_stream(spec.poisson_rate, spec.duration, rng)
        if spec.arrival == "burstgpt":
            return iter(spec.burstgpt.generate(spec.duration, rng))
        return spec.production.generate_stream(spec.duration, rng)

    def stream(self) -> Iterator[Request]:
        """Yield the workload's requests lazily, in arrival order.

        Identical to iterating :meth:`build`'s list: the per-request
        length/rate draws come from their own named streams, so
        sampling them as each arrival is popped (instead of after the
        whole arrival array) yields the same values, and the
        ``n_requests`` cap simply stops consuming the arrival process
        (the capped prefix is unchanged).
        """
        spec = self.spec
        length_rng = self._rng.stream("lengths")
        rate_rng = self._rng.stream("rates")
        cap = spec.n_requests
        for req_id, arrival in enumerate(self._arrival_stream()):
            if cap is not None and req_id >= cap:
                return
            prompt_len, output_len = spec.lengths.sample(length_rng)
            rate = spec.rates.sample(rate_rng)
            yield Request(
                req_id=req_id,
                arrival_time=float(arrival),
                prompt_len=prompt_len,
                output_len=output_len,
                rate=rate,
            )

    def build(self) -> list:
        """Return the request list, sorted by arrival time (the
        materialised spelling of :meth:`stream`)."""
        return list(self.stream())
