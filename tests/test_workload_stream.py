"""Streaming workload plane: stream-vs-materialised parity.

The whole plane rests on one invariant: a workload stream yields the
*same* request sequence its materialised spelling builds (numpy
``Generator`` draws are sequence-stable across batch splits, and every
sampler owns an independent named RNG stream).  These tests pin that
invariant for every arrival process, plus the bounded-draw behaviour
that motivated the streaming rewrite of ``poisson_arrivals``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.sim.rng import RngStreams
from repro.workload.arrivals import (
    burst_arrival_stream,
    gamma_arrival_stream,
    gamma_arrivals,
    poisson_arrival_stream,
    poisson_arrivals,
)
from repro.workload.builder import RateMixture, WorkloadBuilder, WorkloadSpec
from repro.workload.lengths import NormalLengthSampler
from repro.workload.production import ProductionTraceGenerator


def rng(seed=0):
    return np.random.default_rng(seed)


class TestArrivalStreamParity:
    def test_poisson_stream_matches_list_factory(self):
        times = poisson_arrivals(5.0, 30.0, rng())
        streamed = list(poisson_arrival_stream(5.0, 30.0, rng()))
        assert np.array_equal(times, np.asarray(streamed))

    def test_poisson_chunking_does_not_change_times(self, monkeypatch):
        # Chunk boundaries must be invisible to the produced gap
        # sequence: numpy Generator draws are sequence-stable, so a
        # tiny chunk cap yields exactly the default-cap timestamps.
        import repro.workload.arrivals as arrivals_mod

        baseline = list(poisson_arrival_stream(50.0, 20.0, rng(7)))
        monkeypatch.setattr(arrivals_mod, "_GAP_CHUNK", 13)
        chunked = list(poisson_arrival_stream(50.0, 20.0, rng(7)))
        assert baseline == chunked
        assert chunked == sorted(chunked)

    def test_poisson_stream_is_lazy(self):
        # Pulling a handful of arrivals from a million-request-scale
        # process must not draw the whole horizon's gaps.
        stream = poisson_arrival_stream(1000.0, 1e6, rng())
        first = list(itertools.islice(stream, 10))
        assert len(first) == 10
        assert first == sorted(first)

    def test_gamma_stream_matches_list_factory(self):
        times = gamma_arrivals(3.0, 2.0, 40.0, rng(3))
        streamed = list(gamma_arrival_stream(3.0, 2.0, 40.0, rng(3)))
        assert np.array_equal(times, np.asarray(streamed))

    def test_burst_stream_matches_list_factory(self):
        streamed = list(burst_arrival_stream(32, spread=0.5, rng=rng(1)))
        assert len(streamed) == 32
        assert streamed == sorted(streamed)

    def test_production_stream_matches_generate(self):
        generator = ProductionTraceGenerator(mean_rate=4.0)
        times = generator.generate(120.0, rng(9))
        streamed = list(generator.generate_stream(120.0, rng(9)))
        assert np.array_equal(times, np.asarray(streamed))

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            list(poisson_arrival_stream(0.0, 10.0, rng()))
        with pytest.raises(ValueError):
            list(poisson_arrival_stream(1.0, 0.0, rng()))


class TestBuilderStreamParity:
    @pytest.mark.parametrize("arrival", ["burst", "poisson", "burstgpt", "production"])
    def test_stream_equals_build(self, arrival):
        spec = WorkloadSpec(
            arrival=arrival,
            n_requests=48,
            duration=30.0,
            poisson_rate=4.0,
            lengths=NormalLengthSampler(),
            rates=RateMixture.fixed(10.0),
        )
        built = WorkloadBuilder(spec, RngStreams(11)).build()
        streamed = list(WorkloadBuilder(spec, RngStreams(11)).stream())
        assert len(built) == len(streamed)
        for a, b in zip(built, streamed):
            assert (a.req_id, a.arrival_time, a.prompt_len, a.output_len, a.rate) == (
                b.req_id, b.arrival_time, b.prompt_len, b.output_len, b.rate
            )

    def test_request_cap_stops_the_stream(self):
        spec = WorkloadSpec(arrival="poisson", n_requests=10, duration=1e5,
                            poisson_rate=100.0)
        streamed = list(WorkloadBuilder(spec, RngStreams(0)).stream())
        assert len(streamed) == 10

    def test_stream_workload_helper(self):
        spec = WorkloadSpec(arrival="burst", n_requests=8, burst_spread=0.0)
        assert len(list(WorkloadBuilder(spec, RngStreams(0)).stream())) == 8
