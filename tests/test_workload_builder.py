"""Unit tests for workload assembly."""

import numpy as np
import pytest

from repro.sim.rng import RngStreams
from repro.workload.builder import RateMixture, WorkloadBuilder, WorkloadSpec
from repro.workload.request import Request


class TestRateMixture:
    def test_fixed_rate(self):
        mixture = RateMixture.fixed(12.0)
        rng = np.random.default_rng(0)
        assert all(mixture.sample(rng) == 12.0 for _ in range(10))

    def test_mixture_proportions(self):
        mixture = RateMixture(rates=(10.0, 20.0), weights=(0.3, 0.7))
        rng = np.random.default_rng(1)
        samples = [mixture.sample(rng) for _ in range(3000)]
        frac_20 = sum(1 for s in samples if s == 20.0) / len(samples)
        assert abs(frac_20 - 0.7) < 0.05

    @pytest.mark.parametrize("weights", [(0.3, 0.7), (1.0, 1.0, 1.0),
                                         (0.1, 0.0, 2.5, 7.0)])
    def test_draws_match_per_call_normalisation(self, weights):
        # The weights are normalised once at construction; 10,000
        # seeded draws must equal the per-call formula they replace.
        rates = tuple(5.0 * (i + 1) for i in range(len(weights)))
        mixture = RateMixture(rates=rates, weights=weights)
        rng_once = np.random.default_rng(7)
        rng_per_call = np.random.default_rng(7)

        def per_call():
            p = np.asarray(weights, dtype=float)
            p = p / p.sum()
            return float(rates[rng_per_call.choice(len(rates), p=p)])

        assert ([mixture.sample(rng_once) for _ in range(10_000)]
                == [per_call() for _ in range(10_000)])

    def test_equality_reads_fields_only(self):
        assert (RateMixture(rates=(10.0, 20.0), weights=(1.0, 3.0))
                == RateMixture(rates=(10.0, 20.0), weights=(1.0, 3.0)))
        assert len({RateMixture.fixed(10.0), RateMixture.fixed(10.0)}) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RateMixture(rates=(), weights=())
        with pytest.raises(ValueError):
            RateMixture(rates=(10.0,), weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            RateMixture(rates=(-1.0,), weights=(1.0,))
        with pytest.raises(ValueError):
            RateMixture(rates=(1.0,), weights=(0.0,))


class TestSpec:
    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(arrival="fractal")

    def test_burst_needs_count(self):
        with pytest.raises(ValueError):
            WorkloadSpec(arrival="burst", n_requests=None)


class TestBuilder:
    def test_burst_build(self):
        spec = WorkloadSpec(arrival="burst", n_requests=16, burst_spread=0.0)
        requests = WorkloadBuilder(spec, RngStreams(0)).build()
        assert len(requests) == 16
        assert all(isinstance(r, Request) for r in requests)
        assert all(r.arrival_time == 0.0 for r in requests)

    def test_req_ids_unique_and_ordered(self):
        spec = WorkloadSpec(arrival="poisson", n_requests=None,
                            poisson_rate=5.0, duration=20.0)
        requests = WorkloadBuilder(spec, RngStreams(1)).build()
        ids = [r.req_id for r in requests]
        assert ids == list(range(len(requests)))
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == sorted(arrivals)

    def test_reproducible_from_seed(self):
        spec = WorkloadSpec(arrival="burstgpt", n_requests=None, duration=60.0)
        a = WorkloadBuilder(spec, RngStreams(7)).build()
        b = WorkloadBuilder(spec, RngStreams(7)).build()
        assert [(r.arrival_time, r.prompt_len, r.output_len) for r in a] == [
            (r.arrival_time, r.prompt_len, r.output_len) for r in b
        ]

    def test_different_seeds_differ(self):
        spec = WorkloadSpec(arrival="poisson", n_requests=None,
                            poisson_rate=5.0, duration=30.0)
        a = WorkloadBuilder(spec, RngStreams(1)).build()
        b = WorkloadBuilder(spec, RngStreams(2)).build()
        assert [r.arrival_time for r in a] != [r.arrival_time for r in b]

    def test_n_requests_caps_rate_driven(self):
        spec = WorkloadSpec(arrival="poisson", n_requests=5,
                            poisson_rate=10.0, duration=100.0)
        requests = WorkloadBuilder(spec, RngStreams(3)).build()
        assert len(requests) == 5

    def test_production_arrival_kind(self):
        spec = WorkloadSpec(arrival="production", n_requests=None, duration=120.0)
        requests = WorkloadBuilder(spec, RngStreams(4)).build()
        assert len(requests) > 0

    def test_rates_come_from_mixture(self):
        spec = WorkloadSpec(
            arrival="burst", n_requests=64,
            rates=RateMixture(rates=(15.0, 20.0), weights=(0.5, 0.5)),
        )
        requests = WorkloadBuilder(spec, RngStreams(5)).build()
        assert set(r.rate for r in requests) == {15.0, 20.0}


class TestPopulationMixture:
    def test_covers_all_fig1_cells(self):
        mixture = RateMixture.from_population("reading")
        assert len(mixture.rates) == 24  # 3 languages x 8 age groups

    def test_language_restriction(self):
        mixture = RateMixture.from_population("reading", languages=["english"])
        assert len(mixture.rates) == 8
        assert max(mixture.rates) < 8.0  # english reading tops out ~5.8

    def test_speed_multiplier(self):
        base = RateMixture.from_population("reading", languages=["english"])
        doubled = RateMixture.from_population(
            "reading", languages=["english"], speed_multiplier=2.0
        )
        assert max(doubled.rates) == pytest.approx(2 * max(base.rates))

    def test_listening_mode(self):
        mixture = RateMixture.from_population("listening")
        assert all(r < 5.0 for r in mixture.rates)

    def test_validation(self):
        with pytest.raises(ValueError):
            RateMixture.from_population("reading", speed_multiplier=0.0)
        with pytest.raises(ValueError):
            RateMixture.from_population("reading", languages=["klingon"])

    def test_end_to_end_sampling(self):
        spec = WorkloadSpec(
            arrival="burst", n_requests=32,
            rates=RateMixture.from_population("reading", speed_multiplier=2.0),
        )
        requests = WorkloadBuilder(spec, RngStreams(0)).build()
        assert len({r.rate for r in requests}) > 3  # genuinely mixed
