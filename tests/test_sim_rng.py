"""Unit tests for named RNG streams."""

import numpy as np
import pytest

from repro.sim.rng import RngStreams


class TestRngStreams:
    def test_same_name_same_stream(self):
        streams = RngStreams(7)
        assert streams.stream("a") is streams.stream("a")

    def test_reproducible_across_instances(self):
        first = RngStreams(42).stream("arrivals").uniform(size=5)
        second = RngStreams(42).stream("arrivals").uniform(size=5)
        np.testing.assert_array_equal(first, second)

    def test_different_names_differ(self):
        streams = RngStreams(42)
        a = streams.stream("a").uniform(size=8)
        b = streams.stream("b").uniform(size=8)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x").uniform(size=8)
        b = RngStreams(2).stream("x").uniform(size=8)
        assert not np.allclose(a, b)

    def test_new_consumer_does_not_perturb_existing(self):
        plain = RngStreams(5)
        seq_before = plain.stream("workload").uniform(size=4)
        mixed = RngStreams(5)
        mixed.stream("other")  # extra consumer created first
        seq_after = mixed.stream("workload").uniform(size=4)
        np.testing.assert_array_equal(seq_before, seq_after)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RngStreams(0).stream("")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStreams(-1)
