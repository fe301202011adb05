"""Unit tests for length samplers."""

import numpy as np

from repro.workload.lengths import LogNormalLengthSampler, NormalLengthSampler


class TestNormalSampler:
    def test_means_approximately_match(self):
        rng = np.random.default_rng(0)
        sampler = NormalLengthSampler(prompt_mean=512, prompt_std=64,
                                      output_mean=1024, output_std=128)
        samples = [sampler.sample(rng) for _ in range(2000)]
        prompts = np.array([p for p, _ in samples])
        outputs = np.array([o for _, o in samples])
        assert abs(prompts.mean() - 512) < 15
        assert abs(outputs.mean() - 1024) < 25

    def test_clamping_to_bounds(self):
        rng = np.random.default_rng(0)
        sampler = NormalLengthSampler(
            prompt_mean=1, prompt_std=100, output_mean=1, output_std=100,
            min_len=8, max_len=64,
        )
        for _ in range(200):
            prompt, output = sampler.sample(rng)
            assert 8 <= prompt <= 64
            assert 8 <= output <= 64

    def test_integer_outputs(self):
        rng = np.random.default_rng(0)
        prompt, output = NormalLengthSampler().sample(rng)
        assert isinstance(prompt, int) and isinstance(output, int)

    def test_long_regime_longer_than_short(self):
        rng = np.random.default_rng(1)
        # Table 1's "S" and "L" mean lengths.
        short_lengths = NormalLengthSampler(prompt_mean=512.0, prompt_std=128.0,
                                            output_mean=1024.0, output_std=256.0)
        long_lengths = NormalLengthSampler(prompt_mean=1024.0, prompt_std=256.0,
                                           output_mean=2048.0, output_std=512.0)
        short = np.mean([short_lengths.sample(rng)[0] for _ in range(500)])
        long_ = np.mean([long_lengths.sample(rng)[0] for _ in range(500)])
        assert long_ > short * 1.5


class TestLogNormalSampler:
    def test_heavy_tail(self):
        """Log-normal produces occasional much-longer-than-median draws."""
        rng = np.random.default_rng(2)
        sampler = LogNormalLengthSampler(prompt_median=256, prompt_sigma=0.9)
        prompts = np.array([sampler.sample(rng)[0] for _ in range(3000)])
        assert np.percentile(prompts, 99) > 4 * np.median(prompts)

    def test_median_approximately_matches(self):
        rng = np.random.default_rng(3)
        sampler = LogNormalLengthSampler(prompt_median=256, prompt_sigma=0.5)
        prompts = np.array([sampler.sample(rng)[0] for _ in range(3000)])
        assert abs(np.median(prompts) - 256) < 30
