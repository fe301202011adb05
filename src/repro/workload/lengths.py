"""Prompt/output length samplers.

The paper's controlled experiments (§7.3) draw input/output lengths
from normal distributions around the S/L means in Table 1; the
ShareGPT-style traces use a heavier-tailed log-normal.  Both samplers
clamp to sane bounds so degenerate draws never reach the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LengthSampler:
    """Base sampler interface: draw (prompt_len, output_len) pairs."""

    min_len: int = 8
    max_len: int = 32768

    def sample(self, rng: np.random.Generator) -> tuple:
        raise NotImplementedError

    def _clamp(self, value: float) -> int:
        return int(min(self.max_len, max(self.min_len, round(value))))


@dataclass(frozen=True)
class NormalLengthSampler(LengthSampler):
    """Normal-distributed lengths (paper §7.3 controlled workloads)."""

    prompt_mean: float = 512.0
    prompt_std: float = 128.0
    output_mean: float = 1024.0
    output_std: float = 256.0

    def sample(self, rng: np.random.Generator) -> tuple:
        prompt = self._clamp(rng.normal(self.prompt_mean, self.prompt_std))
        output = self._clamp(rng.normal(self.output_mean, self.output_std))
        return prompt, output


@dataclass(frozen=True)
class LogNormalLengthSampler(LengthSampler):
    """Log-normal lengths approximating ShareGPT's heavy tail."""

    prompt_median: float = 256.0
    prompt_sigma: float = 0.9
    output_median: float = 512.0
    output_sigma: float = 0.8

    def sample(self, rng: np.random.Generator) -> tuple:
        prompt = self._clamp(rng.lognormal(np.log(self.prompt_median), self.prompt_sigma))
        output = self._clamp(rng.lognormal(np.log(self.output_median), self.output_sigma))
        return prompt, output
