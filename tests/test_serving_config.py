"""Unit tests for the serving configuration."""

from dataclasses import replace

import pytest

from repro.gpu.hardware import get_hardware
from repro.gpu.models import get_model
from repro.memory.kv_manager import KVManagerConfig
from repro.serving.config import ServingConfig


class TestResolution:
    def test_names_resolve_to_specs(self):
        config = ServingConfig(hardware="h200", model="llama3-8b")
        assert config.hardware is get_hardware("h200")
        assert config.model is get_model("llama3-8b")

    def test_spec_objects_pass_through(self):
        hw, model = get_hardware("a6000"), get_model("qwen2-7b")
        config = ServingConfig(hardware=hw, model=model)
        assert config.hardware is hw and config.model is model


class TestMemFrac:
    def test_explicit_mem_frac(self):
        config = ServingConfig(hardware="h200", model="llama3-8b", mem_frac=0.3)
        assert config.resolved_mem_frac() == 0.3
        assert config.kv_pool_bytes() == pytest.approx(0.3 * 141e9)

    def test_derived_mem_frac_leaves_reserve(self):
        config = ServingConfig(hardware="h200", model="llama3-8b")
        # Weights are 16/141 of memory; 10% reserve on top.
        assert config.resolved_mem_frac() == pytest.approx(1 - 16 / 141 - 0.10)

    def test_model_too_big_rejected(self):
        with pytest.raises(ValueError):
            ServingConfig(hardware="rtx4090", model="qwen2.5-32b")

    def test_invalid_mem_frac_rejected(self):
        with pytest.raises(ValueError):
            ServingConfig(mem_frac=0.0)
        with pytest.raises(ValueError):
            ServingConfig(mem_frac=1.0)


class TestCapacity:
    def test_capacity_tokens(self):
        config = ServingConfig(hardware="h200", model="llama3-8b", mem_frac=0.3)
        expected = int(0.3 * 141e9 / 131072)
        assert config.kv_capacity_tokens() == expected

    def test_capacity_blocks(self):
        config = ServingConfig(
            hardware="h200", model="llama3-8b", mem_frac=0.3, block_size=16
        )
        assert config.kv_capacity_blocks() == config.kv_capacity_tokens() // 16

    def test_kv_block_size_synchronised(self):
        config = ServingConfig(block_size=32, kv=KVManagerConfig(block_size=16))
        assert config.kv.block_size == 32

    def test_shared_kv_config_is_not_mutated(self):
        # The caller's frozen KVManagerConfig is copied, never written:
        # one object passed to two configs keeps its own block size,
        # hash and equality.
        kv = KVManagerConfig()
        before = (kv.block_size, hash(kv))
        first = ServingConfig(block_size=32, kv=kv)
        second = ServingConfig(block_size=16, kv=kv)
        assert (first.kv.block_size, second.kv.block_size) == (32, 16)
        assert (kv.block_size, hash(kv)) == before
        assert first.kv == replace(kv, block_size=32)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(block_size=0)
        with pytest.raises(ValueError):
            ServingConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServingConfig(max_prefill_tokens=0)
        with pytest.raises(ValueError):
            ServingConfig(prefill_chunk_size=0)
