"""System factory: scheduler + KV configuration per evaluated system.

The paper compares four systems (§7.1.4) plus three TokenFlow
ablations (Table 2); this module is the single place their wiring is
defined, so every experiment builds identical systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines import (
    AndesScheduler,
    MLFQScheduler,
    SGLangChunkedScheduler,
    SGLangScheduler,
)
from repro.core.scheduler import TokenFlowParams, TokenFlowScheduler
from repro.memory.kv_manager import KVManagerConfig
from repro.serving.config import ServingConfig
from repro.serving.interface import BaseScheduler
from repro.serving.server import ServingSystem

SYSTEM_NAMES = ("sglang", "sglang-chunked", "andes", "tokenflow")
# Extension comparators beyond the paper's §7.1.4 set.
EXTRA_SYSTEM_NAMES = ("mlfq",)
ABLATION_NAMES = (
    "tokenflow",
    "tokenflow-no-offload",
    "tokenflow-no-writethrough",
    "tokenflow-no-overlap",
)


def make_scheduler(name: str, tokenflow_params: Optional[TokenFlowParams] = None) -> BaseScheduler:
    """Instantiate the scheduler for a system name."""
    if name == "sglang":
        return SGLangScheduler()
    if name == "sglang-chunked":
        return SGLangChunkedScheduler()
    if name == "andes":
        return AndesScheduler()
    if name == "mlfq":
        return MLFQScheduler()
    if name.startswith("tokenflow"):
        return TokenFlowScheduler(tokenflow_params)
    raise KeyError(f"unknown system {name!r}; known: {SYSTEM_NAMES + ABLATION_NAMES[1:]}")


@dataclass(frozen=True)
class SchedulerRecipe:
    """Picklable scheduler factory for a named system.

    Cluster builds need a *factory* (each instance gets its own
    scheduler), and the process transport needs that factory to cross
    a process boundary — a closure over the spec cannot.  Calling the
    recipe instantiates the system's scheduler and stamps the
    experiment's system name on it (ablation variants share the
    TokenFlow scheduler class).
    """

    system: str
    tokenflow_params: Optional[TokenFlowParams] = None

    def __call__(self) -> BaseScheduler:
        scheduler = make_scheduler(self.system, self.tokenflow_params)
        scheduler.name = self.system
        return scheduler


def make_kv_config(name: str, block_size: int = 16) -> KVManagerConfig:
    """KV-manager switches per system.

    Baselines have no hierarchical offload (SGLang/Andes preempt by
    dropping KV and recomputing); TokenFlow enables the full memory
    co-design, minus one technique per ablation variant.
    """
    if name in ("sglang", "sglang-chunked", "andes", "mlfq"):
        return KVManagerConfig(block_size=block_size, enable_offload=False)
    if name == "tokenflow":
        return KVManagerConfig(block_size=block_size)
    if name == "tokenflow-no-offload":
        return KVManagerConfig(block_size=block_size, enable_offload=False)
    if name == "tokenflow-no-writethrough":
        return KVManagerConfig(block_size=block_size, write_through=False)
    if name == "tokenflow-no-overlap":
        return KVManagerConfig(block_size=block_size, load_evict_overlap=False)
    raise KeyError(f"unknown system {name!r}")


def build_system(
    name: str,
    hardware: str = "h200",
    model: str = "llama3-8b",
    mem_frac: Optional[float] = None,
    max_batch: int = 64,
    block_size: int = 16,
    tokenflow_params: Optional[TokenFlowParams] = None,
    retain_per_request: bool = True,
    record_token_traces: bool = False,
) -> ServingSystem:
    """Assemble one serving instance for a named system.

    ``record_token_traces`` opts into per-token timestamp traces
    (needed by occupancy-series plots and JSONL trace export; the
    RunReport metrics do not need them).  ``retain_per_request=False``
    switches the instance to streaming telemetry (O(active) memory,
    sketch-backed percentiles — see ServingConfig).
    """
    scheduler = make_scheduler(name, tokenflow_params)
    config = ServingConfig(
        hardware=hardware,
        model=model,
        mem_frac=mem_frac,
        max_batch=max_batch,
        block_size=block_size,
        kv=make_kv_config(name, block_size),
        retain_per_request=retain_per_request,
        record_token_traces=record_token_traces,
    )
    system = ServingSystem(config, scheduler)
    # Label the report with the experiment's system name (the ablation
    # variants share the TokenFlow scheduler class).
    scheduler.name = name
    return system
