"""Hierarchical KV-cache memory substrate.

Four layers:

* :mod:`repro.memory.blocks` — block-granular pool allocators for the
  GPU and CPU KV pools (PagedAttention-style per-owner accounting,
  plus the ownership ``transfer`` primitive prefix sharing builds on).
* :mod:`repro.memory.blocktable` — the prefix-sharing block table over
  the GPU pool: refcounted shared blocks keyed by positional content
  hash, cache promotion, copy-on-write forks, and a refs-0 LRU cache
  reclaimed under pressure (see docs/memory-model.md).  Requests
  without a sharing identity never touch it.
* :mod:`repro.memory.pcie` — the host link: per-direction bandwidth
  queues with chunked-transfer accounting (full duplex, as on PCIe).
* :mod:`repro.memory.kv_manager` — TokenFlow's hierarchical KV cache
  manager: write-through replication, synchronous chunked writing
  sized to compute intervals, load-evict overlap and the ablation
  switches used by Table 2, allocating GPU blocks through the block
  table.
"""

from repro.memory.blocks import BlockPool, OutOfMemory
from repro.memory.blocktable import PrefixBlockTable, SharedBlock, SHARED_OWNER
from repro.memory.pcie import PCIeDirection, PCIeLink, TransferJob
from repro.memory.kv_manager import HierarchicalKVManager, KVManagerConfig, KVRecord

__all__ = [
    "BlockPool",
    "OutOfMemory",
    "PrefixBlockTable",
    "SharedBlock",
    "SHARED_OWNER",
    "PCIeDirection",
    "PCIeLink",
    "TransferJob",
    "HierarchicalKVManager",
    "KVManagerConfig",
    "KVRecord",
]
