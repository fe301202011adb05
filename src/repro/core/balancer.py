"""Buffer balancing inside the working set (paper §4.2.2).

Given the working set (resident + offloaded requests), choose which
subset should occupy the GPU for the next interval:

1. sort candidates by the utility-derived priority;
2. pin resident requests whose buffers could *not* survive a swap
   (preempting them would stall playback);
3. greedily pack the highest-priority candidates into the memory and
   batch budget.

The paper follows the greedy pass with an adjacent-swap local search.
Over this sort order that search can never act: for finite priorities
no adjacent pair across the selection boundary both raises the total
priority and fits the budget (ARCHITECTURE.md, "TokenFlow tick"), so
the greedy pick is the answer.

The output is a diff against the current placement: requests to
preempt (resident but not selected) and requests to resume (selected
but offloaded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class Candidate:
    """One working-set member considered for GPU residency.

    Attributes:
        req_id: request id.
        priority: utility-derived score (higher = keep on GPU); finite.
        blocks: GPU blocks the request needs to be resident.
        resident: currently decodable on the GPU.
        pinned: must stay resident (buffer too thin to swap out).
    """

    req_id: int
    priority: float
    blocks: int
    resident: bool
    pinned: bool = False

    def __post_init__(self) -> None:
        if self.blocks < 0:
            raise ValueError("blocks must be non-negative")
        if self.pinned and not self.resident:
            raise ValueError("only resident requests can be pinned")


@dataclass
class BalanceResult:
    """Selected placement and the diff to reach it."""

    selected: list = field(default_factory=list)      # req_ids on GPU next
    to_preempt: list = field(default_factory=list)    # resident -> offload
    to_resume: list = field(default_factory=list)     # offloaded -> GPU


def balance(
    candidates: Sequence, block_budget: int, max_batch: int
) -> BalanceResult:
    """Choose the GPU-resident subset with one greedy pass.

    Args:
        candidates: :class:`Candidate` entries for the working set.
        block_budget: GPU blocks available for these requests.
        max_batch: maximum concurrent resident requests.
    """
    if block_budget < 0:
        raise ValueError("block_budget must be non-negative")
    if max_batch <= 0:
        raise ValueError("max_batch must be positive")
    ids = [c.req_id for c in candidates]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate req_ids among candidates")

    chosen: set = set()
    used_blocks = 0
    for candidate in sorted(
        candidates, key=lambda c: (not c.pinned, -c.priority, c.req_id)
    ):
        if len(chosen) >= max_batch:
            break
        # Pinned requests are already resident; they keep their memory
        # even if the nominal budget is exceeded.
        if used_blocks + candidate.blocks > block_budget and not candidate.pinned:
            continue
        chosen.add(candidate.req_id)
        used_blocks += candidate.blocks

    result = BalanceResult()
    for candidate in candidates:
        if candidate.req_id in chosen:
            result.selected.append(candidate.req_id)
            if not candidate.resident:
                result.to_resume.append(candidate.req_id)
        elif candidate.resident and not candidate.pinned:
            # Pinned residents outside the selection stay resident:
            # swapping them out would stall their playback, which
            # defeats the point of buffer balancing.
            result.to_preempt.append(candidate.req_id)
    return result
