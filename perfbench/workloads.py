"""The benchmark's own seeded workload generators and scenario specs.

Every workload is generated here from ``--seed`` with numpy's
``default_rng`` and handed to the program only as ``Request`` objects,
through ``ScenarioSpec(workload=...)`` (a materialised list) or
``ScenarioSpec(workload_stream=...)`` (a lazy stream).  Nothing here
reads the program's scenario registry, so a change to a registered
scenario never silently changes what the benchmark measures.

Each :class:`Workload` also carries its validity guard: a check on the
report that fails loudly when the workload stops exercising the layer
it was chosen for (see README.md, "Workloads").
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.scenarios import ScenarioSpec
from repro.workload.request import Request

# Distinct generator streams per workload, so two workloads given the
# same seed never share draws.
_STREAM_TAGS = {
    "burst-preempt": 1,
    "steady-stream": 2,
    "cluster-stateful": 3,
    "prefix-reuse": 4,
}

# --- sizes -----------------------------------------------------------------
BURST_REQUESTS = 400            # TABLE1 h200/(a) flash crowd
STEADY_REQUESTS = 2_000         # soak-steady shape, 15 req/s
STEADY_RATE = 15.0              # req/s, ~70% of paced-service capacity
CLUSTER_REQUESTS = 800          # cluster-soak-64x shape, 64 replicas
CLUSTER_REPLICAS = 64
CLUSTER_SHARDS = 2
CLUSTER_RATE_PER_REPLICA = 4.0  # req/s; a 3.1 s arrival window
PREFIX_GROUPS = 128             # RAG groups of 8 members, one every 4 s
PREFIX_SESSIONS = 128           # agent sessions of 6 turns, one every 4 s
PREFIX_GROUP_MEMBERS = 8
PREFIX_SESSION_TURNS = 6
PREFIX_CADENCE_S = 4.0
PREFIX_MEM_FRAC = 0.02

# prefix-reuse guard: the block-table hit rate (hits / lookups) is
# 0.857 at 8 groups + 8 sessions and 0.855 at 32 + 32 and 128 + 128 (12
# of every 14 lookups can hit).  A workload whose sessions crowd out
# each other's prefixes (the trap described in README.md) falls far
# below this floor.
PREFIX_HIT_RATE_FLOOR = 0.8


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAM_TAGS[name]])


def _normal_len(rng: np.random.Generator, mean: float, std: float) -> int:
    """Normal length draw clamped to [8, 32768] tokens."""
    return int(min(32768, max(8, round(rng.normal(mean, std)))))


def allocator_overrides(kind: str) -> dict:
    """``ScenarioSpec`` keywords selecting KV allocator ``kind``.

    Returns nothing once ``ScenarioSpec`` no longer has a
    ``kv_allocator`` field (a single allocator that shares whenever
    requests carry identities), so the benchmark keeps running, and
    keeps measuring the same workload, when the switch is deleted.
    """
    fields = {f.name for f in dataclasses.fields(ScenarioSpec)}
    return {"kv_allocator": kind} if "kv_allocator" in fields else {}


# --- generators ----------------------------------------------------------------

def burst_requests(seed: int) -> List[Request]:
    """A 400-request flash crowd inside 0.25 s, short-length regime
    with H200 outputs (prompt ~N(512, 128), output ~N(2048, 512))."""
    rng = _rng("burst-preempt", seed)
    arrivals = np.sort(rng.uniform(0.0, 0.25, size=BURST_REQUESTS))
    requests = []
    for i, arrival in enumerate(arrivals.tolist()):
        prompt = _normal_len(rng, 512.0, 128.0)
        output = _normal_len(rng, 2048.0, 512.0)
        requests.append(Request(req_id=i, arrival_time=arrival,
                                prompt_len=prompt, output_len=output, rate=10.0))
    return requests


def poisson_stream(name: str, seed: int, n: int, rate: float) -> Iterator[Request]:
    """``n`` Poisson arrivals in ``n / rate`` seconds with chat-style
    short turns (prompt ~N(128, 32), output ~N(64, 16)) read at 20 tok/s.

    The arrivals are a Poisson process conditioned on its count: the
    normalised cumulative sums of ``n + 1`` exponential gaps, scaled to
    the window.  The window length is then the same for every seed, so
    seed-to-seed spread in the simulated throughput comes from the
    traffic, not from how long ``n`` free Poisson arrivals happen to
    take.  Requests are built lazily; only the arrival times (8 bytes
    each) exist up front.
    """
    rng = _rng(name, seed)
    gaps = np.cumsum(rng.exponential(1.0, size=n + 1))
    arrivals = (gaps[:-1] * (n / rate / gaps[-1])).tolist()
    for i, arrival in enumerate(arrivals):
        prompt = _normal_len(rng, 128.0, 32.0)
        output = _normal_len(rng, 64.0, 16.0)
        yield Request(req_id=i, arrival_time=arrival, prompt_len=prompt,
                      output_len=output, rate=20.0)


def prefix_requests(seed: int) -> List[Request]:
    """RAG groups sharing a corpus prefix, plus staggered agent sessions.

    * RAG: group ``g`` opens at ``4 g`` s; its 8 members arrive within
      1.5 s and share a 256–640-token prefix, each adding a 16–96-token
      question.  Later members attach to the first member's live chain,
      which exercises copy-on-write forks.
    * Agents: session ``s`` opens at ``4 s + 2`` s and runs 6 turns, each
      re-feeding the whole history plus a short message.  Sessions
      start at a fixed cadence, so the number live at once stays the
      same however many sessions the run has, and the prefix cache
      keeps its hit rate as the workload grows.
    """
    rng = _rng("prefix-reuse", seed)
    rows = []   # (arrival, kind, index, kwargs)
    for group in range(PREFIX_GROUPS):
        start = group * PREFIX_CADENCE_S
        prefix_len = int(rng.integers(256, 640))
        for member in range(PREFIX_GROUP_MEMBERS):
            question = int(rng.integers(16, 96))
            arrival = start + float(rng.uniform(0.0, 1.5))
            rows.append((arrival, 0, group * PREFIX_GROUP_MEMBERS + member, dict(
                prompt_len=prefix_len + question,
                output_len=int(rng.integers(32, 96)),
                rate=10.0, prefix_group=group, prefix_len=prefix_len,
            )))
    for session in range(PREFIX_SESSIONS):
        arrival = session * PREFIX_CADENCE_S + PREFIX_CADENCE_S / 2
        context = int(rng.integers(128, 384))
        for turn in range(PREFIX_SESSION_TURNS):
            output = int(rng.integers(48, 128))
            rows.append((arrival, 1, session * PREFIX_SESSION_TURNS + turn, dict(
                prompt_len=context, output_len=output, rate=10.0,
                is_agent=True, session_id=session,
            )))
            arrival += output / 10.0 + float(rng.uniform(1.0, 3.0))
            context += output + int(rng.integers(16, 48))
    rows.sort(key=lambda row: row[:3])
    return [Request(req_id=i, arrival_time=arrival, **kwargs)
            for i, (arrival, _, _, kwargs) in enumerate(rows)]


# --- workloads -----------------------------------------------------------------

class _ListFactory:
    """``spec -> list`` returning one pre-generated request list (the
    run clones it per execute, so repeated builds share it)."""

    def __init__(self, requests: List[Request]) -> None:
        self.requests = requests

    def __call__(self, spec) -> List[Request]:
        return self.requests


class _StreamFactory:
    """``spec -> Iterator`` producing a fresh seeded stream per call,
    optionally through ``wrap`` (the traced run times ``next`` there)."""

    def __init__(self, make: Callable[[], Iterator[Request]]) -> None:
        self.make = make
        self.wrap: Optional[Callable[[Iterator], Iterator]] = None

    def __call__(self, spec) -> Iterator[Request]:
        stream = self.make()
        return self.wrap(stream) if self.wrap is not None else stream


@dataclasses.dataclass
class Workload:
    """One benchmark workload bound to a seed.

    ``spec`` is the program-facing scenario; ``n_requests`` and
    ``output_tokens`` are the conservation totals the report must
    reproduce; ``stream`` is the stream factory for streamed workloads
    (None for listed ones); ``gen_s`` is the list-generation time for
    listed workloads.
    """

    name: str
    spec: ScenarioSpec
    n_requests: int
    output_tokens: int
    stream: Optional[_StreamFactory] = None
    gen_s: float = 0.0

    @property
    def is_cluster(self) -> bool:
        return self.spec.replicas > 1


def _listed(name: str, requests: List[Request], gen_s: float, **spec_kwargs) -> Workload:
    spec = ScenarioSpec(name=f"bench-{name}", workload=_ListFactory(requests),
                        **spec_kwargs)
    return Workload(name, spec, len(requests),
                    sum(r.output_len for r in requests), gen_s=gen_s)


def _streamed(name: str, make: Callable[[], Iterator[Request]], **spec_kwargs) -> Workload:
    n = tokens = 0
    for request in make():
        n += 1
        tokens += request.output_len
    factory = _StreamFactory(make)
    spec = ScenarioSpec(name=f"bench-{name}", workload_stream=factory, **spec_kwargs)
    return Workload(name, spec, n, tokens, stream=factory)


def build_workload(name: str, seed: int) -> Workload:
    """The named workload's spec and expectations for ``seed``."""
    import time

    common = dict(system="tokenflow", hardware="h200", model="llama3-8b", seed=seed)
    if name == "burst-preempt":
        t0 = time.perf_counter()
        requests = burst_requests(seed)
        return _listed(name, requests, time.perf_counter() - t0,
                       mem_frac=0.30, max_batch=96, **common)
    if name == "steady-stream":
        return _streamed(
            name, lambda: poisson_stream(name, seed, STEADY_REQUESTS, STEADY_RATE),
            mem_frac=0.05, max_batch=64, retain_per_request=False,
            horizon=STEADY_REQUESTS / STEADY_RATE * 1.5 + 10_000.0, **common,
        )
    if name == "cluster-stateful":
        rate = CLUSTER_RATE_PER_REPLICA * CLUSTER_REPLICAS
        return _streamed(
            name, lambda: poisson_stream(name, seed, CLUSTER_REQUESTS, rate),
            mem_frac=0.05, max_batch=64,
            replicas=CLUSTER_REPLICAS, router="least_queued",
            shards=CLUSTER_SHARDS,
            horizon=CLUSTER_REQUESTS / rate * 1.5 + 10_000.0, **common,
        )
    if name == "prefix-reuse":
        t0 = time.perf_counter()
        requests = prefix_requests(seed)
        return _listed(name, requests, time.perf_counter() - t0,
                       mem_frac=PREFIX_MEM_FRAC, max_batch=32,
                       **allocator_overrides("prefix_cow"), **common)
    raise KeyError(f"unknown workload {name!r}; known: {sorted(_STREAM_TAGS)}")


def guard(name: str, report) -> Optional[str]:
    """Why ``report`` no longer exercises its workload's layer, or None."""
    if name == "burst-preempt" and not report.preemptions > 0:
        return "burst-preempt ran without preemptions: KV offload went unexercised"
    if name == "steady-stream" and report.preemptions != 0:
        return (f"steady-stream preempted {report.preemptions} times: it is "
                "no longer the no-preemption control")
    if name == "cluster-stateful" and not report.coordination_rounds > 0:
        return "cluster-stateful ran no coordination rounds"
    if name == "prefix-reuse":
        kv = report.kv_stats
        lookups = kv.get("prefix_lookups", 0)
        rate = kv.get("prefix_hits", 0) / lookups if lookups else 0.0
        if rate < PREFIX_HIT_RATE_FLOOR:
            return (f"prefix-reuse block-table hit rate {rate:.3f} fell below "
                    f"{PREFIX_HIT_RATE_FLOOR}: prefixes no longer get reused")
    return None
