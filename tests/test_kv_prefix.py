"""Prefix-sharing KV block table: unit behaviour, parity, conservation.

Covers the :mod:`repro.memory.blocktable` lifecycle (reference reuse,
cache promotion, copy-on-write forks, refcount-aware eviction) through
the ``HierarchicalKVManager`` API, the identity plumbing on
``Request``, the counters surfaced through ``RunReport.kv_stats``, and
two whole-run contracts:

* **naive parity** — "naive" is the same workload with every sharing
  identity stripped, i.e. plain per-request block counts.  Sharing
  changes block demand (``kv_stats``) and nothing else a report shows;
  identity-free scenarios match in ``kv_stats`` too.  The
  full-registry sweep is slow-marked; a subset runs in the fast lane.
* **conservation** — after every single-node registry run the manager
  holds no records, the host pool is empty, and every GPU block still
  in use is a cached (refs-0) prefix block.
"""

import pytest

from repro.memory.blocktable import PREFIX_STAT_KEYS, SHARED_OWNER
from repro.memory.kv_manager import HierarchicalKVManager, KVManagerConfig
from repro.scenarios import build_run, get_scenario
from repro.scenarios.registry import scenario_names
from repro.serving import shard
from repro.serving.metrics import report_fingerprint
from repro.sim.engine import SimEngine
from repro.workload.request import Request, clone_requests
from tests.conftest import identity_stripped


def make_kv(capacity=64, **cfg):
    cfg.setdefault("cpu_capacity_blocks", 4096)
    config = KVManagerConfig(**cfg)
    return HierarchicalKVManager(
        SimEngine(), capacity, kv_bytes_per_token=1000.0,
        pcie_bandwidth_bytes_per_s=1e9, config=config,
    )


def make_request(req_id, prompt, session=None, group=None, prefix_len=0):
    return Request(
        req_id=req_id, arrival_time=0.0, prompt_len=prompt, output_len=8,
        rate=10.0, session_id=session, prefix_group=group,
        prefix_len=prefix_len,
    )


class TestRequestIdentity:
    def test_affinity_key_is_session_id(self):
        assert make_request(0, 64, session=7).affinity_key == 7
        assert make_request(0, 64).affinity_key is None

    def test_sharing_identity_kinds(self):
        assert make_request(0, 64, session=3).sharing_identity() == (
            ("sess", 3), None
        )
        assert make_request(0, 64, group=5, prefix_len=48).sharing_identity() \
            == (("grp", 5), 48)
        assert make_request(0, 64).sharing_identity() is None

    def test_prefix_field_validation(self):
        with pytest.raises(ValueError, match="prefix_len"):
            make_request(0, 64, group=1)  # group without a length
        with pytest.raises(ValueError, match="exceeds prompt_len"):
            make_request(0, 64, group=1, prefix_len=65)
        with pytest.raises(ValueError, match="non-negative"):
            Request(req_id=0, arrival_time=0.0, prompt_len=8, output_len=1,
                    rate=1.0, prefix_len=-1)

    def test_clone_preserves_prefix_fields(self):
        original = make_request(4, 128, group=2, prefix_len=100)
        clone = clone_requests([original])[0]
        assert clone.prefix_group == 2 and clone.prefix_len == 100
        assert clone.sharing_identity() == original.sharing_identity()


class TestAllocatorConfig:
    def test_prefix_cow_seeds_counters(self):
        kv = make_kv()
        assert kv.prefix is not None
        assert kv.stats["prefix_lookups"] == 0
        assert kv.stats["cow_forks"] == 0


class TestSessionReuse:
    """Sequential session turns: donate at finish, reuse on the next."""

    def test_turn_two_maps_history_onto_cached_blocks(self):
        kv = make_kv()
        kv.register(0, make_request(0, 160, session=7))
        kv.allocate_for_prefill(0, 160)          # 10 blocks
        kv.on_prefill_complete(0, 160)
        for _ in range(8):
            kv.on_decode_token(0)                # context now 168
        kv.check_invariants()
        kv.release(0)
        # The whole 168-token chain (10 full + 1 partial) is donated.
        assert len(kv.prefix.cached) == 11
        assert kv.gpu_pool.used_by(SHARED_OWNER) == 11
        allocated_before = kv.gpu_pool.total_allocated

        # Turn 2 re-feeds the 168 tokens plus a fresh 12-token message.
        kv.register(1, make_request(1, 180, session=7))
        kv.allocate_for_prefill(1, 180)
        record = kv.record(1)
        assert record.shared_blocks == 10        # full blocks referenced
        assert kv.stats["cache_promotes"] == 1   # the partial tail taken over
        # 12 blocks cover 180 tokens; 10 shared + 1 promoted -> 1 fresh.
        assert kv.gpu_pool.total_allocated - allocated_before == 1
        kv.on_prefill_complete(1, 180)
        assert record.shared_blocks == 12        # newly published span
        kv.check_invariants()

    def test_savings_counters_track_reuse(self):
        kv = make_kv()
        kv.register(0, make_request(0, 160, session=7))
        kv.allocate_for_prefill(0, 160)
        kv.on_prefill_complete(0, 160)
        kv.release(0)
        kv.register(1, make_request(1, 200, session=7))
        kv.allocate_for_prefill(1, 200)
        stats = kv.stats
        assert stats["prefix_hits"] == 1
        assert stats["prefix_lookups"] == 2
        assert stats["prefix_tokens_reused"] == 160
        assert stats["prefix_blocks_saved"] == 10


class TestLiveSharingAndForks:
    """Concurrent namespace members: publish at prefill-complete."""

    def test_concurrent_group_member_forks_partial_tail(self):
        kv = make_kv()
        kv.register(0, make_request(0, 100, group=1, prefix_len=90))
        kv.allocate_for_prefill(0, 100)
        kv.on_prefill_complete(0, 100)           # publishes 5 full + fill-10 tail
        kv.register(1, make_request(1, 105, group=1, prefix_len=90))
        kv.allocate_for_prefill(1, 105)
        record = kv.record(1)
        assert record.shared_blocks == 5         # 80 tokens shared live
        assert kv.stats["cow_forks"] == 1        # the live partial was copied
        kv.on_prefill_complete(1, 105)
        kv.check_invariants()
        # Shared blocks free only when the *last* owner retires.
        kv.release(0)
        assert kv.gpu_pool.used_by(SHARED_OWNER) >= 5
        assert kv.prefix.index  # chain still referenced by request 1
        kv.release(1)
        kv.check_invariants()

    def test_sharing_is_limited_to_prefix_len(self):
        kv = make_kv()
        kv.register(0, make_request(0, 160, group=1, prefix_len=64))
        kv.allocate_for_prefill(0, 160)
        kv.on_prefill_complete(0, 160)
        # Only 4 blocks (64 tokens) are ever published for the group.
        assert kv.gpu_pool.used_by(SHARED_OWNER) == 4
        kv.register(1, make_request(1, 160, group=1, prefix_len=64))
        kv.allocate_for_prefill(1, 160)
        assert kv.record(1).shared_blocks == 4


class TestRefcountEviction:
    def test_cached_blocks_are_reclaimed_under_pressure(self):
        kv = make_kv(capacity=12)
        kv.register(0, make_request(0, 112, session=1))
        kv.allocate_for_prefill(0, 112)          # 7 blocks
        kv.on_prefill_complete(0, 112)
        kv.release(0)
        assert len(kv.prefix.cached) == 7
        assert kv.gpu_free_blocks() == 12        # cached counts as free
        # An unrelated request needs 7 blocks; only 5 are truly free.
        kv.register(1, make_request(1, 112))
        kv.allocate_for_prefill(1, 112)
        assert kv.stats["prefix_evictions"] == 2
        assert len(kv.prefix.cached) == 5
        kv.check_invariants()

    def test_referenced_blocks_are_never_reclaimed(self):
        kv = make_kv(capacity=16)
        kv.register(0, make_request(0, 112, session=1))
        kv.allocate_for_prefill(0, 112)
        kv.on_prefill_complete(0, 112)           # 7 published, all refs=1
        assert len(kv.prefix.cached) == 0
        assert kv.prefix.reclaim(100) == 0       # nothing evictable
        assert kv.gpu_pool.used_by(SHARED_OWNER) == 7

    def test_preempt_detaches_references(self):
        kv = make_kv()
        kv.register(0, make_request(0, 160, session=1))
        kv.allocate_for_prefill(0, 160)
        kv.on_prefill_complete(0, 160)
        kv.release(0)
        kv.register(1, make_request(1, 180, session=1))
        kv.allocate_for_prefill(1, 180)
        kv.on_prefill_complete(1, 180)
        assert kv.record(1).shared_blocks > 0
        kv.preempt(1, now=0.0)
        assert kv.record(1).shared_blocks == 0
        kv.engine.run(until=1e9)                 # flush deferred frees
        kv.check_invariants()
        # A recompute resume attaches (and hits) again.
        kv.prepare_recompute(1)
        kv.allocate_for_prefill(1, 180)
        assert kv.record(1).shared_blocks > 0
        kv.on_prefill_complete(1, 180)
        kv.check_invariants()


class TestScenarioCounters:
    def test_prefix_heavy_agents_reports_savings(self):
        report = build_run(get_scenario("prefix-heavy-agents", scale=0.25)).execute()
        stats = report.kv_stats
        assert stats["prefix_hits"] > 0
        saved = stats["prefix_blocks_saved"]
        ratio = saved / (saved + stats["gpu_blocks_allocated"])
        assert ratio >= 0.30, f"GPU-block savings {ratio:.1%} below 30%"

    def test_rag_replay_exercises_cow_forks(self):
        report = build_run(get_scenario("rag-replay", scale=0.25)).execute()
        assert report.kv_stats["cow_forks"] > 0
        assert report.kv_stats["prefix_hits"] > 0

    def test_prefix_cow_allocates_fewer_blocks(self):
        # Peak pool *residency* can be higher with sharing (warm cached
        # blocks stay pool-owned until reclaimed), so the savings claim
        # is about fresh allocations, not peak.
        spec = get_scenario("prefix-heavy-agents", scale=0.25)
        prefix = build_run(spec).execute().kv_stats
        naive = build_run(identity_stripped(spec)).execute().kv_stats
        assert naive["prefix_lookups"] == 0
        assert prefix["gpu_blocks_allocated"] < naive["gpu_blocks_allocated"]


# --- naive parity ----------------------------------------------------------------

def _execute(spec):
    """(fingerprint, per-instance kv_stats) of one run of ``spec``."""
    report = build_run(spec).execute()
    if spec.replicas > 1:
        return (report_fingerprint(report.aggregate),
                [node.kv_stats for node in report.per_instance])
    return report_fingerprint(report), [report.kv_stats]


def _naive_parity(spec):
    """Assert the identity-stripped rerun matches ``spec``'s run in
    everything but ``kv_stats`` (and in those too without identities);
    return the default run's kv_stats."""
    if spec.router == "session_affinity":
        # That router places by session id, which stripping clears.
        spec = spec.with_overrides(router="least_loaded")
    fingerprint, kv_stats = _execute(spec)
    naive_fingerprint, naive_kv_stats = _execute(identity_stripped(spec))
    assert fingerprint == naive_fingerprint
    if all(stats["prefix_lookups"] == 0 for stats in kv_stats):
        assert kv_stats == naive_kv_stats
    return kv_stats


PARITY_CELLS_FAST = [
    ("table1-h200-a", 0.10),
    ("tab02-tokenflow", 0.10),
    ("cluster-burst-4x", 0.25),
]

_PARITY_SCALES = {
    "soak-steady": 0.002,
    "soak-diurnal": 0.002,
    "cluster-soak-64x": 0.02,
    "bursty-sessions": 0.25,
    "cluster-burst-4x": 0.25,
    "prefix-heavy-agents": 0.25,
    "rag-replay": 0.25,
}


@pytest.mark.parametrize("name,scale", PARITY_CELLS_FAST)
def test_naive_override_is_default(name, scale):
    """Identity-free scenarios already allocate naively: stripping
    identities reproduces the run, kv_stats included, and every
    prefix counter is present and zero."""
    for stats in _naive_parity(get_scenario(name, scale=scale)):
        assert all(stats[key] == 0 for key in PREFIX_STAT_KEYS)
        assert stats["gpu_blocks_allocated"] > 0


@pytest.mark.parametrize("name,scale", [("table1-h200-a", 0.10),
                                        ("tab02-tokenflow", 0.10)])
def test_prefix_cow_is_bit_identical_without_identities(name, scale):
    """Without identities the block table stays inert: nothing is
    indexed, so the pool's lifetime demand is plain per-request counts
    and the committed goldens hold unchanged."""
    run = build_run(get_scenario(name, scale=scale))
    run.execute()
    table = run.target.kv.prefix
    assert not table.index and not table.identities and not table.refs_held
    assert run.target.kv.gpu_pool.used_by(SHARED_OWNER) == 0


def test_identity_free_write_back_is_unclamped():
    """Only requests that share clamp a write-back eviction's deferred
    free to their private blocks; identity-free requests keep the
    count-only arithmetic.  The pinned counters were recorded after a
    preempt stopped freeing blocks an in-flight eviction still owns."""
    spec = get_scenario("tab02-tokenflow-no-writethrough", scale=0.25)
    stats = build_run(spec).execute().kv_stats
    assert stats["evictions"] == 669
    assert stats["loads"] == 511
    assert stats["gpu_blocks_allocated"] == 76947


@pytest.mark.slow
@pytest.mark.parametrize("name", scenario_names())
def test_registry_wide_naive_parity(name):
    """Every registry scenario: block sharing changes nothing a report
    shows except kv_stats."""
    _naive_parity(get_scenario(name, scale=_PARITY_SCALES.get(name, 0.10)))


# --- end-of-run conservation -------------------------------------------------

def _single_node_scenarios():
    return [name for name in scenario_names()
            if get_scenario(name).replicas == 1]


@pytest.mark.parametrize("name", _single_node_scenarios())
def test_end_of_run_kv_conservation(name):
    """A finished run leaves no records, an empty host pool, and only
    cached (refs-0) prefix blocks on the GPU; every token generated was
    delivered; and the PCIe links were busy exactly as long as the
    bytes the KV manager counts take at link bandwidth.

    Traces are off here, so large decode windows go through the array
    kernel."""
    run = build_run(get_scenario(name, scale=_PARITY_SCALES.get(name, 0.10)))
    run.execute()
    _check_end_of_run(run.target)


def test_end_of_run_tracker_empty_under_retirement():
    """A streamed run with streaming telemetry retires every request
    the moment it finishes: the tracker ends empty, and the retired
    count is the number of requests the stream fed."""
    spec = get_scenario("soak-steady", scale=_PARITY_SCALES["soak-steady"])
    assert not spec.retain_per_request
    submitted = sum(1 for _ in spec.build_workload_stream())
    run = build_run(spec)
    report = run.execute()
    assert submitted > 0
    assert len(run.target.tracker) == 0
    assert report.stream_stats.n_requests == submitted == report.n_finished
    _check_end_of_run(run.target)


def _check_end_of_run(system):
    kv = system.kv
    assert not kv._records
    assert kv.cpu_pool.used == 0
    assert kv.gpu_pool.used == len(kv.prefix.index) == len(kv.prefix.cached)
    kv.check_invariants()

    for entry in system.tracker.entries():
        request = entry.request
        assert request.generated == request.output_len == entry.buffer.delivered, (
            request.req_id)

    stats, link = kv.stats, kv.link
    written = stats["write_through_bytes"] + stats["eviction_tail_bytes"]
    assert link.d2h.busy_time * link.d2h.bandwidth == pytest.approx(written, rel=1e-9)
    assert link.h2d.busy_time * link.h2d.bandwidth == pytest.approx(
        stats["load_bytes"], rel=1e-9)


def _cluster_scenarios():
    return [name for name in scenario_names()
            if get_scenario(name).replicas > 1]


@pytest.mark.parametrize("router", ["round_robin", "least_queued",
                                    "least_loaded", "session_affinity",
                                    "buffer_aware"])
@pytest.mark.parametrize("name", _cluster_scenarios())
def test_end_of_run_kv_conservation_on_clusters(name, router, monkeypatch):
    """The single-node end-of-run checks hold on every replica of the
    cluster scenarios (two inline shards), under the routers whose
    dispatches cut fused windows where they land (``round_robin``,
    ``least_queued``) and under those that keep the dispatch ladder."""
    hosts = []
    init = shard.ShardHost.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        hosts.append(self)

    monkeypatch.setattr(shard.ShardHost, "__init__", recording)
    spec = get_scenario(name, scale=_PARITY_SCALES[name], router=router,
                        shards=2)
    run = build_run(spec)
    run.target.transport = "inline"
    report = run.execute()
    assert report.n_finished == report.n_requests > 0
    instances = [system for host in hosts for system in host.instances]
    assert len(instances) == spec.replicas
    assert sum(system.decode_stream.fused_windows for system in instances) > 0
    for system in instances:
        _check_end_of_run(system)
