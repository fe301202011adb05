"""Macro-step decode fusion: parity and behaviour tests (fast lane).

The fusion plane must be *observationally equivalent* to the
per-iteration decode path: every field of the two runs' deep states
equal, as the oracle's ``per_iteration`` row (``tests/oracle.py``)
demands — only the fusion counters differ, and the fused run
processes no more engine events.  The reference runs under
``oracle.per_iteration``, which patches window planning off so every
decode iteration is its own engine event.
"""

import pytest

from repro.core.scheduler import TokenFlowParams
from repro.experiments.systems import build_system
from repro.gpu.latency import LatencyModel
from repro.serving import server
from repro.sim.trace import TraceRecorder
from repro.workload.request import Request, clone_requests
from tests.oracle import compare, deep_state, per_iteration


def burst(n, prompt=64, output=96, rate=10.0, start=0.0):
    return [
        Request(req_id=i, arrival_time=start, prompt_len=prompt,
                output_len=output, rate=rate)
        for i in range(n)
    ]


def assert_fused_matches(off, on):
    """The fused system ``on`` matches the per-iteration ``off``."""
    compare("per_iteration", deep_state(off, off.report()),
            deep_state(on, on.report()))


def run_system(name, requests, horizon=10_000.0, **kwargs):
    system = build_system(name, **kwargs)
    system.submit(clone_requests(requests))
    system.run(until=horizon)
    return system


def fused_pair(name, requests, **kwargs):
    """The per-iteration and fused runs of one workload, which match."""
    with per_iteration():
        off = run_system(name, requests, **kwargs)
    on = run_system(name, requests, **kwargs)
    assert_fused_matches(off, on)
    return off, on


class TestWindowFormation:
    def test_windows_form_and_events_drop(self):
        requests = burst(8, output=192)
        kwargs = dict(hardware="h200", model="llama3-8b",
                      mem_frac=0.1, max_batch=16)
        off, on = fused_pair("tokenflow", requests, **kwargs)
        stats = on.report().executor_stats
        assert stats["fused_windows"] > 0
        assert stats["fused_iterations"] > stats["fused_windows"]
        assert on.engine.events_processed < off.engine.events_processed

    def test_off_switch_stays_per_iteration(self):
        requests = burst(4)
        with per_iteration():
            system = run_system("tokenflow", requests,
                                hardware="h200", mem_frac=0.1, max_batch=8)
        stats = system.report().executor_stats
        assert stats["fused_windows"] == 0
        assert stats["fused_iterations"] == 0

    def test_iteration_accounting_matches(self):
        requests = burst(6, output=128)
        kwargs = dict(hardware="h200", mem_frac=0.1, max_batch=8)
        off, on = fused_pair("tokenflow", requests, **kwargs)
        s_off, s_on = off.report().executor_stats, on.report().executor_stats
        for key in ("prefill_iterations", "decode_iterations",
                    "prefill_tokens", "decode_tokens"):
            assert s_on[key] == s_off[key], key
        assert s_on["fused_iterations"] <= s_on["decode_iterations"]


class TestTimelineDecimation:
    def test_capped_timeline_matches_per_iteration(self, monkeypatch):
        """At the cap the timeline halves and its stride doubles; each
        decimation keeps the doubled stride's phase, so the capped
        timeline is exactly every stride-th sample of the full one, from
        the first, and fused windows emit the same samples as the
        per-iteration path."""
        requests = burst(16, prompt=96, output=64)
        kwargs = dict(hardware="h200", mem_frac=0.01, max_batch=8)
        full = run_system("tokenflow", requests, **kwargs).report()
        assert full.preemptions > 0
        cap = 16
        assert len(full.timeline) > 4 * cap
        monkeypatch.setattr(server, "TIMELINE_CAP", cap)
        with per_iteration():
            off = run_system("tokenflow", requests, **kwargs).report()
        on = run_system("tokenflow", requests, **kwargs).report()
        assert on.timeline == off.timeline
        samples = list(full.timeline)
        stride = 1
        while len(samples[::stride]) >= cap:
            stride *= 2
        assert stride >= 8
        assert list(on.timeline) == samples[::stride]


class TestParityAcrossSystems:
    @pytest.mark.parametrize(
        "name", ["sglang", "sglang-chunked", "andes", "mlfq", "tokenflow"]
    )
    def test_memory_pressure_parity(self, name):
        # The golden scenario's shape: a burst that forces admission
        # control, preemption, and resumption under a tiny KV pool.
        requests = burst(16, prompt=96, output=64)
        kwargs = dict(hardware="h200", model="llama3-8b",
                      mem_frac=0.01, max_batch=8)
        fused_pair(name, requests, **kwargs)

    @pytest.mark.parametrize(
        "name",
        ["tokenflow-no-offload", "tokenflow-no-writethrough",
         "tokenflow-no-overlap"],
    )
    def test_ablation_parity(self, name):
        requests = burst(12, prompt=96, output=64)
        kwargs = dict(hardware="h200", mem_frac=0.01, max_batch=8)
        fused_pair(name, requests, **kwargs)


def traced_tokenflow(requests, **kwargs):
    """The per-iteration run and a fused tokenflow run that matches it,
    with an executor trace and a record of every idle-tick certificate:
    (preempted requests present, answer)."""
    with per_iteration():
        off = run_system("tokenflow", requests, **kwargs)
    system = build_system("tokenflow", **kwargs)
    system.tracer = TraceRecorder(categories=["executor"])
    certificates = []
    certify = system.scheduler.tick_is_idle

    def recorded(view, at):
        idle = certify(view, at)
        certificates.append((bool(view.preempted), idle))
        return idle

    system.scheduler.tick_is_idle = recorded
    system.submit(clone_requests(requests))
    system.run(until=10_000.0)
    assert_fused_matches(off, system)
    return off, system, system.tracer.by_event("decode_start"), certificates


class TestTickAbsorption:
    """Fused windows run past scheduler ticks the scheduler certifies
    idle and end at a stressed one.  Either way the ticks' bookkeeping
    must equal the per-iteration run's: ``traced_tokenflow`` compares
    ``scheduler_stats`` (scheduling passes, fallback ticks, offload
    counters) exactly."""

    def test_several_idle_ticks_inside_one_window(self):
        requests = burst(2, output=2000)
        kwargs = dict(hardware="h200", mem_frac=0.1, max_batch=8)
        off, on, windows, certificates = traced_tokenflow(requests, **kwargs)
        interval = on.scheduler.tick_interval
        assert max(w.fields["duration"] for w in windows) > 4 * interval
        assert certificates and all(idle for _, idle in certificates)
        assert on.scheduler.scheduling_passes > 4
        assert on.engine.events_processed < off.engine.events_processed

    def test_stressed_tick_inside_a_candidate_window(self):
        # Preempted requests drain towards critical_buffer_s while the
        # batch decodes: some ticks inside candidate windows find every
        # preempted buffer above the threshold (absorbed), others find
        # one below it (the window ends there and the tick acts).
        requests = burst(16, prompt=96, output=256)
        kwargs = dict(hardware="h200", mem_frac=0.01, max_batch=4)
        _, on, windows, certificates = traced_tokenflow(requests, **kwargs)
        assert (True, True) in certificates
        assert (True, False) in certificates
        assert "tick" in {w.fields["cut"] for w in windows}
        assert on.scheduler.active_passes > 0

    def test_boundary_tied_with_an_unqueued_tick(self, monkeypatch):
        # Dyadic prefill and step times, no scheduling cost and a tick
        # every 16 steps put boundaries exactly on tick instants.  A
        # tick that fires inside a window queues its successor after
        # the window's own completion event.  A window ending on that
        # successor's instant would complete first and apply the tick
        # it predicted, and then the tick event would fire and be
        # applied a second time, so the window must stop one boundary
        # short ("tie").  The pacing rate is dyadic too (8 tokens/s),
        # so every float is exact: at a 0.1 s interval generation
        # instants land exactly on consumption instants, where the
        # batch plane's closed-form count is not bit-exact (see
        # test_serving_vectorize.py::test_coincident_instants).
        monkeypatch.setattr(LatencyModel, "prefill_time",
                            lambda self, prompt_tokens: 0.5)
        monkeypatch.setattr(LatencyModel, "decode_step_time_from_total",
                            lambda self, total, batch: 0.03125)
        # Both requests finish on a tick instant (2.0 s and 13.0 s), so
        # without the rule a window would end exactly there.
        requests = [
            Request(req_id=i, arrival_time=0.0, prompt_len=64,
                    output_len=output, rate=8.0)
            for i, output in enumerate((49, 401))
        ]
        kwargs = dict(hardware="h200", mem_frac=0.1, max_batch=8,
                      tokenflow_params=TokenFlowParams(
                          tick_interval=0.5, scheduling_cost_s=0.0))
        off, on, windows, certificates = traced_tokenflow(requests, **kwargs)
        cuts = {w.fields["cut"] for w in windows}
        assert "tie" in cuts and "tick" not in cuts
        assert certificates and all(idle for _, idle in certificates)
        assert on.engine.events_processed < off.engine.events_processed

    @pytest.mark.parametrize("interval,fuses", [
        (0.004, False), (0.0173, True), (0.2, True),
    ])
    def test_tick_intervals_near_an_iteration(self, interval, fuses):
        # Ticks shorter than a decode step (two land inside every
        # iteration, which then stays unfused), about one step apart,
        # and a few steps apart, under preemption pressure so some
        # ticks are stressed.
        requests = burst(12, prompt=96, output=160)
        kwargs = dict(hardware="h200", mem_frac=0.01, max_batch=4,
                      tokenflow_params=TokenFlowParams(tick_interval=interval))
        off, on = fused_pair("tokenflow", requests, **kwargs)
        assert (on.report().executor_stats["fused_windows"] > 0) == fuses


class TestParityEdgeCases:
    def test_token_traces_bit_identical(self):
        requests = burst(4, output=64)
        kwargs = dict(hardware="h200", mem_frac=0.1, max_batch=8,
                      record_token_traces=True)
        off, on = fused_pair("tokenflow", requests, **kwargs)
        for req_id in range(4):
            b_off = off.tracker.get(req_id).buffer
            b_on = on.tracker.get(req_id).buffer
            assert b_on.generation_times == b_off.generation_times
            assert b_on.consumption_times == b_off.consumption_times
            assert list(b_on.occupancy_counts) == list(b_off.occupancy_counts)
            r_off = off.tracker.get(req_id).request
            r_on = on.tracker.get(req_id).request
            assert (r_on.generated, r_on.ttft) == (r_off.generated, r_off.ttft)
            assert b_on._last_gen == b_off._last_gen

    def test_in_flight_transfer_blocks_fusion(self):
        # A d2h transfer occupying the link past the window (an
        # eviction in flight) must bypass fusion even when the dirty
        # backlog is empty: the per-iteration drains inside such a
        # window find zero idle budget and sync *nothing*, so
        # replicating uniform drains would diverge cpu-side KV state
        # (host copies advancing that the real path leaves dirty) and
        # the write-through accounting.  The run is stepped so the
        # divergence would be visible mid-busy-window, not only in the
        # end-of-run totals (which reconverge once the link frees).
        requests = burst(4, output=192)
        kwargs = dict(hardware="h200", mem_frac=0.1, max_batch=8)

        def run():
            system = build_system("tokenflow", **kwargs)
            kv = system.kv
            orig_drain = kv.drain_writes
            state = {"done": False}

            def drain_then_inject(now, horizon, priority):
                synced = orig_drain(now, horizon, priority=priority)
                # Deterministic trigger, identical in both runs: the
                # first fully-synced drain past t=0.3 is followed by a
                # long eviction-style transfer (completion scheduled as
                # an event, like HierarchicalKVManager.preempt does).
                if not state["done"] and now > 0.3 and not kv._dirty:
                    state["done"] = True
                    job = kv.link.d2h.submit(20e9, now)
                    system.engine.call_at(
                        job.end, lambda: None, label="evict-done:test"
                    )
                return synced

            kv.drain_writes = drain_then_inject
            system.submit(clone_requests(requests))
            cpu_series = []
            t = 0.0
            while system.unfinished and t < 10_000.0:
                t += 0.05
                system.run(until=t)
                cpu_series.append(
                    sorted(
                        (rid, kv.record(rid).cpu_tokens)
                        for rid, record in kv._records.items() if record.resident
                    )
                )
            system.run(until=10_000.0)
            assert state["done"], "injection never triggered"
            return system, cpu_series

        with per_iteration():
            off, series_off = run()
        on, series_on = run()
        # Host-copy state must match at every sampled instant — with
        # the in-flight-transfer gate missing, the fused run's cpu
        # copies advance through the busy window while the real drains
        # sync nothing.
        assert series_on == series_off
        assert_fused_matches(off, on)

    def test_until_stepping_parity(self):
        # Driving the engine in run(until=...) increments must match a
        # single drain: windows cap at the run bound so no iteration
        # completing after `until` is applied early.
        requests = burst(6, output=128)
        kwargs = dict(hardware="h200", mem_frac=0.1, max_batch=8)

        one_shot = run_system("tokenflow", requests, **kwargs)

        stepped = build_system("tokenflow", **kwargs)
        stepped.submit(clone_requests(requests))
        t = 0.0
        while stepped.unfinished and t < 10_000.0:
            t += 0.37
            stepped.run(until=t)
        stepped.run(until=10_000.0)

        with per_iteration():
            unfused = run_system("tokenflow", requests, **kwargs)
        assert_fused_matches(unfused, one_shot)
        assert_fused_matches(unfused, stepped)


# --- a dispatch landing inside a window -------------------------------------

class TestDispatchCut:
    """A cluster dispatch lands on a replica whose fused window was
    planned before the dispatch was known.  The shard replays it as
    ``run_before(t)`` then ``submit``; the window then ends at its first
    boundary strictly after ``t`` (``DecodeStream.cut_window``).  Each
    landing is compared exactly with the per-iteration run."""

    KWARGS = dict(hardware="h200", mem_frac=0.1, max_batch=8)
    REQUESTS = burst(2, output=400)

    def landing(self, t):
        """Run the burst, land one request at ``t``, finish the run;
        returns (system, the in-flight window's k before the landing,
        its (k, tick marks, cut) after)."""
        system = build_system("tokenflow", **self.KWARGS)
        system.tracer = TraceRecorder(categories=["executor"])
        system.submit(clone_requests(self.REQUESTS))
        system.engine.run_before(t)
        window = system.decode_stream.window  # None per-iteration
        before = window and window.k
        system.submit([Request(req_id=99, arrival_time=t, prompt_len=64,
                               output_len=32, rate=10.0)])
        after = window and (window.k, list(window.tick_marks), window.cut)
        system.run(until=10_000.0)
        return system, before, after

    def window(self):
        """The first long window: (start, times, tick marks)."""
        system = build_system("tokenflow", **self.KWARGS)
        system.tracer = TraceRecorder(categories=["executor"])
        system.submit(clone_requests(self.REQUESTS))
        system.engine.run_before(0.1)
        window = system.decode_stream.window
        assert window.k > 300 and len(window.tick_marks) >= 3
        return window.record.time, list(window.times), list(window.tick_marks)

    def check(self, t):
        with per_iteration():
            reference, _, _ = self.landing(t)
        system, before, after = self.landing(t)
        assert_fused_matches(reference, system)
        decodes = system.tracer.by_event("decode_start")
        assert sum(r.fields["iterations"] for r in decodes) == (
            system.report().executor_stats["decode_iterations"])
        assert len([r for r in decodes if r.fields["iterations"] > 1]) == (
            system.report().executor_stats["fused_windows"])
        return before, after

    def test_strictly_inside_an_iteration(self):
        _, times, _ = self.window()
        before, after = self.check((times[9] + times[10]) / 2)
        assert after[0] == 11 < before and after[2] == "dispatch"

    def test_exactly_on_a_boundary(self):
        # The completion at a boundary equal to t was scheduled before
        # the arrival, so it fires first: the next boundary sees it.
        _, times, _ = self.window()
        before, after = self.check(times[9])
        assert after[0] == 11 < before and after[2] == "dispatch"

    def test_inside_the_last_iteration(self):
        _, times, _ = self.window()
        before, after = self.check((times[-2] + times[-1]) / 2)
        assert after[0] == before and after[2] != "dispatch"

    def test_before_the_first_boundary(self):
        start, times, _ = self.window()
        before, after = self.check((start + times[0]) / 2)
        assert before > 1 and after[0] == 1

    def test_idle_tick_absorbed_before_the_landing(self):
        _, times, marks = self.window()
        m = marks[0]
        _, after = self.check((times[m + 5] + times[m + 6]) / 2)
        assert after[:2] == (m + 7, [m])

    def test_idle_tick_after_the_landing(self):
        _, times, marks = self.window()
        m = marks[1]
        _, after = self.check((times[m - 3] + times[m - 2]) / 2)
        assert after[:2] == (m - 1, [marks[0]])

    def test_tick_due_on_the_new_last_boundary(self):
        _, times, marks = self.window()
        m = marks[0]
        _, after = self.check((times[m - 1] + times[m]) / 2)
        assert after[:2] == (m + 1, [m])
