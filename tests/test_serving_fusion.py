"""Macro-step decode fusion: parity and behaviour tests (fast lane).

The fusion plane must be *observationally equivalent* to the
per-iteration decode path: every RunReport metric equal to rel 1e-9
(identical in practice — float summation order in a few reporting
aggregates is the only permitted difference), identical timelines and
preemption counts, while processing strictly fewer engine events.
The reference is the ``per_iteration`` fixture, which patches window
planning off so every decode iteration is its own engine event.
"""

import contextlib

import pytest

from repro.core.scheduler import TokenFlowParams
from repro.experiments.systems import build_system
from repro.gpu.latency import LatencyModel
from repro.sim.trace import TraceRecorder
from repro.workload.request import Request, clone_requests
from tests.conftest import assert_parity


def burst(n, prompt=64, output=96, rate=10.0, start=0.0):
    return [
        Request(req_id=i, arrival_time=start, prompt_len=prompt,
                output_len=output, rate=rate)
        for i in range(n)
    ]


def run_system(name, requests, horizon=10_000.0, **kwargs):
    system = build_system(name, **kwargs)
    system.submit(clone_requests(requests))
    system.run(until=horizon)
    return system


class TestWindowFormation:
    def test_windows_form_and_events_drop(self, per_iteration):
        requests = burst(8, output=192)
        kwargs = dict(hardware="h200", model="llama3-8b",
                      mem_frac=0.1, max_batch=16)
        with per_iteration():
            off = run_system("tokenflow", requests, **kwargs)
        on = run_system("tokenflow", requests, **kwargs)
        stats = on.report().executor_stats
        assert stats["fused_windows"] > 0
        assert stats["fused_iterations"] > stats["fused_windows"]
        assert on.engine.events_processed < off.engine.events_processed
        assert_parity(off.report(), on.report())

    def test_off_switch_stays_per_iteration(self, per_iteration):
        requests = burst(4)
        with per_iteration():
            system = run_system("tokenflow", requests,
                                hardware="h200", mem_frac=0.1, max_batch=8)
        stats = system.report().executor_stats
        assert stats["fused_windows"] == 0
        assert stats["fused_iterations"] == 0

    def test_iteration_accounting_matches(self, per_iteration):
        requests = burst(6, output=128)
        kwargs = dict(hardware="h200", mem_frac=0.1, max_batch=8)
        with per_iteration():
            off = run_system("tokenflow", requests, **kwargs)
        on = run_system("tokenflow", requests, **kwargs)
        s_off, s_on = off.report().executor_stats, on.report().executor_stats
        for key in ("prefill_iterations", "decode_iterations",
                    "prefill_tokens", "decode_tokens"):
            assert s_on[key] == s_off[key], key
        assert s_on["fused_iterations"] <= s_on["decode_iterations"]


class TestParityAcrossSystems:
    @pytest.mark.parametrize(
        "name", ["sglang", "sglang-chunked", "andes", "mlfq", "tokenflow"]
    )
    def test_memory_pressure_parity(self, name, per_iteration):
        # The golden scenario's shape: a burst that forces admission
        # control, preemption, and resumption under a tiny KV pool.
        requests = burst(16, prompt=96, output=64)
        kwargs = dict(hardware="h200", model="llama3-8b",
                      mem_frac=0.01, max_batch=8)
        with per_iteration():
            off = run_system(name, requests, **kwargs)
        on = run_system(name, requests, **kwargs)
        assert_parity(off.report(), on.report())

    @pytest.mark.parametrize(
        "name",
        ["tokenflow-no-offload", "tokenflow-no-writethrough",
         "tokenflow-no-overlap"],
    )
    def test_ablation_parity(self, name, per_iteration):
        requests = burst(12, prompt=96, output=64)
        kwargs = dict(hardware="h200", mem_frac=0.01, max_batch=8)
        with per_iteration():
            off = run_system(name, requests, **kwargs)
        on = run_system(name, requests, **kwargs)
        assert_parity(off.report(), on.report())


def traced_tokenflow(requests, **kwargs):
    """A tokenflow run with an executor trace and a record of every
    idle-tick certificate: (preempted requests present, answer)."""
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
    windows = system.tracer.by_event("decode_start")
    return system, windows, certificates


class TestTickAbsorption:
    """Fused windows run past scheduler ticks the scheduler certifies
    idle and end at a stressed one.  Either way the ticks' bookkeeping
    must equal the per-iteration run's: ``assert_parity`` compares
    ``scheduler_stats`` (scheduling passes, fallback ticks, offload
    counters) exactly."""

    def test_several_idle_ticks_inside_one_window(self, per_iteration):
        requests = burst(2, output=2000)
        kwargs = dict(hardware="h200", mem_frac=0.1, max_batch=8)
        with per_iteration():
            off = run_system("tokenflow", requests, **kwargs)
        on, windows, certificates = traced_tokenflow(requests, **kwargs)
        interval = on.scheduler.tick_interval
        assert max(w.fields["duration"] for w in windows) > 4 * interval
        assert certificates and all(idle for _, idle in certificates)
        assert on.scheduler.scheduling_passes > 4
        assert on.engine.events_processed < off.engine.events_processed
        assert_parity(off.report(), on.report())

    def test_stressed_tick_inside_a_candidate_window(self, per_iteration):
        # Preempted requests drain towards critical_buffer_s while the
        # batch decodes: some ticks inside candidate windows find every
        # preempted buffer above the threshold (absorbed), others find
        # one below it (the window ends there and the tick acts).
        requests = burst(16, prompt=96, output=256)
        kwargs = dict(hardware="h200", mem_frac=0.01, max_batch=4)
        with per_iteration():
            off = run_system("tokenflow", requests, **kwargs)
        on, windows, certificates = traced_tokenflow(requests, **kwargs)
        assert (True, True) in certificates
        assert (True, False) in certificates
        assert "tick" in {w.fields["cut"] for w in windows}
        assert on.scheduler.active_passes > 0
        assert_parity(off.report(), on.report())

    def test_boundary_tied_with_an_unqueued_tick(self, per_iteration,
                                                 monkeypatch):
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
        with per_iteration():
            off = run_system("tokenflow", requests, **kwargs)
        on, windows, certificates = traced_tokenflow(requests, **kwargs)
        cuts = {w.fields["cut"] for w in windows}
        assert "tie" in cuts and "tick" not in cuts
        assert certificates and all(idle for _, idle in certificates)
        assert on.engine.events_processed < off.engine.events_processed
        assert_parity(off.report(), on.report())

    @pytest.mark.parametrize("interval,fuses", [
        (0.004, False), (0.0173, True), (0.2, True),
    ])
    def test_tick_intervals_near_an_iteration(self, interval, fuses,
                                              per_iteration):
        # Ticks shorter than a decode step (two land inside every
        # iteration, which then stays unfused), about one step apart,
        # and a few steps apart, under preemption pressure so some
        # ticks are stressed.
        requests = burst(12, prompt=96, output=160)
        kwargs = dict(hardware="h200", mem_frac=0.01, max_batch=4,
                      tokenflow_params=TokenFlowParams(tick_interval=interval))
        with per_iteration():
            off = run_system("tokenflow", requests, **kwargs)
        on = run_system("tokenflow", requests, **kwargs)
        assert (on.report().executor_stats["fused_windows"] > 0) == fuses
        assert_parity(off.report(), on.report())


class TestParityEdgeCases:
    def test_token_traces_bit_identical(self, per_iteration):
        requests = burst(4, output=64)
        kwargs = dict(hardware="h200", mem_frac=0.1, max_batch=8,
                      record_token_traces=True)
        with per_iteration():
            off = run_system("tokenflow", requests, **kwargs)
        on = run_system("tokenflow", requests, **kwargs)
        for req_id in range(4):
            b_off = off.tracker.get(req_id).buffer
            b_on = on.tracker.get(req_id).buffer
            assert b_on.generation_times == b_off.generation_times
            assert b_on.consumption_times == b_off.consumption_times
            assert b_on.occupancy_at_generation == b_off.occupancy_at_generation
            r_off = off.tracker.get(req_id).request
            r_on = on.tracker.get(req_id).request
            assert (r_on.generated, r_on.ttft) == (r_off.generated, r_off.ttft)
            assert b_on._last_gen == b_off._last_gen

    def test_cancellation_parity(self, per_iteration):
        # Cancels are pre-scheduled engine events, so the fusion
        # horizon must stop windows strictly before them.
        requests = burst(6, output=256)
        kwargs = dict(hardware="h200", mem_frac=0.1, max_batch=8)

        def run():
            system = build_system("tokenflow", **kwargs)
            system.submit(clone_requests(requests))
            system.engine.call_at(0.45, lambda: system.cancel(2))
            system.engine.call_at(0.731, lambda: system.cancel(5))
            system.run(until=10_000.0)
            return system

        with per_iteration():
            off = run()
        on = run()
        r_off, r_on = off.report(), on.report()
        assert r_on.total_tokens == r_off.total_tokens
        for key in ("throughput", "qos", "stall_total", "preemptions"):
            assert getattr(r_on, key) == pytest.approx(
                getattr(r_off, key), rel=1e-9, abs=1e-9
            ), key
        cancelled = on.tracker.get(2).request
        assert cancelled.generated == off.tracker.get(2).request.generated

    def test_in_flight_transfer_blocks_fusion(self, per_iteration):
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

            def drain_then_inject(now, horizon, priority=None):
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
        r_off, r_on = off.report(), on.report()
        assert_parity(r_off, r_on)
        assert r_on.kv_stats["write_through_bytes"] == pytest.approx(
            r_off.kv_stats["write_through_bytes"], rel=1e-9
        )

    def test_external_cancel_while_window_pending(self, per_iteration):
        # ServingSystem.cancel() is a public synchronous call: between
        # stepped run() invocations it can remove a batch member while
        # a fused window's completion event is still pending (no
        # unfused analogue exists — the window is committed).  The
        # completion must skip the departed request like
        # complete_decode does, not crash on its released KV record,
        # and the cancelled request must receive no further tokens.
        from repro.workload.request import RequestState

        def drive():
            requests = burst(4, output=128)
            system = build_system("sglang", hardware="h200", mem_frac=0.1,
                                  max_batch=8)
            system.submit(clone_requests(requests))
            cancelled_at = None
            for _ in range(200_000):
                system.run(until=10_000.0, max_events=1)
                if cancelled_at is None and 2 in system.tracker:
                    req = system.tracker.get(2).request
                    if (system._busy and req.state is RequestState.RUNNING
                            and req.generated >= 1):
                        system.cancel(2)
                        cancelled_at = req.generated
                if not system.unfinished:
                    break
            return system, cancelled_at

        for path in (per_iteration(), contextlib.nullcontext()):
            with path:
                system, cancelled_at = drive()
            assert cancelled_at is not None, "cancel never triggered"
            assert system.unfinished == 0
            report = system.report()
            assert report.n_finished == 3
            # Tokens already streamed stay; nothing lands after cancel.
            assert system.tracker.get(2).request.generated == cancelled_at
            survivors = [system.tracker.get(rid).request for rid in (0, 1, 3)]
            assert all(r.generated == r.output_len for r in survivors)

    def test_until_stepping_parity(self, per_iteration):
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
        assert_parity(unfused.report(), one_shot.report())
        assert_parity(unfused.report(), stepped.report())
