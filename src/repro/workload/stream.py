"""The streaming workload plane: lazy ``Request`` sources.

A *workload stream* is an iterator of :class:`~repro.workload.request.Request`
objects in non-decreasing ``arrival_time`` order.  Where the classic
:meth:`WorkloadBuilder.build() <repro.workload.builder.WorkloadBuilder.build>`
materialises every request of a workload up front — O(total) memory
before the first event fires — a stream yields them one at a time, so
the serving layer's :meth:`feed <repro.serving.server.ServingSystem.feed>`
keeps only one future request in memory at a time.
This is what makes million-request soak scenarios run at O(active)
footprint (see ARCHITECTURE.md, "Streaming plane").

Determinism contract: a stream and its materialised spelling produce
the *same* request sequence from the same spec + seed.  Arrival
processes draw gaps in bounded chunks (`repro.workload.arrivals`);
numpy ``Generator`` draws are sequence-stable across chunk splits, and
every sampler (arrivals, lengths, rates) owns an independent named RNG
stream, so interleaving the draws per request instead of per batch
changes nothing.

The helpers here are deliberately thin:

* :func:`materialize` — drain a stream into the classic request list
  (the list factories are now this wrapper over the streams).
* :func:`stream_workload` — a :class:`~repro.workload.builder.WorkloadSpec`'s
  stream, by analogy with ``WorkloadBuilder(spec, streams).build()``.
* :func:`ordered` — sanity guard asserting a stream's ordering
  invariant while passing requests through (used by tests and
  defensive call sites; the serving layer re-validates arrival order
  against the engine clock anyway).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.sim.rng import RngStreams
from repro.workload.request import Request


def materialize(stream: Iterable[Request]) -> List[Request]:
    """Drain a workload stream into the classic request list."""
    return list(stream)


def stream_workload(spec, rng_streams: RngStreams) -> Iterator[Request]:
    """Lazy requests for a :class:`~repro.workload.builder.WorkloadSpec`.

    Equivalent to ``WorkloadBuilder(spec, rng_streams).stream()``;
    exists so call sites that think in terms of specs (scenario
    builders, tests) need not name the builder class.
    """
    from repro.workload.builder import WorkloadBuilder

    return WorkloadBuilder(spec, rng_streams).stream()


def ordered(stream: Iterable[Request]) -> Iterator[Request]:
    """Pass ``stream`` through, asserting non-decreasing arrivals.

    Streams feed the event engine directly; an out-of-order request
    would surface deep inside the engine as a "schedule in the past"
    error.  Wrapping a hand-rolled stream in :func:`ordered` turns
    that into an immediate, attributable failure at the source.
    """
    last = None
    for request in stream:
        if last is not None and request.arrival_time < last:
            raise ValueError(
                f"workload stream is out of order: request "
                f"{request.req_id} arrives at {request.arrival_time} "
                f"after an arrival at {last}"
            )
        last = request.arrival_time
        yield request
