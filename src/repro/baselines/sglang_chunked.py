"""SGLang with chunked prefill (paper baseline #2).

Scheduling policy is identical to :class:`SGLangScheduler`; the
difference lives in the serving loop, which splits prompts into
bounded chunks so long prefills do not monopolise iterations
(Sarathi-style).  The scheduler subclass exists so experiment configs
can select the variant by name and so the serving loop knows to enable
chunking.
"""

from __future__ import annotations

from repro.baselines.sglang import SGLangScheduler


class SGLangChunkedScheduler(SGLangScheduler):
    """FCFS + chunked prefill marker (serving loop reads ``wants_chunked_prefill``)."""

    name = "sglang-chunked"
    wants_chunked_prefill = True
