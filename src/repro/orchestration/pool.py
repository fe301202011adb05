"""Warm process-pool plumbing shared across parallel runs.

Spinning a ``ProcessPoolExecutor`` (and a ``multiprocessing.Manager``
for cross-process queues) per call costs fork + interpreter warm-up on
every matrix invocation and every sharded-cluster run.  This module
keeps ONE warm pool and ONE manager per process, handed out on demand:

* :func:`get_pool` returns the warm executor, transparently growing it
  (by recreation, only when idle between runs) when a caller needs
  more concurrent workers than it was built with — sharded clusters
  need all ``K`` long-lived shard loops resident at once, so a pool
  smaller than ``K`` would deadlock.
* :func:`get_manager` returns the shared queue server used by the
  shard transport (queue proxies pickle into pool tasks; raw
  ``multiprocessing`` queues do not).
* :func:`reset_pool` tears both down and kills the pool's workers, so
  a hung task cannot outlive it.  The matrix executor calls it to
  enforce a cell deadline and when the pool comes back broken, so the
  next run starts from a clean pool instead of inheriting the corpse;
  tests that monkeypatch code the forked workers must see call it to
  force a re-fork.

Pool workers are forked processes: they inherit the parent's imported
modules at creation time, which is exactly what the deterministic
simulation needs (no per-task re-import, no spawn-time module skew).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers: int = 0
_manager = None
_owner_pid: int = 0


def _disown_inherited() -> None:
    """Drop pool/manager globals inherited through ``fork``.

    A pool worker forks with the parent's module state, including a
    non-None ``_pool`` whose queues and management thread only exist
    in the parent — submitting to it from the child deadlocks (the
    sharded cluster inside a matrix worker hits exactly this).  The
    child must start its own pool; the parent's is not ours to shut
    down, so just drop the references.
    """
    global _pool, _pool_workers, _manager
    if _owner_pid != os.getpid():
        _pool = None
        _pool_workers = 0
        _manager = None


def get_pool(min_workers: int = 1) -> ProcessPoolExecutor:
    """Return the warm executor, with at least ``min_workers`` workers.

    Growing recreates the pool at the larger size (sizes never shrink,
    so repeated mixed-size callers settle on the largest requirement
    and stay warm from then on).  Callers must not assume exclusive
    use: submit tasks and throttle in-flight work yourself if you need
    a concurrency bound below the pool size.
    """
    global _pool, _pool_workers, _owner_pid
    if min_workers < 1:
        raise ValueError(f"min_workers must be positive, got {min_workers}")
    _disown_inherited()
    if _pool is None or _pool_workers < min_workers:
        if _pool is not None:
            _pool.shutdown(wait=True)
        _pool_workers = max(min_workers, _pool_workers)
        _pool = ProcessPoolExecutor(max_workers=_pool_workers)
        _owner_pid = os.getpid()
    return _pool


def get_manager():
    """Return the shared ``multiprocessing.Manager`` (lazily started)."""
    global _manager, _owner_pid
    _disown_inherited()
    if _manager is None:
        _manager = multiprocessing.Manager()
        _owner_pid = os.getpid()
    return _manager


# --- message batching ---------------------------------------------------
#
# Manager-queue puts pay one proxy round-trip (pickle + socket) each.
# Protocol steps that emit several messages to the same worker
# back-to-back (a sharded coordination round flushes buffered
# placements and then pauses, in one breath) fold them into a single
# envelope so the queue is touched once per worker per round.

BATCH_KIND = "batch"


def pack_messages(msgs: list):
    """Fold ``msgs`` into one queue payload (unwrapped single message,
    or a ``(BATCH_KIND, msgs)`` envelope for more than one)."""
    if len(msgs) == 1:
        return msgs[0]
    return (BATCH_KIND, list(msgs))


def iter_messages(payload):
    """Yield the protocol messages inside one queue payload."""
    if payload and payload[0] == BATCH_KIND:
        for msg in payload[1]:
            yield msg
    else:
        yield payload


def reset_pool() -> None:
    """Tear down the warm pool and manager, killing the pool's workers.

    Queued tasks are cancelled and running ones die with their worker
    (terminated and reaped here, so even a hung task is gone on
    return).  The next :func:`get_pool` / :func:`get_manager` call
    starts fresh processes — use to abandon running tasks, after
    breaking the pool (dead workers) or before monkeypatching module
    code that forked workers must observe.
    """
    global _pool, _pool_workers, _manager
    _disown_inherited()
    if _pool is not None:
        # Snapshot the workers before shutdown clears the mapping (a
        # private executor attribute; without it we only shut down).
        workers = list((getattr(_pool, "_processes", None) or {}).values())
        _pool.shutdown(wait=False, cancel_futures=True)
        for proc in workers:
            proc.terminate()
        for proc in workers:
            proc.join(timeout=5.0)
    _pool = None
    _pool_workers = 0
    if _manager is not None:
        _manager.shutdown()
    _manager = None
