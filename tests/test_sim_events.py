"""Unit tests for the event queue."""

from repro.sim.events import EventQueue


class TestEventQueue:
    def test_pop_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        while queue:
            queue.pop().action()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        order = []
        for name in ("first", "second", "third"):
            queue.push(1.0, lambda n=name: order.append(n))
        while queue:
            queue.pop().action()
        assert order == ["first", "second", "third"]

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, lambda: fired.append(1))
        queue.push(2.0, lambda: fired.append(2))
        event.cancel()
        while queue:
            queue.pop().action()
        assert fired == [2]

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(4.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.peek_time() == 2.0

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        early = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        early.cancel()
        assert queue.peek_time() == 5.0

    def test_len_counts_live_events(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        first.cancel()
        queue.pop()
        assert len(queue) == 0

    def test_cancel_corrects_count_immediately(self):
        """Regression: `_live` used to be decremented only when the
        cancelled entry was popped, so pending()/__bool__ overcounted
        between cancel and pop."""
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        # The stale heap entry has not been popped yet, but the live
        # count must already exclude it.
        assert len(queue) == 1
        only = queue.push(3.0, lambda: None)
        only.cancel()
        queue.pop()  # pops the live 2.0 event (skipping the stale 1.0)
        assert len(queue) == 0
        assert not queue

    def test_double_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_underflow(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped is event
        event.cancel()  # already popped: must not touch the count
        assert len(queue) == 1

    def test_bool_reflects_liveness(self):
        queue = EventQueue()
        assert not queue
        queue.push(1.0, lambda: None)
        assert queue

    def test_bool_false_when_only_cancelled_remain(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        event.cancel()
        assert not queue
        assert queue.pop() is None


class TestHeapCompaction:
    """The queue rebuilds its heap when >50% of entries are cancelled."""

    def test_compaction_drops_dead_entries(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(128)]
        # Cancel until the dead fraction crosses 1/2: the heap shrinks
        # to exactly the live entries.
        for event in events[: 128 // 2 + 1]:
            event.cancel()
        assert len(queue._heap) == len(queue)
        assert all(not event.cancelled for _, _, event in queue._heap)

    def test_small_heaps_are_not_compacted(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(8)]
        for event in events:
            event.cancel()
        # Below the size floor the stale entries stay until popped.
        assert len(queue._heap) == 8
        assert len(queue) == 0

    def test_order_preserved_across_compaction(self):
        queue = EventQueue()
        order = []
        events = []
        for i in range(200):
            events.append(queue.push(float(i % 7), lambda i=i: order.append(i)))
        cancelled = {i for i in range(200) if i % 3 == 0}
        for i in cancelled:
            events[i].cancel()
        while queue:
            queue.pop().action()
        survivors = [i for i in range(200) if i not in cancelled]
        expected = sorted(survivors, key=lambda i: (float(i % 7), i))
        assert order == expected

    def test_live_count_and_peek_after_compaction(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(100)]
        for event in events[:70]:
            event.cancel()
        assert len(queue) == 30
        assert queue.peek_time() == 70.0
        popped = queue.pop()
        assert popped is events[70]

    def test_push_after_compaction_keeps_sequencing(self):
        queue = EventQueue()
        events = [queue.push(1.0, lambda: None) for _ in range(80)]
        for event in events[:60]:
            event.cancel()
        late = queue.push(1.0, lambda: None)
        # Same timestamp: survivors keep insertion precedence over the
        # post-compaction push.
        assert queue.pop() is events[60]
        order = []
        while queue:
            order.append(queue.pop())
        assert order[-1] is late
