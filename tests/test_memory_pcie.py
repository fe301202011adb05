"""Unit tests for the PCIe link model."""

import pytest

from repro.memory.pcie import PCIeDirection, PCIeLink


@pytest.fixture
def direction() -> PCIeDirection:
    return PCIeDirection(bandwidth_bytes_per_s=10e9, name="d2h")


class TestSubmit:
    def test_idle_transfer_timing(self, direction):
        job = direction.submit(nbytes=10e9, now=1.0)
        assert job.start == 1.0
        assert job.end == pytest.approx(2.0)
        assert job.duration == pytest.approx(1.0)

    def test_fifo_queueing(self, direction):
        direction.submit(10e9, now=0.0)          # busy until 1.0
        job = direction.submit(5e9, now=0.5)
        assert job.start == pytest.approx(1.0)   # waits for first
        assert job.end == pytest.approx(1.5)

    def test_earliest_start_respected(self, direction):
        job = direction.submit(1e9, now=0.0, earliest_start=3.0)
        assert job.start == 3.0

    def test_zero_bytes_instant(self, direction):
        job = direction.submit(0.0, now=2.0)
        assert job.start == job.end == 2.0

    def test_negative_bytes_rejected(self, direction):
        with pytest.raises(ValueError):
            direction.submit(-1.0, now=0.0)

    def test_stats_accumulate(self, direction):
        direction.submit(4e9, now=0.0)
        direction.submit(6e9, now=0.0)
        assert direction.bytes_moved == pytest.approx(10e9)
        assert direction.busy_time == pytest.approx(1.0)


class TestQueueing:
    def test_queueing_delay(self, direction):
        direction.submit(10e9, now=0.0)
        assert direction.queueing_delay(0.5) == pytest.approx(0.5)
        assert direction.queueing_delay(2.0) == 0.0

    def test_idle_bytes_within(self, direction):
        assert direction.idle_bytes_within(0.0, 1.0) == pytest.approx(10e9)
        direction.submit(10e9, now=0.0)  # busy until 1.0
        assert direction.idle_bytes_within(0.0, 1.0) == 0.0
        assert direction.idle_bytes_within(0.0, 1.5) == pytest.approx(5e9)

    @pytest.mark.parametrize("gap", [1e-3, 1e-9, 0.0])
    def test_occupy_drains_busy_horizon_bit_identical(self, gap):
        # busy_until is live simulation state: the bulk form must end
        # on the exact per-transfer additions of n occupy() calls per
        # drain, whether drains are spaced widely enough to skip the
        # interior chains or so tightly they must replay them
        # (byte/busy-time totals are reporting-only and may differ in
        # summation order).
        sequential = PCIeDirection(bandwidth_bytes_per_s=64e9)
        bulk = PCIeDirection(bandwidth_bytes_per_s=64e9)
        nbytes = 12_288.0
        starts = [2.5 + gap * j for j in range(6)]
        for start in starts:
            for _ in range(37):
                sequential.occupy(nbytes, start)
        bulk.occupy_drains(37, nbytes, starts)
        assert bulk.busy_until() == sequential.busy_until()
        assert bulk.bytes_moved == pytest.approx(
            sequential.bytes_moved, rel=1e-12
        )
        assert bulk.busy_time == pytest.approx(
            sequential.busy_time, rel=1e-12
        )

    def test_occupy_drains_noop_on_empty(self, direction):
        before = direction.busy_until()
        direction.occupy_drains(0, 1024.0, (5.0,))
        direction.occupy_drains(3, 0.0, (5.0, 6.0))
        assert direction.busy_until() == before
        assert direction.bytes_moved == 0.0

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            PCIeDirection(0.0)


class TestLink:
    def test_directions_independent(self):
        link = PCIeLink(10e9)
        link.d2h.submit(10e9, now=0.0)
        job = link.h2d.submit(10e9, now=0.0)
        assert job.start == 0.0  # full duplex: no interference

    def test_utilisation(self):
        link = PCIeLink(10e9)
        link.d2h.submit(5e9, now=0.0)
        util = link.utilisation(elapsed=1.0)
        assert util["d2h"] == pytest.approx(0.5)
        assert util["h2d"] == 0.0

    def test_utilisation_zero_elapsed(self):
        link = PCIeLink(10e9)
        assert link.utilisation(0.0) == {"h2d": 0.0, "d2h": 0.0}
