"""Unit tests for buffer balancing (one greedy pass)."""

import pytest

from repro.core.balancer import BalanceResult, Candidate, balance


def cand(req_id, priority, blocks=10, resident=False, pinned=False) -> Candidate:
    return Candidate(
        req_id=req_id, priority=priority, blocks=blocks,
        resident=resident, pinned=pinned,
    )


class TestGreedy:
    def test_selects_highest_priority(self):
        result = balance(
            [cand(1, 1.0), cand(2, 3.0), cand(3, 2.0)],
            block_budget=20, max_batch=2,
        )
        assert set(result.selected) == {2, 3}

    def test_respects_block_budget(self):
        result = balance(
            [cand(1, 3.0, blocks=15), cand(2, 2.0, blocks=10), cand(3, 1.0, blocks=5)],
            block_budget=20, max_batch=3,
        )
        # 2 would overflow the budget (15 + 10 > 20) and is skipped;
        # 3 still fits behind it.
        assert result.selected == [1, 3]

    def test_respects_max_batch(self):
        result = balance(
            [cand(i, float(i)) for i in range(10)],
            block_budget=1000, max_batch=3,
        )
        assert len(result.selected) == 3

    def test_diff_outputs(self):
        result = balance(
            [
                cand(1, 0.1, resident=True),   # fat buffer, low priority
                cand(2, 5.0, resident=False),  # starved, offloaded
            ],
            block_budget=10, max_batch=1,
        )
        assert result.to_preempt == [1]
        assert result.to_resume == [2]

    def test_empty_candidates(self):
        result = balance([], block_budget=10, max_batch=4)
        assert result.selected == []

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            balance([cand(1, 1.0), cand(1, 2.0)], 10, 2)

    def test_invalid_budgets(self):
        with pytest.raises(ValueError):
            balance([cand(1, 1.0)], block_budget=-1, max_batch=1)
        with pytest.raises(ValueError):
            balance([cand(1, 1.0)], block_budget=10, max_batch=0)


class TestPinning:
    def test_pinned_residents_always_selected(self):
        result = balance(
            [
                cand(1, 0.0, resident=True, pinned=True),
                cand(2, 9.0, resident=False),
            ],
            block_budget=10, max_batch=1,
        )
        assert result.selected == [1]
        assert result.to_preempt == []

    def test_pinned_never_preempted_even_outside_selection(self):
        # Three pinned residents, one slot: the overflow stays resident.
        result = balance(
            [
                cand(1, 0.1, resident=True, pinned=True),
                cand(2, 0.2, resident=True, pinned=True),
                cand(3, 0.3, resident=True, pinned=True),
            ],
            block_budget=100, max_batch=1,
        )
        assert result.to_preempt == []

    def test_pinned_requires_resident(self):
        with pytest.raises(ValueError):
            cand(1, 1.0, resident=False, pinned=True)


class TestLocalSearch:
    """The paper's adjacent-swap search has nothing left to improve:
    the greedy pick is already locally optimal."""

    def test_stable_when_no_improving_swap(self):
        """Greedy's budget-feasible pick is locally optimal here: a
        swap toward either skipped item would lower total utility."""
        result = balance(
            [cand(1, 5.0, blocks=20), cand(2, 4.9, blocks=10), cand(3, 4.8, blocks=10)],
            block_budget=20, max_batch=3,
        )
        assert set(result.selected) == {1}

    def test_improving_swap_applied_under_batch_cap(self):
        """With the batch cap (not the budget) binding, the slot left
        after a pinned candidate goes to the higher priority, so no
        swap with the candidate left out could raise the total."""
        # The pinned 1 sorts first regardless of priority, then 3 (4.5)
        # before 2 (4.0): greedy takes 3 and hits max_batch before 2.
        result = balance(
            [
                cand(1, 0.5, blocks=5, resident=True, pinned=True),
                cand(2, 4.0, blocks=5),
                cand(3, 4.5, blocks=5),
            ],
            block_budget=100, max_batch=2,
        )
        assert sorted(result.selected) == [1, 3]


class TestResult:
    def test_result_is_dataclass(self):
        result = BalanceResult()
        assert result.selected == [] and result.to_preempt == []
