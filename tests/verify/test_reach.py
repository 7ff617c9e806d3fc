"""Tests for the BFS exploration engine."""

import pytest

from repro.verify.monitors import Violation
from repro.verify.reach import explore, progresses, reachable_states


def counter_system(limit, violate_at=None):
    """States 0..limit-1 with wraparound; optional violation."""

    def successors(state):
        nxt = (state + 1) % limit
        if violate_at is not None and nxt == violate_at:
            raise Violation(f"hit {violate_at}")
        yield (f"inc->{nxt}", nxt)

    return successors


class TestExplore:
    def test_clean_system_holds(self):
        result = explore([0], counter_system(5))
        assert result.holds
        assert result.states_explored == 5

    def test_violation_found(self):
        result = explore([0], counter_system(10, violate_at=4))
        assert not result.holds
        assert "hit 4" in result.counterexample.reason

    def test_counterexample_is_minimal(self):
        result = explore([0], counter_system(10, violate_at=3))
        # reset(0) -> 1 -> 2 -> violating step
        assert len(result.counterexample) == 4

    def test_counterexample_renders(self):
        result = explore([0], counter_system(6, violate_at=2))
        text = result.counterexample.render()
        assert "violation" in text and "(reset)" in text

    def test_multiple_initial_states(self):
        result = explore([0, 2], counter_system(4))
        assert result.states_explored == 4

    def test_branching_explored_fully(self):
        def successors(state):
            if len(state) < 3:
                yield ("a", state + "a")
                yield ("b", state + "b")

        result = explore([""], successors)
        assert result.holds
        assert result.states_explored == 1 + 2 + 4 + 8

    def test_state_budget_enforced(self):
        def successors(state):
            yield ("inc", state + 1)  # infinite

        with pytest.raises(MemoryError):
            explore([0], successors, max_states=100)

    def test_bool_protocol(self):
        assert explore([0], counter_system(2))
        assert not explore([0], counter_system(4, violate_at=1))


class TestReachableStates:
    def test_collects_all(self):
        states = reachable_states([0], counter_system(7))
        assert sorted(states) == list(range(7))

    def test_budget(self):
        def successors(state):
            yield ("", state + 1)

        with pytest.raises(MemoryError):
            reachable_states([0], successors, max_states=50)


class TestProgresses:
    def test_late_progress_needs_no_bound(self):
        # Progress first comes on the 500th step: an exact test finds
        # it, where any fixed bound below 500 would call it stuck.
        assert progresses(0, lambda s: ((s + 1) % 1000, s == 499))

    def test_cycle_without_progress_is_stuck(self):
        assert not progresses(0, lambda s: ((s + 1) % 7, False))

    def test_lasso_into_a_dead_cycle_is_stuck(self):
        def step(s):
            return (s + 1 if s < 5 else 3), False

        assert not progresses(0, step)

    def test_progress_on_the_first_step(self):
        assert progresses("x", lambda s: (s, True))
