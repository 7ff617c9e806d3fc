"""Dedicated tests for block-level progress checking."""

import pytest

from repro.lid.variant import ProtocolVariant
from repro.verify.liveness import ProgressResult, check_progress


class TestProgress:
    @pytest.mark.parametrize("kind", ["full", "half", "half-registered"])
    @pytest.mark.parametrize("variant", list(ProtocolVariant))
    def test_all_flavours_progress(self, kind, variant):
        result = check_progress(kind, variant)
        assert result.holds, result.stuck_state

    def test_result_metadata(self):
        result = check_progress("full")
        assert isinstance(result, ProgressResult)
        assert result.states_explored > 0
        assert result.stuck_state is None
        assert "full relay station" in result.block

    def test_no_bound_parameter(self):
        # Progress is decided exactly by following the cooperative
        # orbit, so there is no cycle bound to tune.
        with pytest.raises(TypeError):
            check_progress("full", bound=3)

    def test_mutated_block_gets_stuck(self, monkeypatch):
        from repro.verify import fsm

        def frozen(state, in_tok, stop_in, variant=None):
            return state  # never moves: a clock-gating bug

        monkeypatch.setattr(fsm, "full_rs_step", frozen)
        result = check_progress("full")
        assert not result.holds
        assert result.stuck_state is not None
