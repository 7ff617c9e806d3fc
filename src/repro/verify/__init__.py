"""Formal verification: the paper's SMV campaign, in explicit-state form.

Block specs (:mod:`~repro.verify.fsm`), constrained environments
(:mod:`~repro.verify.env`), safety monitors
(:mod:`~repro.verify.monitors`), a BFS engine
(:mod:`~repro.verify.reach`) and the packaged paper properties
(:mod:`~repro.verify.properties`, :mod:`~repro.verify.liveness`).
The package exports each name below and imports its submodule on
first use.
"""

import importlib
from typing import Any, List

#: Public names by the submodule that defines them.  A submodule is
#: imported on first use of one of its names, so ``repro-lid liveness``
#: (``system_liveness``, ``reach``, ``monitors``) does not load the
#: block-level checkers.
_SUBMODULES = {
    "composition": ("verify_all_chains", "verify_chain",
                    "verify_shell_chain"),
    "env": ("PAYLOAD_MODULUS", "DownstreamState", "EagerUpstream",
            "UpstreamState"),
    "fsm": ("FullRsState", "HalfRsState", "ShellState", "full_rs_outputs",
            "full_rs_step", "half_rs_step", "half_rs_stop_out",
            "shell_fire", "shell_input_stops", "shell_outputs",
            "shell_step"),
    "liveness": ("ProgressResult", "check_progress"),
    "ltl": ("And", "Implies", "LtlResult", "Not", "Or", "Prop",
            "TransitionSystem", "block_transition_system",
            "eventually_emits", "held_token_reappears"),
    "monitors": ("CoherenceMonitor", "HoldMonitor",
                 "NoSpuriousValidMonitor", "OrderMonitor", "Violation"),
    "properties": ("PropertyResult", "results_table", "verify_all",
                   "verify_queued_shell", "verify_relay_station",
                   "verify_shell"),
    "reach": ("Counterexample", "ReachResult", "explore",
              "reachable_states"),
    "refinement": ("RefinementResult", "check_refinement_stack",
                   "cosimulate_relay_netlist", "cosimulate_relay_spec"),
    "system_liveness": ("SystemLivenessResult", "verify_system_liveness"),
}
_HOME = {name: module for module, names in _SUBMODULES.items()
         for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> Any:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
