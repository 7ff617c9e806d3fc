"""Fault injection and robustness campaigns for LID systems.

The paper argues that implementation details of the protocol blocks
(registered vs. unregistered stop, one vs. two relay registers) decide
whether a latency-insensitive system tolerates adverse conditions.
This package turns that argument into experiments:

* :mod:`repro.inject.faults` — composable fault models (stuck-at and
  glitched stop/valid wires, the delayed-stop hazard, payload
  corruption, relay token drop/duplication) and deterministic fault
  list generation;
* :mod:`repro.inject.injector` — applies one fault to a live system
  through the scheduler's wire/state injection phases;
* :mod:`repro.inject.campaign` — runs whole fault lists, classifies
  each outcome as ``detected`` / ``silent-corruption`` / ``masked`` /
  ``deadlock`` / ``timeout`` against a golden run, and renders
  byte-reproducible reports; token-level experiments fork from
  checkpoints of a monitored golden trunk, and boundary control faults
  batch onto the bit-plane skeleton engine.

CLI: ``repro-lid inject --topology feedback --faults stop,void``.
"""

from .campaign import (
    CampaignReport,
    Checkpoint,
    ExperimentResult,
    GoldenRun,
    VERDICTS,
    run_campaign,
    run_experiment,
    skeleton_campaign,
    tail_window,
)
from .faults import (
    ALL_KINDS,
    FAULT_CLASSES,
    FaultSpec,
    STATE_KINDS,
    TargetSet,
    WIRE_KINDS,
    enumerate_targets,
    generate_faults,
    resolve_classes,
)
from .injector import FaultInjector, default_corruptor

__all__ = [
    "ALL_KINDS",
    "CampaignReport",
    "Checkpoint",
    "ExperimentResult",
    "FAULT_CLASSES",
    "FaultInjector",
    "FaultSpec",
    "GoldenRun",
    "STATE_KINDS",
    "TargetSet",
    "VERDICTS",
    "WIRE_KINDS",
    "default_corruptor",
    "enumerate_targets",
    "generate_faults",
    "resolve_classes",
    "run_campaign",
    "run_experiment",
    "skeleton_campaign",
    "tail_window",
]
