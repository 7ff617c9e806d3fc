"""Cycle-accurate synchronous simulation kernel.

This is the substrate that replaces the VHDL + event-driven simulator the
paper used (DESIGN.md §2): a two-phase (settle / edge) single-clock RTL
simulator that settles the combinational network in one pass over a
static order (or, without one, by a monotone fixpoint), with waveform
tracing and VCD export.
"""

from .component import Component
from .scheduler import SimState, Simulator
from .signal import Signal, SignalBundle
from .trace import Trace
from .vcd import dumps_vcd, write_vcd

__all__ = [
    "Component",
    "Signal",
    "SignalBundle",
    "SimState",
    "Simulator",
    "Trace",
    "dumps_vcd",
    "write_vcd",
]
