"""Exception hierarchy for the LIP reproduction toolkit.

Every error raised by this package derives from :class:`ReproError`, so
applications can catch the whole family with a single ``except`` clause while
still being able to distinguish structural problems (bad netlists), protocol
violations observed at simulation time, and verification failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class StructuralError(ReproError):
    """A netlist or system graph is malformed.

    Raised by builders and by :mod:`repro.lid.lint` — e.g. a channel with two
    drivers, a shell port left unconnected, or two shells connected without an
    intervening relay station (which the paper forbids because the shell does
    not register incoming stop signals).
    """


class CombinationalLoopError(StructuralError):
    """The backward stop network contains a true combinational cycle.

    This happens when a directed cycle of the system graph contains only
    shells and half relay stations: every block on the cycle propagates the
    stop signal combinationally, so the stop would feed back into itself
    within a single clock cycle.  The paper's remedy is to place at least one
    full relay station (registered stop) on every cycle.
    """


class ConvergenceError(ReproError):
    """The combinational settle phase failed to reach a fixpoint.

    With the monotone stop semantics used by this package this indicates an
    internal error or a user-written component whose combinational function
    is not monotone/idempotent.
    """


class ProtocolViolationError(ReproError):
    """A protocol invariant was violated during simulation.

    Examples: a token was overwritten before being consumed, or a block
    changed a held output while its stop input was asserted.  These checks
    are the runtime counterparts of the paper's SMV safety properties.

    Besides the human-readable message, the exception carries the
    structured coordinates of the violation so that telemetry exporters
    and test harnesses need not parse the text: the *cycle* it was
    detected at, the *channel* name, the protocol *variant* in force and
    the *invariant* identifier (``"hold"``, ``"no-phantom-drop"``,
    ``"stop-shape"``, ``"no-duplicate"``).
    """

    def __init__(self, message: str, *, cycle=None, channel=None,
                 variant=None, invariant=None):
        super().__init__(message)
        self.cycle = cycle
        self.channel = channel
        self.variant = variant
        self.invariant = invariant

    def details(self) -> dict:
        """JSON-compatible structured view of the violation."""
        return {
            "message": str(self),
            "cycle": self.cycle,
            "channel": self.channel,
            "variant": str(self.variant) if self.variant else None,
            "invariant": self.invariant,
        }


class DeadlockError(ReproError):
    """Simulation detected a deadlock (no block can ever fire again)."""


class PeriodicityTimeout(ReproError, TimeoutError):
    """A skeleton run found no periodic regime within its cycle budget.

    Subclasses :class:`TimeoutError` for backward compatibility with
    callers that caught the raw timeout.  The structured fields let the
    CLI and the fault-injection campaign turn the condition into a clean
    ``inconclusive`` verdict instead of a traceback: the budget was too
    small for the system's state space, which is a diagnosis, not a
    crash.
    """

    def __init__(self, message: str, *, graph=None, max_cycles=None):
        super().__init__(message)
        self.graph = graph
        self.max_cycles = max_cycles


class StateSpaceExceeded(ReproError, MemoryError):
    """An exhaustive exploration reached more states than its budget.

    Subclasses :class:`MemoryError`, which callers caught before; the
    CLI reports it as an ``inconclusive`` verdict naming the budget
    flag, not as a traceback.
    """


class ExecutionError(ReproError):
    """The parallel execution layer could not run a workload.

    E.g. a work unit that cannot be pickled across the process
    boundary (a system graph holding closures with no
    :class:`repro.exec.GraphRef` to rebuild it from), or a work-unit
    reference naming a callable that does not resolve to a module-level
    function in the worker.
    """


class WorkerCrashError(ExecutionError):
    """A worker process died without delivering its result.

    Raised in place of :class:`concurrent.futures.process.
    BrokenProcessPool` so that callers of the ``repro.exec`` layer only
    ever see :class:`ReproError` subclasses.  A worker that raises an
    ordinary exception does *not* produce this error — the exception is
    pickled back and re-raised with its own type; this one means the
    process itself vanished (killed, segfaulted, ``os._exit``).
    """


class InjectionError(ReproError):
    """A fault-injection campaign was misconfigured.

    E.g. a fault spec naming a channel or relay station that does not
    exist in the elaborated system, or a fault kind the targeted block
    cannot express (duplicating inside a one-register half relay
    station).
    """


class VerificationError(ReproError):
    """A formal verification run found a property violation.

    The exception carries the counterexample trace when available.
    """

    def __init__(self, message: str, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class AnalysisError(ReproError):
    """A static analysis could not be performed on the given graph.

    E.g. asking for the reconvergent-topology formula on a graph that is not
    a reconvergent feed-forward topology.
    """


class ElaborationError(ReproError):
    """RTL elaboration failed (unbound port, width mismatch, bad primitive)."""
