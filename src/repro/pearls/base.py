"""Pearl interface: the functional modules that shells encapsulate.

The paper (after Carloni) calls the original, latency-assuming module
the *pearl* and its latency-insensitive wrapper the *shell*.  A pearl in
this package is a deterministic Moore machine over Python payloads:

* ``input_ports`` / ``output_ports`` — ordered port names;
* ``reset() -> {port: payload}`` — initialize internal state and return
  the initial output payloads (shell output registers start *valid*
  with exactly these values, per the paper's footnote 1);
* ``step({port: payload}) -> {port: payload}`` — one synchronous
  transition consuming one token per input and producing one per output.

Pearls must be *stallable by construction*: the shell simply refrains
from calling :meth:`step` while gated, so any object with deterministic
``step`` semantics works.  Determinism matters because the
latency-equivalence oracle replays the same pearl in the zero-latency
reference system.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Sequence, Tuple


class Pearl:
    """Base class for pearls; subclasses set ports and override hooks."""

    input_ports: Tuple[str, ...] = ()
    output_ports: Tuple[str, ...] = ("out",)

    def reset(self) -> Dict[str, Any]:
        """Initialize state; return initial output payloads."""
        raise NotImplementedError

    def step(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """One synchronous transition."""
        raise NotImplementedError

    def clone(self) -> "Pearl":
        """A deep copy of this pearl, internal state included.

        The copy is *not* reset: it continues from wherever this pearl
        is (call :meth:`reset` for the initial state).  Shell
        checkpoints store pearls this way.
        """
        return copy.deepcopy(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(in={list(self.input_ports)}, "
            f"out={list(self.output_ports)})"
        )


class FunctionPearl(Pearl):
    """A pearl computing a pure function of its inputs each cycle.

    Parameters
    ----------
    fn:
        Callable applied to the input payloads *in port order*; its
        return value becomes the payload of the single output port.
    inputs / output:
        Port names.
    initial:
        Initial output payload presented before the first firing.

    Example::

        adder = FunctionPearl(lambda a, b: a + b, inputs=("a", "b"))
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        inputs: Sequence[str] = ("a",),
        output: str = "out",
        initial: Any = 0,
    ):
        self.fn = fn
        self.input_ports = tuple(inputs)
        self.output_ports = (output,)
        self.initial = initial

    def reset(self) -> Dict[str, Any]:
        return {self.output_ports[0]: self.initial}

    def step(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        args = [inputs[p] for p in self.input_ports]
        return {self.output_ports[0]: self.fn(*args)}


class MultiOutputPearl(Pearl):
    """A pure-function pearl with several outputs.

    *fn* receives the input payloads in port order and must return a
    mapping from output port name to payload.
    """

    def __init__(
        self,
        fn: Callable[..., Dict[str, Any]],
        inputs: Sequence[str],
        outputs: Sequence[str],
        initial: Dict[str, Any] | None = None,
    ):
        self.fn = fn
        self.input_ports = tuple(inputs)
        self.output_ports = tuple(outputs)
        self.initial = dict(initial or {p: 0 for p in outputs})

    def reset(self) -> Dict[str, Any]:
        return dict(self.initial)

    def step(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        args = [inputs[p] for p in self.input_ports]
        produced = self.fn(*args)
        missing = set(self.output_ports) - set(produced)
        if missing:
            raise ValueError(
                f"{type(self).__name__}: step did not produce ports {missing}"
            )
        return {p: produced[p] for p in self.output_ports}
