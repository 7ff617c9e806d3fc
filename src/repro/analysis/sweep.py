"""Figure-style data series: the curves behind the paper's formulas.

Each generator returns a :class:`Series` of (x, y) points computed with
the exact analyses (and cross-checked against skeleton simulation in
the tests), plus CSV rendering for external plotting:

* :func:`loop_series` — T vs relay count for a fixed-size loop
  (the S/(S+R) hyperbola);
* :func:`imbalance_series` — T vs branch imbalance for a reconvergent
  pair (the (m−i)/m decay);
* :func:`transient_series` — transient length vs pipeline depth (drain
  time of the initial voids);
* :func:`stop_activity_series` — stop assertions vs back-pressure duty
  cycle, per protocol variant (the EXP-T7 locality curve).
"""

from __future__ import annotations

import dataclasses
import io
from fractions import Fraction
from typing import List, Tuple

from ..graph import pipeline, reconvergent, ring
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant


@dataclasses.dataclass
class Series:
    """A named (x, y) data series with axis labels."""

    name: str
    x_label: str
    y_label: str
    points: List[Tuple[object, object]]

    def xs(self) -> List[object]:
        return [x for x, _y in self.points]

    def ys(self) -> List[object]:
        return [y for _x, y in self.points]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"{self.x_label},{self.y_label}\n")
        for x, y in self.points:
            out.write(f"{x},{y}\n")
        return out.getvalue()

    def __len__(self) -> int:
        return len(self.points)


def loop_series(shells: int = 2, max_relays: int = 8) -> Series:
    """T = S/(S+R) measured by skeleton simulation, R = shells..max."""
    from ..skeleton import system_throughput

    points = []
    for total in range(shells, max_relays + 1):
        per_arc = [total // shells + (1 if i < total % shells else 0)
                   for i in range(shells)]
        points.append((total, system_throughput(
            ring(shells, relays_per_arc=per_arc))))
    return Series(
        name=f"loop S={shells}",
        x_label="relay stations R",
        y_label="throughput",
        points=points,
    )


def imbalance_series(max_extra: int = 5) -> Series:
    """T = (m-i)/m measured as the long branch grows by i stations."""
    from ..skeleton import system_throughput

    return Series(
        name="reconvergent imbalance",
        x_label="extra relay stations on the long branch",
        y_label="throughput",
        points=[(extra, system_throughput(reconvergent(
                    long_relays=(1 + extra, 1), short_relays=1)))
                for extra in range(max_extra + 1)],
    )


def transient_series(max_relays_per_hop: int = 5,
                     stages: int = 3) -> Series:
    """Measured transient vs per-hop relay depth for a pipeline."""
    from ..skeleton import transient_and_period

    return Series(
        name=f"pipeline transient ({stages} stages)",
        x_label="relay stations per hop",
        y_label="transient cycles",
        points=[(relays, transient_and_period(
                    pipeline(stages, relays_per_hop=relays))[0])
                for relays in range(1, max_relays_per_hop + 1)],
    )


def stop_activity_series(
    variant: ProtocolVariant = DEFAULT_VARIANT,
    duty_steps: int = 4,
    cycles: int = 200,
) -> Series:
    """Stop assertions per cycle vs sink stop duty cycle.

    All duty points share one topology, so the whole curve is a single
    batched run through :func:`repro.skeleton.backend.select` — one
    instance per duty level.
    """
    from ..skeleton import select

    graph = reconvergent(long_relays=(2, 1), short_relays=1)
    patterns = [
        {"out": tuple(i < k for i in range(duty_steps))}
        for k in range(duty_steps + 1)
    ]
    handle = select(graph, variant, sink_patterns=patterns,
                    detect_ambiguity=False)
    handle.run_cycles(cycles)
    totals = handle.stop_assertion_counts()
    points: List[Tuple[object, object]] = [
        (Fraction(k, duty_steps), Fraction(int(totals[k]), cycles))
        for k in range(duty_steps + 1)
    ]
    return Series(
        name=f"stop activity ({variant})",
        x_label="sink stop duty cycle",
        y_label="stop assertions per cycle",
        points=points,
    )


def backpressure_series(
    duty_steps: int = 8,
    stages: int = 4,
    variant: ProtocolVariant = DEFAULT_VARIANT,
) -> Series:
    """Delivered throughput vs sink stop duty cycle, exact fractions.

    The design-space question the paper answers with skeleton sweeps:
    how much back pressure can the system absorb before the delivery
    rate drops?  One batched run covers every duty level.
    """
    from .throughput import throughput_sweep

    graph = pipeline(stages, relays_per_hop=1)
    patterns = [
        {"out": tuple(i < k for i in range(duty_steps))}
        for k in range(duty_steps)
    ]
    sweeps = throughput_sweep(graph, sink_patterns=patterns,
                              variant=variant)
    points: List[Tuple[object, object]] = [
        (Fraction(k, duty_steps), rates["out"])
        for k, rates in enumerate(sweeps)
    ]
    return Series(
        name=f"back-pressure sweep ({stages}-stage pipeline)",
        x_label="sink stop duty cycle",
        y_label="delivered throughput",
        points=points,
    )


#: Registry used by the CLI's ``series`` command.
SERIES_GENERATORS: dict = {
    "loop": loop_series,
    "imbalance": imbalance_series,
    "transient": transient_series,
    "stop-activity": stop_activity_series,
    "backpressure": backpressure_series,
}
