"""Campaign manifests: the validated request schema of ``repro-lid serve``.

A **manifest** is one unit of work: which kind to run (fault
campaign, deadlock check, or a figure-style data series), on which
topology spec, with which parameters.  Clients POST it to the campaign
service, and the ``repro-lid inject``/``deadlock``/``series`` handlers
build one from their flags; both hand it to
:func:`repro.serve.execute_manifest`.  Fields carry the CLI flag
names.

Validation happens entirely up front (:meth:`Manifest.from_dict`):
unknown kinds, topologies, variants, fault classes, counts below 1 and
windows outside the run raise :class:`ManifestError` with a one-line
message, which the service maps to an HTTP 400 and the CLI to an
argparse exit 2 — nothing reaches the engines that could surface as a
traceback from deep inside them.

:meth:`Manifest.params` renders the **canonical parameter dict** that
goes into ledger records and span ids, so served and offline runs of
the same work share span and run ids.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

#: Work kinds the service dispatches.
KINDS = ("campaign", "deadlock", "series")

#: Allowed values; also the CLI's ``--engine``/``--backend``/
#: ``--format`` choices.
ENGINES = ("lid", "skeleton")
BACKENDS = ("auto", "scalar", "bitsim")
FORMATS = ("json", "table")
VARIANTS = ("casu", "carloni")


class ManifestError(ValueError):
    """A manifest failed validation (maps to HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ManifestError(message)


def _as_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ManifestError(f"{field} must be an integer, "
                            f"got {value!r}")
    return value


def _as_bool(value: Any, field: str) -> bool:
    if not isinstance(value, bool):
        raise ManifestError(f"{field} must be a boolean, got {value!r}")
    return value


def validate_topology(spec: Any) -> str:
    """A topology spec string with a known family name."""
    from ..graph.specs import TOPOLOGY_CHOICES

    _require(isinstance(spec, str) and bool(spec),
             f"topology must be a non-empty spec string, got {spec!r}")
    name = spec.partition(":")[0]
    _require(name in TOPOLOGY_CHOICES,
             f"unknown topology {name!r} (choices: "
             f"{', '.join(TOPOLOGY_CHOICES)})")
    return spec


def validate_faults(classes: Any) -> Tuple[str, ...]:
    """Fault classes/kinds as a tuple; every item must be known."""
    from ..errors import InjectionError
    from ..inject.faults import resolve_classes

    if isinstance(classes, str):
        classes = [item.strip() for item in classes.split(",")
                   if item.strip()]
    _require(isinstance(classes, (list, tuple)) and bool(classes),
             "faults must be a non-empty comma-separated string or list")
    items = tuple(str(item) for item in classes)
    try:
        resolve_classes(items)
    except InjectionError as exc:
        raise ManifestError(str(exc)) from None
    return items


def validate_window(window: Any,
                    cycles: int) -> Optional[Tuple[int, int]]:
    """``[lo, hi)`` as an int pair inside the run, or ``None``."""
    if window is None:
        return None
    if isinstance(window, str):
        lo_text, sep, hi_text = window.partition(":")
        _require(bool(sep), f"window must be 'LO:HI', got {window!r}")
        try:
            window = [int(lo_text), int(hi_text)]
        except ValueError:
            raise ManifestError(
                f"window bounds must be integers, got {window!r}"
            ) from None
    _require(isinstance(window, (list, tuple)) and len(window) == 2,
             f"window must be a [lo, hi) pair, got {window!r}")
    lo, hi = (_as_int(window[0], "window lo"),
              _as_int(window[1], "window hi"))
    _require(0 <= lo < hi <= cycles,
             f"bad cycle window [{lo}, {hi}) for a {cycles}-cycle run")
    return (lo, hi)


@dataclasses.dataclass(frozen=True)
class Manifest:
    """One validated unit of service work (picklable, hashable).

    Field defaults match the CLI's argparse defaults except
    :attr:`format`: ``json`` here, ``table`` on the command line.
    :attr:`stream` is transport-level (NDJSON progress) and never
    enters the canonical identity.
    """

    kind: str
    topology: str = "feedback"
    seed: int = 0
    variant: str = "casu"
    # campaign
    engine: str = "lid"
    backend: str = "auto"
    faults: Tuple[str, ...] = ("stop", "void")
    cycles: int = 200
    samples: int = 64
    exhaustive: bool = False
    window: Optional[Tuple[int, int]] = None
    strict: bool = False
    format: str = "json"
    # deadlock
    max_cycles: int = 10_000
    # series
    which: Optional[str] = None
    # transport
    stream: bool = False

    #: Manifest fields clients may set, by kind (plus the shared ones).
    _SHARED = ("kind", "stream")
    _BY_KIND = {
        "campaign": ("topology", "seed", "variant", "engine", "backend",
                     "faults", "cycles", "samples", "exhaustive",
                     "window", "strict", "format", "smoke"),
        "deadlock": ("topology", "seed", "variant", "max_cycles"),
        "series": ("which",),
    }

    @classmethod
    def from_dict(cls, payload: Any) -> "Manifest":
        """Validate a client JSON body into a :class:`Manifest`."""
        _require(isinstance(payload, dict),
                 f"manifest must be a JSON object, "
                 f"got {type(payload).__name__}")
        kind = payload.get("kind")
        _require(kind in KINDS,
                 f"manifest kind must be one of {', '.join(KINDS)}, "
                 f"got {kind!r}")
        allowed = set(cls._SHARED) | set(cls._BY_KIND[kind])
        unknown = sorted(set(payload) - allowed)
        _require(not unknown,
                 f"unknown manifest field(s) for kind {kind!r}: "
                 f"{', '.join(unknown)}")
        fields: Dict[str, Any] = {"kind": kind}
        if "stream" in payload:
            fields["stream"] = _as_bool(payload["stream"], "stream")

        if kind == "series":
            from ..analysis.sweep import SERIES_GENERATORS

            which = payload.get("which")
            _require(which in SERIES_GENERATORS,
                     f"series 'which' must be one of "
                     f"{', '.join(sorted(SERIES_GENERATORS))}, "
                     f"got {which!r}")
            fields["which"] = which
            return cls(**fields)

        fields["topology"] = validate_topology(
            payload.get("topology", cls.topology))
        fields["seed"] = _as_int(payload.get("seed", cls.seed), "seed")
        variant = payload.get("variant", cls.variant)
        _require(variant in VARIANTS,
                 f"variant must be one of {', '.join(VARIANTS)}, "
                 f"got {variant!r}")
        fields["variant"] = variant

        if kind == "deadlock":
            max_cycles = _as_int(payload.get("max_cycles",
                                             cls.max_cycles),
                                 "max_cycles")
            _require(max_cycles >= 1,
                     f"max_cycles must be >= 1, got {max_cycles}")
            fields["max_cycles"] = max_cycles
            return cls(**fields)

        # campaign
        engine = payload.get("engine", cls.engine)
        _require(engine in ENGINES,
                 f"engine must be one of {', '.join(ENGINES)}, "
                 f"got {engine!r}")
        fields["engine"] = engine
        backend = payload.get("backend", cls.backend)
        _require(backend in BACKENDS,
                 f"backend must be one of {', '.join(BACKENDS)}, "
                 f"got {backend!r}")
        fields["backend"] = backend
        fields["faults"] = validate_faults(
            payload.get("faults", ",".join(cls.faults)))
        if payload.get("smoke"):
            _as_bool(payload["smoke"], "smoke")
            # CLI parity: `inject --smoke` pins a small fast campaign.
            cycles, samples = 64, 12
            _require("cycles" not in payload
                     and "samples" not in payload
                     and "exhaustive" not in payload,
                     "smoke fixes cycles/samples/exhaustive; drop them")
        else:
            cycles = _as_int(payload.get("cycles", cls.cycles), "cycles")
            samples = _as_int(payload.get("samples", cls.samples),
                              "samples")
        _require(cycles >= 1, f"cycles must be >= 1, got {cycles}")
        _require(samples >= 1, f"samples must be >= 1, got {samples}")
        fields["cycles"], fields["samples"] = cycles, samples
        if "exhaustive" in payload:
            fields["exhaustive"] = _as_bool(payload["exhaustive"],
                                            "exhaustive")
        fields["window"] = validate_window(payload.get("window"), cycles)
        if "strict" in payload:
            fields["strict"] = _as_bool(payload["strict"], "strict")
        fmt = payload.get("format", cls.format)
        _require(fmt in FORMATS,
                 f"format must be one of {', '.join(FORMATS)}, "
                 f"got {fmt!r}")
        fields["format"] = fmt
        return cls(**fields)

    def to_dict(self) -> Dict[str, Any]:
        """Round-trippable plain-dict form (what travels to workers)."""
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "series":
            payload["which"] = self.which
            return payload
        payload.update(topology=self.topology, seed=self.seed,
                       variant=self.variant)
        if self.kind == "deadlock":
            payload.update(max_cycles=self.max_cycles)
            return payload
        payload.update(engine=self.engine, backend=self.backend,
                       faults=list(self.faults), cycles=self.cycles,
                       samples=self.samples, exhaustive=self.exhaustive,
                       window=(list(self.window) if self.window
                               else None),
                       strict=self.strict, format=self.format)
        return payload

    # -- canonical identity (ledger / cache / coalescing) --------------

    @property
    def record_kind(self) -> str:
        """The ledger record kind the CLI writes for this work."""
        return {"campaign": "inject-campaign",
                "deadlock": "deadlock-check",
                "series": "series"}[self.kind]

    def params(self) -> Dict[str, Any]:
        """The canonical params dict of the ledger record, so served
        and offline runs share span and run ids."""
        if self.kind == "campaign":
            return {
                "engine": self.engine,
                "backend": self.backend,
                "cycles": self.cycles,
                "samples": self.samples,
                "seed": self.seed,
                "classes": list(self.faults),
                "exhaustive": bool(self.exhaustive),
                "window": list(self.window) if self.window else None,
                "strict": bool(self.strict),
            }
        if self.kind == "deadlock":
            return {"max_cycles": self.max_cycles, "seed": self.seed}
        return {"which": self.which}

    def span(self, fingerprint: Optional[str]) -> str:
        """Deterministic pre-run identity (see :func:`repro.obs.span_id`).

        *fingerprint* is the design's :func:`repro.exec.graph_fingerprint`
        (``None`` for series work) — identical ``fingerprint x params``
        manifests share a span, which is exactly the coalescing and
        response-cache key the service uses.
        """
        from ..obs import span_id

        variant = None if self.kind == "series" else self.variant
        return span_id(self.record_kind, fingerprint, variant,
                       self.params())
