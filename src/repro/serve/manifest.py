"""Campaign manifests: the validated request schema of ``repro-lid serve``.

A **manifest** is one unit of work: which kind to run (fault
campaign, deadlock check, or a figure-style data series), on which
topology spec, with which parameters.  Clients POST it to the campaign
service, and the ``repro-lid inject``/``deadlock``/``series`` handlers
build one from their flags; both hand it to
:func:`repro.serve.execute_manifest`.

:data:`FIELDS` declares every request field once: the kinds that take
it, its default, its checker, its choices, and its command-line
spelling and help.  :class:`Manifest`, its validation, its dict forms
and the three CLI subparsers all read that table.

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
from typing import Any, Callable, Dict, Optional, Tuple, Union

#: Work kinds the service dispatches -> the ledger record kind each
#: writes.
KINDS = {"campaign": "inject-campaign", "deadlock": "deadlock-check",
         "series": "series"}

#: ``smoke`` stands for these values: the small fast campaign of CI.
SMOKE = {"cycles": 64, "samples": 12, "exhaustive": False}


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


# -- checkers: (row, value, fields validated so far) -> stored value ----


def _integer(row: "Field", value: Any, fields: Dict[str, Any]) -> int:
    return _as_int(value, row.name)


def _count(row: "Field", value: Any, fields: Dict[str, Any]) -> int:
    value = _as_int(value, row.name)
    _require(value >= 1, f"{row.name} must be >= 1, got {value}")
    return value


def _boolean(row: "Field", value: Any, fields: Dict[str, Any]) -> bool:
    if not isinstance(value, bool):
        raise ManifestError(f"{row.name} must be a boolean, got {value!r}")
    return value


def _choice(row: "Field", value: Any, fields: Dict[str, Any]) -> str:
    # str(): the command line hands --variant over as a ProtocolVariant.
    text = str(value)
    if text not in row.choices:
        # The default first; the command line lists the table's order.
        listed = sorted(row.choices, key=lambda choice: choice != row.default)
        raise ManifestError(f"{row.name} must be one of "
                            f"{', '.join(listed)}, got {value!r}")
    return text


def _topology(row: "Field", spec: Any, fields: Dict[str, Any]) -> str:
    """A topology spec string with a known family name."""
    from ..graph.specs import TOPOLOGY_CHOICES

    _require(isinstance(spec, str) and bool(spec),
             f"topology must be a non-empty spec string, got {spec!r}")
    name = spec.partition(":")[0]
    _require(name in TOPOLOGY_CHOICES,
             f"unknown topology {name!r} (choices: "
             f"{', '.join(TOPOLOGY_CHOICES)})")
    return spec


def _faults(row: "Field", classes: Any,
            fields: Dict[str, Any]) -> Tuple[str, ...]:
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


def _window(row: "Field", window: Any,
            fields: Dict[str, Any]) -> Optional[Tuple[int, int]]:
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
    cycles = fields["cycles"]
    _require(0 <= lo < hi <= cycles,
             f"bad cycle window [{lo}, {hi}) for a {cycles}-cycle run")
    return (lo, hi)


def _series_names() -> Tuple[str, ...]:
    from ..analysis.sweep import SERIES_GENERATORS

    return tuple(sorted(SERIES_GENERATORS))


def _series(row: "Field", which: Any, fields: Dict[str, Any]) -> str:
    names = _series_names()
    _require(which in names,
             f"series 'which' must be one of {', '.join(names)}, "
             f"got {which!r}")
    return which


def _variant(text: str):
    """``--variant``'s argparse type (argparse names it in errors)."""
    from ..lid.variant import ProtocolVariant

    return ProtocolVariant(text)


@dataclasses.dataclass(frozen=True, eq=False)
class Field:
    """One request field: a manifest key and, unless *flag* is false, a
    command-line argument of the same name (``--max-cycles`` for
    ``max_cycles``)."""

    name: str
    #: Manifest kinds that take the field.
    kinds: Tuple[str, ...]
    #: Default; also the stored form of a value.
    default: Any
    #: ``check(row, value, fields) -> stored value``; runs on defaults
    #: too, and *fields* holds the values checked before this one.
    check: Callable[["Field", Any, Dict[str, Any]], Any]
    #: Allowed values, or a function returning them (loaded on use).
    choices: Union[Tuple[str, ...], Callable[[], Tuple[str, ...]]] = ()
    #: Argparse ``type`` of the command-line argument.
    parse: Optional[Callable[[str], Any]] = None
    metavar: Optional[str] = None
    help: Optional[str] = None
    #: Command-line default where it differs from :attr:`default`.
    cli_default: Any = None
    #: Kinds whose command takes the field as its positional argument.
    positional: Tuple[str, ...] = ()
    #: False where no per-command flag exists.
    flag: bool = True
    #: Key in :meth:`Manifest.params` ("" = the field's name, ``None`` =
    #: not part of the canonical params).
    param: Optional[str] = ""

    def allowed(self) -> Tuple[str, ...]:
        """The allowed values (empty for a free-form field)."""
        return self.choices() if callable(self.choices) else self.choices


_BOTH = ("campaign", "deadlock")
_CAMPAIGN = ("campaign",)

#: Every request field, in command-line order (``inject --help`` lists
#: the campaign flags, and ``Manifest.from_dict`` checks a manifest's
#: fields, in this order).  ``format`` defaults to ``json``
#: in a manifest and to ``table`` on the command line, ``stream``
#: exists only in manifests, and ``smoke`` stands for :data:`SMOKE`.
FIELDS: Dict[str, Field] = {row.name: row for row in (
    Field("topology", _BOTH, "feedback", _topology, param=None,
          positional=("deadlock",),
          help="topology spec (default: %(default)s, the paper's "
               "Figure 2 loop)"),
    Field("seed", _BOTH, 0, _integer, flag=False),  # the global --seed
    Field("variant", _BOTH, "casu", _choice, param=None,
          choices=("carloni", "casu"), parse=_variant),
    Field("faults", _CAMPAIGN, ("stop", "void"), _faults, param="classes",
          help="comma-separated fault classes or kinds (see "
               "repro.inject.FAULT_CLASSES)"),
    Field("cycles", _CAMPAIGN, 200, _count, parse=int,
          help="run length of every experiment"),
    Field("samples", _CAMPAIGN, 64, _count, parse=int,
          help="seeded-random sample size from the fault universe"),
    Field("exhaustive", _CAMPAIGN, False, _boolean,
          help="run every kind x target x cycle of the window instead "
               "of sampling"),
    Field("window", _CAMPAIGN, None, _window, metavar="LO:HI",
          help="restrict injection cycles to [LO, HI)"),
    Field("engine", _CAMPAIGN, "lid", _choice, choices=("lid", "skeleton"),
          help="lid: token-level scalar engine with monitors; skeleton: "
               "batched valid/stop-only engine (boundary control "
               "faults)"),
    Field("backend", _CAMPAIGN, "auto", _choice,
          choices=("auto", "scalar", "bitsim"),
          help="skeleton engine backend (auto/bitsim: one bit-parallel "
               "run, one plane per fault; scalar: the reference engine)"),
    Field("strict", _CAMPAIGN, False, _boolean,
          help="arm the strict stop-shape monitor (detects stops landing "
               "on voids under the refined protocol)"),
    Field("smoke", _CAMPAIGN, False, _boolean, param=None,
          help=f"small fast campaign for CI ({SMOKE['cycles']} cycles, "
               f"{SMOKE['samples']} samples)"),
    Field("format", _CAMPAIGN, "json", _choice, param=None,
          choices=("json", "table"), cli_default="table"),
    Field("max_cycles", ("deadlock",), 10_000, _count, parse=int,
          help="cycle budget for reaching the periodic regime; an "
               "inconclusive verdict exits 2"),
    Field("which", ("series",), None, _series, choices=_series_names,
          positional=("series",)),
    Field("stream", tuple(KINDS), False, _boolean, param=None, flag=False),
)}

#: Rows by kind, in table order.
_ROWS = {kind: tuple(row for row in FIELDS.values() if kind in row.kinds)
         for kind in KINDS}


def _plain(value: Any) -> Any:
    return list(value) if isinstance(value, tuple) else value


def _stored_fields(cls):
    """Give *cls* one dataclass field per stored row of :data:`FIELDS`
    (all but ``smoke``), defaulting to the row's default."""
    for row in FIELDS.values():
        if row.name != "smoke":
            cls.__annotations__[row.name] = "Any"
            setattr(cls, row.name, row.default)
    return dataclasses.dataclass(frozen=True)(cls)


@_stored_fields
class Manifest:
    """One validated unit of service work (picklable, hashable).

    Besides :attr:`kind` it has one attribute per :data:`FIELDS` row
    but ``smoke``.  :attr:`stream` is transport-level (NDJSON progress)
    and never enters the canonical identity.
    """

    kind: str

    @classmethod
    def from_dict(cls, payload: Any) -> "Manifest":
        """Validate a client JSON body into a :class:`Manifest`."""
        _require(isinstance(payload, dict),
                 f"manifest must be a JSON object, "
                 f"got {type(payload).__name__}")
        kind = payload.get("kind")
        _require(isinstance(kind, str) and kind in KINDS,
                 f"manifest kind must be one of {', '.join(KINDS)}, "
                 f"got {kind!r}")
        rows = _ROWS[kind]
        unknown = sorted(set(payload) - {"kind"}
                         - {row.name for row in rows})
        _require(not unknown,
                 f"unknown manifest field(s) for kind {kind!r}: "
                 f"{', '.join(unknown)}")
        if payload.get("smoke") is True:
            _require(not SMOKE.keys() & payload.keys(),
                     f"smoke fixes {'/'.join(SMOKE)}; drop them")
            payload = {**payload, **SMOKE}
        fields: Dict[str, Any] = {"kind": kind}
        for row in rows:
            fields[row.name] = row.check(
                row, payload.get(row.name, row.default), fields)
        fields.pop("smoke", None)
        return cls(**fields)

    def to_dict(self) -> Dict[str, Any]:
        """Round-trippable plain-dict form (what travels to workers)."""
        payload: Dict[str, Any] = {"kind": self.kind}
        for row in _ROWS[self.kind]:
            if row.name not in ("smoke", "stream"):
                payload[row.name] = _plain(getattr(self, row.name))
        return payload

    # -- canonical identity (ledger / cache / coalescing) --------------

    @property
    def record_kind(self) -> str:
        """The ledger record kind this work writes."""
        return KINDS[self.kind]

    def params(self) -> Dict[str, Any]:
        """The canonical params dict of the ledger record, so served
        and offline runs share span and run ids."""
        return {row.param or row.name: _plain(getattr(self, row.name))
                for row in _ROWS[self.kind] if row.param is not None}

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
