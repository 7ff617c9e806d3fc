"""Output checks, run after the timed window.

Every failed check is one failure in the run's ``failed`` count:

* campaign reports: verdict counts sum to the number of results, and
  results plus skipped faults equal the generated fault count;
* offline vs served: a few small manifests give the same bytes (and
  exit code) through ``repro-lid`` and ``repro.serve.execute_manifest``;
* skeleton campaigns: ``--backend auto`` bytes equal ``--backend
  scalar`` bytes;
* ``liveness`` LIVE implies ``deadlock`` exit 0 on the same topology.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

_VALUE_FLAGS = {"--topology": "topology", "--cycles": "cycles",
                "--samples": "samples", "--faults": "faults",
                "--seed": "seed", "--format": "format",
                "--engine": "engine", "--backend": "backend",
                "--variant": "variant", "--window": "window"}
_INT_FIELDS = ("cycles", "samples", "seed")


def argv_manifest(argv: List[str]) -> Optional[Dict]:
    """The serve manifest equivalent to an ``inject``/``deadlock`` argv."""
    kinds = {"inject": "campaign", "deadlock": "deadlock"}
    if argv[0] not in kinds:
        return None
    manifest: Dict = {"kind": kinds[argv[0]]}
    rest = argv[1:]
    if argv[0] == "deadlock":
        manifest["topology"], rest = rest[0], rest[1:]
    i = 0
    while i < len(rest):
        flag = rest[i]
        if flag in ("--exhaustive", "--strict"):
            manifest[flag[2:]] = True
            i += 1
            continue
        if flag in _VALUE_FLAGS:
            field, value = _VALUE_FLAGS[flag], rest[i + 1]
            if field in _INT_FIELDS:
                value = int(value)
            elif field == "window":
                value = [int(part) for part in value.split(":")]
            manifest[field] = value
        i += 2  # --output / --ledger values are transport, not content
    return manifest


def report_counts(path: str) -> Tuple[int, int, Dict[str, int]]:
    """``(results, skipped, verdict summary)`` of a JSON or table report."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        payload = json.loads(text)
        return (len(payload["experiments"]), len(payload["skipped"]),
                payload["summary"])
    lines = text.rstrip("\n").split("\n")
    rule = lines[1]
    end = lines.index(rule, 2)
    summary = dict(item.split("=") for item in lines[end + 1].split())
    skipped = 0
    if len(lines) > end + 2 and lines[end + 2].startswith("skipped="):
        skipped = int(lines[end + 2].split()[0].split("=")[1])
    return (end - 3, skipped,
            {name: int(value) for name, value in summary.items()})


def expected_faults(manifest: Dict) -> int:
    """How many faults ``generate_faults`` draws for a campaign."""
    from repro.graph.specs import parse_topology
    from repro.inject import generate_faults
    from repro.lid.variant import ProtocolVariant
    from repro.serve import Manifest

    spec = Manifest.from_dict(manifest)  # fills the CLI defaults
    return len(generate_faults(
        parse_topology(spec.topology, seed=spec.seed),
        variant=ProtocolVariant(spec.variant), classes=spec.faults,
        cycles=spec.cycles, window=spec.window, exhaustive=spec.exhaustive,
        samples=spec.samples, seed=spec.seed))


def check_report(argv: List[str], path: str) -> Tuple[int, List[str]]:
    """Classified-result count of one campaign report, plus failures."""
    results, skipped, summary = report_counts(path)
    failures = []
    if sum(summary.values()) != results:
        failures.append(f"{path}: verdict counts {summary} do not sum to "
                        f"{results} results")
    expected = expected_faults(argv_manifest(argv))
    if results + skipped != expected:
        failures.append(f"{path}: {results} results + {skipped} skipped "
                        f"!= {expected} generated faults")
    return results, failures


Call = Callable[[List[str]], Tuple[object, str]]


def _cli_bytes(call: Call, manifest: Dict) -> Tuple[object, bytes]:
    rc, text = call(manifest["argv"])
    if manifest["output"] is None:
        return rc, text.encode()
    with open(manifest["output"], "rb") as fh:
        return rc, fh.read()


def cross_path(call: Call, manifests: List[Dict]) -> Tuple[int, List[str]]:
    """Offline-vs-served and auto-vs-scalar byte identity."""
    from repro.serve import execute_manifest

    checked, failures = 0, []
    for manifest in manifests:
        served_manifest = argv_manifest(manifest["argv"])
        if served_manifest is None:
            continue
        label = " ".join(manifest["argv"][:3])
        rc, cli = _cli_bytes(call, manifest)
        served = execute_manifest(served_manifest)
        checked += 1
        if served.body != cli or served.exit_code != rc:
            failures.append(f"{label}: CLI and execute_manifest differ "
                            f"(exit {rc} vs {served.exit_code})")
        if served_manifest.get("engine") == "skeleton":
            scalar = dict(manifest, argv=[
                "scalar" if arg == "auto" else arg
                for arg in manifest["argv"]],
                output=manifest["output"] + ".scalar.json")
            scalar["argv"][scalar["argv"].index("--output") + 1] = \
                scalar["output"]
            _rc, reference = _cli_bytes(call, scalar)
            checked += 1
            if reference != cli:
                failures.append(f"{label}: --backend auto and scalar "
                                "reports differ")
    return checked, failures


def live_implies_deadlock_free(call: Call, records: List[Dict],
                               limit: int = 20) -> Tuple[int, List[str]]:
    """Re-run ``deadlock`` on topologies ``liveness`` proved LIVE."""
    seen, failures = set(), []
    for record in records:
        argv = record["argv"]
        if argv[0] != "liveness" or record["rc"] != 0:
            continue
        target = (argv[1], argv[argv.index("--variant") + 1])
        if target in seen:
            continue
        seen.add(target)
        rc, _text = call(["deadlock", target[0], "--variant", target[1]])
        if rc != 0:
            failures.append(f"liveness says {target} is LIVE but "
                            f"deadlock exits {rc}")
        if len(seen) >= limit:
            break
    return len(seen), failures
