"""``repro-lid`` and ``execute_manifest`` give the same answer.

Each case runs one CLI invocation with ``--ledger`` and the equivalent
manifest through :func:`repro.serve.execute_manifest`, then compares
the stdout bytes, the exit code and the ledger ``run_id``.
"""

import json

import pytest

from repro.cli import main
from repro.serve import execute_manifest

GALS_RING = "gals-ring:rates=1+1/2,shells=2"

CASES = {
    "lid-json": (["inject", "--smoke", "--format", "json"],
                 {"kind": "campaign", "smoke": True, "format": "json"}),
    "lid-table": (["inject", "--smoke", "--seed", "3"],
                  {"kind": "campaign", "smoke": True, "seed": 3,
                   "format": "table"}),
    "skeleton-auto": (["inject", "--smoke", "--engine", "skeleton",
                       "--backend", "auto", "--format", "json"],
                      {"kind": "campaign", "smoke": True,
                       "engine": "skeleton", "backend": "auto",
                       "format": "json"}),
    "gals-cdc": (["inject", "--smoke", "--topology", GALS_RING,
                  "--engine", "skeleton", "--faults", "cdc",
                  "--format", "json"],
                 {"kind": "campaign", "smoke": True, "topology": GALS_RING,
                  "engine": "skeleton", "faults": "cdc", "format": "json"}),
    "deadlock-live": (["deadlock", "feedback"],
                      {"kind": "deadlock", "topology": "feedback"}),
    "deadlock-stuck": (["deadlock", "ring:shells=2,relays=0",
                        "--variant", "carloni"],
                       {"kind": "deadlock",
                        "topology": "ring:shells=2,relays=0",
                        "variant": "carloni"}),
    "deadlock-inconclusive": (["deadlock", "feedback", "--max-cycles", "1"],
                              {"kind": "deadlock", "topology": "feedback",
                               "max_cycles": 1}),
    "series": (["series", "backpressure"],
               {"kind": "series", "which": "backpressure"}),
}

EXIT_CODES = {"deadlock-stuck": 1, "deadlock-inconclusive": 2}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_execute_manifest(name, tmp_path, capsys):
    argv, manifest = CASES[name]
    ledger = tmp_path / "ledger.jsonl"
    exit_code = main(argv + ["--ledger", str(ledger)])
    stdout = capsys.readouterr().out.encode()
    outcome = execute_manifest(manifest, cache_dir=str(tmp_path / "cache"))

    assert exit_code == outcome.exit_code == EXIT_CODES.get(name, 0)
    assert stdout == outcome.body
    (record,) = [json.loads(line) for line in ledger.open()]
    assert record["run_id"] == outcome.run_id
