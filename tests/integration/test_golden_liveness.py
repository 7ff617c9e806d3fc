"""``liveness`` output is pinned byte for byte by
``tests/golden/liveness.txt``.

The file has the layout of ``tests/golden/analyze.txt``: one
``$ repro-lid liveness ...`` header per command, then its stdout.  It
covers every family the end-to-end benchmark's liveness manifests draw,
under both variants, plus STUCK verdicts (a Carloni GALS ring, random
DAGs with half relay stations) and the ambiguous zero-relay ring, so a
change to the state counts, the stuck state or its witness shows here as
a diff.  CI replays the same headers through ``python -m repro.cli`` and
``cmp``s the result; that loop also regenerates the file.
"""

import pytest

from repro.cli import main

from .test_golden_analyze import GOLDEN, PREFIX, _blocks

BLOCKS = _blocks(GOLDEN.with_name("liveness.txt"))


def test_covers_the_workload_families_and_the_stuck_cases():
    headers = [header for header, _ in BLOCKS]
    assert len(headers) == 36
    for variant in ("casu", "carloni"):
        assert sum(f"--variant {variant}" in h for h in headers) >= 15
    outputs = [block for _, block in BLOCKS]
    assert sum("\nSTUCK STATE" in out for out in outputs) == 4
    assert sum("witness: the reset state is stuck" in out
               for out in outputs) == 1
    assert sum(" 0 with ambiguous" not in out and "\nLIVE" in out
               for out in outputs) == 2


@pytest.mark.parametrize("header,expected", BLOCKS,
                         ids=[h[len(PREFIX):].strip() for h, _ in BLOCKS])
def test_liveness_bytes(header, expected, capsys):
    code = main(header[len(PREFIX):].split())
    out = capsys.readouterr().out
    assert header + out == expected
    assert code == (0 if out.startswith("LIVE") else 1)
