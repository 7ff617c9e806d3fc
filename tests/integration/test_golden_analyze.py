"""``analyze`` output is pinned byte for byte by ``tests/golden/analyze.txt``.

The file holds one block per command: a ``$ repro-lid analyze ...``
header line, then that command's stdout.  It covers the analysis
families of the end-to-end benchmark under both protocol variants, so a
change to the MCR search, the formulas or the report layout shows here
as a diff.  CI replays the same headers through ``python -m repro.cli``
and ``cmp``s the result; that loop also regenerates the file.
"""

import pathlib

import pytest

from repro.cli import main

GOLDEN = pathlib.Path(__file__).parent.parent / "golden" / "analyze.txt"
PREFIX = "$ repro-lid "


def _blocks(golden=GOLDEN):
    """``(header, expected block)`` per command, in file order."""
    blocks = []
    for line in golden.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith(PREFIX):
            blocks.append([line])
        else:
            blocks[-1].append(line)
    return [(block[0], "".join(block)) for block in blocks]


BLOCKS = _blocks()


def test_covers_both_variants_and_the_seeded_families():
    headers = [header for header, _ in BLOCKS]
    assert len(headers) == 44
    for variant in ("casu", "carloni"):
        assert sum(f"--variant {variant}" in h for h in headers) == 22
    assert sum(" dag:" in h for h in headers) == 6
    assert sum(" loopy:" in h for h in headers) == 6


@pytest.mark.parametrize("header,expected", BLOCKS,
                         ids=[h[len(PREFIX):].strip() for h, _ in BLOCKS])
def test_analyze_bytes(header, expected, capsys):
    assert main(header[len(PREFIX):].split()) == 0
    assert header + capsys.readouterr().out == expected
