"""``series`` output is pinned byte for byte by ``tests/golden/series.txt``.

The file has the layout of ``tests/golden/analyze.txt``: one
``$ repro-lid series ...`` header per data series, then that command's
CSV.  CI replays the same headers through ``python -m repro.cli`` and
``cmp``s the result; that loop also regenerates the file.
"""

import pytest

from repro.analysis.sweep import SERIES_GENERATORS
from repro.cli import main

from .test_golden_analyze import GOLDEN, PREFIX, _blocks

BLOCKS = _blocks(GOLDEN.with_name("series.txt"))


def test_covers_every_series():
    assert [header.split()[-1] for header, _ in BLOCKS] \
        == sorted(SERIES_GENERATORS)


@pytest.mark.parametrize("header,expected", BLOCKS,
                         ids=[h[len(PREFIX):].strip() for h, _ in BLOCKS])
def test_series_bytes(header, expected, capsys):
    assert main(header[len(PREFIX):].split()) == 0
    assert header + capsys.readouterr().out == expected
