"""Every shipped example must run clean — they are deliverables too."""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


class TestExamplesInventory:
    def test_at_least_eight_examples(self):
        assert len(EXAMPLES) >= 8

    def test_quickstart_exists(self):
        assert "quickstart.py" in EXAMPLES

    def test_all_have_docstrings_and_main(self):
        for name in EXAMPLES:
            text = (EXAMPLES_DIR / name).read_text(encoding="utf-8")
            assert text.lstrip().startswith(('#!/usr/bin/env python3',
                                             '"""')), name
            assert '__main__' in text, name


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_clean(name, tmp_path):
    """Run each example as a subprocess (some write artifacts: give
    them a scratch directory argument and working directory).  Not
    marked slow: all of them together take a few seconds, and the
    examples are the only callers of some public APIs."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (str(REPO_ROOT / "src"),
                           os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=str(tmp_path),
        env=env,
    )
    assert proc.returncode == 0, (
        f"{name} failed:\n--- stdout ---\n{proc.stdout[-2000:]}"
        f"\n--- stderr ---\n{proc.stderr[-2000:]}"
    )
    assert proc.stdout.strip(), f"{name} produced no output"
