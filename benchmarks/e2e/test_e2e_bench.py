"""Checks of the end-to-end benchmark itself (collected by
``pytest benchmarks``): short runs emit every metric of
``BENCHMARK.json`` with its unit and pass their output checks, and
``compare.decide`` applies the pair and no-regression rules."""

import json
import os
import subprocess
import sys

import pytest

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value
            in result["metrics"].items()} == {m["name"]: m["unit"]
                                              for m in expected}
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "analysis", "--src", str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def test_clear_speedup_is_a_gain():
    change = [v * 0.8 for v in PARENT]
    assert compare.decide(PARENT, change, "lower", 0.1) == "gain"


def test_gain_needs_nine_of_ten_pair_wins():
    change = [v * 0.8 for v in PARENT]
    change[0] = change[1] = 20.0
    assert compare.decide(PARENT, change, "lower", 0.1) != "gain"


def test_gain_needs_a_gap_beyond_the_parent_spread():
    change = [v - 0.05 for v in PARENT]
    assert compare.decide(PARENT, change, "lower", 0.1) == "no regression"


def test_slowdown_beyond_the_bound_is_a_regression():
    change = [v * 1.2 for v in PARENT]
    assert compare.decide(PARENT, change, "lower", 0.1) == "REGRESSION"
    assert compare.decide(PARENT, [v * 0.8 for v in PARENT], "higher",
                          0.1) == "REGRESSION"


def test_slowdown_within_the_bound_is_no_regression():
    change = [v * 1.05 for v in PARENT]
    assert compare.decide(PARENT, change, "lower", 0.1) == "no regression"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.decide(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    faster = [v / 4 for v in noisy]
    assert min(noisy) > max(faster)
    assert compare.decide(noisy, faster, "lower", 0.1) != "unresolved"
