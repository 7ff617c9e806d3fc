"""Tests for the experiment runners (every table regenerates cleanly)."""

import pytest

from repro.bench.runner import (
    EXPERIMENTS,
    run_composition,
    run_cure,
    run_deadlock_study,
    run_equalization,
    run_figure1,
    run_figure2,
    run_loop_formula,
    run_reconvergent,
    run_transients,
    run_tree,
    run_variant_speedup,
)


class TestFigureRunners:
    def test_figure1_table_shape(self):
        table, rows = run_figure1(cycles=20)
        assert "4/5" in table
        assert len(rows) == 20
        # The steady regime shows one void output every 5 cycles.
        symbols = [row[-1] for row in rows[10:20]]
        assert symbols.count("N") == 2

    def test_figure2_all_match(self):
        table, rows = run_figure2()
        assert all(row[4] for row in rows)  # match column

    def test_figure1_fire_columns_are_bits(self):
        _table, rows = run_figure1(cycles=10)
        for row in rows:
            assert set(row[1:4]) <= {0, 1}


class TestFormulaRunners:
    def test_tree_within_bounds(self):
        _table, rows = run_tree()
        assert all(row[-1] for row in rows)

    def test_reconvergent_agreement(self):
        _table, rows = run_reconvergent()
        assert all(row[-1] for row in rows)

    def test_equalization_reaches_one(self):
        _table, rows = run_equalization()
        assert all(row[-1] for row in rows)

    def test_loop_formula_matches(self):
        _table, rows = run_loop_formula()
        assert all(row[-1] for row in rows)

    def test_composition_slowest_wins(self):
        _table, rows = run_composition()
        assert all(row[-1] for row in rows)


class TestStudyRunners:
    def test_stop_locality_improves(self):
        from repro.bench.runner import run_stop_locality

        _table, rows = run_stop_locality(cycles=150)
        for _label, old_total, old_void, new_total, new_void in rows:
            assert new_total <= old_total
            assert new_void <= old_void

    def test_variant_speedup_never_negative(self):
        _table, rows = run_variant_speedup(cycles=100)
        for _label, old, new, _speedup in rows:
            assert new >= old

    def test_deadlock_study_matches_claims(self):
        _table, rows = run_deadlock_study()
        for system, family, variant, expectation, status in rows:
            if variant == "casu":
                # Refined protocol: every suite entry stays live.
                assert status == "live", (system, variant)
            elif "half RS" in family:
                # Half relay stations need the refined discard rule;
                # under the original stop discipline they wedge (in
                # loops and even in feed-forward chains).
                assert status == "deadlock", (system, variant)
            else:
                assert status == "live", (system, variant)

    def test_transients_within_bound(self):
        _table, rows = run_transients()
        assert all(row[-1] for row in rows)

    def test_cure_always_restores_liveness(self):
        _table, rows = run_cure()
        assert rows
        for _system, before, promoted, after in rows:
            assert before == "deadlock"
            assert promoted >= 1
            assert after == "live"


class TestRegistry:
    def test_all_experiment_ids_present(self):
        expected = {
            "EXP-F1", "EXP-F2", "EXP-T1", "EXP-T2", "EXP-T3", "EXP-T4",
            "EXP-T5", "EXP-T6", "EXP-T7", "EXP-V1", "EXP-D1",
            "EXP-D1b", "EXP-D2", "EXP-D3", "EXP-C1", "EXP-A1",
            "EXP-A2",
        }
        assert set(EXPERIMENTS) == expected

    def test_registry_entries_are_callable(self):
        for _id, (description, runner) in EXPERIMENTS.items():
            assert callable(runner)
            assert description


class TestRecordIO:
    """Atomic BENCH record writes and tolerant reads."""

    def _record(self, exp_id="EXP-F1"):
        from repro.bench.runner import experiment_record

        return experiment_record(
            exp_id, wall_seconds=0.5, params={"cycles": 10},
            counters={"rows": 2})

    def test_write_then_read_roundtrip(self, tmp_path):
        from repro.bench.runner import read_records, write_record

        path = write_record(str(tmp_path), self._record())
        assert path.endswith("BENCH_EXP-F1.json")
        records = read_records(str(tmp_path))
        assert len(records) == 1
        assert records[0]["bench"] == "EXP-F1"
        assert records[0]["params"] == {"cycles": 10}

    def test_write_leaves_no_temp_files(self, tmp_path):
        import os

        from repro.bench.runner import write_record

        write_record(str(tmp_path), self._record())
        write_record(str(tmp_path), self._record())  # overwrite in place
        leftovers = [name for name in os.listdir(str(tmp_path))
                     if name.endswith(".tmp")]
        assert leftovers == []
        assert os.listdir(str(tmp_path)) == ["BENCH_EXP-F1.json"]

    def test_read_skips_truncated_record(self, tmp_path, capsys):
        from repro.bench.runner import read_records, write_record

        write_record(str(tmp_path), self._record("EXP-F1"))
        # A partial write from a crashed run predating atomic writes.
        (tmp_path / "BENCH_EXP-T1.json").write_text('{"schema": "repro-b')
        records = read_records(str(tmp_path))
        assert [r["bench"] for r in records] == ["EXP-F1"]
        assert "skipping unreadable" in capsys.readouterr().err

    def test_read_skips_wrong_schema(self, tmp_path, capsys):
        import json

        from repro.bench.runner import read_records, write_record

        write_record(str(tmp_path), self._record("EXP-F1"))
        (tmp_path / "BENCH_other.json").write_text(
            json.dumps({"schema": "something-else/v9"}))
        (tmp_path / "BENCH_list.json").write_text(json.dumps([1, 2]))
        records = read_records(str(tmp_path))
        assert [r["bench"] for r in records] == ["EXP-F1"]
        err = capsys.readouterr().err
        assert err.count("not a repro-bench-record/v1 record") == 2

    def test_read_records_sorted_by_filename(self, tmp_path):
        from repro.bench.runner import read_records, write_record

        for exp_id in ("EXP-T1", "EXP-A1", "EXP-F1"):
            write_record(str(tmp_path), self._record(exp_id))
        records = read_records(str(tmp_path))
        assert [r["bench"] for r in records] == [
            "EXP-A1", "EXP-F1", "EXP-T1"]

    def test_failed_write_cleans_up_temp(self, tmp_path, monkeypatch):
        import os

        from repro.bench.runner import write_record

        record = self._record()
        target = tmp_path / "BENCH_EXP-F1.json"
        target.write_text("previous complete file\n")

        def boom(src, dst):
            raise OSError("simulated crash at the replace step")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            write_record(str(tmp_path), record)
        monkeypatch.undo()
        # The previous complete file survives and no temp file leaks.
        assert target.read_text() == "previous complete file\n"
        assert os.listdir(str(tmp_path)) == ["BENCH_EXP-F1.json"]


class TestGitRev:
    """The revision is resolved once per process, not per call."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        from repro.bench.runner import git_rev

        git_rev.cache_clear()
        yield
        git_rev.cache_clear()

    def test_one_spawn_for_repeated_calls(self, monkeypatch):
        import subprocess

        from repro.bench.runner import git_rev

        spawns = []

        def fake_run(cmd, **kwargs):
            spawns.append(cmd)
            return subprocess.CompletedProcess(cmd, 0, stdout="abc1234\n")

        monkeypatch.setattr(subprocess, "run", fake_run)
        assert git_rev() == "abc1234"
        assert git_rev() == "abc1234"
        assert len(spawns) == 1

    def test_failure_reads_unknown(self, monkeypatch):
        import subprocess

        from repro.bench.runner import git_rev

        def no_git(cmd, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(subprocess, "run", no_git)
        assert git_rev() == "unknown"
