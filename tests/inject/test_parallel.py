"""Parallel campaign execution: jobs-invariance, caching, parity.

The contract under test (docs/parallelism.md): a campaign report is a
pure function of ``(graph, variant, fault list, cycles, seed)`` — the
``jobs`` value and the cache may change the wall clock, never a byte
of the report.
"""

import json
import pickle

import pytest

from repro.cli import main
from repro.exec import GraphRef, ResultCache
from repro.graph import figure2
from repro.inject import GoldenRun, run_campaign, skeleton_campaign
from repro.lid.variant import ProtocolVariant
from repro.obs import Telemetry

REF = GraphRef.from_spec("figure2")


def _campaign(jobs=1, cache=None, telemetry=None, **overrides):
    params = dict(variant=ProtocolVariant.CASU, classes=("stop", "void"),
                  cycles=100, samples=24, seed=7, strict=True)
    params.update(overrides)
    return run_campaign(figure2(), jobs=jobs, graph_ref=REF, cache=cache,
                        telemetry=telemetry, **params)


class TestJobsInvariance:
    def test_report_bytes_identical_across_jobs(self):
        serial = _campaign(jobs=1).to_json()
        for jobs in (2, 4):
            assert _campaign(jobs=jobs).to_json() == serial

    def test_metrics_merge_matches_serial_accumulation(self):
        serial_t = Telemetry.metrics_only()
        _campaign(jobs=1, telemetry=serial_t)
        parallel_t = Telemetry.metrics_only()
        _campaign(jobs=3, telemetry=parallel_t)
        assert (parallel_t.metrics.snapshot()
                == serial_t.metrics.snapshot())

    def test_execution_header_audits_but_never_leaks(self):
        report = _campaign(jobs=3, cache=ResultCache.memory())
        assert report.execution["jobs"] == 3
        assert report.execution["workers"] == 3
        assert report.execution["cache"] == {"hits": 0, "misses": 1,
                                             "evictions": 0}
        # Default payload excludes the header (jobs-invariance)...
        assert "execution" not in report.to_payload()
        # ...and the audit opt-in includes it.
        assert report.to_payload(execution=True)["execution"] == (
            report.execution)

    def test_worker_count_capped_by_fault_count(self):
        report = _campaign(jobs=16, samples=3)
        assert report.execution["workers"] == 3
        assert report.to_json() == _campaign(jobs=1, samples=3).to_json()


class TestGoldenRunCache:
    def test_second_campaign_hits_and_agrees(self):
        cache = ResultCache.memory()
        first = _campaign(cache=cache)
        assert cache.stats.to_dict() == {"hits": 0, "misses": 1,
                                         "evictions": 0}
        second = _campaign(cache=cache)
        assert cache.stats.hits == 1
        assert second.to_json() == first.to_json()

    def test_cache_never_changes_the_report(self):
        assert (_campaign(cache=ResultCache.memory()).to_json()
                == _campaign(cache=None).to_json())

    def test_different_cycles_do_not_share_entries(self):
        cache = ResultCache.memory()
        _campaign(cache=cache, cycles=100)
        _campaign(cache=cache, cycles=120)
        assert cache.stats.misses == 2

    def test_flipping_strict_misses(self):
        # The entry is the monitored trunk: its fork table and its own
        # detection depend on the stop-shape monitor.
        cache = ResultCache.memory()
        strict = _campaign(cache=cache, strict=True)
        lax = _campaign(cache=cache, strict=False)
        assert cache.stats.to_dict() == {"hits": 0, "misses": 2,
                                         "evictions": 0}
        assert lax.to_json() == _campaign(strict=False).to_json()
        assert strict.to_json() == _campaign(strict=True).to_json()

    def test_changing_faults_with_the_same_seed_misses(self):
        cache = ResultCache.memory()
        _campaign(cache=cache, classes=("stop", "void"))
        other = _campaign(cache=cache, classes=("stop", "void", "payload"))
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert other.to_json() == _campaign(
            classes=("stop", "void", "payload")).to_json()

    def test_poisoned_trunk_entry_is_survived(self, tmp_path, capsys):
        directory = tmp_path / "cache"
        first = _campaign(cache=ResultCache.disk(str(directory)))
        (entry,) = directory.glob("*.pkl")
        # A torn write, then a bare golden run (no fork table) under the
        # trunk's key: both are misses that re-capture the trunk.
        entry.write_bytes(entry.read_bytes()[:7])
        torn = _campaign(cache=ResultCache.disk(str(directory)))
        assert "poisoned cache entry" in capsys.readouterr().err
        bare = GoldenRun.capture(figure2(), ProtocolVariant.CASU, 100)
        entry.write_bytes(pickle.dumps(bare))
        stale = _campaign(cache=ResultCache.disk(str(directory)))
        assert torn.to_json() == stale.to_json() == first.to_json()
        assert pickle.loads(entry.read_bytes()).forks is not None


class TestSkeletonParallelContract:
    def test_skeleton_report_invariant_and_audited(self):
        serial = skeleton_campaign(figure2(), cycles=100, samples=24,
                                   seed=7, jobs=1)
        parallel = skeleton_campaign(figure2(), cycles=100, samples=24,
                                     seed=7, jobs=4)
        assert parallel.to_json() == serial.to_json()
        # The batched engine is the parallelism; jobs is recorded for
        # the audit header but the engine stays single-process.
        assert parallel.execution == {"backend": "bitsim",
                                      "jobs": 4, "workers": 1,
                                      "cache": None}


class TestInjectCliParallel:
    ARGS = ["inject", "--topology", "feedback", "--faults", "stop,void",
            "--cycles", "100", "--samples", "32", "--seed", "7",
            "--format", "json"]

    def test_jobs_1_vs_4_byte_identical(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(self.ARGS + ["--jobs", "1", "--cache-dir", cache_dir,
                                 "-o", str(serial)]) == 0
        assert main(self.ARGS + ["--jobs", "4", "--cache-dir", cache_dir,
                                 "-o", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        out = capsys.readouterr().out
        assert "jobs=1 cache-hits=0 cache-misses=1" in out
        assert "jobs=4 cache-hits=1 cache-misses=0" in out

    def test_no_cache_flag_still_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(self.ARGS + ["--no-cache", "-o", str(a)]) == 0
        assert main(self.ARGS + ["--jobs", "2", "--no-cache",
                                 "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "cache-hits" not in capsys.readouterr().out

    def test_poisoned_cache_entry_is_survived(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        good = tmp_path / "good.json"
        again = tmp_path / "again.json"
        assert main(self.ARGS + ["--cache-dir", str(cache_dir),
                                 "-o", str(good)]) == 0
        entries = list(cache_dir.glob("*.pkl"))
        assert entries
        for entry in entries:
            entry.write_bytes(entry.read_bytes()[:7])  # torn write
        assert main(self.ARGS + ["--cache-dir", str(cache_dir),
                                 "-o", str(again)]) == 0
        assert good.read_bytes() == again.read_bytes()
        err = capsys.readouterr().err
        assert "poisoned cache entry" in err

    def test_metrics_out_invariant_under_jobs(self, tmp_path, capsys):
        serial = tmp_path / "serial-metrics.json"
        parallel = tmp_path / "parallel-metrics.json"
        assert main(self.ARGS + ["--no-cache", "--metrics-out",
                                 str(serial)]) == 0
        assert main(self.ARGS + ["--jobs", "4", "--no-cache",
                                 "--metrics-out", str(parallel)]) == 0
        a = json.loads(serial.read_text())
        b = json.loads(parallel.read_text())
        assert a["metrics"] == b["metrics"]
        capsys.readouterr()
