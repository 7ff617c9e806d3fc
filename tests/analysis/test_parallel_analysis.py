"""jobs-invariance of the experiment runner, and the verdict cache.

``write_results`` (``repro-lid reproduce --jobs``) must return exactly
what the serial path returns — parallelism is a wall-clock knob,
nothing else.  The skeleton analyses (sweeps, series, liveness) run
serially: their runs take milliseconds, less than a worker pool costs.
"""

import filecmp
import os

from repro.exec import ResultCache
from repro.graph import ring
from repro.skeleton import check_deadlock


class TestDeadlockJobs:
    def test_verdict_cache_hits_and_agrees(self):
        # A half relay station on a loop: the one topology class that
        # runs both fixpoint probes.
        graph = ring(2, relays_per_arc=[["half"], ["full"]])
        cache = ResultCache.memory()
        first = check_deadlock(graph, cache=cache)
        assert cache.stats.to_dict() == {"hits": 0, "misses": 1,
                                         "evictions": 0}
        second = check_deadlock(graph, cache=cache)
        assert cache.stats.hits == 1
        assert second == first


class TestWriteResultsJobs:
    def test_artifact_files_identical(self, tmp_path):
        from repro.bench.runner import write_results

        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial_paths = write_results(str(serial_dir))
        parallel_paths = write_results(str(parallel_dir), jobs=2)
        serial_names = sorted(os.path.basename(p) for p in serial_paths)
        parallel_names = sorted(os.path.basename(p)
                                for p in parallel_paths)
        assert serial_names == parallel_names
        # Tables must match byte-for-byte; JSON records differ only in
        # measured wall seconds, so compare just the .txt artifacts.
        # EXP-D2's table embeds wall-clock timings (it is a speed
        # benchmark), so it is nondeterministic even serial-vs-serial.
        tables = [n for n in serial_names
                  if n.endswith(".txt") and n != "EXP-D2.txt"]
        assert tables
        match, mismatch, errors = filecmp.cmpfiles(
            str(serial_dir), str(parallel_dir), tables, shallow=False)
        assert not mismatch and not errors
