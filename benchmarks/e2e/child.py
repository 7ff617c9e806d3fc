"""One offline workload run inside a fresh process.

``python3 child.py CONFIG.json`` imports the program from the config's
``src``, runs one warm-up manifest of each kind the workload uses,
prints a ``ready`` line on stdout (the parent stops the set-up clock
there) and then, depending on ``mode``:

* ``setup`` — exits;
* ``measure`` — calls ``repro.cli.main(argv)`` in a closed loop with
  one caller for ``seconds``, then runs the output checks;
* ``trace`` — replays a fixed number of manifests untraced, then the
  same manifests with every layer wrapped (fresh cache for each pass),
  then runs the output checks.

The result goes to ``CONFIG["result"]`` as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from itertools import islice
from time import perf_counter


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        cfg = json.load(fh)
    proto = sys.stdout
    sys.path.insert(0, cfg["src"])
    import repro.cli

    import calib
    import checks
    import workloads

    workload, work = cfg["workload"], cfg["work"]
    failures: list = []
    attempted = 0

    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                # Looked up per call: a traced pass rebinds it.
                rc = repro.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed manifest, not ours
                rc = "crash: " + traceback.format_exc(limit=3)
        return rc, out.getvalue()

    def run(manifest):
        nonlocal attempted
        attempted += 1
        start = perf_counter()
        rc, text = call(manifest["argv"])
        end = perf_counter()
        if rc not in manifest["exits"]:
            failures.append(f"{' '.join(manifest['argv'])}: exit {rc}")
        return {"argv": manifest["argv"], "rc": rc, "text": text,
                "output": manifest["output"], "start": start, "end": end}

    for manifest in workloads.offline_warmups(workload, work):
        run(manifest)
    proto.write(json.dumps({"event": "ready"}) + "\n")
    proto.flush()
    if cfg["mode"] == "setup":
        _write(cfg, attempted, failures, {})
        return 0

    def measure(manifests, deadline=None, on_start=None):
        """Run manifests with host-speed probes between them."""
        probe = calib.Probe()
        probe.maybe()
        records = []
        for index, manifest in enumerate(manifests):
            if on_start is not None:
                on_start(index)
            records.append(run(manifest))
            probe.maybe()
            if deadline is not None and records[-1]["end"] >= deadline:
                break
        for record in records:
            record["scaled_ms"] = 1000.0 * (
                record["end"] - record["start"]) * probe.factor_at(
                    record["start"], record["end"])
        return records, probe

    stream = workloads.offline_manifests(workload, cfg["seed"], work)
    result = {}
    if cfg["mode"] == "measure":
        records, _probe = measure(stream, perf_counter() + cfg["seconds"])
        result["peak_rss_mb"] = _peak_rss_mb()
    else:
        import trace

        manifests = list(islice(stream, cfg["trace_manifests"]))
        untraced, _probe = measure(manifests)
        digests = [_digest(r) for r in untraced]
        tracer = trace.Tracer()
        missing = trace.install(tracer)
        os.environ["REPRO_LID_CACHE_DIR"] = os.path.join(work, "cache-traced")
        records, probe = measure(manifests, on_start=trace.REQUEST.set)
        for record, digest in zip(records, digests):
            if _digest(record) != digest:
                failures.append(f"{' '.join(record['argv'])}: output "
                                "bytes change under tracing")
        windows = [(r["start"], r["end"]) for r in records]
        result["per_layer"] = trace.layer_metrics(
            [tracer.spans], len(records), windows, scale=probe.factor())
        result["per_layer"]["trace.overhead_ratio"] = (
            _summary(records)["elapsed_scaled_s"]
            / _summary(untraced)["elapsed_scaled_s"])
        result["untraced"] = _summary(untraced)
        result["missing_targets"] = missing

    summary = _summary(records)
    faults = 0
    for record in records:
        if record["output"] is not None and isinstance(record["rc"], int):
            attempted += 1
            try:
                classified, problems = checks.check_report(
                    record["argv"], record["output"])
            except Exception:  # unreadable report: a failed check
                classified, problems = 0, [traceback.format_exc(limit=2)]
            faults += classified
            failures.extend(problems)
    for check, argument in (
            (checks.cross_path,
             workloads.offline_checks(workload, cfg["seed"], work)),
            (checks.live_implies_deadlock_free, records)):
        try:
            count, problems = check(call, argument)
        except Exception:
            count, problems = 1, [traceback.format_exc(limit=2)]
        attempted += count
        failures.extend(problems)
    summary["faults"] = faults
    summary["disagree"] = sum("[DISAGREE]" in r["text"] for r in records)
    result.update(summary)
    _write(cfg, attempted, failures, result)
    return 0


def _digest(record) -> str:
    if record["output"] is None:
        return hashlib.sha256(record["text"].encode()).hexdigest()
    try:
        with open(record["output"], "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:  # the manifest failed; already counted
        return ""


def _busy(records) -> float:
    return sum(r["end"] - r["start"] for r in records)


def _summary(records) -> dict:
    scaled_s = sum(r["scaled_ms"] for r in records) / 1000.0
    return {"latencies_ms": [1000.0 * (r["end"] - r["start"])
                             for r in records],
            "latencies_scaled_ms": [r["scaled_ms"] for r in records],
            "elapsed_scaled_s": scaled_s,
            "throughput_per_s": len(records) / _busy(records),
            "throughput_scaled_per_s": len(records) / scaled_s,
            "manifests": len(records)}


def _write(cfg, attempted, failures, result) -> None:
    result.update(attempted=attempted, failed=len(failures),
                  failures=failures[:20])
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
