"""End-to-end benchmark: manifests in, report bytes out.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload lid-campaign --seed 0
    python3 benchmarks/e2e/run.py --workload analysis --seed 0 --trace 1
    python3 benchmarks/e2e/run.py --seed 0 --record benchmarks/e2e/results
    python3 benchmarks/e2e/run.py --pairs 10 --parent HEAD~1 --out runs

Offline workloads (``lid-campaign``, ``skeleton-campaign``,
``analysis``) run ``repro.cli.main(argv)`` in a fresh child process per
set-up, with a fresh ``REPRO_LID_CACHE_DIR`` and ledger; ``serve-mix``
drives a ``repro-lid serve`` subprocess.  Each run sets up five times
(``setup_s`` is the median), measures for ``--seconds``, then checks
the outputs.  Times are reported at a reference host speed (see
``calib.py``); the raw values are printed beside them.  ``--trace 1`` replaces the timed run with an untraced
and a traced replay of the same manifests and reports the per-layer
metrics instead.  Everything a run writes lives under ``.bench_work/``
in the checkout and is removed at exit.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric of
``BENCHMARK.json``, or every per-layer one with ``--trace 1``).  The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from time import perf_counter
from typing import Dict, List

import calib
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SETUPS = 5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def child_env(src: str, work: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_LID_CACHE_DIR"] = os.path.join(work, "cache")
    env["REPRO_LID_LEDGER"] = os.path.join(work, "ledger.jsonl")
    env["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def run_offline(workload: str, seed: int, seconds: float, trace: bool,
                src: str, work: str) -> dict:
    """Set up ``SETUPS`` children; the last one also does the run."""
    setups: List[tuple] = []
    probe = calib.Probe(interval=0.0)
    totals = {"attempted": 0, "failed": 0, "failures": []}
    result: dict = {}
    for k in range(SETUPS):
        last = k == SETUPS - 1
        wdir = os.path.join(work, f"c{k}")
        os.makedirs(wdir)
        cfg = {"workload": workload, "seed": seed, "seconds": seconds,
               "src": src, "work": wdir,
               "mode": ("trace" if trace else "measure") if last
               else "setup",
               "trace_manifests": max(
                   3, round(workloads.TRACE_RATE[workload] * seconds)),
               "result": os.path.join(wdir, "result.json")}
        cfg_path = os.path.join(wdir, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        log_path = os.path.join(wdir, "child.log")
        with open(log_path, "w", encoding="utf-8") as log:
            probe.maybe()
            started = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), cfg_path],
                stdout=subprocess.PIPE, stderr=log, text=True,
                env=child_env(src, wdir), cwd=wdir)
            ready = proc.stdout.readline()
            setups.append((started, perf_counter() - started))
            probe.maybe()
            try:
                proc.communicate(timeout=max(60.0, 6 * seconds))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        if not ready or proc.returncode != 0:
            with open(log_path, encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"{workload} child exited "
                               f"{proc.returncode}:\n{tail}")
        with open(cfg["result"], encoding="utf-8") as fh:
            data = json.load(fh)
        for name in ("attempted", "failed"):
            totals[name] += data[name]
        totals["failures"] += data["failures"]
        if last:
            result = data
    result.update(totals, **calib.setup_times(setups, probe))
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 src: str) -> dict:
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if workload == "serve-mix":
            import serve_mix

            return serve_mix.run(seed, seconds, trace, src, work,
                                 child_env(src, work), SETUPS)
        return run_offline(workload, seed, seconds, trace, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(result: dict, scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics, at reference host speed when *scaled*."""
    suffix = "_scaled" if scaled else ""
    latencies = result[f"latencies{suffix}_ms"]
    return {
        "setup_s": statistics.median(result[f"setup{suffix}_s"]),
        "throughput_per_s": result[f"throughput{suffix}_per_s"],
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def details(workload: str, result: dict, trace: bool) -> Dict[str, float]:
    """Workload-specific numbers printed beside the metrics."""
    info: Dict[str, float] = {}
    if trace:
        return info
    latencies = result["latencies_scaled_ms"]
    info["latency_samples"] = len(latencies)
    info["beyond_p90"] = sum(v > percentile(latencies, 90)
                             for v in latencies)
    if workload.endswith("campaign"):
        info["faults_per_s"] = result["faults"] / result["elapsed_scaled_s"]
    if workload == "analysis":
        info["formula_disagree"] = result["disagree"]
    if workload == "serve-mix":
        for name in ("hit_share", "hit_latency_p50_ms",
                     "miss_latency_p50_ms", "client_late_p90_ms"):
            info[name] = result[name]
    return info


def per_layer(workload: str, result: dict, spec: dict,
              calib_ms: float) -> Dict[str, float]:
    measured = dict(result["per_layer"], **{"host.calib_ms": calib_ms})
    if workload.endswith("campaign"):
        measured["inject.faults_per_s"] = (
            result["faults"] / result["untraced"]["elapsed_scaled_s"])
    # A layer this workload does not reach reads 0.
    return {m["name"]: measured.get(m["name"], 0.0)
            for m in spec["per_layer"]}


def bench_record(workload: str, seed: int, seconds: float,
                 metrics: Dict[str, float], info: Dict[str, float],
                 host: dict) -> dict:
    """A ``repro-bench-record/v1`` record ``obs regress`` can scan."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, cwd=ROOT,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "schema": "repro-bench-record/v1",
        "bench": f"E2E-{workload}",
        "description": f"end-to-end benchmark, workload {workload}",
        "params": {"seed": seed, "seconds": seconds},
        # Seconds per completed manifest: the run length itself is fixed.
        "wall_seconds": 1.0 / metrics["throughput_per_s"],
        "counters": dict(metrics, **info, **host),
        "git_rev": rev,
    }


def run_one(args, workload: str, spec: dict) -> bool:
    calib_start = calib.calibrate_ms()
    result = run_workload(workload, args.seed, args.seconds,
                          bool(args.trace), args.src)
    calib_end = calib.calibrate_ms()
    noisy = abs(calib_end - calib_start) > 0.1 * calib_start
    host = {"host.calib_ms": calib_start, "host.calib_end_ms": calib_end}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    if args.trace:
        metrics = per_layer(workload, result, spec, calib_start)
    else:
        metrics = end_to_end(result)
    info = details(workload, result, bool(args.trace))
    if not args.trace:
        info.update({f"raw.{name}": value for name, value
                     in end_to_end(result, scaled=False).items()})

    print(f"workload {workload}, seed {args.seed}, {args.seconds:g} s"
          f"{' (traced)' if args.trace else ''}: "
          f"{result['manifests']} manifests")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.4f} {units[name]}")
    for name, value in info.items():
        print(f"  {name:34s} {value:14.4f}")
    print(f"  setup runs (s): "
          + ", ".join(f"{v:.4f}" for v in result["setup_s"]))
    print(f"  host.calib_ms {calib_start:.3f} -> {calib_end:.3f}"
          f"{'  noisy_host' if noisy else ''}")
    print(f"  checks: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAILED: {failure.strip()}")
    correct = result["failed"] == 0
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "workload": workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "src": args.src, "correct": correct,
                "metrics": metrics, "info": info,
                "host": dict(host, noisy_host=noisy)}) + "\n")
    if args.record and not args.trace:
        os.makedirs(args.record, exist_ok=True)
        path = os.path.join(args.record, f"BENCH_E2E-{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bench_record(workload, args.seed, args.seconds,
                                   metrics, info, host),
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return correct


def export_parent(rev: str) -> str:
    """``src/`` of *rev* (via ``git archive``) for ``--parent`` runs."""
    target = os.path.join(ROOT, ".bench_work", f"parent-{rev}")
    shutil.rmtree(target, ignore_errors=True)
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    return os.path.join(target, "src")


def run_pairs(args, names: List[str]) -> int:
    """Alternate parent and change runs with identical benchmark code."""
    import compare

    parent_src = export_parent(args.parent)
    sides = {"parent": parent_src, "change": args.src}
    outs = {side: f"{args.out}.{side}.jsonl" for side in sides}
    for path in outs.values():
        if os.path.exists(path):
            os.unlink(path)
    try:
        for index in range(args.pairs):
            order = ["parent", "change"] if index % 2 == 0 \
                else ["change", "parent"]
            for workload in names:
                for side in order:
                    subprocess.run(
                        [sys.executable, os.path.abspath(__file__),
                         "--workload", workload,
                         "--seed", str(args.seed + index),
                         "--seconds", str(args.seconds), "--trace", "0",
                         "--src", sides[side], "--out", outs[side]],
                        check=False, stdout=subprocess.DEVNULL)
    finally:
        shutil.rmtree(os.path.dirname(parent_src), ignore_errors=True)
    return compare.main([outs["parent"], outs["change"]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", default=None,
                        help="append one JSON record per run to this file "
                             "(with --pairs: prefix of the two run files)")
    parser.add_argument("--record", default=None, metavar="DIR",
                        help="write BENCH_E2E-<workload>.json records")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree of the program under test")
    parser.add_argument("--pairs", type=int, default=0,
                        help="run N parent/change pairs (needs --parent)")
    parser.add_argument("--parent", default=None, metavar="REV",
                        help="git revision whose src/ is the parent side")
    args = parser.parse_args(argv)
    args.src = os.path.abspath(args.src)

    if not os.path.isfile(os.path.join(args.src, "repro", "__init__.py")):
        print(f"error: no program source under {args.src}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = args.workload or list(workloads.WORKLOADS)
    if args.pairs:
        if not (args.parent and args.out):
            parser.error("--pairs needs --parent and --out")
        return run_pairs(args, names)
    ok = True
    for workload in names:
        try:
            ok = run_one(args, workload, spec) and ok
        except (RuntimeError, OSError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
