"""The ``serve-mix`` workload: one ``repro-lid serve`` subprocess, load
from this process with at most ``min(2, nproc)`` connection threads.

Phases of a timed run:

1. open loop — requests due on a seeded Poisson schedule at ``RATE``
   per second; latency runs from each request's due time, so a stall
   also counts against the requests queued behind it;
2. closed loop — the same threads send back to back, in one-second
   segments; completed requests per second is the capacity without a
   growing backlog.

Host-speed probes (``calib.py``) run only while no request is in
flight, so the server's own load does not read as a slow host.

A traced run replays a fixed open-loop schedule on an untraced server
and then on a server started by ``serve_traced.py``.
"""

from __future__ import annotations

import collections
import hashlib
import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from time import perf_counter
from typing import Dict, Iterator, List, Optional

import calib
import workloads

#: Open-loop arrival rate (requests/s): about a fifth of the
#: closed-loop capacity of a 2-core host (~170/s), so the open loop
#: sees moderate queueing and the closed loop measures the capacity.
RATE = 36.0
#: Share of ``--seconds`` spent in the open-loop phase.
OPEN_SHARE = 0.5
CONNECTIONS = min(2, os.cpu_count() or 1)
HERE = os.path.dirname(os.path.abspath(__file__))
_ANNOUNCE = re.compile(r"listening on http://[^:]+:(\d+)")


def _pids_with_parent(parent: int) -> List[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == parent and fields[0] != "Z":
                pids.append(int(entry))
    return pids


def _hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """A ``repro-lid serve`` subprocess on an ephemeral port."""

    def __init__(self, src: str, work: str, env: Dict[str, str],
                 trace_dir: Optional[str] = None) -> None:
        os.makedirs(work, exist_ok=True)
        args = ["--port", "0", "--jobs", str(CONNECTIONS),
                "--cache-dir", os.path.join(work, "cache"),
                "--ledger", os.path.join(work, "l.jsonl"),
                # Backpressure is not what this workload measures: a
                # 503 would be a failed request.
                "--queue-depth", "64"]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", "serve"] + args
        else:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                       src, trace_dir] + args
        self.log_path = os.path.join(work, "server.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                     stderr=self._log, env=env, cwd=work)
        self.port = self._wait_port()
        while self.request("GET", "/healthz")[0] != 200:
            time.sleep(0.01)

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            with open(self.log_path, encoding="utf-8") as fh:
                match = _ANNOUNCE.search(fh.read())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def request(self, method: str, path: str, body: Optional[dict] = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, dict(response.getheaders()), \
                response.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        return json.loads(self.request("GET", "/v1/stats")[2])

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its pool workers."""
        return sum(_hwm_mb(pid) for pid in
                   [self.proc.pid] + _pids_with_parent(self.proc.pid))

    def stop(self) -> None:
        """SIGINT the server; wait for it and its pool workers."""
        workers = _pids_with_parent(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = perf_counter() + 30
        while workers and perf_counter() < deadline:
            workers = [pid for pid in workers if _alive(pid)]
            time.sleep(0.02)
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
        self._log.close()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _key(body: dict) -> str:
    return json.dumps(body, sort_keys=True)


def _send(server: Server, body: dict, due: float, samples: list) -> None:
    sent = perf_counter()
    try:
        status, headers, payload = server.request("POST", "/v1/run", body)
    except OSError as exc:
        status, headers, payload = 0, {}, str(exc).encode()
    done = perf_counter()
    samples.append({"due": due, "sent": sent, "done": done,
                    "status": status, "kind": body["kind"],
                    "cache": headers.get("X-Repro-Cache"),
                    "exit": headers.get("X-Repro-Exit"), "key": _key(body),
                    "digest": hashlib.sha256(payload).hexdigest()})


def schedule(seed: int, groups: Iterator[List[dict]],
             duration: float = None, count: int = None) -> List[tuple]:
    """``(due offset, body)`` pairs: Poisson arrivals at ``RATE``."""
    rng = random.Random(f"serve-arrivals:{seed}")
    items, due = [], 0.0
    while True:
        due += rng.expovariate(RATE)
        if duration is not None and due > duration:
            return items
        for body in next(groups):
            items.append((due, body))
        if count is not None and len(items) >= count:
            return items


def open_loop(server: Server, items: List[tuple],
              probe: calib.Probe) -> List[dict]:
    """Send *items* at their due times; probe host speed in idle gaps
    (no request in flight), where our own load cannot skew it."""
    pending = collections.deque(items)
    lock = threading.Lock()
    samples: List[dict] = []
    inflight = [0]
    origin = perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                if not pending:
                    return
                offset, body = pending.popleft()
            due = origin + offset
            with lock:
                idle = inflight[0] == 0
            if idle and due - perf_counter() > 0.005:
                probe.maybe()
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            with lock:
                inflight[0] += 1
            _send(server, body, due, samples)
            with lock:
                inflight[0] -= 1

    _run_threads(sender)
    return samples


def closed_loop(server: Server, requests: Iterator[dict], duration: float,
                probe: calib.Probe) -> tuple:
    """Back-to-back requests in one-second segments, with host-speed
    probes between segments; returns the samples and the median raw and
    reference-speed throughput of the segments (the median shrugs off a
    segment the host slowed more than the probes saw)."""
    lock = threading.Lock()
    samples: List[dict] = []
    raw, scaled = [], []
    end = perf_counter() + duration
    while perf_counter() < end:
        for _ in range(3):
            probe.maybe()
        start = perf_counter()
        deadline = min(start + 1.0, end)

        def sender() -> None:
            while perf_counter() < deadline:
                with lock:
                    body = next(requests)
                _send(server, body, perf_counter(), samples)

        done = len(samples)
        _run_threads(sender)
        took = perf_counter() - start
        for _ in range(3):
            probe.maybe()
        raw.append((len(samples) - done) / took)
        scaled.append(raw[-1] / probe.factor_at(start, start + took))
    return samples, statistics.median(raw), statistics.median(scaled)


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _flat(groups: Iterator[List[dict]]) -> Iterator[dict]:
    for group in groups:
        yield from group


def check(samples: List[dict]) -> List[str]:
    """Failed requests, unexpected exit codes, and manifests whose
    responses differ between hit, miss and coalesced."""
    failures = []
    digests: Dict[str, set] = collections.defaultdict(set)
    for sample in samples:
        expected = ("0", "1") if sample["kind"] == "deadlock" else ("0",)
        if sample["status"] != 200 or sample["exit"] not in expected:
            failures.append(f"{sample['key']}: status {sample['status']} "
                            f"exit {sample['exit']}")
        else:
            digests[sample["key"]].add(sample["digest"])
    failures += [f"{key}: {len(found)} distinct response bodies"
                 for key, found in digests.items() if len(found) > 1]
    return failures


def _latency_ms(samples: List[dict], cache: Optional[str] = None,
                scaled: bool = True) -> List[float]:
    """Latency from the due time, at reference host speed if *scaled*."""
    return [1000.0 * (s["done"] - s["due"]) * (s["scale"] if scaled else 1)
            for s in samples if cache is None or s["cache"] == cache]


def _scale(samples: List[dict], probe: calib.Probe) -> None:
    for sample in samples:
        sample["scale"] = probe.factor_at(sample["due"], sample["done"])


def _start(src: str, work: str, env: Dict[str, str],
           trace_dir: Optional[str] = None) -> tuple:
    """Start a server and send one warm-up of each kind; returns the
    server, the set-up seconds and the warm-up samples."""
    started = perf_counter()
    server = Server(src, work, env, trace_dir)
    samples: List[dict] = []
    for body in workloads.serve_warmups():
        _send(server, body, perf_counter(), samples)
    return server, perf_counter() - started, samples


def run(seed: int, seconds: float, trace_run: bool, src: str, work: str,
        env: Dict[str, str], setups: int) -> dict:
    """One serve-mix run; returns the same shape as an offline child."""
    times, warm = [], []
    setup_probe = calib.Probe(interval=0.0)
    server = None
    for k in range(setups):
        if server is not None:
            server.stop()
        setup_probe.maybe()
        started = perf_counter()
        server, took, samples = _start(src, os.path.join(work, f"s{k}"),
                                       env)
        setup_probe.maybe()
        times.append((started, took))
        warm += samples
    result = calib.setup_times(times, setup_probe)
    try:
        if trace_run:
            return _traced(seed, seconds, server, src, work, env, warm,
                           result)
        groups = workloads.serve_requests(seed)
        items = schedule(seed, groups, duration=OPEN_SHARE * seconds)
        probe = calib.Probe()
        opened = open_loop(server, items, probe)
        closed, throughput, throughput_scaled = closed_loop(
            server, _flat(groups), (1 - OPEN_SHARE) * seconds,
            calib.Probe(interval=0.0))
        result["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    _scale(opened, probe)
    samples = warm + opened + closed
    failures = check(samples)
    result.update(_open_summary(opened))
    result.update(
        latencies_ms=_latency_ms(opened, scaled=False),
        latencies_scaled_ms=_latency_ms(opened), manifests=len(closed),
        throughput_per_s=throughput,
        throughput_scaled_per_s=throughput_scaled,
        attempted=len(samples), failed=len(failures),
        failures=failures[:20])
    return result


def _open_summary(opened: List[dict]) -> dict:
    late = sorted(1000.0 * (s["sent"] - s["due"]) for s in opened)
    hits = _latency_ms(opened, "hit")
    misses = _latency_ms(opened, "miss")
    return {
        "hit_share": len(hits) / len(opened),
        "hit_latency_p50_ms": statistics.median(hits) if hits else 0.0,
        "miss_latency_p50_ms": statistics.median(misses) if misses else 0.0,
        "client_late_p90_ms": late[int(0.9 * (len(late) - 1))],
    }


def _traced(seed, seconds, server, src, work, env, warm, result) -> dict:
    import trace

    count = max(4, round(workloads.TRACE_RATE["serve-mix"] * seconds))
    items = schedule(seed, workloads.serve_requests(seed), count=count)
    probe = calib.Probe()
    untraced = open_loop(server, items, probe)
    _scale(untraced, probe)
    server.stop()
    trace_dir = os.path.join(work, "spans")
    os.makedirs(trace_dir)
    traced_server, _took, samples = _start(
        src, os.path.join(work, "traced"), env, trace_dir)
    warm += samples
    since = perf_counter()
    traced_probe = calib.Probe()
    try:
        traced = open_loop(traced_server, items, traced_probe)
        stats = traced_server.stats()["serve"]
    finally:
        traced_server.stop()
    _scale(traced, traced_probe)
    batches = trace.load_batches(trace_dir)
    per_layer = trace.layer_metrics(batches, len(traced), since=since,
                                    scale=traced_probe.factor())
    busy = sum(s["done"] - s["sent"] for s in traced)
    per_layer.update({
        "trace.overhead_ratio": (sum(_latency_ms(traced))
                                 / sum(_latency_ms(untraced))),
        "trace.coverage": trace.span_seconds(batches, "serve.submit",
                                             since) / busy,
        "serve.hit_ratio": stats["hits"] / max(stats["requests"], 1),
        "serve.executed": stats["executed"],
        "serve.coalesced": stats["coalesced"],
        "serve.rejected": stats["rejected_rate"] + stats["rejected_queue"],
    })
    summary = _open_summary(untraced)
    per_layer.update({f"serve.{name}": summary[name] for name in (
        "hit_latency_p50_ms", "miss_latency_p50_ms", "client_late_p90_ms")})
    failures = check(warm + untraced + traced)
    result.update(per_layer=per_layer,
                  attempted=len(warm) + len(untraced) + len(traced),
                  failed=len(failures), failures=failures[:20],
                  manifests=len(traced))
    return result
