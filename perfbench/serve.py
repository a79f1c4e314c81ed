"""The ``serve_mix`` workload: HTTP traffic against ``slp serve``.

Set-up seeds a proof store through a real server (one batch request with
the repeat set).  Then, for each step, ``slp serve --jobs 2 --store`` starts
afresh over a copy of that store and a generator in this process offers it
the same single-entailment ``POST /prove`` requests over at most two
keep-alive connections (the host's CPU count): half are alpha-renamed
repeats of the seeded set, answered from the disk tier first and the memory
tier after, and half are distinct problems that are proved and written
through.  Last, ten restarts over the seeded store each answer the whole
repeat set, from the disk tier.

An untraced run offers the requests closed loop (each connection sends its
next request when the previous one is answered) in ``pass_count`` steps:
``throughput_eps`` is the steps' median delivered rate, the most two
connections get through, and ``verdict_*`` are the client latencies.
``restart_eps`` is the restarted servers' median rate on the repeats.  All
are scaled to the reference host like the batch workloads' figures
(``hostspeed.py``).  Every step does the same work on a fresh copy of the
same store, so the steps' proved, appended and uncacheable counts from
``/stats`` must agree; a difference fails the run.

A traced run measures that closed-loop capacity untraced first, then offers
the requests open loop at ``OPEN_LOOP_SHARE`` of it, once to a traced server
and once to an untraced one.  An open-loop request is timed from its *due*
time, so a stall also charges the requests queued behind it, and the
generator's lateness (send time minus due time) is reported.  The traced
step gives the server's queue-wait and execution figures, and its p50
latency over the untraced step's is the tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (
    HERE, PER_LAYER, ROOT, SRC, WORK, check_fingerprint, check_layers, describe_unscaled,
    percentile, remove_prefixed, tail_percentile, timing_metrics, tree_peak_rss_mb,
)
from hostspeed import HostSpeed
from inputs import Instance, load_pool, prefix_for, rename

#: A traced run's open-loop rate, as a share of the closed-loop delivered rate.
OPEN_LOOP_SHARE = 0.4
CONNECTIONS = 2
#: Requests per step: half distinct problems, half repeats.
STEP_REQUESTS = 266
REPEATS = 40
RESTARTS = 10
MIN_STEPS = 3
#: Nominal time of one closed-loop step, server start included, measured on
#: a 2-CPU x86-64 host (about 80 requests per second).
STEP_SECONDS = 4.0
#: The server's per-entailment budget; the slowest line it is offered takes
#: 0.62 s under the default configuration, so every request is decided.
SERVER_TIMEOUT_S = 10.0


def plan() -> Tuple[List[Instance], List[Instance]]:
    """The repeat set and the distinct problems, in a fixed interleaved order."""
    table1 = load_pool("table1")[::4]
    table2 = load_pool("table2")[::2]
    vcs = load_pool("vcs")[::2]
    mixed: List[Instance] = []
    for index in range(max(len(table1), len(table2), len(vcs))):
        for pool in (table1, table2, vcs):
            if index < len(pool):
                mixed.append(pool[index])
    return mixed[:REPEATS], mixed[REPEATS:]


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


class Server:
    """``slp serve`` as a child process; its set-up span runs from spawn to healthy."""

    def __init__(self, store: str, dump_dir: Optional[str]):
        os.makedirs(WORK, exist_ok=True)
        self.log_path = os.path.join(WORK, "serve-{}.log".format(os.getpid()))
        arguments = ["--port", "0", "--jobs", "2", "--store", store,
                     "--timeout", str(SERVER_TIMEOUT_S)]
        if dump_dir is None:
            command = [sys.executable, "-m", "repro.cli", "serve"] + arguments
        else:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"), dump_dir] + arguments
        environment = dict(os.environ, PYTHONPATH=SRC)
        started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(command, stderr=log, stdout=subprocess.DEVNULL,
                                            cwd=ROOT, env=environment)
        try:
            self.port = self._wait_for_port()
            while self.request("GET", "/healthz")[1].get("status") != "healthy":
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_span = (started, time.perf_counter())

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("slp serve exited: " + open(self.log_path).read())
            with open(self.log_path) as log:
                for row in log:
                    if "listening on http://" in row:
                        return int(row.split("listening on http://")[1].split()[0].rsplit(":", 1)[1])
            time.sleep(0.005)
        raise RuntimeError("slp serve did not announce its port")

    def request(self, method: str, path: str, body: Optional[dict] = None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            connection.request(method, path, body=payload,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if os.path.exists(self.log_path):
            os.remove(self.log_path)


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------


class Step:
    """The outcome of offering one request list at one rate (or closed loop)."""

    def __init__(self, rate: Optional[float], count: int):
        self.rate = rate
        self.spans = [(0.0, 0.0)] * count  # (due, answered) per request
        self.lateness = [0.0] * count
        self.ok = [False] * count
        self.decided = [False] * count
        self.wrong = 0
        self.started = self.ended = 0.0

    @property
    def latency(self) -> List[float]:
        return [answered - due for due, answered in self.spans]

    @property
    def delivered(self) -> float:
        return sum(self.decided) / (self.ended - self.started)


def offer(port: int, requests: List[Instance], rate: Optional[float]) -> Step:
    """Send ``requests`` on an open-loop schedule (closed loop if ``rate`` is None)."""
    step = Step(rate, len(requests))
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + (0.05 if rate else 0.0)

    def client() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(requests):
                    return
                due = start + index / rate if rate else time.perf_counter()
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                step.lateness[index] = sent - due
                instance = requests[index]
                body = json.dumps({"entailments": [instance.line]}).encode()
                try:
                    connection.request("POST", "/prove", body=body,
                                       headers={"Content-Type": "application/json"})
                    response = connection.getresponse()
                    payload = json.loads(response.read())
                    status = response.status
                except (OSError, http.client.HTTPException, ValueError):
                    connection.close()
                    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                    status, payload = 0, {}
                step.spans[index] = (due, time.perf_counter())
                if status != 200:
                    continue
                result = payload["results"][0]
                if result.get("status") != "ok":
                    continue
                step.decided[index] = True
                if result["verdict"] != instance.expected:
                    with lock:
                        step.wrong += 1
                    continue
                step.ok[index] = True
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    step.started, step.ended = start, time.perf_counter()
    return step


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def serve_result(seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, object]:
    import tracing

    repeats, distinct = plan()
    half = 8 if smoke else STEP_REQUESTS // 2
    steps = 1 if smoke else max(MIN_STEPS, round(seconds / STEP_SECONDS))

    os.makedirs(WORK, exist_ok=True)
    seeded_store = os.path.join(WORK, "serve-{}.seeded".format(os.getpid()))
    step_store = os.path.join(WORK, "serve-{}.step".format(os.getpid()))
    dump_dir = os.path.join(WORK, "serve-trace-{}".format(os.getpid()))
    if trace:
        os.makedirs(dump_dir, exist_ok=True)
    tracer = tracing.Tracer(dump_dir) if trace else None
    setups: List[Tuple[float, float]] = []
    closed: List[Step] = []
    closed_stats: List[dict] = []
    opened: Dict[bool, Step] = {}  # traced or not -> open-loop step
    traced_stats: List[dict] = []
    restarts: List[Step] = []
    restart_stats: List[dict] = []
    peak = 0.0

    def run_step(number: int, rate: Optional[float], traced: bool) -> Tuple[Step, dict]:
        nonlocal peak
        prefix = prefix_for(seed, "serve/step{}".format(number))
        requests = [Instance(i.group, i.expected, rename(i.line, prefix))
                    for i in distinct[:half] + [repeats[k % len(repeats)] for k in range(half)]]
        # A fixed order: the seed renames, it does not reorder.
        random.Random("order:serve").shuffle(requests)
        copy_store(seeded_store, step_store)
        server = Server(step_store, dump_dir if traced else None)
        try:
            setups.append(server.setup_span)
            step = offer(server.port, requests, rate)
            stats = server.request("GET", "/stats")[1]
            peak = max(peak, tree_peak_rss_mb(server.process.pid))
        finally:
            server.stop()
        return step, stats

    with HostSpeed() as host:
        try:
            # Set-up: seed the store with the repeat set through a real server.
            server = Server(seeded_store, None)
            try:
                setups.append(server.setup_span)
                prefix = prefix_for(seed, "serve/seed")
                status, payload = server.request(
                    "POST", "/prove", {"entailments": [rename(i.line, prefix) for i in repeats]})
                if status != 200 or any(r.get("status") != "ok" for r in payload["results"]):
                    raise RuntimeError("seeding the store failed: {}".format(payload))
            finally:
                server.stop()

            for number in range(1 if trace else steps):
                step, stats = run_step(number, None, False)
                closed.append(step)
                closed_stats.append(stats)
            if trace:
                rate = OPEN_LOOP_SHARE * closed[0].delivered
                for number, traced in ((1, True), (2, False)):
                    opened[traced], stats = run_step(number, rate, traced)
                    if traced:
                        traced_stats.append(stats)

            # Restarts: fresh servers over the seeded store answer the repeat set.
            for number in range(RESTARTS):
                server = Server(seeded_store, dump_dir if trace else None)
                try:
                    setups.append(server.setup_span)
                    prefix = prefix_for(seed, "serve/restart{}".format(number))
                    burst = [Instance(i.group, i.expected, rename(i.line, prefix))
                             for i in repeats]
                    restarts.append(offer(server.port, burst, None))
                    restart_stats.append(server.request("GET", "/stats")[1])
                finally:
                    server.stop()
            if trace:
                tracing.collect(tracer)
        finally:
            remove_prefixed(os.path.join(WORK, "serve-{}.".format(os.getpid())))
            if trace:
                shutil.rmtree(dump_dir, ignore_errors=True)

    everything = closed + list(opened.values()) + restarts
    attempted = sum(len(step.ok) for step in everything)
    failed = sum(len(step.ok) - sum(step.decided) for step in everything)
    wrong = sum(step.wrong for step in everything)
    problems: List[str] = []
    if wrong:
        problems.append("{} wrong verdicts".format(wrong))
    if not all(all(step.ok) for step in restarts):
        problems.append("a restarted server failed repeat requests")

    # Every step offers the same requests to a fresh copy of the same store,
    # so the work it does must not drift from step to step.
    work = [step_work(stats) for stats in closed_stats + traced_stats]
    if any(counts != work[0] for counts in work[1:]):
        problems.append("work drifted between steps: {}".format(work))
    fingerprint = dict(work[0], per_step=2 * half, restart_disk_hits=sum(
        stats["cache"]["disk_hits"] for stats in restart_stats))
    if fingerprint["restart_disk_hits"] != RESTARTS * len(repeats):
        problems.append("the restarted servers read {} of {} repeats from disk".format(
            fingerprint["restart_disk_hits"], RESTARTS * len(repeats)))
    check_fingerprint("serve_mix" + (":smoke" if smoke else ""), fingerprint)

    tail_q = tail_percentile(2 * half)
    lines = ["{}: delivered {:.2f}/s p50 {:.1f} ms p{:g} {:.1f} ms max lateness {:.3f}s".format(
        label, step.delivered, 1000 * percentile(step.latency, 50.0), tail_q,
        1000 * percentile(step.latency, tail_q), max(step.lateness))
        for label, step in [("closed loop", step) for step in closed]
        + [("open loop {:.1f}/s {}".format(step.rate, "traced" if traced else "untraced"), step)
           for traced, step in opened.items()]]
    lines.append("tail = p{:g} over {} requests per step; setups {}".format(
        tail_q, 2 * half, ["%.3f" % (end - start) for start, end in setups]))
    summary: Dict[str, object] = {
        "attempted": attempted,
        "failed": failed + wrong,
        "problems": problems,
        "fingerprint": fingerprint,
        "notes": "\n".join(lines),
    }
    if not trace:
        scaled, unscaled = timing_metrics(
            host,
            throughput=[(sum(step.decided), step.started, step.ended) for step in closed],
            restart=[(sum(step.decided), step.started, step.ended) for step in restarts],
            verdicts=[span for step in closed for span in step.spans],
            setups=setups,
            tail_q=tail_q,
        )
        summary["metrics"] = dict(
            scaled,
            decided_frac=(sum(sum(s.decided) for s in everything) / attempted, "ratio"),
            ok_frac=(1.0 - failed / attempted, "ratio"),
            peak_rss_mb=(peak, "MB"),
        )
        summary["notes"] += "\n" + describe_unscaled(host, unscaled)
    else:
        summary["metrics"] = serve_layers(tracer, traced_stats[0], opened[True], opened[False])
        problems.extend(check_layers("serve_mix", summary["metrics"], smoke))
    return summary


def step_work(stats: dict) -> Dict[str, int]:
    """The counts of one step's ``/stats`` that its requests alone decide."""
    return {"proved": stats["pool"]["proved"], "store_appends": stats["store"]["appends"],
            "uncacheable": stats["cache"]["uncacheable"]}


def copy_store(source: str, target: str) -> None:
    """Replace every shard of ``target`` with a copy of ``source``'s."""
    remove_prefixed(target)
    directory = os.path.dirname(source)
    for name in os.listdir(directory):
        if name.startswith(os.path.basename(source)):
            suffix = name[len(os.path.basename(source)):]
            shutil.copyfile(os.path.join(directory, name), target + suffix)


def serve_layers(tracer, stats: dict, traced: Step, untraced: Step):
    """Per-layer metrics of a traced serve run: its traced step and restarts."""
    snapshot = tracer.snapshot()
    busy = snapshot["busy"]
    calls = snapshot["calls"]
    events = snapshot["events"]
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"] + cache["uncacheable"]
    client_p50 = 1000.0 * percentile(traced.latency, 50.0)
    queue_p50 = stats["queue_wait"].get("p50_ms") or 0.0
    exec_p50 = stats["execution"].get("p50_ms") or 0.0
    metrics = {name: (0.0, unit) for name, unit in PER_LAYER}
    metrics.update({
        "saturation.busy_ms": (1000.0 * busy["saturation"], "ms"),
        "saturation.calls": (calls["saturation"], "count"),
        "model.busy_ms": (1000.0 * busy["model"], "ms"),
        "model.calls": (calls["model"], "count"),
        "model.retries": (events.get("model.retries", 0), "count"),
        "wellformed.busy_ms": (1000.0 * busy["wellformed"], "ms"),
        "wellformed.calls": (calls["wellformed"], "count"),
        "normalise.busy_ms": (1000.0 * busy["normalise"], "ms"),
        "unfold.busy_ms": (1000.0 * busy["unfold"], "ms"),
        "unfold.calls": (calls["unfold"], "count"),
        "unfold.success_ratio": (events.get("unfold.successes", 0) / calls["unfold"]
                                 if calls["unfold"] else 0.0, "ratio"),
        "counterexample.busy_ms": (1000.0 * busy["counterexample"], "ms"),
        "counterexample.calls": (calls["counterexample"], "count"),
        "parse.busy_ms": (1000.0 * busy["parse"], "ms"),
        "cnf.busy_ms": (1000.0 * busy["cnf"], "ms"),
        "canonical.busy_ms": (1000.0 * busy["canonical"], "ms"),
        "canonical.calls": (calls["canonical"], "count"),
        "canonical.too_symmetric": (events.get("canonical.too_symmetric", 0), "count"),
        "cache.lookup_ms": (1000.0 * busy["cache.lookup"], "ms"),
        "cache.rename_ms": (1000.0 * busy["cache.rename"], "ms"),
        "cache.hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "cache.disk_hits": (cache["disk_hits"], "count"),
        "cache.uncacheable": (cache["uncacheable"], "count"),
        "store.get_ms": (1000.0 * busy["store.get"], "ms"),
        "store.put_ms": (1000.0 * busy["store.put"], "ms"),
        "store.open_ms": (1000.0 * busy["store.open"], "ms"),
        "store.appends": (stats["store"]["appends"], "count"),
        "store.decode_errors": (stats["store"]["decode_errors"], "count"),
        "batch.dedup": (cache["deduplicated"], "count"),
        "pool.ipc_ms": (1000.0 * events.get("pool.ipc_s", 0.0), "ms"),
        "pool.retried": (stats["pool"]["retried"], "count"),
        "pool.respawned": (stats["pool"]["respawned_workers"], "count"),
        "server.queue_wait_p50_ms": (queue_p50, "ms"),
        "server.queue_wait_tail_ms": (stats["queue_wait"].get("p90_ms") or 0.0, "ms"),
        "server.exec_p50_ms": (exec_p50, "ms"),
        "server.exec_tail_ms": (stats["execution"].get("p90_ms") or 0.0, "ms"),
        "service.shed": (stats["shed"], "count"),
        "service.expired_in_queue": (stats["expired_in_queue"], "count"),
        "http.overhead_ms": (client_p50 - queue_p50 - exec_p50, "ms"),
        "trace.overhead_frac": (
            percentile(traced.latency, 50.0) / percentile(untraced.latency, 50.0) - 1.0,
            "ratio"),
    })
    return metrics
